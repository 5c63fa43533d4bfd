//! The benchmark's metric arithmetic: percentiles that are only reported
//! when enough samples lie beyond them, throughput as a ratio of totals,
//! shares, and span self time.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile `q` (0..1) of `samples` by linear interpolation between the
/// closest ranks, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond the upper rank it interpolates from.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = q * (n - 1) as f64;
    let upper = rank.ceil() as usize;
    if n - 1 - upper < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let lower = rank.floor() as usize;
    let frac = rank - lower as f64;
    Some(sorted[lower] + (sorted[upper] - sorted[lower]) * frac)
}

/// The median, under the same rule as [`percentile`].
pub fn p50(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The plain median of a small set (set-up repeats): no percentile rule,
/// since it summarises repeats rather than a tail.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A throughput as a ratio of totals over the whole run: Σwork / Σtime.
/// Unlike a mean of per-item rates, a slow item weighs by its time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SumRatio {
    pub work: f64,
    pub seconds: f64,
}

impl SumRatio {
    pub fn add(&mut self, work: f64, seconds: f64) {
        self.work += work;
        self.seconds += seconds;
    }

    /// Σwork / Σtime, 0 when no time was recorded.
    pub fn rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.work / self.seconds
        } else {
            0.0
        }
    }
}

/// The best (smallest) time of each item over a run's repeats of it.
#[derive(Debug, Clone)]
pub struct BestOf(Vec<f64>);

impl BestOf {
    pub fn new(items: usize) -> BestOf {
        BestOf(vec![f64::INFINITY; items])
    }

    pub fn record(&mut self, item: usize, t: f64) {
        self.0[item] = self.0[item].min(t);
    }

    /// Whether every item has at least one repeat.
    pub fn all_seen(&self) -> bool {
        self.0.iter().all(|t| t.is_finite())
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }
}

/// `part / whole`, 0 when the whole is empty.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// One closed span: spans of one thread nest, so a span's children never
/// overlap each other.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Shared by every span of one cell or request.
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span, in input order: its duration minus the time its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = std::collections::HashMap::<u64, u64>::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 interpolates ranks 89.1 -> upper index 90, which
        // leaves 9 samples beyond: refused. 101 samples: rank 90 exactly,
        // 10 beyond: reported.
        assert_eq!(percentile(&ramp(100), 0.9), None);
        assert_eq!(percentile(&ramp(101), 0.9), Some(91.0));
        // The median needs 21 samples; p99 needs 1001.
        assert_eq!(p50(&ramp(20)), None);
        assert_eq!(p50(&ramp(21)), Some(11.0));
        assert_eq!(percentile(&ramp(1000), 0.99), None);
        assert!(percentile(&ramp(1001), 0.99).is_some());
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_interpolates_and_ignores_input_order() {
        let mut v = ramp(41);
        v.reverse();
        // rank 0.25 * 40 = 10 -> 11.0 exactly; 0.3 * 40 = 12 -> 13.0.
        assert_eq!(percentile(&v, 0.25), Some(11.0));
        assert_eq!(percentile(&v, 0.3), Some(13.0));
        let v: Vec<f64> = (0..42).map(|i| (i * 2) as f64).collect();
        // rank 0.5 * 41 = 20.5 -> halfway between 40 and 42.
        assert_eq!(percentile(&v, 0.5), Some(41.0));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn throughput_is_a_ratio_of_totals_not_a_mean_of_rates() {
        // One fast item (100 work in 1 s) and one slow one (100 in 9 s):
        // the mean of rates would be (100 + 11.1) / 2 = 55.6; the ratio of
        // totals is 200 / 10 = 20.
        let mut r = SumRatio::default();
        r.add(100.0, 1.0);
        r.add(100.0, 9.0);
        assert_eq!(r.rate(), 20.0);
        assert_eq!(SumRatio::default().rate(), 0.0);
    }

    #[test]
    fn best_of_keeps_each_items_fastest_repeat() {
        let mut b = BestOf::new(2);
        b.record(0, 3.0);
        assert!(!b.all_seen());
        b.record(1, 5.0);
        b.record(0, 1.0);
        b.record(1, 7.0);
        assert!(b.all_seen());
        assert_eq!(b.values(), &[1.0, 5.0]);
    }

    #[test]
    fn shares_and_self_time() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            group: 1,
            name: "s",
            start_ns,
            end_ns,
        };
        // cell [0, 100) has children [10, 40) and [50, 90); the second has
        // a grandchild [60, 70) that counts against it, not against cell.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }
}
