//! The scheduler's ready structure: one cached event time per component,
//! keyed `(time, slot)`.
//!
//! Slots number the components in the scheduler's tie-break order — PEs
//! `0..n_pes`, then MCs, then Fetch-Unit controllers — so the first slot
//! holding the least time is exactly the `(ready_at, class, index)` minimum
//! a strict-`<` scan over PEs, MCs and FUCs finds.
//!
//! A component's time is written only when a step changes it, so choosing
//! the next event never re-derives readiness from component state; it is a
//! minimum over one flat `u64` array. For the prototype's 24 components
//! that is cheaper than a binary heap, whose sift steps mispredict on
//! every level (measured; see `docs/TIMING.md` §7).

/// Cached event time per component; [`IDLE`] marks a component that is not
/// runnable. Simulated time starts at 0 and advances by instruction costs,
/// so no component is ever due at `u64::MAX` itself.
#[derive(Debug, Default)]
pub(super) struct ReadyTable {
    at: Vec<u64>,
}

const IDLE: u64 = u64::MAX;

impl ReadyTable {
    /// Forget every time and size the table for `slots` components.
    pub(super) fn reset(&mut self, slots: usize) {
        self.at.clear();
        self.at.resize(slots, IDLE);
    }

    /// Schedule `slot` at `time`, or unschedule it (`None`).
    #[inline]
    pub(super) fn set(&mut self, slot: usize, time: Option<u64>) {
        self.at[slot] = time.unwrap_or(IDLE);
    }

    /// The earliest event `(time, slot)` among the slots `skip` rejects,
    /// without removing it.
    pub(super) fn first_outside(&self, skip: impl Fn(usize) -> bool) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (i, &t) in self.at.iter().enumerate() {
            if t != IDLE && !skip(i) && best.is_none_or(|(b, _)| t < b) {
                best = Some((t, i));
            }
        }
        best
    }

    /// Remove and return the earliest event as `(time, slot)`, the lowest
    /// slot winning ties. The slot is unscheduled: the caller reschedules
    /// it after stepping.
    pub(super) fn pop(&mut self) -> Option<(u64, usize)> {
        // Two branch-free passes (the minimum, then its first slot) beat one
        // pass that branches on every compare.
        let best = self.at.iter().copied().min().filter(|&t| t != IDLE)?;
        let slot = self.at.iter().position(|&t| t == best)?;
        self.at[slot] = IDLE;
        Some((best, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator for the model test.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % bound
        }
    }

    #[test]
    fn pops_in_time_then_slot_order() {
        let mut q = ReadyTable::default();
        q.reset(6);
        q.set(5, Some(10));
        q.set(1, Some(10));
        q.set(3, Some(7));
        q.set(0, Some(12));
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 5)));
        assert_eq!(q.pop(), Some((12, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rescheduling_replaces_the_time() {
        let mut q = ReadyTable::default();
        q.reset(3);
        q.set(0, Some(5));
        q.set(0, Some(9));
        q.set(1, Some(6));
        q.set(2, Some(4));
        q.set(2, None);
        assert_eq!(q.pop(), Some((6, 1)));
        assert_eq!(q.pop(), Some((9, 0)));
        assert_eq!(q.pop(), None);
        // A slot popped and rescheduled at the same time runs again.
        q.set(1, Some(6));
        assert_eq!(q.pop(), Some((6, 1)));
    }

    #[test]
    fn matches_a_scan_of_optional_times_under_random_updates() {
        // The reference: the first slot with the least time, found by a
        // strict-`<` scan over optional times.
        let slots = 24;
        let mut q = ReadyTable::default();
        q.reset(slots);
        let mut model: Vec<Option<u64>> = vec![None; slots];
        let mut rng = Lcg(7);
        for _ in 0..20_000 {
            match rng.next(4) {
                0 => {
                    let mut best: Option<(u64, usize)> = None;
                    for (s, t) in model.iter().enumerate() {
                        if let Some(t) = *t {
                            if best.is_none_or(|(bt, _)| t < bt) {
                                best = Some((t, s));
                            }
                        }
                    }
                    assert_eq!(q.pop(), best);
                    if let Some((_, s)) = best {
                        model[s] = None;
                    }
                }
                1 => {
                    let s = rng.next(slots as u64) as usize;
                    q.set(s, None);
                    model[s] = None;
                }
                _ => {
                    let s = rng.next(slots as u64) as usize;
                    let t = rng.next(50);
                    q.set(s, Some(t));
                    model[s] = Some(t);
                }
            }
        }
    }

    #[test]
    fn first_outside_skips_and_keeps() {
        let mut q = ReadyTable::default();
        q.reset(4);
        q.set(0, Some(3));
        q.set(2, Some(5));
        q.set(3, Some(5));
        assert_eq!(q.first_outside(|s| s == 0), Some((5, 2)));
        assert_eq!(q.first_outside(|s| s != 3), Some((5, 3)));
        assert_eq!(q.first_outside(|_| true), None);
        assert_eq!(q.pop(), Some((3, 0)), "nothing was removed");
    }

    #[test]
    fn late_times_still_order() {
        let mut q = ReadyTable::default();
        q.reset(2);
        q.set(1, Some(u64::MAX - 1));
        q.set(0, Some(u64::MAX - 1));
        assert_eq!(q.pop(), Some((u64::MAX - 1, 0)));
        assert_eq!(q.pop(), Some((u64::MAX - 1, 1)));
        assert_eq!(q.pop(), None);
    }
}
