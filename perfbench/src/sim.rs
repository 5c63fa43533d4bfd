//! The simulator workloads, `paper-grid` and `small-cells`: a fixed cell
//! list generated from the seed, run in whole passes on one driver thread
//! with cells in series and no HTTP traffic.

use crate::replay::{self, check_same, span_record, verify_output, ReplayLog, CELL};
use crate::stats::{median, p50, percentile, BestOf, SumRatio};
use crate::trace::{Profile, Tracer};
use crate::Outcome;
use pasm::{ExperimentKey, ExperimentResult, FaultPlan, MachineConfig, Mode};
use pasm_prog::MatmulParams;
use pasm_server::ResultCache;
use pasm_store::{ResultsQuery, SpanStore};
use pasm_util::Rng;
use std::sync::Arc;
use std::time::Instant;

const MODES: [Mode; 3] = [Mode::Simd, Mode::Mimd, Mode::Smimd];
const PS: [usize; 3] = [4, 8, 16];

/// How one simulator workload builds its cells and sizes its run.
pub struct Shape {
    /// Seed variants: each is one distinct cell list, verified once in
    /// set-up; timed passes cycle through them.
    variants: usize,
    /// Host seconds one timed pass takes on a 2-vCPU x86-64 host at the
    /// commit that defined the benchmark. It fixes the pass count for a
    /// given `--seconds`, so the work list never depends on measured time.
    nominal_pass_s: f64,
    /// Timed repeats of every cell, at least.
    min_repeats: usize,
    /// The cells of one variant. Every variant has the same shapes; the
    /// seed picks their input data.
    cells: fn(&mut Rng) -> Vec<ExperimentKey>,
}

/// `paper-grid`: the matmul cells of the paper's figures at n=32, with
/// fresh B matrices for every variant. Six variants give the 108 distinct
/// cells a p90 needs.
pub const PAPER_GRID: Shape = Shape {
    variants: 6,
    nominal_pass_s: 1.2,
    min_repeats: 1,
    cells: paper_grid_cells,
};

/// `small-cells`: every registry kernel at small sizes, where building and
/// loading a machine costs as much as running it.
pub const SMALL_CELLS: Shape = Shape {
    variants: 6,
    nominal_pass_s: 0.32,
    min_repeats: 2,
    cells: small_cells,
};

fn key(
    workload: &'static str,
    mode: Mode,
    n: usize,
    p: usize,
    extra: usize,
    seed: u64,
) -> ExperimentKey {
    ExperimentKey {
        config: MachineConfig::prototype(),
        mode,
        params: MatmulParams {
            n,
            p,
            extra_muls: extra,
        },
        seed,
        fault: FaultPlan::default(),
        workload,
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i + 1));
    }
}

/// A seed a JSON integer carries exactly.
pub fn gen_seed(rng: &mut Rng) -> u64 {
    rng.gen_u64() >> 12
}

fn paper_grid_cells(rng: &mut Rng) -> Vec<ExperimentKey> {
    let mut cells = Vec::new();
    for mode in MODES {
        for p in PS {
            for extra in [0, 14] {
                cells.push(key("matmul", mode, 32, p, extra, gen_seed(rng)));
            }
        }
    }
    shuffle(&mut cells, rng);
    cells
}

/// Cells per variant that carry a single-fault plan: about one in five.
const FAULTED_PER_VARIANT: usize = 7;

/// Every variant has the same shapes and the same fault carriers, so each
/// shape pools its timed repeats across the variants; the seed picks the
/// input data and which fault each carrier gets. Sizes form a Latin square
/// over mode and p, so each mode and each p runs every size.
fn small_cells(rng: &mut Rng) -> Vec<ExperimentKey> {
    let mut cells = Vec::new();
    for kernel in pasm_kernels::names() {
        for (m, mode) in MODES.into_iter().enumerate() {
            for (j, p) in PS.into_iter().enumerate() {
                let n = if kernel == pasm::MATMUL {
                    16
                } else {
                    [64, 128, 256][(m + j) % 3]
                };
                cells.push(key(kernel, mode, n, p, 0, gen_seed(rng)));
            }
        }
    }
    // Faults go on partitions smaller than the machine: stride placement
    // routes those around any single ESC fault, while a full-machine ring
    // has no one-pass route around an interior box.
    let faults = pasm::single_faults(MachineConfig::prototype().n_pes);
    let candidates: Vec<usize> = (0..cells.len())
        .filter(|&i| cells[i].params.p < 16)
        .collect();
    for k in 0..FAULTED_PER_VARIANT {
        let i = candidates[k * candidates.len() / FAULTED_PER_VARIANT];
        cells[i].fault = FaultPlan {
            net: vec![faults[rng.gen_range(faults.len())]],
            ..FaultPlan::default()
        };
    }
    shuffle(&mut cells, rng);
    cells
}

/// Passes for a run of `seconds`: whole rounds over every variant, and at
/// least `min_repeats` timed repeats of every cell.
fn passes(shape: &Shape, seconds: f64) -> usize {
    let wanted = (seconds / shape.nominal_pass_s).ceil() as usize;
    let wanted = wanted.max(shape.variants * shape.min_repeats);
    wanted.div_ceil(shape.variants) * shape.variants
}

/// The in-process read path a client of the service would use for a
/// finished cell, with no HTTP: a result-cache hit, and a query round of
/// listing, record fetch and phase sweep. Every read is repeated, and the
/// best time per (cell, read) is kept.
struct Reads {
    cache: ResultCache,
    store: SpanStore,
    hit: Vec<BestOf>,
    /// Per variant: list, get, sweep.
    query: Vec<[BestOf; 3]>,
    ingest_us: Vec<f64>,
}

impl Reads {
    /// One hit and one query round for cell `i` of variant `v`.
    fn read(
        &mut self,
        v: usize,
        i: usize,
        key: &ExperimentKey,
        want: &ExperimentResult,
    ) -> Result<(), String> {
        let t = Instant::now();
        let hit = self.cache.get(key);
        self.hit[v].record(i, t.elapsed().as_secs_f64() * 1e6);
        match hit {
            Some(r) if *r == *want => {}
            _ => {
                return Err(format!(
                    "cache lookup of a verified {} cell missed",
                    key.workload
                ))
            }
        }
        let mode = replay::mode_label(key.mode);
        let [list, get, sweep] = &mut self.query[v];
        let t = Instant::now();
        let page = self.store.list(&ResultsQuery {
            workload: Some(key.workload.to_string()),
            mode: Some(mode.clone()),
            limit: Some(10),
            ..ResultsQuery::default()
        });
        list.record(i, t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let record = self
            .store
            .get(key.fingerprint())
            .map_err(|e| e.to_string())?;
        get.record(i, t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let groups = self.store.phase_sweep(key.workload, Some(&mode));
        sweep.record(i, t.elapsed().as_secs_f64() * 1e6);
        let found = record.is_some_and(|r| r.summary.cycles == want.cycles);
        if page.total == 0 || !found || groups.is_empty() {
            return Err(format!(
                "query for a verified {} cell came back empty",
                key.workload
            ));
        }
        Ok(())
    }

    /// Best times of one query kind: list (`k` = 0), get (1), sweep (2).
    fn query_kind(&self, k: usize) -> Vec<f64> {
        self.query
            .iter()
            .flat_map(|q| q[k].values().to_vec())
            .collect()
    }

    /// Best time of a whole query round, per cell.
    fn query_rounds(&self) -> Vec<f64> {
        self.query
            .iter()
            .flat_map(|[l, g, s]| {
                (0..l.values().len()).map(|i| l.values()[i] + g.values()[i] + s.values()[i])
            })
            .collect()
    }
}

pub fn run(shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let t_start = Instant::now();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut reads = Reads {
        cache: ResultCache::new(1 << 16),
        store: SpanStore::in_memory(),
        hit: Vec::new(),
        query: Vec::new(),
        ingest_us: Vec::new(),
    };

    // Set-up, once per variant: generate the inputs, then run every cell
    // once and check its output against the kernel's scalar reference.
    let mut rng = Rng::seed_from_u64(seed ^ 0x5045_5246_4245_4e43);
    let mut variants: Vec<(Vec<ExperimentKey>, Vec<ExperimentResult>)> = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..shape.variants {
        let t = Instant::now();
        let cells = (shape.cells)(&mut rng);
        let mut verified = Vec::with_capacity(cells.len());
        for key in &cells {
            out.attempted += 1;
            let trace = pasm::run_keyed_traced(key, None).map_err(|e| {
                format!("set-up run of {} {} failed: {e:?}", key.workload, key.mode)
            })?;
            verify_output(key, &trace.result)?;
            let record = span_record(key.fingerprint(), &trace);
            let ti = Instant::now();
            reads.store.ingest(&record).map_err(|e| e.to_string())?;
            reads.ingest_us.push(ti.elapsed().as_secs_f64() * 1e6);
            reads
                .cache
                .insert(key.clone(), Arc::new(trace.result.clone()));
            verified.push(trace.result);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        reads.hit.push(BestOf::new(cells.len()));
        reads.query.push([0; 3].map(|_| BestOf::new(cells.len())));
        variants.push((cells, verified));
    }
    let setup_total = t_start.elapsed().as_secs_f64();

    // Timed passes. Each cell is timed alone. The host's speed drifts by up
    // to 2x in phases of seconds, so every cell is charged at the best host
    // speed, in seconds per simulated cycle, that its group reached over the
    // run's repeats, which are spread across the run. A group is one shape
    // under every variant's inputs: the variants' cells of one shape differ
    // only in data and, on a fault carrier, in which element is faulted.
    let mut groups = std::collections::BTreeMap::new();
    let group_of: Vec<Vec<usize>> = variants
        .iter()
        .map(|(cells, _)| {
            cells
                .iter()
                .map(|c| {
                    let k = &c.params;
                    let id = format!(
                        "{} {} {} {} {} {}",
                        c.workload,
                        c.mode,
                        k.n,
                        k.p,
                        k.extra_muls,
                        c.fault.is_empty()
                    );
                    let next = groups.len();
                    *groups.entry(id).or_insert(next)
                })
                .collect()
        })
        .collect();
    let mut best = BestOf::new(groups.len());
    let n_passes = passes(shape, seconds);
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0, 0);
    let mut log = ReplayLog::new();
    let mut executed = 0u64;
    let mut digest = pasm_util::Fnv1a::new();
    for pass in 0..n_passes {
        let v = pass % shape.variants;
        let (cells, verified) = &variants[v];
        for (i, (key, want)) in cells.iter().zip(verified).enumerate() {
            executed += 1;
            out.attempted += 1;
            let t = Instant::now();
            let got = if traced {
                tr.begin(CELL, executed);
                let r = replay::replay(key, &mut tr, executed, &mut log);
                tr.end();
                r
            } else {
                pasm::run_keyed(key).map_err(|e| format!("{} {}: {e:?}", key.workload, key.mode))
            };
            let dt = t.elapsed().as_secs_f64();
            let got = match got {
                Ok(r) => r,
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            if let Err(e) = check_same(want, &got) {
                out.mismatch(e);
                continue;
            }
            best.record(group_of[v][i], dt / got.cycles as f64);
            use std::hash::Hasher;
            digest.write_u64(got.cycles);
            digest.write_u64(got.pe_instrs);
            digest.write_u64(got.c_checksum);
            for b in got.pe_buckets {
                digest.write_u64(b);
            }
        }
        // Every finished cell is read after every pass, so each read's
        // repeats are spread across the run like the cells'.
        for (rv, (cells, verified)) in variants.iter().enumerate() {
            for (i, (key, want)) in cells.iter().zip(verified).enumerate() {
                out.attempted += 4;
                if let Err(e) = reads.read(rv, i, key, want) {
                    out.mismatch(e);
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    if !best.all_seen() {
        return Err("a cell never completed a timed repeat".into());
    }
    // Over the distinct cells: Σwork / Σ(time at the group's best speed).
    let (mut cycles, mut instrs) = (SumRatio::default(), SumRatio::default());
    let mut cell_ms = Vec::new();
    for ((_, verified), groups) in variants.iter().zip(&group_of) {
        for (r, &g) in verified.iter().zip(groups) {
            let secs = r.cycles as f64 * best.values()[g];
            cycles.add(r.cycles as f64, secs);
            instrs.add(r.pe_instrs as f64, secs);
            cell_ms.push(secs * 1e3);
        }
    }
    let cells_per_s = cell_ms.len() as f64 / cycles.seconds;
    let cell_p50 = p50(&cell_ms).ok_or("too few cells for a median")?;
    let cell_p90 = percentile(&cell_ms, 0.9).ok_or("too few cells for a p90")?;
    let all = |b: &[BestOf]| -> Vec<f64> { b.iter().flat_map(|b| b.values().to_vec()).collect() };

    let e = &mut out.e2e;
    e.insert("setup_s", median(&setup_s));
    e.insert("sim_mcycles_per_s", cycles.rate() / 1e6);
    e.insert("sim_minstr_per_s", instrs.rate() / 1e6);
    e.insert("cells_per_s", cells_per_s);
    e.insert("cell_ms_p50", cell_p50);
    e.insert("cell_ms_p90", cell_p90);
    // A request here is one run_keyed call.
    e.insert("requests_per_s", cells_per_s);
    e.insert("request_us_p50", cell_p50 * 1e3);
    e.insert("request_us_p90", cell_p90 * 1e3);
    e.insert("hit_us_p50", p50(&all(&reads.hit)).ok_or("too few hits")?);
    e.insert(
        "query_us_p50",
        p50(&reads.query_rounds()).ok_or("too few queries")?,
    );

    out.counts = Some(crate::counts_json(digest, traced.then_some(&log.counts)));
    out.notes.push(format!(
        "{} variants x {} cells, set-up {setup_total:.2} s; {n_passes} passes, {executed} cells in {wall:.2} s",
        shape.variants,
        variants[0].0.len(),
    ));
    if traced {
        let profile = Profile::new(&tr.spans);
        let l = &mut out.layer;
        replay::layer_metrics(&profile, &log, l)?;
        let p = |v: &[f64]| p50(v).ok_or("too few store operations for a median");
        l.insert("store.open_ms", 0.0);
        l.insert("store.ingest_us_p50", p(&reads.ingest_us)?);
        l.insert("store.list_us_p50", p(&reads.query_kind(0))?);
        l.insert("store.get_us_p50", p(&reads.query_kind(1))?);
        l.insert("store.phase_sweep_us_p50", p(&reads.query_kind(2))?);
        l.insert("trace.cells_per_s", cells_per_s);
        l.insert("trace.requests_per_s", cells_per_s);
        out.bypassed = &["http.", "server.", "util."];
        out.spans = tr.spans;
    }
    Ok(out)
}
