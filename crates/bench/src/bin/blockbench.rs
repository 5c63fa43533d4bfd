//! `blockbench` — wall-clock payoff of the fast path.
//!
//! Runs every registered kernel in all three parallel modes per grid cell —
//! on the fast path (the block-compiled MIMD engine plus the SIMD lockstep
//! batch) and forced onto the per-instruction interpreter
//! (`RunOptions::fast_path = false`) — and reports the host wall-time ratio.
//! Before timing is trusted, every cell's two runs are compared as full
//! [`pasm::RunResult`]s — per-PE and per-MC traces, Fetch-Unit statistics,
//! cycle accounts with opcode histograms and phase spans — plus output
//! words and the summarized [`pasm::ExperimentResult`], or the bench exits
//! nonzero. The fast path is an *optimization of the scheduler*, never of
//! the timing model — see `docs/TIMING.md`.
//!
//! Each cell is timed [`RUNS`] times per path with `bench::micro::repeat`,
//! both whole (machine build, kernel load, run, read-back) and for
//! `Machine::run` alone — the only stage the fast path changes; small cells
//! are dominated by building a 16-PE machine, which neither path speeds up.
//! Rows record the min, median and spread `(max − min) / median`, and the
//! speed-ups are ratios of medians. Each row also shows where the fast
//! path's PE instructions went (interpreter, MIMD block, SIMD lockstep) and
//! why lockstep batches ended.
//!
//! Grid: p ∈ {4, 8, 16} × the paper-scale sizes n ∈ {256, 1024} for the
//! streaming kernels. `matmul` is O(n³) in simulated work and capped at
//! n ≤ 512 by its generator, so it sweeps n ∈ {32, 64} instead. Cells the
//! kernel's own `validate` rejects (e.g. `bitonic` with a per-PE chunk that
//! is not a power of two) are skipped, not failed.
//!
//! Gates:
//! * every cell: fast-path results identical to the interpreter's;
//! * full mode only: the best whole-cell median speed-up at n = 1024,
//!   p = 16 must reach [`MIN_SPEEDUP`]× — the fast path has to pay for its
//!   tables;
//! * full mode only: every SIMD cell at n ≥ [`SIMD_GATE_N`] must reach a
//!   median run speed-up of [`MIN_SIMD_SPEEDUP`]× — the lockstep batch,
//!   cell by cell, not one lucky cell.
//!
//! `ci.sh` runs `blockbench --quick` (small n, equivalence gate only), which
//! writes its document under `bench-results/quick/`; a full run updates the
//! top-level `BENCH_blockbench.json`.

use bench::micro::{repeat, Samples};
use pasm::{
    EngineStats, ExperimentResult, KernelOutcome, Machine, MachineConfig, Mode, Params, RunResult,
};
use pasm_machine::RunError;
use pasm_prog::select_vm;
use pasm_util::{Json, ToJson};
use std::process::ExitCode;
use std::time::Instant;

const MODES: [Mode; 3] = [Mode::Simd, Mode::Mimd, Mode::Smimd];

/// Timed runs per cell and path.
const RUNS: usize = 3;

/// The headline cell: speed-up is judged at this partition and size.
const GATE_N: usize = 1024;
const GATE_P: usize = 16;

/// Full-mode floor on the best n = 1024, p = 16 median speed-up.
///
/// The ceiling for MIMD cells is structural, not a tuning artifact:
/// `exec_timed` alone costs ~14 ns/instr vs ~100 ns/instr for the full
/// interpreter loop, and DRAM-refresh waits are time-dependent, so the fast
/// path must still evaluate two burst delays per instruction instead of
/// folding them per block — see the "What the block compiler cannot fold"
/// section of `docs/TIMING.md`.
const MIN_SPEEDUP: f64 = 2.5;

/// SIMD cells at this size and above are gated one by one.
const SIMD_GATE_N: usize = 64;
/// Full-mode floor on each gated SIMD cell's median run speed-up.
const MIN_SIMD_SPEEDUP: f64 = 2.0;

/// Sizes per kernel. `matmul` is cubic in simulated instructions (and its
/// generator rejects n > 512), so it gets the small pair; everything else
/// runs the paper-scale pair.
fn sizes(kernel: &str, quick: bool) -> &'static [usize] {
    match (kernel, quick) {
        ("matmul", true) => &[8],
        ("matmul", false) => &[32, 64],
        (_, true) => &[64],
        (_, false) => &[256, 1024],
    }
}

struct Row {
    kernel: &'static str,
    mode: Mode,
    n: usize,
    p: usize,
    cycles: u64,
    fast: Samples,
    interp: Samples,
    fast_run: Samples,
    interp_run: Samples,
    speedup: f64,
    run_speedup: f64,
    identical: bool,
    engine: EngineStats,
}

fn samples_json(s: &Samples) -> Json {
    Json::obj(vec![
        ("min_ms", Json::Float(s.min())),
        ("median_ms", Json::Float(s.median())),
        ("spread", Json::Float(s.spread())),
    ])
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        let e = &self.engine;
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.to_string())),
            ("mode", self.mode.to_json()),
            ("n", Json::Int(self.n as i64)),
            ("p", Json::Int(self.p as i64)),
            ("cycles", Json::Int(self.cycles as i64)),
            ("fast_wall_ms", Json::Float(self.fast.median())),
            ("interp_wall_ms", Json::Float(self.interp.median())),
            ("fast", samples_json(&self.fast)),
            ("interp", samples_json(&self.interp)),
            ("fast_run", samples_json(&self.fast_run)),
            ("interp_run", samples_json(&self.interp_run)),
            ("speedup", Json::Float(self.speedup)),
            ("run_speedup", Json::Float(self.run_speedup)),
            ("identical", Json::Bool(self.identical)),
            (
                "engine",
                Json::obj(vec![
                    ("interp_instrs", Json::Int(e.interp_instrs as i64)),
                    ("block_instrs", Json::Int(e.block_instrs as i64)),
                    ("lockstep_instrs", Json::Int(e.lockstep_instrs as i64)),
                    ("lockstep_batches", Json::Int(e.lockstep_batches as i64)),
                    ("scheduler_events", Json::Int(e.scheduler_events as i64)),
                    ("lockstep_exits", exits_json(&e.lockstep_exits)),
                    ("block_exits", exits_json(&e.block_exits)),
                ]),
            ),
        ])
    }
}

fn exits_json(exits: &[u64; pasm_machine::N_EXITS]) -> Json {
    Json::obj(
        EngineStats::exit_rows(exits)
            .into_iter()
            .map(|(name, n)| (name, Json::Int(n as i64)))
            .collect(),
    )
}

/// Everything one run produces, compared across paths.
type Outcome = (ExperimentResult, RunResult, Vec<u16>);

/// One run of a cell, as `run_kernel_engine` does it but with
/// `Machine::run` timed on its own (milliseconds).
fn run_once(
    cfg: &MachineConfig,
    kernel: &'static dyn pasm::Kernel,
    mode: Mode,
    params: Params,
    input: &[u16],
    fast_path: bool,
) -> Result<(KernelOutcome, EngineStats, f64), RunError> {
    let mut machine = Machine::new(cfg.clone());
    machine.set_fast_path(fast_path);
    let vm = select_vm(cfg, params.p);
    kernel.load(&mut machine, mode, params, &vm, input)?;
    let start = Instant::now();
    let run = machine.run()?;
    let run_ms = start.elapsed().as_secs_f64() * 1e3;
    let output = kernel.read_output(&machine, mode, params, &vm);
    let out = KernelOutcome {
        kernel,
        mode,
        params,
        cycles: run.makespan,
        run,
        output,
    };
    Ok((out, machine.engine_stats(), run_ms))
}

/// A cell's timings on one path: whole runs, `Machine::run` alone, the last
/// run's outcome and its engine counters.
struct Timed {
    cell: Samples,
    run: Samples,
    out: Outcome,
    engine: EngineStats,
}

/// Run one cell `RUNS` times with the fast path on or off.
fn run_cell(
    cfg: &MachineConfig,
    kernel: &'static dyn pasm::Kernel,
    mode: Mode,
    params: Params,
    input: &[u16],
    seed: u64,
    fast_path: bool,
) -> Result<Timed, RunError> {
    let mut run_ms = Vec::with_capacity(RUNS);
    let (cell, last) = repeat(RUNS, || {
        let once = run_once(cfg, kernel, mode, params, input, fast_path);
        if let Ok((_, _, ms)) = &once {
            run_ms.push(*ms);
        }
        once
    });
    let (out, engine, _) = last?;
    let summary = ExperimentResult::from_kernel_outcome(&out, seed);
    Ok(Timed {
        cell,
        run: Samples::new(run_ms),
        out: (summary, out.run, out.output),
        engine,
    })
}

/// Compact engine column: lockstep share and the commonest batch exit.
fn engine_cell(e: &EngineStats) -> String {
    let top = EngineStats::exit_rows(&e.lockstep_exits)
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map_or("-".to_string(), |(name, _)| name.to_string());
    format!("{:>3.0}% {top}", 100.0 * e.lockstep_share())
}

fn main() -> ExitCode {
    let quick = bench::quick_mode();
    let cfg = MachineConfig::prototype();
    let seed = pasm::figures::DEFAULT_SEED;
    let ps: &[usize] = if quick { &[4] } else { &[4, 8, 16] };

    let mut rows: Vec<Row> = Vec::new();
    let mut failures = Vec::new();

    println!("== fast path (block + lockstep) vs per-instruction interpreter, median of {RUNS} ==");
    println!(
        "{:>8} {:>6} {:>6} {:>4} {:>12} {:>10} {:>10} {:>8} {:>8} {:>6} {:>6}  lockstep exit",
        "kernel",
        "mode",
        "n",
        "p",
        "cycles",
        "interp ms",
        "fast ms",
        "speedup",
        "run only",
        "spread",
        "equal"
    );
    for kernel in pasm::kernels::kernels().iter().copied() {
        for &n in sizes(kernel.name(), quick) {
            let input = kernel.generate(n, seed);
            for &p in ps {
                if kernel.validate(n, p).is_err() {
                    continue; // out of the kernel's own bounds, not a failure
                }
                for mode in MODES {
                    let params = Params::new(n, p);
                    let interp = run_cell(&cfg, kernel, mode, params, &input, seed, false);
                    let fast = run_cell(&cfg, kernel, mode, params, &input, seed, true);
                    let (interp, fast) = match (interp, fast) {
                        (Ok(i), Ok(f)) => (i, f),
                        (i, f) => {
                            let e = i.err().or(f.err()).unwrap();
                            failures.push(format!("{} {mode} n={n} p={p}: {e}", kernel.name()));
                            continue;
                        }
                    };
                    let (fast_out, interp_out) = (&fast.out, &interp.out);
                    let identical = fast_out == interp_out;
                    if !identical {
                        failures.push(format!(
                            "{} {mode} n={n} p={p}: fast path diverged from interpreter \
                             (cycles {} vs {}, buckets {:?} vs {:?})",
                            kernel.name(),
                            fast_out.0.cycles,
                            interp_out.0.cycles,
                            fast_out.0.pe_buckets,
                            interp_out.0.pe_buckets,
                        ));
                    }
                    let speedup = interp.cell.median() / fast.cell.median().max(1e-9);
                    let run_speedup = interp.run.median() / fast.run.median().max(1e-9);
                    println!(
                        "{:>8} {:>6} {:>6} {:>4} {:>12} {:>10.2} {:>10.2} {:>7.2}x {:>7.2}x {:>6.2} {:>6}  {}",
                        kernel.name(),
                        format!("{mode}"),
                        n,
                        p,
                        fast_out.0.cycles,
                        interp.cell.median(),
                        fast.cell.median(),
                        speedup,
                        run_speedup,
                        fast.run.spread().max(interp.run.spread()),
                        if identical { "yes" } else { "NO" },
                        engine_cell(&fast.engine),
                    );
                    rows.push(Row {
                        kernel: kernel.name(),
                        mode,
                        n,
                        p,
                        cycles: fast_out.0.cycles,
                        speedup,
                        run_speedup,
                        identical,
                        engine: fast.engine,
                        fast: fast.cell,
                        interp: interp.cell,
                        fast_run: fast.run,
                        interp_run: interp.run,
                    });
                }
            }
        }
    }
    println!();

    // Headline: best speed-up at the gate cell, and the per-cell SIMD floor
    // (full mode only — quick runs are too short for stable wall times, so
    // they gate equivalence only).
    let gate_best = rows
        .iter()
        .filter(|r| r.n == GATE_N && r.p == GATE_P)
        .map(|r| r.speedup)
        .fold(0.0f64, f64::max);
    let simd_gated: Vec<&Row> = rows
        .iter()
        .filter(|r| r.mode == Mode::Simd && r.n >= SIMD_GATE_N)
        .collect();
    let simd_worst = simd_gated
        .iter()
        .map(|r| r.run_speedup)
        .fold(f64::INFINITY, f64::min);
    if !quick {
        if gate_best >= MIN_SPEEDUP {
            println!(
                "blockbench: best n={GATE_N} p={GATE_P} speedup {gate_best:.1}x \
                 (gate: >= {MIN_SPEEDUP:.1}x)"
            );
        } else {
            failures.push(format!(
                "fast path too slow: best n={GATE_N} p={GATE_P} speedup \
                 {gate_best:.2}x < {MIN_SPEEDUP:.1}x"
            ));
        }
        for r in &simd_gated {
            if r.run_speedup < MIN_SIMD_SPEEDUP {
                failures.push(format!(
                    "lockstep batch too slow: {} SIMD n={} p={} median run speedup {:.2}x < \
                     {MIN_SIMD_SPEEDUP:.1}x",
                    r.kernel, r.n, r.p, r.run_speedup
                ));
            }
        }
        println!(
            "blockbench: worst SIMD cell at n >= {SIMD_GATE_N}: {simd_worst:.1}x \
             (gate: >= {MIN_SIMD_SPEEDUP:.1}x per cell, {} cells)",
            simd_gated.len()
        );
    }

    let config = Json::obj(vec![
        ("preset", Json::Str("prototype".to_string())),
        ("quick", Json::Bool(quick)),
        ("seed", Json::Int(seed as i64)),
        ("runs_per_cell", Json::Int(RUNS as i64)),
        (
            "ps",
            Json::Arr(ps.iter().map(|&p| Json::Int(p as i64)).collect()),
        ),
        (
            "sizes",
            Json::obj(
                pasm::kernels::kernels()
                    .iter()
                    .map(|k| {
                        (
                            k.name(),
                            Json::Arr(
                                sizes(k.name(), quick)
                                    .iter()
                                    .map(|&n| Json::Int(n as i64))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
        ("gate_n", Json::Int(GATE_N as i64)),
        ("gate_p", Json::Int(GATE_P as i64)),
        ("min_speedup", Json::Float(MIN_SPEEDUP)),
        ("simd_gate_n", Json::Int(SIMD_GATE_N as i64)),
        ("min_simd_speedup", Json::Float(MIN_SIMD_SPEEDUP)),
    ]);
    let metrics = Json::obj(vec![
        (
            "rows",
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
        ("gate_best_speedup", Json::Float(gate_best)),
        (
            "simd_worst_speedup",
            Json::Float(if simd_gated.is_empty() {
                0.0
            } else {
                simd_worst
            }),
        ),
        (
            "all_identical",
            Json::Bool(rows.iter().all(|r| r.identical)),
        ),
        // The doc records a failing run too: which gates it failed.
        (
            "gate_failures",
            Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
    ]);
    bench::save_bench_json("blockbench", config, metrics);

    if failures.is_empty() {
        println!(
            "blockbench: {} cells, fast path identical to the interpreter in all of them",
            rows.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
