//! Fast-vs-interpreter equivalence: the block-compiled MIMD fast path and
//! the SIMD lockstep batch must be optimizations of the *scheduler*, never
//! of the timing model. Every test here runs the same experiment twice —
//! once on the fast path, once forced onto the per-instruction interpreter
//! — and demands the full [`pasm::RunResult`]s be equal: per-PE and per-MC
//! traces (SIMD wait, stall counters, phase cycles), Fetch-Unit statistics
//! (barrier and empty stalls, peak depth), and the cycle accounts with
//! their opcode histograms and phase spans — plus the output words and the
//! summarized [`pasm::ExperimentResult`].
//!
//! The sweep here uses the 4-PE machine so the suite stays fast;
//! `bench --bin blockbench` runs the same equality on the 16-PE prototype
//! at paper scale (n up to 1024) and also times the two paths.

use pasm::{
    run_kernel_engine, run_kernel_opts, ExperimentResult, FaultPlan, MachineConfig, Mode, Params,
    PeFault, ReleaseMode, RunOptions, RunResult,
};

/// A 4-PE machine whose half-machine partition spreads across two MCs —
/// the smallest machine with a fault-tolerant p=2 partition.
fn small_cfg() -> MachineConfig {
    MachineConfig {
        n_mcs: 2,
        ..MachineConfig::small()
    }
}

const SEED: u64 = 4242;

/// Everything one run produces: the summary, the full machine traces and
/// the output words.
type Outcome = Result<(ExperimentResult, RunResult, Vec<u16>), String>;

/// Run one kernel cell twice (fast path on / off) and return both
/// outcomes. Errors count as outcomes too: a fault that deadlocks the
/// machine must deadlock *identically* on both paths, so failures are
/// compared by their rendered message.
fn both_paths(
    cfg: &MachineConfig,
    kernel: &'static dyn pasm::Kernel,
    mode: Mode,
    params: Params,
    fault: FaultPlan,
) -> (Outcome, Outcome) {
    let input = kernel.generate(params.n, SEED);
    let run = |fast_path: bool| {
        let opts = RunOptions {
            fault: fault.clone(),
            fast_path,
            ..RunOptions::default()
        };
        run_kernel_opts(cfg, kernel, mode, params, &input, &opts)
            .map(|out| {
                let summary = ExperimentResult::from_kernel_outcome(&out, SEED);
                (summary, out.run, out.output)
            })
            .map_err(|e| e.to_string())
    };
    (run(true), run(false))
}

fn assert_identical_params(
    cfg: &MachineConfig,
    kernel: &str,
    mode: Mode,
    params: Params,
    fault: &FaultPlan,
) -> Outcome {
    let k = pasm::kernels::find(kernel).expect("registered kernel");
    let (fast, interp) = both_paths(cfg, k, mode, params, fault.clone());
    let (n, p) = (params.n, params.p);
    match (&fast, &interp) {
        (Ok((fs, fr, fo)), Ok((is, ir, io))) => {
            assert_eq!(
                fs, is,
                "{kernel} {mode} n={n} p={p} {fault:?}: summaries differ"
            );
            assert_eq!(
                fo, io,
                "{kernel} {mode} n={n} p={p} {fault:?}: outputs differ"
            );
            // Field by field first, so a divergence names what moved.
            assert_eq!(
                fr.fu, ir.fu,
                "{kernel} {mode} n={n} p={p}: Fetch-Unit stats"
            );
            assert_eq!(fr.mc, ir.mc, "{kernel} {mode} n={n} p={p}: MC traces");
            for (pe, (f, i)) in fr.pe.iter().zip(&ir.pe).enumerate() {
                assert_eq!(f, i, "{kernel} {mode} n={n} p={p}: PE {pe} trace");
            }
            assert_eq!(fr, ir, "{kernel} {mode} n={n} p={p}: accounts");
        }
        _ => assert_eq!(
            fast, interp,
            "{kernel} {mode} n={n} p={p} fault={fault:?}: outcomes differ"
        ),
    }
    fast
}

fn assert_identical_on(
    cfg: &MachineConfig,
    kernel: &str,
    mode: Mode,
    n: usize,
    p: usize,
    fault: &FaultPlan,
) {
    assert_identical_params(cfg, kernel, mode, Params::new(n, p), fault).ok();
}

fn assert_identical(kernel: &str, mode: Mode, n: usize, p: usize, fault: &FaultPlan) {
    assert_identical_on(&small_cfg(), kernel, mode, n, p, fault);
}

#[test]
fn every_kernel_and_mode_is_identical_on_both_paths() {
    for kernel in pasm::kernels::kernels() {
        // n=16 suits all four kernels' validators on a p∈{2,4} machine.
        for n in [16, 32] {
            for p in [2, 4] {
                if kernel.validate(n, p).is_err() {
                    continue;
                }
                for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
                    assert_identical(kernel.name(), mode, n, p, &FaultPlan::default());
                }
            }
        }
    }
}

#[test]
fn network_faults_are_identical_on_both_paths() {
    // A rerouted interior fault makes every circuit pay a detour; the
    // timing perturbation must land identically on both paths.
    for fault in pasm::single_faults(small_cfg().n_pes) {
        for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
            assert_identical("matmul", mode, 4, 2, &FaultPlan::net_single(fault));
        }
    }
}

#[test]
fn pe_faults_invalidate_blocks_identically_on_both_paths() {
    // PE faults disable the faulty PE's fast path (the compiled program is
    // dropped for it); the degraded run must match the interpreter even in
    // how it *fails*. A dead ring neighbor starves `smooth`: in SIMD that
    // is a detected deadlock, in MIMD/S-MIMD the survivors busy-poll the
    // network register, so the run must hit the cycle limit — at the same
    // limit, on both paths (bounded, as in `integration_faults`).
    let mut cfg = small_cfg();
    cfg.max_cycles = 2_000_000;
    for kind in [PeFault::Dead, PeFault::Slow { extra_wait: 3 }] {
        for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
            assert_identical_on(&cfg, "smooth", mode, 16, 4, &FaultPlan::pe_single(1, kind));
        }
    }
}

#[test]
fn fast_path_default_matches_explicit_interpreter_on_prototype() {
    // One paper-scale spot check on the full 16-PE prototype: the
    // defaults (fast path on) equal the forced interpreter.
    let cfg = MachineConfig::prototype();
    let params = Params::new(128, 16);
    let out = assert_identical_params(&cfg, "bitonic", Mode::Smimd, params, &FaultPlan::default());
    assert!(out.expect("fault-free run completes").0.cycles > 0);
}

#[test]
fn simd_matmul_at_paper_scale_is_identical_on_both_paths() {
    // The lockstep batch's home ground: every MC group of the prototype
    // runs SIMD matmul, with and without the 14 added multiplies that put
    // the paper's crossover in play.
    let cfg = MachineConfig::prototype();
    for extra_muls in [0, 14] {
        let params = Params {
            extra_muls,
            ..Params::new(32, 16)
        };
        let out =
            assert_identical_params(&cfg, "matmul", Mode::Simd, params, &FaultPlan::default());
        let (_, run, _) = out.expect("fault-free run completes");
        assert!(run.fu.iter().all(|f| f.barrier_stalls > 0));
    }
}

#[test]
fn decoupled_release_is_identical_on_both_paths() {
    // The ablation release rule serves each PE at its own pace; the batch
    // must reproduce its cursors and retirements exactly.
    let cfg = MachineConfig {
        release_mode: ReleaseMode::Decoupled,
        ..small_cfg()
    };
    for kernel in pasm::kernels::kernels() {
        if kernel.validate(16, 4).is_err() {
            continue;
        }
        for mode in [Mode::Simd, Mode::Smimd] {
            assert_identical_on(&cfg, kernel.name(), mode, 16, 4, &FaultPlan::default());
        }
    }
    let proto = MachineConfig {
        release_mode: ReleaseMode::Decoupled,
        ..MachineConfig::prototype()
    };
    let params = Params::new(16, 8);
    assert_identical_params(&proto, "matmul", Mode::Simd, params, &FaultPlan::default())
        .expect("fault-free run completes");
}

#[test]
fn dead_and_slow_pes_in_simd_groups_are_identical_on_both_paths() {
    // A dead PE is masked out of its group's releases while the survivors
    // keep running SIMD; a slow PE keeps its group off the batch. Either
    // way the outcome — result or error — must match the interpreter.
    let mut cfg = MachineConfig::prototype();
    cfg.max_cycles = 4_000_000;
    for kind in [PeFault::Dead, PeFault::Slow { extra_wait: 2 }] {
        for pe in [4, 5] {
            for kernel in ["matmul", "reduce"] {
                assert_identical_on(
                    &cfg,
                    kernel,
                    Mode::Simd,
                    16,
                    8,
                    &FaultPlan::pe_single(pe, kind),
                );
            }
        }
    }
}

#[test]
fn simd_matmul_runs_mostly_in_the_lockstep_batch() {
    // Host-time observability: the engine counters say where the PE
    // instructions went. Paper-scale SIMD matmul with the crossover's 14
    // added multiplies must run most of them in the lockstep batch, and the
    // forced interpreter must run all of them itself.
    let cfg = MachineConfig::prototype();
    let k = pasm::kernels::find("matmul").expect("registered kernel");
    let params = Params {
        extra_muls: 14,
        ..Params::new(32, 16)
    };
    let input = k.generate(params.n, SEED);
    let run = |fast_path: bool| {
        let opts = RunOptions {
            fast_path,
            ..RunOptions::default()
        };
        run_kernel_engine(&cfg, k, Mode::Simd, params, &input, &opts).expect("run completes")
    };
    let (out, engine) = run(true);
    assert_eq!(engine.pe_instrs(), out.run.pe_instrs());
    assert!(
        engine.lockstep_instrs * 2 > engine.pe_instrs(),
        "lockstep batch ran {} of {} PE instructions",
        engine.lockstep_instrs,
        engine.pe_instrs()
    );
    assert!(engine.lockstep_batches > 0);
    let (_, oracle) = run(false);
    assert_eq!(oracle.interp_instrs, out.run.pe_instrs());
    assert_eq!(oracle.lockstep_instrs + oracle.block_instrs, 0);
}
