//! # pasm — reproduction of *Non-Deterministic Instruction Time Experiments
//! on the PASM System Prototype* (Fineberg, Casavant, Schwederski, Siegel;
//! ICPP 1988)
//!
//! This crate is the public face of the reproduction: it wires the simulated
//! prototype (`pasm-machine`), the experiment programs (`pasm-prog`) and the
//! measurement machinery together.
//!
//! ```no_run
//! use pasm::{run_matmul_verified, paper_workload, Mode, Params};
//! use pasm_machine::MachineConfig;
//!
//! let cfg = MachineConfig::prototype();
//! let (a, b) = paper_workload(64, 1);
//! let out = run_matmul_verified(&cfg, Mode::Smimd, Params::new(64, 4), &a, &b).unwrap();
//! println!("S/MIMD n=64 p=4: {:.2} ms", out.millis());
//! ```
//!
//! * [`experiment`] — run any of the four program variants end to end,
//! * [`metrics`] — speed-up, efficiency, and phase breakdowns,
//! * [`figures`] — regenerate the data behind every table and figure of the
//!   paper's evaluation (Table 1, Figures 6–12),
//! * [`report`] — plain-text rendering of those tables,
//! * [`sweep`] — a small thread-pool for running independent simulations in
//!   parallel on the host.

pub mod experiment;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod sweep;

pub use experiment::{
    paper_workload, run_concurrent, run_kernel, run_kernel_engine, run_kernel_opts, run_keyed,
    run_keyed_traced, run_keyed_with_interrupt, run_matmul, run_matmul_opts, run_matmul_verified,
    run_matmul_with_accounting, run_reduction, run_span_log, ExperimentKey, ExperimentResult,
    ExperimentTrace, Job, JobOutcome, KernelOutcome, MatmulOutcome, Mode, Params, ReduceOutcome,
    RunOptions, MATMUL,
};
pub use metrics::{efficiency, speedup, Breakdown};
pub use pasm_kernels::{self as kernels, Kernel};
pub use pasm_machine::{
    single_faults, BatchExit, EngineStats, FaultPlan, Machine, MachineConfig, NetFault, PeFault,
    PeFaultSpec, ReleaseMode, RunResult,
};
pub use pasm_prog::{CommSync, Matrix};
pub use sweep::{par_map, WorkerPool};
