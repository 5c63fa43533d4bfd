//! `run_keyed`'s own sequence, replayed step by step through the public
//! layer APIs with a span around every call, plus the correctness gate that
//! ties every timed result to a verified one.

use crate::stats::{percentile, share, SumRatio};
use crate::trace::{Profile, Tracer};
use crate::Metrics;
use pasm::{ExperimentKey, ExperimentResult, ExperimentTrace, FaultPlan, KernelOutcome, Machine};
use pasm_kernels::Kernel;
use pasm_machine::{RunError, RunResult, BUCKET_NAMES, N_BUCKETS};
use pasm_prog::{select_vm, Mode};
use pasm_store::{RunSummary, SpanRecord};
use pasm_util::json::{Json, ToJson};

/// The label the server indexes modes under (`"simd"`, ...).
pub fn mode_label(mode: Mode) -> String {
    match mode.to_json() {
        Json::Str(s) => s,
        other => other.dump(),
    }
}

/// Package one traced run as the span store's ingest unit, the same way the
/// server does for a completed job.
pub fn span_record(fingerprint: u64, trace: &ExperimentTrace) -> SpanRecord {
    let r = &trace.result;
    SpanRecord {
        fingerprint,
        summary: RunSummary {
            workload: r.workload.to_string(),
            mode: mode_label(r.mode),
            n: r.n as u64,
            p: r.p as u64,
            seed: r.seed,
            cycles: r.cycles,
            fault: r.fault.clone(),
        },
        bucket_names: BUCKET_NAMES.iter().map(|s| s.to_string()).collect(),
        pe_buckets: trace.pe_buckets.iter().map(|row| row.to_vec()).collect(),
        mc_buckets: trace.mc_buckets.iter().map(|row| row.to_vec()).collect(),
        spans: trace.spans.clone(),
    }
}

/// Check a result's output checksum against the kernel's scalar reference
/// for the key's generated input.
pub fn verify_output(key: &ExperimentKey, result: &ExperimentResult) -> Result<(), String> {
    let kernel = key
        .kernel()
        .ok_or_else(|| format!("unknown workload {}", key.workload))?;
    let input = kernel.generate(key.params.n, key.seed);
    let expect = pasm_kernels::checksum(&kernel.reference(key.params, &input));
    if result.c_checksum != expect {
        return Err(format!(
            "{} {} n={} p={} seed={}: output checksum {:016x}, scalar reference {:016x}",
            key.workload, key.mode, key.params.n, key.params.p, key.seed, result.c_checksum, expect
        ));
    }
    if !key.fault.is_empty() && result.baseline_cycles == 0 {
        return Err(format!(
            "{}: faulted run has no fault-free twin",
            key.workload
        ));
    }
    Ok(())
}

/// A repeat must reproduce the verified result exactly: cycles, checksum,
/// instruction count, buckets and every other summary field.
pub fn check_same(verified: &ExperimentResult, got: &ExperimentResult) -> Result<(), String> {
    if verified == got {
        return Ok(());
    }
    Err(format!(
        "{} {} n={} p={} seed={}: got cycles {} checksum {:016x}, verified cycles {} checksum {:016x}",
        got.workload,
        got.mode,
        got.n,
        got.p,
        got.seed,
        got.cycles,
        got.c_checksum,
        verified.cycles,
        verified.c_checksum
    ))
}

/// Exact simulated counts, summed over every machine run. They depend only
/// on the inputs, so any drift between runs of one seed is a fault.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub sim_cycles: u64,
    pub pe_instrs: u64,
    pub fu_entries: u64,
    pub fu_barrier_stalls: u64,
    pub fu_empty_stalls: u64,
    pub buckets: [u64; N_BUCKETS],
}

impl Counts {
    fn add(&mut self, run: &RunResult) {
        self.sim_cycles += run.makespan;
        self.pe_instrs += run.pe_instrs();
        for fu in &run.fu {
            self.fu_entries += fu.entries;
            self.fu_barrier_stalls += fu.barrier_stalls;
            self.fu_empty_stalls += fu.empty_stalls;
        }
        if let Some(acc) = &run.accounts {
            for (total, v) in self.buckets.iter_mut().zip(acc.pe_bucket_totals()) {
                *total += v;
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("sim_cycles", self.sim_cycles.to_json()),
            ("pe_instrs", self.pe_instrs.to_json()),
            ("fu_entries", self.fu_entries.to_json()),
            ("fu_barrier_stalls", self.fu_barrier_stalls.to_json()),
            ("fu_empty_stalls", self.fu_empty_stalls.to_json()),
        ];
        for (name, v) in BUCKET_NAMES.iter().zip(self.buckets) {
            fields.push((name, v.to_json()));
        }
        Json::obj(fields)
    }
}

/// What the replays of one run measured besides their spans.
pub struct ReplayLog {
    /// Σcycles / Σ`Machine::run` time, per mode and per kernel.
    by_mode: [(Mode, SumRatio); 3],
    by_kernel: Vec<(&'static str, SumRatio)>,
    /// `Machine::new` plus `apply_fault_plan`, per machine built.
    build_us: Vec<f64>,
    pub counts: Counts,
}

impl ReplayLog {
    pub fn new() -> ReplayLog {
        ReplayLog {
            by_mode: [
                (Mode::Simd, SumRatio::default()),
                (Mode::Mimd, SumRatio::default()),
                (Mode::Smimd, SumRatio::default()),
            ],
            by_kernel: pasm_kernels::kernels()
                .iter()
                .map(|k| (k.name(), SumRatio::default()))
                .collect(),
            build_us: Vec::new(),
            counts: Counts::default(),
        }
    }
}

/// One machine: build, fault plan, load, run, read back.
fn simulate(
    key: &ExperimentKey,
    kernel: &'static dyn Kernel,
    input: &[u16],
    plan: &FaultPlan,
    tr: &mut Tracer,
    group: u64,
    log: &mut ReplayLog,
) -> Result<KernelOutcome, RunError> {
    let (mode, params) = (key.mode, key.params);
    tr.begin("machine.build", group);
    let mut machine = Machine::new(key.config.clone());
    machine.set_accounting(true);
    machine.set_fast_path(true);
    let mut build_ns = tr.end();
    tr.begin("machine.fault_plan", group);
    let applied = machine.apply_fault_plan(plan).map_err(RunError::Net);
    build_ns += tr.end();
    applied?;
    log.build_us.push(build_ns as f64 / 1e3);
    tr.begin("kernels.load", group);
    let vm = select_vm(&key.config, params.p);
    let loaded = kernel.load(&mut machine, mode, params, &vm, input);
    tr.end();
    loaded?;
    tr.begin("machine.run", group);
    let run = machine.run();
    let run_ns = tr.end() as f64;
    let run = run?;
    let seconds = run_ns / 1e9;
    if let Some((_, r)) = log.by_mode.iter_mut().find(|(m, _)| *m == mode) {
        r.add(run.makespan as f64, seconds);
    }
    if let Some((_, r)) = log.by_kernel.iter_mut().find(|(k, _)| *k == kernel.name()) {
        r.add(run.makespan as f64, seconds);
    }
    log.counts.add(&run);
    tr.begin("kernels.read_output", group);
    let output = kernel.read_output(&machine, mode, params, &vm);
    tr.end();
    Ok(KernelOutcome {
        kernel,
        mode,
        params,
        cycles: run.makespan,
        run,
        output,
    })
}

/// `run_keyed(key)`, step by step: generate -> build -> fault plan -> load
/// -> run -> read_output -> summary -> fault twin, each in its own span.
/// Spans left open by an error do not matter: an error ends the run.
pub fn replay(
    key: &ExperimentKey,
    tr: &mut Tracer,
    group: u64,
    log: &mut ReplayLog,
) -> Result<ExperimentResult, String> {
    let kernel = key
        .kernel()
        .ok_or_else(|| format!("unknown workload {}", key.workload))?;
    let fail = |e: RunError| format!("{} {}: {e:?}", key.workload, key.mode);
    tr.begin("kernels.generate", group);
    let input = kernel.generate(key.params.n, key.seed);
    tr.end();
    let out = simulate(key, kernel, &input, &key.fault, tr, group, log).map_err(fail)?;
    tr.begin("pasm.summary", group);
    let mut result = ExperimentResult::from_kernel_outcome(&out, key.seed);
    tr.end();
    if !key.fault.is_empty() {
        tr.begin("pasm.fault_twin", group);
        let base = simulate(key, kernel, &input, &FaultPlan::default(), tr, group, log);
        tr.end();
        result.baseline_cycles = base.map_err(fail)?.cycles;
        result.fault = key.fault.to_string();
        if result.baseline_cycles > 0 {
            result.slowdown = result.cycles as f64 / result.baseline_cycles as f64;
        }
    }
    Ok(result)
}

/// Span name of one replayed cell; its children are the layer calls.
pub const CELL: &str = "cell";

/// The per-layer metrics of the `pasm-machine`, `pasm-kernels` and `pasm`
/// layers, from the replays' spans.
pub fn layer_metrics(profile: &Profile, log: &ReplayLog, m: &mut Metrics) -> Result<(), String> {
    let p50 = |name: &str| {
        percentile(&profile.durations_us(name), 0.5)
            .ok_or_else(|| format!("too few `{name}` spans for a median"))
    };
    let cell_ns = profile.total_ns(CELL);
    m.insert(
        "machine.run_share",
        share(profile.self_ns("machine.run"), cell_ns),
    );
    for (mode, r) in &log.by_mode {
        let name = match mode {
            Mode::Simd => "machine.run_mcycles_per_s.simd",
            Mode::Mimd => "machine.run_mcycles_per_s.mimd",
            _ => "machine.run_mcycles_per_s.smimd",
        };
        m.insert(name, r.rate() / 1e6);
    }
    for (kernel, r) in &log.by_kernel {
        let name = match *kernel {
            "matmul" => "machine.run_mcycles_per_s.matmul",
            "smooth" => "machine.run_mcycles_per_s.smooth",
            "reduce" => "machine.run_mcycles_per_s.reduce",
            _ => "machine.run_mcycles_per_s.bitonic",
        };
        m.insert(name, r.rate() / 1e6);
    }
    m.insert(
        "machine.build_us_p50",
        percentile(&log.build_us, 0.5).ok_or("too few machines for a median")?,
    );
    m.insert(
        "machine.build_share",
        share(
            profile.self_ns("machine.build") + profile.self_ns("machine.fault_plan"),
            cell_ns,
        ),
    );
    let c = &log.counts;
    m.insert("machine.sim_cycles", c.sim_cycles as f64);
    m.insert("machine.pe_instrs", c.pe_instrs as f64);
    m.insert("machine.fu_entries", c.fu_entries as f64);
    m.insert("machine.fu_barrier_stalls", c.fu_barrier_stalls as f64);
    m.insert("machine.fu_empty_stalls", c.fu_empty_stalls as f64);
    for (name, v) in crate::BUCKET_METRICS.iter().zip(c.buckets) {
        m.insert(name, v as f64);
    }
    m.insert("kernels.generate_us_p50", p50("kernels.generate")?);
    m.insert("kernels.load_us_p50", p50("kernels.load")?);
    m.insert(
        "kernels.load_share",
        share(profile.self_ns("kernels.load"), cell_ns),
    );
    m.insert("kernels.read_output_us_p50", p50("kernels.read_output")?);
    m.insert("pasm.summary_us_p50", p50("pasm.summary")?);
    m.insert(
        "pasm.fault_twin_share",
        share(profile.total_ns("pasm.fault_twin"), cell_ns),
    );
    let coverage = 1.0 - share(profile.self_ns(CELL), cell_ns);
    m.insert("trace.coverage", coverage);
    if coverage < 0.95 {
        return Err(format!(
            "layer spans cover only {:.1}% of traced cell time",
            coverage * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasm::MachineConfig;
    use pasm_prog::MatmulParams;
    use std::time::Instant;

    fn key(workload: &'static str, mode: Mode, n: usize, p: usize) -> ExperimentKey {
        ExperimentKey {
            config: MachineConfig::prototype(),
            mode,
            params: MatmulParams {
                n,
                p,
                extra_muls: 0,
            },
            seed: 11,
            fault: FaultPlan::default(),
            workload,
        }
    }

    #[test]
    fn replay_reproduces_run_keyed_for_every_kernel() {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut log = ReplayLog::new();
        let mut faulted = key("smooth", Mode::Smimd, 64, 8);
        faulted.fault = FaultPlan::parse("box:1:0").unwrap();
        let keys = [
            key("matmul", Mode::Simd, 8, 4),
            key("reduce", Mode::Mimd, 64, 4),
            key("bitonic", Mode::Smimd, 64, 4),
            faulted,
        ];
        for (i, k) in keys.iter().enumerate() {
            let direct = pasm::run_keyed(k).unwrap();
            let replayed = replay(k, &mut tr, i as u64, &mut log).unwrap();
            check_same(&direct, &replayed).unwrap();
            verify_output(k, &replayed).unwrap();
        }
        assert!(log.counts.sim_cycles > 0);
    }

    #[test]
    fn the_gate_rejects_a_corrupted_output() {
        let k = key("reduce", Mode::Simd, 64, 4);
        let good = pasm::run_keyed(&k).unwrap();
        verify_output(&k, &good).unwrap();
        let mut bad = good.clone();
        bad.c_checksum ^= 1;
        assert!(verify_output(&k, &bad).is_err());
        assert!(check_same(&good, &bad).is_err());
        let mut slow = good.clone();
        slow.cycles += 1;
        assert!(check_same(&good, &slow).is_err());
        // Corrupting one output word is caught by the word-level reference
        // check as well as by the checksum.
        let kernel = k.kernel().unwrap();
        let input = kernel.generate(64, k.seed);
        let mut words = kernel.reference(k.params, &input);
        words[3] ^= 0x10;
        assert!(pasm_kernels::verify(kernel, k.params, &input, &words).is_err());
    }
}
