//! The repository's benchmark: three workloads over the simulator and the
//! simulation service, each run in its own process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|small-cells|serve-mix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. `--workload all`
//! runs every workload untraced and traced, each as a child process, and
//! prints every metric plus the tracing overhead. See `perfbench/README.md`
//! for what each workload loads and which metric each layer should move.

mod heap;
mod replay;
mod serve;
mod sim;
mod stats;
mod trace;

use pasm_util::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, with units, in `BENCHMARK.json` order.
pub const E2E: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("request_us_p50", "us"),
    ("request_us_p90", "us"),
    ("hit_us_p50", "us"),
    ("query_us_p50", "us"),
    ("peak_heap_mb", "MiB"),
];

/// `machine.bucket.<name>` for each entry of `BUCKET_NAMES`, in order.
pub const BUCKET_METRICS: [&str; pasm_machine::N_BUCKETS] = [
    "machine.bucket.fetch",
    "machine.bucket.compute",
    "machine.bucket.multiply_variance",
    "machine.bucket.barrier_wait",
    "machine.bucket.network",
    "machine.bucket.memory_wait",
    "machine.bucket.fault_detour",
];

/// Per-layer metrics, with units, in `BENCHMARK.json` order.
pub const LAYER: [(&str, &str); 54] = [
    ("machine.run_share", "ratio"),
    ("machine.run_mcycles_per_s.simd", "Mcycles/s"),
    ("machine.run_mcycles_per_s.mimd", "Mcycles/s"),
    ("machine.run_mcycles_per_s.smimd", "Mcycles/s"),
    ("machine.run_mcycles_per_s.matmul", "Mcycles/s"),
    ("machine.run_mcycles_per_s.smooth", "Mcycles/s"),
    ("machine.run_mcycles_per_s.reduce", "Mcycles/s"),
    ("machine.run_mcycles_per_s.bitonic", "Mcycles/s"),
    ("machine.build_us_p50", "us"),
    ("machine.build_share", "ratio"),
    ("machine.sim_cycles", "cycles"),
    ("machine.pe_instrs", "instrs"),
    ("machine.fu_entries", "count"),
    ("machine.fu_barrier_stalls", "count"),
    ("machine.fu_empty_stalls", "count"),
    ("machine.bucket.fetch", "cycles"),
    ("machine.bucket.compute", "cycles"),
    ("machine.bucket.multiply_variance", "cycles"),
    ("machine.bucket.barrier_wait", "cycles"),
    ("machine.bucket.network", "cycles"),
    ("machine.bucket.memory_wait", "cycles"),
    ("machine.bucket.fault_detour", "cycles"),
    ("kernels.generate_us_p50", "us"),
    ("kernels.load_us_p50", "us"),
    ("kernels.load_share", "ratio"),
    ("kernels.read_output_us_p50", "us"),
    ("pasm.summary_us_p50", "us"),
    ("pasm.fault_twin_share", "ratio"),
    ("http.submit_hit_us", "us"),
    ("http.result_fp_us", "us"),
    ("http.results_us", "us"),
    ("http.spans_us", "us"),
    ("http.sweep_us", "us"),
    ("http.submit_cold_us", "us"),
    ("http.status_us", "us"),
    ("http.result_us", "us"),
    ("server.cold_polls_per_job", "count"),
    ("server.job_wall_ms_mean", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.sim_runs_per_cold", "ratio"),
    ("server.rejected_429", "count"),
    ("server.recovery_ms", "ms"),
    ("server.store_fsyncs_per_cold", "count"),
    ("server.journal_fsyncs_per_cold", "count"),
    ("server.span_appends_per_cold", "count"),
    ("store.open_ms", "ms"),
    ("store.ingest_us_p50", "us"),
    ("store.get_us_p50", "us"),
    ("store.list_us_p50", "us"),
    ("store.phase_sweep_us_p50", "us"),
    ("util.json_parse_us_per_kb", "us/KiB"),
    ("trace.coverage", "ratio"),
    ("trace.cells_per_s", "1/s"),
    ("trace.requests_per_s", "1/s"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Per-layer prefixes this workload does not exercise; reported as 0.
    pub bypassed: &'static [&'static str],
    /// Exact simulated counts, compared across runs of one seed.
    pub counts: Option<Json>,
    pub spans: Vec<stats::Span>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// An operation that failed: a run error, a non-2xx reply, a timeout.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// An operation whose output is wrong.
    pub fn mismatch(&mut self, why: String) {
        self.correct = false;
        self.fail(why);
    }
}

/// The drift record of one run: a digest of every timed result and, on a
/// traced run, the exact counts of every machine run.
pub fn counts_json(digest: pasm_util::Fnv1a, counts: Option<&replay::Counts>) -> Json {
    use std::hash::Hasher;
    let mut fields = vec![(
        "results_digest",
        Json::Str(format!("{:016x}", digest.finish())),
    )];
    if let Some(c) = counts {
        fields.push(("counts", c.to_json()));
    }
    Json::obj(fields)
}

/// Where runs keep scratch state (data dirs, traces, drift records): under
/// the build directory, which the checkout ignores.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-work")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 35.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "paper-grid" => sim::run(&sim::PAPER_GRID, args.seed, args.seconds, args.trace)?,
        "small-cells" => sim::run(&sim::SMALL_CELLS, args.seed, args.seconds, args.trace)?,
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace, work)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.e2e
        .insert("peak_heap_mb", heap::peak_bytes() as f64 / (1 << 20) as f64);
    Ok(out)
}

/// Compare this run's exact counts with the first run of the same seed and
/// length, or record them if this is the first.
fn check_drift(args: &Args, counts: &Json, work: &Path) -> Result<(), String> {
    let dir = work.join("counts");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{}-seed{}-s{}-trace{}.json",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let now = counts.dump();
    match std::fs::read_to_string(&path) {
        Ok(before) if before.trim() == now => Ok(()),
        Ok(before) => Err(format!(
            "exact counts drifted from an earlier run of this seed: {} vs {now}",
            before.trim()
        )),
        Err(_) => std::fs::write(&path, &now).map_err(|e| e.to_string()),
    }
}

fn metrics_json(
    values: &Metrics,
    names: &[(&'static str, &'static str)],
    bypassed: &[&str],
) -> Json {
    Json::obj(
        names
            .iter()
            .map(|&(name, unit)| {
                let value = match values.get(name) {
                    Some(v) => *v,
                    None if bypassed.iter().any(|p| name.starts_with(p)) => 0.0,
                    None => panic!("workload did not report {name}"),
                };
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn single(args: &Args) -> ExitCode {
    let work = work_dir();
    let mut out = match run_workload(args, &work) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(counts) = &out.counts {
        if let Err(e) = check_drift(args, counts, &work) {
            out.mismatch(e);
        }
    }
    if args.trace {
        let dir = work.join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| trace::write_jsonl(&path, &out.spans))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for note in &out.notes {
        eprintln!("perfbench: {}: {note}", args.workload);
    }
    let metrics = if args.trace {
        metrics_json(&out.layer, &LAYER, out.bypassed)
    } else {
        metrics_json(&out.e2e, &E2E, &[])
    };
    let ok = out.correct && out.failed == 0;
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(out.correct)),
            ("attempted", out.attempted.to_json()),
            ("failed", out.failed.to_json()),
            ("metrics", metrics),
        ])
        .dump()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload untraced and traced, each in its own process, and
/// print every metric with its unit, plus the tracing overhead.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in ["paper-grid", "small-cells", "serve-mix"] {
        let mut rates = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output();
            let result = output.ok().filter(|o| {
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                o.status.success()
            });
            let result = result
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| {
                    s.lines()
                        .last()
                        .and_then(|l| pasm_util::json::parse(l).ok())
                });
            let Some(result) = result else {
                eprintln!("perfbench: {workload} --trace {trace} failed");
                ok = false;
                continue;
            };
            let metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
            let Json::Obj(members) = &metrics else {
                continue;
            };
            for (name, m) in members {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{workload:<12} {name:<36} {value:>16.4} {unit}");
            }
            let rate = |name| {
                metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            rates.push(if trace == "0" {
                (rate("cells_per_s"), rate("requests_per_s"))
            } else {
                (rate("trace.cells_per_s"), rate("trace.requests_per_s"))
            });
        }
        if let [(Some(c0), Some(r0)), (Some(c1), Some(r1))] = rates[..] {
            println!(
                "{workload:<12} {:<36} {:>16.4} ratio",
                "trace.overhead.cells_per_s",
                1.0 - c1 / c0
            );
            println!(
                "{workload:<12} {:<36} {:>16.4} ratio",
                "trace.overhead.requests_per_s",
                1.0 - r1 / r0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        all(&args)
    } else {
        single(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = pasm_util::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&E2E));
        assert_eq!(listed("per_layer"), ours(&LAYER));
    }
}
