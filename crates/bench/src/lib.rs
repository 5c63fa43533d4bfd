//! Shared plumbing for the benchmark binaries that regenerate the paper's
//! tables and figures. Each binary prints a plain-text table (see
//! `pasm::report`) and also drops the raw rows as JSON under
//! `bench-results/` for EXPERIMENTS.md bookkeeping.

use pasm_util::{Json, ToJson};
use std::fs;
use std::path::PathBuf;

pub mod micro;

/// Directory the binaries write raw JSON results into.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench-results");
    fs::create_dir_all(&dir).expect("create bench-results dir");
    dir
}

/// Serialize rows to `bench-results/<name>.json`.
pub fn save_json<T: ToJson>(name: &str, rows: &T) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, rows.to_json().pretty()).expect("write results");
    eprintln!("(raw rows written to {})", path.display());
}

/// Schema of the top-level `BENCH_*.json` trajectory files. Bump when the
/// document shape (not the metric values) changes.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// Serialize one benchmark document with the stable cross-PR schema
/// `{name, config, metrics{…}, schema_version}`, so successive PRs can diff
/// the perf trajectory mechanically. `config` records what was run (sizes,
/// machine preset, `--quick`), `metrics` the measured numbers.
///
/// A full run writes `BENCH_<name>.json` at the repository root — the
/// checked-in trajectory. A `--quick` smoke run writes the same document
/// under `bench-results/quick/` instead, so smoke runs never overwrite it.
pub fn save_bench_json(name: &str, config: Json, metrics: Json) {
    let doc = Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        ("config", config),
        ("metrics", metrics),
        ("schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
    ]);
    let file = format!("BENCH_{name}.json");
    let path = if quick_mode() {
        let dir = results_dir().join("quick");
        fs::create_dir_all(&dir).expect("create bench-results/quick dir");
        dir.join(file)
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file)
    };
    fs::write(&path, doc.pretty()).expect("write BENCH json");
    eprintln!("(benchmark doc written to {})", path.display());
}

/// `--quick` on the command line caps the problem-size sweep for smoke runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The paper's problem sizes, optionally capped for `--quick`.
pub fn sizes() -> Vec<usize> {
    let all = pasm::figures::PAPER_SIZES.to_vec();
    if quick_mode() {
        all.into_iter().filter(|&n| n <= 64).collect()
    } else {
        all
    }
}
