//! The service workload, `serve-mix`: an in-process `pasm_server::Server`
//! with a durable data dir, driven over loopback HTTP by two closed-loop
//! clients running a fixed mix of warm reads and cold writes.

use crate::replay::{self, check_same, ReplayLog, CELL};
use crate::sim::gen_seed;
use crate::stats::{self, median, p50, percentile, SumRatio};
use crate::trace::{Profile, Tracer};
use crate::{Metrics, Outcome};
use pasm::{ExperimentKey, ExperimentResult, FaultPlan, MachineConfig, Mode};
use pasm_prog::MatmulParams;
use pasm_server::{FsyncPolicy, Server, ServerConfig};
use pasm_store::{ResultsQuery, SpanStore};
use pasm_util::json::{self, Json, ToJson};
use pasm_util::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Cells simulated into the data dir before the run; every warm read
/// targets one of them, and start-up replays all of them.
const WARM_CELLS: usize = 400;
/// A block is seven reads and one cold write, in a seeded order.
const BLOCK_READS: [Fetch; 7] = [
    Fetch::Hit,
    Fetch::Hit,
    Fetch::ResultFp,
    Fetch::ResultFp,
    Fetch::Results,
    Fetch::Spans,
    Fetch::Sweep,
];
/// Blocks one client completes per second on a 2-vCPU x86-64 host at the
/// commit that defined the benchmark. It fixes the block count for a given
/// `--seconds`, so the work list never depends on measured time.
const NOMINAL_BLOCKS_PER_S: f64 = 14.0;
/// Fixed wait before each `/status` poll of a cold job. A cold job's wall
/// time includes any fsync its log appends trigger; 20 ms covers that, so
/// nearly every job is done at the first poll and cold latency does not
/// jump by a whole poll between runs. A faster job shows in
/// `server.job_wall_ms_mean`, not in `cell_ms_*`.
const POLL_MS: u64 = 20;
/// Server starts timed for `setup_s`; the last one serves the run.
const SETUPS: usize = 3;
/// A request or a cold job that takes longer than this has failed.
const TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy)]
enum Fetch {
    Hit,
    ResultFp,
    Results,
    Spans,
    Sweep,
}

#[derive(Clone, Copy)]
enum Op {
    Read(Fetch, usize),
    Cold(usize),
}

/// Endpoint classes, for per-endpoint latency.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    SubmitHit,
    ResultFp,
    Results,
    Spans,
    Sweep,
    SubmitCold,
    Status,
    ResultJob,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::SubmitHit => "http.submit_hit",
            Kind::ResultFp => "http.result_fp",
            Kind::Results => "http.results",
            Kind::Spans => "http.spans",
            Kind::Sweep => "http.sweep",
            Kind::SubmitCold => "http.submit_cold",
            Kind::Status => "http.status",
            Kind::ResultJob => "http.result",
        }
    }

    fn is_query(self) -> bool {
        matches!(self, Kind::Results | Kind::Spans | Kind::Sweep)
    }
}

/// One cell as the service sees it: its key, its `/submit` body and its
/// fingerprint, plus the direct `run_keyed` result every reply must equal.
struct Cell {
    key: ExperimentKey,
    body: String,
    fp: String,
    expect: ExperimentResult,
    expect_json: String,
}

/// Cell shapes, cycled through in order so every seed runs the same mix of
/// work; the seed picks only the input data.
const SHAPES: usize = 48;

fn tiny_cell(shape: usize, rng: &mut Rng) -> (ExperimentKey, String) {
    let names = pasm_kernels::names();
    let workload = names[shape % 4];
    let mode = [Mode::Simd, Mode::Mimd, Mode::Smimd][shape / 4 % 3];
    let p = [4, 8][shape / 12 % 2];
    // Small enough that a cold job is done by the first poll even when the
    // host runs slow.
    let n = match (workload == pasm::MATMUL, shape / 24 % 2) {
        (true, _) => 8,
        (false, i) => [16, 32][i],
    };
    let seed = gen_seed(rng);
    let key = ExperimentKey {
        config: MachineConfig::prototype(),
        mode,
        params: MatmulParams {
            n,
            p,
            extra_muls: 0,
        },
        seed,
        fault: FaultPlan::default(),
        workload,
    };
    let body = format!(
        "{{\"kernel\":\"{workload}\",\"mode\":\"{}\",\"n\":{n},\"p\":{p},\"seed\":{seed}}}",
        replay::mode_label(mode)
    );
    (key, body)
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes each).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(io)?;
    s.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(io)?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed reply"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok((status, body.to_string()))
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    match http(addr, "GET", path, "")? {
        (200, body) => json::parse(&body).map_err(|e| format!("GET {path}: {e}")),
        (code, body) => Err(format!("GET {path}: {code} {body}")),
    }
}

fn start(data: &Path) -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        data_dir: Some(data.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Poll `/healthz` until the server has replayed its logs and answers 200.
fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let t = Instant::now();
    loop {
        if let Ok((200, _)) = http(addr, "GET", "/healthz", "") {
            return Ok(());
        }
        if t.elapsed() > TIMEOUT {
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn u64_at(v: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    requests: Vec<(Kind, f64)>,
    cold_ms: Vec<f64>,
    cold_cycles: SumRatio,
    cold_instrs: SumRatio,
    polls: u64,
    job_wall_ms: Vec<f64>,
    parse_ns: u64,
    parse_bytes: u64,
    attempted: u64,
    failures: Vec<String>,
    mismatches: Vec<String>,
    spans: Vec<stats::Span>,
}

struct Client<'a> {
    addr: SocketAddr,
    warm: &'a [Cell],
    cold: &'a [Cell],
    tracer: Option<Tracer>,
    group: u64,
    log: ClientLog,
}

impl Client<'_> {
    fn begin(&mut self, name: &'static str) {
        if let Some(t) = &mut self.tracer {
            t.begin(name, self.group);
        }
    }

    fn end(&mut self) {
        if let Some(t) = &mut self.tracer {
            t.end();
        }
    }

    /// One request: its latency is recorded whatever the reply; a reply
    /// outside 2xx or a transport error is a failed operation.
    fn call(&mut self, kind: Kind, method: &str, path: &str, body: &str) -> Option<(u16, Json)> {
        self.log.attempted += 1;
        self.begin(kind.span());
        let t = Instant::now();
        let reply = http(self.addr, method, path, body);
        self.log
            .requests
            .push((kind, t.elapsed().as_secs_f64() * 1e6));
        self.end();
        let (code, text) = match reply {
            Ok(r) => r,
            Err(e) => {
                self.log.failures.push(e);
                return None;
            }
        };
        if !(200..300).contains(&code) {
            self.log
                .failures
                .push(format!("{method} {path}: {code} {text}"));
            return None;
        }
        self.begin("util.json_parse");
        let t = Instant::now();
        let parsed = json::parse(&text);
        if self.tracer.is_some() {
            self.log.parse_ns += t.elapsed().as_nanos() as u64;
            self.log.parse_bytes += text.len() as u64;
        }
        self.end();
        match parsed {
            Ok(v) => Some((code, v)),
            Err(e) => {
                self.log
                    .mismatches
                    .push(format!("{method} {path}: unparseable reply: {e}"));
                None
            }
        }
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.log.mismatches.push(what());
        }
    }

    fn same_result(&mut self, reply: &Json, cell: &Cell, path: &str) {
        let got = reply.get("result").map(Json::dump);
        let ok = got.as_deref() == Some(cell.expect_json.as_str());
        self.expect(ok, || {
            format!("{path}: result differs from run_keyed for {}", cell.fp)
        });
    }

    fn read(&mut self, read: Fetch, i: usize) {
        let cell = &self.warm[i];
        let (workload, mode) = (cell.key.workload, replay::mode_label(cell.key.mode));
        match read {
            Fetch::Hit => {
                if let Some((code, v)) = self.call(Kind::SubmitHit, "POST", "/submit", &cell.body) {
                    let cached = v.get("cached").and_then(Json::as_bool) == Some(true);
                    let key_ok = v.get("key").and_then(Json::as_str) == Some(cell.fp.as_str());
                    self.expect(code == 200 && cached && key_ok, || {
                        format!("warm submit of {} was not a cache hit", cell.fp)
                    });
                    self.same_result(&v, cell, "/submit");
                }
            }
            Fetch::ResultFp => {
                let path = format!("/result/{}", cell.fp);
                if let Some((_, v)) = self.call(Kind::ResultFp, "GET", &path, "") {
                    self.same_result(&v, cell, &path);
                }
            }
            Fetch::Spans => {
                let path = format!("/spans/{}", cell.fp);
                if let Some((_, v)) = self.call(Kind::Spans, "GET", &path, "") {
                    let fp_ok = v.get("fp").and_then(Json::as_str) == Some(cell.fp.as_str());
                    let cycles = u64_at(&v, &["run", "cycles"]);
                    self.expect(fp_ok && cycles == cell.expect.cycles, || {
                        format!("{path}: span record does not match run_keyed")
                    });
                }
            }
            Fetch::Results => {
                let path = format!("/results?workload={workload}&mode={mode}&limit=20");
                if let Some((_, v)) = self.call(Kind::Results, "GET", &path, "") {
                    let rows = v
                        .get("rows")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len);
                    self.expect(u64_at(&v, &["total"]) >= 1 && rows >= 1, || {
                        format!("{path}: listing misses the warm cell's group")
                    });
                }
            }
            Fetch::Sweep => {
                let path = format!("/sweep/phases?workload={workload}&mode={mode}");
                if let Some((_, v)) = self.call(Kind::Sweep, "GET", &path, "") {
                    let groups = v
                        .get("groups")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len);
                    self.expect(groups >= 1, || format!("{path}: no phase groups"));
                }
            }
        }
    }

    /// A never-seen cell: submit, poll `/status` at a fixed interval until
    /// done, fetch `/result`. Its cell time is the whole exchange.
    fn cold(&mut self, j: usize) {
        let cell = &self.cold[j];
        let t = Instant::now();
        let Some((code, v)) = self.call(Kind::SubmitCold, "POST", "/submit", &cell.body) else {
            return;
        };
        let key_ok = v.get("key").and_then(Json::as_str) == Some(cell.fp.as_str());
        self.expect(code == 202 && key_ok, || {
            format!("cold submit of {} was not queued", cell.fp)
        });
        let Some(id) = v.get("job_id").and_then(Json::as_u64) else {
            self.log
                .mismatches
                .push("cold submit reply has no job_id".into());
            return;
        };
        loop {
            std::thread::sleep(Duration::from_millis(POLL_MS));
            self.log.polls += 1;
            let Some((_, s)) = self.call(Kind::Status, "GET", &format!("/status/{id}"), "") else {
                return;
            };
            match s.get("status").and_then(Json::as_str) {
                Some("done") => break,
                Some("queued" | "running") if t.elapsed() < TIMEOUT => {}
                other => {
                    self.log
                        .failures
                        .push(format!("cold job {id} ended {other:?}"));
                    return;
                }
            }
        }
        let path = format!("/result/{id}");
        let Some((_, r)) = self.call(Kind::ResultJob, "GET", &path, "") else {
            return;
        };
        let secs = t.elapsed().as_secs_f64();
        self.same_result(&r, cell, &path);
        let cached = r.get("cached").and_then(Json::as_bool);
        self.expect(cached == Some(false), || {
            format!("{path}: cold job answered from cache")
        });
        self.log.cold_ms.push(secs * 1e3);
        self.log.cold_cycles.add(cell.expect.cycles as f64, secs);
        self.log.cold_instrs.add(cell.expect.pe_instrs as f64, secs);
        self.log.job_wall_ms.push(u64_at(&r, &["wall_ms"]) as f64);
    }

    fn run(mut self, ops: &[Op], group_base: u64) -> ClientLog {
        for (i, op) in ops.iter().enumerate() {
            self.group = group_base + i as u64;
            match *op {
                Op::Read(read, i) => {
                    self.begin("op.read");
                    self.read(read, i);
                }
                Op::Cold(j) => {
                    self.begin("op.cold");
                    self.cold(j);
                }
            }
            self.end();
        }
        if let Some(t) = self.tracer.take() {
            self.log.spans = t.spans;
        }
        self.log
    }
}

/// The direct results every reply is checked against. A traced run also
/// replays each cell layer by layer, which must reproduce `run_keyed`.
fn expected(
    keys: Vec<(ExperimentKey, String)>,
    traced: bool,
    tr: &mut Tracer,
    log: &mut ReplayLog,
) -> Result<Vec<Cell>, String> {
    let results = pasm::par_map(keys, |(key, body)| {
        pasm::run_keyed(key).map(|r| (key.clone(), body.clone(), r))
    });
    let mut cells = Vec::with_capacity(results.len());
    for (i, r) in results.into_iter().enumerate() {
        let (key, body, expect) = r.map_err(|e| format!("direct run failed: {e:?}"))?;
        replay::verify_output(&key, &expect)?;
        if traced {
            let group = i as u64 + 1;
            tr.begin(CELL, group);
            let replayed = replay::replay(&key, tr, group, log);
            tr.end();
            check_same(&expect, &replayed?)?;
        }
        cells.push(Cell {
            fp: format!("{:016x}", key.fingerprint()),
            expect_json: expect.to_json().dump(),
            key,
            body,
            expect,
        });
    }
    Ok(cells)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to.join(entry.file_name()))?;
        } else {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// `pasm-store` alone, on a copy of the run's span log: open (replay),
/// reads by fingerprint, listing, phase sweep, and ingest into a new store.
fn store_metrics(
    spans_dir: &Path,
    scratch: &Path,
    warm: &[Cell],
    m: &mut Metrics,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("span store: {e}");
    let policy = FsyncPolicy::Interval(Duration::from_millis(FsyncPolicy::DEFAULT_INTERVAL_MS));
    let copy = scratch.join("spans-copy");
    copy_dir(spans_dir, &copy).map_err(io)?;
    let t = Instant::now();
    let (store, _) = SpanStore::open(&copy, policy, None).map_err(io)?;
    m.insert("store.open_ms", t.elapsed().as_secs_f64() * 1e3);
    let (fresh, _) = SpanStore::open(&scratch.join("spans-ingest"), policy, None).map_err(io)?;
    let (mut get, mut list, mut sweep, mut ingest) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for cell in warm {
        let mode = replay::mode_label(cell.key.mode);
        let t = Instant::now();
        let record = store.get(cell.key.fingerprint()).map_err(io)?;
        get.push(t.elapsed().as_secs_f64() * 1e6);
        let record = record.ok_or("span store lost a warm record")?;
        let t = Instant::now();
        fresh.ingest(&record).map_err(io)?;
        ingest.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(store.list(&ResultsQuery {
            workload: Some(cell.key.workload.to_string()),
            mode: Some(mode.clone()),
            limit: Some(20),
            ..ResultsQuery::default()
        }));
        list.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(store.phase_sweep(cell.key.workload, Some(&mode)));
        sweep.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let p = |v: &[f64]| p50(v).ok_or("too few store operations for a median");
    m.insert("store.get_us_p50", p(&get)?);
    m.insert("store.list_us_p50", p(&list)?);
    m.insert("store.phase_sweep_us_p50", p(&sweep)?);
    m.insert("store.ingest_us_p50", p(&ingest)?);
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let dir = work.join(format!("serve-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scratch = Scratch(dir);
    let data = scratch.0.join("data");

    // Inputs: warm cells, then one cold cell per block per client, all
    // distinct; the op lists are fixed by the seed and the run length.
    let blocks = (seconds * NOMINAL_BLOCKS_PER_S).ceil().max(1.0) as usize;
    let mut rng = Rng::seed_from_u64(seed ^ 0x5345_5256_454d_4958);
    let mut seen = std::collections::HashSet::new();
    let mut keys = Vec::new();
    while keys.len() < WARM_CELLS + CLIENTS * blocks {
        let (key, body) = tiny_cell(keys.len() % SHAPES, &mut rng);
        if seen.insert(key.fingerprint()) {
            keys.push((key, body));
        }
    }
    let mut ops: Vec<Vec<Op>> = Vec::new();
    for c in 0..CLIENTS {
        let mut list = Vec::with_capacity(blocks * 8);
        for b in 0..blocks {
            let mut block: Vec<Op> = BLOCK_READS
                .iter()
                .map(|&r| Op::Read(r, rng.gen_range(WARM_CELLS)))
                .collect();
            block.insert(rng.gen_range(block.len() + 1), Op::Cold(c * blocks + b));
            list.extend(block);
        }
        ops.push(list);
    }

    // Untimed prepare: simulate the warm cells into the data dir through
    // the service itself, and compute every direct result.
    let t_prep = Instant::now();
    let mut tr = Tracer::new(t_prep, 0);
    let mut log = ReplayLog::new();
    let cells = expected(keys, traced, &mut tr, &mut log)?;
    let (warm, cold) = cells.split_at(WARM_CELLS);
    {
        let server = start(&data)?;
        wait_ready(server.addr())?;
        for cell in warm {
            match http(server.addr(), "POST", "/submit", &cell.body)? {
                (202, _) => {}
                (code, body) => return Err(format!("prepare submit: {code} {body}")),
            }
        }
        let t = Instant::now();
        loop {
            let s = get_json(server.addr(), "/stats")?;
            if u64_at(&s, &["completed"]) == WARM_CELLS as u64 {
                break;
            }
            if u64_at(&s, &["failed"]) > 0 || t.elapsed() > TIMEOUT {
                return Err("prepare jobs did not all complete".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let prep_s = t_prep.elapsed().as_secs_f64();

    // Set-up: start the server on the populated dir until `/healthz` is
    // 200, several times; the last start serves the run.
    let mut setup_s = Vec::new();
    let mut recovery_ms = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t = Instant::now();
        let s = start(&data)?;
        wait_ready(s.addr())?;
        setup_s.push(t.elapsed().as_secs_f64());
        let stats = get_json(s.addr(), "/stats")?;
        recovery_ms.push(u64_at(&stats, &["durability", "recovery_ms"]) as f64);
        if u64_at(&stats, &["durability", "results_replayed"]) != WARM_CELLS as u64 {
            out.mismatch("start-up did not replay every warm result".into());
        }
        server = Some(s);
    }
    let mut server = server.expect("SETUPS > 0");
    let addr = server.addr();

    // The run: two closed-loop clients.
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let client = Client {
                    addr,
                    warm,
                    cold,
                    tracer: traced.then(|| Tracer::new(t0, (c as u64 + 1) << 40)),
                    group: 0,
                    log: ClientLog::default(),
                };
                scope.spawn(move || client.run(list, (c as u64 + 1) << 40))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = get_json(addr, "/stats")?;
    match http(addr, "GET", "/metrics", "")? {
        (200, text) if text.contains("pasm_") => {}
        (code, _) => out.fail(format!("/metrics answered {code}")),
    }
    server.shutdown();
    let spans_dir = data.join("spans");

    let mut requests = Vec::new();
    let (mut cold_ms, mut job_wall_ms) = (Vec::new(), Vec::new());
    let (mut cycles, mut instrs) = (SumRatio::default(), SumRatio::default());
    let (mut polls, mut parse_ns, mut parse_bytes) = (0, 0, 0);
    let mut spans = tr.spans;
    for l in logs {
        out.attempted += l.attempted;
        for f in l.failures {
            out.fail(f);
        }
        for m in l.mismatches {
            out.mismatch(m);
        }
        requests.extend(l.requests);
        cold_ms.extend(l.cold_ms);
        job_wall_ms.extend(l.job_wall_ms);
        cycles.add(l.cold_cycles.work, l.cold_cycles.seconds);
        instrs.add(l.cold_instrs.work, l.cold_instrs.seconds);
        polls += l.polls;
        parse_ns += l.parse_ns;
        parse_bytes += l.parse_bytes;
        spans.extend(l.spans);
    }
    let n_cold = cold.len() as f64;
    let latencies = |keep: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        requests
            .iter()
            .filter(|(k, _)| keep(*k))
            .map(|(_, us)| *us)
            .collect()
    };
    let all = latencies(&|_| true);
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("too few {what} for the percentile"));

    let e = &mut out.e2e;
    e.insert("setup_s", median(&setup_s));
    e.insert("sim_mcycles_per_s", cycles.rate() / 1e6);
    e.insert("sim_minstr_per_s", instrs.rate() / 1e6);
    e.insert("cells_per_s", cold_ms.len() as f64 / wall);
    e.insert("cell_ms_p50", need(p50(&cold_ms), "cold cells")?);
    e.insert(
        "cell_ms_p90",
        need(percentile(&cold_ms, 0.9), "cold cells")?,
    );
    e.insert("requests_per_s", all.len() as f64 / wall);
    e.insert("request_us_p50", need(p50(&all), "requests")?);
    e.insert("request_us_p90", need(percentile(&all, 0.9), "requests")?);
    e.insert(
        "hit_us_p50",
        need(p50(&latencies(&|k| k == Kind::SubmitHit)), "hits")?,
    );
    e.insert(
        "query_us_p50",
        need(p50(&latencies(&|k| k.is_query())), "queries")?,
    );

    let sim_runs = u64_at(&stats, &["sim_runs"]);
    if sim_runs != cold.len() as u64 {
        out.mismatch(format!(
            "{sim_runs} simulations for {} cold jobs",
            cold.len()
        ));
    }
    let mut digest = pasm_util::Fnv1a::new();
    for c in &cells {
        use std::hash::Hasher;
        digest.write(c.expect_json.as_bytes());
    }
    out.counts = Some(crate::counts_json(digest, traced.then_some(&log.counts)));
    out.notes.push(format!(
        "prepare {prep_s:.2} s; {} requests, {} cold jobs in {wall:.2} s; poll interval {POLL_MS} ms",
        all.len(),
        cold_ms.len()
    ));

    if traced {
        let l = &mut out.layer;
        replay::layer_metrics(&Profile::new(&spans), &log, l)?;
        for kind in [
            Kind::SubmitHit,
            Kind::ResultFp,
            Kind::Results,
            Kind::Spans,
            Kind::Sweep,
            Kind::SubmitCold,
            Kind::Status,
            Kind::ResultJob,
        ] {
            let name = match kind {
                Kind::SubmitHit => "http.submit_hit_us",
                Kind::ResultFp => "http.result_fp_us",
                Kind::Results => "http.results_us",
                Kind::Spans => "http.spans_us",
                Kind::Sweep => "http.sweep_us",
                Kind::SubmitCold => "http.submit_cold_us",
                Kind::Status => "http.status_us",
                Kind::ResultJob => "http.result_us",
            };
            l.insert(name, need(p50(&latencies(&|k| k == kind)), kind.span())?);
        }
        let hits = u64_at(&stats, &["cache", "hits"]) as f64;
        let misses = u64_at(&stats, &["cache", "misses"]) as f64;
        l.insert("server.cold_polls_per_job", polls as f64 / n_cold);
        l.insert(
            "server.job_wall_ms_mean",
            job_wall_ms.iter().sum::<f64>() / job_wall_ms.len().max(1) as f64,
        );
        l.insert("server.cache_hit_ratio", stats::share(hits, hits + misses));
        l.insert("server.sim_runs_per_cold", sim_runs as f64 / n_cold);
        l.insert(
            "server.rejected_429",
            u64_at(&stats, &["rejected_queue_full"]) as f64,
        );
        l.insert("server.recovery_ms", median(&recovery_ms));
        l.insert(
            "server.store_fsyncs_per_cold",
            u64_at(&stats, &["durability", "store_fsyncs"]) as f64 / n_cold,
        );
        l.insert(
            "server.journal_fsyncs_per_cold",
            u64_at(&stats, &["durability", "journal_fsyncs"]) as f64 / n_cold,
        );
        l.insert(
            "server.span_appends_per_cold",
            u64_at(&stats, &["span_store", "appends"]) as f64 / n_cold,
        );
        store_metrics(&spans_dir, &scratch.0, warm, l)?;
        l.insert(
            "util.json_parse_us_per_kb",
            parse_ns as f64 / 1e3 / (parse_bytes as f64 / 1024.0),
        );
        l.insert("trace.cells_per_s", cold_ms.len() as f64 / wall);
        l.insert("trace.requests_per_s", all.len() as f64 / wall);
        out.spans = spans;
    }
    Ok(out)
}
