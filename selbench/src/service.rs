//! The `service-mixed` workload: closed-loop clients against one
//! `selcached` server process backed by a fresh store.
//!
//! The server is this binary re-executed with `--serve`, which runs the
//! same `selcache_bench::service::Server` the `selcached` binary runs, so
//! its peak memory is measured apart from the clients'. Set-up starts it
//! on an empty store and pre-seeds part of the identity pool through the
//! socket. Two clients (no more than the two cores the benchmark is sized for)
//! then each hold one connection and send seeded requests: `run` requests
//! of 1–4 jobs — identities already in the store (reads), and every 200th
//! job a new one the server simulates and writes — plus occasional `ping`
//! and `stats`. A pass is a fixed script of requests per client; a new pass
//! starts while `--seconds` have not yet elapsed. Each set-up and each pass
//! is a calibrated unit (see `host.rs`): its wall time and every request
//! latency in it are divided by the host factor measured around it.
//!
//! The mix is assumed, not recorded: reads dominate, as for a warm shared
//! store, and about 1.2% of requests carry a write, which places
//! `req_p99_ms` among the write requests.

use crate::expected::Expected;
use crate::host::Host;
use crate::jobs::{self, PoolEntry};
use crate::trace::Recorder;
use crate::util::{median, ms_since, peak_rss_mb, percentile, tail_percentile, Rng};
use crate::{Args, Outcome};
use selcache_bench::service::Server;
use selcache_core::json::Json;
use selcache_core::{Benchmark, JobEngine, JobId, Store};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Server worker threads and client count.
const THREADS: usize = 2;
const CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds of the stratified pool order (every benchmark once per round)
/// set-up writes into the store before measuring.
const PRESEEDED_ROUNDS: usize = 4;
/// Requests each client sends per pass.
const REQUESTS_PER_PASS: usize = 250;
/// Every `NEW_EVERY`-th job a client sends is an identity the store does
/// not hold yet (a fixed cadence, so every pass writes the same amount).
const NEW_EVERY: u64 = 200;
const P_PING: f64 = 0.03;
const P_STATS: f64 = 0.02;
/// Fresh connections the traced run opens to time connection set-up.
const CONNECT_PROBES: usize = 20;
/// Store entries the traced run reads and rewrites through `Store`.
const STORE_PROBES: usize = 200;

/// `--serve <socket> <store> <threads>`: run a `selcached` server until a
/// `shutdown` request arrives.
pub fn serve(args: &[String]) -> i32 {
    let [socket, store, threads] = args else {
        eprintln!("usage: selbench --serve <socket> <store dir> <threads>");
        return 2;
    };
    let threads: usize = threads.parse().unwrap_or(THREADS);
    let engine = match Store::open(store) {
        Ok(s) => JobEngine::with_store(threads, s),
        Err(e) => {
            eprintln!("failed to open store {store}: {e}");
            return 1;
        }
    };
    match Server::bind(Path::new(socket), engine).and_then(|s| s.run()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("server error: {e}");
            1
        }
    }
}

/// A server child process; killed and reaped on drop if still running.
struct ServerProc {
    child: Child,
    socket: PathBuf,
    store: PathBuf,
}

impl ServerProc {
    fn start(dir: &Path) -> Result<ServerProc, String> {
        let store = dir.join("store");
        let socket = dir.join("sock");
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("--serve")
            .arg(&socket)
            .arg(&store)
            .arg(THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let mut server = ServerProc { child, socket, store };
        let t = Instant::now();
        loop {
            if let Ok(mut c) = Conn::open(&server.socket) {
                if c.request("{\"op\":\"ping\"}").is_ok() {
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up with {status}"));
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("server did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = Conn::open(&self.socket).and_then(|mut c| c.request("{\"op\":\"shutdown\"}"));
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not shut down within 20 s".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One held client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(path: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(path)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Sends one request line and reads its response lines: any `result`
    /// lines, then the one line that ends the response.
    fn request(&mut self, line: &str) -> io::Result<Vec<Json>> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut lines = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"));
            }
            let j = Json::parse(buf.trim())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let last = j.get("kind").and_then(Json::as_str) != Some("result");
            lines.push(j);
            if last {
                return Ok(lines);
            }
        }
    }
}

fn run_line(pool: &[PoolEntry], picks: &[usize]) -> String {
    let specs: Vec<&str> = picks.iter().map(|&i| pool[i].spec.as_str()).collect();
    format!("{{\"op\":\"run\",\"jobs\":[{}]}}", specs.join(","))
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Ping,
    Stats,
    Run,
}

/// What one request cost and returned.
struct Sample {
    op: Op,
    /// Latency: raw, then calibrated once the pass's host factor is known.
    ms: f64,
    raw_ms: f64,
    all_hits: bool,
    instructions: u64,
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: u64,
}

/// Checks a `run` response against the expected results; returns the
/// answered instructions and whether the store answered every job.
fn check_run(
    expected: &Expected,
    pool: &[PoolEntry],
    picks: &[usize],
    lines: &[Json],
    checks: &mut Checks,
) -> (u64, bool) {
    checks.attempted += picks.len() as u64;
    let ok = |j: &Json| matches!(j.get("ok"), Some(Json::Bool(true)));
    let errors = lines.iter().filter(|j| !ok(j)).count() as u64;
    checks.errors += errors;
    let results: Vec<&Json> =
        lines.iter().filter(|j| j.get("kind").and_then(Json::as_str) == Some("result")).collect();
    if errors > 0 || results.len() != picks.len() {
        eprintln!("run request failed: {:?}", lines.last().map(Json::to_string));
        checks.failed += picks.len() as u64;
        return (0, false);
    }
    let mut instructions = 0;
    for (&i, line) in picks.iter().zip(&results) {
        let field = |k: &str| line.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        let num = |k: &str| line.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let id = line.get("job_id").and_then(Json::as_str).unwrap_or("");
        let want_id = pool[i].job.job_id().to_string();
        let verdict = if id != want_id {
            Err(format!("{}: job id {id}, expected {want_id}", jobs::label(&pool[i].job)))
        } else {
            expected.check_line(
                id,
                field("cycles"),
                field("instructions"),
                num("l1d_miss_pct"),
                num("l2_miss_pct"),
            )
        };
        match verdict {
            Ok(()) => instructions += field("instructions"),
            Err(e) => {
                eprintln!("mismatch: {e}");
                checks.failed += 1;
            }
        }
    }
    let executed = lines
        .last()
        .and_then(|d| d.get("engine"))
        .and_then(|e| e.get("executed"))
        .and_then(Json::as_u64);
    (instructions, executed == Some(0))
}

/// A client's deterministic request stream.
struct Client {
    rng: Rng,
    /// Pool indices the store is known to hold.
    known: Vec<usize>,
    /// This client's share of the not-yet-stored identities, in draw order.
    fresh: VecDeque<usize>,
    /// Jobs drawn so far.
    jobs: u64,
}

impl Client {
    fn next(&mut self) -> (Op, Vec<usize>) {
        let r = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if r < P_PING {
            return (Op::Ping, Vec::new());
        }
        if r < P_PING + P_STATS {
            return (Op::Stats, Vec::new());
        }
        let n = 1 + self.rng.below(4);
        let mut picks = Vec::with_capacity(n);
        for _ in 0..n {
            self.jobs += 1;
            let fresh =
                if self.jobs.is_multiple_of(NEW_EVERY) { self.fresh.pop_front() } else { None };
            match fresh {
                Some(i) => {
                    self.known.push(i);
                    picks.push(i);
                }
                None => picks.push(self.known[self.rng.below(self.known.len())]),
            }
        }
        (Op::Run, picks)
    }
}

/// Runs one client's script of `REQUESTS_PER_PASS` requests.
fn client_pass(
    conn: &mut Conn,
    client: &mut Client,
    expected: &Expected,
    pool: &[PoolEntry],
    rec: Option<&Recorder>,
    cid: usize,
) -> (Vec<Sample>, Checks) {
    let mut samples = Vec::with_capacity(REQUESTS_PER_PASS);
    let mut checks = Checks::default();
    for k in 0..REQUESTS_PER_PASS {
        let (op, picks) = client.next();
        let line = match op {
            Op::Ping => "{\"op\":\"ping\"}".to_string(),
            Op::Stats => "{\"op\":\"stats\"}".to_string(),
            Op::Run => run_line(pool, &picks),
        };
        let span = rec.map(|r| r.open("service.request", None, Some(cid * 1_000_000 + k)));
        let t = Instant::now();
        let response = conn.request(&line);
        let ms = ms_since(t);
        if let (Some(r), Some(s)) = (rec, span) {
            r.close(s);
        }
        let lines = match response {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("request failed: {e}");
                checks.attempted += picks.len().max(1) as u64;
                checks.failed += picks.len().max(1) as u64;
                checks.errors += 1;
                continue;
            }
        };
        let (instructions, all_hits) = match op {
            Op::Run => check_run(expected, pool, &picks, &lines, &mut checks),
            Op::Ping | Op::Stats => {
                checks.attempted += 1;
                let want = if op == Op::Ping { "pong" } else { "stats" };
                if lines.len() != 1 || lines[0].get("kind").and_then(Json::as_str) != Some(want) {
                    checks.failed += 1;
                    checks.errors += 1;
                }
                (0, false)
            }
        };
        samples.push(Sample { op, ms, raw_ms: ms, all_hits, instructions });
    }
    (samples, checks)
}

/// Set-up: lay out the seeded pool, start a server on an empty store, and
/// pre-seed it through the socket.
fn setup(
    args: &Args,
    dir: &Path,
    pool: &[PoolEntry],
    expected: &Expected,
) -> Result<(ServerProc, Vec<usize>, Vec<usize>), String> {
    let order = stratified_order(pool, args.seed);
    let (seeded, rest) = order.split_at(PRESEEDED_ROUNDS * Benchmark::ALL.len());
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = ServerProc::start(dir)?;
    let mut conn = Conn::open(&server.socket).map_err(|e| format!("connect: {e}"))?;
    let mut checks = Checks::default();
    for chunk in seeded.chunks(8) {
        let lines = conn.request(&run_line(pool, chunk)).map_err(|e| format!("pre-seed: {e}"))?;
        check_run(expected, pool, chunk, &lines, &mut checks);
    }
    if checks.failed > 0 {
        return Err(format!("pre-seeding failed on {} jobs", checks.failed));
    }
    Ok((server, seeded.to_vec(), rest.to_vec()))
}

/// A seeded order of the pool in rounds. Each round holds every benchmark
/// once, each under a different configuration (machine, version, assist,
/// mode, policy), and over all rounds every pair appears once. Equal
/// stretches of the order — what set-up pre-seeds, what each client writes
/// in a pass — then cost about the same to simulate whatever the seed.
fn stratified_order(pool: &[PoolEntry], seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    // Configuration groups, each listing its entries in benchmark order.
    let mut configs: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, e) in pool.iter().enumerate() {
        // Benchmark names may contain commas (`TPC-D,Q1`): strip the field.
        let prefix = format!("{{\"benchmark\":\"{}\",", e.job.benchmark.name());
        let config = e.spec.strip_prefix(&prefix).expect("pool specs lead with the benchmark");
        match configs.iter_mut().find(|(c, _)| *c == config) {
            Some((_, members)) => members.push(i),
            None => configs.push((config, vec![i])),
        }
    }
    rng.shuffle(&mut configs);
    let benchmarks = configs[0].1.len();
    assert!(configs.iter().all(|(_, m)| m.len() == benchmarks), "every config on every benchmark");
    let mut order = Vec::with_capacity(pool.len());
    for r in 0..configs.len() {
        let mut round: Vec<usize> =
            (0..benchmarks).map(|b| configs[(r + b) % configs.len()].1[b]).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order
}

fn stats(server: &ServerProc) -> Result<Json, String> {
    let mut c = Conn::open(&server.socket).map_err(|e| format!("connect: {e}"))?;
    let mut lines = c.request("{\"op\":\"stats\"}").map_err(|e| format!("stats: {e}"))?;
    lines.pop().ok_or("no stats line".into())
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let root = PathBuf::from(".selbench_run").join(std::process::id().to_string());
    let result = measure(args, &root);
    let _ = std::fs::remove_dir_all(&root);
    if let Ok(entries) = std::fs::read_dir(".selbench_run") {
        if entries.count() == 0 {
            let _ = std::fs::remove_dir(".selbench_run");
        }
    }
    result
}

fn measure(args: &Args, root: &Path) -> Result<Outcome, String> {
    let pool = jobs::service_pool();
    // The output check's reference data: parsed once, outside set-up.
    let expected = Expected::load()?;
    let mut host = Host::new();
    let mut setup_times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let t = host.time(|| setup(args, &root.join(format!("s{k}")), &pool, &expected));
        setup_times.push(t.s);
        if let Some((old, _, _)) = kept.replace(t.value?) {
            old.stop()?;
        }
    }
    let (server, seeded, rest) = kept.expect("at least one set-up");
    let mut out = Outcome::new(median(&setup_times));
    out.label("server_threads", THREADS.to_string());
    out.label("clients", format!("{CLIENTS} closed-loop, one held connection each"));
    out.label("timing", "warm store: pre-seeded, grows as new identities are written".into());
    out.label(
        "pool",
        format!("{} Scale::Tiny identities, {} pre-seeded", pool.len(), seeded.len()),
    );

    let before = stats(&server)?;
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            rng: Rng::new(args.seed.wrapping_mul(31).wrapping_add(c as u64 + 1)),
            known: seeded.clone(),
            // Whole rounds alternate between the clients.
            fresh: rest
                .chunks(Benchmark::ALL.len())
                .skip(c)
                .step_by(CLIENTS)
                .flatten()
                .copied()
                .collect(),
            jobs: 0,
        })
        .collect();
    let mut conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| Conn::open(&server.socket))
        .collect::<io::Result<_>>()
        .map_err(|e| format!("connect: {e}"))?;

    let rec = Recorder::new();
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut checks = Checks::default();
    let mut walls: Vec<f64> = Vec::new();
    let mut raw_walls: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    // Per untraced pass; reported as medians so a slow stretch of the host
    // moves one pass, not the run's figure.
    let mut req_rates: Vec<f64> = Vec::new();
    let mut mips: Vec<f64> = Vec::new();
    let mut pass_no = 0usize;
    loop {
        // The traced run alternates untraced and traced passes so the
        // tracing overhead is measured on the same server and store.
        let traced = args.trace && pass_no % 2 == 1;
        let rec_ref = traced.then_some(&rec);
        let timed = host.time(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .zip(clients.iter_mut())
                    .enumerate()
                    .map(|(cid, (conn, client))| {
                        let expected = &expected;
                        let pool = &pool;
                        s.spawn(move || client_pass(conn, client, expected, pool, rec_ref, cid))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
            })
        });
        let (outputs, wall) = (timed.value, timed.s);
        let factor = timed.raw_s / timed.s;
        if traced {
            traced_walls.push(timed.raw_s);
        } else {
            walls.push(wall);
            raw_walls.push(timed.raw_s);
            let requests: usize = outputs.iter().map(|(s, _)| s.len()).sum();
            let insts: u64 = outputs.iter().flat_map(|(s, _)| s).map(|s| s.instructions).sum();
            req_rates.push(requests as f64 / wall);
            mips.push(insts as f64 / wall / 1e6);
        }
        for (s, c) in outputs {
            samples.extend(s.into_iter().map(|x| Sample { ms: x.ms / factor, ..x }));
            checks.attempted += c.attempted;
            checks.failed += c.failed;
            checks.errors += c.errors;
        }
        pass_no += 1;
        let min_passes = if args.trace { 2 } else { 1 };
        if pass_no >= min_passes && start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }
    drop(conns);

    let ms = |pred: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| pred(s)).map(|s| s.ms).collect()
    };
    // Per-layer latencies stay raw, as the store probes they are set
    // against are.
    let raw_ms = |pred: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| pred(s)).map(|s| s.raw_ms).collect()
    };
    let all = ms(&|_| true);
    let hits = raw_ms(&|s| s.op == Op::Run && s.all_hits);
    let pings = raw_ms(&|s| s.op == Op::Ping);
    let runs = samples.iter().filter(|s| s.op == Op::Run).count();
    out.label(
        "requests",
        format!(
            "{} over {} passes ({} run, {} all-hit, {} ping)",
            all.len(),
            pass_no,
            runs,
            hits.len(),
            pings.len()
        ),
    );
    out.set("wall_s", median(&walls));
    out.set("sim_mips", median(&mips));
    out.set("req_p50_ms", percentile(&all, 50.0));
    out.set("req_p99_ms", percentile(&all, tail_percentile(all.len())));
    out.set("req_per_s", median(&req_rates));
    out.set("peak_rss_mb", peak_rss_mb(Some(server.pid())));
    out.label("raw_wall_s", median(&raw_walls).to_string());
    out.label("calibration", host.describe());

    let after = stats(&server)?;
    if args.trace {
        let hit_p50 = percentile(&hits, 50.0);
        out.set("hit_req_p50_ms", hit_p50);
        out.set("service.ping_ms", percentile(&pings, 50.0));
        let mut connect = Vec::new();
        for _ in 0..CONNECT_PROBES {
            let span = rec.open("service.connect", None, None);
            let t = Instant::now();
            let ok = Conn::open(&server.socket).and_then(|mut c| c.request("{\"op\":\"ping\"}"));
            connect.push(ms_since(t));
            rec.close(span);
            checks.attempted += 1;
            if ok.is_err() {
                checks.failed += 1;
                checks.errors += 1;
            }
        }
        out.set("service.connect_ms", median(&connect));
        let (get, put, bytes) = store_probes(&server.store, &root.join("probe-store"), &rec)?;
        let get_p50 = percentile(&get, 50.0);
        out.set("store.get_p50_ms", get_p50);
        out.set("store.get_p99_ms", percentile(&get, tail_percentile(get.len())));
        out.set("store.put_p50_ms", percentile(&put, 50.0));
        out.set("store.put_p99_ms", percentile(&put, tail_percentile(put.len())));
        out.label("store_probes", format!("{} gets, {} puts, {bytes} bytes", get.len(), put.len()));
        out.set("service.overhead_ms", hit_p50 - get_p50);
        out.set("service.errors", checks.errors as f64);
        for (metric, key) in [
            ("store.hits", "store_hits"),
            ("store.misses", "store_misses"),
            ("store.bytes_written", "bytes_written"),
            ("engine.executed", "executed"),
            ("engine.dedup_hits", "dedup_hits"),
        ] {
            out.set(metric, counter(&after, key) - counter(&before, key));
        }
        out.set("trace.untraced_wall_s", median(&raw_walls));
        out.set("trace.traced_wall_s", median(&traced_walls));
        out.set("trace.overhead_s", median(&traced_walls) - median(&raw_walls));
        out.set("trace.spans", rec.len() as f64);
        out.write_trace(&rec, args);
    }
    out.label(
        "store",
        format!(
            "{} hits, {} misses, {} bytes written while measuring",
            counter(&after, "store_hits") - counter(&before, "store_hits"),
            counter(&after, "store_misses") - counter(&before, "store_misses"),
            counter(&after, "bytes_written") - counter(&before, "bytes_written")
        ),
    );
    server.stop()?;
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    Ok(out)
}

/// Times `Store::get` on entries the server wrote and `Store::put` of the
/// same results into a scratch store. Returns get and put latencies (ms)
/// and the bytes put.
fn store_probes(
    live: &Path,
    scratch: &Path,
    rec: &Recorder,
) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    let store = Store::open(live).map_err(|e| format!("{}: {e}", live.display()))?;
    let sink = Store::open(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut entries = Vec::new();
    let mut shards: Vec<PathBuf> = std::fs::read_dir(live)
        .map_err(|e| format!("{}: {e}", live.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    shards.sort();
    'outer: for shard in shards {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&shard)
            .map_err(|e| format!("{}: {e}", shard.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let env = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
            let hex = |k: &str| env.get(k).and_then(Json::as_str).map(str::to_string);
            if let (Some(id), Some(identity)) = (hex("job_id"), hex("identity")) {
                let id = u128::from_str_radix(&id, 16).map_err(|e| format!("job id: {e}"))?;
                let bytes: Vec<u8> = (0..identity.len() / 2)
                    .filter_map(|i| u8::from_str_radix(&identity[2 * i..2 * i + 2], 16).ok())
                    .collect();
                entries.push((JobId::from_u128(id), bytes));
            }
            if entries.len() == STORE_PROBES {
                break 'outer;
            }
        }
    }
    let (mut get, mut put, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for (id, identity) in &entries {
        let span = rec.open("core.store.get", None, None);
        let t = Instant::now();
        let hit = store.get(*id, identity);
        get.push(ms_since(t));
        rec.close(span);
        let result = hit.ok_or_else(|| format!("store entry {id} did not read back"))?;
        let span = rec.open("core.store.put", None, None);
        let t = Instant::now();
        bytes += sink.put(*id, identity, &result, 1.0).map_err(|e| format!("put: {e}"))?;
        put.push(ms_since(t));
        rec.close(span);
    }
    Ok((get, put, bytes))
}
