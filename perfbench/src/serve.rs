//! `serve-hot` and `serve-miss`: `hg serve` driven from outside.
//!
//! The benchmark launches the `hg serve` binary as a child with
//! `--threads 2` and drives it closed-loop over keep-alive connections,
//! one per client thread (two for serve-hot, one for serve-miss): each
//! client sends its next request only after the previous answer
//! arrived, as an analysis script or a dashboard does. Every answer is
//! checked against the in-process `Query::run` answer for the same
//! dataset.
//!
//! The traced run replays the first requests of the same stream
//! in-process: `server::route` on the state of an in-process server,
//! and, separately, the calls `route` makes into the cache, the query
//! kernels and the registry, each timed as a span.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hgserve::http::{parse_request_bytes, ParseOutcome};
use hgserve::{Format, Query, Registry, ServerConfig, ShardedLru};
use hypergraph::Hypergraph;

use crate::spans::{timed, SpanId, Tracer};
use crate::{fnv1a, median, quantile, sys, Outcome, Rng, RunConfig, Workload};

/// `hg serve` start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 30;
/// Worker threads of the server under test.
const SERVER_THREADS: usize = 2;
/// Closed-loop clients of serve-hot and of every traced client phase,
/// one keep-alive connection each.
const CLIENTS: usize = 2;
/// Requests of client 0's stream the traced run replays in-process:
/// 48 of serve-miss's write intervals, so every replay pass re-uploads
/// and recomputes, and recomputes `diameter` several times.
const REPLAY_OPS: usize = 48 * MISS_WRITE_EVERY as usize;
/// Span budget of a traced run, to bound its memory.
const MAX_SPANS: usize = 120_000;

/// Vertices, hyperedges and hyperedge size of serve-miss's dataset:
/// above the 4096-vertex threshold where `hg serve` routes diameter and
/// k-core to the `parcore` kernels. Hyperedges of 10 put nearly every
/// vertex in one component, so a `distance` read costs about the same
/// for every pair.
const MISS_SHAPE: (usize, usize, usize) = (6_000, 1_500, 10);
/// Every `MISS_WRITE_EVERY`-th request of a serve-miss client is a
/// re-upload. The mix requests the maximum core often enough that
/// nearly every interval recomputes it once: 2% of reads, each a fixed
/// amount of kernel work (5-7 ms on a 2 vCPU Xeon guest), longer than
/// the scheduling delay the host adds to all but about 0.3% of reads, so
/// read p99 falls inside that group rather than on the delays.
/// `diameter` (about 45 ms) recomputes in one interval in seven.
const MISS_WRITE_EVERY: u64 = 50;
/// serve-miss's cache budget, below its distinct-answer working set.
const MISS_CACHE_MB: usize = 1;

/// How a read request is drawn.
#[derive(Clone, Debug)]
enum Draw {
    Fixed(Query),
    /// `kcore?k=` with `k` uniform in `1..=max`.
    KCoreUpTo(u32),
    /// A pair from a fixed pool.
    PairFrom(Vec<(u32, u32)>),
    /// A uniform random pair of vertex ids in `1..=n`.
    AnyPair(u32),
}

/// One client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Op {
    Read(Query),
    /// `POST /datasets` re-uploading the dataset's text.
    Write,
}

/// A serve workload: its dataset, the server's cache budget and the
/// request mix.
struct Spec {
    /// Dataset name; the preloaded file's stem.
    name: String,
    /// The file `hg serve --preload` loads.
    file: PathBuf,
    /// The same dataset in-process, for expected answers.
    h: Hypergraph,
    /// `.hgr` text the writes upload, when the workload writes.
    upload: Option<String>,
    cache_mb: usize,
    write_every: u64,
    /// Closed-loop clients of an untraced run.
    clients: usize,
    mix: Vec<(u32, Draw)>,
}

impl Spec {
    /// Generate the workload's inputs for `seed` under `dir`.
    fn new(workload: Workload, seed: u64, dir: &Path) -> Result<Spec, String> {
        let mut rng = Rng::derive(seed, 0xda7a);
        match workload {
            Workload::ServeHot => {
                let src = concat!(env!("CARGO_MANIFEST_DIR"), "/../data/cellzome-2004.hgr");
                let text =
                    std::fs::read_to_string(src).map_err(|e| format!("cannot read {src}: {e}"))?;
                let file = dir.join("cellzome-2004.hgr");
                std::fs::write(&file, &text)
                    .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                let h = hypergraph::io::read_hgr(&text).map_err(|e| e.to_string())?;
                let n = h.num_vertices() as u64;
                let pairs = (0..16)
                    .map(|_| (1 + rng.below(n) as u32, 1 + rng.below(n) as u32))
                    .collect();
                Ok(Spec {
                    name: "cellzome-2004".to_string(),
                    file,
                    h,
                    upload: None,
                    cache_mb: 64,
                    write_every: 0,
                    clients: CLIENTS,
                    mix: vec![
                        (3, Draw::Fixed(Query::Stats)),
                        (2, Draw::Fixed(Query::Degrees)),
                        (2, Draw::Fixed(Query::Components)),
                        (3, Draw::KCoreUpTo(6)),
                        (4, Draw::PairFrom(pairs)),
                        (1, Draw::Fixed(Query::Diameter)),
                        (2, Draw::Fixed(Query::PowerLaw)),
                        (1, Draw::Fixed(Query::Cover)),
                    ],
                })
            }
            Workload::ServeMiss => {
                let (n, m, k) = MISS_SHAPE;
                let h = hypergen::uniform_random_hypergraph(n, m, k, rng.next_u64());
                let file = dir.join("uniform.hgb");
                hypergraph::write_hgb_file(&h, None, &file)
                    .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                Ok(Spec {
                    name: "uniform".to_string(),
                    file,
                    upload: Some(hypergraph::io::write_hgr(&h)),
                    h,
                    cache_mb: MISS_CACHE_MB,
                    write_every: MISS_WRITE_EVERY,
                    // One client: with two, the reads of one that overlap
                    // the other's 45 ms diameter contend for the host's two
                    // vCPUs, and read p99 measures that interleaving (4%
                    // of `distance` reads above 5 ms, against 0.3% with
                    // one client).
                    clients: 1,
                    // Of the client-observed time, `distance` takes about
                    // a third, `kcore?k=` a fifth, and the maximum core
                    // and `diameter` a sixth each.
                    mix: vec![
                        (550, Draw::AnyPair(n as u32)),
                        (200, Draw::KCoreUpTo(6)),
                        (3, Draw::Fixed(Query::Diameter)),
                        (100, Draw::Fixed(Query::KCore { k: None })),
                        (45, Draw::Fixed(Query::Cover)),
                        (45, Draw::Fixed(Query::Components)),
                        (45, Draw::Fixed(Query::Stats)),
                    ],
                })
            }
            Workload::BatchPaper => Err("batch-paper is not a serve workload".to_string()),
        }
    }

    /// Client `client`'s request stream for `seed`.
    fn stream(&self, seed: u64, client: u64) -> OpStream<'_> {
        OpStream {
            spec: self,
            rng: Rng::derive(seed, 0xc11e_0000 + client),
            issued: 0,
        }
    }

    /// The HTTP bytes of `op`.
    fn request_bytes(&self, op: &Op) -> Vec<u8> {
        match op {
            Op::Read(q) => format!(
                "GET /v1/{}/{} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
                self.name,
                q.canonical()
            )
            .into_bytes(),
            Op::Write => {
                let body = self.upload.as_deref().unwrap_or_default();
                let mut b = format!(
                    "POST /datasets?name={}&format=hgr HTTP/1.1\r\nHost: perfbench\r\n\
                     Content-Length: {}\r\n\r\n",
                    self.name,
                    body.len()
                )
                .into_bytes();
                b.extend_from_slice(body.as_bytes());
                b
            }
        }
    }

    /// The exact body a successful re-upload answers, but for its epoch.
    fn write_answer(&self, epoch: u64) -> String {
        format!(
            "{{\"name\":\"{}\",\"epoch\":{epoch},\"vertices\":{},\"hyperedges\":{},\"pins\":{}}}\n",
            self.name,
            self.h.num_vertices(),
            self.h.num_edges(),
            self.h.num_pins()
        )
    }

    /// Every distinct read of a finite pool (serve-hot's warm-up).
    fn finite_reads(&self) -> Vec<Query> {
        let mut out = Vec::new();
        for (_, d) in &self.mix {
            match d {
                Draw::Fixed(q) => out.push(q.clone()),
                Draw::KCoreUpTo(max) => out.extend((1..=*max).map(|k| Query::KCore { k: Some(k) })),
                Draw::PairFrom(pairs) => {
                    out.extend(pairs.iter().map(|&(from, to)| Query::Distance { from, to }))
                }
                Draw::AnyPair(_) => {}
            }
        }
        out
    }
}

/// A seeded, endless request stream.
struct OpStream<'a> {
    spec: &'a Spec,
    rng: Rng,
    issued: u64,
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.issued += 1;
        if self.spec.write_every > 0 && self.issued % self.spec.write_every == 0 {
            return Some(Op::Write);
        }
        let total: u32 = self.spec.mix.iter().map(|(w, _)| w).sum();
        let mut pick = self.rng.below(total as u64) as u32;
        let draw = self
            .spec
            .mix
            .iter()
            .find(|(w, _)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map(|(_, d)| d)
            .expect("pick < total weight");
        let rng = &mut self.rng;
        let mut id = |n: u32| 1 + rng.below(n as u64) as u32;
        Some(Op::Read(match draw {
            Draw::Fixed(q) => q.clone(),
            Draw::KCoreUpTo(max) => Query::KCore { k: Some(id(*max)) },
            Draw::PairFrom(pairs) => {
                let (from, to) = pairs[id(pairs.len() as u32) as usize - 1];
                Query::Distance { from, to }
            }
            Draw::AnyPair(n) => Query::Distance {
                from: id(*n),
                to: id(*n),
            },
        }))
    }
}

/// A blocking HTTP/1.1 keep-alive connection.
struct Conn {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            line: String::new(),
        })
    }

    /// Send one request and read its answer: `(status, body)`.
    fn call(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.reader.get_mut().write_all(request)?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the head"));
            }
            let l = self.line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    fn get(&mut self, path: &str) -> Result<(u16, Vec<u8>), String> {
        self.call(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
            .map_err(|e| format!("GET {path}: {e}"))
    }
}

/// The `hg serve` child process.
pub struct Server {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Launch `hg serve` on `spec` and wait until it prints its address,
    /// which it does once the dataset is loaded and the socket bound.
    fn spawn(hg: &Path, spec: &Spec) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(hg)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(SERVER_THREADS.to_string())
            .arg("--cache-mb")
            .arg(spec.cache_mb.to_string())
            .arg("--preload")
            .arg(&spec.file)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", hg.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let status = child.wait();
                return Err(format!(
                    "hg serve exited before printing ADDR= ({status:?})"
                ));
            }
            if let Some(a) = line.trim().strip_prefix("ADDR=") {
                break a.to_string();
            }
        };
        let took = started.elapsed();
        Ok((
            Server {
                child,
                _stdout: stdout,
                addr,
            },
            took,
        ))
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        sys::peak_rss_mb(Some(self.child.id()))
    }

    /// Graceful drain through `POST /admin/shutdown`, then reap.
    fn shutdown(mut self) -> Result<(), String> {
        let mut c = Conn::connect(&self.addr)?;
        c.call(b"POST /admin/shutdown HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n")
            .map_err(|e| format!("shutdown request: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("hg serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One answered (or failed) operation.
struct Record {
    op: Op,
    /// 0 when the transport failed.
    status: u16,
    body_hash: u64,
    /// Parsed from a re-upload's answer when it has the expected shape.
    epoch: Option<u64>,
    latency_ns: u64,
    /// Completion time since the clients started.
    done_ns: u64,
}

/// Length of the slices a serve window is cut into (see
/// [`slice_medians`]).
const SLICE: Duration = Duration::from_secs(1);

/// Drive the server at `addr` closed-loop from `clients` threads for
/// `window`, client `c` following `spec.stream(seed, salt + c)`; returns
/// each client's records in order.
fn drive(
    addr: &str,
    spec: &Spec,
    clients: usize,
    seed: u64,
    salt: u64,
    window: Duration,
) -> Result<Vec<Vec<Record>>, String> {
    let barrier = Barrier::new(clients);
    let origin = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let conn = Conn::connect(addr);
                    barrier.wait();
                    let mut conn = conn?;
                    let mut records = Vec::new();
                    let start = Instant::now();
                    for op in spec.stream(seed, salt + c) {
                        if start.elapsed() >= window {
                            break;
                        }
                        let bytes = spec.request_bytes(&op);
                        let t0 = Instant::now();
                        let answer = conn.call(&bytes);
                        let latency_ns = t0.elapsed().as_nanos() as u64;
                        let failed = answer.is_err();
                        let (status, body) = answer.unwrap_or((0, Vec::new()));
                        let epoch = (op == Op::Write && status == 201)
                            .then(|| parse_epoch(spec, &body))
                            .flatten();
                        records.push(Record {
                            op,
                            status,
                            body_hash: fnv1a(&body),
                            epoch,
                            latency_ns,
                            done_ns: origin.elapsed().as_nanos() as u64,
                        });
                        if failed {
                            break;
                        }
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn parse_epoch(spec: &Spec, body: &[u8]) -> Option<u64> {
    let body = std::str::from_utf8(body).ok()?;
    let rest = body.split("\"epoch\":").nth(1)?;
    let epoch: u64 = rest.split(',').next()?.parse().ok()?;
    (body == spec.write_answer(epoch)).then_some(epoch)
}

/// Expected answers, computed in-process with `Query::run` on demand.
struct Expected<'a> {
    h: &'a Hypergraph,
    memo: HashMap<String, u64>,
    /// The self-test corrupts the expected answer of this query.
    corrupt: Option<String>,
}

impl<'a> Expected<'a> {
    fn new(spec: &'a Spec, corrupt: Option<&Query>) -> Expected<'a> {
        Expected {
            h: &spec.h,
            memo: HashMap::new(),
            corrupt: corrupt.map(Query::canonical),
        }
    }

    fn body_hash(&mut self, q: &Query) -> Result<u64, String> {
        let key = q.canonical();
        if let Some(&h) = self.memo.get(&key) {
            return Ok(h);
        }
        let mut body = q
            .run(self.h)
            .map_err(|e| format!("expected answer for {key} failed: {}", e.message))?;
        if self.corrupt.as_deref() == Some(key.as_str()) {
            body.push(' ');
        }
        let h = fnv1a(body.as_bytes());
        self.memo.insert(key, h);
        Ok(h)
    }
}

/// Check every record; returns which were correct.
fn verify(
    records: &[Record],
    expected: &mut Expected,
    out: &mut Outcome,
) -> Result<Vec<bool>, String> {
    let mut epochs = HashSet::new();
    let mut correct = Vec::with_capacity(records.len());
    for r in records {
        out.attempted += 1;
        let ok = match &r.op {
            Op::Read(q) => r.status == 200 && r.body_hash == expected.body_hash(q)?,
            Op::Write => r.status == 201 && r.epoch.is_some_and(|e| epochs.insert(e)),
        };
        if !ok {
            out.fail(format!(
                "{:?} answered {} with an unexpected body",
                r.op, r.status
            ));
        }
        correct.push(ok);
    }
    Ok(correct)
}

/// Untimed warm-up: every finite-pool answer once, then a short
/// closed-loop run on streams the measurement does not use.
fn warm_up(server: &Server, spec: &Spec, seed: u64, seconds: f64) -> Result<(), String> {
    let mut c = Conn::connect(&server.addr)?;
    for q in spec.finite_reads() {
        c.get(&format!("/v1/{}/{}", spec.name, q.canonical()))?;
    }
    drive(
        &server.addr,
        spec,
        spec.clients,
        seed,
        0x3a3a,
        Duration::from_secs_f64((seconds * 0.1).min(1.0)),
    )?;
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let spec = Spec::new(cfg.workload, cfg.seed, &cfg.work_dir)?;
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s)?;
            std::thread::sleep(crate::SETUP_GAP);
        }
        let (s, took) = Server::spawn(&cfg.hg, &spec)?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("SETUP_REPS > 0");
    warm_up(&server, &spec, cfg.seed, cfg.seconds)?;
    let corrupt = cfg.corrupt_expected.then(|| first_read(&spec, cfg.seed));

    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &spec, server, corrupt.as_ref(), &mut out)?;
        return Ok(out);
    }
    let window = Duration::from_secs_f64(cfg.seconds);
    let records: Vec<Record> = drive(&server.addr, &spec, spec.clients, cfg.seed, 0, window)?
        .into_iter()
        .flatten()
        .collect();
    let peak_rss = server.peak_rss_mb()?;
    server.shutdown()?;
    let correct = verify(
        &records,
        &mut Expected::new(&spec, corrupt.as_ref()),
        &mut out,
    )?;

    let good = correct.iter().filter(|&&ok| ok).count() as u64;
    let n = records.iter().filter(|r| r.op != Op::Write).count() as u64;
    let (rps, p50, p99) = slice_medians(&records, &correct, window);
    out.set("setup_s", median(&mut setups), SETUP_REPS as u64);
    out.set("throughput_rps", rps, good);
    out.set("p50_us", p50, n);
    out.set("p99_us", p99, n);
    out.set("peak_rss_mb", peak_rss, 1);
    let writes = latencies_us(&records, |op| op == &Op::Write);
    if !writes.is_empty() {
        out.notes.push(format!(
            "write_p50_us {:.1} us ({} samples)",
            quantile(&writes, 0.5),
            writes.len()
        ));
    }
    Ok(out)
}

/// Cut `window` into [`SLICE`]s by completion time and return the median
/// over the slices of each slice's correct responses per second, read
/// p50 and read p99, in microseconds. Like batch-paper's median pass,
/// this keeps every sample but lets a burst of interference from other
/// guests of the host move only the slices it falls in.
fn slice_medians(records: &[Record], correct: &[bool], window: Duration) -> (f64, f64, f64) {
    let slices = ((window.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
    let slice_ns = SLICE.as_nanos() as u64;
    let mut per_slice: Vec<(u64, Vec<f64>)> = vec![(0, Vec::new()); slices];
    for (r, &ok) in records.iter().zip(correct) {
        let (good, reads) = &mut per_slice[((r.done_ns / slice_ns) as usize).min(slices - 1)];
        *good += u64::from(ok);
        if r.op != Op::Write {
            reads.push(r.latency_ns as f64 / 1e3);
        }
    }
    let (mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for (good, mut reads) in per_slice {
        rps.push(good as f64 / SLICE.as_secs_f64());
        if !reads.is_empty() {
            reads.sort_by(f64::total_cmp);
            p50.push(quantile(&reads, 0.5));
            p99.push(quantile(&reads, 0.99));
        }
    }
    (median(&mut rps), median(&mut p50), median(&mut p99))
}

/// The first read of client 0's measured stream: the answer the
/// self-test corrupts.
fn first_read(spec: &Spec, seed: u64) -> Query {
    spec.stream(seed, 0)
        .find_map(|op| match op {
            Op::Read(q) => Some(q),
            Op::Write => None,
        })
        .expect("every mix has reads")
}

/// Ascending latencies in microseconds of the records whose op passes
/// `keep`.
fn latencies_us(records: &[Record], keep: impl Fn(&Op) -> bool) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .filter(|r| keep(&r.op))
        .map(|r| r.latency_ns as f64 / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// `name value` pairs of a Prometheus text page, unlabelled series only.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = Conn::connect(addr)?.get("/metrics")?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect())
}

/// The traced run: a client phase against the real server, scraping
/// its counters around it, then an in-process replay timing each layer.
/// The client phase always runs [`CLIENTS`] clients, so that concurrent
/// identical misses (`cache.dup_computes`) can happen on every workload.
fn traced(
    cfg: &RunConfig,
    spec: &Spec,
    server: Server,
    corrupt: Option<&Query>,
    out: &mut Outcome,
) -> Result<(), String> {
    let half = Duration::from_secs_f64(cfg.seconds / 2.0);
    let before = scrape(&server.addr)?;
    let per_client = drive(&server.addr, spec, CLIENTS, cfg.seed, 0, half)?;
    let after = scrape(&server.addr)?;
    // The replay repeats client 0's first requests, so the client-observed
    // total it is accounted against comes from those same requests.
    let replayed = per_client[0].len().min(REPLAY_OPS);
    let replay_client_us = crate::mean(&latencies_us(&per_client[0][..replayed], |_| true));
    let records: Vec<Record> = per_client.into_iter().flatten().collect();
    server.shutdown()?;
    let mut expected = Expected::new(spec, corrupt);
    verify(&records, &mut expected, out)?;

    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    // Server-side latency: `route`'s per-endpoint histograms, minus the
    // scrapes themselves.
    let (mut sum, mut count) = (0.0, 0.0);
    for k in after.keys() {
        if let Some(series) = k.strip_prefix("hg_serve_latency_us_") {
            if series == "metrics_sum" || series == "metrics_count" {
                continue;
            }
            if series.ends_with("_sum") {
                sum += delta(k);
            } else if series.ends_with("_count") {
                count += delta(k);
            }
        }
    }
    let all = latencies_us(&records, |_| true);
    let ops = all.len() as u64;
    out.set(
        "server.outside_route_us",
        crate::mean(&all) - sum / count.max(1.0),
        ops,
    );
    let (hits, misses) = (delta("hgserve_cache_hits"), delta("hgserve_cache_misses"));
    out.set(
        "cache.hit_pct",
        100.0 * hits / (hits + misses).max(1.0),
        (hits + misses) as u64,
    );
    out.set("cache.evictions", delta("hgserve_cache_evictions"), ops);
    out.set(
        "cache.dup_computes",
        misses - delta("hgserve_cache_insertions"),
        misses as u64,
    );
    let writes = latencies_us(&records, |op| op == &Op::Write);
    out.set(
        "client.write_p50_us",
        if writes.is_empty() {
            0.0
        } else {
            quantile(&writes, 0.5)
        },
        writes.len() as u64,
    );

    let replay = replay(spec, cfg.seed, replayed, half, &mut expected, out)?;
    for (name, value) in &replay.counters {
        out.set(name, *value as f64, 1);
    }
    report_layers(out, &replay, replay_client_us, replayed as u64);
    out.set("hgobs.record_ns", hgobs_record_ns(), 1);
    replay.tracer.write_jsonl(&cfg.work_dir.join(format!(
        "spans-{}-{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    )))
}

/// What the in-process replay measured.
struct Replay {
    tracer: Tracer,
    /// Work counters of the first traced pass.
    counters: BTreeMap<&'static str, u64>,
    /// Operations in the traced passes.
    traced_ops: u64,
    /// Wall time of the traced and the untraced route passes.
    traced_s: f64,
    untraced_s: f64,
    untraced_ops: u64,
}

/// The work counters of one traced replay pass of `workload` on `seed`,
/// with the number of answers that did not match.
pub fn replay_counters(
    workload: Workload,
    seed: u64,
    dir: &Path,
) -> Result<(BTreeMap<&'static str, u64>, u64), String> {
    let spec = Spec::new(workload, seed, dir)?;
    let mut expected = Expected::new(&spec, None);
    let mut out = Outcome::default();
    let replay = replay(
        &spec,
        seed,
        REPLAY_OPS,
        Duration::ZERO,
        &mut expected,
        &mut out,
    )?;
    Ok((replay.counters, out.failed))
}

/// Replay the first `n_ops` requests of client 0's stream in-process
/// for about `budget`, alternating traced and untraced
/// passes. A traced pass times `parse_request_bytes`, `server::route`
/// and `Response::to_bytes` per request, then repeats the request's
/// cache, query and registry calls on a shadow cache and registry that
/// see the same call sequence as `route`'s, recording them as logical
/// children of that request's `route` span.
fn replay(
    spec: &Spec,
    seed: u64,
    n_ops: usize,
    budget: Duration,
    expected: &mut Expected,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let file = spec.file.to_str().ok_or("dataset path is not UTF-8")?;
    let registry = Arc::new(Registry::new());
    registry.load_file(file)?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: SERVER_THREADS,
        cache_bytes: spec.cache_mb << 20,
        ..ServerConfig::default()
    };
    let handle =
        hgserve::start(&config, registry).map_err(|e| format!("in-process server: {e}"))?;
    let state = Arc::clone(handle.state());
    let shadow_cache = ShardedLru::new(config.cache_bytes, state.cache.num_shards());
    let shadow_registry = Registry::new();
    shadow_registry.load_file(file)?;

    let ops: Vec<Op> = spec.stream(seed, 0).take(n_ops).collect();
    let bytes: Vec<Vec<u8>> = ops.iter().map(|op| spec.request_bytes(op)).collect();
    let mut tracer = Tracer::new();
    let mut result = Replay {
        tracer: Tracer::new(),
        counters: BTreeMap::new(),
        traced_ops: 0,
        traced_s: 0.0,
        untraced_s: 0.0,
        untraced_ops: 0,
    };
    // Warm pass, so the replay starts from a filled cache as the
    // measured client phase did.
    let mut answers = Vec::new();
    route_pass(spec, &state, &bytes, None, 0, &mut answers)?;
    shadow_pass(spec, &shadow_cache, &shadow_registry, &ops, None, 0, &[])?;

    let started = Instant::now();
    let mut pass = 0u64;
    while pass < 2 || (started.elapsed() < budget && tracer.len() + 8 * ops.len() < MAX_SPANS) {
        pass += 1;
        answers.clear();
        let traced = pass % 2 == 1;
        let before = (pass == 1).then(|| hgobs::snapshot_report().counters);
        let t0 = Instant::now();
        let route_ids = route_pass(
            spec,
            &state,
            &bytes,
            traced.then_some(&mut tracer),
            pass,
            &mut answers,
        )?;
        let took = t0.elapsed().as_secs_f64();
        if let Some(before) = before {
            result.counters = crate::counter_deltas(&before, &hgobs::snapshot_report().counters);
        }
        if traced {
            result.traced_s += took;
            result.traced_ops += ops.len() as u64;
            shadow_pass(
                spec,
                &shadow_cache,
                &shadow_registry,
                &ops,
                Some(&mut tracer),
                pass,
                &route_ids,
            )?;
        } else {
            result.untraced_s += took;
            result.untraced_ops += ops.len() as u64;
            shadow_pass(spec, &shadow_cache, &shadow_registry, &ops, None, 0, &[])?;
        }
        let records: Vec<Record> = ops
            .iter()
            .zip(&answers)
            .map(|(op, &(status, body_hash, epoch))| Record {
                op: op.clone(),
                status,
                body_hash,
                epoch,
                latency_ns: 0,
                done_ns: 0,
            })
            .collect();
        verify(&records, expected, out)?;
    }
    handle.shutdown();
    result.tracer = tracer;
    Ok(result)
}

/// Parse, route and serialize each request in turn. Pushes
/// `(status, body hash, epoch)` per request onto `answers` and returns
/// the `route` span ids when tracing.
fn route_pass(
    spec: &Spec,
    state: &hgserve::AppState,
    requests: &[Vec<u8>],
    mut tracer: Option<&mut Tracer>,
    pass: u64,
    answers: &mut Vec<(u16, u64, Option<u64>)>,
) -> Result<Vec<SpanId>, String> {
    let mut route_ids = Vec::new();
    for (i, bytes) in requests.iter().enumerate() {
        let request_id = pass * requests.len() as u64 + i as u64;
        let (_, parsed) = timed(&mut tracer, "http.parse", None, request_id, || {
            parse_request_bytes(bytes, usize::MAX)
        });
        let ParseOutcome::Complete(req, _) = parsed else {
            return Err(format!("replayed request {i} did not parse: {parsed:?}"));
        };
        let (route_id, resp) = timed(&mut tracer, "server.route", None, request_id, || {
            hgserve::server::route(state, &req)
        });
        route_ids.extend(route_id);
        let (_, (_, body)) = timed(&mut tracer, "http.serialize", None, request_id, || {
            resp.to_bytes(false)
        });
        let epoch = (req.method == "POST" && resp.status == 201)
            .then(|| parse_epoch(spec, &body))
            .flatten();
        answers.push((resp.status, fnv1a(&body), epoch));
    }
    Ok(route_ids)
}

/// Repeat what `route` does below its request parsing for each op:
/// cache lookup, and on a miss the query and the cache insert; for a
/// write, the registry insert (and, as its child, the `.hgr` parse it
/// performs). Spans are parented to `route_ids[i]` when tracing.
fn shadow_pass(
    spec: &Spec,
    cache: &ShardedLru,
    registry: &Registry,
    ops: &[Op],
    mut tracer: Option<&mut Tracer>,
    pass: u64,
    route_ids: &[SpanId],
) -> Result<(), String> {
    let par_threshold = ServerConfig::default().par_threshold;
    for (i, op) in ops.iter().enumerate() {
        let parent = route_ids.get(i).copied();
        let request_id = pass * ops.len() as u64 + i as u64;
        match op {
            Op::Read(q) => {
                let ds = registry.get(&spec.name).ok_or("shadow dataset missing")?;
                let key = format!("{}:{}", ds.cache_prefix(), q.canonical());
                let (_, hit) = timed(&mut tracer, "cache.get", parent, request_id, || {
                    cache.get(&key).is_some()
                });
                if hit {
                    continue;
                }
                let opts = hgserve::ExecOpts {
                    parallel: ds.hypergraph.num_vertices() >= par_threshold,
                    relabel: ds.relabeling.clone(),
                    ..hgserve::ExecOpts::default()
                };
                let (_, body) = timed(&mut tracer, query_span(q), parent, request_id, || {
                    q.run_opts(&ds.hypergraph, &opts)
                });
                let body = Arc::new(body.map_err(|e| e.message)?);
                timed(&mut tracer, "cache.insert", parent, request_id, || {
                    cache.insert(&key, Arc::clone(&body))
                });
            }
            Op::Write => {
                let text = spec.upload.as_deref().ok_or("write without upload text")?;
                let (insert, res) =
                    timed(&mut tracer, "registry.insert", parent, request_id, || {
                        registry.insert_text(&spec.name, Format::Hgr, text, "upload")
                    });
                res?;
                let (_, parsed) = timed(&mut tracer, "io.read_hgr", insert, request_id, || {
                    hypergraph::io::read_hgr(text)
                });
                parsed.map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

fn query_span(q: &Query) -> &'static str {
    match q {
        Query::Stats => "query.stats",
        Query::Degrees => "query.degrees",
        Query::Components => "query.components",
        Query::KCore { .. } => "query.kcore",
        Query::Distance { .. } => "query.distance",
        Query::Diameter => "query.diameter",
        Query::PowerLaw => "query.powerlaw",
        Query::Cover => "query.cover",
    }
}

/// Per-layer metrics from the replay's spans, and the accounting of the
/// client-observed mean against them.
fn report_layers(out: &mut Outcome, replay: &Replay, client_us: f64, client_ops: u64) {
    let totals = replay.tracer.layer_totals();
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    for (span, metric) in [
        ("http.parse", "http.parse_us"),
        ("http.serialize", "http.serialize_us"),
        ("server.route", "server.route_self_us"),
        ("cache.get", "cache.get_us"),
        ("cache.insert", "cache.insert_us"),
        ("query.stats", "query.stats_us"),
        ("query.components", "query.components_us"),
        ("query.kcore", "query.kcore_us"),
        ("query.distance", "query.distance_us"),
        ("query.diameter", "query.diameter_us"),
        ("query.cover", "query.cover_us"),
        ("registry.insert", "registry.insert_us"),
        ("io.read_hgr", "io.read_hgr_us"),
    ] {
        let t = layer(span);
        out.set(metric, t.mean_us(), t.calls);
    }
    let route = layer("server.route");
    out.set(
        "server.route_us",
        route.total_ns as f64 / route.calls.max(1) as f64 / 1e3,
        route.calls,
    );
    // Every span's self time, per replayed request: the layers' share
    // of one request. `client_us` is client 0's mean over the same
    // requests against the real server; the residual is the gap between
    // that external run and the in-process replay (network, event loop,
    // queueing, the other client's interference and cache state that
    // differs from the replay's), so it can be negative.
    let ops = replay.traced_ops.max(1) as f64;
    let layers_us = totals.values().map(|t| t.self_ns).sum::<i64>() as f64 / ops / 1e3;
    out.set("trace.client_us", client_us, client_ops);
    out.set("trace.layers_us", layers_us, replay.traced_ops);
    out.set(
        "trace.residual_us",
        client_us - layers_us,
        replay.traced_ops,
    );
    let traced = replay.traced_s / ops;
    let untraced = replay.untraced_s / replay.untraced_ops.max(1) as f64;
    out.set(
        "trace.overhead_pct",
        (traced / untraced - 1.0) * 100.0,
        replay.untraced_ops,
    );
}

/// Cost of one hgobs recording call with the server's metric names:
/// the `record_hist` and `add_counter` every request makes.
fn hgobs_record_ns() -> f64 {
    const CALLS: u64 = 200_000;
    hgobs::enable();
    let t0 = Instant::now();
    for i in 0..CALLS {
        hgobs::record_hist("serve.latency_us.stats", std::hint::black_box(i & 1023));
        hgobs::add_counter("serve.requests", std::hint::black_box(1));
    }
    t0.elapsed().as_nanos() as f64 / (2 * CALLS) as f64
}
