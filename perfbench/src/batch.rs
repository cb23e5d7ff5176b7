//! `batch-paper`: the paper's analysis pipeline called in-process.
//!
//! Two instances are generated from the seed and written to `.hgb`
//! during set-up:
//!
//! * `complexes` — a heavy-tailed, protein-complex-shaped Chung–Lu
//!   hypergraph 15× the size of Cellzome (power-law vertex
//!   weights, γ = 2.5), where the all-pairs distance sweep dominates;
//! * `matrix` — the row-net hypergraph of a Table-1-style tokamak
//!   matrix, whose deep cores make the overlap build and peeling
//!   dominate.
//!
//! One pass opens both files and runs components, degree histograms,
//! the power-law fit, the core decomposition, diameter/APL and the
//! greedy cover on each, on the engines `hg serve` would pick for the
//! instance's size. No HTTP and no cache are involved.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hypergraph::{HgbOpenOptions, HyperDistanceStats, Hypergraph, PowerLawFit, VertexId};

use crate::spans::{timed, SpanId, Tracer};
use crate::{median, quantile, sys, Outcome, Rng, RunConfig};

/// 15× Cellzome's 1361 proteins and 232 complexes.
const COMPLEX_VERTICES: usize = 20_400;
const COMPLEX_EDGES: usize = 3_480;
/// Rows of the tokamak-like matrix (Table 1's utm5940 has 5940).
const MATRIX_ROWS: usize = 5_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 30;
/// Fewest measured passes, however short `--seconds` is.
const MIN_PASSES: usize = 2;

/// `n` weights whose multiset is the truncated discrete power law
/// `P(d) ∝ d^(−gamma)` on `lo..=hi` taken at evenly spaced quantiles, in
/// an order shuffled by `rng`. Fixing the multiset keeps each instance's
/// size and degree tail alike across seeds; the seed still decides
/// which vertex or complex gets which weight and every membership.
fn power_law_weights(n: usize, gamma: f64, lo: u32, hi: u32, rng: &mut Rng) -> Vec<f64> {
    let mut cdf = Vec::with_capacity((hi - lo + 1) as usize);
    let mut acc = 0.0f64;
    for d in lo..=hi {
        acc += (d as f64).powf(-gamma);
        cdf.push(acc);
    }
    let mut w: Vec<f64> = (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64 * acc;
            let idx = cdf.partition_point(|&c| c < u).min((hi - lo) as usize);
            f64::from(lo + idx as u32)
        })
        .collect();
    for i in (1..n).rev() {
        w.swap(i, rng.below(i as u64 + 1) as usize);
    }
    w
}

/// The two instances for `seed`, by name.
fn instances(seed: u64) -> Vec<(&'static str, Hypergraph)> {
    let mut rng = Rng::derive(seed, 0xba7c);
    let vertex_w = power_law_weights(COMPLEX_VERTICES, 2.5, 1, 64, &mut rng);
    let complex_sizes = power_law_weights(COMPLEX_EDGES, 2.0, 3, 90, &mut rng);
    let complexes = hypergen::chung_lu_hypergraph(&vertex_w, &complex_sizes, rng.next_u64());
    let matrix = matrixmarket::row_net(&matrixmarket::tokamak_like(
        MATRIX_ROWS,
        6.0,
        rng.next_u64(),
    ));
    vec![("complexes", complexes), ("matrix", matrix)]
}

/// Write the generated instances as `.hgb` and open each once; the
/// returned time covers only the writes and opens.
fn set_up(
    instances: &[(&'static str, Hypergraph)],
    dir: &Path,
) -> Result<(Vec<PathBuf>, Duration), String> {
    let started = Instant::now();
    let mut paths = Vec::new();
    for (name, h) in instances {
        let path = dir.join(format!("{name}.hgb"));
        hypergraph::write_hgb_file(h, None, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        open(&path)?;
        paths.push(path);
    }
    Ok((paths, started.elapsed()))
}

fn open(path: &Path) -> Result<Hypergraph, String> {
    hypergraph::open_hgb(path, HgbOpenOptions::default())
        .map(|ds| ds.hypergraph)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Would `hg serve` route this instance to the `parcore` kernels?
fn parallel(h: &Hypergraph) -> bool {
    h.num_vertices() >= hgserve::ServerConfig::default().par_threshold
}

/// Everything one pass computes on one instance.
#[derive(Clone, PartialEq)]
struct InstanceResult {
    components: usize,
    vertex_hist: Vec<usize>,
    edge_hist: Vec<usize>,
    powerlaw: Option<PowerLawFit>,
    max_core: Option<(u32, Vec<VertexId>, Vec<Vec<VertexId>>)>,
    distance: HyperDistanceStats,
    cover: Vec<VertexId>,
}

/// CPU time over wall time inside the `parcore` calls.
#[derive(Default)]
struct CpuWall {
    cpu: Duration,
    wall: Duration,
}

impl CpuWall {
    fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (c0, w0) = (sys::cpu_time(), Instant::now());
        let r = f();
        self.wall += w0.elapsed();
        self.cpu += sys::cpu_time().saturating_sub(c0);
        r
    }
}

fn run_instance(
    path: &Path,
    tracer: &mut Option<&mut Tracer>,
    parent: Option<SpanId>,
    pass: u64,
    cpu: &mut CpuWall,
) -> Result<InstanceResult, String> {
    let h = timed(tracer, "storage.open", parent, pass, || open(path)).1?;
    let par = parallel(&h);
    let (_, components) = timed(tracer, "components", parent, pass, || {
        hypergraph::hypergraph_components(&h).count()
    });
    let (_, (vertex_hist, edge_hist)) = timed(tracer, "degree", parent, pass, || {
        (
            hypergraph::vertex_degree_histogram(&h),
            hypergraph::edge_degree_histogram(&h),
        )
    });
    let (_, powerlaw) = timed(tracer, "powerlaw", parent, pass, || {
        hypergraph::fit_power_law(&vertex_hist)
    });
    let (_, decomposition) = timed(tracer, "decompose", parent, pass, || {
        if par {
            cpu.measure(|| parcore::par_decompose(&h))
        } else {
            hypergraph::decompose(&h)
        }
    });
    let (_, distance) = timed(tracer, "msbfs", parent, pass, || {
        if par {
            cpu.measure(|| parcore::par_msbfs_distance_stats(&h))
        } else {
            hypergraph::msbfs_distance_stats(&h)
        }
    });
    let cover = timed(tracer, "cover", parent, pass, || {
        hypergraph::greedy_vertex_cover(&h, |_| 1.0)
    })
    .1
    .map_err(|e| format!("{}: cover failed: {e}", path.display()))?;
    Ok(InstanceResult {
        components,
        vertex_hist,
        edge_hist,
        powerlaw,
        max_core: decomposition.max_core.map(|c| {
            let edges = core_edges(&c.sub);
            (c.k, c.vertices, edges)
        }),
        distance,
        cover: cover.vertices,
    })
}

/// A core's hyperedges as a sorted list of sorted pin lists. Engines
/// may keep different copies of hyperedges that coincide inside the
/// core, so cores are compared by content, not by hyperedge id.
fn core_edges(sub: &Hypergraph) -> Vec<Vec<VertexId>> {
    let mut edges: Vec<Vec<VertexId>> = sub
        .edges()
        .map(|f| {
            let mut pins = sub.pins(f).to_vec();
            pins.sort_unstable();
            pins
        })
        .collect();
    edges.sort_unstable();
    edges
}

/// One pass of the pipeline over every instance.
fn run_pass(
    paths: &[PathBuf],
    tracer: Option<&mut Tracer>,
    pass: u64,
    cpu: &mut CpuWall,
) -> Result<Vec<InstanceResult>, String> {
    match tracer {
        Some(t) => {
            t.span("pass", None, pass, |t, root| {
                let mut tracer = Some(t);
                paths
                    .iter()
                    .map(|p| run_instance(p, &mut tracer, Some(root), pass, cpu))
                    .collect()
            })
            .1
        }
        None => paths
            .iter()
            .map(|p| run_instance(p, &mut None, None, pass, cpu))
            .collect(),
    }
}

/// Check `reference` against the serial oracles: `msbfs` for the
/// distance statistics, per-k `csr_kcore` for the maximum core, and
/// `is_vertex_cover` for the cover. Returns the number of checks made.
fn cross_check(
    paths: &[PathBuf],
    reference: &[InstanceResult],
    corrupt: bool,
    tracer: &mut Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<u64, String> {
    let mut checks = 0;
    for (i, (path, r)) in paths.iter().zip(reference).enumerate() {
        let h = open(path)?;
        let name = path.display();
        let (_, mut serial) = timed(tracer, "msbfs_serial", None, 0, || {
            hypergraph::msbfs_distance_stats(&h)
        });
        if corrupt && i == 0 {
            serial.diameter += 1;
        }
        checks += 3;
        if serial != r.distance {
            out.fail(format!(
                "{name}: pipeline distance stats {:?} differ from serial msbfs {:?}",
                r.distance, serial
            ));
        }
        let core_ok = match &r.max_core {
            Some((k, vertices, edges)) => {
                let c = hypergraph::csr_kcore(&h, *k);
                c.vertices == *vertices
                    && core_edges(&c.sub) == *edges
                    && hypergraph::csr_kcore(&h, k + 1).is_empty()
            }
            None => hypergraph::csr_kcore(&h, 1).is_empty(),
        };
        if !core_ok {
            out.fail(format!("{name}: maximum core differs from per-k csr_kcore"));
        }
        if !hypergraph::is_vertex_cover(&h, &r.cover) {
            out.fail(format!("{name}: greedy cover misses a hyperedge"));
        }
    }
    Ok(checks)
}

/// The work counters of one pipeline pass on `seed`'s instances.
pub fn pass_counters(seed: u64, dir: &Path) -> Result<BTreeMap<&'static str, u64>, String> {
    let (paths, _) = set_up(&instances(seed), dir)?;
    hgobs::enable();
    let before = hgobs::snapshot_report().counters;
    run_pass(&paths, None, 1, &mut CpuWall::default())?;
    let deltas = crate::counter_deltas(&before, &hgobs::snapshot_report().counters);
    hgobs::disable();
    Ok(deltas)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut paths: Vec<PathBuf> = Vec::new();
    let generated = instances(cfg.seed);
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            for p in &paths {
                std::fs::remove_file(p).map_err(|e| format!("{}: {e}", p.display()))?;
            }
            std::thread::sleep(crate::SETUP_GAP);
        }
        let (p, took) = set_up(&generated, &cfg.work_dir)?;
        setups.push(took.as_secs_f64());
        paths = p;
    }
    drop(generated);
    let mut cpu = CpuWall::default();
    // Untimed warm-up pass: faults the mapped pages in and fills the
    // kernels' scratch arenas; its results are the reference.
    let reference = run_pass(&paths, None, 0, &mut cpu)?;
    sys::reset_peak_rss()?;

    let mut tracer = Tracer::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut counters = None;
    let window = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut pass = 0u64;
    while started.elapsed() < window || (pass as usize) < MIN_PASSES {
        pass += 1;
        // A traced run alternates traced and untraced passes, so the
        // difference between them is the tracing overhead.
        let traced = cfg.trace && pass % 2 == 1;
        if cfg.trace {
            if traced {
                hgobs::enable();
            } else {
                hgobs::disable();
            }
        }
        let before = traced.then(|| hgobs::snapshot_report().counters);
        let t0 = Instant::now();
        let results = run_pass(&paths, traced.then_some(&mut tracer), pass, &mut cpu)?;
        let took = t0.elapsed().as_secs_f64();
        if let (Some(before), None) = (before, &counters) {
            counters = Some(crate::counter_deltas(
                &before,
                &hgobs::snapshot_report().counters,
            ));
        }
        if traced {
            &mut traced_s
        } else {
            &mut untraced_s
        }
        .push(took);
        if results != reference {
            out.fail(format!("pass {pass}: results differ from the warm-up pass"));
        }
    }
    let peak_rss = sys::peak_rss_mb(None)?;
    hgobs::disable();
    out.attempted = pass;

    let checks = cross_check(
        &paths,
        &reference,
        cfg.corrupt_expected,
        &mut cfg.trace.then_some(&mut tracer),
        &mut out,
    )?;
    out.attempted += checks;

    if cfg.trace {
        report_layers(&mut out, &tracer, &traced_s, &untraced_s, &cpu);
        for (name, value) in counters.unwrap_or_default() {
            out.set(name, value as f64, 1);
        }
        tracer.write_jsonl(
            &cfg.work_dir
                .join(format!("spans-batch-paper-{}.jsonl", cfg.seed)),
        )?;
    } else {
        let n = untraced_s.len() as u64;
        let p50 = median(&mut untraced_s);
        out.set("setup_s", median(&mut setups), SETUP_REPS as u64);
        out.set("throughput_rps", 1.0 / p50, n);
        out.set("p50_us", p50 * 1e6, n);
        out.set("p99_us", quantile(&untraced_s, 0.99) * 1e6, n);
        out.set("peak_rss_mb", peak_rss, 1);
    }
    Ok(out)
}

fn report_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    traced_s: &[f64],
    untraced_s: &[f64],
    cpu: &CpuWall,
) {
    let totals = tracer.layer_totals();
    let passes = traced_s.len() as u64;
    let per_pass_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / passes as f64 / 1e3)
    };
    for (span, metric) in [
        ("storage.open", "storage.open_us"),
        ("components", "components_us"),
        ("degree", "degree_us"),
        ("powerlaw", "powerlaw_us"),
        ("decompose", "decompose_us"),
        ("msbfs", "msbfs_us"),
        ("cover", "cover_us"),
    ] {
        out.set(metric, per_pass_us(span), passes);
    }
    let serial = totals.get("msbfs_serial").copied().unwrap_or_default();
    // The serial engine ran once per instance; report it per pass like
    // `msbfs_us` so the two read side by side.
    out.set("msbfs_serial_us", serial.self_ns as f64 / 1e3, serial.calls);
    out.set(
        "parcore.cpu_per_wall",
        cpu.cpu.as_secs_f64() / cpu.wall.as_secs_f64().max(1e-9),
        passes,
    );
    let client_us = crate::mean(traced_s) * 1e6;
    let layers_us: f64 = [
        "storage.open",
        "components",
        "degree",
        "powerlaw",
        "decompose",
        "msbfs",
        "cover",
    ]
    .iter()
    .map(|n| per_pass_us(n))
    .sum();
    out.set("trace.client_us", client_us, passes);
    out.set("trace.layers_us", layers_us, passes);
    out.set("trace.residual_us", client_us - layers_us, passes);
    let untraced_us = crate::mean(untraced_s) * 1e6;
    out.set(
        "trace.overhead_pct",
        (client_us / untraced_us - 1.0) * 100.0,
        untraced_s.len() as u64,
    );
}
