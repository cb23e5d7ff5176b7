//! `perfbench` — the repository benchmark.
//!
//! Three workloads, each run from a seed given on the command line:
//!
//! * `serve-hot` — `hg serve` with `cellzome-2004` preloaded, a
//!   read-only mix whose every answer is cached after warm-up;
//! * `serve-miss` — `hg serve` with a large seeded uniform hypergraph,
//!   a cache smaller than the working set and periodic re-uploads, so
//!   reads recompute through the kernels;
//! * `batch-paper` — the paper's pipeline called in-process on two
//!   seeded instances stored as `.hgb`.
//!
//! An untraced run prints the end-to-end metrics ([`END_TO_END`]); a
//! traced run prints the per-layer metrics ([`PER_LAYER`]). See
//! `README.md` next to this crate for what each metric should move.

pub mod batch;
pub mod serve;
pub mod spans;
pub mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The seed used while writing a change.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to re-check a claim made on
/// [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 20_040_426;

/// Pause between a run's set-ups, so that their median samples the host
/// over a second or more rather than one moment of it: back-to-back
/// set-ups fall into runs of fast or slow ones that last longer than a
/// set-up.
pub const SETUP_GAP: Duration = Duration::from_millis(50);

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload never enters reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Request path (serve workloads).
    ("http.parse_us", "us"),
    ("http.serialize_us", "us"),
    ("server.route_us", "us"),
    ("server.route_self_us", "us"),
    ("server.outside_route_us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_pct", "%"),
    ("cache.evictions", "count"),
    ("cache.dup_computes", "count"),
    ("hgobs.record_ns", "ns"),
    ("query.stats_us", "us"),
    ("query.components_us", "us"),
    ("query.kcore_us", "us"),
    ("query.distance_us", "us"),
    ("query.diameter_us", "us"),
    ("query.cover_us", "us"),
    ("registry.insert_us", "us"),
    ("io.read_hgr_us", "us"),
    ("client.write_p50_us", "us"),
    // Batch pipeline stages.
    ("storage.open_us", "us"),
    ("components_us", "us"),
    ("degree_us", "us"),
    ("powerlaw_us", "us"),
    ("decompose_us", "us"),
    ("msbfs_us", "us"),
    ("msbfs_serial_us", "us"),
    ("cover_us", "us"),
    ("parcore.cpu_per_wall", "ratio"),
    // Exact work counters (hgobs), per replay or pipeline pass.
    ("msbfs.sweep.sparse_passes", "count"),
    ("msbfs.sweep.dense_passes", "count"),
    ("msbfs.sweep.pull_passes", "count"),
    ("msbfs.sweep.words_skipped", "count"),
    ("kcore.csr.overlap_probes", "count"),
    ("kcore.csr.vertices_peeled", "count"),
    ("kcore.csr.edges_deleted", "count"),
    ("cover.heap_refreshes", "count"),
    ("overlap.pairs", "count"),
    // Accounting of the traced run itself.
    ("trace.client_us", "us"),
    ("trace.layers_us", "us"),
    ("trace.residual_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The hgobs counters reported per pass, by metric name. `overlap.pairs`
/// sums the serial and parallel overlap builders' counters.
pub const WORK_COUNTERS: &[(&str, &[&str])] = &[
    ("msbfs.sweep.sparse_passes", &["msbfs.sweep.sparse_passes"]),
    ("msbfs.sweep.dense_passes", &["msbfs.sweep.dense_passes"]),
    ("msbfs.sweep.pull_passes", &["msbfs.sweep.pull_passes"]),
    ("msbfs.sweep.words_skipped", &["msbfs.sweep.words_skipped"]),
    ("kcore.csr.overlap_probes", &["kcore.csr.overlap_probes"]),
    ("kcore.csr.vertices_peeled", &["kcore.csr.vertices_peeled"]),
    ("kcore.csr.edges_deleted", &["kcore.csr.edges_deleted"]),
    ("cover.heap_refreshes", &["cover.heap_refreshes"]),
    (
        "overlap.pairs",
        &["overlap.csr.pairs", "overlap.csr.par.pairs"],
    ),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeMiss,
    BatchPaper,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeHot,
        Workload::ServeMiss,
        Workload::BatchPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeMiss => "serve-miss",
            Workload::BatchPaper => "batch-paper",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `hg` binary the serve workloads launch.
    pub hg: PathBuf,
    /// Where generated inputs and span files go.
    pub work_dir: PathBuf,
    /// Self-test: corrupt one expected answer, so the run must fail.
    pub corrupt_expected: bool,
}

/// One measured value with its unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// What a run measured and how many of its operations were wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable description of the first few failures.
    pub failures: Vec<String>,
    /// Extra figures printed beside the metrics, not part of the result.
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Record `name`, which must be one of `END_TO_END` or `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// SplitMix64: a small, seedable generator, so every input is a pure
/// function of the seed argument.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-purpose `salt` of the same seed.
    pub fn derive(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// FNV-1a, used to compare response bodies without keeping them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The `q`-quantile of ascending `sorted` by linear interpolation
/// between closest ranks; NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sort `values` and return their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Delta of the [`WORK_COUNTERS`] between two hgobs snapshots.
pub fn counter_deltas(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<&'static str, u64> {
    let get = |m: &BTreeMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
    WORK_COUNTERS
        .iter()
        .map(|(name, sources)| {
            let d = sources
                .iter()
                .map(|s| get(after, s) - get(before, s))
                .sum::<u64>();
            (*name, d)
        })
        .collect()
}

/// Run one workload as configured.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let mut out = match cfg.workload {
        Workload::ServeHot | Workload::ServeMiss => serve::run(cfg)?,
        Workload::BatchPaper => batch::run(cfg)?,
    };
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in wanted {
        if !out.metrics.contains_key(name) {
            if cfg.trace {
                out.set(name, 0.0, 0);
            } else {
                return Err(format!("end-to-end metric `{name}` was not measured"));
            }
        }
    }
    out.metrics
        .retain(|name, _| wanted.iter().any(|(n, _)| n == name));
    if let Some((name, _)) = out.metrics.iter().find(|(_, m)| !m.value.is_finite()) {
        return Err(format!("metric `{name}` is not a finite number"));
    }
    Ok(out)
}
