//! `parcore` — parallel k-core and distance algorithms.
//!
//! The paper closes its Table 1 discussion with: *"if the numbers of
//! vertices and hyperedges in the core are large, then the run times can
//! be substantial; hence for large hypergraphs, a parallel algorithm will
//! need to be designed."* This crate is that design, one engine per
//! kernel family; each is tested against the sequential oracle in
//! `hypergraph`:
//!
//! * [`par_kcore`] — a level-synchronous parallel hypergraph k-core:
//!   each round peels every sub-threshold vertex at once (rayon parallel
//!   iterators + atomic degree counters), then re-checks the affected
//!   hyperedges for maximality in parallel by direct sorted-subset tests
//!   against a consistent snapshot. Equivalent to the sequential
//!   algorithm (same surviving vertices; same surviving edge contents).
//!   Oracle: [`hypergraph::hypergraph_kcore`].
//! * [`par_msbfs`] — the batched multi-source bitset BFS engine
//!   (64 sources per u64-mask batch) distributed over workers with
//!   private scratch; the default heavy-path engine for hgserve.
//!   Oracle: [`hypergraph::scalar_hyper_distance_stats`].
//! * [`par_csr_overlap()`] — sharded parallel assembly of the flat CSR
//!   overlap engine, feeding the sequential incremental decomposition
//!   ([`par_decompose`]), which also yields the maximum core.
//!   Oracles: [`hypergraph::OverlapTable`] and
//!   [`hypergraph::max_core_bsearch`].
//!
//! Memory-ordering notes: degree counters use `fetch_sub(Relaxed)` — the
//! value is only *read* after the round's barrier (rayon's fork-join
//! guarantees happens-before), so no acquire/release is needed on the
//! counters themselves. Liveness flags are claimed with
//! `compare_exchange(AcqRel)` so each vertex/edge is deleted exactly once.

pub mod par_csr_overlap;
pub mod par_kcore;
pub mod par_msbfs;

// Family-level equivalence tests of the engines above against the
// sequential oracles.
#[cfg(test)]
mod par_distance;
#[cfg(test)]
mod par_overlap;

pub use par_csr_overlap::{
    par_csr_overlap, par_csr_overlap_with, par_decompose, par_decompose_with,
};
pub use par_kcore::{par_hypergraph_kcore, par_hypergraph_kcore_with};
pub use par_msbfs::{
    par_msbfs_distance_stats, par_msbfs_distance_stats_from, par_msbfs_distance_stats_from_with,
    par_msbfs_distance_stats_with, par_small_world_report, par_small_world_report_with,
};
