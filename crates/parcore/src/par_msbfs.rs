//! Parallel batched multi-source BFS: batches of up to
//! [`hypergraph::BATCH`] sources distributed over rayon workers, each
//! worker holding private [`MsBfsScratch`] mask buffers, partial
//! [`BatchStats`] reduced at the end. Exactly matches the sequential
//! [`hypergraph::msbfs_distance_stats`], which itself matches the
//! scalar per-source oracle bit for bit.
//!
//! Cancellation: one shared [`Deadline`] token; the first worker whose
//! clock check trips latches the cancel flag, siblings observe it on
//! their flag-only pre-check at the next batch boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;

use hgobs::{Deadline, DeadlineExceeded};
use hypergraph::msbfs::{msbfs_batch, stats_from_acc, BatchStats, MsBfsScratch, BATCH};
use hypergraph::{
    report_from_distances, HyperDistanceStats, Hypergraph, SmallWorldReport, VertexId,
};

/// Cross-call scratch pool: completed sweeps park their workers'
/// [`MsBfsScratch`] buffers here, and the next sweep over a hypergraph
/// of the same dimensions leases them back instead of allocating and
/// zeroing ~1 MB per worker again (the A7 telemetry showed allocation
/// is the tax batch parallelism pays). Entries whose dimensions no
/// longer fit are left for other datasets; the pool is capped so a
/// burst of differently-sized requests cannot hoard memory.
static SCRATCH_ARENA: Mutex<Vec<MsBfsScratch>> = Mutex::new(Vec::new());

/// Upper bound on parked scratches — enough for every worker of one
/// sweep on the core counts this engine targets, small enough that
/// stale dimensions age out quickly.
const SCRATCH_ARENA_CAP: usize = 16;

/// Lease a scratch sized for `h`: reuse a parked one when the
/// dimensions match (`msbfs.par.scratch_reused`), otherwise allocate
/// (`msbfs.par.scratch_allocs` / `msbfs.par.scratch_bytes`).
fn lease_scratch(h: &Hypergraph) -> MsBfsScratch {
    let mut pool = SCRATCH_ARENA.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(pos) = pool.iter().position(|sc| sc.fits(h)) {
        let sc = pool.swap_remove(pos);
        drop(pool);
        hgobs::counter!("msbfs.par.scratch_reused");
        return sc;
    }
    drop(pool);
    let sc = MsBfsScratch::new(h);
    hgobs::counter!("msbfs.par.scratch_allocs");
    hgobs::counter!("msbfs.par.scratch_bytes", sc.bytes() as u64);
    sc
}

/// Park a worker's scratch for the next sweep (dropped if the pool is
/// full). An aborted batch may leave it dirty; `MsBfsScratch` tracks
/// that itself and re-zeroes on next use.
fn release_scratch(sc: MsBfsScratch) {
    let mut pool = SCRATCH_ARENA.lock().unwrap_or_else(|e| e.into_inner());
    if pool.len() < SCRATCH_ARENA_CAP {
        pool.push(sc);
    }
}

/// Parallel MS-BFS distance statistics from every vertex.
pub fn par_msbfs_distance_stats(h: &Hypergraph) -> HyperDistanceStats {
    let sources: Vec<VertexId> = h.vertices().collect();
    par_msbfs_distance_stats_from(h, &sources)
}

/// [`par_msbfs_distance_stats`] under a cooperative [`Deadline`] shared
/// by every worker. The error's phase is `"msbfs.par"` and `work_done`
/// counts batches fully completed across all threads.
pub fn par_msbfs_distance_stats_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let sources: Vec<VertexId> = h.vertices().collect();
    par_msbfs_distance_stats_from_with(h, &sources, deadline)
}

/// Parallel MS-BFS distance statistics from caller-chosen sources.
pub fn par_msbfs_distance_stats_from(h: &Hypergraph, sources: &[VertexId]) -> HyperDistanceStats {
    match par_msbfs_distance_stats_from_with(h, sources, &Deadline::none()) {
        Ok(stats) => stats,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`par_msbfs_distance_stats_from`] under a cooperative [`Deadline`].
///
/// Each rayon "thread" fold carries its own lazily-allocated
/// [`MsBfsScratch`] (mask buffers sized n + m u64s) and amortized tick
/// counter, so workers never contend on traversal state; only the
/// completed-batch counter and the deadline's latch are shared.
pub fn par_msbfs_distance_stats_from_with(
    h: &Hypergraph,
    sources: &[VertexId],
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let _span = hgobs::Span::enter("msbfs.par.sweep");
    let completed = AtomicU64::new(0);
    // Per-batch timing feeds the `msbfs.par.batch_us` histogram — the
    // profiling ROADMAP item 3 needs — but only pay the clock reads when
    // someone is collecting (registry on or a request trace attached).
    let observing = hgobs::enabled() || deadline.trace().is_enabled();
    let batches: Vec<&[VertexId]> = sources.chunks(BATCH).collect();
    let reduced = batches
        .par_iter()
        .fold(
            || (None, Ok(BatchStats::default())),
            |state: (Option<(MsBfsScratch, u32)>, Result<BatchStats, ()>), batch| {
                let (mut scratch, acc) = state;
                let Ok(mut stats) = acc else {
                    return (scratch, Err(()));
                };
                let mut tp = deadline.trace().phase("msbfs.par.batch");
                let t0 = observing.then(std::time::Instant::now);
                // Batch-boundary check: one clock read per 64 sources
                // keeps expiry deterministic on inputs too small for
                // the amortized in-kernel tick to ever fire, and the
                // latch it sets lets siblings bail on their flag check.
                if deadline.expired() {
                    return (scratch, Err(()));
                }
                let (sc, ticks) = scratch.get_or_insert_with(|| (lease_scratch(h), 0u32));
                match msbfs_batch(h, batch, sc, deadline, ticks, None) {
                    Some(b) => {
                        stats.merge(&b);
                        tp.add_work(batch.len() as u64);
                        if let Some(t0) = t0 {
                            hgobs::hist!("msbfs.par.batch_us", t0.elapsed().as_micros() as u64);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        (scratch, Ok(stats))
                    }
                    None => (scratch, Err(())),
                }
            },
        )
        .map(|(scratch, acc)| {
            if let Some((mut sc, _)) = scratch {
                sc.flush_counters();
                release_scratch(sc);
            }
            acc
        })
        .reduce(
            || Ok(BatchStats::default()),
            |a, b| match (a, b) {
                (Ok(mut x), Ok(y)) => {
                    x.merge(&y);
                    Ok(x)
                }
                _ => Err(()),
            },
        );
    let done = completed.load(Ordering::Relaxed);
    hgobs::counter!("msbfs.par.batches", done);
    match reduced {
        Ok(acc) => Ok(stats_from_acc(acc)),
        Err(()) => Err(deadline.exceeded("msbfs.par", done)),
    }
}

/// Small-world report whose all-pairs sweep runs on the parallel
/// MS-BFS engine; the yardstick arithmetic is shared with the
/// sequential [`hypergraph::small_world_report`] via
/// [`report_from_distances`], so classifications agree exactly.
pub fn par_small_world_report(h: &Hypergraph) -> SmallWorldReport {
    match par_small_world_report_with(h, &Deadline::none()) {
        Ok(report) => report,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`par_small_world_report`] under a cooperative [`Deadline`]; the
/// distance sweep dominates and is the part that can expire.
pub fn par_small_world_report_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<SmallWorldReport, DeadlineExceeded> {
    let distances = par_msbfs_distance_stats_with(h, deadline)?;
    Ok(report_from_distances(h, distances))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{
        msbfs_distance_stats, scalar_hyper_distance_stats, small_world_report, HypergraphBuilder,
    };

    #[test]
    fn matches_sequential_msbfs_and_scalar_oracle() {
        for seed in 0..3u64 {
            let h = hypergen::uniform_random_hypergraph(200, 150, 4, seed);
            let par = par_msbfs_distance_stats(&h);
            assert_eq!(par, msbfs_distance_stats(&h));
            assert_eq!(par, scalar_hyper_distance_stats(&h));
        }
    }

    #[test]
    fn matches_default_engine_on_multi_batch_input() {
        // 200 vertices = 4 batches: exercises the fold across chunks.
        let mut b = HypergraphBuilder::new(200);
        for i in 0..199u32 {
            b.add_edge([i, i + 1]);
        }
        let h = b.build();
        assert_eq!(par_msbfs_distance_stats(&h), msbfs_distance_stats(&h));
    }

    #[test]
    fn empty_and_subset_sources() {
        let h = HypergraphBuilder::new(0).build();
        assert_eq!(par_msbfs_distance_stats(&h).reachable_pairs, 0);

        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3, 4]);
        let h = b.build();
        let some = [VertexId(0), VertexId(4)];
        assert_eq!(
            par_msbfs_distance_stats_from(&h, &some),
            hypergraph::msbfs_distance_stats_from(&h, &some)
        );
    }

    #[test]
    fn cancelled_deadline_stops_with_zero_batches() {
        let h = hypergen::uniform_random_hypergraph(2000, 1500, 5, 3);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = par_msbfs_distance_stats_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "msbfs.par");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn tiny_budget_stops_parallel_sweep_early() {
        let h = hypergen::uniform_random_hypergraph(6000, 4800, 5, 11);
        match par_msbfs_distance_stats_with(&h, &Deadline::after_ms(1)) {
            Err(err) => {
                assert_eq!(err.phase, "msbfs.par");
                assert!(
                    (err.work_done as usize) < 6000_usize.div_ceil(BATCH),
                    "{err:?}"
                );
            }
            // A machine fast enough to finish inside 1ms just proves the
            // Ok path; the cancelled test covers expiry.
            Ok(stats) => assert_eq!(stats, par_msbfs_distance_stats(&h)),
        }
    }

    #[test]
    fn concurrent_requests_keep_traces_isolated() {
        // Two "requests" run the parallel sweep at the same time, each
        // with its own TraceCtx riding its own deadline. The rayon pool
        // is shared, so events from both interleave on the same worker
        // threads — but each event list must see exactly its own run.
        let h = hypergen::uniform_random_hypergraph(500, 400, 4, 5);
        let expected_batches = 500usize.div_ceil(BATCH);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=2u64)
                .map(|id| {
                    let h = &h;
                    s.spawn(move || {
                        let trace = hgobs::TraceCtx::new(id);
                        let dl = Deadline::none().with_trace(trace.clone());
                        let stats = par_msbfs_distance_stats_with(h, &dl).unwrap();
                        (trace, stats)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (trace, _) in &results {
            let events = trace.events();
            assert_eq!(events.len(), expected_batches, "{events:?}");
            assert!(events.iter().all(|e| e.phase == "msbfs.par.batch"));
            assert_eq!(events.iter().map(|e| e.work).sum::<u64>(), 500);
        }
        assert_eq!(results[0].1, results[1].1);
    }

    #[test]
    fn scratch_arena_leases_fitting_buffers_only() {
        let h1 = hypergen::uniform_random_hypergraph(50, 40, 3, 1);
        let h2 = hypergen::uniform_random_hypergraph(80, 10, 3, 1);
        let sc = lease_scratch(&h1);
        assert!(sc.fits(&h1) && !sc.fits(&h2));
        release_scratch(sc);
        // A parked scratch of the right dimensions comes back; asking
        // for different dimensions allocates instead of mis-leasing.
        assert!(lease_scratch(&h1).fits(&h1));
        assert!(lease_scratch(&h2).fits(&h2));
    }

    #[test]
    fn repeated_sweeps_reuse_the_pool_and_stay_correct() {
        // Sweep twice so the second run leases the first run's parked
        // (possibly dirty) buffers; results must be identical to the
        // sequential engine both times.
        let h = hypergen::uniform_random_hypergraph(300, 220, 4, 9);
        let a = par_msbfs_distance_stats(&h);
        let b = par_msbfs_distance_stats(&h);
        assert_eq!(a, b);
        assert_eq!(a, msbfs_distance_stats(&h));
    }

    #[test]
    fn small_world_report_matches_sequential() {
        let h = hypergen::uniform_random_hypergraph(120, 90, 4, 7);
        assert_eq!(par_small_world_report(&h), small_world_report(&h));
    }
}
