//! Family tests for parallel distance statistics: the one parallel
//! distance engine, [`crate::par_msbfs`], held to the sequential
//! oracles in `hypergraph` on the inputs the distance family has always
//! been checked on.

mod tests {
    use crate::{
        par_msbfs_distance_stats, par_msbfs_distance_stats_from, par_msbfs_distance_stats_with,
    };
    use hgobs::Deadline;
    use hypergraph::msbfs::BATCH;
    use hypergraph::{
        msbfs_distance_stats, msbfs_distance_stats_from, scalar_hyper_distance_stats,
        HypergraphBuilder, VertexId,
    };

    #[test]
    fn matches_sequential_chain() {
        let mut b = HypergraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge([i, i + 1]);
        }
        let h = b.build();
        assert_eq!(
            scalar_hyper_distance_stats(&h),
            par_msbfs_distance_stats(&h)
        );
    }

    #[test]
    fn matches_sequential_random() {
        for seed in 0..3u64 {
            let h = hypergen::uniform_random_hypergraph(80, 60, 4, seed);
            assert_eq!(
                scalar_hyper_distance_stats(&h),
                par_msbfs_distance_stats(&h)
            );
        }
    }

    #[test]
    fn empty() {
        let h = HypergraphBuilder::new(0).build();
        let s = par_msbfs_distance_stats(&h);
        assert_eq!(s.reachable_pairs, 0);
        assert_eq!(s.diameter, 0);
    }

    #[test]
    fn subset_of_sources() {
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3, 4]);
        let h = b.build();
        let some = [VertexId(0), VertexId(4)];
        let par = par_msbfs_distance_stats_from(&h, &some);
        let seq = msbfs_distance_stats_from(&h, &some);
        assert_eq!(par, seq);
    }

    #[test]
    fn unlimited_deadline_matches_plain_variant() {
        let h = hypergen::uniform_random_hypergraph(80, 60, 4, 9);
        assert_eq!(
            par_msbfs_distance_stats(&h),
            par_msbfs_distance_stats_with(&h, &Deadline::none()).unwrap()
        );
        assert_eq!(par_msbfs_distance_stats(&h), msbfs_distance_stats(&h));
    }

    #[test]
    fn cancelled_deadline_propagates_across_workers() {
        let h = hypergen::uniform_random_hypergraph(2000, 1500, 5, 3);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = par_msbfs_distance_stats_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "msbfs.par");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn tiny_budget_stops_parallel_sweep_early() {
        let h = hypergen::uniform_random_hypergraph(3000, 2400, 5, 11);
        match par_msbfs_distance_stats_with(&h, &Deadline::after_ms(2)) {
            Err(err) => {
                assert_eq!(err.phase, "msbfs.par");
                // work_done counts finished batches of BATCH sources.
                assert!(
                    (err.work_done as usize) < 3000_usize.div_ceil(BATCH),
                    "{err:?}"
                );
            }
            // A machine fast enough to finish the 3000-source sweep in
            // 2ms just proves the Ok path; the cancelled test covers
            // expiry.
            Ok(stats) => assert_eq!(stats, par_msbfs_distance_stats(&h)),
        }
    }
}
