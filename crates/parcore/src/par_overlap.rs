//! Family tests for the parallel pairwise overlap: the one parallel
//! overlap engine, [`crate::par_csr_overlap()`], held to the paper's
//! sequential [`hypergraph::OverlapTable`] as distinct `(f, g, |f ∩ g|)`
//! triples with `f < g`.

mod tests {
    use crate::{par_csr_overlap, par_csr_overlap_with};
    use hgobs::Deadline;
    use hypergraph::{CsrOverlap, EdgeId, Hypergraph, HypergraphBuilder, OverlapTable};

    fn reference(h: &Hypergraph) -> Vec<(EdgeId, EdgeId, u32)> {
        let t = OverlapTable::build(h);
        let mut out = Vec::new();
        for f in h.edges() {
            for (g, c) in t.overlapping(f) {
                if f < g {
                    out.push((f, g, c));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn triples(h: &Hypergraph, ov: &CsrOverlap) -> Vec<(EdgeId, EdgeId, u32)> {
        let mut out = Vec::new();
        for f in h.edges() {
            for (g, c) in ov.overlapping(f) {
                if f < g {
                    out.push((f, g, c));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn matches_sequential_table() {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        b.add_edge([3, 4]);
        b.add_edge([0, 1, 2]);
        let h = b.build();
        assert_eq!(triples(&h, &par_csr_overlap(&h)), reference(&h));
    }

    #[test]
    fn matches_on_random() {
        for seed in 0..3u64 {
            let h = hypergen::uniform_random_hypergraph(50, 60, 5, seed);
            assert_eq!(triples(&h, &par_csr_overlap(&h)), reference(&h));
        }
    }

    #[test]
    fn empty() {
        let h = HypergraphBuilder::new(0).build();
        assert!(triples(&h, &par_csr_overlap(&h)).is_empty());
    }

    #[test]
    fn cancelled_deadline_stops_pair_generation() {
        let h = hypergen::uniform_random_hypergraph(300, 400, 5, 8);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = par_csr_overlap_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "overlap.csr.par.build");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn unlimited_deadline_matches_plain_table() {
        let h = hypergen::uniform_random_hypergraph(50, 60, 5, 1);
        assert_eq!(
            triples(&h, &par_csr_overlap(&h)),
            triples(&h, &par_csr_overlap_with(&h, &Deadline::none()).unwrap())
        );
    }
}
