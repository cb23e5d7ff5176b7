//! Parallel implementations must agree with the sequential ones on real
//! workloads — the correctness half of the paper's future-work claim.

use hypergraph::{hypergraph_kcore, scalar_hyper_distance_stats, Hypergraph};
use parcore::{par_csr_overlap, par_decompose, par_hypergraph_kcore, par_msbfs_distance_stats};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

fn contents(h: &Hypergraph, core: &hypergraph::KCore) -> Vec<Vec<u32>> {
    let alive: std::collections::HashSet<u32> = core.vertices.iter().map(|v| v.0).collect();
    let mut out: Vec<Vec<u32>> = core
        .edges
        .iter()
        .map(|&f| {
            h.pins(f)
                .iter()
                .map(|v| v.0)
                .filter(|v| alive.contains(v))
                .collect()
        })
        .collect();
    out.sort();
    out
}

#[test]
fn par_kcore_matches_sequential_on_cellzome() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    for k in 1..=7u32 {
        let seq = hypergraph_kcore(&h, k);
        let par = par_hypergraph_kcore(&h, k);
        assert_eq!(seq.vertices, par.vertices, "k = {k}");
        assert_eq!(contents(&h, &seq), contents(&h, &par), "k = {k}");
    }
    let seq_max = hypergraph::max_core_bsearch(&h).unwrap();
    let par_max = par_decompose(&h).max_core.unwrap();
    assert_eq!(seq_max.k, par_max.k);
    assert_eq!(seq_max.vertices, par_max.vertices);
}

#[test]
fn par_kcore_matches_on_matrix_hypergraph() {
    let h = matrixmarket::row_net(&matrixmarket::stiffness_3d(10, 10, 10));
    for k in [4u32, 8, 14] {
        let seq = hypergraph_kcore(&h, k);
        let par = par_hypergraph_kcore(&h, k);
        assert_eq!(seq.vertices, par.vertices, "k = {k}");
    }
}

#[test]
fn par_distances_match_sequential_on_cellzome_giant() {
    let ds = cellzome_like(CELLZOME_SEED);
    let cc = hypergraph::hypergraph_components(&ds.hypergraph);
    let big = cc.largest().unwrap();
    let (giant, _, _) = cc.extract(&ds.hypergraph, big);
    let seq = scalar_hyper_distance_stats(&giant);
    let par = par_msbfs_distance_stats(&giant);
    assert_eq!(seq, par);
    assert_eq!(seq.diameter, 6);
}

#[test]
fn par_overlap_matches_table_on_cellzome() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    let table = hypergraph::OverlapTable::build(&h);
    let par = par_csr_overlap(&h);
    // Every parallel triple appears in the sequential table and vice versa.
    let mut count = 0usize;
    for f in h.edges() {
        for (g, c) in par.overlapping(f).filter(|&(g, _)| f < g) {
            assert_eq!(table.overlap(f, g), c);
            count += 1;
        }
    }
    let seq_count: usize = h.edges().map(|f| table.d2_edge(f)).sum::<usize>() / 2;
    assert_eq!(count, seq_count);
}

#[test]
fn thread_pool_size_does_not_change_results() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    let reference = par_hypergraph_kcore(&h, 6);
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let core = pool.install(|| par_hypergraph_kcore(&h, 6));
        assert_eq!(core.vertices, reference.vertices, "threads = {threads}");
        assert_eq!(core.edges, reference.edges, "threads = {threads}");
    }
}
