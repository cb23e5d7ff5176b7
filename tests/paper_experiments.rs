//! The "did we reproduce the paper" test: every headline number from the
//! paper's evaluation, asserted end-to-end. EXPERIMENTS.md discusses each
//! row; this file keeps the claims true under refactoring.

use hypergraph::{fit_power_law, max_core, vertex_degree_histogram};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

/// §2: sizes, components, degrees, small-world distances.
#[test]
fn e1_section2_statistics() {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;
    assert_eq!(h.num_vertices(), 1361, "total proteins (paper: 1361)");
    assert_eq!(h.num_edges(), 232, "total complexes (paper: 232)");

    let cc = hypergraph::hypergraph_components(h);
    assert_eq!(cc.count(), 33, "components (paper: 33)");
    let big = cc.largest().unwrap();
    assert_eq!(cc.summary[big].num_vertices, 1263, "(paper: 1263 proteins)");
    assert_eq!(cc.summary[big].num_edges, 99, "(paper: 99 complexes)");

    let hist = vertex_degree_histogram(h);
    assert_eq!(hist[1], 846, "degree-1 proteins (paper: 846)");
    assert_eq!(hist.len() - 1, 21, "max degree (paper: 21)");
    assert_eq!(hist[21], 1, "unique max-degree protein (paper: ADH1)");
    let adh1 = h.argmax_vertex_degree().unwrap();
    assert_eq!(ds.names[adh1.index()], "ADH1");

    let (giant, _, _) = cc.extract(h, big);
    let dist = hypergraph::msbfs_distance_stats(&giant);
    assert_eq!(dist.diameter, 6, "diameter (paper: 6)");
    assert!(
        (dist.average_path_length - 2.568).abs() < 0.15,
        "APL {} vs paper 2.568",
        dist.average_path_length
    );
}

/// Fig. 1: power-law degree distribution.
#[test]
fn e2_power_law_fit() {
    let ds = cellzome_like(CELLZOME_SEED);
    let fit = fit_power_law(&vertex_degree_histogram(&ds.hypergraph)).unwrap();
    assert!(
        (fit.gamma - 2.528).abs() < 0.35,
        "gamma {} (paper 2.528)",
        fit.gamma
    );
    assert!(
        (fit.log10_c - 3.161).abs() < 0.35,
        "log c {} (paper 3.161)",
        fit.log10_c
    );
    assert!(fit.r_squared > 0.93, "R² {} (paper 0.963)", fit.r_squared);
}

/// Fig. 2: the illustrated graph core.
#[test]
fn e3_fig2_properties() {
    let g = proteome::fig2_graph();
    let d = graphcore::core_decomposition(&g);
    assert_eq!(d.max_core, 3);
    assert_eq!(d.k_core_nodes(1).len(), g.num_nodes());
    assert_eq!(d.k_core_nodes(2), d.k_core_nodes(3));
    assert!(d.k_core_nodes(4).is_empty());
}

/// Table 1, Cellzome row + §3 core proteome.
#[test]
fn e4_e5_maximum_core() {
    let ds = cellzome_like(CELLZOME_SEED);
    let core = max_core(&ds.hypergraph).unwrap();
    assert_eq!(core.k, 6, "max core (paper: 6)");
    assert_eq!(core.vertices.len(), 41, "core proteins (paper: 41)");
    assert_eq!(core.edges.len(), 54, "core complexes (paper: 54)");

    let ann = proteome::annotate(&ds, CELLZOME_SEED);
    let s = proteome::annotations::core_summary(&ann, &core.vertices);
    assert_eq!(s.core_unknown, 9, "(paper: 9 unknown)");
    assert_eq!(s.core_known_essential, 22, "(paper: 22 of 32 essential)");
    assert_eq!(s.core_with_homolog, 24, "(paper: 24 homologs)");
    assert_eq!(s.core_unknown_with_homolog, 3, "(paper: 3 among unknown)");
}

/// §3: DIP graph baselines.
#[test]
fn e6_dip_baselines() {
    let yeast = proteome::dip_yeast_like(2003);
    let d = graphcore::core_decomposition(&yeast);
    assert_eq!(yeast.num_nodes(), 4746, "(paper: 4746 proteins)");
    assert_eq!(d.max_core, 10, "(paper: k = 10)");
    assert_eq!(d.max_core_nodes().len(), 33, "(paper: 33 proteins)");

    let fly = proteome::dip_fly_like(2003);
    let d = graphcore::core_decomposition(&fly);
    assert_eq!(d.max_core, 8, "(paper: k = 8)");
    assert_eq!(d.max_core_nodes().len(), 577, "(paper: 577 proteins)");
}

/// §4.2: bait-selection covers — the qualitative ordering the paper
/// reports (exact counts depend on the withheld raw membership lists;
/// see EXPERIMENTS.md E7).
#[test]
fn e7_bait_selection_shape() {
    let ds = cellzome_like(CELLZOME_SEED);
    let r = proteome::bait_selection_report(&ds);

    // Unit-weight cover: small, promiscuous (paper: 109 @ 3.7).
    assert!(r.unweighted.count < 160);
    assert!(r.unweighted.average_degree > 3.0);

    // Degree²-weighted: more baits, far more specific (paper: 233 @ 1.14).
    assert!(r.degree_squared.count > r.unweighted.count);
    assert!(r.degree_squared.average_degree < r.unweighted.average_degree / 2.0);

    // 2-multicover over the 229 non-singleton complexes (paper: 558 @ 1.74).
    assert_eq!(r.multicover_complexes, 229);
    assert!(r.multicover2.count > r.degree_squared.count);
    assert!((r.multicover2.average_degree - 1.74).abs() < 0.4);

    // All proposals beat the experiment's 589 baits.
    assert!(r.multicover2.count < proteome::CELLZOME_BAITS);
}
