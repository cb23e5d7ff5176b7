//! The paper's headline analysis: characterize the yeast protein complex
//! hypergraph (§2), compute its maximum core (§3), and test the "core
//! proteome" conjecture against essentiality/homology annotations.
//!
//! ```sh
//! cargo run --release -p repro-examples --example core_proteome
//! ```

use hypergraph::{
    fit_power_law, hypergraph_components, max_core, msbfs_distance_stats, vertex_degree_histogram,
};
use proteome::annotations::{annotate, core_summary};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

fn main() {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;

    println!("== Cellzome-like yeast protein complex hypergraph ==");
    println!(
        "{} proteins, {} complexes, {} memberships",
        h.num_vertices(),
        h.num_edges(),
        h.num_pins()
    );

    let cc = hypergraph_components(h);
    let big = cc.largest().unwrap();
    println!(
        "{} components; largest: {} proteins, {} complexes",
        cc.count(),
        cc.summary[big].num_vertices,
        cc.summary[big].num_edges
    );

    let (giant, _, _) = cc.extract(h, big);
    let dist = msbfs_distance_stats(&giant);
    println!(
        "giant component: diameter {}, average path length {:.3} (small world)",
        dist.diameter, dist.average_path_length
    );

    let hist = vertex_degree_histogram(h);
    let fit = fit_power_law(&hist).unwrap();
    println!(
        "degree distribution: P(d) ~ 10^{:.2} * d^-{:.2}, R² = {:.3} (power law)",
        fit.log10_c, fit.gamma, fit.r_squared
    );

    println!("\n== the core proteome ==");
    let core = max_core(h).unwrap();
    println!(
        "maximum core: {}-core with {} proteins and {} complexes",
        core.k,
        core.vertices.len(),
        core.edges.len()
    );
    println!("core proteins (first 10):");
    for &v in core.vertices.iter().take(10) {
        println!("  {} (degree {})", ds.names[v.index()], h.vertex_degree(v));
    }

    let ann = annotate(&ds, CELLZOME_SEED);
    let s = core_summary(&ann, &core.vertices);
    println!(
        "\nannotations: {} unknown; {} known of which {} essential; {} with homologs",
        s.core_unknown, s.core_known, s.core_known_essential, s.core_with_homolog
    );
    println!(
        "essentiality enrichment vs genome background: {:.2}x, hypergeometric p = {:.2e}",
        s.essential_enrichment.fold, s.essential_enrichment.p_value
    );
    assert!(
        s.essential_enrichment.p_value < 1e-4,
        "core proteome must be significantly enriched"
    );
    println!("=> the core proteome is rich in essential and homologous proteins.");
}
