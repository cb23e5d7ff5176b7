//! Quickstart: build a hypergraph, inspect it, compute its maximum core
//! and a vertex cover.
//!
//! ```sh
//! cargo run --release -p repro-examples --example quickstart
//! ```

use hypergraph::{
    greedy_vertex_cover, hypergraph_components, max_core, msbfs_distance_stats, HypergraphBuilder,
    VertexId,
};

fn main() {
    // A toy "proteome": 8 proteins, 5 complexes.
    let mut builder = HypergraphBuilder::new(8);
    builder.add_edge([0, 1, 2]); // complex 0
    builder.add_edge([1, 2, 3]); // complex 1
    builder.add_edge([2, 3, 0]); // complex 2
    builder.add_edge([0, 1, 3]); // complex 3
    builder.add_edge([4, 5, 6, 7]); // complex 4 (separate component)
    let h = builder.build();

    println!(
        "hypergraph: {} vertices, {} hyperedges, {} pins",
        h.num_vertices(),
        h.num_edges(),
        h.num_pins()
    );
    for v in h.vertices() {
        println!("  vertex {v}: degree {}", h.vertex_degree(v));
    }

    // Connected components.
    let cc = hypergraph_components(&h);
    println!("components: {}", cc.count());

    // Distances: the length of a hypergraph path is the number of
    // hyperedges on it.
    let stats = msbfs_distance_stats(&h);
    println!(
        "diameter {} | average path length {:.3}",
        stats.diameter, stats.average_path_length
    );

    // The maximum core: proteins {0,1,2,3} each lie in 3 of the first
    // four complexes.
    let core = max_core(&h).expect("non-empty hypergraph");
    println!(
        "maximum core: k = {}, {} vertices, {} hyperedges",
        core.k,
        core.vertices.len(),
        core.edges.len()
    );
    assert_eq!(core.k, 3);

    // A minimum-weight vertex cover suggests bait proteins: weight by
    // degree² to prefer specific (low-degree) baits.
    let cover = greedy_vertex_cover(&h, |v: VertexId| {
        let d = h.vertex_degree(v) as f64;
        d * d
    })
    .expect("coverable");
    println!(
        "degree²-weighted cover: {:?} (total weight {})",
        cover.vertices, cover.total_weight
    );
    assert!(hypergraph::is_vertex_cover(&h, &cover.vertices));
}
