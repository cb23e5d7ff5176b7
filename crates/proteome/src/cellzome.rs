//! Calibrated Cellzome-like yeast protein-complex hypergraph.
//!
//! The Gavin et al. (2002) membership lists are not redistributable and
//! not available offline, so this module *constructs* a hypergraph that
//! matches every summary statistic the paper reports about the real data:
//!
//! * 1361 proteins, 232 complexes, 3 of them singletons;
//! * 846 proteins of degree 1; maximum degree 21, unique (ADH1);
//! * 33 connected components; the largest has 1263 proteins and 99
//!   complexes;
//! * the maximum core is a **6-core of exactly 41 proteins and 54
//!   complexes**;
//! * the protein degree histogram fits a power law with γ ≈ 2.5 and
//!   R² > 0.95 on the log–log plot (paper: γ = 2.528, R² = 0.963);
//! * complex sizes range up to ≈ 88 with a mean near 10 and do *not*
//!   follow a power law — as the paper observes.
//!
//! # Construction
//!
//! The dataset is assembled from five deterministic layers:
//!
//! 1. **Core block** — 41 proteins × 54 complexes; every core protein in
//!    exactly 6 core complexes (capacity-balanced greedy assignment with
//!    swap repairs ensuring the 54 block contents are pairwise
//!    non-contained and the block is connected). This pins the 6-core.
//! 2. **Core extras** — core proteins get additional memberships in
//!    *periphery* complexes to realize a power-law degree tail up to 21
//!    (ADH1). Each periphery complex's core members are kept a **strict
//!    subset of a single anchor core complex**, which provably makes every
//!    periphery complex non-maximal once low-degree proteins peel away —
//!    so the 6-core stays exactly the block and the 7-core unravels.
//! 3. **Giant-component knitting** — 98 degree-2 "linker" proteins join
//!    the 99 giant-component complexes into a shallow hub tree (diameter
//!    stays small-world), plus degree-2..5 proteins with random
//!    memberships and 843 degree-1 decorations shaped to give one ≈88-size
//!    complex.
//! 4. **Small components** — 29 multi-complex components (3–5 proteins,
//!    4–7 complexes each, with the nested/duplicate complexes raw
//!    pull-down data exhibits) and 3 singleton complexes: 33 components
//!    in total with the reported largest-component sizes.
//! 5. **Names** — yeast-style systematic names, `ADH1` for vertex 0.

use hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::names::protein_names;

/// The fixed seed used by the paper-reproduction harness.
pub const CELLZOME_SEED: u64 = 2004;

/// Total proteins in the study (paper §4).
pub const CELLZOME_PROTEINS: usize = 1361;
/// Total complexes (3 singletons + 229 multi-protein).
pub const CELLZOME_COMPLEXES: usize = 232;
/// Proteins of degree 1 (paper §2).
pub const CELLZOME_DEGREE_ONE: usize = 846;
/// Maximum protein degree — ADH1 (paper §2).
pub const CELLZOME_MAX_DEGREE: usize = 21;
/// Connected components (paper §2).
pub const CELLZOME_COMPONENTS: usize = 33;
/// Proteins in the largest component.
pub const CELLZOME_GIANT_PROTEINS: usize = 1263;
/// Complexes in the largest component.
pub const CELLZOME_GIANT_COMPLEXES: usize = 99;
/// Maximum-core depth (paper §3).
pub const CELLZOME_MAX_CORE: u32 = 6;
/// Proteins in the maximum core.
pub const CELLZOME_CORE_PROTEINS: usize = 41;
/// Complexes in the maximum core.
pub const CELLZOME_CORE_COMPLEXES: usize = 54;

const N_GIANT_LINKERS: usize = 98;
const N_GIANT_D2: usize = 222;
const N_GIANT_D3: usize = 28;
const N_GIANT_D4: usize = 15;
const N_GIANT_D5: usize = 16;
const N_GIANT_D1: usize = 843;
const N_PERIPHERY_C: usize = 45; // giant complexes 54..99
const BIG_COMPLEX: usize = 56; // the ≈88-member complex
const BIG_DECORATIONS: usize = 60;
/// Complexes 96..99 form a 3-link chain appendage: the hub tree alone is
/// too shallow (diameter 3), the chain stretches the giant component to
/// the paper's diameter of 6 without moving the average path length much.
const CHAIN_START: usize = 96;
/// Periphery complexes eligible for core-protein groups and spread
/// decorations (ids 54..96): everything except the chain.
const N_HUB_PERIPHERY: usize = 42;

/// A calibrated Cellzome-like dataset.
#[derive(Clone, Debug)]
pub struct CellzomeDataset {
    /// The protein-complex hypergraph.
    pub hypergraph: Hypergraph,
    /// Protein names (vertex 0 is `ADH1`).
    pub names: Vec<String>,
    /// The 41 proteins of the planted maximum 6-core.
    pub core_proteins: Vec<VertexId>,
    /// The 54 complexes of the planted maximum 6-core.
    pub core_complexes: Vec<EdgeId>,
    /// The 3 singleton complexes (excluded from 2-multicover).
    pub singleton_complexes: Vec<EdgeId>,
}

/// Per-core-protein extra (beyond-block) membership counts, realizing the
/// degree tail 6..15 ∪ {21}. Index = core protein id.
fn core_extras() -> Vec<usize> {
    let mut extras = Vec::with_capacity(41);
    extras.push(15); // ADH1: degree 21
    extras.push(6); // degree 12
    extras.push(5); // degree 11
    extras.extend([4, 4]); // degree 10 ×2
    extras.extend([3, 3, 3]); // degree 9 ×3
    extras.extend([2; 5]); // degree 8 ×5
    extras.extend([1; 8]); // degree 7 ×8
    extras.extend([0; 20]); // degree 6 ×20
    debug_assert_eq!(extras.len(), 41);
    extras
}

/// splitmix64 — cheap deterministic per-pair hash for tie-breaking.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Build the core block: `members[c]` = core proteins of core complex `c`
/// (41 proteins × degree 6 over 54 complexes, sizes 4–5, pairwise
/// non-contained, connected).
fn build_core_block(seed: u64) -> Vec<Vec<u32>> {
    let mut caps: Vec<usize> = (0..54).map(|c| if c < 30 { 5 } else { 4 }).collect();
    debug_assert_eq!(caps.iter().sum::<usize>(), 41 * 6);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); 54];

    for p in 0..41u32 {
        // Pick the 6 complexes with the largest remaining capacity,
        // hashed tie-break so contents are diverse.
        let mut order: Vec<usize> = (0..54).collect();
        order.sort_by_key(|&c| {
            (
                std::cmp::Reverse(caps[c]),
                mix(seed ^ ((p as u64) << 16) ^ c as u64),
            )
        });
        let chosen = &order[..6];
        assert!(
            chosen.iter().all(|&c| caps[c] > 0),
            "core block capacity exhausted at protein {p}"
        );
        for &c in chosen {
            caps[c] -= 1;
            members[c].push(p);
        }
    }
    for m in &mut members {
        m.sort_unstable();
    }

    // Repair containment (a 4-set inside a 5-set) and disconnection by
    // degree-preserving swaps: move protein `a` from complex `f` to `h`
    // and protein `b` from `h` to `f`.
    for round in 0.. {
        assert!(round < 200, "core block repair did not converge");
        if let Some((f, g)) = find_containment(&members) {
            let fixed = try_swap_out(&mut members, f, g, seed, round);
            assert!(fixed, "no legal swap to break containment {f} ⊆ {g}");
            continue;
        }
        if let Some((f, h)) = find_disconnection(&members) {
            let fixed = try_swap_between(&mut members, f, h);
            assert!(fixed, "no legal swap to connect components via {f}, {h}");
            continue;
        }
        break;
    }
    members
}

/// First pair (f, g) with members[f] ⊆ members[g] (f ≠ g; equal contents
/// count, reporting the higher id as contained).
fn find_containment(members: &[Vec<u32>]) -> Option<(usize, usize)> {
    for f in 0..members.len() {
        for g in 0..members.len() {
            if f == g {
                continue;
            }
            let smaller = members[f].len() < members[g].len()
                || (members[f].len() == members[g].len() && f > g);
            if smaller && is_subset(&members[f], &members[g]) {
                return Some((f, g));
            }
        }
    }
    None
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j >= b.len() || b[j] != *x {
            return false;
        }
        j += 1;
    }
    true
}

/// Break `members[f] ⊆ members[g]` by swapping some `a ∈ f` with a
/// `b ∈ h, b ∉ f ∪ g`, for a scan-chosen third complex `h`.
fn try_swap_out(members: &mut [Vec<u32>], f: usize, g: usize, seed: u64, round: usize) -> bool {
    let start = (mix(seed ^ round as u64) % members.len() as u64) as usize;
    for off in 0..members.len() {
        let h = (start + off) % members.len();
        if h == f || h == g {
            continue;
        }
        let Some(&b) = members[h]
            .iter()
            .find(|&&b| !members[f].contains(&b) && !members[g].contains(&b))
        else {
            continue;
        };
        let Some(&a) = members[f].iter().find(|&&a| !members[h].contains(&a)) else {
            continue;
        };
        swap_members(members, f, a, h, b);
        return true;
    }
    false
}

/// Move `a` from `f` to `h` and `b` from `h` to `f` (degrees preserved).
fn swap_members(members: &mut [Vec<u32>], f: usize, a: u32, h: usize, b: u32) {
    members[f].retain(|&x| x != a);
    members[f].push(b);
    members[f].sort_unstable();
    members[h].retain(|&x| x != b);
    members[h].push(a);
    members[h].sort_unstable();
}

/// If the block is disconnected, return complexes (f, h) in different
/// components.
fn find_disconnection(members: &[Vec<u32>]) -> Option<(usize, usize)> {
    let mut uf = graphcore::UnionFind::new(41 + members.len());
    for (c, m) in members.iter().enumerate() {
        for &p in m {
            uf.union(41 + c, p as usize);
        }
    }
    let root = uf.find(41);
    for c in 1..members.len() {
        if uf.find(41 + c) != root {
            return Some((0, c));
        }
    }
    None
}

/// Swap one member between complexes `f` and `h` (used to merge block
/// components).
fn try_swap_between(members: &mut [Vec<u32>], f: usize, h: usize) -> bool {
    let Some(&a) = members[f].iter().find(|&&a| !members[h].contains(&a)) else {
        return false;
    };
    let Some(&b) = members[h].iter().find(|&&b| !members[f].contains(&b)) else {
        return false;
    };
    swap_members(members, f, a, h, b);
    true
}

/// Generate the calibrated dataset. Deterministic in `seed`; the
/// reproduction harness uses [`CELLZOME_SEED`].
pub fn cellzome_like(seed: u64) -> CellzomeDataset {
    let mut rng = StdRng::seed_from_u64(seed);

    // ---- layer 1: core block --------------------------------------------
    let block = build_core_block(seed);

    // complexes[c] = member vertex ids of complex c (0-based complex ids:
    // 0..54 core, 54..99 giant periphery, 99..229 small, 229..232 singleton).
    let mut complexes: Vec<Vec<u32>> = vec![Vec::new(); CELLZOME_COMPLEXES];
    for (c, m) in block.iter().enumerate() {
        complexes[c] = m.clone();
    }

    // ---- layer 2: core extras into anchored periphery complexes ---------
    let extras = core_extras();
    // Demand-aware anchoring: each of the 45 periphery complexes picks,
    // in turn, the core complex whose members currently have the most
    // unmet extra demand, then absorbs up to |anchor| − 1 of those
    // members (strict-subset invariant). One unit per protein per group;
    // a protein may appear in several groups sharing an anchor.
    let mut remaining = extras.clone();
    let mut group: Vec<Vec<u32>> = vec![Vec::new(); N_PERIPHERY_C];
    for (j, slot) in group.iter_mut().enumerate().take(N_HUB_PERIPHERY) {
        let best = (0..54)
            .max_by_key(|&c| {
                let cap = block[c].len() - 1;
                let absorb = block[c]
                    .iter()
                    .filter(|&&p| remaining[p as usize] > 0)
                    .count()
                    .min(cap);
                // Bottleneck first: a protein with r units left needs r
                // distinct groups anchored at its complexes, so the
                // current maximum-remaining protein dominates the score.
                let bottleneck = block[c]
                    .iter()
                    .map(|&p| remaining[p as usize])
                    .max()
                    .unwrap_or(0);
                (
                    bottleneck,
                    absorb,
                    mix(seed ^ 0xaaaa ^ ((j as u64) << 8) ^ c as u64),
                )
            })
            .expect("54 core complexes");
        let cap = block[best].len() - 1;
        // Members by descending remaining demand, stable by id.
        let mut candidates: Vec<u32> = block[best]
            .iter()
            .copied()
            .filter(|&p| remaining[p as usize] > 0)
            .collect();
        candidates.sort_by_key(|&p| (std::cmp::Reverse(remaining[p as usize]), p));
        for &p in candidates.iter().take(cap) {
            slot.push(p);
            remaining[p as usize] -= 1;
        }
        slot.sort_unstable();
    }
    assert!(
        remaining.iter().all(|&r| r == 0),
        "unplaced core extras remain: {remaining:?}"
    );
    for (j, g) in group.iter().enumerate() {
        complexes[54 + j] = g.clone();
    }

    // ---- layer 3: knit the giant component ------------------------------
    let mut next_vertex = 41u32;

    // Linkers: complex j joins its hub parent, giving a 2-level tree over
    // the giant complexes (small-world core) with a 3-link chain appendage
    // (complexes 96..99) that realizes the paper's diameter of 6.
    for j in 1..CELLZOME_GIANT_COMPLEXES {
        let parent = if j == CHAIN_START {
            0 // chain hangs off the hub: farthest pair = 6 hyperedges
        } else if j > CHAIN_START {
            j - 1
        } else if j < 9 {
            0
        } else {
            j % 9
        };
        let v = next_vertex;
        next_vertex += 1;
        complexes[j].push(v);
        complexes[parent].push(v);
    }
    debug_assert_eq!(next_vertex as usize, 41 + N_GIANT_LINKERS);

    // Degree-2..5 proteins with random distinct giant complexes.
    for (count, degree) in [
        (N_GIANT_D2, 2usize),
        (N_GIANT_D3, 3),
        (N_GIANT_D4, 4),
        (N_GIANT_D5, 5),
    ] {
        for _ in 0..count {
            let v = next_vertex;
            next_vertex += 1;
            let mut picked: Vec<usize> = Vec::with_capacity(degree);
            while picked.len() < degree {
                // Random members avoid the chain so it stays a genuine
                // appendage rather than being short-circuited.
                let c = rng.gen_range(0..CHAIN_START);
                if !picked.contains(&c) {
                    picked.push(c);
                    complexes[c].push(v);
                }
            }
        }
    }

    // Degree-1 decorations: one big complex, a floor for the core
    // complexes (which guarantees unique private members, keeping them
    // maximal in the raw hypergraph), remainder spread over the periphery.
    {
        let mut budget = N_GIANT_D1;
        let mut decorate = |c: usize, n: usize, next_vertex: &mut u32, budget: &mut usize| {
            let n = n.min(*budget);
            for _ in 0..n {
                complexes[c].push(*next_vertex);
                *next_vertex += 1;
            }
            *budget -= n;
        };
        decorate(BIG_COMPLEX, BIG_DECORATIONS, &mut next_vertex, &mut budget);
        for c in 0..54 {
            decorate(c, 3, &mut next_vertex, &mut budget);
        }
        for c in CHAIN_START..CELLZOME_GIANT_COMPLEXES {
            decorate(c, 8, &mut next_vertex, &mut budget);
        }
        while budget > 0 {
            let c = 54 + rng.gen_range(0..N_HUB_PERIPHERY);
            decorate(c, 1, &mut next_vertex, &mut budget);
        }
    }
    debug_assert_eq!(next_vertex as usize, CELLZOME_GIANT_PROTEINS);

    // ---- layer 4: small components --------------------------------------
    let mut next_complex = 99usize;
    // 24 type-A components: 3 proteins, 4 complexes (degrees 3,3,3).
    for _ in 0..24 {
        let (a, b, c) = (next_vertex, next_vertex + 1, next_vertex + 2);
        next_vertex += 3;
        for pat in [vec![a, b, c], vec![a, b], vec![b, c], vec![a, c]] {
            complexes[next_complex] = pat;
            next_complex += 1;
        }
    }
    // 4 type-B components: 5 proteins, 7 complexes (degrees 4 each).
    for _ in 0..4 {
        let v: Vec<u32> = (0..5).map(|i| next_vertex + i).collect();
        next_vertex += 5;
        let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
        for pat in [
            vec![a, b, c, d, e],
            vec![a, b, c],
            vec![c, d, e],
            vec![a, b],
            vec![d, e],
            vec![b, c, d],
            vec![a, e],
        ] {
            complexes[next_complex] = pat;
            next_complex += 1;
        }
    }
    // 1 type-C component: 3 proteins, 6 complexes (degrees 5,5,4), with
    // the duplicate complexes raw pull-down data contains.
    {
        let (a, b, c) = (next_vertex, next_vertex + 1, next_vertex + 2);
        next_vertex += 3;
        for pat in [
            vec![a, b, c],
            vec![a, b, c],
            vec![a, b],
            vec![b, c],
            vec![a, c],
            vec![a, b],
        ] {
            complexes[next_complex] = pat;
            next_complex += 1;
        }
    }
    debug_assert_eq!(next_complex, 229);

    // 3 singleton complexes.
    let mut singleton_complexes = Vec::new();
    for s in 0..3 {
        complexes[229 + s] = vec![next_vertex];
        next_vertex += 1;
        singleton_complexes.push(EdgeId(229 + s as u32));
    }
    debug_assert_eq!(next_vertex as usize, CELLZOME_PROTEINS);

    // ---- assemble --------------------------------------------------------
    let mut builder = HypergraphBuilder::new(CELLZOME_PROTEINS);
    for members in &complexes {
        builder.add_edge(members.iter().copied());
    }
    let hypergraph = builder.build();

    CellzomeDataset {
        hypergraph,
        names: protein_names(CELLZOME_PROTEINS, Some(0)),
        core_proteins: (0..41).map(VertexId).collect(),
        core_complexes: (0..54).map(EdgeId).collect(),
        singleton_complexes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{hypergraph_components, max_core, vertex_degree_histogram};

    fn dataset() -> CellzomeDataset {
        cellzome_like(CELLZOME_SEED)
    }

    #[test]
    fn headline_counts() {
        let d = dataset();
        assert_eq!(d.hypergraph.num_vertices(), CELLZOME_PROTEINS);
        assert_eq!(d.hypergraph.num_edges(), CELLZOME_COMPLEXES);
        assert_eq!(d.names.len(), CELLZOME_PROTEINS);
        assert_eq!(d.names[0], "ADH1");
    }

    #[test]
    fn degree_one_and_max_degree() {
        let d = dataset();
        let hist = vertex_degree_histogram(&d.hypergraph);
        assert_eq!(hist[1], CELLZOME_DEGREE_ONE);
        assert_eq!(hist.len() - 1, CELLZOME_MAX_DEGREE);
        assert_eq!(hist[CELLZOME_MAX_DEGREE], 1);
        // The unique max-degree protein is ADH1 (vertex 0).
        assert_eq!(d.hypergraph.vertex_degree(VertexId(0)), CELLZOME_MAX_DEGREE);
    }

    #[test]
    fn component_structure() {
        let d = dataset();
        let cc = hypergraph_components(&d.hypergraph);
        assert_eq!(cc.count(), CELLZOME_COMPONENTS);
        let big = cc.largest().unwrap();
        assert_eq!(cc.summary[big].num_vertices, CELLZOME_GIANT_PROTEINS);
        assert_eq!(cc.summary[big].num_edges, CELLZOME_GIANT_COMPLEXES);
    }

    #[test]
    fn maximum_core_is_planted_six_core() {
        let d = dataset();
        let mc = max_core(&d.hypergraph).expect("non-empty core");
        assert_eq!(mc.k, CELLZOME_MAX_CORE);
        assert_eq!(mc.vertices.len(), CELLZOME_CORE_PROTEINS);
        assert_eq!(mc.edges.len(), CELLZOME_CORE_COMPLEXES);
        assert_eq!(mc.vertices, d.core_proteins);
        assert_eq!(mc.edges, d.core_complexes);
    }

    #[test]
    fn power_law_fit_close_to_paper() {
        let d = dataset();
        let hist = vertex_degree_histogram(&d.hypergraph);
        let fit = hypergraph::fit_power_law(&hist).expect("fit");
        assert!(
            (2.2..=2.9).contains(&fit.gamma),
            "gamma = {} (paper: 2.528)",
            fit.gamma
        );
        assert!(
            fit.r_squared > 0.93,
            "R² = {} (paper: 0.963)",
            fit.r_squared
        );
        assert!(
            (2.8..=3.5).contains(&fit.log10_c),
            "log c = {} (paper: 3.161)",
            fit.log10_c
        );
    }

    #[test]
    fn singletons_are_singletons() {
        let d = dataset();
        assert_eq!(d.singleton_complexes.len(), 3);
        for &f in &d.singleton_complexes {
            assert_eq!(d.hypergraph.edge_degree(f), 1);
        }
    }

    #[test]
    fn complex_sizes_shape() {
        let d = dataset();
        let max_size = d.hypergraph.max_edge_degree();
        assert!(
            (80..=95).contains(&max_size),
            "largest complex = {max_size}"
        );
        let mean = d.hypergraph.num_pins() as f64 / d.hypergraph.num_edges() as f64;
        assert!((6.0..=14.0).contains(&mean), "mean complex size = {mean}");
    }

    #[test]
    fn deterministic() {
        let a = cellzome_like(7);
        let b = cellzome_like(7);
        assert_eq!(
            hypergraph::io::write_hgr(&a.hypergraph),
            hypergraph::io::write_hgr(&b.hypergraph)
        );
    }

    #[test]
    fn small_world_properties() {
        let d = dataset();
        let cc = hypergraph_components(&d.hypergraph);
        let big = cc.largest().unwrap();
        let (giant, _, _) = cc.extract(&d.hypergraph, big);
        let stats = hypergraph::msbfs_distance_stats(&giant);
        assert!(
            (4..=8).contains(&stats.diameter),
            "diameter = {} (paper: 6)",
            stats.diameter
        );
        assert!(
            (1.8..=3.5).contains(&stats.average_path_length),
            "APL = {} (paper: 2.568)",
            stats.average_path_length
        );
    }

    #[test]
    fn core_complexes_maximal_in_raw_hypergraph() {
        let d = dataset();
        let dead = hypergraph::non_maximal_edges(&d.hypergraph);
        for f in &dead {
            assert!(
                f.0 >= 54,
                "core or giant-structural complex {f:?} is non-maximal"
            );
        }
    }

    #[test]
    fn block_contents_pairwise_non_contained() {
        let block = build_core_block(CELLZOME_SEED);
        assert!(find_containment(&block).is_none());
        assert!(find_disconnection(&block).is_none());
        // Every protein appears in exactly 6 complexes; sizes are 4 or 5.
        let mut deg = vec![0usize; 41];
        for m in &block {
            assert!(m.len() == 4 || m.len() == 5, "size {}", m.len());
            for &p in m {
                deg[p as usize] += 1;
            }
        }
        assert!(deg.iter().all(|&d| d == 6));
    }
}
