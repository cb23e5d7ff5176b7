//! Level-synchronous parallel hypergraph k-core.
//!
//! Rounds alternate two parallel phases until a fixpoint:
//!
//! 1. **Vertex phase** — every alive vertex with degree < k is claimed
//!    (CAS on its liveness flag) and removed; the degrees of its alive
//!    hyperedges are decremented atomically.
//! 2. **Edge phase** — every hyperedge whose degree changed is re-checked
//!    for maximality against the post-phase snapshot by a direct
//!    sorted-subset test over alive pins (the sequential algorithm's
//!    overlap counters are replaced by direct tests because they
//!    parallelize poorly; the subset test reads only snapshot state, so
//!    the phase is embarrassingly parallel). Non-maximal hyperedges are
//!    deleted and their members' degrees decremented, feeding phase 1 of
//!    the next round.
//!
//! Deleting a hyperedge cannot make another hyperedge non-maximal, and
//! deleting a vertex shrinks containment *candidates* monotonically, so
//! checking only degree-decremented hyperedges each round is exhaustive —
//! the same argument the paper makes for the sequential algorithm.
//!
//! The result equals the sequential [`hypergraph::hypergraph_kcore`] in
//! surviving vertices and surviving hyperedge contents (hyperedge *ids*
//! can differ only between identical duplicate contents, where both
//! algorithms keep exactly one copy).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use rayon::prelude::*;

use hgobs::{Deadline, DeadlineExceeded};
use hypergraph::{EdgeId, Hypergraph, KCore, VertexId};

struct State<'h> {
    h: &'h Hypergraph,
    alive_v: Vec<AtomicBool>,
    alive_e: Vec<AtomicBool>,
    deg_v: Vec<AtomicU32>,
    deg_e: Vec<AtomicU32>,
}

impl<'h> State<'h> {
    fn new(h: &'h Hypergraph) -> Self {
        State {
            h,
            alive_v: (0..h.num_vertices())
                .map(|_| AtomicBool::new(true))
                .collect(),
            alive_e: (0..h.num_edges()).map(|_| AtomicBool::new(true)).collect(),
            deg_v: h
                .vertices()
                .map(|v| AtomicU32::new(h.vertex_degree(v) as u32))
                .collect(),
            deg_e: h
                .edges()
                .map(|f| AtomicU32::new(h.edge_degree(f) as u32))
                .collect(),
        }
    }

    #[inline]
    fn v_alive(&self, v: usize) -> bool {
        self.alive_v[v].load(Ordering::Acquire)
    }

    #[inline]
    fn e_alive(&self, f: usize) -> bool {
        self.alive_e[f].load(Ordering::Acquire)
    }

    /// Alive pins of `f`, sorted (pins are stored sorted).
    fn alive_pins(&self, f: usize) -> impl Iterator<Item = u32> + '_ {
        self.h
            .pins(EdgeId(f as u32))
            .iter()
            .map(|v| v.0)
            .filter(move |&v| self.v_alive(v as usize))
    }

    /// `true` iff alive edge `f` is empty or contained in an alive edge
    /// `g` (strictly larger, or identical with smaller id). Snapshot
    /// semantics: callers only invoke this between phases.
    fn is_non_maximal(&self, f: usize) -> bool {
        let df = self.deg_e[f].load(Ordering::Relaxed);
        if df == 0 {
            return true;
        }
        // Candidate supersets: alive edges sharing the first alive pin of
        // f (any superset must contain every pin, so the first suffices).
        let Some(first) = self.alive_pins(f).next() else {
            return true;
        };
        self.h
            .edges_of(VertexId(first))
            .iter()
            .map(|g| g.index())
            .filter(|&g| g != f && self.e_alive(g))
            .any(|g| {
                let dg = self.deg_e[g].load(Ordering::Relaxed);
                let wins = dg > df || (dg == df && g < f);
                wins && is_alive_subset(self, f, g)
            })
    }
}

/// `true` iff alive pins of `f` ⊆ alive pins of `g` (both sorted).
fn is_alive_subset(s: &State<'_>, f: usize, g: usize) -> bool {
    let mut git = s.alive_pins(g).peekable();
    for x in s.alive_pins(f) {
        loop {
            match git.peek() {
                None => return false,
                Some(&y) if y < x => {
                    git.next();
                }
                Some(&y) if y == x => {
                    git.next();
                    break;
                }
                Some(_) => return false,
            }
        }
    }
    true
}

/// Parallel k-core (level-synchronous). See the module docs for the
/// algorithm and its equivalence to the sequential version.
pub fn par_hypergraph_kcore(h: &Hypergraph, k: u32) -> KCore {
    match par_hypergraph_kcore_with(h, k, &Deadline::none()) {
        Ok(core) => core,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`par_hypergraph_kcore`] under a cooperative [`Deadline`]. The clock
/// is read at every phase barrier (round top and between the edge and
/// vertex phases), latching the shared flag that the per-item filter
/// closures poll with a relaxed load — so overshoot is bounded by one
/// parallel phase. The error's `work_done` counts vertices peeled by
/// completed rounds.
pub fn par_hypergraph_kcore_with(
    h: &Hypergraph,
    k: u32,
    deadline: &Deadline,
) -> Result<KCore, DeadlineExceeded> {
    let _span = hgobs::Span::enter("kcore.par");
    let s = State::new(h);
    let mut rounds: u64 = 0;
    let mut peeled: u64 = 0;

    // Initial edge phase: reduce the input (all edges are "affected").
    let mut affected: Vec<u32> = (0..h.num_edges() as u32).collect();
    loop {
        rounds += 1;
        deadline.check("kcore.par.round", peeled)?;
        // ---- edge phase: delete non-maximal affected edges ----
        let dead_edges: Vec<u32> = affected
            .par_iter()
            .copied()
            .filter(|&f| {
                !deadline.cancelled() && s.e_alive(f as usize) && s.is_non_maximal(f as usize)
            })
            .collect();
        // A cancellation latched mid-filter may have skipped edges; bail
        // before applying a partial phase rather than act on it.
        deadline.check("kcore.par.edge_phase", peeled)?;
        // Claim and apply deletions (parallel; CAS makes claims unique).
        dead_edges.par_iter().for_each(|&f| {
            let f = f as usize;
            if s.alive_e[f]
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for &w in h.pins(EdgeId(f as u32)) {
                    if s.v_alive(w.index()) {
                        s.deg_v[w.index()].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        });

        // ---- vertex phase: peel everything under the threshold ----
        let frontier: Vec<u32> = (0..h.num_vertices() as u32)
            .into_par_iter()
            .filter(|&v| {
                !deadline.cancelled()
                    && s.v_alive(v as usize)
                    && s.deg_v[v as usize].load(Ordering::Relaxed) < k
            })
            .collect();
        // Same guard: a partial frontier must never feed the break
        // condition or the peel below.
        deadline.check("kcore.par.vertex_phase", peeled)?;
        hgobs::hist!("kcore.par.frontier", frontier.len());
        if frontier.is_empty() && dead_edges.is_empty() {
            break;
        }
        if frontier.is_empty() {
            // Edge deletions happened but no vertex fell below k; the
            // next edge phase has nothing new to check (edge deletion
            // cannot create containment), so we are done unless degrees
            // changed — which they did only for vertices. Re-loop with an
            // empty affected set to hit the emptiness check above.
            affected = Vec::new();
            continue;
        }
        let next_affected: Vec<u32> = {
            frontier.par_iter().for_each(|&v| {
                let v = v as usize;
                if s.alive_v[v]
                    .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    for &f in h.edges_of(VertexId(v as u32)) {
                        if s.e_alive(f.index()) {
                            s.deg_e[f.index()].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
            });
            // Affected edges: alive edges touching any peeled vertex.
            let mut edges: Vec<u32> = frontier
                .par_iter()
                .flat_map_iter(|&v| {
                    h.edges_of(VertexId(v))
                        .iter()
                        .map(|f| f.0)
                        .filter(|&f| s.e_alive(f as usize))
                        .collect::<Vec<_>>()
                })
                .collect();
            edges.par_sort_unstable();
            edges.dedup();
            edges
        };
        peeled += frontier.len() as u64;
        affected = next_affected;
    }

    hgobs::counter!("kcore.par.rounds", rounds);
    let keep_v: Vec<bool> = s
        .alive_v
        .iter()
        .map(|a| a.load(Ordering::Acquire))
        .collect();
    let keep_e: Vec<bool> = s
        .alive_e
        .iter()
        .map(|a| a.load(Ordering::Acquire))
        .collect();
    let (sub, vertices, edges) = h.sub_hypergraph(&keep_v, &keep_e, false);
    Ok(KCore {
        k,
        vertices,
        edges,
        sub,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{hypergraph_kcore, HypergraphBuilder};

    fn contents(h: &Hypergraph, core: &KCore) -> Vec<Vec<u32>> {
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

    fn assert_equivalent(h: &Hypergraph, k: u32) {
        let seq = hypergraph_kcore(h, k);
        let par = par_hypergraph_kcore(h, k);
        assert_eq!(seq.vertices, par.vertices, "k = {k}");
        assert_eq!(contents(h, &seq), contents(h, &par), "k = {k}");
    }

    #[test]
    fn matches_sequential_on_small_cases() {
        let cases: Vec<Hypergraph> = vec![
            {
                let mut b = HypergraphBuilder::new(6);
                b.add_edge([0, 1, 3]);
                b.add_edge([1, 2, 4]);
                b.add_edge([0, 2, 5]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(5);
                b.add_edge([0, 1, 2, 3, 4]);
                b.add_edge([0, 1, 2]);
                b.add_edge([0, 1]);
                b.add_edge([3, 4]);
                b.add_edge([]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(4);
                b.add_edge([0, 1]);
                b.add_edge([0, 1]);
                b.add_edge([1, 2]);
                b.add_edge([2, 3]);
                b.build()
            },
        ];
        for h in &cases {
            for k in 0..5 {
                assert_equivalent(h, k);
            }
        }
    }

    #[test]
    fn matches_sequential_on_planted_core() {
        let h = hypergen::planted_core_hypergraph(30, 40, 6, 200, 17);
        for k in 1..8 {
            assert_equivalent(&h, k);
        }
        let seq = hypergraph::max_core_bsearch(&h).unwrap();
        let par = crate::par_decompose(&h).max_core.unwrap();
        assert_eq!(seq.k, par.k);
        assert_eq!(seq.vertices, par.vertices);
    }

    #[test]
    fn matches_sequential_on_uniform_random() {
        for seed in 0..4u64 {
            let h = hypergen::uniform_random_hypergraph(60, 120, 4, seed);
            for k in 1..7 {
                assert_equivalent(&h, k);
            }
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let h = HypergraphBuilder::new(0).build();
        assert!(crate::par_decompose(&h).max_core.is_none());
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([]);
        let h = b.build();
        assert!(par_hypergraph_kcore(&h, 1).is_empty());
    }

    #[test]
    fn cancelled_deadline_aborts_before_first_phase_applies() {
        let h = hypergen::uniform_random_hypergraph(200, 300, 4, 21);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = par_hypergraph_kcore_with(&h, 2, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.par.round");
        assert_eq!(err.work_done, 0, "{err:?}");
        assert!(crate::par_decompose_with(&h, &dl).is_err());
    }

    #[test]
    fn unlimited_deadline_matches_plain_par_kcore() {
        let h = hypergen::uniform_random_hypergraph(60, 120, 4, 2);
        for k in 1..5 {
            let a = par_hypergraph_kcore(&h, k);
            let b = par_hypergraph_kcore_with(&h, k, &Deadline::none()).unwrap();
            assert_eq!(a.vertices, b.vertices, "k = {k}");
            assert_eq!(contents(&h, &a), contents(&h, &b), "k = {k}");
        }
    }

    #[test]
    fn core_invariants_hold() {
        let h = hypergen::uniform_random_hypergraph(40, 80, 5, 9);
        for k in 1..6 {
            let core = par_hypergraph_kcore(&h, k);
            hypergraph::validate::check_structure(&core.sub).unwrap();
            assert!(hypergraph::non_maximal_edges(&core.sub).is_empty());
            assert!(core
                .sub
                .vertices()
                .all(|v| core.sub.vertex_degree(v) >= k as usize));
        }
    }
}
