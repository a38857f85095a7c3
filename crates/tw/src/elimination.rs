//! Treewidth via elimination orderings: heuristics, exact branch-and-bound,
//! and lower bounds.

use hp_guard::{Budget, Budgeted, Gauge, Stop};
use hp_structures::{BitSet, Graph};

use crate::decomposition::TreeDecomposition;

/// Build the tree decomposition induced by an elimination order.
///
/// Eliminating vertex `v` forms the bag `{v} ∪ N(v)` in the current (fill-in
/// accumulated) graph, connects the bag to the bag of the first later-
/// eliminated neighbor, and turns `N(v)` into a clique.
pub fn decomposition_from_order(g: &Graph, order: &[u32]) -> TreeDecomposition {
    let n = g.vertex_count();
    assert_eq!(order.len(), n, "order must list every vertex once");
    if n == 0 {
        return TreeDecomposition::new(vec![], vec![]);
    }
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i;
    }
    // Dense adjacency we can add fill edges to.
    let mut adj: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    for (u, v) in g.edges() {
        adj[u as usize].insert(v as usize);
        adj[v as usize].insert(u as usize);
    }
    let mut bags: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut eliminated = BitSet::new(n);
    for (i, &v) in order.iter().enumerate() {
        let later: Vec<u32> = adj[v as usize]
            .iter()
            .filter(|&u| !eliminated.contains(u))
            .map(|u| u as u32)
            .collect();
        let mut bag = later.clone();
        bag.push(v);
        bags.push(bag);
        // Fill-in among later neighbors.
        for a in 0..later.len() {
            for b in (a + 1)..later.len() {
                adj[later[a] as usize].insert(later[b] as usize);
                adj[later[b] as usize].insert(later[a] as usize);
            }
        }
        eliminated.insert(v as usize);
        // Tree edge: connect to the earliest-later neighbor's bag.
        if let Some(&next) = later.iter().min_by_key(|&&u| pos[u as usize]) {
            edges.push((i, pos[next as usize]));
        } else if i + 1 < n {
            // Disconnected remainder: chain to the next bag to keep a tree.
            edges.push((i, i + 1));
        }
    }
    TreeDecomposition::new(bags, edges)
}

/// Width of the elimination order (max back-degree with fill-in), computed
/// without materializing the decomposition.
pub fn order_width(g: &Graph, order: &[u32]) -> usize {
    let n = g.vertex_count();
    let mut adj: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    for (u, v) in g.edges() {
        adj[u as usize].insert(v as usize);
        adj[v as usize].insert(u as usize);
    }
    let mut eliminated = BitSet::new(n);
    let mut width = 0;
    for &v in order {
        let later: Vec<usize> = adj[v as usize]
            .iter()
            .filter(|&u| !eliminated.contains(u))
            .collect();
        width = width.max(later.len());
        for a in 0..later.len() {
            for b in (a + 1)..later.len() {
                adj[later[a]].insert(later[b]);
                adj[later[b]].insert(later[a]);
            }
        }
        eliminated.insert(v as usize);
    }
    width
}

/// Greedy **min-degree** elimination heuristic: an upper bound on treewidth
/// plus the witnessing decomposition.
pub fn min_degree_order(g: &Graph) -> Vec<u32> {
    greedy_order(g, |later_deg, _fill| later_deg)
}

/// Greedy **min-fill** elimination heuristic (usually tighter than
/// min-degree).
pub fn min_fill_order(g: &Graph) -> Vec<u32> {
    greedy_order(g, |_later_deg, fill| fill)
}

fn greedy_order(g: &Graph, score: impl Fn(usize, usize) -> usize) -> Vec<u32> {
    let n = g.vertex_count();
    let mut adj: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    for (u, v) in g.edges() {
        adj[u as usize].insert(v as usize);
        adj[v as usize].insert(u as usize);
    }
    let mut alive = BitSet::full(n);
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // Pick the alive vertex with the best score.
        let mut best: Option<(usize, usize)> = None;
        for v in alive.iter() {
            let nbrs: Vec<usize> = adj[v].iter().filter(|&u| alive.contains(u)).collect();
            let deg = nbrs.len();
            let mut fill = 0;
            for a in 0..nbrs.len() {
                for b in (a + 1)..nbrs.len() {
                    if !adj[nbrs[a]].contains(nbrs[b]) {
                        fill += 1;
                    }
                }
            }
            let s = score(deg, fill);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((v, s));
            }
        }
        let (v, _) = best.expect("alive vertex exists");
        let nbrs: Vec<usize> = adj[v].iter().filter(|&u| alive.contains(u)).collect();
        for a in 0..nbrs.len() {
            for b in (a + 1)..nbrs.len() {
                adj[nbrs[a]].insert(nbrs[b]);
                adj[nbrs[b]].insert(nbrs[a]);
            }
        }
        alive.remove(v);
        order.push(v as u32);
    }
    order
}

/// Upper bound on the treewidth of `g`, with a validated decomposition: the
/// better of min-degree and min-fill.
pub fn treewidth_upper_bound(g: &Graph) -> (usize, TreeDecomposition) {
    let td = decomposition_from_order(g, &heuristic_order(g).1);
    (td.width(), td)
}

/// The better of the min-fill and min-degree orders, with its width.
fn heuristic_order(g: &Graph) -> (usize, Vec<u32>) {
    let o1 = min_fill_order(g);
    let o2 = min_degree_order(g);
    let (w1, w2) = (order_width(g, &o1), order_width(g, &o2));
    if w1 <= w2 {
        (w1, o1)
    } else {
        (w2, o2)
    }
}

/// The **degeneracy** of `g` (max over subgraphs of the min degree): a lower
/// bound on treewidth, computed by repeatedly removing a minimum-degree
/// vertex.
pub fn degeneracy(g: &Graph) -> usize {
    let n = g.vertex_count();
    let mut alive = BitSet::full(n);
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();
    let mut best = 0;
    for _ in 0..n {
        let v = alive
            .iter()
            .min_by_key(|&v| deg[v])
            .expect("alive vertex exists");
        best = best.max(deg[v]);
        alive.remove(v);
        for &u in g.neighbors(v as u32) {
            if alive.contains(u as usize) {
                deg[u as usize] -= 1;
            }
        }
    }
    best
}

/// Exact treewidth by branch-and-bound over elimination orders (QuickBB
/// style, with simplicial-vertex shortcuts and upper/lower-bound pruning).
///
/// Exponential; intended for graphs up to ~25 vertices (canonical structures
/// of `CQ^k` formulas, minor gadgets, small random models).
pub fn treewidth_exact(g: &Graph) -> usize {
    treewidth_exact_with_budget(g, &Budget::unlimited())
        .unwrap_or_else(|_| unreachable!("an unlimited budget cannot exhaust"))
}

/// Budgeted [`treewidth_exact`]: the branch-and-bound charges one fuel
/// unit per search node. On exhaustion the partial is the **treewidth
/// bracket** `(lower, upper)` established so far — `lower` from
/// degeneracy, `upper` from the heuristics improved by every completed
/// branch — so an interrupted run still reports rigorous bounds.
pub fn treewidth_exact_with_budget(g: &Graph, budget: &Budget) -> Budgeted<usize, (usize, usize)> {
    exact_order(g, budget).map(|(width, _)| width)
}

/// An elimination order of the exact treewidth, with that width, from one
/// branch-and-bound; the partial as in [`treewidth_exact_with_budget`].
fn exact_order(g: &Graph, budget: &Budget) -> Budgeted<(usize, Vec<u32>), (usize, usize)> {
    let n = g.vertex_count();
    if n == 0 {
        return Ok((0, Vec::new()));
    }
    let (ub, order) = heuristic_order(g);
    let lb = degeneracy(g);
    if lb >= ub {
        return Ok((ub, order));
    }
    let mut search = Search::new(g, ub, lb, budget);
    search.best = order;
    match search.branch(&BitSet::full(n), 0) {
        Ok(()) => Ok((search.ub, search.best)),
        Err(stop) => Err(stop.with_partial((lb, search.ub))),
    }
}

/// Branch-and-bound over elimination orders (QuickBB style): the fill-in
/// graph, the order being extended, and the best order found, of width
/// `ub`. The search looks only for orders narrower than `ub` and stops
/// once `ub <= lb`.
struct Search {
    adj: Vec<BitSet>,
    prefix: Vec<u32>,
    best: Vec<u32>,
    ub: usize,
    lb: usize,
    gauge: Gauge,
}

impl Search {
    fn new(g: &Graph, ub: usize, lb: usize, budget: &Budget) -> Search {
        let n = g.vertex_count();
        let mut adj: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for (u, v) in g.edges() {
            adj[u as usize].insert(v as usize);
            adj[v as usize].insert(u as usize);
        }
        Search {
            adj,
            prefix: Vec::with_capacity(n),
            best: Vec::new(),
            ub,
            lb,
            gauge: budget.gauge(),
        }
    }

    /// One search node: the `alive` vertices remain, and eliminating the
    /// prefix reached `width`. Charges one fuel unit.
    fn branch(&mut self, alive: &BitSet, width: usize) -> Result<(), Stop> {
        self.gauge.tick(1)?;
        if width >= self.ub {
            return Ok(());
        }
        let live: Vec<usize> = alive.iter().collect();
        // Everything alive fits under `width` as one clique bag.
        if live.len() <= width + 1 {
            self.ub = width;
            self.best = self.prefix.clone();
            self.best.extend(live.iter().map(|&v| v as u32));
            return Ok(());
        }
        let nbrs = |adj: &[BitSet], v: usize| -> Vec<usize> {
            adj[v].iter().filter(|&u| alive.contains(u)).collect()
        };
        // Simplicial shortcut: a vertex whose alive neighborhood is a clique
        // can always be eliminated first, without loss.
        for &v in &live {
            let nbrs = nbrs(&self.adj, v);
            let is_clique = nbrs
                .iter()
                .enumerate()
                .all(|(i, &a)| nbrs[i + 1..].iter().all(|&b| self.adj[a].contains(b)));
            if is_clique {
                let w = width.max(nbrs.len());
                if w >= self.ub {
                    return Ok(());
                }
                return self.eliminate(alive, v, &nbrs, w);
            }
        }
        // Branch on each alive vertex.
        for &v in &live {
            let nbrs = nbrs(&self.adj, v);
            let w = width.max(nbrs.len());
            if w >= self.ub {
                continue;
            }
            self.eliminate(alive, v, &nbrs, w)?;
            if self.ub <= self.lb {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Eliminate `v`, whose alive neighbours are `nbrs`, search on, and
    /// undo the fill-in.
    fn eliminate(
        &mut self,
        alive: &BitSet,
        v: usize,
        nbrs: &[usize],
        w: usize,
    ) -> Result<(), Stop> {
        let mut added: Vec<(usize, usize)> = Vec::new();
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if !self.adj[a].contains(b) {
                    self.adj[a].insert(b);
                    self.adj[b].insert(a);
                    added.push((a, b));
                }
            }
        }
        let mut alive2 = alive.clone();
        alive2.remove(v);
        self.prefix.push(v as u32);
        let branch = self.branch(&alive2, w);
        self.prefix.pop();
        for (a, b) in added {
            self.adj[a].remove(b);
            self.adj[b].remove(a);
        }
        branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::{
        binary_tree, clique, complete_bipartite, cycle, grid, ktree, path, random_tree, star, wheel,
    };

    #[test]
    fn path_has_treewidth_1() {
        let g = path(8);
        assert_eq!(treewidth_exact(&g), 1);
        let (ub, td) = treewidth_upper_bound(&g);
        assert_eq!(ub, 1);
        td.validate(&g).unwrap();
    }

    #[test]
    fn trees_have_treewidth_1() {
        for seed in 0..4 {
            let g = random_tree(20, seed);
            assert_eq!(treewidth_exact(&g), 1, "seed {seed}");
        }
        assert_eq!(treewidth_exact(&binary_tree(3)), 1);
        assert_eq!(treewidth_exact(&star(7)), 1);
    }

    #[test]
    fn cycles_have_treewidth_2() {
        for n in [3usize, 5, 8] {
            assert_eq!(treewidth_exact(&cycle(n)), 2, "C_{n}");
        }
    }

    #[test]
    fn cliques_have_treewidth_n_minus_1() {
        for n in 2..7 {
            assert_eq!(treewidth_exact(&clique(n)), n - 1, "K_{n}");
        }
    }

    #[test]
    fn ktrees_have_treewidth_k() {
        assert_eq!(treewidth_exact(&ktree(2, 10)), 2);
        assert_eq!(treewidth_exact(&ktree(3, 9)), 3);
    }

    #[test]
    fn grids_have_treewidth_min_side() {
        assert_eq!(treewidth_exact(&grid(2, 5)), 2);
        assert_eq!(treewidth_exact(&grid(3, 3)), 3);
        assert_eq!(treewidth_exact(&grid(3, 4)), 3);
    }

    #[test]
    fn complete_bipartite_treewidth() {
        // tw(K_{a,b}) = min(a,b) for a,b >= 1.
        assert_eq!(treewidth_exact(&complete_bipartite(2, 4)), 2);
        assert_eq!(treewidth_exact(&complete_bipartite(3, 3)), 3);
    }

    #[test]
    fn wheels_have_treewidth_3() {
        for n in [3usize, 5, 8] {
            assert_eq!(treewidth_exact(&wheel(n)), 3, "W_{n}");
        }
    }

    #[test]
    fn upper_bound_decompositions_are_valid() {
        for g in [grid(3, 4), cycle(7), ktree(3, 12), complete_bipartite(3, 5)] {
            let (w, td) = treewidth_upper_bound(&g);
            td.validate(&g).unwrap();
            assert_eq!(td.width(), w);
            assert!(w >= degeneracy(&g));
        }
    }

    #[test]
    fn degeneracy_lower_bound() {
        assert_eq!(degeneracy(&clique(5)), 4);
        assert_eq!(degeneracy(&path(6)), 1);
        assert_eq!(degeneracy(&cycle(6)), 2);
        assert_eq!(degeneracy(&grid(3, 3)), 2); // grids are 2-degenerate
    }

    #[test]
    fn order_width_matches_decomposition_width() {
        let g = grid(3, 3);
        for order in [min_degree_order(&g), min_fill_order(&g)] {
            let w = order_width(&g, &order);
            let td = decomposition_from_order(&g, &order);
            td.validate(&g).unwrap();
            assert_eq!(td.width(), w);
        }
    }

    #[test]
    fn disconnected_graphs_handled() {
        // Two disjoint triangles.
        let mut g = hp_structures::Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(a, b);
        }
        assert_eq!(treewidth_exact(&g), 2);
        let (w, td) = treewidth_upper_bound(&g);
        assert_eq!(w, 2);
        td.validate(&g).unwrap();
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(treewidth_exact(&hp_structures::Graph::new(0)), 0);
        assert_eq!(treewidth_exact(&hp_structures::Graph::new(1)), 0);
        assert_eq!(treewidth_exact(&hp_structures::Graph::new(5)), 0); // edgeless
    }
}

/// Find an elimination order of width ≤ `target`, if one exists — the
/// witness-producing companion to [`treewidth_exact`] (call with
/// `target = treewidth_exact(g)` for an optimal order; feed the result to
/// [`decomposition_from_order`] for the optimal tree decomposition).
pub fn elimination_order_of_width(g: &Graph, target: usize) -> Option<Vec<u32>> {
    let mut search = Search::new(g, target + 1, target, &Budget::unlimited());
    search
        .branch(&BitSet::full(g.vertex_count()), 0)
        .unwrap_or_else(|_| unreachable!("an unlimited budget cannot exhaust"));
    (search.ub <= target).then_some(search.best)
}

/// Exact treewidth **with the optimal tree decomposition** as a witness,
/// both from one branch-and-bound.
pub fn treewidth_exact_decomposition(g: &Graph) -> (usize, TreeDecomposition) {
    let (w, order) = exact_order(g, &Budget::unlimited())
        .unwrap_or_else(|_| unreachable!("an unlimited budget cannot exhaust"));
    let td = decomposition_from_order(g, &order);
    debug_assert_eq!(td.width(), w);
    (w, td)
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use hp_structures::generators::{cycle, grid, ktree, random_partial_ktree, wheel};

    #[test]
    fn exact_decomposition_witnesses_known_families() {
        for (g, w) in [
            (cycle(7), 2usize),
            (grid(3, 3), 3),
            (ktree(3, 9), 3),
            (wheel(6), 3),
        ] {
            let (found, td) = treewidth_exact_decomposition(&g);
            assert_eq!(found, w);
            td.validate(&g).unwrap();
            assert_eq!(td.width(), w);
        }
    }

    #[test]
    fn order_of_width_rejects_too_small_targets() {
        let g = grid(3, 3); // treewidth 3
        assert!(elimination_order_of_width(&g, 2).is_none());
        assert!(elimination_order_of_width(&g, 3).is_some());
    }

    #[test]
    fn exact_decomposition_on_random_partial_ktrees() {
        for seed in 0..3 {
            let g = random_partial_ktree(2, 14, 0.85, seed);
            let (w, td) = treewidth_exact_decomposition(&g);
            assert!(w <= 2);
            td.validate(&g).unwrap();
            assert_eq!(td.width(), w);
        }
    }

    #[test]
    fn budgeted_exact_treewidth_brackets_on_exhaustion() {
        let g = grid(4, 4); // treewidth 4, nontrivial branch-and-bound
        let exact = treewidth_exact(&g);
        assert_eq!(
            treewidth_exact_with_budget(&g, &Budget::unlimited()).unwrap(),
            exact
        );
        let e = treewidth_exact_with_budget(&g, &Budget::fuel(1))
            .expect_err("one search node cannot close a 4x4 grid");
        assert_eq!(e.resource, hp_guard::Resource::Fuel);
        let (lb, ub) = e.partial;
        assert!(
            lb <= exact && exact <= ub,
            "bracket [{lb}, {ub}] vs {exact}"
        );
    }
}
