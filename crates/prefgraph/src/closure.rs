//! Cycle finding over the quotient graph (scenarios collapsed into
//! indifference classes).

use crate::graph::{EdgeId, PrefGraph};

/// Find a directed cycle among active edges (over indifference classes).
/// Returns the edge ids forming the cycle, or `None` if the graph is a DAG.
#[must_use]
pub fn find_cycle<S>(g: &PrefGraph<S>) -> Option<Vec<EdgeId>> {
    // Build the quotient adjacency once.
    let n = g.scenario_count();
    let mut adj: Vec<Vec<(usize, EdgeId)>> = vec![Vec::new(); n];
    for (i, e) in g.all_edges().iter().enumerate() {
        if e.removed {
            continue;
        }
        let u = g.class_of(e.preferred).index();
        let v = g.class_of(e.other).index();
        if u == v {
            // A strict edge within a class is a self-loop: a 1-cycle.
            return Some(vec![EdgeId(i)]);
        }
        adj[u].push((v, EdgeId(i)));
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; n];
    // Iterative DFS carrying the edge path.
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        // Stack of (node, next child index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path_edges: Vec<EdgeId> = Vec::new();
        let mut path_nodes: Vec<usize> = vec![start];
        color[start] = Color::Grey;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < adj[u].len() {
                let (v, eid) = adj[u][*next];
                *next += 1;
                match color[v] {
                    Color::Grey => {
                        // Found a cycle: slice the path from v onwards.
                        let pos = path_nodes.iter().position(|&x| x == v).expect("grey on path");
                        let mut cycle = path_edges[pos..].to_vec();
                        cycle.push(eid);
                        return Some(cycle);
                    }
                    Color::White => {
                        color[v] = Color::Grey;
                        stack.push((v, 0));
                        path_edges.push(eid);
                        path_nodes.push(v);
                    }
                    Color::Black => {}
                }
            } else {
                color[u] = Color::Black;
                stack.pop();
                path_nodes.pop();
                path_edges.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cycle_in_dag() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        let c = g.add_scenario(());
        g.prefer(a, b).unwrap();
        g.prefer(b, c).unwrap();
        g.prefer(a, c).unwrap();
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn finds_simple_cycle() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        let c = g.add_scenario(());
        g.prefer_unchecked(a, b, 1.0);
        g.prefer_unchecked(b, c, 1.0);
        g.prefer_unchecked(c, a, 1.0);
        let cyc = find_cycle(&g).expect("cycle");
        assert_eq!(cyc.len(), 3);
    }

    #[test]
    fn finds_cycle_through_indifference() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        let c = g.add_scenario(());
        g.prefer_unchecked(a, b, 1.0);
        g.mark_indifferent(b, c).unwrap();
        g.prefer_unchecked(c, a, 1.0);
        assert!(find_cycle(&g).is_some());
    }

    #[test]
    fn self_loop_via_class_is_one_cycle() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        g.mark_indifferent(a, b).unwrap();
        g.prefer_unchecked(a, b, 0.5);
        let cyc = find_cycle(&g).expect("self-loop cycle");
        assert_eq!(cyc.len(), 1);
    }
}
