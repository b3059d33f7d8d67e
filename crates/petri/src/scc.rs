//! Strongly connected components of a directed graph: Tarjan's algorithm
//! on an explicit stack, so a graph of any depth runs in a fixed amount of
//! thread stack. The static and the dynamic lock-order graphs both find
//! their cycles with it.

/// The strongly connected components of the graph whose node `v` has the
/// successors `adj[v]`, in Tarjan's emission order: roots are tried in
/// index order and successors in `adj` order, and a component is emitted
/// once every component it reaches has been. Each component lists its
/// members in the order they leave the Tarjan stack, its DFS root last.
pub fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = adj.len();
    let mut index = vec![UNSEEN; n];
    let mut lowlink = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut next_index = 0;
    // The DFS in progress: each frame is a node and the position of the
    // next successor to try.
    let mut calls: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        while let Some(&(v, i)) = calls.last() {
            if index[v] == UNSEEN {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(i) {
                calls.last_mut().expect("v's frame").1 += 1;
                if index[w] == UNSEEN {
                    calls.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[v]);
            }
            if lowlink[v] == index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().expect("v is still on the stack");
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                sccs.push(scc);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_come_out_sinks_first_in_pop_order() {
        // 0 -> 1 <-> 2 -> 3, and 4 on its own with a self-loop.
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![], vec![4]];
        assert_eq!(
            tarjan_scc(&adj),
            vec![vec![3], vec![2, 1], vec![0], vec![4]]
        );
    }
}
