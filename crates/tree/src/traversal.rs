//! Tree traversal orders over the pointer tree.
//!
//! Solvers iterate [`FlatTree`](crate::FlatTree) positions, whose order is
//! exactly [`post_order`]'s and whose subtree aggregates come with the
//! layout. These walks serve the tree's own statistics, the layout's
//! equivalence tests, and the model's assignment oracle, which shares no
//! layout code with the solvers it checks.

use crate::arena::Tree;
use crate::ids::NodeId;

/// Nodes in post order: every node appears after all of its descendants.
///
/// Iterative (no recursion), so arbitrarily deep trees are fine — the paper's
/// "high" trees can be hundreds of levels deep.
pub fn post_order(tree: &Tree) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.internal_count());
    // Two-stack trick: emit in reverse pre-order with children visited
    // left-to-right, then reverse.
    let mut stack = vec![tree.root()];
    while let Some(node) = stack.pop() {
        order.push(node);
        stack.extend_from_slice(tree.children(node));
    }
    order.reverse();
    order
}

/// Nodes in pre order: every node appears before its descendants.
pub fn pre_order(tree: &Tree) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.internal_count());
    let mut stack = vec![tree.root()];
    while let Some(node) = stack.pop() {
        order.push(node);
        // Reverse so that children pop left-to-right.
        for &c in tree.children(node).iter().rev() {
            stack.push(c);
        }
    }
    order
}

/// Depth of every node (root = 0), indexed by node index.
pub fn depths(tree: &Tree) -> Vec<u32> {
    let mut depth = vec![0u32; tree.internal_count()];
    for node in pre_order(tree) {
        if let Some(p) = tree.parent(node) {
            depth[node.index()] = depth[p.index()] + 1;
        }
    }
    depth
}

/// Height of the tree: max depth over internal nodes (a single root has
/// height 0).
pub fn height(tree: &Tree) -> u32 {
    depths(tree).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    /// root ── a ── c
    ///      └─ b
    /// clients: c:5, b:2, root:1
    fn sample() -> (Tree, [NodeId; 4]) {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(r);
        let c = bld.add_child(a);
        bld.add_client(c, 5);
        bld.add_client(b, 2);
        bld.add_client(r, 1);
        (bld.build().unwrap(), [r, a, b, c])
    }

    #[test]
    fn post_order_children_before_parents() {
        let (t, _) = sample();
        let order = post_order(&t);
        assert_eq!(order.len(), t.internal_count());
        let mut pos = vec![0usize; t.internal_count()];
        for (i, n) in order.iter().enumerate() {
            pos[n.index()] = i;
        }
        for n in t.internal_nodes() {
            for &c in t.children(n) {
                assert!(pos[c.index()] < pos[n.index()], "{c} must precede {n}");
            }
        }
    }

    #[test]
    fn pre_order_parents_before_children() {
        let (t, _) = sample();
        let order = pre_order(&t);
        let mut pos = vec![0usize; t.internal_count()];
        for (i, n) in order.iter().enumerate() {
            pos[n.index()] = i;
        }
        for n in t.internal_nodes() {
            for &c in t.children(n) {
                assert!(pos[c.index()] > pos[n.index()]);
            }
        }
        assert_eq!(order[0], t.root());
    }

    #[test]
    fn depths_and_height() {
        let (t, [r, a, b, c]) = sample();
        let d = depths(&t);
        assert_eq!(d[r.index()], 0);
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[b.index()], 1);
        assert_eq!(d[c.index()], 2);
        assert_eq!(height(&t), 2);
    }

    #[test]
    fn single_node_tree() {
        let t = TreeBuilder::new().build().unwrap();
        assert_eq!(post_order(&t), vec![t.root()]);
        assert_eq!(height(&t), 0);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut b = TreeBuilder::new();
        let mut cur = b.root();
        for _ in 0..100_000 {
            cur = b.add_child(cur);
        }
        let t = b.build().unwrap();
        assert_eq!(post_order(&t).len(), 100_001);
        assert_eq!(height(&t), 100_000);
    }
}
