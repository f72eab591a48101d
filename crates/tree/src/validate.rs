//! Validation of [`Tree`]s: structure, and a total demand that fits `u64`.
//!
//! Trees produced by [`TreeBuilder`](crate::TreeBuilder) are structurally
//! valid by construction, but trees can also arrive through
//! deserialization, and any client volumes can sum past `u64::MAX`; both
//! paths funnel through [`validate`] so that every algorithm downstream can
//! assume a well-formed arena whose subtree demand sums cannot wrap.

use crate::arena::Tree;
use crate::ids::{ClientId, NodeId};
use std::fmt;

/// Defects detected by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The arena holds no nodes at all.
    Empty,
    /// Node 0 (the root) has a parent pointer.
    RootHasParent,
    /// A non-root node has no parent pointer.
    OrphanNode(NodeId),
    /// `child`'s parent pointer and `parent`'s child list disagree.
    LinkMismatch { parent: NodeId, child: NodeId },
    /// A node or client handle points outside the arena.
    DanglingHandle(String),
    /// Parent pointers contain a cycle or a node unreachable from the root.
    NotATree(NodeId),
    /// A client's attach pointer and the node's client list disagree.
    ClientLinkMismatch(String),
    /// The clients' total demand does not fit a `u64`, so some subtree sum
    /// would wrap. Carries the first client whose requests overflow it.
    DemandOverflow(ClientId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::RootHasParent => write!(f, "root node has a parent pointer"),
            TreeError::OrphanNode(n) => write!(f, "non-root node {n} has no parent"),
            TreeError::LinkMismatch { parent, child } => {
                write!(
                    f,
                    "parent/child links disagree between {parent} and {child}"
                )
            }
            TreeError::DanglingHandle(what) => write!(f, "dangling handle: {what}"),
            TreeError::NotATree(n) => {
                write!(
                    f,
                    "node {n} is unreachable from the root or lies on a cycle"
                )
            }
            TreeError::ClientLinkMismatch(what) => write!(f, "client link mismatch: {what}"),
            TreeError::DemandOverflow(c) => {
                write!(f, "total client demand overflows u64 at client {c}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Checks arena consistency: single root, mutual parent/child links, client
/// links, and global reachability (connected + acyclic); and that the total
/// client demand fits a `u64`, so every subtree demand sum does too.
pub fn validate(tree: &Tree) -> Result<(), TreeError> {
    if tree.nodes.is_empty() {
        return Err(TreeError::Empty);
    }
    if tree.nodes[0].parent.is_some() {
        return Err(TreeError::RootHasParent);
    }

    let n = tree.nodes.len();
    for (idx, node) in tree.nodes.iter().enumerate() {
        let id = NodeId::from_index(idx);
        if idx != 0 {
            match node.parent {
                None => return Err(TreeError::OrphanNode(id)),
                Some(p) if p.index() >= n => {
                    return Err(TreeError::DanglingHandle(format!("parent of {id}")))
                }
                Some(p) => {
                    if !tree.nodes[p.index()].children.contains(&id) {
                        return Err(TreeError::LinkMismatch {
                            parent: p,
                            child: id,
                        });
                    }
                }
            }
        }
        for &c in &node.children {
            if c.index() >= n {
                return Err(TreeError::DanglingHandle(format!("child of {id}")));
            }
            if tree.nodes[c.index()].parent != Some(id) {
                return Err(TreeError::LinkMismatch {
                    parent: id,
                    child: c,
                });
            }
        }
        for &cl in &node.clients {
            match tree.clients.get(cl.index()) {
                None => return Err(TreeError::DanglingHandle(format!("client of {id}"))),
                Some(client) if client.attach != id => {
                    return Err(TreeError::ClientLinkMismatch(format!(
                        "client {cl} listed under {id} but attached to {}",
                        client.attach
                    )))
                }
                Some(_) => {}
            }
        }
    }

    for (idx, client) in tree.clients.iter().enumerate() {
        if client.attach.index() >= n {
            return Err(TreeError::DanglingHandle(format!("attach of client {idx}")));
        }
        let cl = ClientId::from_index(idx);
        if !tree.nodes[client.attach.index()].clients.contains(&cl) {
            return Err(TreeError::ClientLinkMismatch(format!(
                "client {cl} attached to {} but not listed there",
                client.attach
            )));
        }
    }

    // Reachability from the root: counts double as a cycle check because the
    // parent/child links were verified mutual above.
    let mut seen = vec![false; n];
    let mut stack = vec![tree.root()];
    let mut reached = 0usize;
    while let Some(node) = stack.pop() {
        if seen[node.index()] {
            return Err(TreeError::NotATree(node));
        }
        seen[node.index()] = true;
        reached += 1;
        stack.extend_from_slice(tree.children(node));
    }
    if reached != n {
        let missing = seen.iter().position(|&s| !s).expect("some node unseen");
        return Err(TreeError::NotATree(NodeId::from_index(missing)));
    }

    let mut total = 0u64;
    for (idx, client) in tree.clients.iter().enumerate() {
        total = total
            .checked_add(client.requests)
            .ok_or(TreeError::DemandOverflow(ClientId::from_index(idx)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    fn valid_tree() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_child(a);
        b.add_client(a, 3);
        b.build().unwrap()
    }

    #[test]
    fn builder_trees_validate() {
        assert!(validate(&valid_tree()).is_ok());
    }

    #[test]
    fn detects_root_with_parent() {
        let mut t = valid_tree();
        t.nodes[0].parent = Some(NodeId::from_index(1));
        assert_eq!(validate(&t), Err(TreeError::RootHasParent));
    }

    #[test]
    fn detects_orphan() {
        // Clearing a parent pointer trips either the orphan check or the
        // mutual-link check, depending on which node is scanned first.
        let mut t = valid_tree();
        t.nodes[2].parent = None;
        assert!(matches!(
            validate(&t),
            Err(TreeError::OrphanNode(_)) | Err(TreeError::LinkMismatch { .. })
        ));
    }

    #[test]
    fn detects_link_mismatch() {
        let mut t = valid_tree();
        t.nodes[2].parent = Some(NodeId::from_index(0));
        assert!(matches!(validate(&t), Err(TreeError::LinkMismatch { .. })));
    }

    #[test]
    fn detects_client_mismatch() {
        let mut t = valid_tree();
        t.clients[0].attach = NodeId::from_index(2);
        assert!(matches!(
            validate(&t),
            Err(TreeError::ClientLinkMismatch(_))
        ));
    }

    #[test]
    fn detects_dangling_child() {
        let mut t = valid_tree();
        t.nodes[2].children.push(NodeId::from_index(99));
        assert!(matches!(validate(&t), Err(TreeError::DanglingHandle(_))));
    }

    #[test]
    fn detects_demand_overflow_on_build() {
        // Two clients on one node: their sum would wrap to 0 in release.
        let mut b = TreeBuilder::new();
        let r = b.root();
        b.add_client(r, u64::MAX);
        b.add_client(r, 1);
        let err = b.build().unwrap_err();
        assert_eq!(err, TreeError::DemandOverflow(ClientId::from_index(1)));
        assert!(err.to_string().contains("overflows"));

        // Spread over disjoint subtrees, the root sum still overflows.
        let mut b = TreeBuilder::new();
        let r = b.root();
        for _ in 0..3 {
            let c = b.add_child(r);
            b.add_client(c, u64::MAX / 2);
        }
        assert!(matches!(b.build(), Err(TreeError::DemandOverflow(_))));

        // Exactly u64::MAX in total is fine.
        let mut b = TreeBuilder::new();
        let r = b.root();
        b.add_client(r, u64::MAX - 1);
        b.add_client(r, 1);
        assert_eq!(b.build().unwrap().total_requests(), u64::MAX);
    }

    #[test]
    fn error_display_is_informative() {
        let err = TreeError::OrphanNode(NodeId::from_index(4));
        assert!(err.to_string().contains("n4"));
    }
}
