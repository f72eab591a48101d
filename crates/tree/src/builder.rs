//! Incremental construction of [`Tree`]s.
//!
//! The builder starts with an implicit root and only allows appending
//! children/clients to already-existing nodes, so the result is acyclic and
//! connected by construction. [`TreeBuilder::build`] still runs the full
//! [structural validation](crate::validate) so that hand-assembled or
//! deserialized trees go through the same checks.

use crate::arena::{Client, NodeData, Tree};
use crate::ids::{ClientId, NodeId};
use crate::validate::TreeError;

/// Builder for [`Tree`]; see the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    nodes: Vec<NodeData>,
    clients: Vec<Client>,
}

impl TreeBuilder {
    /// Creates a builder holding just the root node.
    pub fn new() -> Self {
        TreeBuilder {
            nodes: vec![NodeData {
                parent: None,
                children: Vec::new(),
                clients: Vec::new(),
            }],
            clients: Vec::new(),
        }
    }

    /// Creates a builder pre-sized for `internal` internal nodes and
    /// `clients` clients.
    pub fn with_capacity(internal: usize, clients: usize) -> Self {
        let mut nodes = Vec::with_capacity(internal.max(1));
        nodes.push(NodeData {
            parent: None,
            children: Vec::new(),
            clients: Vec::new(),
        });
        TreeBuilder {
            nodes,
            clients: Vec::with_capacity(clients),
        }
    }

    /// Handle of the root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// Number of internal nodes added so far (root included).
    #[inline]
    pub fn internal_count(&self) -> usize {
        self.nodes.len()
    }

    /// Appends a new internal node under `parent` and returns its handle.
    ///
    /// # Panics
    /// Panics if `parent` is not a handle issued by this builder.
    pub fn add_child(&mut self, parent: NodeId) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "unknown parent {parent}");
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData {
            parent: Some(parent),
            children: Vec::new(),
            clients: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Attaches a client issuing `requests` requests under `node` and returns
    /// its handle.
    ///
    /// # Panics
    /// Panics if `node` is not a handle issued by this builder.
    pub fn add_client(&mut self, node: NodeId, requests: u64) -> ClientId {
        assert!(node.index() < self.nodes.len(), "unknown node {node}");
        let id = ClientId::from_index(self.clients.len());
        self.clients.push(Client {
            attach: node,
            requests,
        });
        self.nodes[node.index()].clients.push(id);
        id
    }

    /// Finalizes the tree, running [validation](crate::validate::validate):
    /// structure, and a total client demand that fits a `u64`.
    pub fn build(self) -> Result<Tree, TreeError> {
        let tree = Tree {
            nodes: self.nodes,
            clients: self.clients,
        };
        crate::validate::validate(&tree)?;
        Ok(tree)
    }

    /// Test/bench convenience: attaches one client with `requests` requests
    /// to every internal node that has none, then builds.
    ///
    /// Construction through the builder cannot produce structural errors, so
    /// this unwraps internally.
    ///
    /// # Panics
    /// Panics if the total client demand overflows a `u64`.
    pub fn build_with_clients_everywhere(mut self, requests: u64) -> Tree {
        for idx in 0..self.nodes.len() {
            if self.nodes[idx].clients.is_empty() {
                self.add_client(NodeId::from_index(idx), requests);
            }
        }
        self.build()
            .expect("builder-constructed trees are valid unless demand overflows")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_single_root() {
        let t = TreeBuilder::new().build().unwrap();
        assert_eq!(t.internal_count(), 1);
        assert_eq!(t.client_count(), 0);
    }

    #[test]
    fn children_registered_in_order() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let c1 = b.add_child(r);
        let c2 = b.add_child(r);
        let c3 = b.add_child(c1);
        let t = b.build().unwrap();
        assert_eq!(t.children(r), &[c1, c2]);
        assert_eq!(t.children(c1), &[c3]);
        assert_eq!(t.parent(c3), Some(c1));
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn rejects_foreign_parent() {
        let mut b = TreeBuilder::new();
        b.add_child(NodeId::from_index(5));
    }

    #[test]
    fn clients_everywhere_fills_gaps() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_client(a, 7);
        let t = b.build_with_clients_everywhere(2);
        assert_eq!(t.client_count(), 2);
        assert_eq!(t.client_load(r), 2);
        assert_eq!(t.client_load(a), 7);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = TreeBuilder::with_capacity(10, 10);
        let r = b.root();
        b.add_child(r);
        assert_eq!(b.internal_count(), 2);
        let t = b.build().unwrap();
        assert_eq!(t.internal_count(), 2);
    }
}
