//! Validated serde support for [`Tree`].
//!
//! `Tree` serializes with the derived implementation (a plain arena dump).
//! Deserialization, however, goes through a mirror struct and then the full
//! [structural validation](crate::validate): corrupt or adversarial inputs
//! are rejected instead of producing a tree that would break the algorithms'
//! invariants downstream.

use crate::arena::{Client, NodeData, Tree};
use serde::{Deserialize, Deserializer};

#[derive(Deserialize)]
struct RawTree {
    nodes: Vec<NodeData>,
    clients: Vec<Client>,
}

impl<'de> Deserialize<'de> for Tree {
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: Deserializer<'de>,
    {
        let raw = RawTree::deserialize(deserializer)?;
        let tree = Tree {
            nodes: raw.nodes,
            clients: raw.clients,
        };
        crate::validate::validate(&tree).map_err(serde::de::Error::custom)?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Tree, TreeBuilder};

    fn sample() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_child(a);
        b.add_client(a, 3);
        b.add_client(r, 1);
        b.build().unwrap()
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.internal_count(), t.internal_count());
        assert_eq!(back.total_requests(), t.total_requests());
    }

    #[test]
    fn rejects_corrupt_parent_links() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        // Point node 1's parent at itself: a cycle the validator must catch.
        let broken = json.replacen("\"parent\":0", "\"parent\":1", 1);
        assert_ne!(json, broken, "test must actually corrupt the payload");
        let result: Result<Tree, _> = serde_json::from_str(&broken);
        assert!(result.is_err(), "corrupt tree must not deserialize");
    }

    #[test]
    fn rejects_demand_overflow() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        b.add_client(r, u64::MAX - 1);
        b.add_client(r, 1);
        let json = serde_json::to_string(&b.build().unwrap()).unwrap();
        // Raise the second client past the u64 total.
        let broken = json.replacen("\"requests\":1}", "\"requests\":2}", 1);
        assert_ne!(json, broken, "test must actually corrupt the payload");
        let err = serde_json::from_str::<Tree>(&broken).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn rejects_empty_arena() {
        let result: Result<Tree, _> = serde_json::from_str(r#"{"nodes":[],"clients":[]}"#);
        assert!(result.is_err());
    }
}
