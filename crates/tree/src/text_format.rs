//! A compact, human-writable text format for distribution trees.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! tree    := node
//! node    := '(' item (',' item)* ')' | '(' ')'
//! item    := node            — an internal child
//!          | ':' NUMBER      — a client with NUMBER requests
//! ```
//!
//! The outermost parentheses are the root. Examples:
//!
//! * `(:5)` — a root with one client of 5 requests;
//! * `((:4),(:7),:2)` — Figure 1 of the paper minus labels: two internal
//!   children holding clients 4 and 7, plus a root client of 2.
//!
//! The format exists for test fixtures and CLI ergonomics — `serde` JSON
//! remains the lossless interchange format (it preserves node identities).
//! Parsing validates through the same [`TreeBuilder`]
//! path as programmatic construction. Node ids are assigned in
//! depth-first, left-to-right order with the root as `n0`, and
//! [`to_text`] emits children before clients, so `parse → to_text` is the
//! identity on canonically formatted input.

use crate::arena::Tree;
use crate::builder::TreeBuilder;
use crate::ids::NodeId;
use std::fmt;

/// Parse errors with byte offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
}

impl<'s> Parser<'s> {
    fn new(input: &'s str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!(
                "expected {:?}, found {}",
                byte as char,
                other.map_or("end of input".to_string(), |b| format!("{:?}", b as char))
            ))),
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number".into()));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are valid UTF-8")
            .parse()
            .map_err(|e| ParseError {
                offset: start,
                message: format!("bad number: {e}"),
            })
    }

    fn describe(byte: Option<u8>) -> String {
        byte.map_or("end of input".to_string(), |b| format!("{:?}", b as char))
    }
}

/// Parses the text format into a validated [`Tree`].
///
/// Iterative (explicit node stack), so arbitrarily deep inputs are safe.
pub fn parse(input: &str) -> Result<Tree, ParseError> {
    let mut p = Parser::new(input);
    let mut builder = TreeBuilder::new();
    p.expect(b'(')?;
    let mut stack: Vec<NodeId> = vec![builder.root()];
    /// What the grammar allows at the current position.
    #[derive(PartialEq)]
    enum Expect {
        /// Right after `(`: an item, or `)` for an empty node.
        ItemOrClose,
        /// Right after an item: `,` or `)`.
        SepOrClose,
        /// Right after `,`: an item (no trailing commas).
        Item,
    }
    let mut expect = Expect::ItemOrClose;
    while let Some(top) = stack.last().copied() {
        match p.peek() {
            Some(b')') if expect != Expect::Item => {
                p.pos += 1;
                stack.pop();
                expect = Expect::SepOrClose;
            }
            Some(b',') if expect == Expect::SepOrClose => {
                p.pos += 1;
                expect = Expect::Item;
            }
            Some(b'(') if expect != Expect::SepOrClose => {
                p.pos += 1;
                stack.push(builder.add_child(top));
                expect = Expect::ItemOrClose;
            }
            Some(b':') if expect != Expect::SepOrClose => {
                p.pos += 1;
                let requests = p.number()?;
                builder.add_client(top, requests);
                expect = Expect::SepOrClose;
            }
            other => {
                let expected = match expect {
                    Expect::ItemOrClose => "'(' , ':' or ')'",
                    Expect::SepOrClose => "',' or ')'",
                    Expect::Item => "'(' or ':'",
                };
                return Err(p.error(format!(
                    "expected {expected}, found {}",
                    Parser::describe(other)
                )));
            }
        }
    }
    if p.peek().is_some() {
        return Err(p.error("trailing input after the root node".into()));
    }
    builder.build().map_err(|e| ParseError {
        offset: 0,
        message: format!("invalid tree: {e}"),
    })
}

/// Renders a tree in the text format (children first, then clients —
/// canonical order; depth-first recursion replaced by an explicit stack so
/// arbitrarily deep trees are safe).
pub fn to_text(tree: &Tree) -> String {
    enum Step {
        Open(NodeId),
        Text(&'static str),
        Clients(NodeId),
    }
    let mut out = String::with_capacity(tree.internal_count() * 4);
    let mut stack = vec![Step::Open(tree.root())];
    while let Some(step) = stack.pop() {
        match step {
            Step::Open(node) => {
                out.push('(');
                stack.push(Step::Text(")"));
                stack.push(Step::Clients(node));
                // Children render before clients; pushed in reverse so they
                // pop in order, separated by commas.
                let children = tree.children(node);
                for (i, &c) in children.iter().enumerate().rev() {
                    stack.push(Step::Open(c));
                    if i > 0 {
                        stack.push(Step::Text(","));
                    }
                }
            }
            Step::Text(t) => out.push_str(t),
            Step::Clients(node) => {
                let has_children = !tree.children(node).is_empty();
                for (i, &c) in tree.clients_of(node).iter().enumerate() {
                    if has_children || i > 0 {
                        out.push(',');
                    }
                    out.push(':');
                    out.push_str(&tree.requests(c).to_string());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_client_root() {
        let t = parse("(:5)").unwrap();
        assert_eq!(t.internal_count(), 1);
        assert_eq!(t.total_requests(), 5);
    }

    #[test]
    fn parses_empty_root() {
        let t = parse("()").unwrap();
        assert_eq!(t.internal_count(), 1);
        assert_eq!(t.client_count(), 0);
    }

    #[test]
    fn parses_figure1_shape() {
        // root — A — {B:4, C:7}, root client 2.
        let t = parse("(((:4),(:7)),:2)").unwrap();
        assert_eq!(t.internal_count(), 4);
        assert_eq!(t.client_count(), 3);
        assert_eq!(t.total_requests(), 13);
        assert_eq!(t.client_load(t.root()), 2);
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse("( ( :4 ) , :2 )").unwrap();
        let b = parse("((:4),:2)").unwrap();
        assert_eq!(to_text(&a), to_text(&b));
    }

    #[test]
    fn round_trips_canonical_text() {
        for text in ["(:5)", "()", "(((:4),(:7)),:2)", "((),(:1),:9,:1)"] {
            let tree = parse(text).unwrap();
            assert_eq!(to_text(&tree), text, "canonical round trip");
            // And a second round trip through the rendered form.
            let again = parse(&to_text(&tree)).unwrap();
            assert_eq!(to_text(&again), text);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        // The last one is well-formed, but its total demand overflows u64.
        for bad in [
            "",
            "(",
            "(:)",
            "(:5",
            "(:5))",
            "(5)",
            "(:5,,:2)",
            "(:5)x",
            "((:18446744073709551615),:1)",
        ] {
            let r = parse(bad);
            assert!(r.is_err(), "{bad:?} must not parse, got {r:?}");
        }
    }

    #[test]
    fn error_offsets_point_at_the_problem() {
        let err = parse("(:5,x)").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn generated_trees_round_trip() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let tree =
                crate::generate::random_tree(&crate::GeneratorConfig::paper_high(40), &mut rng);
            let text = to_text(&tree);
            let back = parse(&text).unwrap();
            assert_eq!(to_text(&back), text);
            assert_eq!(back.internal_count(), tree.internal_count());
            assert_eq!(back.total_requests(), tree.total_requests());
        }
    }

    #[test]
    fn deep_trees_do_not_overflow_either_direction() {
        let tree = crate::generate::path(50_000, 3);
        let text = to_text(&tree);
        assert_eq!(text.len(), 50_000 * 2 + 2); // "("*n + ":3" + ")"*n
        let back = parse(&text).unwrap();
        assert_eq!(back.internal_count(), 50_000);
        assert_eq!(back.total_requests(), 3);
    }

    #[test]
    fn rejects_trailing_and_leading_commas() {
        for bad in ["(:5,)", "(,:5)", "((),)", "(,)"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
