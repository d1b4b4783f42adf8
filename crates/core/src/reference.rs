//! Reference matcher: a direct, deliberately simple implementation of the
//! XPath matching semantics used as a test oracle.
//!
//! The paper proves (Appendix A) that its predicate encoding matches a
//! document path iff the XPath expression does; this module implements "the
//! XPath expression does" side directly — a DP over document paths for
//! single-path expressions and a recursive tree-pattern matcher for
//! expressions with nested path filters. It is O(steps × nodes) and used
//! only for testing and for the nested-path combination stage, never on the
//! hot filtering path.

use pxf_xml::{Document, NodeId, PathDoc};
use pxf_xpath::{Axis, NodeTest, Step, XPathExpr};

/// Read-only view of one document path for the path matcher.
pub trait PathView {
    /// Path length.
    fn len(&self) -> usize;

    /// True when the path has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Tag name at 1-based position `pos`.
    fn tag(&self, pos: usize) -> &str;
    /// Attribute value at 1-based position `pos`.
    fn attr(&self, pos: usize, name: &str) -> Option<&str>;
}

/// A path view over a plain tag sequence (no attributes).
pub struct TagsView<'a>(pub &'a [&'a str]);

impl PathView for TagsView<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn tag(&self, pos: usize) -> &str {
        self.0[pos - 1]
    }
    fn attr(&self, _pos: usize, _name: &str) -> Option<&str> {
        None
    }
}

/// A path view over nodes of the flat store (what the nested-path
/// combination stage reads; [`matches_document`] walks the tree instead).
pub struct DocPathView<'a> {
    /// The document the nodes belong to.
    pub doc: &'a PathDoc,
    /// Root-to-leaf node ids.
    pub nodes: &'a [NodeId],
}

impl PathView for DocPathView<'_> {
    fn len(&self) -> usize {
        self.nodes.len()
    }
    fn tag(&self, pos: usize) -> &str {
        self.doc.tag(self.nodes[pos - 1])
    }
    fn attr(&self, pos: usize, name: &str) -> Option<&str> {
        self.doc.value_of(self.nodes[pos - 1], name)
    }
}

fn step_matches_at<V: PathView>(step: &Step, path: &V, pos: usize) -> bool {
    let test_ok = match &step.test {
        NodeTest::Wildcard => true,
        NodeTest::Tag(t) => path.tag(pos) == t,
    };
    test_ok
        && step
            .attr_filters()
            .all(|f| f.matches(path.attr(pos, &f.name)))
}

/// True iff the single-path expression matches the document path — i.e. the
/// expression's result node set on this path is non-empty (paper §3.1).
///
/// Nested path filters are ignored by this function (use
/// [`matches_document`] for tree patterns); attribute filters are honored.
pub fn matches_path<V: PathView>(expr: &XPathExpr, path: &V) -> bool {
    let n = path.len();
    if n == 0 {
        return false;
    }
    // can[pos] after step i: step i can match at position pos.
    // Work with a frontier of admissible positions per step.
    let mut frontier: Vec<usize> = Vec::new();
    for (i, step) in expr.steps.iter().enumerate() {
        let mut next: Vec<usize> = Vec::new();
        if i == 0 {
            let positions: Box<dyn Iterator<Item = usize>> = if expr.absolute {
                match step.axis {
                    // `/t`: the root only; `//t`: any position.
                    Axis::Child => Box::new(std::iter::once(1)),
                    Axis::Descendant => Box::new(1..=n),
                }
            } else {
                // Relative expressions may start anywhere.
                Box::new(1..=n)
            };
            for pos in positions {
                if step_matches_at(step, path, pos) {
                    next.push(pos);
                }
            }
        } else {
            for &prev in &frontier {
                let candidates: Box<dyn Iterator<Item = usize>> = match step.axis {
                    Axis::Child => Box::new(std::iter::once(prev + 1)),
                    Axis::Descendant => Box::new(prev + 1..=n),
                };
                for pos in candidates {
                    if pos <= n && step_matches_at(step, path, pos) && !next.contains(&pos) {
                        next.push(pos);
                    }
                }
            }
        }
        if next.is_empty() {
            return false;
        }
        frontier = next;
    }
    true
}

/// Enumerates, for each step, the set of positions reachable in *some*
/// complete match of the expression on the path. Returns `None` when the
/// expression does not match at all.
pub fn match_positions<V: PathView>(expr: &XPathExpr, path: &V) -> Option<Vec<Vec<usize>>> {
    let n = path.len();
    let k = expr.steps.len();
    if n == 0 {
        return None;
    }
    // forward[i] = positions where step i can match given steps 0..i.
    let mut forward: Vec<Vec<usize>> = Vec::with_capacity(k);
    for (i, step) in expr.steps.iter().enumerate() {
        let mut cur = Vec::new();
        if i == 0 {
            let positions: Box<dyn Iterator<Item = usize>> = if expr.absolute {
                match step.axis {
                    Axis::Child => Box::new(std::iter::once(1)),
                    Axis::Descendant => Box::new(1..=n),
                }
            } else {
                Box::new(1..=n)
            };
            for pos in positions {
                if step_matches_at(step, path, pos) {
                    cur.push(pos);
                }
            }
        } else {
            for &prev in &forward[i - 1] {
                let candidates: Box<dyn Iterator<Item = usize>> = match step.axis {
                    Axis::Child => Box::new(std::iter::once(prev + 1)),
                    Axis::Descendant => Box::new(prev + 1..=n),
                };
                for pos in candidates {
                    if pos <= n && step_matches_at(step, path, pos) && !cur.contains(&pos) {
                        cur.push(pos);
                    }
                }
            }
        }
        if cur.is_empty() {
            return None;
        }
        forward.push(cur);
    }
    // Backward prune: keep only positions that extend to a full match.
    for i in (0..k.saturating_sub(1)).rev() {
        let (head, tail) = forward.split_at_mut(i + 1);
        let next = &tail[0];
        let step_axis = expr.steps[i + 1].axis;
        head[i].retain(|&pos| match step_axis {
            Axis::Child => next.contains(&(pos + 1)),
            Axis::Descendant => next.iter().any(|&q| q > pos),
        });
        if head[i].is_empty() {
            return None;
        }
    }
    Some(forward)
}

/// Full tree-pattern semantics: true iff the expression (possibly with
/// nested path filters) selects a non-empty node set in the document.
pub fn matches_document(expr: &XPathExpr, doc: &Document) -> bool {
    if doc.is_empty() {
        return false;
    }
    if expr.absolute {
        match expr.steps[0].axis {
            Axis::Child => match_steps_at(expr, 0, doc, doc.root()),
            Axis::Descendant => doc
                .elements()
                .any(|(id, _)| match_steps_at(expr, 0, doc, id)),
        }
    } else {
        doc.elements()
            .any(|(id, _)| match_steps_at(expr, 0, doc, id))
    }
}

/// Does `steps[idx..]` match starting with `node` bound to step `idx`?
fn match_steps_at(expr: &XPathExpr, idx: usize, doc: &Document, node: NodeId) -> bool {
    let step = &expr.steps[idx];
    let element = doc.node(node);
    match &step.test {
        NodeTest::Tag(t) if element.tag != *t => return false,
        _ => {}
    }
    if !step
        .attr_filters()
        .all(|f| f.matches(element.value_of(&f.name)))
    {
        return false;
    }
    // Nested path filters: each must match relative to this node.
    for nested in step.path_filters() {
        if !matches_relative_at(nested, doc, node) {
            return false;
        }
    }
    if idx + 1 == expr.steps.len() {
        return true;
    }
    let next_axis = expr.steps[idx + 1].axis;
    match next_axis {
        Axis::Child => element
            .children
            .iter()
            .any(|&c| match_steps_at(expr, idx + 1, doc, c)),
        Axis::Descendant => descendants(doc, node).any(|d| match_steps_at(expr, idx + 1, doc, d)),
    }
}

/// Does the relative expression match in the context of `node` (i.e. its
/// first step binds to a child — or descendant, per its axis — of `node`)?
fn matches_relative_at(expr: &XPathExpr, doc: &Document, node: NodeId) -> bool {
    debug_assert!(!expr.absolute, "nested path filters are relative");
    match expr.steps[0].axis {
        // First step of a relative filter binds to a child of the context
        // node (the parser only produces Child here; Descendant is handled
        // for completeness).
        Axis::Child => doc
            .node(node)
            .children
            .iter()
            .any(|&c| match_steps_at(expr, 0, doc, c)),
        Axis::Descendant => descendants(doc, node).any(|d| match_steps_at(expr, 0, doc, d)),
    }
}

/// Iterator over all strict descendants of a node.
fn descendants<'a>(doc: &'a Document, node: NodeId) -> impl Iterator<Item = NodeId> + 'a {
    let mut stack: Vec<NodeId> = doc.node(node).children.clone();
    std::iter::from_fn(move || {
        let next = stack.pop()?;
        stack.extend_from_slice(&doc.node(next).children);
        Some(next)
    })
}

/// Every root-to-leaf path of a store, collected (tests only).
#[cfg(test)]
pub(crate) fn leaf_paths(doc: &PathDoc) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    doc.for_each_leaf_path(|p| out.push(p.to_vec()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xpath::parse;

    fn mp(expr: &str, tags: &[&str]) -> bool {
        matches_path(&parse(expr).unwrap(), &TagsView(tags))
    }

    #[test]
    fn absolute_paths() {
        assert!(mp("/a/b", &["a", "b"]));
        assert!(mp("/a/b", &["a", "b", "c"])); // b is an interior match
        assert!(!mp("/a/b", &["x", "b"]));
        assert!(!mp("/b", &["a", "b"]));
        assert!(!mp("/a/b", &["a"]));
    }

    #[test]
    fn relative_paths() {
        assert!(mp("b/c", &["a", "b", "c"]));
        assert!(mp("a", &["x", "a", "y"]));
        assert!(!mp("c/b", &["a", "b", "c"]));
    }

    #[test]
    fn wildcards() {
        assert!(mp("/*/b", &["a", "b"]));
        assert!(mp("/a/*/*", &["a", "x", "y"]));
        assert!(mp("/a/*/*", &["a", "x", "y", "z"]));
        assert!(!mp("/a/*/*", &["a", "x"]));
        assert!(mp("*/*/*", &["p", "q", "r"]));
        assert!(!mp("*/*/*/*", &["p", "q", "r"]));
    }

    #[test]
    fn descendant_operator() {
        assert!(mp("/a//c", &["a", "b", "c"]));
        assert!(mp("/a//c", &["a", "c"])); // // includes direct child
        assert!(!mp("/a//c", &["c", "a"]));
        assert!(mp("a//b/c", &["a", "b", "c", "a", "b", "c"]));
        assert!(!mp("c//b//a", &["a", "b", "c", "a", "b", "c"]));
        assert!(mp("//b", &["a", "b"]));
    }

    #[test]
    fn repeated_tags() {
        // The paper's order-sensitivity example.
        assert!(mp("a/c/*/a//c", &["a", "c", "x", "a", "y", "c"]));
        assert!(!mp("a//c/*/a/c", &["a", "c", "x", "a", "y", "c"]));
        assert!(mp("a//c/*/a/c", &["a", "y", "c", "x", "a", "c"]));
    }

    #[test]
    fn match_positions_enumerates() {
        let expr = parse("a//b").unwrap();
        let tags = ["a", "b", "x", "b"];
        let positions = match_positions(&expr, &TagsView(&tags)).unwrap();
        assert_eq!(positions[0], vec![1]);
        assert_eq!(positions[1], vec![2, 4]);
        // Positions that cannot extend to full matches are pruned.
        let expr = parse("a/b/c").unwrap();
        let tags = ["a", "b", "a", "b", "c"];
        let positions = match_positions(&expr, &TagsView(&tags)).unwrap();
        assert_eq!(positions[0], vec![3]);
        assert_eq!(positions[1], vec![4]);
        assert_eq!(positions[2], vec![5]);
        assert!(match_positions(&parse("z").unwrap(), &TagsView(&tags)).is_none());
    }

    #[test]
    fn attribute_filters() {
        let doc = PathDoc::parse(b"<a><b x=\"5\"/><b x=\"1\"/></a>").unwrap();
        let paths = leaf_paths(&doc);
        let view1 = DocPathView {
            doc: &doc,
            nodes: &paths[0],
        };
        let view2 = DocPathView {
            doc: &doc,
            nodes: &paths[1],
        };
        let expr = parse("/a/b[@x >= 3]").unwrap();
        assert!(matches_path(&expr, &view1));
        assert!(!matches_path(&expr, &view2));
    }

    #[test]
    fn tree_pattern_semantics() {
        // /a[b]/c: needs an a with both a b child and a c child.
        let expr = parse("/a[b]/c").unwrap();
        let both = Document::parse(b"<a><b/><c/></a>").unwrap();
        let only_c = Document::parse(b"<a><c/></a>").unwrap();
        let only_b = Document::parse(b"<a><b/></a>").unwrap();
        assert!(matches_document(&expr, &both));
        assert!(!matches_document(&expr, &only_c));
        assert!(!matches_document(&expr, &only_b));
    }

    #[test]
    fn tree_pattern_requires_single_node() {
        // //a[b][c]: one a node must have both children.
        let expr = parse("//a[b][c]").unwrap();
        let split = Document::parse(b"<r><a><b/></a><a><c/></a></r>").unwrap();
        let joined = Document::parse(b"<r><a><b/><c/></a></r>").unwrap();
        assert!(!matches_document(&expr, &split));
        assert!(matches_document(&expr, &joined));
    }

    #[test]
    fn nested_paper_example() {
        // s: /a[*/c[d]/e]//c[d]/e  (paper Fig. 3).
        let expr = parse("/a[*/c[d]/e]//c[d]/e").unwrap();
        // Build a document satisfying both branches:
        // a → x → c(d, e)  satisfies the filter;
        // a → … → c(d, e)  satisfies the main path.
        let doc = Document::parse(b"<a><x><c><d/><e/></c></x><y><c><d/><e/></c></y></a>").unwrap();
        assert!(matches_document(&expr, &doc));
        // Remove the d under the main-path c: filter [d] on main c fails …
        let doc2 = Document::parse(b"<a><x><c><d/><e/></c></x><y><c><e/></c></y></a>").unwrap();
        // … but the x-branch c still satisfies the main path //c[d]/e.
        assert!(matches_document(&expr, &doc2));
        // Remove the filter branch entirely: no */c[d]/e under a.
        let doc3 = Document::parse(b"<a><y><c><e/></c></y></a>").unwrap();
        assert!(!matches_document(&expr, &doc3));
    }

    #[test]
    fn single_path_and_tree_agree_on_plain_expressions() {
        let docs = [
            "<a><b><c/></b></a>",
            "<a><b/><b><c/><d/></b></a>",
            "<x><a><b><c/></b></a></x>",
        ];
        let exprs = ["/a/b", "a/b/c", "//c", "*/b", "/a//c", "b//d", "/*/*"];
        for d in docs {
            let doc = Document::parse(d.as_bytes()).unwrap();
            let flat = PathDoc::parse(d.as_bytes()).unwrap();
            for e in exprs {
                let expr = parse(e).unwrap();
                let by_paths = leaf_paths(&flat).iter().any(|p| {
                    matches_path(
                        &expr,
                        &DocPathView {
                            doc: &flat,
                            nodes: p,
                        },
                    )
                });
                assert_eq!(
                    by_paths,
                    matches_document(&expr, &doc),
                    "disagreement on {e} over {d}"
                );
            }
        }
    }
}
