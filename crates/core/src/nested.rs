//! Nested path expressions (paper §5): decomposition and combination.
//!
//! A nested path filter turns an XPE into a tree pattern. Following the
//! paper (and the query-decomposition lineage of XFilter/XTrie), the
//! expression is decomposed into a *main* sub-expression plus *extended*
//! sub-expressions — the main prefix up to the branching step with the
//! nested path appended — each annotated with the branch position
//! (the paper's `(pos, =, v)` predicate). Every sub-expression is a
//! single-path XPE evaluated by the ordinary predicate machinery; the
//! combination stage then checks, bottom-up over the decomposition tree,
//! that matching document paths agree on the identity of the branch node.
//!
//! The paper identifies branch nodes by comparing *structure tuples*
//! (`m_k` = child index of the k-th element, Fig. 4) up to the branch
//! position; two root-anchored paths of the same document share their first
//! `d` nodes iff their structure tuples agree on the first `d` entries, iff
//! their `d`-th node ids coincide. We use node ids directly — the same
//! comparison, O(1) instead of O(d).

use crate::reference::{match_positions, DocPathView};
use pxf_xml::{NodeId, PathDoc};
use pxf_xpath::{Axis, Step, StepFilter, XPathExpr};
use std::collections::HashSet;

/// One sub-expression of a decomposed tree pattern.
#[derive(Debug, Clone)]
pub struct Component {
    /// The single-path sub-expression (attribute filters retained, nested
    /// path filters stripped).
    pub expr: XPathExpr,
    /// Parent component in the decomposition tree (`None` for the main
    /// sub-expression).
    pub parent: Option<u32>,
    /// 0-based index *in this component's expression* of the step bound to
    /// the branch node shared with the parent.
    pub anchor_step: usize,
    /// 0-based index *in the parent's expression* of the branching step —
    /// the paper's `(pos, =, v)` annotation (v = index + 1).
    pub parent_branch_step: usize,
}

/// The decomposition of a nested path expression (paper Fig. 3).
#[derive(Debug, Clone)]
pub struct NestedPlan {
    /// Components in pre-order: a parent always precedes its children.
    pub components: Vec<Component>,
}

impl NestedPlan {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always at least one component.
    pub fn is_empty(&self) -> bool {
        false
    }
}

fn strip_path_filters(step: &Step) -> Step {
    Step {
        axis: step.axis,
        test: step.test.clone(),
        filters: step
            .filters
            .iter()
            .filter(|f| matches!(f, StepFilter::Attribute(_)))
            .cloned()
            .collect(),
    }
}

/// Decomposes a (possibly nested) expression into its component
/// sub-expressions.
pub fn decompose(expr: &XPathExpr) -> NestedPlan {
    let mut components = Vec::new();
    decompose_into(expr, None, 0, 0, &mut components);
    NestedPlan { components }
}

fn decompose_into(
    expr: &XPathExpr,
    parent: Option<u32>,
    anchor_step: usize,
    parent_branch_step: usize,
    out: &mut Vec<Component>,
) {
    let my_idx = out.len() as u32;
    let main = XPathExpr {
        absolute: expr.absolute,
        steps: expr.steps.iter().map(strip_path_filters).collect(),
    };
    out.push(Component {
        expr: main,
        parent,
        anchor_step,
        parent_branch_step,
    });
    for (i, step) in expr.steps.iter().enumerate() {
        for nested in step.path_filters() {
            // Extended sub-expression: the prefix up to the branching step
            // (path filters stripped) with the nested path appended. The
            // appended steps keep their own filters so that deeper nesting
            // decomposes recursively.
            let mut steps: Vec<Step> = expr.steps[..=i].iter().map(strip_path_filters).collect();
            steps.extend(nested.steps.iter().cloned());
            let child = XPathExpr {
                absolute: expr.absolute,
                steps,
            };
            decompose_into(&child, Some(my_idx), i, i, out);
        }
    }
}

/// Combines per-component path-match results into a verdict for the whole
/// tree pattern.
///
/// `comp_paths[c]` lists the indices (into `paths`) of the document paths
/// on which component `c` structurally matched (as pre-filtered by the
/// predicate engine). The combination re-derives exact step positions with
/// [`match_positions`] (which also applies attribute filters) and checks
/// branch-node agreement bottom-up.
pub fn combine(
    plan: &NestedPlan,
    doc: &PathDoc,
    paths: &[Vec<NodeId>],
    comp_paths: &[Vec<u32>],
) -> bool {
    debug_assert_eq!(plan.components.len(), comp_paths.len());
    let k = plan.components.len();
    // anchors[c] = document nodes that can serve as component c's branch
    // node with all of c's own children satisfied.
    let mut anchors: Vec<HashSet<NodeId>> = vec![HashSet::new(); k];
    // children grouped by parent.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (ci, comp) in plan.components.iter().enumerate() {
        if let Some(p) = comp.parent {
            children[p as usize].push(ci);
        }
    }
    // Components are in pre-order, so reverse order is bottom-up.
    for ci in (0..k).rev() {
        let comp = &plan.components[ci];
        let is_root = comp.parent.is_none();
        let mut root_ok = false;
        for &pi in &comp_paths[ci] {
            let path = &paths[pi as usize];
            let view = DocPathView { doc, nodes: path };
            let Some(positions) = match_positions(&comp.expr, &view) else {
                continue; // structural pre-filter passed but attributes failed
            };
            let axes: Vec<Axis> = comp.expr.steps.iter().map(|s| s.axis).collect();
            let mut new_anchors: Vec<NodeId> = Vec::new();
            let found_root = for_each_assignment(
                &positions,
                &axes,
                &mut |assign| {
                    for &ch in &children[ci] {
                        let branch = plan.components[ch].parent_branch_step;
                        let node = path[assign[branch] - 1];
                        if !anchors[ch].contains(&node) {
                            return AssignOutcome::Reject;
                        }
                    }
                    if is_root {
                        AssignOutcome::AcceptStop
                    } else {
                        AssignOutcome::AcceptContinue
                    }
                },
                |assign| {
                    if !is_root {
                        new_anchors.push(path[assign[comp.anchor_step] - 1]);
                    }
                },
            );
            anchors[ci].extend(new_anchors);
            if found_root {
                root_ok = true;
                break;
            }
        }
        if is_root {
            return root_ok;
        }
        if anchors[ci].is_empty() {
            return false; // a required branch can never be satisfied
        }
    }
    unreachable!("component 0 is always the root")
}

enum AssignOutcome {
    Reject,
    AcceptContinue,
    AcceptStop,
}

/// Enumerates all step→position assignments consistent with the per-step
/// position sets and axis constraints. Calls `check` for each complete
/// assignment; on acceptance calls `on_accept`; returns true if an
/// `AcceptStop` occurred.
fn for_each_assignment(
    positions: &[Vec<usize>],
    axes: &[Axis],
    check: &mut dyn FnMut(&[usize]) -> AssignOutcome,
    on_accept: impl FnMut(&[usize]),
) -> bool {
    let n = positions.len();
    let mut assign = vec![0usize; n];
    fn rec(
        positions: &[Vec<usize>],
        axes: &[Axis],
        assign: &mut Vec<usize>,
        level: usize,
        check: &mut dyn FnMut(&[usize]) -> AssignOutcome,
        on_accept: &mut dyn FnMut(&[usize]),
    ) -> bool {
        let n = positions.len();
        for &pos in &positions[level] {
            if level > 0 {
                let prev = assign[level - 1];
                let ok = match axes[level] {
                    Axis::Child => pos == prev + 1,
                    Axis::Descendant => pos > prev,
                };
                if !ok {
                    continue;
                }
            }
            assign[level] = pos;
            if level + 1 == n {
                match check(assign) {
                    AssignOutcome::Reject => {}
                    AssignOutcome::AcceptContinue => on_accept(assign),
                    AssignOutcome::AcceptStop => {
                        on_accept(assign);
                        return true;
                    }
                }
            } else if rec(positions, axes, assign, level + 1, check, on_accept) {
                return true;
            }
        }
        false
    }
    if n == 0 {
        return false;
    }
    let mut on_accept_dyn = on_accept;
    rec(positions, axes, &mut assign, 0, check, &mut on_accept_dyn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::matches_document;
    use pxf_xml::Document;
    use pxf_xpath::parse;

    fn comp_strs(plan: &NestedPlan) -> Vec<String> {
        plan.components.iter().map(|c| c.expr.to_string()).collect()
    }

    /// Paper Fig. 3: /a[*/c[d]/e]//c[d]/e decomposes into four
    /// sub-expressions.
    #[test]
    fn paper_decomposition_example() {
        let expr = parse("/a[*/c[d]/e]//c[d]/e").unwrap();
        let plan = decompose(&expr);
        assert_eq!(
            comp_strs(&plan),
            vec!["/a//c/e", "/a/*/c/e", "/a/*/c/d", "/a//c/d"]
        );
        // Main has no parent; /a/*/c/e branches from main at step 0 (tag a);
        // /a/*/c/d branches from /a/*/c/e at step 2 (the c); /a//c/d
        // branches from main at step 1 (the paper's (pos, =, 2)).
        assert_eq!(plan.components[0].parent, None);
        assert_eq!(plan.components[1].parent, Some(0));
        assert_eq!(plan.components[1].parent_branch_step, 0);
        assert_eq!(plan.components[2].parent, Some(1));
        assert_eq!(plan.components[2].parent_branch_step, 2);
        assert_eq!(plan.components[3].parent, Some(0));
        assert_eq!(plan.components[3].parent_branch_step, 1);
    }

    #[test]
    fn decomposition_keeps_attr_filters() {
        let expr = parse("/a[@x = 1][b/c]/d").unwrap();
        let plan = decompose(&expr);
        assert_eq!(comp_strs(&plan), vec!["/a[@x = 1]/d", "/a[@x = 1]/b/c"]);
    }

    fn full_match(src: &str, xml: &str) -> bool {
        // End-to-end through decompose + combine, using the reference DP as
        // the per-component structural matcher (standing in for the
        // predicate engine pre-filter, which only ever removes paths that
        // the DP would reject anyway).
        let expr = parse(src).unwrap();
        let doc = PathDoc::parse(xml.as_bytes()).unwrap();
        let plan = decompose(&expr);
        // The tree numbers elements as the store does.
        let paths = Document::parse(xml.as_bytes()).unwrap().leaf_paths();
        let comp_paths: Vec<Vec<u32>> = plan
            .components
            .iter()
            .map(|c| {
                let skeleton = c.expr.structural_skeleton();
                paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        crate::reference::matches_path(
                            &skeleton,
                            &DocPathView {
                                doc: &doc,
                                nodes: p,
                            },
                        )
                    })
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect();
        combine(&plan, &doc, &paths, &comp_paths)
    }

    #[test]
    fn combine_agrees_with_reference_oracle() {
        let cases = [
            ("/a[b]/c", "<a><b/><c/></a>", true),
            ("/a[b]/c", "<a><c/></a>", false),
            ("/a[b]/c", "<a><b/></a>", false),
            // Both filters must bind the SAME a node.
            ("//a[b][c]", "<r><a><b/></a><a><c/></a></r>", false),
            ("//a[b][c]", "<r><a><b/><c/></a></r>", true),
            // Deep nesting.
            ("/a[b[c]]", "<a><b><c/></b></a>", true),
            ("/a[b[c]]", "<a><b/><x><c/></x></a>", false),
            // The filter step may coincide with the main continuation tag.
            ("/a[b]/b", "<a><b/></a>", true),
            // Paper running example.
            (
                "/a[*/c[d]/e]//c[d]/e",
                "<a><x><c><d/><e/></c></x><y><c><d/><e/></c></y></a>",
                true,
            ),
            ("/a[*/c[d]/e]//c[d]/e", "<a><y><c><e/></c></y></a>", false),
            // Branch below a descendant step: anchor depth varies.
            ("//c[d]/e", "<r><q><c><d/><e/></c></q></r>", true),
            ("//c[d]/e", "<r><q><c><e/></c><c><d/></c></q></r>", false),
        ];
        for (src, xml, expected) in cases {
            assert_eq!(full_match(src, xml), expected, "{src} over {xml}");
            // Cross-check the expectation against the tree oracle itself.
            let expr = parse(src).unwrap();
            let doc = Document::parse(xml.as_bytes()).unwrap();
            assert_eq!(
                matches_document(&expr, &doc),
                expected,
                "oracle {src} over {xml}"
            );
        }
    }

    #[test]
    fn combine_with_attr_filters_in_branches() {
        assert!(full_match("/a[b[@x = 1]]/c", r#"<a><b x="1"/><c/></a>"#));
        assert!(!full_match("/a[b[@x = 1]]/c", r#"<a><b x="2"/><c/></a>"#));
    }
}

#[cfg(test)]
mod structure_tuple_tests {
    use pxf_xml::Document;

    /// DESIGN.md claims node-id equality at depth d is equivalent to the
    /// paper's structure-tuple prefix comparison (Fig. 4). Verify on a
    /// bushy document: for every pair of root-to-leaf paths and depth d,
    /// `path_a[d] == path_b[d]` iff their child-index tuples agree on the
    /// first d+1 entries.
    #[test]
    fn node_identity_equals_structure_tuple_prefix() {
        let doc =
            Document::parse(b"<a><b><c/><c/><d><c/></d></b><b><c/><d/></b><e><b><c/></b></e></a>")
                .unwrap();
        let paths = doc.leaf_paths();
        let tuple = |p: &[pxf_xml::NodeId]| -> Vec<u32> {
            p.iter().map(|&n| doc.node(n).child_index).collect()
        };
        for a in &paths {
            for b in &paths {
                let ta = tuple(a);
                let tb = tuple(b);
                for d in 0..a.len().min(b.len()) {
                    let same_node = a[d] == b[d];
                    let same_prefix = ta[..=d] == tb[..=d];
                    assert_eq!(same_node, same_prefix, "paths {a:?} vs {b:?} at depth {d}");
                }
            }
        }
    }
}
