//! DTD-driven XPath workload generator, parameter-compatible with the
//! generator of Diao et al. used by the paper (§6.1): number of
//! expressions, distinct flag (D), maximum length (L), wildcard
//! probability (W), descendant probability (DO), and attribute filters per
//! path (§6.4); plus an optional nested-path probability for the engine's
//! tree-pattern extension.

use crate::dtd::{AttrKind, Dtd};
use pxf_rng::Rng;
use pxf_xpath::{AttrFilter, AttrValue, Axis, CmpOp, NodeTest, Step, StepFilter, XPathExpr};
use std::collections::HashSet;

/// Parameters of the XPath generator.
#[derive(Debug, Clone)]
pub struct XPathParams {
    /// Number of expressions to generate.
    pub count: usize,
    /// D: require distinct expressions (retry duplicates).
    pub distinct: bool,
    /// Minimum number of location steps (expression lengths are uniform
    /// in `min_depth..=max_depth`).
    pub min_depth: usize,
    /// L: maximum number of location steps.
    pub max_depth: usize,
    /// W: probability that a location step is `*`.
    pub wildcard_prob: f64,
    /// DO: probability that a location step uses `//`.
    pub descendant_prob: f64,
    /// Number of attribute filters attached to each expression (0–2 in the
    /// paper's Fig. 9 workloads). Filters land on steps whose element
    /// declares attributes; expressions without such steps get fewer.
    pub attr_filters: usize,
    /// Probability that an expression carries one nested path filter
    /// (0 in all paper workloads; exercise of the §5 extension).
    pub nested_prob: f64,
    /// Probability that an expression is a verbatim copy of an earlier
    /// expression in the same workload (requires `distinct: false`).
    /// Models real subscription populations, where popular queries are
    /// registered by many subscribers — they share one trie node in the
    /// engine (equal predicate chains).
    pub dup_rate: f64,
    /// Probability that an expression is *derived* from an earlier one as
    /// a relative sub-path (a contiguous tagged window of the base's
    /// steps), so the base structurally contains it.
    pub containment_rate: f64,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for XPathParams {
    fn default() -> Self {
        // The paper's defaults: L=6, W=0.2, DO=0.2, distinct.
        XPathParams {
            count: 1000,
            distinct: true,
            min_depth: 1,
            max_depth: 6,
            wildcard_prob: 0.2,
            descendant_prob: 0.2,
            attr_filters: 0,
            nested_prob: 0.0,
            dup_rate: 0.0,
            containment_rate: 0.0,
            seed: 42,
        }
    }
}

/// Generates an XPath workload over a DTD.
pub struct XPathGenerator<'d> {
    dtd: &'d Dtd,
    params: XPathParams,
    rng: Rng,
}

impl<'d> XPathGenerator<'d> {
    /// Creates a generator for a DTD.
    pub fn new(dtd: &'d Dtd, params: XPathParams) -> Self {
        let rng = Rng::seed_from_u64(params.seed);
        XPathGenerator { dtd, params, rng }
    }

    /// Generates the workload. With `distinct`, duplicates are retried (up
    /// to a bounded number of attempts — a small DTD may not admit `count`
    /// distinct expressions, in which case fewer are returned).
    pub fn generate(&mut self) -> Vec<XPathExpr> {
        let mut out: Vec<XPathExpr> = Vec::with_capacity(self.params.count);
        let mut seen: HashSet<String> = HashSet::new();
        let max_attempts = self.params.count.saturating_mul(50).max(1000);
        let mut attempts = 0;
        while out.len() < self.params.count && attempts < max_attempts {
            attempts += 1;
            let expr = if !out.is_empty()
                && self.params.dup_rate > 0.0
                && self.rng.gen_bool(self.params.dup_rate)
            {
                // Re-register an earlier expression verbatim (a popular
                // query acquiring another subscriber).
                out[self.rng.gen_range(0..out.len())].clone()
            } else if !out.is_empty()
                && self.params.containment_rate > 0.0
                && self.rng.gen_bool(self.params.containment_rate)
            {
                self.derive_contained(&out)
                    .unwrap_or_else(|| self.generate_one())
            } else {
                self.generate_one()
            };
            if self.params.distinct {
                let key = expr.to_string();
                if !seen.insert(key) {
                    continue;
                }
            }
            out.push(expr);
        }
        out
    }

    /// Derives an expression structurally contained in one already in the
    /// workload: a contiguous window of a base expression's steps, emitted
    /// as a relative expression, so the base's chain carries the derived
    /// chain as an interior sub-chain. Returns `None` when no sampled
    /// base admits a usable window.
    fn derive_contained(&mut self, pool: &[XPathExpr]) -> Option<XPathExpr> {
        for _ in 0..8 {
            let base = &pool[self.rng.gen_range(0..pool.len())];
            let n = base.steps.len();
            if n < 3 || base.has_nested_paths() {
                continue;
            }
            let len = self.rng.gen_range(2..n);
            let start = self.rng.gen_range(0..=n - len);
            let window = &base.steps[start..start + len];
            // The window must open on a bare tagged step: a wildcard head
            // only asks for depth, and a filtered head would change the
            // derived expression's selectivity relative to the base.
            if !matches!(window[0].test, NodeTest::Tag(_)) || !window[0].filters.is_empty() {
                continue;
            }
            let mut steps: Vec<Step> = window.to_vec();
            steps[0].axis = Axis::Child;
            return Some(XPathExpr {
                absolute: false,
                steps,
            });
        }
        None
    }

    /// Generates one expression.
    pub fn generate_one(&mut self) -> XPathExpr {
        let target_len = self
            .rng
            .gen_range(self.params.min_depth.max(1)..=self.params.max_depth);
        let steps = self.walk(self.dtd.root, target_len, true);
        let mut expr = XPathExpr {
            absolute: true,
            steps,
        };
        self.attach_attr_filters(&mut expr);
        if self.params.nested_prob > 0.0 && self.rng.gen_bool(self.params.nested_prob) {
            self.attach_nested_filter(&mut expr);
        }
        expr
    }

    /// Walks the DTD from `start`, producing up to `len` steps. `from_root`
    /// selects whether the first step is the start element itself (the
    /// generator of Diao et al. emits root-anchored queries).
    fn walk(&mut self, start: usize, len: usize, from_root: bool) -> Vec<Step> {
        let dtd = self.dtd;
        let mut steps = Vec::with_capacity(len);
        let mut cur = start;
        for i in 0..len {
            let (axis, element) = if i == 0 && from_root {
                // First step: the root element; `//` with probability DO.
                let axis = if self.rng.gen_bool(self.params.descendant_prob) {
                    Axis::Descendant
                } else {
                    Axis::Child
                };
                (axis, cur)
            } else {
                let children = &dtd.elements[cur].children;
                if children.is_empty() {
                    break;
                }
                if self.rng.gen_bool(self.params.descendant_prob) {
                    // `//`: jump one or two levels down the DTD graph.
                    let child = children[self.rng.gen_range(0..children.len())];
                    let grand = &dtd.elements[child].children;
                    let target = if !grand.is_empty() && self.rng.gen_bool(0.5) {
                        grand[self.rng.gen_range(0..grand.len())]
                    } else {
                        child
                    };
                    (Axis::Descendant, target)
                } else {
                    let child = children[self.rng.gen_range(0..children.len())];
                    (Axis::Child, child)
                }
            };
            let test = if self.rng.gen_bool(self.params.wildcard_prob) {
                NodeTest::Wildcard
            } else {
                NodeTest::Tag(dtd.elements[element].name.to_string())
            };
            steps.push(Step {
                axis,
                test,
                filters: Vec::new(),
            });
            cur = element;
        }
        steps
    }

    /// Attaches up to `attr_filters` attribute filters to random tagged
    /// steps whose elements declare attributes.
    fn attach_attr_filters(&mut self, expr: &mut XPathExpr) {
        if self.params.attr_filters == 0 {
            return;
        }
        let dtd = self.dtd;
        let candidates: Vec<usize> = expr
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.test
                    .tag()
                    .and_then(|t| dtd.element(t))
                    .map(|e| !dtd.elements[e].attributes.is_empty())
                    .unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return;
        }
        for _ in 0..self.params.attr_filters {
            let step_idx = candidates[self.rng.gen_range(0..candidates.len())];
            let element = dtd
                .element(expr.steps[step_idx].test.tag().unwrap())
                .unwrap();
            let decls = &dtd.elements[element].attributes;
            let decl = &decls[self.rng.gen_range(0..decls.len())];
            let filter = match &decl.kind {
                AttrKind::Int { max } => {
                    let op = match self.rng.gen_range(0..4) {
                        0 => CmpOp::Eq,
                        1 => CmpOp::Ge,
                        2 => CmpOp::Le,
                        _ => CmpOp::Gt,
                    };
                    AttrFilter {
                        name: decl.name.to_string(),
                        constraint: Some((op, AttrValue::Int(self.rng.gen_range(0..*max)))),
                    }
                }
                AttrKind::Enum(values) => AttrFilter {
                    name: decl.name.to_string(),
                    constraint: Some((
                        CmpOp::Eq,
                        AttrValue::Str(values[self.rng.gen_range(0..values.len())].to_string()),
                    )),
                },
            };
            expr.steps[step_idx]
                .filters
                .push(StepFilter::Attribute(filter));
        }
    }

    /// Attaches one nested path filter to a random tagged, non-leaf step.
    fn attach_nested_filter(&mut self, expr: &mut XPathExpr) {
        let dtd = self.dtd;
        let candidates: Vec<(usize, usize)> = expr
            .steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let e = s.test.tag().and_then(|t| dtd.element(t))?;
                (!dtd.elements[e].children.is_empty()).then_some((i, e))
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let (step_idx, element) = candidates[self.rng.gen_range(0..candidates.len())];
        let children = &dtd.elements[element].children;
        let child = children[self.rng.gen_range(0..children.len())];
        let len = self.rng.gen_range(1..=2usize);
        let mut steps = vec![Step {
            axis: Axis::Child,
            test: NodeTest::Tag(dtd.elements[child].name.to_string()),
            filters: Vec::new(),
        }];
        steps.extend(self.walk(child, len, false).into_iter().take(len - 1));
        let nested = XPathExpr {
            absolute: false,
            steps,
        };
        expr.steps[step_idx].filters.push(StepFilter::Path(nested));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let dtd = Dtd::psd();
        let params = XPathParams {
            count: 50,
            ..Default::default()
        };
        let a = XPathGenerator::new(&dtd, params.clone()).generate();
        let b = XPathGenerator::new(&dtd, params).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_workload_has_no_duplicates() {
        let dtd = Dtd::nitf();
        let params = XPathParams {
            count: 500,
            distinct: true,
            ..Default::default()
        };
        let exprs = XPathGenerator::new(&dtd, params).generate();
        assert_eq!(exprs.len(), 500);
        let rendered: HashSet<String> = exprs.iter().map(|e| e.to_string()).collect();
        assert_eq!(rendered.len(), 500);
    }

    #[test]
    fn non_distinct_workload_repeats() {
        let dtd = Dtd::psd();
        let params = XPathParams {
            count: 2000,
            distinct: false,
            max_depth: 3,
            ..Default::default()
        };
        let exprs = XPathGenerator::new(&dtd, params).generate();
        assert_eq!(exprs.len(), 2000);
        let rendered: HashSet<String> = exprs.iter().map(|e| e.to_string()).collect();
        assert!(rendered.len() < 2000, "expected duplicates");
    }

    #[test]
    fn respects_max_depth() {
        let dtd = Dtd::nitf();
        let params = XPathParams {
            count: 200,
            max_depth: 4,
            ..Default::default()
        };
        for e in XPathGenerator::new(&dtd, params).generate() {
            assert!(e.len() <= 4);
            assert!(!e.is_empty());
        }
    }

    #[test]
    fn probabilities_zero_and_high() {
        let dtd = Dtd::nitf();
        let none = XPathGenerator::new(
            &dtd,
            XPathParams {
                count: 100,
                wildcard_prob: 0.0,
                descendant_prob: 0.0,
                ..Default::default()
            },
        )
        .generate();
        for e in &none {
            assert!(!e.has_descendant());
            assert!(e.steps.iter().all(|s| !s.test.is_wildcard()));
        }
        let all = XPathGenerator::new(
            &dtd,
            XPathParams {
                count: 100,
                wildcard_prob: 0.9,
                descendant_prob: 0.9,
                distinct: false,
                ..Default::default()
            },
        )
        .generate();
        let wildcards: usize = all
            .iter()
            .flat_map(|e| &e.steps)
            .filter(|s| s.test.is_wildcard())
            .count();
        let steps: usize = all.iter().map(|e| e.len()).sum();
        assert!(wildcards as f64 > steps as f64 * 0.7);
    }

    #[test]
    fn attr_filters_attached() {
        let dtd = Dtd::nitf();
        let exprs = XPathGenerator::new(
            &dtd,
            XPathParams {
                count: 200,
                attr_filters: 1,
                wildcard_prob: 0.0,
                ..Default::default()
            },
        )
        .generate();
        let with = exprs.iter().filter(|e| e.has_attr_filters()).count();
        // Every all-tag expression over NITF has attribute-bearing steps.
        assert!(with > 150, "got {with}");
    }

    #[test]
    fn generated_expressions_reparse() {
        let dtd = Dtd::nitf();
        let exprs = XPathGenerator::new(
            &dtd,
            XPathParams {
                count: 300,
                attr_filters: 2,
                nested_prob: 0.3,
                ..Default::default()
            },
        )
        .generate();
        for e in exprs {
            let s = e.to_string();
            let re = pxf_xpath::parse(&s).unwrap_or_else(|err| panic!("{s}: {err}"));
            assert_eq!(re, e, "{s}");
        }
    }

    #[test]
    fn dup_rate_repeats_expressions() {
        let dtd = Dtd::nitf();
        let exprs = XPathGenerator::new(
            &dtd,
            XPathParams {
                count: 1000,
                distinct: false,
                dup_rate: 0.4,
                ..Default::default()
            },
        )
        .generate();
        assert_eq!(exprs.len(), 1000);
        let rendered: HashSet<String> = exprs.iter().map(|e| e.to_string()).collect();
        // ~40% of emissions are copies; the pool of distinct expressions
        // is much smaller than the workload.
        assert!(
            rendered.len() < 700,
            "expected heavy duplication, got {} distinct",
            rendered.len()
        );
    }

    #[test]
    fn containment_rate_derives_relative_subpaths() {
        let dtd = Dtd::nitf();
        let exprs = XPathGenerator::new(
            &dtd,
            XPathParams {
                count: 500,
                distinct: false,
                min_depth: 4,
                containment_rate: 0.5,
                ..Default::default()
            },
        )
        .generate();
        assert_eq!(exprs.len(), 500);
        let relative = exprs.iter().filter(|e| !e.absolute).count();
        assert!(relative > 100, "got {relative} derived expressions");
        // Every derived expression is a step window of some earlier one.
        for e in exprs.iter().filter(|e| !e.absolute) {
            assert!(e.steps.len() >= 2);
            assert_eq!(e.steps[0].axis, Axis::Child);
            let found = exprs.iter().any(|base| {
                base.steps
                    .windows(e.steps.len())
                    .any(|w| w[1..] == e.steps[1..] && w[0].test == e.steps[0].test)
            });
            assert!(found, "{e} has no containing base");
        }
        // Derived expressions still round-trip through the parser.
        for e in &exprs {
            let s = e.to_string();
            assert_eq!(&pxf_xpath::parse(&s).unwrap(), e, "{s}");
        }
    }

    #[test]
    fn nested_filters_generated() {
        let dtd = Dtd::psd();
        let exprs = XPathGenerator::new(
            &dtd,
            XPathParams {
                count: 200,
                nested_prob: 1.0,
                wildcard_prob: 0.0,
                ..Default::default()
            },
        )
        .generate();
        let nested = exprs.iter().filter(|e| e.has_nested_paths()).count();
        assert!(nested > 100, "got {nested}");
    }
}
