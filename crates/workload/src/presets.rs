//! Canonical experiment configurations reproducing the paper's two
//! workload regimes (§6.1).
//!
//! The knob values below were calibrated (see EXPERIMENTS.md) so that the
//! generated workloads land in the regimes the paper reports:
//!
//! * **NITF**: ≈6% of expressions matched per document, ≈140 tags per
//!   document (measured here: ≈7%, ≈134 tags);
//! * **PSD**: ≈75% matched (measured here: ≈73%, ≈206 tags).

use crate::dtd::Dtd;
use crate::xml_gen::XmlParams;
use crate::xpath_gen::XPathParams;

/// A fully specified workload regime: DTD plus generator parameters.
#[derive(Debug, Clone)]
pub struct Regime {
    /// Regime name ("nitf" / "psd").
    pub name: &'static str,
    /// The DTD.
    pub dtd: Dtd,
    /// XPath generator parameters (count left at its default; set it per
    /// experiment).
    pub xpath: XPathParams,
    /// XML generator parameters.
    pub xml: XmlParams,
}

impl Regime {
    /// The low-match regime (the paper's NITF workload): wide DTD, skewed
    /// documents, selective expressions.
    pub fn nitf() -> Regime {
        Regime {
            name: "nitf",
            dtd: Dtd::nitf(),
            xpath: XPathParams {
                min_depth: 4,
                max_depth: 6,
                wildcard_prob: 0.2,
                descendant_prob: 0.2,
                ..Default::default()
            },
            xml: XmlParams {
                max_levels: 9,
                min_fanout: 1,
                max_fanout: 6,
                child_skew: 3.0,
                ..Default::default()
            },
        }
    }

    /// The expression-count scaling regime (stage-2 scaling experiments):
    /// the NITF low-match shape with duplicate expressions allowed, so
    /// the per-document match *fraction* stays fixed while the expression
    /// count sweeps from thousands to millions — expressions are sampled
    /// i.i.d. from the same distribution at every count (the
    /// distinct-expression retry of the other regimes shifts selectivity
    /// as the pool is exhausted at large counts).
    pub fn scaling() -> Regime {
        let mut regime = Regime::nitf();
        regime.name = "nitf-scaling";
        regime.xpath.distinct = false;
        regime
    }

    /// The duplicate-heavy regime: the NITF shape with ≈35% verbatim
    /// re-registrations and ≈25% derived contained sub-paths, modeling a
    /// subscriber population where popular queries recur and broad
    /// queries subsume narrow ones.
    pub fn duplicates() -> Regime {
        let mut regime = Regime::nitf();
        regime.name = "nitf-dup";
        regime.xpath.distinct = false;
        regime.xpath.dup_rate = 0.35;
        regime.xpath.containment_rate = 0.25;
        regime
    }

    /// The high-match regime (the paper's PSD workload): narrow DTD,
    /// broad-coverage documents.
    pub fn psd() -> Regime {
        Regime {
            name: "psd",
            dtd: Dtd::psd(),
            xpath: XPathParams {
                min_depth: 2,
                max_depth: 6,
                wildcard_prob: 0.2,
                descendant_prob: 0.2,
                ..Default::default()
            },
            xml: XmlParams {
                max_levels: 8,
                min_fanout: 3,
                max_fanout: 6,
                child_skew: 0.0,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_construct() {
        let n = Regime::nitf();
        assert_eq!(n.dtd.name, "nitf");
        assert_eq!(n.xpath.max_depth, 6);
        let p = Regime::psd();
        assert_eq!(p.dtd.name, "psd");
        assert_eq!(p.xml.child_skew, 0.0);
        let s = Regime::scaling();
        assert_eq!(s.name, "nitf-scaling");
        assert_eq!(s.dtd.name, "nitf");
        assert!(!s.xpath.distinct, "scaling sweeps sample i.i.d.");
        let d = Regime::duplicates();
        assert_eq!(d.name, "nitf-dup");
        assert!(!d.xpath.distinct);
        assert!(d.xpath.dup_rate > 0.0 && d.xpath.containment_rate > 0.0);
    }
}
