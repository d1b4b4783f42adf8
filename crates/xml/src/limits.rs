//! Per-document resource limits for hostile-input hardening.
//!
//! A production filtering broker cannot assume cooperative publishers:
//! documents arrive truncated, malformed, and adversarial (depth bombs,
//! entity floods, megabyte attribute values). [`ParserLimits`] bounds the
//! resources a single document may consume during parsing; every limit
//! violation surfaces as a structured
//! [`XmlErrorKind`](crate::XmlErrorKind) carrying the byte offset at
//! which the budget was exhausted, so the ingest pipeline can reject the
//! document, report it, and move on to the next one.

/// Resource bounds enforced while parsing one document.
///
/// The defaults are deliberately generous — far above anything the
/// workload generators produce — but finite, so a single hostile document
/// can neither exhaust memory nor stall a worker. Construct stricter
/// budgets with struct-update syntax:
///
/// ```
/// use pxf_xml::ParserLimits;
/// let limits = ParserLimits { max_depth: 32, ..ParserLimits::default() };
/// assert!(limits.max_depth < ParserLimits::default().max_depth);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserLimits {
    /// Maximum element nesting depth (root = 1). A [`PathDoc`](crate::PathDoc)
    /// admits at most 65,535 whatever this says.
    pub max_depth: usize,
    /// Maximum size of one document in bytes.
    pub max_document_bytes: usize,
    /// Maximum number of attributes on one element.
    pub max_attributes: usize,
    /// Maximum byte length of one (undecoded) attribute value.
    pub max_attribute_value_len: usize,
    /// Maximum byte length of an element or attribute name.
    pub max_name_len: usize,
    /// Maximum number of entity and character references decoded per
    /// document (bounds total entity-expansion work).
    pub max_entity_expansions: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        ParserLimits {
            max_depth: 256,
            max_document_bytes: 64 << 20,
            max_attributes: 256,
            max_attribute_value_len: 1 << 20,
            max_name_len: 1 << 12,
            max_entity_expansions: 1 << 20,
        }
    }
}

impl ParserLimits {
    /// A strict budget suitable for untrusted streams: small documents,
    /// shallow nesting, short names and values.
    pub fn strict() -> Self {
        ParserLimits {
            max_depth: 64,
            max_document_bytes: 1 << 20,
            max_attributes: 32,
            max_attribute_value_len: 1 << 12,
            max_name_len: 256,
            max_entity_expansions: 1 << 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_is_tighter_than_default() {
        let d = ParserLimits::default();
        let s = ParserLimits::strict();
        assert!(s.max_depth < d.max_depth);
        assert!(s.max_document_bytes < d.max_document_bytes);
        assert!(s.max_attributes < d.max_attributes);
        assert!(s.max_attribute_value_len < d.max_attribute_value_len);
        assert!(s.max_name_len < d.max_name_len);
        assert!(s.max_entity_expansions < d.max_entity_expansions);
    }
}
