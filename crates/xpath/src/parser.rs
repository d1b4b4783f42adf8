//! Recursive-descent parser for the XPath subset.
//!
//! Grammar (whitespace is insignificant outside quoted strings):
//!
//! ```text
//! xpath      := ('/' | '//')? step (('/' | '//') step)*
//! step       := nodetest filter*
//! nodetest   := NAME | '*'
//! filter     := '[' (attrfilter | textfilter | xpath) ']'
//! attrfilter := '@' NAME (op value)?
//! textfilter := 'text()' (op value)?
//! op         := '=' | '!=' | '<' | '<=' | '>' | '>='
//! value      := INT | '"' chars '"' | '\'' chars '\''
//! ```

use crate::ast::{AttrFilter, AttrValue, Axis, CmpOp, NodeTest, Step, StepFilter, XPathExpr};
use std::fmt;

/// Error produced when parsing an XPath expression fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset in the input at which the error occurred.
    pub pos: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XPath parse error at byte {}: {}",
            self.pos, self.message
        )
    }
}

impl std::error::Error for XPathError {}

/// Deepest accepted nesting of path filters (`a[b[c]]` nests two levels).
/// The parser recurses once per level, and so does everything that walks
/// the tree it returns (decomposition, `Display`, `Drop`), so an
/// expression from the wire must not choose the depth: unbounded, a 30 KB
/// `SUB` line overflows the stack of the thread that parses it.
const MAX_FILTER_NESTING: usize = 32;

/// Parses an XPath expression from a string. Path filters may nest at
/// most 32 levels deep (`a[b[c]]` nests two); deeper input is an error.
///
/// ```
/// use pxf_xpath::parse;
/// let e = parse("/a/*//b[@x = 3]").unwrap();
/// assert_eq!(e.to_string(), "/a/*//b[@x = 3]");
/// ```
pub fn parse(input: &str) -> Result<XPathExpr, XPathError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let expr = p.parse_expr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(expr)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Path filters open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> XPathError {
        XPathError {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parses a full expression. A leading `/` makes it absolute; a leading
    /// `//` makes it absolute with a descendant first step.
    fn parse_expr(&mut self) -> Result<XPathExpr, XPathError> {
        let mut steps = Vec::new();
        let absolute = self.eat(b'/');
        let mut axis = if absolute && self.eat(b'/') {
            Axis::Descendant
        } else {
            Axis::Child
        };
        loop {
            let step = self.parse_step(axis)?;
            steps.push(step);
            self.skip_ws();
            if self.eat(b'/') {
                axis = if self.eat(b'/') {
                    Axis::Descendant
                } else {
                    Axis::Child
                };
                self.skip_ws();
            } else {
                break;
            }
        }
        Ok(XPathExpr { absolute, steps })
    }

    fn parse_step(&mut self, axis: Axis) -> Result<Step, XPathError> {
        self.skip_ws();
        let test = if self.eat(b'*') {
            NodeTest::Wildcard
        } else {
            let name = self.parse_name()?;
            NodeTest::Tag(name)
        };
        let mut filters = Vec::new();
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                break;
            }
            self.skip_ws();
            let filter = if self.peek() == Some(b'@') {
                self.pos += 1;
                StepFilter::Attribute(self.parse_attr_filter()?)
            } else if self.input[self.pos..].starts_with(b"text()") {
                self.pos += 6;
                self.skip_ws();
                let constraint = match self.peek() {
                    Some(b']') | None => None,
                    _ => {
                        let op = self.parse_op()?;
                        self.skip_ws();
                        let value = self.parse_value()?;
                        Some((op, value))
                    }
                };
                StepFilter::Attribute(AttrFilter {
                    name: crate::ast::TEXT_FILTER.to_string(),
                    constraint,
                })
            } else {
                // A nested path filter. Relative paths only: a leading '/'
                // inside a filter is rejected (context-dependent absolute
                // filters are not part of the subset).
                if self.peek() == Some(b'/') {
                    return Err(self.error("nested path filters must be relative"));
                }
                if self.depth == MAX_FILTER_NESTING {
                    return Err(self.error(format!(
                        "path filters nested more than {MAX_FILTER_NESTING} levels deep"
                    )));
                }
                self.depth += 1;
                let inner = self.parse_expr()?;
                self.depth -= 1;
                StepFilter::Path(inner)
            };
            self.skip_ws();
            if !self.eat(b']') {
                return Err(self.error("expected ']' to close filter"));
            }
            filters.push(filter);
        }
        Ok(Step {
            axis,
            test,
            filters,
        })
    }

    fn parse_attr_filter(&mut self) -> Result<AttrFilter, XPathError> {
        let name = self.parse_name()?;
        self.skip_ws();
        let constraint = match self.peek() {
            Some(b']') | None => None,
            _ => {
                let op = self.parse_op()?;
                self.skip_ws();
                let value = self.parse_value()?;
                Some((op, value))
            }
        };
        Ok(AttrFilter { name, constraint })
    }

    fn parse_op(&mut self) -> Result<CmpOp, XPathError> {
        match self.bump() {
            Some(b'=') => Ok(CmpOp::Eq),
            Some(b'!') => {
                if self.eat(b'=') {
                    Ok(CmpOp::Ne)
                } else {
                    Err(self.error("expected '=' after '!'"))
                }
            }
            Some(b'<') => Ok(if self.eat(b'=') { CmpOp::Le } else { CmpOp::Lt }),
            Some(b'>') => Ok(if self.eat(b'=') { CmpOp::Ge } else { CmpOp::Gt }),
            _ => Err(self.error("expected comparison operator")),
        }
    }

    fn parse_value(&mut self) -> Result<AttrValue, XPathError> {
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == q {
                        let s = std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.error("invalid UTF-8 in string literal"))?
                            .to_string();
                        self.pos += 1;
                        return Ok(AttrValue::Str(s));
                    }
                    self.pos += 1;
                }
                Err(self.error("unterminated string literal"))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+' => {
                let start = self.pos;
                self.pos += 1;
                while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
                text.parse::<i64>()
                    .map(AttrValue::Int)
                    .map_err(|_| self.error(format!("invalid integer literal '{text}'")))
            }
            _ => Err(self.error("expected a value literal")),
        }
    }

    fn parse_name(&mut self) -> Result<String, XPathError> {
        let start = self.pos;
        // XML NameStartChar (ASCII approximation plus any non-ASCII char).
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80 => {
                self.pos += 1;
            }
            _ => return Err(self.error("expected a name")),
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric()
                || b == b'_'
                || b == b':'
                || b == b'-'
                || b == b'.'
                || b >= 0x80
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .map(|s| s.to_string())
            .map_err(|_| self.error("invalid UTF-8 in name"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let e = parse(s).unwrap();
        assert_eq!(e.to_string(), s, "round-trip failed for {s}");
        let e2 = parse(&e.to_string()).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn simple_absolute() {
        let e = parse("/a/b/b").unwrap();
        assert!(e.absolute);
        assert_eq!(e.len(), 3);
        assert_eq!(e.steps[0].test.tag(), Some("a"));
        assert_eq!(e.steps[2].test.tag(), Some("b"));
        assert!(e.steps.iter().all(|s| s.axis == Axis::Child));
    }

    #[test]
    fn simple_relative() {
        let e = parse("a/a/b/c").unwrap();
        assert!(!e.absolute);
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn single_tag() {
        let e = parse("a").unwrap();
        assert!(!e.absolute);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn descendants_and_wildcards() {
        let e = parse("*/a/*/b//c/*/*").unwrap();
        assert!(!e.absolute);
        assert_eq!(e.len(), 7);
        assert_eq!(e.steps[4].axis, Axis::Descendant);
        assert!(e.steps[0].test.is_wildcard());
    }

    #[test]
    fn leading_double_slash() {
        let e = parse("//a/b").unwrap();
        assert!(e.absolute);
        assert_eq!(e.steps[0].axis, Axis::Descendant);
        assert_eq!(e.steps[1].axis, Axis::Child);
    }

    #[test]
    fn attribute_filters() {
        let e = parse("/*/t1[@x = 3]").unwrap();
        let filters: Vec<_> = e.steps[1].attr_filters().collect();
        assert_eq!(filters.len(), 1);
        assert_eq!(filters[0].name, "x");
        assert_eq!(filters[0].constraint, Some((CmpOp::Eq, AttrValue::Int(3))));
    }

    #[test]
    fn attribute_filter_ops() {
        for (src, op) in [
            ("a[@x = 1]", CmpOp::Eq),
            ("a[@x != 1]", CmpOp::Ne),
            ("a[@x < 1]", CmpOp::Lt),
            ("a[@x <= 1]", CmpOp::Le),
            ("a[@x > 1]", CmpOp::Gt),
            ("a[@x >= 1]", CmpOp::Ge),
        ] {
            let e = parse(src).unwrap();
            let f = e.steps[0].attr_filters().next().unwrap();
            assert_eq!(f.constraint.as_ref().unwrap().0, op, "for {src}");
        }
    }

    #[test]
    fn attribute_existence() {
        let e = parse("a[@id]").unwrap();
        let f = e.steps[0].attr_filters().next().unwrap();
        assert_eq!(f.name, "id");
        assert!(f.constraint.is_none());
    }

    #[test]
    fn string_values() {
        let e = parse("a[@cat = \"news\"]").unwrap();
        let f = e.steps[0].attr_filters().next().unwrap();
        assert_eq!(
            f.constraint,
            Some((CmpOp::Eq, AttrValue::Str("news".into())))
        );
        let e2 = parse("a[@cat = 'news']").unwrap();
        assert_eq!(e.steps, e2.steps);
    }

    #[test]
    fn negative_int_value() {
        let e = parse("a[@x = -5]").unwrap();
        let f = e.steps[0].attr_filters().next().unwrap();
        assert_eq!(f.constraint, Some((CmpOp::Eq, AttrValue::Int(-5))));
    }

    #[test]
    fn nested_path_filter() {
        // The paper's running example: /a[*/c[d]/e]//c[d]/e
        let e = parse("/a[*/c[d]/e]//c[d]/e").unwrap();
        assert!(e.has_nested_paths());
        assert_eq!(e.len(), 3);
        let nested: Vec<_> = e.steps[0].path_filters().collect();
        assert_eq!(nested.len(), 1);
        assert_eq!(nested[0].len(), 3);
        assert!(nested[0].has_nested_paths());
        let inner: Vec<_> = nested[0].steps[1].path_filters().collect();
        assert_eq!(inner[0].to_string(), "d");
    }

    #[test]
    fn multiple_filters_on_step() {
        let e = parse("a[@x = 1][@y >= 2][b/c]").unwrap();
        assert_eq!(e.steps[0].filters.len(), 3);
        assert_eq!(e.steps[0].attr_filters().count(), 2);
        assert_eq!(e.steps[0].path_filters().count(), 1);
    }

    #[test]
    fn whitespace_tolerated() {
        let e = parse("  /a / b [ @x = 3 ] ").unwrap();
        assert_eq!(e.to_string(), "/a/b[@x = 3]");
    }

    #[test]
    fn name_characters() {
        let e = parse("/body.content/block-1/p_2").unwrap();
        assert_eq!(e.steps[0].test.tag(), Some("body.content"));
        assert_eq!(e.steps[1].test.tag(), Some("block-1"));
        assert_eq!(e.steps[2].test.tag(), Some("p_2"));
    }

    #[test]
    fn roundtrips() {
        for s in [
            "/a/b/b",
            "a",
            "a/a/b/c",
            "/a/*/*/b",
            "/a/b/*/*",
            "/*/a/b",
            "/*/*/*/*",
            "a/b/*/*",
            "*/*/a/*/b",
            "a/*/*/b/c",
            "*/*/*/*",
            "/a//b/c",
            "/*/b//c/*",
            "a/b//c",
            "*/a/*/b//c/*/*",
            "/a[*/c[d]/e]//c[d]/e",
            "/*/t1[@x = 3]",
            "a[@id]",
            "a[@cat = \"news\"]//b[@x >= -2]",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn errors() {
        for bad in [
            "",
            "/",
            "//",
            "a/",
            "a//",
            "[a]",
            "a[",
            "a[]",
            "a[@]",
            "a[@x !]",
            "a[@x = ]",
            "a[@x = \"unterminated]",
            "a]b",
            "a b",
            "/a[/b]",
            "a[@x = 12x]",
        ] {
            assert!(parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    fn nested(levels: usize) -> String {
        format!("{}a{}", "a[".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn filter_nesting_is_accepted_up_to_the_cap() {
        let src = nested(MAX_FILTER_NESTING);
        assert_eq!(parse(&src).unwrap().to_string(), src);
    }

    #[test]
    fn filter_nesting_past_the_cap_is_an_error_at_the_offending_filter() {
        let err = parse(&nested(MAX_FILTER_NESTING + 1)).unwrap_err();
        assert_eq!(err.pos, 2 * (MAX_FILTER_NESTING + 1));
        assert!(err.message.contains("nested"), "{err}");
        // Far past the cap: an error, not a stack overflow. Sibling
        // filters do not nest, however many there are.
        assert!(parse(&nested(100_000)).is_err());
        let wide = format!("a{}", "[b]".repeat(1_000));
        assert_eq!(parse(&wide).unwrap().steps[0].filters.len(), 1_000);
    }

    #[test]
    fn error_position_reported() {
        let err = parse("/a/[b]").unwrap_err();
        assert_eq!(err.pos, 3);
        assert!(err.to_string().contains("byte 3"));
    }
}

#[cfg(test)]
mod quote_tests {
    use super::*;

    #[test]
    fn string_values_with_quotes_roundtrip() {
        let e = parse(r#"a[@t = 'say "hi"']"#).unwrap();
        let rendered = e.to_string();
        assert_eq!(rendered, r#"a[@t = 'say "hi"']"#);
        assert_eq!(parse(&rendered).unwrap(), e);

        let e = parse(r#"a[@t = "it's"]"#).unwrap();
        let rendered = e.to_string();
        assert_eq!(rendered, r#"a[@t = "it's"]"#);
        assert_eq!(parse(&rendered).unwrap(), e);
    }
}
