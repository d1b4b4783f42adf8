//! Publication encoding of XML document paths (paper §3.3).
//!
//! Each root-to-leaf document path `e = (t1, …, tn)` becomes a set of
//! (attribute, value) pairs: a `(length, n)` tuple plus one `(tag, position)`
//! tuple per element, with each tag annotated by its *occurrence number* —
//! how many times that tag name has already appeared in the path (Example 1
//! of the paper).

use pxf_xml::{Interner, NodeId, PathDoc, Symbol};

/// One `(tag, position)` tuple of a publication, with its occurrence number
/// and the originating document node (for attribute lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathTuple {
    /// Interned tag name.
    pub tag: Symbol,
    /// 1-based position in the document path.
    pub pos: u16,
    /// 1-based occurrence number of this tag name within the path.
    pub occ: u16,
    /// The element this tuple came from.
    pub node: NodeId,
}

/// The publication for one document path: its length plus one tuple per
/// element. The struct is designed for reuse across paths — see
/// [`Publication::encode`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Publication {
    /// Path length (the `(length, n)` tuple).
    pub length: u16,
    /// `(tag, position)` tuples in path order.
    pub tuples: Vec<PathTuple>,
    /// Scratch for occurrence counting, keyed by tag symbol.
    occ_scratch: Vec<(Symbol, u16)>,
}

impl Publication {
    /// Creates an empty publication (fill with [`Self::encode`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a document path (root-to-leaf node ids) into this
    /// publication, reusing buffers. Tags are interned on the fly — per the
    /// paper this happens during document parsing and "does not require
    /// additional processing, except for collecting the occurrence numbers".
    pub fn encode(&mut self, doc: &PathDoc, path: &[NodeId], interner: &mut Interner) {
        self.length = path.len() as u16;
        self.tuples.clear();
        self.occ_scratch.clear();
        for (i, &node) in path.iter().enumerate() {
            let tag = interner.intern(doc.tag(node));
            self.push_tuple(tag, (i + 1) as u16, node);
        }
    }

    /// Read-only variant of [`Self::encode`]: tags never seen by the
    /// interner map to [`Symbol::UNKNOWN`]. Such tags cannot match any
    /// stored predicate (no predicate mentions them), so matching results
    /// are identical — this is what allows concurrent matching against a
    /// shared, immutable engine.
    pub fn encode_readonly(&mut self, doc: &PathDoc, path: &[NodeId], interner: &Interner) {
        self.length = path.len() as u16;
        self.tuples.clear();
        self.occ_scratch.clear();
        for (i, &node) in path.iter().enumerate() {
            let tag = interner
                .get(doc.tag(node))
                .unwrap_or(pxf_xml::Symbol::UNKNOWN);
            self.push_tuple(tag, (i + 1) as u16, node);
        }
    }

    /// Resets the publication for incremental path-stack encoding of a new
    /// document (see [`Self::push_path_element`]).
    pub fn begin_incremental(&mut self) {
        self.length = 0;
        self.tuples.clear();
        self.occ_scratch.clear();
    }

    /// Pushes one element onto the path stack: afterwards the publication
    /// is exactly [`Self::encode`] of the current root-to-element path.
    /// Occurrence numbers are maintained incrementally — one counter probe
    /// per push instead of a full re-count per path.
    pub fn push_path_element(&mut self, tag: Symbol, node: NodeId) {
        let pos = (self.tuples.len() + 1) as u16;
        self.push_tuple(tag, pos, node);
        self.length = pos;
    }

    /// Pops the most recent element, undoing [`Self::push_path_element`].
    /// A counter reaching zero stays recorded so a re-push of the same tag
    /// restores it to one.
    pub fn pop_path_element(&mut self) {
        let t = self.tuples.pop().expect("pop from empty path stack");
        let slot = self
            .occ_scratch
            .iter_mut()
            .find(|(s, _)| *s == t.tag)
            .expect("occurrence scratch in sync with tuples");
        slot.1 -= 1;
        self.length = self.tuples.len() as u16;
    }

    fn push_tuple(&mut self, tag: pxf_xml::Symbol, pos: u16, node: NodeId) {
        let occ = match self.occ_scratch.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                self.occ_scratch.push((tag, 1));
                1
            }
        };
        self.tuples.push(PathTuple {
            tag,
            pos,
            occ,
            node,
        });
    }

    /// Convenience constructor for a single path.
    pub fn from_path(doc: &PathDoc, path: &[NodeId], interner: &mut Interner) -> Self {
        let mut p = Publication::new();
        p.encode(doc, path, interner);
        p
    }

    /// Builds a publication directly from a tag-name sequence (tests and the
    /// reference matcher).
    pub fn from_tags(tags: &[&str], interner: &mut Interner) -> Self {
        let mut p = Publication::new();
        p.length = tags.len() as u16;
        for (i, t) in tags.iter().enumerate() {
            let tag = interner.intern(t);
            let occ = match p.occ_scratch.iter_mut().find(|(s, _)| *s == tag) {
                Some((_, n)) => {
                    *n += 1;
                    *n
                }
                None => {
                    p.occ_scratch.push((tag, 1));
                    1
                }
            };
            p.tuples.push(PathTuple {
                tag,
                pos: (i + 1) as u16,
                occ,
                node: 0,
            });
        }
        p
    }

    /// Finds the tuple for a given tag occurrence.
    pub fn find_occurrence(&self, tag: Symbol, occ: u16) -> Option<&PathTuple> {
        self.tuples.iter().find(|t| t.tag == tag && t.occ == occ)
    }

    /// The position (1-based) of a given tag occurrence.
    pub fn position_of(&self, tag: Symbol, occ: u16) -> Option<u16> {
        self.find_occurrence(tag, occ).map(|t| t.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only root-to-leaf path of a one-chain document: every node.
    fn chain(doc: &PathDoc) -> Vec<NodeId> {
        (0..doc.len() as NodeId).collect()
    }

    /// Paper Example 1: e = (a, b, c, a, b, c) annotated with occurrence
    /// numbers (a¹ b¹ c¹ a² b² c²).
    #[test]
    fn example1_occurrence_annotation() {
        let mut interner = Interner::new();
        let p = Publication::from_tags(&["a", "b", "c", "a", "b", "c"], &mut interner);
        assert_eq!(p.length, 6);
        let a = interner.get("a").unwrap();
        let b = interner.get("b").unwrap();
        let c = interner.get("c").unwrap();
        let expected = [
            (a, 1u16, 1u16),
            (b, 2, 1),
            (c, 3, 1),
            (a, 4, 2),
            (b, 5, 2),
            (c, 6, 2),
        ];
        for (tuple, (tag, pos, occ)) in p.tuples.iter().zip(expected) {
            assert_eq!((tuple.tag, tuple.pos, tuple.occ), (tag, pos, occ));
        }
        assert_eq!(p.position_of(a, 2), Some(4));
        assert_eq!(p.position_of(c, 2), Some(6));
        assert_eq!(p.position_of(c, 3), None);
    }

    #[test]
    fn encode_from_document() {
        let doc = PathDoc::parse(b"<a><b><a/></b></a>").unwrap();
        let mut interner = Interner::new();
        let p = Publication::from_path(&doc, &chain(&doc), &mut interner);
        assert_eq!(p.length, 3);
        let a = interner.get("a").unwrap();
        assert_eq!(p.tuples[0].tag, a);
        assert_eq!(p.tuples[2].tag, a);
        assert_eq!(p.tuples[0].occ, 1);
        assert_eq!(p.tuples[2].occ, 2);
        assert_eq!(p.tuples[2].node, 2);
    }

    #[test]
    fn path_stack_push_pop_tracks_encode() {
        // Walking a tree with push/pop must leave the publication equal to
        // a fresh encode of each root-to-element path, occurrences included.
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let mut p = Publication::new();
        p.begin_incremental();
        p.push_path_element(a, 0);
        p.push_path_element(a, 1);
        assert_eq!(p.length, 2);
        assert_eq!(p.tuples[1].occ, 2);
        p.pop_path_element();
        p.push_path_element(b, 2);
        p.push_path_element(a, 3);
        let fresh = Publication::from_tags(&["a", "b", "a"], &mut interner);
        assert_eq!(p.length, fresh.length);
        for (got, want) in p.tuples.iter().zip(&fresh.tuples) {
            assert_eq!((got.tag, got.pos, got.occ), (want.tag, want.pos, want.occ));
        }
        // Drain fully, then reuse: counters must restart at one.
        p.pop_path_element();
        p.pop_path_element();
        p.pop_path_element();
        assert_eq!(p.length, 0);
        p.push_path_element(a, 7);
        assert_eq!(p.tuples[0].occ, 1);
        assert_eq!(p.tuples[0].node, 7);
    }

    #[test]
    fn begin_incremental_resets_after_encode() {
        let mut interner = Interner::new();
        let mut p = Publication::from_tags(&["x", "x"], &mut interner);
        p.begin_incremental();
        assert_eq!(p.length, 0);
        assert!(p.tuples.is_empty());
        let x = interner.get("x").unwrap();
        p.push_path_element(x, 0);
        assert_eq!(p.tuples[0].occ, 1);
    }

    #[test]
    fn reuse_clears_state() {
        let mut interner = Interner::new();
        let doc = PathDoc::parse(b"<x><y/></x>").unwrap();
        let mut p = Publication::from_tags(&["a", "a"], &mut interner);
        assert_eq!(p.tuples[1].occ, 2);
        p.encode(&doc, &chain(&doc), &mut interner);
        assert_eq!(p.length, 2);
        assert_eq!(p.tuples.len(), 2);
        assert!(p.tuples.iter().all(|t| t.occ == 1));
    }
}
