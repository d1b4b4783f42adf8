//! Publication encoding of XML document paths (paper §3.3).
//!
//! Each root-to-leaf document path `e = (t1, …, tn)` becomes a set of
//! (attribute, value) pairs: a `(length, n)` tuple plus one `(tag, position)`
//! tuple per element, with each tag annotated by its *occurrence number* —
//! how many times that tag name has already appeared in the path (Example 1
//! of the paper).
//!
//! The encoding is built while the document is traversed, never from a
//! stored path: [`Publication::push_path_element`] on each element's
//! enter and [`Publication::pop_path_element`] on its leave keep the
//! publication equal to the encoding of the open root-to-element path.

use pxf_xml::{Interner, NodeId, Symbol};

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
/// element. The struct is designed for reuse across paths and documents —
/// see [`Publication::begin_incremental`].
#[derive(Debug, Clone, Default)]
pub struct Publication {
    /// Path length (the `(length, n)` tuple).
    pub length: u16,
    /// `(tag, position)` tuples in path order.
    pub tuples: Vec<PathTuple>,
    /// Occurrences of each tag on the path, indexed by symbol (grown to
    /// the largest symbol pushed); zero for every tag not on it.
    occ: Vec<u16>,
    /// The same count for [`Symbol::UNKNOWN`]: every tag no subscription
    /// names is one tag.
    occ_unknown: u16,
}

/// Two publications are equal when they encode the same path; how far
/// each has grown its counters does not matter.
impl PartialEq for Publication {
    fn eq(&self, other: &Self) -> bool {
        (self.length, &self.tuples) == (other.length, &other.tuples)
    }
}

impl Eq for Publication {}

impl Publication {
    /// Creates an empty publication (fill it with one
    /// [`Self::push_path_element`] per element of the path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the publication for incremental path-stack encoding of a new
    /// document (see [`Self::push_path_element`]). The counters of the
    /// tuples still open — a path abandoned part way — are zeroed, so
    /// every counter is zero again.
    pub fn begin_incremental(&mut self) {
        while let Some(t) = self.tuples.pop() {
            *self.count(t.tag) = 0;
        }
        self.length = 0;
    }

    /// The occurrence counter of `tag`, grown to cover it if need be.
    #[inline]
    fn count(&mut self, tag: Symbol) -> &mut u16 {
        if tag.is_unknown() {
            return &mut self.occ_unknown;
        }
        if tag.index() >= self.occ.len() {
            self.occ.resize(tag.index() + 1, 0);
        }
        &mut self.occ[tag.index()]
    }

    /// Pushes one element onto the path stack: afterwards the publication
    /// is exactly the encoding of the current root-to-element path. Per the
    /// paper this happens during document parsing and "does not require
    /// additional processing, except for collecting the occurrence
    /// numbers": one counter per tag, indexed by its symbol. A tag the
    /// interner never saw is [`Symbol::UNKNOWN`]; no predicate names it,
    /// so all such tags may share one counter without changing a match.
    #[inline]
    pub fn push_path_element(&mut self, tag: Symbol, node: NodeId) {
        let count = self.count(tag);
        *count += 1;
        let occ = *count;
        let pos = (self.tuples.len() + 1) as u16;
        self.tuples.push(PathTuple {
            tag,
            pos,
            occ,
            node,
        });
        self.length = pos;
    }

    /// Pops the most recent element, undoing [`Self::push_path_element`].
    #[inline]
    pub fn pop_path_element(&mut self) {
        let t = self.tuples.pop().expect("pop from empty path stack");
        *self.count(t.tag) -= 1;
        self.length = self.tuples.len() as u16;
    }

    /// Builds a publication directly from a tag-name sequence (tests, the
    /// Table 1 example); every tuple's node is 0.
    pub fn from_tags(tags: &[&str], interner: &mut Interner) -> Self {
        let mut p = Publication::new();
        for t in tags {
            p.push_path_element(interner.intern(t), 0);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xml::PathDoc;

    /// Pushes the only root-to-leaf path of a one-chain document — every
    /// node, in order — onto `p`, interning each tag.
    fn push_chain(p: &mut Publication, doc: &PathDoc, interner: &mut Interner) {
        for node in 0..doc.len() as NodeId {
            p.push_path_element(interner.intern(doc.tag(node)), node);
        }
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
        assert_eq!(p.tuples.len(), expected.len());
        for (tuple, (tag, pos, occ)) in p.tuples.iter().zip(expected) {
            assert_eq!((tuple.tag, tuple.pos, tuple.occ), (tag, pos, occ));
        }
    }

    #[test]
    fn encode_from_document() {
        let doc = PathDoc::parse(b"<a><b><a/></b></a>").unwrap();
        let mut interner = Interner::new();
        let mut p = Publication::new();
        push_chain(&mut p, &doc, &mut interner);
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

    /// Seeded push/pop walks over a small alphabet with unknown tags mixed
    /// in, most abandoned part way (a new document begun with elements
    /// open): after every push the publication equals one encoded afresh
    /// from the root, whose occurrence numbers are recounted by hand.
    #[test]
    fn counters_track_a_fresh_recount_through_pushes_pops_and_abandoned_paths() {
        let mut rng = pxf_rng::Rng::seed_from_u64(0x38);
        let names = ["a", "b", "c", "d", "?x", "?y"];
        let mut interner = Interner::new();
        for n in &names[..4] {
            interner.intern(n);
        }
        let tags = names.map(|n| interner.get(n).unwrap_or(Symbol::UNKNOWN));
        let mut p = Publication::new();
        let mut checked = 0;
        for _ in 0..300 {
            p.begin_incremental();
            let mut path: Vec<usize> = Vec::new();
            for _ in 0..rng.gen_range(0..60usize) {
                if !path.is_empty() && rng.gen_bool(0.4) {
                    path.pop();
                    p.pop_path_element();
                    continue;
                }
                let t = rng.gen_index(tags.len());
                path.push(t);
                p.push_path_element(tags[t], path.len() as NodeId);
                let mut want = Publication::new();
                for (i, &t) in path.iter().enumerate() {
                    want.push_path_element(tags[t], i as NodeId + 1);
                }
                // The recount, by hand: occurrences of each tag so far,
                // the unknown names counting as one tag.
                for (i, tuple) in want.tuples.iter().enumerate() {
                    let occ = path[..=i]
                        .iter()
                        .filter(|&&u| tags[u] == tags[path[i]])
                        .count();
                    assert_eq!(tuple.occ as usize, occ);
                }
                assert_eq!(p, want, "path {path:?}");
                checked += 1;
            }
        }
        assert!(checked > 2000, "{checked} pushes checked");
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
        p.begin_incremental();
        push_chain(&mut p, &doc, &mut interner);
        assert_eq!(p.length, 2);
        assert_eq!(p.tuples.len(), 2);
        assert!(p.tuples.iter().all(|t| t.occ == 1));
    }
}
