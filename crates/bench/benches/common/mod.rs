//! What the benches share: the per-path formulation's input, taken from
//! the one document traversal.

use pxf_xml::{ElementVisitor, NodeId, PathDoc};

/// Calls `f` with the open root-to-leaf path — the stack of ids the
/// traversal entered and has not left — at every leaf: the per-path
/// formulation's input, one path at a time.
pub struct Leaves<F: FnMut(&[NodeId])> {
    path: Vec<NodeId>,
    childless: bool,
    f: F,
}

impl<F: FnMut(&[NodeId])> Leaves<F> {
    /// Walks `doc`, calling `f` once per leaf.
    pub fn walk(doc: &PathDoc, f: F) {
        let mut leaves = Leaves {
            path: Vec::new(),
            childless: false,
            f,
        };
        doc.for_each_element(&mut leaves);
    }
}

impl<F: FnMut(&[NodeId])> ElementVisitor for Leaves<F> {
    fn enter(&mut self, id: NodeId, _: &str) {
        self.path.push(id);
        self.childless = true;
    }

    fn leave(&mut self) {
        if std::mem::take(&mut self.childless) {
            (self.f)(&self.path);
        }
        self.path.pop();
    }
}
