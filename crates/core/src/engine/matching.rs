//! The two-stage match of one document: incremental predicate matching
//! (stage 1), the forward-propagating walk of the expression trie at a
//! leaf — or, at every element, the replay of what an earlier walk found
//! that element's tag path to add — (stage 2), and the resolution of
//! structural matches into subscription results.

use super::scratch::{DocState, MatchScratch, Sighting, INLINE_IDS, NODE_ENTRY};
use super::{EngineStats, FilterEngine, SubId};
use crate::nested::combine;
use pxf_predicate::{MatchContext, PredId, Predicate, Publication};
use pxf_xml::{ElementVisitor, NodeId, PathDoc, Symbol, XmlError};
use std::time::Instant;

impl FilterEngine {
    /// Filters a document using caller-provided scratch. The engine itself
    /// is not mutated, so any number of scratches may be used concurrently
    /// (see [`Self::matcher`]).
    pub fn match_document_with(&self, doc: &PathDoc, scratch: &mut MatchScratch) -> Vec<SubId> {
        let mut driver = IncrementalDriver::begin(self, scratch, Some(doc));
        doc.for_each_element(&mut driver);
        driver.finish()
    }

    /// Parses and filters a document in one streaming pass (see
    /// [`Self::match_bytes`]) using caller-provided scratch. While the path
    /// memo is on, the tokenizer's events drive stage 1 as it reads them
    /// and nothing is stored; otherwise the bytes are parsed into the
    /// scratch's own document store, whose allocations the previous
    /// document left behind, and matched there. Either way a rejected
    /// document returns the error [`PathDoc::parse_with_limits`] would,
    /// and leaves the scratch — its statistics and what its memo learned —
    /// as it found it. The scratch may have served another engine before:
    /// its path memo is emptied when the subscription set is not the one it
    /// was filled under.
    pub fn match_bytes_with(
        &self,
        bytes: &[u8],
        scratch: &mut MatchScratch,
    ) -> Result<Vec<SubId>, XmlError> {
        // The store leaves the scratch while the match borrows both.
        let mut store = std::mem::take(&mut scratch.doc);
        let results = if self.memo_on() {
            let stats = scratch.stats;
            let mut driver = IncrementalDriver::begin(self, scratch, None);
            match store.visit_bytes(bytes, self.limits, &mut driver) {
                Ok(()) => Ok(driver.finish()),
                Err(e) => {
                    driver.state.memo.forget_document();
                    scratch.stats = stats;
                    Err(e)
                }
            }
        } else {
            store
                .parse_into(bytes, self.limits)
                .map(|()| self.match_document_with(&store, scratch))
        };
        scratch.doc = store;
        results
    }

    /// Whether a tag path may be answered from the path memo: only while
    /// the match outcome is a function of the tag sequence alone — no
    /// attribute (or text) predicates, whose stage-1 pairs would differ,
    /// and no nested plans, whose component sinks record every path index,
    /// duplicates included. Every sink is then a plain subscription, and
    /// nothing of a document but its tags is read, so it need not be
    /// stored. Read off what is registered *now*: a filter that came and
    /// went leaves the memo on. A record entry is a subscription or node id
    /// under a tag bit, so both kinds must stay below it.
    fn memo_on(&self) -> bool {
        self.trie.all_plain()
            && !self.index.has_attr_predicates()
            && self.n_subs < NODE_ENTRY
            && self.trie.n_nodes() < NODE_ENTRY as usize
    }
}

/// Incremental stage 1 and the stage 2 it calls, over one document's
/// enter/leave traversal — from a filled store or straight from the
/// tokenizer, through the one [`ElementVisitor`] protocol. Each element's
/// predicate contributions are computed at most once — when the first leaf
/// below it needs a walk (under a [`MatchContext`] mark) — and rolled back
/// on leave, so shared path prefixes are never re-evaluated and elements
/// whose leaves the memo answers are never evaluated at all; at a walking
/// leaf only the length-dependent predicates are left to run before
/// stage 2.
///
/// Invariant: between any `enter` and the matching `leave`, `publication`
/// is exactly the encoding of the root-to-element path, the memo's open
/// states are that path's, and `ctx` holds exactly the contributions of
/// its outermost `ctx_marks.len()` elements (plus nothing else) —
/// `ctx_marks` carries one rollback point for each of them. Evaluation is
/// deferred until a leaf needs a walk: an element's contribution depends
/// on its own tuple, its ancestors' and its own attributes, none of which
/// changes while it is open, so [`Self::catch_up`] pushes the pairs
/// evaluation on enter would have, in the same order.
///
/// An element is known to be a leaf or not at its next event: a child's
/// `enter` makes it inner — its record replays then, before the child's —
/// and its own `leave` with no child between makes it a leaf, sighted
/// before it closes.
struct IncrementalDriver<'a, 'd> {
    engine: &'a FilterEngine,
    /// The store the document is in; `None` when it comes straight from
    /// the tokenizer, which only happens while the memo is on — no
    /// predicate then reads an attribute or text, and no nested plan a
    /// path.
    doc: Option<&'d PathDoc>,
    publication: &'a mut Publication,
    ctx: &'a mut MatchContext,
    state: &'a mut DocState,
    stats: &'a mut EngineStats,
    record_paths: bool,
    memo_on: bool,
    /// The innermost open element has no child element so far.
    childless: bool,
    path_idx: u32,
    /// When the document began, and the stage-2 time accumulated since
    /// (walks and replays): the traversal's remainder is stage 1.
    t0: Instant,
    expr_ns: u64,
}

impl<'a, 'd> IncrementalDriver<'a, 'd> {
    /// Starts a document of `engine` on `scratch` (`doc`: the store it is
    /// in, if it is stored).
    fn begin(
        engine: &'a FilterEngine,
        scratch: &'a mut MatchScratch,
        doc: Option<&'d PathDoc>,
    ) -> Self {
        let MatchScratch {
            publication,
            ctx,
            state,
            stats,
            doc: _,
        } = scratch;
        state.begin(engine.n_subs as usize, engine.trie.n_nodes(), engine.stamp);
        state
            .comp_paths
            .resize_with(engine.n_components as usize, Vec::new);
        for cp in &mut state.comp_paths {
            cp.clear();
        }
        state.n_paths = 0;
        stats.docs += 1;
        let t0 = Instant::now();
        publication.begin_incremental();
        ctx.begin(engine.index.len());
        state.ctx_marks.clear();
        IncrementalDriver {
            engine,
            doc,
            publication,
            ctx,
            state,
            stats,
            record_paths: !engine.nested.is_empty(),
            memo_on: engine.memo_on(),
            childless: false,
            path_idx: 0,
            t0,
            expr_ns: 0,
        }
    }

    /// Ends the document: books the traversal's time, combines nested
    /// plans and drains the result bitmap — the sorted result list.
    fn finish(self) -> Vec<SubId> {
        let (engine, state, stats) = (self.engine, self.state, self.stats);
        stats.expression_ns += self.expr_ns;
        stats.predicate_ns += (self.t0.elapsed().as_nanos() as u64).saturating_sub(self.expr_ns);
        let t2 = Instant::now();
        for ns in &engine.nested {
            let comp_paths =
                &state.comp_paths[ns.comp_base as usize..(ns.comp_base as usize + ns.plan.len())];
            // Cheap pre-check: every component must have matched somewhere.
            if comp_paths.iter().any(|c| c.is_empty()) {
                continue;
            }
            let doc = self.doc.expect("a nested plan turns the memo off: stored");
            if combine(&ns.plan, doc, &state.paths[..state.n_paths], comp_paths) {
                state.sub_matched.set(ns.sub.0 as usize);
            }
        }
        // Draining the bitmap yields the sorted result list directly (no
        // per-match pushes, no sort over the matched ids).
        let results = state.sub_matched.take(engine.n_subs as usize);
        stats.matches += results.len() as u64;
        stats.other_ns += t2.elapsed().as_nanos() as u64;
        results
    }

    /// Handles a leaf. The memo (when on) says whether this tag path was
    /// already answered in this document (nothing to do), is recorded (the
    /// leaf replays what it adds, as the elements above it have), or needs
    /// stage 2: stage 1 caught up to the leaf, length-dependent predicates
    /// under a nested mark, the walk, rollback. The walk of a path met in
    /// an earlier document and not yet recorded makes the records of the
    /// path's states — recording on the second sighting, because a complete
    /// record needs the walk that ignores `node_done` (2–2.5× the visits of
    /// the pruned one on 100k NITF expressions), and a path never seen
    /// again under this subscription set would pay that for nothing.
    fn leaf(&mut self) {
        let path_idx = self.path_idx;
        self.path_idx += 1;
        let sighting = if self.memo_on {
            self.state.memo.sight()
        } else {
            Sighting::Untracked
        };
        match sighting {
            Sighting::SameDoc => self.stats.memo_path_skips += 1,
            Sighting::Recorded => {
                self.stats.memo_replays += 1;
                self.replay_due();
            }
            Sighting::First | Sighting::Again | Sighting::Untracked => {
                self.stats.stage2_walks += 1;
                self.catch_up();
                let mark = self.ctx.push_mark();
                self.engine
                    .index
                    .eval_leaf(self.publication, self.doc, self.ctx);
                let t1 = Instant::now();
                let state = &mut *self.state;
                if sighting == Sighting::Again {
                    let depths = self.publication.tuples.len();
                    if state.record_buf.len() < depths {
                        state.record_buf.resize_with(depths, Vec::new);
                    }
                    state.record_buf[..depths].iter_mut().for_each(Vec::clear);
                    state.recording = Some(state.memo.recorded_depth());
                }
                self.engine
                    .stage2(self.ctx, self.publication, state, self.stats, path_idx);
                if state.recording.take().is_some() {
                    let trie = &self.engine.trie;
                    state
                        .memo
                        .attach_chain(&state.record_buf, |n| trie.plain_subs(n));
                }
                self.expr_ns += t1.elapsed().as_nanos() as u64;
                self.ctx.pop_to_mark(mark);
            }
        }
        if self.record_paths {
            self.state
                .record_path(self.publication.tuples.iter().map(|t| t.node));
        }
    }

    /// Replays the record of the innermost open element, if its state
    /// holds one this document has not replayed: what the element adds to
    /// the matches of the path above it. One clock pair per record, none
    /// for an element that has nothing to add.
    fn replay_due(&mut self) {
        if let Some(path) = self.state.memo.due() {
            let t1 = Instant::now();
            self.engine.replay(path, self.state, self.stats);
            self.expr_ns += t1.elapsed().as_nanos() as u64;
        }
    }

    /// Evaluates the open elements not evaluated yet, outermost first,
    /// each under its own mark.
    fn catch_up(&mut self) {
        let tuples = &self.publication.tuples;
        for depth in self.state.ctx_marks.len()..tuples.len() {
            self.state.ctx_marks.push(self.ctx.push_mark());
            self.engine
                .index
                .eval_enter(&tuples[..=depth], self.doc, self.ctx);
        }
    }
}

impl ElementVisitor for IncrementalDriver<'_, '_> {
    fn enter(&mut self, id: NodeId, tag: &str) {
        // The parent has a child: an inner element, whose record replays
        // before anything below it.
        if self.childless && self.memo_on {
            self.replay_due();
        }
        let interner = &self.engine.interner;
        let tag = self
            .state
            .memo
            .enter(tag, |name| interner.get(name).unwrap_or(Symbol::UNKNOWN));
        self.publication.push_path_element(tag, id);
        self.childless = true;
    }

    fn leave(&mut self) {
        // No child came between this element's enter and its leave.
        if std::mem::take(&mut self.childless) {
            self.leaf();
        }
        self.publication.pop_path_element();
        self.state.memo.leave();
        // Only an element that was evaluated left a mark.
        if self.state.ctx_marks.len() > self.publication.tuples.len() {
            let mark = self.state.ctx_marks.pop().expect("checked non-empty");
            self.ctx.pop_to_mark(mark);
        }
    }
}

/// The occurrence numbers feasible at a trie node on the current path.
/// An occurrence number never exceeds the path length, so a `u128` holds
/// them on paths under 128 elements (all that `ParserLimits::strict()`
/// admits); the heap bitset takes over from there.
trait OccSet: Default {
    fn insert(&mut self, occ: u16);
    fn contains(&self, occ: u16) -> bool;
}

impl OccSet for u128 {
    #[inline]
    fn insert(&mut self, occ: u16) {
        *self |= 1u128 << occ;
    }

    #[inline]
    fn contains(&self, occ: u16) -> bool {
        *self & (1u128 << occ) != 0
    }
}

/// Bitset grown to the highest occurrence inserted.
impl OccSet for Vec<u64> {
    fn insert(&mut self, occ: u16) {
        let w = occ as usize / 64;
        if self.len() <= w {
            self.resize(w + 1, 0);
        }
        self[w] |= 1u64 << (occ % 64);
    }

    fn contains(&self, occ: u16) -> bool {
        self.get(occ as usize / 64)
            .is_some_and(|w| w & (1u64 << (occ % 64)) != 0)
    }
}

/// Stage 2 (expression matching). All mutable per-document state stays in
/// the caller-owned scratch.
impl FilterEngine {
    /// Stage 2 on one root-to-leaf path. Clusters are ruled out whole when
    /// their access predicate has no matches (paper §4.2.2); the surviving
    /// clusters are evaluated by a depth-first walk of the expression trie
    /// (paper Fig. 2) that forward-propagates the feasible occurrence set.
    /// Because the occurrence constraints form a chain (`o2[i−1] = o1[i]`),
    /// a node is reachable with a non-empty feasible set iff Algorithm 1
    /// would report a match for the expression ending there — forward
    /// propagation is exact and needs no backtracking, and every shared
    /// predicate prefix is evaluated exactly once per path. Prefix covering
    /// (§4.2.2) comes with the walk: reaching a node has, by construction,
    /// matched every prefix expression on the way.
    ///
    /// The occurrence set is a `u128` below 128 path elements and a heap
    /// bitset from there on, so the walk is exact at any depth.
    fn stage2(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        if publication.length < 128 {
            self.probe_clusters::<u128>(ctx, publication, state, stats, path_idx);
        } else {
            self.probe_clusters::<Vec<u64>>(ctx, publication, state, stats, path_idx);
        }
    }

    /// Finds the clusters whose access predicate holds on this path and
    /// walks each. Probes in whichever direction is cheaper: the satisfied
    /// predicates through the dense `pid → root` map (output-sensitive —
    /// wins when few predicates hold against a large registered alphabet)
    /// or the root table (bounded by the distinct first components, wins
    /// on deep paths that satisfy many predicates). Both visit exactly the
    /// clusters whose access predicate holds, in an order that cannot
    /// affect results (clusters are disjoint), and `ap_root_probes` counts
    /// those clusters either way.
    fn probe_clusters<S: OccSet>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        let (root_pids, root_nodes) = self.trie.roots();
        let mut enter = |pid: PredId, root: u32| {
            stats.ap_root_probes += 1;
            if state.recording.is_none() && state.node_done.test(root as usize) {
                return;
            }
            let mut f = S::default();
            for &(_, o2) in ctx.get(pid) {
                f.insert(o2);
            }
            self.dfs_node(root, pid, f, ctx, publication, state, stats, path_idx);
        };
        if root_pids.len() <= ctx.matched().len() {
            for (&pid, &root) in root_pids.iter().zip(root_nodes) {
                if !ctx.get(pid).is_empty() {
                    enter(pid, root);
                }
            }
        } else {
            for &pid in ctx.matched() {
                if let Some(root) = self.trie.root_of(pid) {
                    enter(pid, root);
                }
            }
        }
    }

    /// Visits one trie node reached with feasible occurrence set `f_in`
    /// (non-empty): resolves its sinks, recurses into children whose
    /// predicate chains on, and returns whether the whole subtree is now
    /// resolved for this document.
    #[allow(clippy::too_many_arguments)]
    fn dfs_node<S: OccSet>(
        &self,
        n: u32,
        pid: PredId,
        f_in: S,
        ctx: &MatchContext,
        publication: &Publication,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) -> bool {
        stats.occurrence_runs += 1;
        let trie = &self.trie;
        let has_sinks = trie.sink_len(n) != 0;
        if let Some(recorded) = state.recording.filter(|_| has_sinks) {
            let depth = first_depth(self.index.predicate(pid), &f_in, publication);
            if depth > recorded {
                // The memo is on: every sink is a plain subscription.
                let plain = trie.plain_subs(n);
                let bucket = &mut state.record_buf[depth - 1];
                if plain.len() <= INLINE_IDS {
                    bucket.extend_from_slice(plain);
                } else {
                    bucket.push(n | NODE_ENTRY);
                }
            }
        }
        if has_sinks && !state.node_sinks_done.test(n as usize) {
            // Subscriptions resolve in one bitmap-marking sweep over the
            // packed id column (4 bytes per sink, no dispatch); where they
            // are all the node holds, it is then fully resolved for this
            // document. A component records every path it holds on, so a
            // node with one never is.
            let plain = trie.plain_subs(n);
            for &sub in plain {
                state.sub_matched.set(sub as usize);
            }
            if plain.len() as u32 == trie.sink_len(n) {
                state.node_sinks_done.set(n as usize);
            } else {
                for &comp in trie.components(n) {
                    let paths = &mut state.comp_paths[comp as usize];
                    if paths.last() != Some(&path_idx) {
                        paths.push(path_idx);
                    }
                }
            }
        }
        // Only children whose predicate holds pairs on this path can chain
        // on: test that bit first and touch nothing else of the others
        // (most edges of a hot node, on most paths). A subtree resolved by
        // an earlier path of this document is skipped, unless this walk is
        // making the path's record — what the path reaches is not what
        // earlier paths left over.
        let (child_pids, child_nodes) = trie.children(n);
        for (&cpid, &child) in child_pids.iter().zip(child_nodes) {
            if !ctx.is_matched(cpid) {
                continue;
            }
            let was_done = state.node_done.test(child as usize);
            if was_done && state.recording.is_none() {
                continue;
            }
            let mut f = S::default();
            let mut chains_on = false;
            for &(o1, o2) in ctx.get(cpid) {
                if f_in.contains(o1) {
                    f.insert(o2);
                    chains_on = true;
                }
            }
            // A child counts once: not again when a recording walk
            // re-enters a subtree that was already resolved.
            if chains_on
                && self.dfs_node(child, cpid, f, ctx, publication, state, stats, path_idx)
                && !was_done
            {
                state.bump_done_children(n);
            }
        }
        let all_done = (!has_sinks || state.node_sinks_done.test(n as usize))
            && state.done_children(n) == trie.child_len(n);
        if all_done {
            state.node_done.set(n as usize);
        }
        all_done
    }

    /// Stage 2 at an element whose memo state `path` holds a record:
    /// marks what the element adds to the matches of the path above it —
    /// from the record's dense form, one OR per word, if it has one (its
    /// listed nodes are then resolved for this document); otherwise the
    /// listed subscriptions, and those of every listed node this document
    /// has not resolved yet. No predicate is consulted and no child edge
    /// followed: under one content stamp what a tag path reaches does not
    /// change, and the memo is only on while every sink is a plain
    /// subscription.
    fn replay(&self, path: u32, state: &mut DocState, stats: &mut EngineStats) {
        let DocState {
            memo,
            sub_matched,
            node_sinks_done,
            ..
        } = state;
        if let Some(words) = memo.dense(path) {
            stats.memo_dense_replays += 1;
            sub_matched.or_words(words);
            for &entry in memo.record(path) {
                if entry & NODE_ENTRY != 0 {
                    node_sinks_done.set((entry & !NODE_ENTRY) as usize);
                }
            }
            return;
        }
        for &entry in memo.record(path) {
            if entry & NODE_ENTRY == 0 {
                sub_matched.set(entry as usize);
                continue;
            }
            let n = entry & !NODE_ENTRY;
            if !node_sinks_done.test(n as usize) {
                for &sub in self.trie.plain_subs(n) {
                    sub_matched.set(sub as usize);
                }
                node_sinks_done.set(n as usize);
            }
        }
    }
}

/// The length of the shortest prefix of the path on which the expression
/// ending at a trie node holds, given the node's predicate and the
/// occurrences `feasible` for its second tag on the whole path. A chain of
/// pairs is on a prefix once its last pair is — each pair closes where its
/// second tag stands, no earlier than the pair before it — so the last
/// predicate decides: an absolute or relative pair closes at its second
/// tag's position, an end-of-path pair `value` elements further on, and a
/// length predicate holds from `value` elements. Occurrence numbers of a
/// tag rise along the path, so the first feasible one closes first.
fn first_depth<S: OccSet>(pred: &Predicate, feasible: &S, publication: &Publication) -> usize {
    let (tag, tail) = match pred {
        Predicate::Length { value } => return *value as usize,
        Predicate::Absolute { tag, .. } => (tag.tag, 0),
        Predicate::Relative { to, .. } => (to.tag, 0),
        Predicate::EndOfPath { tag, value } => (tag.tag, *value as usize),
    };
    let closes = publication
        .tuples
        .iter()
        .find(|t| t.tag == tag && feasible.contains(t.occ))
        .expect("a feasible occurrence is on the path");
    closes.pos as usize + tail
}

#[cfg(test)]
mod tests {
    use super::{first_depth, OccSet};
    use pxf_predicate::{PosOp, Predicate, Publication};
    use pxf_xml::Interner;

    fn holds_exactly<S: OccSet>(occs: &[u16], limit: u16) {
        let mut set = S::default();
        for &o in occs {
            set.insert(o);
        }
        for o in 0..limit {
            assert_eq!(set.contains(o), occs.contains(&o), "occurrence {o}");
        }
    }

    #[test]
    fn occurrence_sets_hold_exactly_what_was_inserted() {
        holds_exactly::<u128>(&[0, 1, 63, 64, 100, 127], 128);
        holds_exactly::<Vec<u64>>(&[0, 1, 63, 64, 127, 128, 129, 191, 192, 300, 4000], 4200);
        holds_exactly::<Vec<u64>>(&[], 200);
    }

    fn set_of<S: OccSet>(occs: &[u16]) -> S {
        let mut set = S::default();
        occs.iter().for_each(|&o| set.insert(o));
        set
    }

    /// One case per predicate kind, on the path a¹ b¹ a² c¹ a³: the first
    /// depth is where the earliest feasible occurrence of the predicate's
    /// second tag stands — plus the elements an end-of-path predicate
    /// wants after it — and a length predicate's is its value.
    #[test]
    fn first_depth_is_where_the_earliest_feasible_pair_closes() {
        let mut interner = Interner::new();
        let path = Publication::from_tags(&["a", "b", "a", "c", "a"], &mut interner);
        let [a, b, c] = ["a", "b", "c"].map(|t| interner.get(t).unwrap());
        let cases = [
            (Predicate::absolute(a, PosOp::Ge, 1), vec![1, 2, 3], 1),
            (Predicate::absolute(a, PosOp::Ge, 2), vec![2, 3], 3),
            (Predicate::absolute(a, PosOp::Eq, 5), vec![3], 5),
            (Predicate::absolute(c, PosOp::Eq, 4), vec![1], 4),
            (Predicate::relative(b, a, PosOp::Ge, 1), vec![2, 3], 3),
            (Predicate::relative(a, a, PosOp::Eq, 2), vec![3, 2], 3),
            (Predicate::relative(b, a, PosOp::Eq, 3), vec![3], 5),
            (Predicate::relative(a, c, PosOp::Ge, 1), vec![1], 4),
            (Predicate::end_of_path(a, 2), vec![1, 2], 3),
            (Predicate::end_of_path(a, 2), vec![2], 5),
            (Predicate::end_of_path(b, 3), vec![1], 5),
            (Predicate::length(4), vec![0], 4),
            (Predicate::length(1), vec![0], 1),
        ];
        for (pred, feasible, depth) in cases {
            let ctx = format!("{pred:?} with {feasible:?}");
            assert_eq!(
                first_depth(&pred, &set_of::<u128>(&feasible), &path),
                depth,
                "{ctx}"
            );
            assert_eq!(
                first_depth(&pred, &set_of::<Vec<u64>>(&feasible), &path),
                depth,
                "{ctx}"
            );
        }
        // Occurrence numbers past 128, where only the heap set can go.
        let tags = ["a"; 200];
        let long = Publication::from_tags(&tags, &mut interner);
        let set = set_of::<Vec<u64>>(&[150, 199]);
        assert_eq!(
            first_depth(&Predicate::relative(a, a, PosOp::Ge, 1), &set, &long),
            150
        );
        assert_eq!(first_depth(&Predicate::end_of_path(a, 7), &set, &long), 157);
    }
}
