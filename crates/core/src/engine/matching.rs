//! The two-stage match of one document: incremental predicate matching
//! (stage 1), the forward-propagating walk of the expression trie at a
//! leaf — or, at every element, the replay of what an earlier walk found
//! that element's tag path to add — (stage 2), and the resolution of
//! structural matches into subscription results.

use super::scratch::{DocState, MatchScratch, Sighting, INLINE_IDS, NODE_ENTRY};
use super::trie::Sink;
use super::{EngineStats, FilterEngine, SubId};
use crate::nested::combine;
use crate::occurrence::determine_match_by;
use pxf_predicate::{MatchContext, PredId, Predicate, Publication};
use pxf_xml::{ElementVisitor, NodeId, PathDoc, Symbol, XmlError};
use std::time::Instant;

impl FilterEngine {
    /// Filters a document using caller-provided scratch. The engine itself
    /// is not mutated, so any number of scratches may be used concurrently
    /// (see [`Self::matcher`]).
    pub fn match_document_with(&self, doc: &PathDoc, scratch: &mut MatchScratch) -> Vec<SubId> {
        let MatchScratch {
            publication,
            ctx,
            state,
            stats,
            doc: _,
        } = scratch;
        state.begin(self.n_subs as usize, self.trie.n_nodes(), self.stamp);
        state
            .comp_paths
            .resize_with(self.n_components as usize, Vec::new);
        let has_nested = !self.nested.is_empty();
        for cp in &mut state.comp_paths {
            cp.clear();
        }
        state.n_paths = 0;

        stats.docs += 1;
        self.stage1_incremental(doc, publication, ctx, state, stats, has_nested);

        let t2 = Instant::now();
        for ns in &self.nested {
            let comp_paths =
                &state.comp_paths[ns.comp_base as usize..(ns.comp_base as usize + ns.plan.len())];
            // Cheap pre-check: every component must have matched somewhere.
            if comp_paths.iter().any(|c| c.is_empty()) {
                continue;
            }
            if combine(&ns.plan, doc, &state.paths[..state.n_paths], comp_paths) {
                state.sub_matched.set(ns.sub.0 as usize);
            }
        }
        // Draining the bitmap yields the sorted result list directly (no
        // per-match pushes, no sort over the matched ids).
        let results = state.sub_matched.take(self.n_subs as usize);
        stats.matches += results.len() as u64;
        stats.other_ns += t2.elapsed().as_nanos() as u64;
        results
    }

    /// Parses and filters a document in one streaming pass (see
    /// [`Self::match_bytes`]) using caller-provided scratch: the bytes are
    /// parsed into the scratch's own document store, whose allocations
    /// the previous document left behind. The scratch may have served
    /// another engine before: its path memo is emptied when the
    /// subscription set is not the one it was filled under.
    pub fn match_bytes_with(
        &self,
        bytes: &[u8],
        scratch: &mut MatchScratch,
    ) -> Result<Vec<SubId>, XmlError> {
        // The store leaves the scratch while the match borrows both.
        let mut doc = std::mem::take(&mut scratch.doc);
        let results = doc
            .parse_into(bytes, self.limits)
            .map(|()| self.match_document_with(&doc, scratch));
        scratch.doc = doc;
        results
    }

    /// Incremental stage 1: one enter/leave traversal of the document.
    /// Each element's predicate contributions are computed at most once —
    /// when the first leaf below it needs a walk (under a [`MatchContext`]
    /// mark) — and rolled back on leave, so shared path prefixes are never
    /// re-evaluated and elements whose leaves the memo answers are never
    /// evaluated at all; at a walking leaf only the length-dependent
    /// predicates are left to run before stage 2.
    fn stage1_incremental(
        &self,
        doc: &PathDoc,
        publication: &mut Publication,
        ctx: &mut MatchContext,
        state: &mut DocState,
        stats: &mut EngineStats,
        record_paths: bool,
    ) {
        let t0 = Instant::now();
        publication.begin_incremental();
        ctx.begin(self.index.len());
        state.ctx_marks.clear();
        // Answering a path from the memo is sound only when the match
        // outcome is a function of the tag sequence alone: no inline
        // attribute predicates (stage-1 pairs would differ), no postponed
        // attribute re-checks (stage 2 consults document nodes), and no
        // nested plans (component sinks must record every path index,
        // including duplicates). Every sink is then a plain subscription.
        // Otherwise no element asks the memo, and every leaf walks. Both
        // conditions are read off what is registered *now*: a filter that
        // came and went leaves the memo on. A record entry is a
        // subscription or node id under a tag bit, so both kinds must
        // stay below it.
        let memo_on = self.trie.all_plain()
            && !self.index.has_attr_predicates()
            && self.n_subs < NODE_ENTRY
            && self.trie.n_nodes() < NODE_ENTRY as usize;
        let mut driver = IncrementalDriver {
            engine: self,
            doc,
            publication,
            ctx,
            state,
            stats,
            record_paths,
            memo_on,
            path_idx: 0,
            expr_ns: 0,
        };
        doc.for_each_element(&mut driver);
        let expr_ns = driver.expr_ns;
        stats.expression_ns += expr_ns;
        stats.predicate_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(expr_ns);
    }
}

/// The visitor driving incremental stage 1 (see
/// [`FilterEngine::stage1_incremental`]). Invariant: between any `enter`
/// and the matching `leave`, `publication` is exactly the encoding of the
/// root-to-element path, the memo's open states are that path's, and `ctx`
/// holds exactly the contributions of its outermost `ctx_marks.len()`
/// elements (plus nothing else) — `ctx_marks` carries one rollback point
/// for each of them. Evaluation is deferred until a leaf needs a walk:
/// an element's contribution depends on its own tuple, its ancestors'
/// and its own attributes, none of which changes while it is open, so
/// [`Self::catch_up`] pushes the pairs evaluation on enter would have, in
/// the same order.
struct IncrementalDriver<'a, 'd> {
    engine: &'a FilterEngine,
    doc: &'d PathDoc,
    publication: &'a mut Publication,
    ctx: &'a mut MatchContext,
    state: &'a mut DocState,
    stats: &'a mut EngineStats,
    record_paths: bool,
    memo_on: bool,
    path_idx: u32,
    /// Stage-2 time accumulated at leaves; subtracted from the traversal
    /// total to attribute the remainder to stage 1.
    expr_ns: u64,
}

impl IncrementalDriver<'_, '_> {
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
                    .eval_leaf(self.publication, Some(self.doc), self.ctx);
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
                self.engine.stage2(
                    self.ctx,
                    self.publication,
                    self.doc,
                    state,
                    self.stats,
                    path_idx,
                );
                if state.recording.take().is_some() {
                    state.memo.attach_chain(&state.record_buf);
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

    /// Replays the record of the element just opened, if its state holds
    /// one this document has not replayed: what the element adds to the
    /// matches of the path above it. One clock pair per record, none for
    /// an element that has nothing to add.
    fn replay_due(&mut self) {
        if let Some(path) = self.state.memo.due() {
            let t1 = Instant::now();
            self.engine.replay(path, self.state);
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
                .eval_enter(&tuples[..=depth], Some(self.doc), self.ctx);
        }
    }
}

impl ElementVisitor for IncrementalDriver<'_, '_> {
    fn enter(&mut self, id: NodeId, is_leaf: bool) {
        let tag = self
            .engine
            .interner
            .get(self.doc.tag(id))
            .unwrap_or(Symbol::UNKNOWN);
        self.publication.push_path_element(tag, id);
        self.state.memo.enter(tag);
        if is_leaf {
            self.leaf();
        } else if self.memo_on {
            self.replay_due();
        }
    }

    fn leave(&mut self) {
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
        doc: &PathDoc,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        if publication.length < 128 {
            self.probe_clusters::<u128>(ctx, publication, doc, state, stats, path_idx);
        } else {
            self.probe_clusters::<Vec<u64>>(ctx, publication, doc, state, stats, path_idx);
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
        doc: &PathDoc,
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
            self.dfs_node(root, pid, f, ctx, publication, doc, state, stats, path_idx);
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
        doc: &PathDoc,
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
            // Plain subscriptions resolve in one bitmap-marking sweep over
            // the packed id column (4 bytes per sink, no enum dispatch);
            // where they are all the node holds, it is then fully resolved
            // for this document.
            let plain = trie.plain_subs(n);
            for &sub in plain {
                state.sub_matched.set(sub as usize);
            }
            let mut resolved = true;
            if plain.len() as u32 != trie.sink_len(n) {
                let sinks = trie.cold_sinks(n);
                // Selection-postponed attribute checks need the predicate
                // chain of this node; collect it (into a reused buffer)
                // only when some sink asks.
                let mut chain = std::mem::take(&mut state.chain_buf);
                chain.clear();
                if sinks.iter().any(|s| matches!(s, Sink::Sub { .. })) {
                    chain.extend(trie.chain_up(n));
                    chain.reverse();
                }
                for sink in sinks {
                    process_sink(sink, &chain, ctx, publication, doc, state, stats, path_idx);
                }
                state.chain_buf = chain;
                resolved = sinks.iter().all(|s| match s {
                    Sink::Sub { sub, .. } => state.sub_matched.test(sub.0 as usize),
                    Sink::Component { .. } => false,
                });
            }
            if resolved {
                state.node_sinks_done.set(n as usize);
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
                && self.dfs_node(
                    child,
                    cpid,
                    f,
                    ctx,
                    publication,
                    doc,
                    state,
                    stats,
                    path_idx,
                )
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
    /// the listed subscriptions, and those of every listed node this
    /// document has not resolved yet. No predicate is consulted and no
    /// child edge followed: under one content stamp what a tag path
    /// reaches does not change, and the memo is only on while every sink
    /// is a plain subscription.
    fn replay(&self, path: u32, state: &mut DocState) {
        let DocState {
            memo,
            sub_matched,
            node_sinks_done,
            ..
        } = state;
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

/// Resolves a structural match of an expression (on the current path) into
/// subscription results or component path records, applying postponed
/// attribute checks where present.
#[allow(clippy::too_many_arguments)]
fn process_sink(
    sink: &Sink,
    preds: &[PredId],
    ctx: &MatchContext,
    publication: &Publication,
    doc: &PathDoc,
    state: &mut DocState,
    stats: &mut EngineStats,
    path_idx: u32,
) {
    match sink {
        Sink::Sub { sub, attr_check } => {
            if state.sub_matched.test(sub.0 as usize) {
                return;
            }
            // Selection postponed: repeat the occurrence determination
            // admitting only pairs whose nodes pass the attribute filters
            // (paper §5). Each level's pairs are filtered once up front
            // (admissibility does not depend on the search state), then
            // the plain determination runs on the filtered lists.
            stats.occurrence_runs += 1;
            if state.sp_bufs.len() < preds.len() {
                state.sp_bufs.resize_with(preds.len(), Vec::new);
            }
            for (level, &pid) in preds.iter().enumerate() {
                let buf = &mut state.sp_bufs[level];
                buf.clear();
                for &pair in ctx.get(pid) {
                    if attr_check.admit(level, pair, publication, doc) {
                        buf.push(pair);
                    }
                }
                if buf.is_empty() {
                    return;
                }
            }
            let bufs = &state.sp_bufs;
            if !determine_match_by(preds.len(), |i| bufs[i].as_slice()) {
                return;
            }
            // Marking the bit is the whole result record: draining the
            // bitmap emits the sorted id list.
            state.sub_matched.set(sub.0 as usize);
        }
        Sink::Component { comp } => {
            let cp = &mut state.comp_paths[*comp as usize];
            if cp.last() != Some(&path_idx) {
                cp.push(path_idx);
            }
        }
    }
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
