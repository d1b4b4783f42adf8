//! The expression trie (paper Fig. 2) as capacity-tracked arena spans:
//! packed structure-of-arrays columns the stage-2 walk reads, patched in
//! place by every insert and removal, plus a sparse map of the cold sinks
//! (attribute-checked subscriptions, nested-path components). A plain
//! subscription is stored once, as its id in the `plain_subs` column.
//! This module is the only place that names a column; the matcher sees
//! `children(n)`, `plain_subs(n)`, `sink_len(n)`, `cold_sinks(n)`, the
//! root table and `root_of(pid)`.

use super::attr_check::AttrCheck;
use super::SubId;
use pxf_predicate::PredId;
use std::collections::HashMap;

/// What an expression entry resolves to, when it matches a path, beyond
/// marking a plain subscription (those are bare ids in the packed
/// `plain_subs` column).
#[derive(Debug, Clone)]
pub(super) enum Sink {
    /// A single-path subscription whose attribute filters are re-checked
    /// on the structural match (selection postponed, paper §5).
    Sub {
        sub: SubId,
        attr_check: Box<AttrCheck>,
    },
    /// A component of a nested-path subscription: record the path index.
    Component { comp: u32 },
}

/// `parent` of a root-level node.
const NO_PARENT: u32 = u32::MAX;
/// `parent` of a node [`Trie::prune`] unlinked: the slot stays (node ids
/// are never reused) but no edge or root leads to it.
const PRUNED: u32 = u32::MAX - 1;
const NO_ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
pub(super) struct Trie {
    /// Node → its cold sinks, for the nodes that have any (an entry is
    /// never empty). The walk looks here only where a node's sink count
    /// exceeds its plain span.
    cold: HashMap<u32, Vec<Sink>>,
    /// Insert-time edge lookup: `(parent, pid) → child` (parent
    /// `NO_PARENT` keys the root level). Matching never touches this —
    /// it walks the packed child spans instead.
    edges: HashMap<(u32, PredId), u32>,
    /// The arena-packed columns matching reads.
    packed: PackedTrie,
    /// Arena slots abandoned by span relocations since the last
    /// [`Self::compile`].
    garbage: usize,
    /// True while the columns are exactly what [`Self::compile`] left:
    /// nothing was patched since, so compiling again would change nothing.
    compiled: bool,
}

/// A capacity-tracked slice of an arena: the live elements are
/// `arena[start..start + len]` and the slot owns `cap` elements starting
/// at `start`. Compilation emits spans with `cap == len` (a plain CSR);
/// patching appends in place while `len < cap` and relocates the span to
/// the end of the arena (doubling `cap`) when full, leaving the abandoned
/// slot as garbage for the next compaction.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// A span that is full: `len` elements at `start` and no room to grow.
    fn exact(start: u32, len: u32) -> Span {
        Span {
            start,
            len,
            cap: len,
        }
    }

    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Appends `v` to the span's slice inside `arena`, relocating the span to
/// the end of the arena (capacity doubled, old slot abandoned into
/// `garbage`) when it is full.
fn grow_span<T: Copy>(arena: &mut Vec<T>, span: &mut Span, v: T, garbage: &mut usize) {
    if span.len == span.cap {
        let new_cap = (span.cap * 2).max(4);
        let new_start = arena.len() as u32;
        for i in 0..span.len {
            let x = arena[(span.start + i) as usize];
            arena.push(x);
        }
        arena.resize(new_start as usize + new_cap as usize, v);
        *garbage += span.cap as usize;
        span.start = new_start;
        span.cap = new_cap;
    }
    arena[(span.start + span.len) as usize] = v;
    span.len += 1;
}

/// [`grow_span`] over two parallel arenas that must relocate together
/// (e.g. the child `pid`/`node` columns).
fn grow_span2<A: Copy, B: Copy>(
    a: &mut Vec<A>,
    b: &mut Vec<B>,
    span: &mut Span,
    va: A,
    vb: B,
    garbage: &mut usize,
) {
    if span.len == span.cap {
        let new_cap = (span.cap * 2).max(4);
        let new_start = a.len() as u32;
        for i in 0..span.len {
            let x = a[(span.start + i) as usize];
            let y = b[(span.start + i) as usize];
            a.push(x);
            b.push(y);
        }
        a.resize(new_start as usize + new_cap as usize, va);
        b.resize(new_start as usize + new_cap as usize, vb);
        *garbage += 2 * span.cap as usize;
        span.start = new_start;
        span.cap = new_cap;
    }
    a[(span.start + span.len) as usize] = va;
    b[(span.start + span.len) as usize] = vb;
    span.len += 1;
}

/// Arena-packed structure-of-arrays trie layout: per-node columns, child
/// edges as capacity-tracked arena spans (sorted by predicate at compile
/// time, append-order afterwards) and roots as parallel arrays. The hot
/// stage-2 walk touches only these dense columns (plus the cold sinks
/// where a node holds more than plain subscriptions). `add`/`remove`
/// patch the columns in place; [`Trie::compile`] lays the spans out
/// afresh, at exact capacity, without renumbering a node.
#[derive(Debug, Clone, Default)]
struct PackedTrie {
    /// Node → its predicate.
    pid: Vec<PredId>,
    /// Node → parent node (`NO_PARENT` at roots, `PRUNED` once unlinked).
    parent: Vec<u32>,
    /// Node → number of sinks, plain and cold together (hot presence
    /// check).
    sink_len: Vec<u32>,
    /// Plain-subscription sink spans: node `n`'s subscriptions with no
    /// attribute check, as bare subscription ids in
    /// `plain_subs[plain_span[n]]` — the only place such a subscription is
    /// stored. When the span covers all `sink_len[n]` sinks, resolving
    /// the node is a tight bitmap-marking sweep over this column, the
    /// duplicate-heavy common case.
    plain_span: Vec<Span>,
    plain_subs: Vec<u32>,
    /// Children spans: node `n`'s edges are parallel
    /// `child_pid/child_node[child_span[n]]` slices.
    child_span: Vec<Span>,
    child_pid: Vec<PredId>,
    child_node: Vec<u32>,
    /// Root clusters as parallel arrays (sorted by predicate at compile
    /// time; patched roots append — every consumer scans linearly).
    root_pid: Vec<PredId>,
    root_node: Vec<u32>,
    /// Predicate index → access-predicate cluster root node (`NO_ROOT`,
    /// or past the end, when the predicate roots no cluster). Lets stage
    /// 2 probe only the clusters whose access predicate matched instead
    /// of iterating every root.
    root_of: Vec<u32>,
}

/// Heap footprint of a `HashMap`'s table: the standard library's
/// open-addressed table keeps one control byte per bucket and fills at
/// most 7 of every 8 buckets, so `capacity()` entries stand for 8/7 as
/// many bucket slots.
pub(super) fn hash_map_bytes<K, V>(map: &HashMap<K, V>) -> usize {
    map.capacity() * 8 / 7 * (std::mem::size_of::<(K, V)>() + 1)
}

impl PackedTrie {
    /// Heap footprint of the packed columns, in bytes.
    fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pid.capacity() * size_of::<PredId>()
            + self.parent.capacity() * size_of::<u32>()
            + self.sink_len.capacity() * size_of::<u32>()
            + self.plain_span.capacity() * size_of::<Span>()
            + self.plain_subs.capacity() * size_of::<u32>()
            + self.child_span.capacity() * size_of::<Span>()
            + self.child_pid.capacity() * size_of::<PredId>()
            + self.child_node.capacity() * size_of::<u32>()
            + self.root_pid.capacity() * size_of::<PredId>()
            + self.root_node.capacity() * size_of::<u32>()
            + self.root_of.capacity() * size_of::<u32>()
    }

    fn set_root(&mut self, pid: PredId, n: u32) {
        if self.root_of.len() <= pid.index() {
            self.root_of.resize(pid.index() + 1, NO_ROOT);
        }
        self.root_of[pid.index()] = n;
    }
}

/// The matcher's read-only view of the packed columns.
impl Trie {
    pub(super) fn n_nodes(&self) -> usize {
        self.packed.pid.len()
    }

    /// True while every sink is a plain subscription: no attribute-checked
    /// subscription and no nested-path component is registered.
    pub(super) fn all_plain(&self) -> bool {
        self.cold.is_empty()
    }

    /// Node → number of sinks.
    #[inline]
    pub(super) fn sink_len(&self, n: u32) -> u32 {
        self.packed.sink_len[n as usize]
    }

    /// Node → its plain-subscription sinks (no attribute check).
    #[inline]
    pub(super) fn plain_subs(&self, n: u32) -> &[u32] {
        &self.packed.plain_subs[self.packed.plain_span[n as usize].range()]
    }

    /// Node → its cold sinks (everything but the plain subscriptions).
    pub(super) fn cold_sinks(&self, n: u32) -> &[Sink] {
        self.cold.get(&n).map_or(&[], Vec::as_slice)
    }

    /// Node → its child edges as parallel `(pid, node)` slices.
    #[inline]
    pub(super) fn children(&self, n: u32) -> (&[PredId], &[u32]) {
        let r = self.packed.child_span[n as usize].range();
        (
            &self.packed.child_pid[r.clone()],
            &self.packed.child_node[r],
        )
    }

    /// Node → number of live child edges.
    #[inline]
    pub(super) fn child_len(&self, n: u32) -> u32 {
        self.packed.child_span[n as usize].len
    }

    /// The cluster roots as parallel `(access predicate, node)` slices.
    #[inline]
    pub(super) fn roots(&self) -> (&[PredId], &[u32]) {
        (&self.packed.root_pid, &self.packed.root_node)
    }

    /// The cluster root whose access predicate is `pid`, if any.
    #[inline]
    pub(super) fn root_of(&self, pid: PredId) -> Option<u32> {
        match self.packed.root_of.get(pid.index()) {
            Some(&n) if n != NO_ROOT => Some(n),
            _ => None,
        }
    }

    /// Node `n`'s predicate chain, from `n` up to its root.
    pub(super) fn chain_up(&self, n: u32) -> impl Iterator<Item = PredId> + '_ {
        let parent = |&c: &u32| Some(self.packed.parent[c as usize]).filter(|&p| p != NO_PARENT);
        std::iter::successors(Some(n), parent).map(|c| self.packed.pid[c as usize])
    }
}

/// Maintenance: in-place patching and compaction.
impl Trie {
    /// Arena slots abandoned since the last [`Self::compile`].
    pub(super) fn garbage(&self) -> usize {
        self.garbage
    }

    /// Total length of the span arenas (the scale [`Self::garbage`] is
    /// judged against).
    pub(super) fn arena_len(&self) -> usize {
        self.packed.plain_subs.len() + self.packed.child_pid.len()
    }

    /// Heap footprint of the packed columns, the cold sinks and the
    /// insert-time edge map, in bytes.
    pub(super) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let sink_heap = |sink: &Sink| match sink {
            Sink::Sub { attr_check, .. } => attr_check.heap_bytes(),
            Sink::Component { .. } => 0,
        };
        let cold_lists: usize = self
            .cold
            .values()
            .map(|l| l.capacity() * size_of::<Sink>() + l.iter().map(sink_heap).sum::<usize>())
            .sum();
        self.packed.arena_bytes()
            + hash_map_bytes(&self.cold)
            + cold_lists
            + hash_map_bytes(&self.edges)
    }

    /// Heap footprint of the packed columns alone: the part of
    /// [`Self::bytes`] whose capacities [`Self::compile`] decides.
    #[cfg(test)]
    pub(super) fn arena_bytes(&self) -> usize {
        self.packed.arena_bytes()
    }

    /// True when nothing was patched since the last [`Self::compile`].
    pub(super) fn is_compiled(&self) -> bool {
        self.compiled
    }

    /// Compaction: lays the span arenas out afresh — child spans as a CSR
    /// sorted by `(parent, pid)`, plain spans in node order, sorted root
    /// arrays — and brings every column and the edge map down to what
    /// they hold. Abandoned arena slots and the spare capacity patching
    /// grew are dropped; node ids, and with them everything a caller
    /// holds about this trie, stay as they are.
    pub(super) fn compile(&mut self) {
        let p = &mut self.packed;
        p.pid.shrink_to_fit();
        p.parent.shrink_to_fit();
        p.sink_len.shrink_to_fit();
        p.plain_span.shrink_to_fit();

        let n_plain = p.plain_span.iter().map(|s| s.len as usize).sum();
        let mut plain_subs = Vec::with_capacity(n_plain);
        for span in &mut p.plain_span {
            let start = plain_subs.len() as u32;
            plain_subs.extend_from_slice(&p.plain_subs[span.range()]);
            *span = Span::exact(start, span.len);
        }
        p.plain_subs = plain_subs;

        // Every linked non-root node contributes exactly one child edge.
        let mut edges: Vec<(u32, PredId, u32)> = Vec::new();
        let mut roots: Vec<(PredId, u32)> = Vec::new();
        for (i, (&pid, &parent)) in p.pid.iter().zip(&p.parent).enumerate() {
            match parent {
                NO_PARENT => roots.push((pid, i as u32)),
                PRUNED => {}
                parent => edges.push((parent, pid, i as u32)),
            }
        }
        edges.sort_unstable();
        roots.sort_unstable();
        let mut counts = vec![0u32; p.pid.len()];
        for &(parent, _, _) in &edges {
            counts[parent as usize] += 1;
        }
        let mut next = 0;
        p.child_span = counts
            .iter()
            .map(|&len| {
                next += len;
                Span::exact(next - len, len)
            })
            .collect();
        p.child_pid = edges.iter().map(|e| e.1).collect();
        p.child_node = edges.iter().map(|e| e.2).collect();
        p.root_pid = roots.iter().map(|r| r.0).collect();
        p.root_node = roots.iter().map(|r| r.1).collect();
        p.root_of = vec![NO_ROOT; roots.iter().map(|r| r.0.index() + 1).max().unwrap_or(0)];
        for &(pid, node) in &roots {
            p.root_of[pid.index()] = node;
        }
        self.cold.shrink_to_fit();
        self.edges.shrink_to_fit();
        self.garbage = 0;
        self.compiled = true;
    }

    /// Walks or creates the predicate chain, appending every new node to
    /// the columns (and the root / `pid→root` tables). Returns the node
    /// the chain ends at — the entry every expression with this chain
    /// shares; the caller attaches its sink there.
    pub(super) fn patch_insert(&mut self, preds: impl IntoIterator<Item = PredId>) -> u32 {
        let mut current: u32 = NO_PARENT;
        for pid in preds {
            current = match self.edges.get(&(current, pid)) {
                Some(&n) => n,
                None => {
                    let parent = current;
                    let p = &mut self.packed;
                    let n = p.pid.len() as u32;
                    self.edges.insert((parent, pid), n);
                    p.pid.push(pid);
                    p.parent.push(parent);
                    p.sink_len.push(0);
                    p.plain_span.push(Span::default());
                    p.child_span.push(Span::default());
                    if parent == NO_PARENT {
                        // New access-predicate cluster: append to the root
                        // tables (scanned linearly, order-insensitive).
                        p.root_pid.push(pid);
                        p.root_node.push(n);
                        p.set_root(pid, n);
                    } else {
                        grow_span2(
                            &mut p.child_pid,
                            &mut p.child_node,
                            &mut p.child_span[parent as usize],
                            pid,
                            n,
                            &mut self.garbage,
                        );
                    }
                    n
                }
            };
        }
        debug_assert_ne!(current, NO_PARENT, "an encoding is never empty");
        current
    }

    /// Attaches a plain subscription to node `n`.
    pub(super) fn attach_plain(&mut self, n: u32, sub: SubId) {
        self.compiled = false;
        let p = &mut self.packed;
        p.sink_len[n as usize] += 1;
        grow_span(
            &mut p.plain_subs,
            &mut p.plain_span[n as usize],
            sub.0,
            &mut self.garbage,
        );
    }

    /// Attaches a cold sink to node `n`.
    pub(super) fn attach_cold(&mut self, n: u32, sink: Sink) {
        self.compiled = false;
        self.packed.sink_len[n as usize] += 1;
        self.cold.entry(n).or_default().push(sink);
    }

    /// Detaches subscription `sub` from node `n`, wherever it is held —
    /// the plain span or the cold sinks; false when it is in neither. A
    /// node left with neither sinks nor children is unlinked (see
    /// [`Self::prune`]).
    pub(super) fn detach_sub(&mut self, n: u32, sub: SubId) -> bool {
        let found = self.take_plain(n, sub)
            || self.take_cold(n, |s| matches!(s, Sink::Sub { sub: s2, .. } if *s2 == sub));
        self.sink_taken(n, found)
    }

    /// Detaches the sink of nested-path component `comp` from node `n`;
    /// false when it is not there. Prunes like [`Self::detach_sub`].
    pub(super) fn detach_component(&mut self, n: u32, comp: u32) -> bool {
        let found = self.take_cold(
            n,
            |s| matches!(s, Sink::Component { comp: c } if *c == comp),
        );
        self.sink_taken(n, found)
    }

    /// Swap-removes `sub` from node `n`'s plain span; the freed slot stays
    /// within the span's capacity, so it is reusable, not garbage.
    fn take_plain(&mut self, n: u32, sub: SubId) -> bool {
        let p = &mut self.packed;
        let span = &mut p.plain_span[n as usize];
        let r = span.range();
        let Some(idx) = p.plain_subs[r.clone()].iter().position(|&x| x == sub.0) else {
            return false;
        };
        p.plain_subs[r.start + idx] = p.plain_subs[r.end - 1];
        span.len -= 1;
        true
    }

    /// Removes the first cold sink of node `n` that `is_target` accepts,
    /// and the node's entry with its last one.
    fn take_cold(&mut self, n: u32, is_target: impl Fn(&Sink) -> bool) -> bool {
        let Some(sinks) = self.cold.get_mut(&n) else {
            return false;
        };
        let Some(pos) = sinks.iter().position(is_target) else {
            return false;
        };
        sinks.remove(pos);
        if sinks.is_empty() {
            self.cold.remove(&n);
        }
        true
    }

    /// Books a sink taken from node `n` (if one was) and prunes.
    fn sink_taken(&mut self, n: u32, taken: bool) -> bool {
        if taken {
            self.compiled = false;
            self.packed.sink_len[n as usize] -= 1;
            self.prune(n);
        }
        taken
    }

    /// Unlinks node `n`, and then each ancestor left the same way, once it
    /// carries neither sinks nor children. The predicate index never
    /// reuses a released predicate id, so without this every re-added
    /// expression would hang a fresh child beside the dead one and the
    /// walk over a hot node's children would grow with churn, not with
    /// the live set. The slot and its emptied spans stay behind, uncounted
    /// as garbage: node ids are never reused, and counting them would turn
    /// steady churn into periodic recompilations.
    fn prune(&mut self, mut n: u32) {
        let p = &mut self.packed;
        while p.sink_len[n as usize] == 0 && p.child_span[n as usize].len == 0 {
            let (pid, parent) = (p.pid[n as usize], p.parent[n as usize]);
            p.parent[n as usize] = PRUNED;
            self.edges.remove(&(parent, pid));
            if parent == NO_PARENT {
                let i = p
                    .root_node
                    .iter()
                    .position(|&r| r == n)
                    .expect("root mirrored in the root table");
                p.root_pid.swap_remove(i);
                p.root_node.swap_remove(i);
                p.root_of[pid.index()] = NO_ROOT;
                return;
            }
            // Swap-remove the edge inside the parent's span (reusable
            // capacity, not garbage).
            let span = &mut p.child_span[parent as usize];
            let r = span.range();
            let idx = p.child_node[r.clone()]
                .iter()
                .position(|&c| c == n)
                .expect("edge mirrored in the parent's span");
            p.child_pid[r.start + idx] = p.child_pid[r.end - 1];
            p.child_node[r.start + idx] = p.child_node[r.end - 1];
            span.len -= 1;
            n = parent;
        }
    }
}
