//! RCU-style snapshot publication for a live subscription base.
//!
//! The paper's deployment is a broker filtering a continuous document
//! stream while users subscribe and unsubscribe; matching must never
//! pause for index maintenance. This module separates the two roles:
//! a single writer owns a mutable [`FilterEngine`] and applies churn
//! through a [`SnapshotPublisher`], while any number of matcher threads
//! read immutable [`EngineSnapshot`]s obtained from a cheap, cloneable
//! [`SnapshotHandle`]. Publication swaps an `Arc` — readers holding the
//! previous snapshot keep matching against it unperturbed, and new
//! matchers pick up the new epoch.
//!
//! # Write-side cost
//!
//! The publisher double-buffers: publishing moves the writer's engine
//! into the new snapshot and recycles the engine inside the *previous*
//! snapshot as the next write buffer, catching it up by replaying the
//! operation log accumulated since the last publish. Steady-state churn
//! therefore costs two in-place patches per operation (once on the write
//! buffer, once at replay) and *no* engine clone — unless a reader still
//! holds the previous snapshot after a bounded reclamation spin, in
//! which case the publisher falls back to one deep clone of the fresh
//! snapshot. Publication itself does no index work: every
//! [`FilterEngine::add`]/[`FilterEngine::remove`] leaves the index
//! complete, so there is nothing to finish before the swap.
//!
//! # Replay determinism
//!
//! Both buffers have applied the same operations in the same order, and
//! that fixes everything an id can name: subscription ids are assigned in
//! registration order, trie node ids in creation order by the engine's
//! one insert walk, and neither a removal (it only unlinks) nor a
//! compaction (it lays spans out afresh, node by node) renumbers a node.
//! A deep clone copies the ids with the rest. So the two buffers agree on
//! subscription ids *and* trie node ids by construction;
//! [`SnapshotPublisher::publish`] asserts it after every catch-up, in
//! release builds too: each replayed add must return the logged id, and
//! the caught-up buffer must hold as many trie nodes and live
//! subscriptions as the engine just published.

use crate::engine::{AddError, FilterEngine, Matcher, SubId};
use pxf_xpath::XPathExpr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An immutable published view of the subscription base: an engine
/// frozen at a publication epoch. Readers mint per-thread
/// [`Matcher`]s from it; the engine is never mutated after publication.
#[derive(Debug)]
pub struct EngineSnapshot {
    engine: FilterEngine,
    epoch: u64,
}

impl EngineSnapshot {
    /// The frozen engine (read-only: mint matchers, inspect footprint).
    pub fn engine(&self) -> &FilterEngine {
        &self.engine
    }

    /// The publication epoch this snapshot was created at (0 for the
    /// initial snapshot, incremented by every [`SnapshotPublisher::publish`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Creates an independent matching handle over this snapshot.
    pub fn matcher(&self) -> Matcher<'_> {
        self.engine.matcher()
    }
}

impl AsRef<FilterEngine> for EngineSnapshot {
    fn as_ref(&self) -> &FilterEngine {
        &self.engine
    }
}

/// One logged subscription-base mutation, replayed to catch the spare
/// write buffer up after a publication swap.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// `add(expr)` returned the recorded id (replay must agree).
    Add(XPathExpr, SubId),
    /// `remove(sub)` returned `true`.
    Remove(SubId),
}

/// Shared slot holding the current snapshot. Readers briefly take the
/// read lock only to clone the `Arc` out — never while matching — so
/// matcher threads run lock-free against their pinned snapshot and the
/// writer's swap contends only with those pointer clones.
type SharedSlot = Arc<RwLock<Arc<EngineSnapshot>>>;

/// A cloneable reader handle: [`Self::load`] pins the current snapshot
/// for a batch of documents.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    shared: SharedSlot,
    /// Epoch of the most recent publish, mirrored atomically so stats
    /// paths can poll it without touching the snapshot slot at all.
    epoch: Arc<AtomicU64>,
}

impl SnapshotHandle {
    /// Pins the currently published snapshot. The returned `Arc` stays
    /// valid (and its match sets stable) for as long as the caller holds
    /// it, regardless of concurrent publishes.
    pub fn load(&self) -> Arc<EngineSnapshot> {
        self.shared.read().expect("snapshot slot poisoned").clone()
    }

    /// Epoch of the most recently published snapshot.
    ///
    /// A single atomic load: no lock is taken and no snapshot `Arc` is
    /// cloned, so a stats poller hammering this (the broker calls it per
    /// `STATS` request) can never pin a retired snapshot and push the
    /// publisher into its deep-clone reclaim fallback. May lead
    /// [`Self::load`] by one publish while a swap is in flight.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// The single-writer side: applies churn to a private write buffer and
/// publishes immutable snapshots of it.
///
/// ```
/// use pxf_core::{FilterEngine, SnapshotPublisher};
/// use pxf_xml::PathDoc;
///
/// let mut engine = FilterEngine::default();
/// engine.add_str("/a/b").unwrap();
/// let mut publisher = SnapshotPublisher::new(engine);
/// let handle = publisher.handle();
///
/// let sub = publisher.add_str("//c").unwrap();
/// let before = handle.load(); // does not see `//c` yet
/// publisher.publish();
/// let after = handle.load();
///
/// let doc = PathDoc::parse(b"<a><c/></a>").unwrap();
/// assert!(!before.matcher().match_document(&doc).contains(&sub));
/// assert!(after.matcher().match_document(&doc).contains(&sub));
/// ```
#[derive(Debug)]
pub struct SnapshotPublisher {
    /// The up-to-date write buffer (mutated by add/remove).
    write: FilterEngine,
    /// Operations applied to `write` since the last publish — exactly
    /// what the engine recycled from the previous snapshot is missing.
    log: Vec<ChurnOp>,
    shared: SharedSlot,
    epoch: u64,
    /// Lock-free mirror of `epoch`, shared with every [`SnapshotHandle`].
    published_epoch: Arc<AtomicU64>,
    /// Publishes that could not recycle the retired buffer (a reader
    /// pinned it past the bounded wait) and deep-cloned instead.
    clone_fallbacks: u64,
}

/// How many `yield_now` rounds the publisher waits for readers to drop
/// the previous snapshot before giving up and deep-cloning instead.
const RECLAIM_SPINS: usize = 64;

/// After the yield spins, how many 200 µs sleeps the publisher waits out
/// a reader that pinned the retired snapshot mid-match. A document match
/// over a large resident set runs for milliseconds — far longer than the
/// yield spins — so without this phase steady-state publication under
/// load would deep-clone the whole engine every time.
const RECLAIM_SLEEPS: usize = 25;

impl SnapshotPublisher {
    /// Takes ownership of an engine and publishes its current state as the
    /// epoch-0 snapshot, squeezing it first ([`FilterEngine::prepare`]):
    /// this is where a bulk-loaded resident set usually arrives.
    pub fn new(mut engine: FilterEngine) -> Self {
        engine.prepare();
        let snapshot = Arc::new(EngineSnapshot {
            engine: engine.clone(),
            epoch: 0,
        });
        SnapshotPublisher {
            write: engine,
            log: Vec::new(),
            shared: Arc::new(RwLock::new(snapshot)),
            epoch: 0,
            published_epoch: Arc::new(AtomicU64::new(0)),
            clone_fallbacks: 0,
        }
    }

    /// A reader handle onto this publisher's snapshot slot.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            shared: self.shared.clone(),
            epoch: self.published_epoch.clone(),
        }
    }

    /// Registers an expression on the write buffer. Invisible to
    /// readers until the next [`Self::publish`].
    pub fn add(&mut self, expr: &XPathExpr) -> Result<SubId, AddError> {
        let sub = self.write.add(expr)?;
        self.log.push(ChurnOp::Add(expr.clone(), sub));
        Ok(sub)
    }

    /// Parses and registers an expression (convenience).
    pub fn add_str(&mut self, src: &str) -> Result<SubId, Box<dyn std::error::Error>> {
        let expr = pxf_xpath::parse(src)?;
        Ok(self.add(&expr)?)
    }

    /// Unregisters a subscription on the write buffer. Readers holding
    /// an earlier snapshot keep reporting it until they reload.
    pub fn remove(&mut self, sub: SubId) -> bool {
        let removed = self.write.remove(sub);
        if removed {
            self.log.push(ChurnOp::Remove(sub));
        }
        removed
    }

    /// Read access to the write buffer (maintenance counters, footprint).
    pub fn engine(&self) -> &FilterEngine {
        &self.write
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pending operations not yet visible to readers.
    pub fn pending_ops(&self) -> usize {
        self.log.len()
    }

    /// Publishes that fell back to deep-cloning the engine because a
    /// reader pinned the retired snapshot past the bounded reclaim wait.
    /// Steady-state churn with well-behaved readers keeps this near zero.
    pub fn clone_fallbacks(&self) -> u64 {
        self.clone_fallbacks
    }

    /// Publishes the write buffer's current state as a new snapshot and
    /// returns its epoch. Readers loading after this call observe every
    /// operation applied so far; readers holding older snapshots are
    /// undisturbed.
    pub fn publish(&mut self) -> u64 {
        self.epoch += 1;
        let fresh = Arc::new(EngineSnapshot {
            engine: std::mem::take(&mut self.write),
            epoch: self.epoch,
        });
        let previous = {
            let mut slot = self.shared.write().expect("snapshot slot poisoned");
            std::mem::replace(&mut *slot, fresh)
        };
        self.published_epoch.store(self.epoch, Ordering::Release);
        self.write = self.reclaim(previous);
        self.log.clear();
        self.epoch
    }

    /// Recycles the engine inside the retired snapshot as the next write
    /// buffer, replaying the logged operations to catch it up (and
    /// checking the outcome; see the module docs on replay determinism).
    /// Falls back to cloning the just-published engine if readers still
    /// hold the retired snapshot after a bounded wait.
    fn reclaim(&mut self, mut retired: Arc<EngineSnapshot>) -> FilterEngine {
        for round in 0..RECLAIM_SPINS + RECLAIM_SLEEPS {
            match Arc::try_unwrap(retired) {
                Ok(snapshot) => {
                    let mut engine = snapshot.engine;
                    for op in &self.log {
                        match op {
                            ChurnOp::Add(expr, recorded) => {
                                let sub = engine
                                    .add(expr)
                                    .expect("replaying an add that previously succeeded");
                                assert_eq!(
                                    sub, *recorded,
                                    "replay must assign identical subscription ids"
                                );
                            }
                            ChurnOp::Remove(sub) => {
                                engine.remove(*sub);
                            }
                        }
                    }
                    let published = self.shared.read().expect("snapshot slot poisoned");
                    assert_eq!(
                        (engine.trie_nodes(), engine.len()),
                        (published.engine.trie_nodes(), published.engine.len()),
                        "replay must rebuild the published index node for node"
                    );
                    return engine;
                }
                Err(still_shared) => {
                    retired = still_shared;
                    if round < RECLAIM_SPINS {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            }
        }
        // A reader pinned the retired snapshot across the whole spin;
        // leave it to them and start from a copy of the fresh state.
        self.clone_fallbacks += 1;
        drop(retired);
        self.shared
            .read()
            .expect("snapshot slot poisoned")
            .engine
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xml::PathDoc;

    fn doc(xml: &str) -> PathDoc {
        PathDoc::parse(xml.as_bytes()).unwrap()
    }

    #[test]
    fn readers_pin_their_epoch() {
        let mut publisher = SnapshotPublisher::new(FilterEngine::default());
        let handle = publisher.handle();
        let a = publisher.add_str("/a/b").unwrap();
        assert_eq!(publisher.publish(), 1);

        let pinned = handle.load();
        assert_eq!(pinned.epoch(), 1);
        let d = doc("<a><b/></a>");
        assert_eq!(pinned.matcher().match_document(&d), vec![a]);

        assert!(publisher.remove(a));
        publisher.publish();
        // The pinned snapshot still reports the removed subscription…
        assert_eq!(pinned.matcher().match_document(&d), vec![a]);
        // …while a fresh load does not.
        let fresh = handle.load();
        assert_eq!(fresh.epoch(), 2);
        assert!(fresh.matcher().match_document(&d).is_empty());
    }

    #[test]
    fn replay_keeps_ids_and_match_sets_identical() {
        let mut publisher = SnapshotPublisher::new(FilterEngine::default());
        let handle = publisher.handle();
        let mut subs = Vec::new();
        for round in 0..6 {
            subs.push(publisher.add_str("/a/b").unwrap());
            subs.push(publisher.add_str("//c").unwrap());
            if round % 2 == 0 {
                let victim = subs.remove(0);
                assert!(publisher.remove(victim));
            }
            publisher.publish();
            // Oracle: an engine rebuilt from scratch with the same op
            // sequence must agree with the recycled-and-replayed buffer.
            let snap = handle.load();
            let d = doc("<a><b/><c/></a>");
            let got = snap.matcher().match_document(&d);
            assert_eq!(got.len(), subs.len(), "round {round}");
            assert_eq!(got, subs, "round {round}");
        }
    }

    #[test]
    fn reclaim_falls_back_to_clone_under_pinned_reader() {
        let mut publisher = SnapshotPublisher::new(FilterEngine::default());
        let handle = publisher.handle();
        let a = publisher.add_str("/a/b").unwrap();
        publisher.publish();
        let pinned = handle.load(); // hold epoch 1 across the next publish
        let b = publisher.add_str("//c").unwrap();
        publisher.publish(); // reclaim spin fails → deep clone path
        let d = doc("<a><b/><c/></a>");
        assert_eq!(pinned.matcher().match_document(&d), vec![a]);
        assert_eq!(handle.load().matcher().match_document(&d), vec![a, b]);
        // The cloned write buffer must still be fully functional.
        let c = publisher.add_str("/a").unwrap();
        publisher.publish();
        assert_eq!(handle.load().matcher().match_document(&d), vec![a, b, c]);
    }

    /// The stats-path satellite of PR 8: `SnapshotHandle::epoch()` must
    /// not pin (or even briefly clone) the snapshot, so a poller hammering
    /// it in a tight loop across many publishes never pushes the
    /// publisher into its deep-clone reclaim fallback, and sees a
    /// monotonically nondecreasing epoch sequence.
    #[test]
    fn epoch_polling_does_not_extend_snapshot_lifetime() {
        let mut publisher = SnapshotPublisher::new(FilterEngine::default());
        let handle = publisher.handle();
        let stop = std::sync::atomic::AtomicBool::new(false);
        // Completed `epoch()` reads. The writer holds off until the first
        // one, so polling overlaps publication on any scheduler (an
        // optimized build otherwise finishes all 200 rounds before the
        // poller thread is first scheduled).
        let reads = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let poller_handle = handle.clone();
            let (stop, reads) = (&stop, &reads);
            let poller = scope.spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let e = poller_handle.epoch();
                    assert!(e >= last, "epoch went backwards: {last} -> {e}");
                    last = e;
                    reads.fetch_add(1, Ordering::SeqCst);
                }
                last
            });
            while reads.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            // Released on unwind too: a publish that trips a replay
            // assert must fail the test, not hang the scope on the poller.
            struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
            impl Drop for StopOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let stop_now = StopOnDrop(stop);
            for _ in 0..200 {
                let s = publisher.add_str("/a/b").unwrap();
                publisher.publish();
                publisher.remove(s);
                publisher.publish();
            }
            drop(stop_now);
            let last_seen = poller.join().expect("poller panicked");
            assert!(reads.load(Ordering::SeqCst) > 0);
            assert!(last_seen <= publisher.epoch());
        });
        assert_eq!(publisher.epoch(), 400);
        assert_eq!(handle.epoch(), 400);
        assert_eq!(
            publisher.clone_fallbacks(),
            0,
            "an epoch poller must never pin a retired snapshot"
        );
        // The lock-free mirror agrees with the slot itself.
        assert_eq!(handle.load().epoch(), handle.epoch());
    }

    #[test]
    fn steady_state_publish_does_not_rebuild() {
        let mut publisher = SnapshotPublisher::new(FilterEngine::default());
        for _ in 0..20 {
            let s = publisher.add_str("/a/b").unwrap();
            publisher.add_str("//c[@k = \"1\"]").unwrap();
            publisher.remove(s);
            publisher.publish();
        }
        assert_eq!(publisher.engine().full_rebuilds(), 0);
        assert!(publisher.engine().incremental_patches() > 0);
    }
}
