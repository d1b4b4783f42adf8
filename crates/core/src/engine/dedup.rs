//! Canonical-form dedup: structurally identical single-path
//! subscriptions share one trie entry, and the group — not the member —
//! owns the chain's predicate-index references.

use super::attr_check::AttrCheck;
use super::trie::Sink;
use super::{AddError, FilterEngine, SubId, SubLocation};
use crate::encode::{encode_single_path, AttrMode};
use pxf_predicate::PredId;
use pxf_xpath::XPathExpr;

/// Canonical-form dedup accounting (see [`FilterEngine::subset_stats`]):
/// stage-2 work per document is driven by `canonical` entries, not by
/// `registered` subscriptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubsetStats {
    /// Live single-path subscriptions registered (dedup-eligible
    /// population; nested-path subscriptions are excluded).
    pub registered: u64,
    /// Canonical entries actually stored (distinct structural hashes).
    pub canonical: u64,
}

/// A canonical expression group: every structurally identical subscription
/// shares one entry (a trie node). The group — not the individual member —
/// owns the predicate-index references of the chain, so member churn
/// inside a live group never touches the index.
#[derive(Debug, Clone)]
pub(super) struct CanonGroup {
    /// Canonical rendering (hash-collision verification key).
    canon: Box<str>,
    /// The encoded predicate chain (for releasing index references when
    /// the last member leaves).
    chain: Box<[PredId]>,
    /// The trie node holding the shared entry.
    node: u32,
    /// Live member count; 0 = dead group.
    members: u32,
    /// Postponed attribute-check template; identical for every member
    /// (it derives from the canonical expression), cloned per sink.
    attr_check: Option<Box<AttrCheck>>,
}

/// Sentinel group id for subscriptions outside the dedup universe
/// (nested-path subscriptions).
pub(super) const NO_GROUP: u32 = u32::MAX;

impl FilterEngine {
    /// Dedup accounting: registered single-path subscriptions vs the
    /// canonical entries that store them.
    pub fn subset_stats(&self) -> SubsetStats {
        let registered = self
            .locations
            .iter()
            .filter(|l| matches!(l, SubLocation::Node(_)))
            .count() as u64;
        let canonical = self.groups.iter().filter(|g| g.members > 0).count() as u64;
        SubsetStats {
            registered,
            canonical,
        }
    }

    /// Registers a single-path subscription through the canonical-group
    /// store: structurally identical expressions (equal canonical normal
    /// form) share one entry. A duplicate add is an O(1) patch — no
    /// parse-tree encoding, no predicate-index traffic, just a sink
    /// attached to the existing entry; the group, not the member, owns
    /// the chain's predicate references.
    pub(super) fn add_deduped(&mut self, expr: &XPathExpr, sub: SubId) -> Result<(), AddError> {
        let canon = expr.canonical();
        let key = canon.to_string();
        let hash = pxf_xpath::fnv1a(key.as_bytes());
        if let Some(gids) = self.canon_index.get(&hash) {
            let hit = gids.iter().copied().find(|&g| {
                self.groups[g as usize].members > 0 && *self.groups[g as usize].canon == *key
            });
            if let Some(gid) = hit {
                let node = self.groups[gid as usize].node;
                let attr_check = self.groups[gid as usize].attr_check.clone();
                self.groups[gid as usize].members += 1;
                self.trie.attach_sink(node, Sink::Sub { sub, attr_check });
                self.locations.push(SubLocation::Node(node));
                self.sub_group.push(gid);
                self.dedup_hits += 1;
                return Ok(());
            }
        }
        // First member: encode the *canonical* expression (the attribute
        // check's slot indices must refer to the steps actually encoded).
        let enc = encode_single_path(&canon, &mut self.interner, self.attr_mode)?;
        let attr_check = match self.attr_mode {
            AttrMode::Inline => None,
            AttrMode::Postponed => AttrCheck::build(&canon, &enc, &mut self.interner),
        };
        self.has_attr_checks |= attr_check.is_some();
        let chain: Box<[PredId]> = enc
            .preds
            .iter()
            .map(|p| self.index.insert(p.clone()))
            .collect();
        let node = self.trie.patch_insert(
            &chain,
            Sink::Sub {
                sub,
                attr_check: attr_check.clone(),
            },
        );
        let gid = self.groups.len() as u32;
        self.groups.push(CanonGroup {
            canon: key.into_boxed_str(),
            chain,
            node,
            members: 1,
            attr_check,
        });
        self.canon_index.entry(hash).or_default().push(gid);
        self.locations.push(SubLocation::Node(node));
        self.sub_group.push(gid);
        Ok(())
    }

    /// Takes a removed single-path subscription out of its canonical
    /// group. The last member to leave makes the group release its
    /// chain's index references and leave the canonical lookup, so a later
    /// re-add of the same canonical form starts a fresh group.
    pub(super) fn leave_group(&mut self, sub: SubId) {
        let gid = std::mem::replace(&mut self.sub_group[sub.0 as usize], NO_GROUP);
        if gid == NO_GROUP {
            return;
        }
        let g = &mut self.groups[gid as usize];
        g.members -= 1;
        if g.members != 0 {
            return;
        }
        for &pid in g.chain.iter() {
            self.index.release(pid);
        }
        let hash = pxf_xpath::fnv1a(g.canon.as_bytes());
        if let Some(bucket) = self.canon_index.get_mut(&hash) {
            if let Some(pos) = bucket.iter().position(|&g2| g2 == gid) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                self.canon_index.remove(&hash);
            }
        }
    }
}
