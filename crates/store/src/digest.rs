//! The reconciliation digest tree over an [`ItemStore`](crate::ItemStore).
//!
//! The tree is the deterministic binary split of the item space: the
//! node for the half-open range `[s, e)` has children `[s, mid)` and
//! `[mid, e)` with `mid = s + (e - s) / 2`, down to width-1 leaves.
//!
//! * A leaf digest is FNV-1a over the item's IVV (length + entries) and
//!   value (length + bytes), so two replicas agree on a leaf iff they
//!   agree on the item's `(IVV, value)`.
//! * An interior digest folds `(s, e, left, right)`, so it commits to
//!   both structure and content.
//!
//! The store materializes every node of that tree in a compact
//! pre-order array of `2N − 1` digests: the node `[s, e)` at index `i`
//! has its left child at `i + 1` and its right child at `i + 2·(mid − s)`
//! (the left subtree holds exactly `2·(mid − s) − 1` nodes). Writes only
//! mark their leaf dirty (one bit and one list push); the next read
//! flushes, re-hashing each dirty leaf and refolding the union of their
//! root paths, each node once. With `d` dirty leaves that is `d` leaf
//! hashes and at most `min(N − 1, d · ⌈log₂N⌉)` folds, so even a flush
//! with every leaf dirty costs no more than building the tree.

use epidb_common::FnvHasher;

use crate::store::StoredItem;

/// Leaf digest of one item: FNV-1a over the IVV (length + entries) and
/// the value (length + bytes).
pub(crate) fn leaf_digest(item: &StoredItem) -> u64 {
    let mut h = FnvHasher::new();
    h.write_u64(item.ivv.len() as u64);
    for &e in item.ivv.entries() {
        h.write_u64(e);
    }
    let bytes = item.value.as_bytes();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

/// Interior digest of `[start, end)` from its two child digests.
fn fold(start: u32, end: u32, left: u64, right: u64) -> u64 {
    let mut h = FnvHasher::new();
    h.write_u64(start as u64);
    h.write_u64(end as u64);
    h.write_u64(left);
    h.write_u64(right);
    h.finish()
}

#[inline]
fn midpoint(start: u32, end: u32) -> u32 {
    start + (end - start) / 2
}

/// Pre-order index of the right child of the node `[start, end)` at `idx`.
#[inline]
fn right_child(idx: usize, start: u32, mid: u32) -> usize {
    idx + 2 * (mid - start) as usize
}

/// Digest of `[start, end)` computed from scratch over `items`, in
/// O(width) — the definition every cached digest must equal.
pub(crate) fn fold_range(items: &[StoredItem], start: u32, end: u32) -> u64 {
    debug_assert!(start < end && end as usize <= items.len());
    if end - start == 1 {
        return leaf_digest(&items[start as usize]);
    }
    let mid = midpoint(start, end);
    fold(start, end, fold_range(items, start, mid), fold_range(items, mid, end))
}

/// The materialized digest tree of one store, maintained lazily: see the
/// module docs for the layout and the flush discipline.
#[derive(Clone, Debug)]
pub(crate) struct DigestTree {
    /// Every node's digest, in pre-order; current except on the root
    /// paths of dirty leaves.
    nodes: Vec<u64>,
    /// One bit per leaf: written since the last flush.
    dirty_bits: Vec<u64>,
    /// The dirty leaves, each listed once (the bitset dedupes).
    dirty: Vec<u32>,
    /// Leaf hashes plus folds computed so far — building, flushing and
    /// folding non-node ranges from scratch (a diagnostic).
    hashes: u64,
}

impl DigestTree {
    /// Build the whole tree over `items` in O(N).
    pub(crate) fn build(items: &[StoredItem]) -> DigestTree {
        let n = items.len();
        let mut tree = DigestTree {
            nodes: vec![0; (2 * n).saturating_sub(1)],
            dirty_bits: vec![0; n.div_ceil(64)],
            dirty: Vec::new(),
            hashes: 0,
        };
        if n > 0 {
            tree.build_node(items, 0, 0, n as u32);
        }
        tree
    }

    fn build_node(&mut self, items: &[StoredItem], idx: usize, start: u32, end: u32) -> u64 {
        let digest = if end - start == 1 {
            leaf_digest(&items[start as usize])
        } else {
            let mid = midpoint(start, end);
            let left = self.build_node(items, idx + 1, start, mid);
            let right = self.build_node(items, right_child(idx, start, mid), mid, end);
            fold(start, end, left, right)
        };
        self.nodes[idx] = digest;
        self.hashes += 1;
        digest
    }

    fn n_leaves(&self) -> usize {
        self.nodes.len().div_ceil(2)
    }

    /// Record a write to leaf `x`: O(1), no hashing.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, x: usize) {
        if self.is_dirty(x as u32) {
            return;
        }
        self.dirty_bits[x / 64] |= 1 << (x % 64);
        self.dirty.push(x as u32);
    }

    /// Leaves written since the last flush (diagnostics and audits).
    pub(crate) fn dirty_leaves(&self) -> usize {
        self.dirty.len()
    }

    /// Leaf hashes plus folds computed since the tree was built,
    /// including the build's own `2N − 1`.
    pub(crate) fn hashes(&self) -> u64 {
        self.hashes
    }

    /// The digest of `[start, end)`: flush, then read the tree node, or
    /// fold a range that is not a node from scratch in O(width).
    pub(crate) fn digest(&mut self, items: &[StoredItem], start: u32, end: u32) -> u64 {
        self.flush(items);
        self.node(start, end).unwrap_or_else(|| {
            self.hashes += 2 * u64::from(end - start) - 1;
            fold_range(items, start, end)
        })
    }

    /// Bring every node up to date with `items`: re-hash each dirty leaf
    /// and refold the union of their root paths, each shared ancestor
    /// once.
    fn flush(&mut self, items: &[StoredItem]) {
        if self.dirty.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        self.refold(items, 0, 0, items.len() as u32, &dirty);
        for &x in &dirty {
            self.dirty_bits[x as usize / 64] = 0;
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// Recompute the node `[start, end)` at `idx` given the sorted dirty
    /// leaves under it; untouched subtrees keep their digests.
    fn refold(&mut self, items: &[StoredItem], idx: usize, start: u32, end: u32, dirty: &[u32]) {
        if dirty.is_empty() {
            return;
        }
        self.hashes += 1;
        if end - start == 1 {
            self.nodes[idx] = leaf_digest(&items[start as usize]);
            return;
        }
        let mid = midpoint(start, end);
        let split = dirty.partition_point(|&x| x < mid);
        let right = right_child(idx, start, mid);
        self.refold(items, idx + 1, start, mid, &dirty[..split]);
        self.refold(items, right, mid, end, &dirty[split..]);
        self.nodes[idx] = fold(start, end, self.nodes[idx + 1], self.nodes[right]);
    }

    /// The cached digest of `[start, end)` if that range is a tree node,
    /// found by descending from the root in O(log N). Only meaningful
    /// right after a [`flush`](Self::flush).
    fn node(&self, start: u32, end: u32) -> Option<u64> {
        let (mut idx, mut s, mut e) = (0usize, 0u32, self.n_leaves() as u32);
        if start >= end || end > e {
            return None;
        }
        loop {
            if (s, e) == (start, end) {
                return Some(self.nodes[idx]);
            }
            if e - s == 1 {
                return None;
            }
            let mid = midpoint(s, e);
            if end <= mid {
                idx += 1;
                e = mid;
            } else if start >= mid {
                idx = right_child(idx, s, mid);
                s = mid;
            } else {
                return None;
            }
        }
    }

    /// Compare every node the tree claims current — each node with no
    /// dirty leaf beneath it, all of them after a flush — against the
    /// from-scratch fold over `items`, and check that the dirty list and
    /// bitset agree. Pure; O(N) hashing.
    pub(crate) fn verify(&self, items: &[StoredItem]) -> Result<(), String> {
        if self.nodes.len() != (2 * items.len()).saturating_sub(1) {
            return Err(format!(
                "digest tree holds {} nodes for {} items",
                self.nodes.len(),
                items.len()
            ));
        }
        if items.is_empty() {
            return Ok(());
        }
        let set: u32 = self.dirty_bits.iter().map(|w| w.count_ones()).sum();
        if set as usize != self.dirty.len() {
            return Err(format!(
                "dirty bitset holds {set} leaves but the dirty list {}",
                self.dirty.len()
            ));
        }
        if let Some(&x) = self.dirty.iter().find(|&&x| !self.is_dirty(x)) {
            return Err(format!("dirty list names leaf {x} whose dirty bit is clear"));
        }
        self.verify_node(items, 0, 0, items.len() as u32).map(|_| ())
    }

    #[inline]
    fn is_dirty(&self, x: u32) -> bool {
        self.dirty_bits[x as usize / 64] & (1 << (x % 64)) != 0
    }

    /// Returns the node's from-scratch digest and whether a dirty leaf
    /// lies beneath it.
    fn verify_node(
        &self,
        items: &[StoredItem],
        idx: usize,
        start: u32,
        end: u32,
    ) -> Result<(u64, bool), String> {
        let (digest, dirty) = if end - start == 1 {
            (leaf_digest(&items[start as usize]), self.is_dirty(start))
        } else {
            let mid = midpoint(start, end);
            let (l, ld) = self.verify_node(items, idx + 1, start, mid)?;
            let (r, rd) = self.verify_node(items, right_child(idx, start, mid), mid, end)?;
            (fold(start, end, l, r), ld || rd)
        };
        if !dirty && self.nodes[idx] != digest {
            return Err(format!(
                "cached digest of [{start}, {end}) is {:#018x}, the fold of its items {digest:#018x}",
                self.nodes[idx]
            ));
        }
        Ok((digest, dirty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_common::{ItemId, NodeId};

    use crate::{ItemStore, ItemValue, UpdateOp};

    fn store(n: usize) -> ItemStore {
        let mut s = ItemStore::new(2, n);
        for i in 0..n {
            s.apply_local_update(
                NodeId(0),
                ItemId::from_index(i),
                &UpdateOp::set(vec![i as u8; 3]),
            )
            .unwrap();
        }
        s
    }

    /// Every tree node `[s, e)` of an `n`-leaf tree, in pre-order.
    fn nodes(start: u32, end: u32, out: &mut Vec<(u32, u32)>) {
        out.push((start, end));
        if end - start > 1 {
            let mid = midpoint(start, end);
            nodes(start, mid, out);
            nodes(mid, end, out);
        }
    }

    #[test]
    fn preorder_layout_matches_the_fold() {
        for n in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let s = store(n);
            let tree = DigestTree::build(&s.items);
            let mut all = Vec::new();
            nodes(0, n as u32, &mut all);
            assert_eq!(all.len(), 2 * n - 1);
            for (i, &(a, b)) in all.iter().enumerate() {
                assert_eq!(tree.nodes[i], fold_range(&s.items, a, b), "n={n} node [{a}, {b})");
                assert_eq!(tree.node(a, b), Some(tree.nodes[i]));
            }
            tree.verify(&s.items).unwrap();
        }
    }

    #[test]
    fn non_tree_ranges_are_not_located() {
        let s = store(8);
        let tree = DigestTree::build(&s.items);
        assert_eq!(tree.node(1, 3), None);
        assert_eq!(tree.node(0, 3), None);
        assert_eq!(tree.node(0, 9), None);
        assert_eq!(tree.node(4, 4), None);
    }

    #[test]
    fn flush_refolds_dirty_paths_and_a_full_flush_costs_a_build() {
        let n = 64;
        let mut s = store(n);
        s.range_digest(0, n as u32);
        assert_eq!(s.digest_hashes(), Some(2 * n as u64 - 1), "the build hashes every node once");
        for x in [3usize, 3, 40] {
            s.apply_local_update(NodeId(1), ItemId::from_index(x), &UpdateOp::append(&b"+"[..]))
                .unwrap();
        }
        assert_eq!(s.dirty_digest_leaves(), Some(2), "a leaf is listed once");
        s.check_digest_tree().unwrap();
        let before = s.digest_hashes().unwrap();
        assert_eq!(s.range_digest(0, n as u32), fold_range(&s.items, 0, n as u32));
        // Two leaves and their two 6-fold paths, which share only the root.
        assert_eq!(s.digest_hashes().unwrap() - before, 2 * 7 - 1);
        assert_eq!(s.dirty_digest_leaves(), Some(0));
        s.check_digest_tree().unwrap();
        // With every leaf dirty, the refold visits each node once: exactly
        // the cost of building the tree.
        let ivv = s.get(ItemId(0)).unwrap().ivv.clone();
        for x in 0..n {
            s.adopt(ItemId::from_index(x), ItemValue::from_slice(b"w"), ivv.clone()).unwrap();
        }
        assert_eq!(s.dirty_digest_leaves(), Some(n));
        let before = s.digest_hashes().unwrap();
        assert_eq!(s.range_digest(8, 16), fold_range(&s.items, 8, 16));
        assert_eq!(s.digest_hashes().unwrap() - before, 2 * n as u64 - 1);
        assert_eq!(s.dirty_digest_leaves(), Some(0));
        s.check_digest_tree().unwrap();
    }

    #[test]
    fn a_missed_write_is_caught_by_verify() {
        let n = 16;
        let mut s = store(n);
        s.range_digest(0, n as u32);
        // Mutate behind the tree's back (bypassing the dirty mark).
        s.items[5].value.append(b"!");
        let err = s.check_digest_tree().unwrap_err();
        assert!(err.contains("[5, 6)"), "{err}");
    }
}
