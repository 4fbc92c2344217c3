//! The dense store of a replica's regular item copies.

use bytes::Bytes;
use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_vv::VersionVector;

use crate::digest::{fold_range, DigestTree};
use crate::op::UpdateOp;
use crate::value::ItemValue;

/// One regular item copy: its value and its item version vector (IVV).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredItem {
    /// The item's current value at this replica.
    pub value: ItemValue,
    /// The item version vector: entry `j` counts `j`-originated updates
    /// reflected in this copy (§3).
    pub ivv: VersionVector,
}

impl StoredItem {
    /// A fresh, empty item for a system of `n` servers.
    pub fn new(n_nodes: usize) -> StoredItem {
        StoredItem { value: ItemValue::new(), ivv: VersionVector::zero(n_nodes) }
    }
}

/// All regular item copies of one database replica, indexed densely by
/// [`ItemId`].
///
/// The item universe is fixed at construction, mirroring the paper's fixed
/// server set assumption (§2); the protocol's complexity arguments never
/// depend on item creation/deletion.
///
/// The store also keeps the reconciliation digest tree over its items
/// ([`range_digest`](Self::range_digest)). It is derived state: `None`
/// until the first digest is asked for, never persisted, and kept current
/// lazily — every mutating method marks the written leaf dirty in O(1)
/// and the next digest read refolds only the dirty paths.
#[derive(Clone, Debug)]
pub struct ItemStore {
    n_nodes: usize,
    pub(crate) items: Vec<StoredItem>,
    tree: Option<DigestTree>,
}

impl ItemStore {
    /// Create a store of `n_items` empty items for `n_nodes` servers.
    pub fn new(n_nodes: usize, n_items: usize) -> ItemStore {
        ItemStore {
            n_nodes,
            items: (0..n_items).map(|_| StoredItem::new(n_nodes)).collect(),
            tree: None,
        }
    }

    /// Number of items in the database.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Number of servers replicas are sized for.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Shared access to an item.
    pub fn get(&self, x: ItemId) -> Result<&StoredItem> {
        self.items.get(x.index()).ok_or(Error::UnknownItem(x))
    }

    /// Mutable access to an item. Marks its digest leaf dirty, so use it
    /// only to write; serving paths use [`share`](Self::share).
    pub fn get_mut(&mut self, x: ItemId) -> Result<&mut StoredItem> {
        let item = self.items.get_mut(x.index()).ok_or(Error::UnknownItem(x))?;
        if let Some(tree) = &mut self.tree {
            tree.mark_dirty(x.index());
        }
        Ok(item)
    }

    /// The item's IVV and a refcounted handle to its value — the ship
    /// operation. Takes `&mut self` only because
    /// [`ItemValue::share`] promotes owned storage to shared storage in
    /// place; the contents do not change, so the digest leaf stays clean.
    pub fn share(&mut self, x: ItemId) -> Result<(VersionVector, Bytes)> {
        let item = self.items.get_mut(x.index()).ok_or(Error::UnknownItem(x))?;
        Ok((item.ivv.clone(), item.value.share()))
    }

    /// Digest of the half-open item range `[start, end)` in the digest
    /// tree (see [`crate::digest`]). The first call builds the tree in
    /// O(N); later calls flush the leaves written since (re-hashing each
    /// and refolding the union of their root paths, at most O(log N)
    /// hashes per dirty leaf and never more than a rebuild) and read a
    /// tree node in O(log N). A range that is not a tree node is folded
    /// from scratch in O(width).
    ///
    /// # Panics
    /// Panics unless `start < end <= n_items`.
    pub fn range_digest(&mut self, start: u32, end: u32) -> u64 {
        assert!(start < end && end as usize <= self.items.len(), "digest range out of bounds");
        let items = &self.items;
        self.tree.get_or_insert_with(|| DigestTree::build(items)).digest(items, start, end)
    }

    /// Leaf hashes plus folds the digest tree has computed — its build,
    /// every flush and every non-node range folded from scratch — or
    /// `None` while the tree is not built. A diagnostic, not a protocol
    /// cost: it depends on whether the tree was warm, which the
    /// replica's `Costs` must not.
    pub fn digest_hashes(&self) -> Option<u64> {
        self.tree.as_ref().map(DigestTree::hashes)
    }

    /// Digest of `[start, end)` folded from scratch over the items in
    /// O(width), bypassing the tree — the definition every cached digest
    /// must equal (tests and audits).
    ///
    /// # Panics
    /// Panics unless `start < end <= n_items`.
    pub fn fold_range(&self, start: u32, end: u32) -> u64 {
        assert!(start < end && end as usize <= self.items.len(), "digest range out of bounds");
        fold_range(&self.items, start, end)
    }

    /// Leaves written since the digest tree was last flushed, or `None`
    /// while no digest was ever asked for (the tree is not built).
    pub fn dirty_digest_leaves(&self) -> Option<usize> {
        self.tree.as_ref().map(DigestTree::dirty_leaves)
    }

    /// Audit the digest tree against a from-scratch fold of the items:
    /// every node not above a dirty leaf (all of them after a flush) must
    /// equal its fold, and the dirty bookkeeping must be consistent. Pure;
    /// O(N) hashing. Trivially `Ok` while the tree is not built.
    pub fn check_digest_tree(&self) -> std::result::Result<(), String> {
        self.tree.as_ref().map_or(Ok(()), |tree| tree.verify(&self.items))
    }

    /// Apply a local update to item `x` on behalf of server `i`:
    /// apply the operation and bump `v_ii(x)`. Returns the update's
    /// per-item sequence number at `i` (the new `v_ii(x)`).
    pub fn apply_local_update(&mut self, i: NodeId, x: ItemId, op: &UpdateOp) -> Result<u64> {
        let item = self.get_mut(x)?;
        op.apply(&mut item.value);
        Ok(item.ivv.bump(i))
    }

    /// Adopt a received copy wholesale (value and IVV), as
    /// `AcceptPropagation` does once domination is verified (Fig. 3).
    pub fn adopt(&mut self, x: ItemId, value: ItemValue, ivv: VersionVector) -> Result<()> {
        let item = self.get_mut(x)?;
        item.value = value;
        item.ivv = ivv;
        Ok(())
    }

    /// Iterate all items with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &StoredItem)> {
        self.items.iter().enumerate().map(|(i, it)| (ItemId::from_index(i), it))
    }

    /// Component-wise sum of all IVVs — the quantity the DBVV must equal at
    /// all times (the workspace's central invariant; see `epidb-vv`).
    pub fn ivv_sum(&self) -> VersionVector {
        let mut sum = vec![0u64; self.n_nodes];
        for item in &self.items {
            for (l, s) in sum.iter_mut().enumerate() {
                *s += item.ivv.get(NodeId::from_index(l));
            }
        }
        VersionVector::from_entries(sum)
    }

    /// Total bytes stored across all item values.
    pub fn total_value_bytes(&self) -> usize {
        self.items.iter().map(|it| it.value.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_store_is_all_empty() {
        let s = ItemStore::new(3, 5);
        assert_eq!(s.n_items(), 5);
        assert_eq!(s.n_nodes(), 3);
        for (_, item) in s.iter() {
            assert!(item.value.is_empty());
            assert_eq!(item.ivv.total(), 0);
        }
    }

    #[test]
    fn unknown_item_is_an_error() {
        let mut s = ItemStore::new(2, 1);
        assert!(matches!(s.get(ItemId(1)), Err(Error::UnknownItem(ItemId(1)))));
        assert!(s.get_mut(ItemId(9)).is_err());
    }

    #[test]
    fn local_update_applies_and_bumps() {
        let mut s = ItemStore::new(2, 2);
        let seq = s.apply_local_update(NodeId(1), ItemId(0), &UpdateOp::set(&b"v1"[..])).unwrap();
        assert_eq!(seq, 1);
        let item = s.get(ItemId(0)).unwrap();
        assert_eq!(item.value.as_bytes(), b"v1");
        assert_eq!(item.ivv.get(NodeId(1)), 1);
        assert_eq!(item.ivv.get(NodeId(0)), 0);
        // Untouched item unchanged.
        assert_eq!(s.get(ItemId(1)).unwrap().ivv.total(), 0);
    }

    #[test]
    fn adopt_replaces_value_and_ivv() {
        let mut s = ItemStore::new(2, 1);
        let ivv = VersionVector::from_entries(vec![0, 3]);
        s.adopt(ItemId(0), ItemValue::from_slice(b"remote"), ivv.clone()).unwrap();
        let item = s.get(ItemId(0)).unwrap();
        assert_eq!(item.value.as_bytes(), b"remote");
        assert_eq!(&item.ivv, &ivv);
    }

    #[test]
    fn ivv_sum_adds_componentwise() {
        let mut s = ItemStore::new(2, 3);
        s.apply_local_update(NodeId(0), ItemId(0), &UpdateOp::set(&b"a"[..])).unwrap();
        s.apply_local_update(NodeId(0), ItemId(1), &UpdateOp::set(&b"b"[..])).unwrap();
        s.apply_local_update(NodeId(1), ItemId(1), &UpdateOp::set(&b"c"[..])).unwrap();
        let sum = s.ivv_sum();
        assert_eq!(sum.entries(), &[2, 1]);
    }

    #[test]
    fn total_value_bytes_sums_lengths() {
        let mut s = ItemStore::new(1, 2);
        s.apply_local_update(NodeId(0), ItemId(0), &UpdateOp::set(&b"1234"[..])).unwrap();
        s.apply_local_update(NodeId(0), ItemId(1), &UpdateOp::set(&b"56"[..])).unwrap();
        assert_eq!(s.total_value_bytes(), 6);
    }
}
