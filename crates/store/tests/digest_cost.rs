//! The digest tree's hashing cost, read through `ItemStore::digest_hashes`:
//! a clean tree answers probes without hashing, and a flush hashes only
//! the dirty leaves' root paths.
//!
//! Kept out of the library's unit tests: the thousand-item store churns
//! the process heap, and `value`'s unit tests check where reallocations
//! land.

use epidb_common::{ItemId, NodeId};
use epidb_store::{ItemStore, UpdateOp};

#[test]
fn a_warm_read_hashes_only_dirty_paths() {
    let n = 1000;
    let log2n = 10;
    let mut s = ItemStore::new(2, n);
    for i in 0..n {
        s.apply_local_update(NodeId(0), ItemId::from_index(i), &UpdateOp::set(vec![i as u8; 3]))
            .unwrap();
    }
    assert_eq!(s.digest_hashes(), None, "no probe, no tree");
    s.range_digest(0, n as u32);
    let built = s.digest_hashes().unwrap();
    assert_eq!(built, 2 * n as u64 - 1);
    // Reading any node of a clean tree hashes nothing.
    s.range_digest(0, n as u32);
    s.range_digest(500, 1000);
    assert_eq!(s.digest_hashes(), Some(built));
    // d writes cost at most d leaf hashes and d root paths.
    let d = 5;
    for k in 0..d {
        s.apply_local_update(NodeId(1), ItemId::from_index(k * 197), &UpdateOp::set(vec![7]))
            .unwrap();
    }
    assert_eq!(s.range_digest(0, n as u32), s.fold_range(0, n as u32));
    let flushed = s.digest_hashes().unwrap() - built;
    assert!(flushed <= (d * (log2n + 1)) as u64, "{flushed} hashes for {d} dirty leaves");
    // A range that is not a tree node is folded from scratch.
    assert_eq!(s.range_digest(1, 4), s.fold_range(1, 4));
    assert_eq!(s.digest_hashes().unwrap() - built - flushed, 2 * 3 - 1);
}
