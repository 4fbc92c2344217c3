//! Property: the maintained digest tree is a pure cache of the fold.
//!
//! Every store write only marks its leaf dirty; recon probes flush the
//! dirty paths before reading a node. For arbitrary
//! interleavings of every step that writes items — local updates, whole,
//! delta and recon pulls, OOB copies replayed by intra-node propagation,
//! LWW-resolved conflicts, and snapshot / checker / clone restores — the
//! digest a replica serves must equal the from-scratch fold, for tree
//! nodes and arbitrary ranges alike. A warm-tree replica and its cold
//! `mc_restore` twin must run the same descent with identical costs, and
//! serving values (whole pull, OOB fetch, tail pull) must dirty nothing.

use epidb_common::{ItemId, NodeId};
use epidb_core::{
    oob_copy, AuditCheck, ConflictPolicy, Engine, LocalTransport, ProtocolRequest,
    ProtocolResponse, Replica,
};
use epidb_store::UpdateOp;
use epidb_vv::DbVersionVector;
use proptest::prelude::*;

const N_NODES: usize = 3;
/// Not a power of two, so the tree is unbalanced; small enough that
/// ordinary schedules dirty most leaves between flushes.
const N_ITEMS: u32 = 40;

#[derive(Clone, Debug)]
enum Step {
    Update {
        node: usize,
        slot: u32,
        byte: u8,
        append: bool,
    },
    Pull {
        to: usize,
        from: usize,
    },
    Delta {
        to: usize,
        from: usize,
    },
    Recon {
        to: usize,
        from: usize,
    },
    /// OOB copy, a user update on the auxiliary copy, then a pull that
    /// brings the regular copy level so intra-node propagation replays it.
    OobReplay {
        to: usize,
        from: usize,
        slot: u32,
    },
    /// Concurrent writes at both ends, resolved by LWW on the pull.
    Conflict {
        to: usize,
        from: usize,
        slot: u32,
    },
    Restore {
        node: usize,
        how: u8,
    },
    ServeOnly {
        node: usize,
        slot: u32,
    },
}

fn pair() -> impl Strategy<Value = (usize, usize)> {
    (0..N_NODES, 1..N_NODES).prop_map(|(to, off)| (to, (to + off) % N_NODES))
}

fn arb_step() -> impl Strategy<Value = Step> {
    let slot = 0..N_ITEMS;
    prop_oneof![
        6 => (0..N_NODES, slot.clone(), any::<u8>(), any::<bool>())
            .prop_map(|(node, slot, byte, append)| Step::Update { node, slot, byte, append }),
        2 => pair().prop_map(|(to, from)| Step::Pull { to, from }),
        2 => pair().prop_map(|(to, from)| Step::Delta { to, from }),
        3 => pair().prop_map(|(to, from)| Step::Recon { to, from }),
        1 => (pair(), slot.clone()).prop_map(|((to, from), slot)| Step::OobReplay { to, from, slot }),
        1 => (pair(), slot.clone()).prop_map(|((to, from), slot)| Step::Conflict { to, from, slot }),
        1 => (0..N_NODES, 0u8..3).prop_map(|(node, how)| Step::Restore { node, how }),
        1 => (0..N_NODES, slot).prop_map(|(node, slot)| Step::ServeOnly { node, slot }),
    ]
}

fn write(r: &mut Replica, slot: u32, byte: u8, append: bool) {
    let op = if append { UpdateOp::append(vec![byte]) } else { UpdateOp::set(vec![byte; 6]) };
    r.update(ItemId(slot), op).unwrap();
}

/// Split-borrow two distinct replicas.
fn two(rs: &mut [Replica], a: usize, b: usize) -> (&mut Replica, &mut Replica) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = rs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = rs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Serve one recon probe of `[start, end)` and check every digest it
/// returns (the range's children, or its own leaf) against the fold.
fn probe(r: &mut Replica, start: u32, end: u32) {
    let reply = r.serve_recon(&[(start, end)], &[]).unwrap();
    for (s, e, digest) in reply.digests {
        prop_assert_eq!(digest, r.store().fold_range(s, e), "served digest of [{}, {})", s, e);
    }
}

/// Probe a random root-to-node path of the tree and a random arbitrary
/// range, seeded by `seed`.
fn probe_random(r: &mut Replica, mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    let (mut s, mut e) = (0, N_ITEMS);
    let depth = next() % 7;
    for _ in 0..depth {
        if e - s == 1 {
            break;
        }
        let mid = s + (e - s) / 2;
        if next() % 2 == 0 {
            e = mid;
        } else {
            s = mid;
        }
    }
    probe(r, s, e);
    let a = next() % N_ITEMS;
    let b = next() % N_ITEMS;
    let (lo, hi) = if a <= b { (a, b + 1) } else { (b, a + 1) };
    probe(r, lo, hi)
}

fn check_tree(r: &Replica) {
    if let Err(v) = AuditCheck::DigestTree.run(r) {
        panic!("{v}");
    }
}

/// Run one recon pull twice — warm (clones keep the built trees) and cold
/// (`mc_restore` drops them) — and require identical descents: costs at
/// both ends and resulting states. The warm run's result is kept.
fn recon_twins(rs: &mut [Replica], to: usize, from: usize) {
    let mut cold_to = Replica::mc_restore(&rs[to].mc_snapshot()).unwrap();
    let mut cold_from = Replica::mc_restore(&rs[from].mc_snapshot()).unwrap();
    prop_assert_eq!(cold_to.store().dirty_digest_leaves(), None, "restores start cold");
    let (warm_to, warm_from) = two(rs, to, from);
    let warm = Engine::pull_recon(warm_to, &mut LocalTransport::new(warm_from));
    let cold = Engine::pull_recon(&mut cold_to, &mut LocalTransport::new(&mut cold_from));
    prop_assert_eq!(warm.is_ok(), cold.is_ok());
    prop_assert_eq!(warm_to.costs(), cold_to.costs(), "initiator costs, warm vs cold tree");
    prop_assert_eq!(warm_from.costs(), cold_from.costs(), "responder costs, warm vs cold tree");
    prop_assert_eq!(warm_to.fingerprint(), cold_to.fingerprint());
    prop_assert_eq!(warm_from.fingerprint(), cold_from.fingerprint());
}

/// Serving values must not dirty the tree: flush it, then serve a whole
/// pull, an OOB fetch and a whole-item tail pull.
fn serve_only(r: &mut Replica, slot: u32) {
    r.serve_recon(&[(0, N_ITEMS)], &[]).unwrap();
    prop_assert_eq!(r.store().dirty_digest_leaves(), Some(0));
    r.serve_full_pull().unwrap();
    r.serve_oob(ItemId(slot)).unwrap();
    let req = ProtocolRequest::Pull { from: NodeId(0), dbvv: DbVersionVector::zero(N_NODES) };
    let resp = Engine::handle(r, req).unwrap();
    prop_assert!(matches!(resp, ProtocolResponse::Pull(_)));
    prop_assert_eq!(r.store().dirty_digest_leaves(), Some(0), "serving dirtied the tree");
}

fn apply(rs: &mut [Replica], step: &Step) {
    match *step {
        Step::Update { node, slot, byte, append } => write(&mut rs[node], slot, byte, append),
        Step::Pull { to, from } => {
            let (a, b) = two(rs, to, from);
            Engine::pull(a, &mut LocalTransport::new(b)).unwrap();
        }
        Step::Delta { to, from } => {
            let (a, b) = two(rs, to, from);
            Engine::pull_delta(a, &mut LocalTransport::new(b)).unwrap();
        }
        Step::Recon { to, from } => recon_twins(rs, to, from),
        Step::OobReplay { to, from, slot } => {
            let (a, b) = two(rs, to, from);
            write(b, slot, 0x0B, true);
            oob_copy(a, b, ItemId(slot)).unwrap();
            write(a, slot, 0xA0, true);
            Engine::pull(a, &mut LocalTransport::new(b)).unwrap();
        }
        Step::Conflict { to, from, slot } => {
            let (a, b) = two(rs, to, from);
            write(a, slot, 0xC1, false);
            write(b, slot, 0xC2, false);
            Engine::pull(a, &mut LocalTransport::new(b)).unwrap();
        }
        Step::Restore { node, how } => {
            let r = &rs[node];
            rs[node] = match how {
                0 => Replica::from_snapshot(&r.to_snapshot()).unwrap(),
                1 => Replica::mc_restore(&r.mc_snapshot()).unwrap(),
                _ => r.clone(),
            };
        }
        Step::ServeOnly { node, slot } => serve_only(&mut rs[node], slot),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn cached_digests_equal_the_fold_after_every_step(
        steps in prop::collection::vec((arb_step(), any::<bool>(), any::<u64>()), 1..48),
    ) {
        let mut rs: Vec<Replica> = (0..N_NODES)
            .map(|i| {
                let mut r = Replica::with_policy(
                    NodeId::from_index(i),
                    N_NODES,
                    N_ITEMS as usize,
                    ConflictPolicy::ResolveLww,
                );
                r.enable_delta(256);
                r
            })
            .collect();
        for (step, probe, seed) in &steps {
            apply(&mut rs, step);
            for (i, r) in rs.iter_mut().enumerate() {
                check_tree(r);
                // Probe only sometimes, so dirty leaves also pile up
                // between flushes.
                if *probe {
                    probe_random(r, seed.wrapping_add(i as u64));
                    check_tree(r);
                }
            }
        }
        for r in &rs {
            r.check_invariants().unwrap();
        }
    }
}
