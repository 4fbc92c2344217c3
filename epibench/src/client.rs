//! The closed-loop client: one thread issues every update, OOB fetch, ring
//! sweep and fresh join through a [`Fabric`], times each from the outside,
//! and afterwards checks every replica against the [`Model`].
//!
//! The same client runs the reactor cluster and the in-process twin, so
//! both see the same operations in the same order.

use std::time::Instant;

use epidb_common::{Costs, ItemId, NodeId, Result};
use epidb_core::Replica;
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;

use crate::spec::{Model, OpGen, Spec, Sweep};

/// Which degradation-ladder rungs one round's exchanges used, as seen by
/// the transport: a `Recon` request marks the recon rung, a `FullPull`
/// the whole-database pull.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rungs {
    pub exchanges: u64,
    pub recon: u64,
    pub full: u64,
}

impl Rungs {
    pub fn note(&mut self, req: &epidb_core::ProtocolRequest) {
        use epidb_core::ProtocolRequest as R;
        self.exchanges += 1;
        match req {
            R::Recon { .. } => self.recon += 1,
            R::FullPull { .. } => self.full += 1,
            _ => {}
        }
    }
}

pub struct Pulled {
    pub propagated: bool,
    pub rungs: Rungs,
}

/// What the client needs from a cluster. Implemented over the reactor
/// (`AsyncTcpCluster`) and over the in-process traced twin.
pub trait Fabric {
    fn nodes(&self) -> usize;
    fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()>;
    fn pull(&mut self, recipient: NodeId, source: NodeId, mode: Sweep) -> Result<Pulled>;
    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<()>;
    /// A fresh, empty replica (benchmark-owned) joins from `source`
    /// through `Engine::pull_recon`.
    fn fresh_join(&mut self, source: NodeId) -> Result<(Replica, Rungs)>;
    fn set_retention(&mut self, node: NodeId, keep: usize) -> Result<()>;
    fn with_replica<T>(&self, node: NodeId, f: impl FnOnce(&Replica) -> T) -> T;

    fn costs(&self, node: NodeId) -> Costs {
        self.with_replica(node, Replica::costs)
    }

    fn total_costs(&self) -> Costs {
        NodeId::all(self.nodes()).map(|n| self.costs(n)).fold(Costs::ZERO, |a, c| a + c)
    }
}

/// Deliberate faults that the output checks must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// One extra final batch whose sweeps never run node 1's pull from
    /// node 0 (and count it as up to date).
    SkipRingPull,
    /// One extra update is acknowledged to the model but never reaches
    /// the cluster.
    DropAckedWrite,
}

/// Everything one measured phase records.
#[derive(Default)]
pub struct Record {
    pub ack_us: Vec<f64>,
    pub oob_us: Vec<f64>,
    pub convergence_ms: Vec<f64>,
    pub behind_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    /// Each batch's time, first update to the end of the sweep loop.
    pub batch_secs: Vec<f64>,
    pub updates: u64,
    /// Payload bytes the client wrote.
    pub user_bytes: u64,
    pub batches: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Engine rounds initiated: pulls (up to date or not), OOB fetches and
    /// fresh joins.
    pub rounds: u64,
    pub exchanges: u64,
    /// Behind catch-ups that took the recon rung, and their exchanges.
    pub recon_catchups: u64,
    pub recon_exchanges: u64,
    /// Rung or equality violations seen while running.
    pub violations: Vec<String>,
    /// Exact counts over the first `spec.prefix` batches.
    pub prefix_updates: u64,
    pub prefix_sweep_bytes: u64,
    pub prefix_catchups: u64,
    pub prefix_catchup_bytes: u64,
    pub prefix_oobs: u64,
    pub prefix_oob_bytes: u64,
    /// Per-node `Costs` accrued over the prefix, plus fresh joiners' own.
    pub prefix_costs: Vec<Costs>,
    pub prefix_joiner_costs: Costs,
}

impl Record {
    fn outcome<T>(&mut self, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e.to_string());
                }
                None
            }
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Ring sweeps (node i+1 pulls from node i) until a whole sweep is up to
/// date. Returns when the last productive pull ended, and records the
/// behind catch-up: the first pull that moves data.
fn converge<F: Fabric>(
    fab: &mut F,
    spec: &Spec,
    rec: &mut Record,
    skip: Option<NodeId>,
    in_prefix: bool,
) -> Instant {
    let n = fab.nodes();
    let mut last = Instant::now();
    let mut first = true;
    for _sweep in 0..4 * n {
        let mut any = false;
        for step in 0..n {
            let source = NodeId::from_index(step);
            let recipient = NodeId::from_index((step + 1) % n);
            if skip == Some(recipient) {
                continue;
            }
            let before = if first && in_prefix {
                fab.costs(source) + fab.costs(recipient)
            } else {
                Costs::ZERO
            };
            let t = Instant::now();
            let pulled = fab.pull(recipient, source, spec.sweep());
            let took = ms(t);
            rec.rounds += 1;
            let Some(p) = rec.outcome(pulled) else { continue };
            rec.exchanges += p.rungs.exchanges;
            if p.propagated {
                any = true;
                last = Instant::now();
            }
            // The batch's behind catch-up is its first pull that moves data
            // (a writer may have had no update in this batch).
            if first && p.propagated {
                first = false;
                rec.behind_ms.push(took);
                if in_prefix {
                    let after = fab.costs(source) + fab.costs(recipient);
                    rec.prefix_catchups += 1;
                    rec.prefix_catchup_bytes += (after - before).bytes_sent;
                }
                let want_recon = spec.source_retention > 0;
                if p.rungs.full > 0 || (p.rungs.recon > 0) != want_recon {
                    rec.violations.push(format!(
                        "behind catch-up {recipient}<-{source}: recon={} full={} (expected recon={want_recon}, no full pull)",
                        p.rungs.recon, p.rungs.full
                    ));
                }
                if p.rungs.recon > 0 {
                    rec.recon_catchups += 1;
                    rec.recon_exchanges += p.rungs.exchanges;
                }
            }
        }
        if !any {
            return last;
        }
    }
    rec.violations.push(format!("no quiescent sweep after {} sweeps", 4 * n));
    last
}

/// Load every item at its writer and converge, then apply the source's
/// log retention. Costs here are not measured.
pub fn setup<F: Fabric>(
    fab: &mut F,
    spec: &Spec,
    gen: &mut OpGen,
    model: &mut Model,
) -> Result<()> {
    for op in gen.preload() {
        model.apply(&op);
        fab.update(op.node, op.item, op.op)?;
    }
    let mut rec = Record::default();
    converge(fab, spec, &mut rec, None, false);
    if let Some(e) = rec.errors.first() {
        return Err(epidb_common::Error::Network(format!("set-up sweep failed: {e}")));
    }
    if spec.source_retention > 0 {
        fab.set_retention(NodeId(0), spec.source_retention)?;
    }
    Ok(())
}

fn run_batch<F: Fabric>(
    fab: &mut F,
    spec: &Spec,
    gen: &mut OpGen,
    model: &mut Model,
    rec: &mut Record,
    skip: Option<NodeId>,
    in_prefix: bool,
) {
    let n = fab.nodes();
    let bytes0 = if in_prefix { fab.total_costs().bytes_sent } else { 0 };
    let start = Instant::now();
    for op in gen.batch() {
        model.apply(&op);
        rec.user_bytes += op.op.payload_len() as u64;
        let t = Instant::now();
        let r = fab.update(op.node, op.item, op.op);
        rec.ack_us.push(ms(t) * 1e3);
        rec.outcome(r);
        rec.updates += 1;
        if in_prefix {
            rec.prefix_updates += 1;
        }
        if rec.updates.is_multiple_of(spec.oob_every) {
            let recipient = NodeId::from_index((op.node.index() + 1) % n);
            let before =
                if in_prefix { fab.costs(op.node) + fab.costs(recipient) } else { Costs::ZERO };
            let t = Instant::now();
            let r = fab.oob(recipient, op.node, op.item);
            rec.oob_us.push(ms(t) * 1e3);
            rec.rounds += 1;
            rec.exchanges += 1;
            rec.outcome(r);
            if in_prefix {
                let after = fab.costs(op.node) + fab.costs(recipient);
                rec.prefix_oobs += 1;
                rec.prefix_oob_bytes += (after - before).bytes_sent;
            }
        }
    }
    let last = converge(fab, spec, rec, skip, in_prefix);
    rec.convergence_ms.push(last.duration_since(start).as_secs_f64() * 1e3);
    rec.batch_secs.push(start.elapsed().as_secs_f64());
    rec.batches += 1;
    if in_prefix {
        rec.prefix_sweep_bytes += fab.total_costs().bytes_sent - bytes0;
    }
}

fn fresh_join<F: Fabric>(fab: &mut F, model: &Model, rec: &mut Record, in_prefix: bool) {
    let t = Instant::now();
    let joined = fab.fresh_join(NodeId(0));
    let took = ms(t);
    rec.rounds += 1;
    let Some((fresh, rungs)) = rec.outcome(joined) else { return };
    rec.exchanges += rungs.exchanges;
    rec.fresh_ms.push(took);
    if in_prefix {
        rec.prefix_joiner_costs += fresh.costs();
    }
    if rungs.full != 1 {
        rec.violations.push(format!("fresh join took {} whole pulls, expected 1", rungs.full));
    }
    let same = fab.with_replica(NodeId(0), |src| src.dbvv().compare(fresh.dbvv()) == VvOrd::Equal);
    if !same || fresh.aux_item_count() != 0 {
        rec.violations.push("fresh joiner does not equal the source after its pull".into());
    }
    if let Some(bad) = first_mismatch(&fresh, model) {
        rec.violations.push(format!("fresh joiner: {bad}"));
    }
}

/// The measured phase: batches of updates (with OOB fetches), ring sweeps
/// to convergence, and a fresh join every `fresh_every` batches. Runs the
/// prefix, then more batches until `seconds` have passed (`None`: exactly
/// the prefix).
pub fn measure<F: Fabric>(
    fab: &mut F,
    spec: &Spec,
    gen: &mut OpGen,
    model: &mut Model,
    seconds: Option<f64>,
    fault: Fault,
) -> Record {
    let n = fab.nodes();
    let mut rec = Record::default();
    let costs0: Vec<Costs> = NodeId::all(n).map(|x| fab.costs(x)).collect();
    let start = Instant::now();
    let mut b = 0u64;
    loop {
        let in_prefix = b < spec.prefix;
        if !in_prefix && seconds.is_none_or(|s| start.elapsed().as_secs_f64() >= s) {
            break;
        }
        run_batch(fab, spec, gen, model, &mut rec, None, in_prefix);
        if (b + 1).is_multiple_of(spec.fresh_every) {
            fresh_join(fab, model, &mut rec, in_prefix);
        }
        b += 1;
        if b == spec.prefix {
            rec.prefix_costs = NodeId::all(n).map(|x| fab.costs(x) - costs0[x.index()]).collect();
        }
    }
    match fault {
        Fault::None => {}
        Fault::SkipRingPull => run_batch(fab, spec, gen, model, &mut rec, Some(NodeId(1)), false),
        Fault::DropAckedWrite => model.apply(&gen.next_op()),
    }
    rec
}

/// The first item of `r` whose value differs from the model.
pub fn first_mismatch(r: &Replica, model: &Model) -> Option<String> {
    for (x, want) in model.0.iter().enumerate() {
        let item = ItemId(x as u32);
        match r.read(item) {
            Ok(got) if got.as_bytes() == want.as_bytes() => {}
            Ok(got) => {
                return Some(format!(
                    "item {x}: {} bytes, model predicts {} bytes{}",
                    got.len(),
                    want.len(),
                    if got.len() == want.len() { " (contents differ)" } else { "" }
                ))
            }
            Err(e) => return Some(format!("item {x}: read failed: {e}")),
        }
    }
    None
}

/// The output checks: every replica holds exactly the model's values,
/// all DBVVs are equal, no auxiliary state remains, and the replica
/// invariants hold.
pub fn check<F: Fabric>(fab: &F, model: &Model) -> Vec<String> {
    let mut failures = Vec::new();
    let reference = fab.with_replica(NodeId(0), |r| r.dbvv().clone());
    for node in NodeId::all(fab.nodes()) {
        fab.with_replica(node, |r| {
            if r.dbvv().compare(&reference) != VvOrd::Equal {
                failures.push(format!("node {node}: DBVV differs from node 0"));
            }
            if r.aux_item_count() != 0 {
                failures
                    .push(format!("node {node}: {} auxiliary items remain", r.aux_item_count()));
            }
            if let Err(e) = r.check_invariants_clean() {
                failures.push(format!("node {node}: invariant violated: {e}"));
            }
            if let Some(bad) = first_mismatch(r, model) {
                failures.push(format!("node {node}: {bad}"));
            }
        });
    }
    failures
}
