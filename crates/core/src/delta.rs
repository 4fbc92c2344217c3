//! Delta (update-record) propagation — the paper's other shipping mode.
//!
//! §2: "Update propagation can be done by either copying the entire data
//! item, or by obtaining and applying log records for missing updates. …
//! The ideas described in this paper are applicable for both these
//! methods. We chose whole data copying as the presentation context."
//!
//! This module implements the other choice, on top of the same DBVV/log
//! machinery. Because the source does not know the recipient's per-item
//! state up front, the exchange gains one round trip:
//!
//! 1. recipient → source: DBVV (identical to the whole-item mode; the
//!    constant-time "you are current" fast path is unchanged);
//! 2. source → recipient: the tail vector plus an **offer** — the ids and
//!    IVVs of the items the recipient misses, *without values*;
//! 3. recipient → source: the subset it actually wants, each with the
//!    recipient's current IVV;
//! 4. source → recipient: per item, either the contiguous **operation
//!    chain** from the recipient's IVV to the source's (when the source's
//!    [`OpCache`](crate::opcache::OpCache) still holds it) or the whole
//!    value (fallback — replicas without a cache interoperate seamlessly).
//!
//! Once data is applied, everything else (DBVV rule 3, tail appending,
//! conflict handling, intra-node propagation) is exactly the whole-item
//! protocol, so the §2.1 correctness criteria carry over unchanged.

use std::collections::BTreeSet;

use epidb_common::costs::wire;
use epidb_common::trace::{OrdTag, TraceStep};
use epidb_common::{ConflictEvent, ConflictSite, ItemId, NodeId, Result};
use epidb_log::LogRecord;
use epidb_vv::{DbVersionVector, VersionVector, VvOrd};

use crate::engine::{Engine, LocalTransport};
use crate::opcache::CachedOp;
use crate::policy::ConflictPolicy;
use crate::propagation::{AcceptOutcome, PullOutcome, TailSelection};
use crate::replica::Replica;
use crate::ShippedItem;

/// Message 2: what the recipient misses — tails plus per-item IVVs, no
/// values.
#[derive(Clone, Debug)]
pub struct DeltaOffer {
    /// The tail vector `D` (as in the whole-item mode).
    pub tails: Vec<Vec<LogRecord>>,
    /// `(item, source IVV)` for every item referenced by `D`.
    pub offers: Vec<(ItemId, VersionVector)>,
}

impl DeltaOffer {
    /// Control bytes of the offer message body (each offered IVV sizes
    /// itself).
    pub fn control_bytes(&self) -> u64 {
        self.tails.iter().map(Vec::len).sum::<usize>() as u64 * wire::LOG_RECORD
            + self.offers.iter().map(|(_, ivv)| wire::ITEM_ID + wire::vv(ivv.len())).sum::<u64>()
    }
}

/// Message 2 envelope.
#[derive(Clone, Debug)]
pub enum DeltaOfferResponse {
    /// Recipient's DBVV dominates or equals — nothing to do (O(n)).
    YouAreCurrent,
    /// Items on offer.
    Offer(DeltaOffer),
    /// The source's retention-pruned log no longer covers the
    /// recipient's gap; the recipient must degrade to reconciliation.
    NeedRecon,
}

impl DeltaOfferResponse {
    /// Control bytes of the response message body.
    pub fn control_bytes(&self) -> u64 {
        match self {
            DeltaOfferResponse::YouAreCurrent | DeltaOfferResponse::NeedRecon => 0,
            DeltaOfferResponse::Offer(o) => o.control_bytes(),
        }
    }
}

/// Message 3: the items the recipient wants, with its current IVVs.
#[derive(Clone, Debug, Default)]
pub struct DeltaRequest {
    /// `(item, recipient IVV)` pairs.
    pub wants: Vec<(ItemId, VersionVector)>,
}

impl DeltaRequest {
    /// Control bytes of the request message body.
    pub fn control_bytes(&self) -> u64 {
        self.wants.iter().map(|(_, ivv)| wire::ITEM_ID + wire::vv(ivv.len())).sum()
    }
}

/// Message 4: one item's data, as an operation chain or a whole value.
#[derive(Clone, Debug)]
pub enum DeltaItem {
    /// The contiguous operation chain from the recipient's IVV to
    /// `final_ivv`.
    Ops {
        /// The item.
        item: ItemId,
        /// The chain, oldest first; `ops[i]`'s post-state is
        /// `ops[i+1].pre_vv`, the last op's post-state is `final_ivv`.
        ops: Vec<CachedOp>,
        /// The source's current IVV for the item.
        final_ivv: VersionVector,
    },
    /// Whole-item fallback (cache miss at the source).
    Whole(ShippedItem),
}

impl DeltaItem {
    fn control_bytes(&self) -> u64 {
        match self {
            DeltaItem::Ops { ops, final_ivv, .. } => {
                let n = final_ivv.len();
                wire::ITEM_ID
                    + wire::vv(n)
                    + ops.len() as u64 * (wire::vv(n) + 9/* op tag + length */)
            }
            DeltaItem::Whole(s) => s.control_bytes(),
        }
    }

    fn payload_bytes(&self) -> u64 {
        match self {
            DeltaItem::Ops { ops, .. } => ops.iter().map(|c| c.op.payload_len() as u64).sum(),
            DeltaItem::Whole(s) => s.value.len() as u64,
        }
    }
}

/// Message 4 body.
#[derive(Clone, Debug, Default)]
pub struct DeltaPayload {
    /// One entry per requested item.
    pub items: Vec<DeltaItem>,
}

impl DeltaPayload {
    /// Control bytes of the data message body.
    pub fn control_bytes(&self) -> u64 {
        self.items.iter().map(DeltaItem::control_bytes).sum()
    }

    /// Payload bytes of the data message body.
    pub fn payload_bytes(&self) -> u64 {
        self.items.iter().map(DeltaItem::payload_bytes).sum()
    }

    /// How many items travel as operation chains.
    pub fn ops_items(&self) -> usize {
        self.items.iter().filter(|i| matches!(i, DeltaItem::Ops { .. })).count()
    }
}

/// The recipient's evaluation of an offer, carried into the apply step.
/// `refused` is a `BTreeSet` so anything derived from it (journaled
/// mutations, state fingerprints) sees a deterministic order.
#[derive(Clone, Debug, Default)]
pub struct OfferEvaluation {
    pub(crate) tails: Vec<Vec<LogRecord>>,
    pub(crate) refused: BTreeSet<ItemId>,
    pub(crate) conflicts: usize,
}

impl OfferEvaluation {
    /// Reconstruct an evaluation from its journaled parts (recovery
    /// replay). Conflicts are ephemeral and start at zero.
    pub(crate) fn from_parts(tails: Vec<Vec<LogRecord>>, refused: Vec<ItemId>) -> OfferEvaluation {
        OfferEvaluation { tails, refused: refused.into_iter().collect(), conflicts: 0 }
    }
}

impl Replica {
    /// Step 2 at the source: like
    /// [`prepare_propagation`](Replica::prepare_propagation) but offering
    /// item IVVs instead of shipping values.
    pub fn prepare_delta_offer(&mut self, recipient_dbvv: &DbVersionVector) -> DeltaOfferResponse {
        let (tails, s_items) = match self.select_tails(recipient_dbvv) {
            TailSelection::Current => return DeltaOfferResponse::YouAreCurrent,
            TailSelection::Uncovered => return DeltaOfferResponse::NeedRecon,
            TailSelection::Tails(tails, s_items) => (tails, s_items),
        };
        // Offers carry only (item, IVV) — values are never touched here, so
        // an offer frame costs one control-sized allocation however large
        // the items are.
        let mut offers = Vec::with_capacity(s_items.len());
        for &x in &s_items {
            let ivv = self.store.get(x).expect("logged item exists").ivv.clone();
            offers.push((x, ivv));
        }

        let shipped = offers.len() as u64;
        self.trace_record(TraceStep::SendPropagation, None, None, OrdTag::NoCompare, shipped);
        self.post_step_audit("send-propagation");
        DeltaOfferResponse::Offer(DeltaOffer { tails, offers })
    }

    /// Step 3 at the recipient: compare offered IVVs with local state,
    /// declare conflicts, and build the want-list.
    pub fn evaluate_delta_offer(
        &mut self,
        source: NodeId,
        offer: DeltaOffer,
    ) -> Result<(DeltaRequest, OfferEvaluation)> {
        let mut request = DeltaRequest::default();
        // One exact-sized allocation up front; the want-list can only be a
        // subset of the offers.
        request.wants.reserve_exact(offer.offers.len());
        let mut eval = OfferEvaluation { tails: offer.tails, ..OfferEvaluation::default() };
        for (x, remote_ivv) in offer.offers {
            self.check_item(x)?;
            let mut cmps = 0;
            let ord = {
                let local_ivv = &self.store.get(x)?.ivv;
                remote_ivv.compare_counted(local_ivv, &mut cmps)
            };
            self.costs.vv_entry_cmps += cmps;
            match ord {
                // The IVV is cloned only when the item actually goes on the
                // want-list (it travels in message 3).
                VvOrd::Dominates => request.wants.push((x, self.store.get(x)?.ivv.clone())),
                VvOrd::Equal => {
                    self.counters.equal_receipts += 1;
                    self.costs.redundant_deliveries += 1;
                }
                VvOrd::DominatedBy => {
                    self.counters.stale_receipts += 1;
                    self.costs.redundant_deliveries += 1;
                }
                VvOrd::Concurrent => {
                    // In delta mode the LWW policy still needs the remote
                    // value, so the item is requested like a dominating
                    // one; under Report it is refused and stripped.
                    //
                    // Each conflict is counted exactly once. Under Report
                    // the refused item never reaches `accept_propagation`,
                    // so this is the only place that can count it. Under
                    // ResolveLww the wanted item comes back as a Whole
                    // fallback (no op chain starts at a concurrent IVV) and
                    // `accept_propagation` re-detects, counts, and resolves
                    // the same pair — counting here too double-counted it.
                    match self.policy {
                        ConflictPolicy::Report => {
                            eval.conflicts += 1;
                            let offending = {
                                let local_ivv = &self.store.get(x)?.ivv;
                                remote_ivv.offending_pair(local_ivv)
                            };
                            self.report_conflict(ConflictEvent {
                                item: x,
                                detected_at: self.id,
                                peer: Some(source),
                                site: ConflictSite::Propagation,
                                offending,
                            });
                            eval.refused.insert(x);
                        }
                        ConflictPolicy::ResolveLww => {
                            request.wants.push((x, self.store.get(x)?.ivv.clone()))
                        }
                    }
                }
            }
        }
        let wanted = request.wants.len() as u64;
        self.trace_record(TraceStep::DeltaOffer, None, Some(source), OrdTag::NoCompare, wanted);
        Ok((request, eval))
    }

    /// Step 4 at the source: answer each want with the operation chain
    /// when the cache still holds it, else the whole value.
    ///
    /// The answer is a *prefix* of the wants when the replica's delta
    /// frame budget ([`set_delta_frame_budget`](Replica::set_delta_frame_budget))
    /// would be exceeded — at least one item is always served, and the
    /// initiator re-requests the unserved suffix in its next fetch frame,
    /// so a bounded frame size costs extra round trips, never progress.
    pub fn serve_delta_request(&mut self, request: &DeltaRequest) -> Result<DeltaPayload> {
        let mut payload = DeltaPayload::default();
        // Exact-sized up front (the frame budget can only shorten it).
        payload.items.reserve_exact(request.wants.len());
        let mut frame_bytes = 0u64;
        for (x, from_vv) in &request.wants {
            if !payload.items.is_empty() && frame_bytes >= self.delta_frame_budget {
                break;
            }
            self.check_item(*x)?;
            let value_len = self.store.get(*x)?.value.len();
            // Ship the chain only when it is actually cheaper than the
            // whole value (e.g. a chain of full overwrites is not).
            let chain = self
                .op_cache
                .chain_from_cloned(*x, from_vv)
                .filter(|ops| ops.iter().map(|c| c.op.payload_len()).sum::<usize>() <= value_len);
            if let Some(ops) = chain {
                self.costs.log_records_examined += ops.len() as u64;
                let final_ivv = self.store.get(*x)?.ivv.clone();
                payload.items.push(DeltaItem::Ops { item: *x, ops, final_ivv });
            } else {
                self.costs.items_scanned += 1;
                // Whole-value fallback ships a refcounted view, not a copy.
                let (ivv, value) = self.store.share(*x)?;
                payload.items.push(DeltaItem::Whole(ShippedItem { item: *x, ivv, value }));
            }
            let added = payload.items.last().expect("just pushed");
            frame_bytes += added.control_bytes() + added.payload_bytes();
        }
        Ok(payload)
    }

    /// Final step at the recipient: apply the data, then append the
    /// (surviving) tails and run intra-node propagation — identical
    /// semantics to `AcceptPropagation` from here on.
    pub fn apply_delta(
        &mut self,
        source: NodeId,
        payload: DeltaPayload,
        eval: OfferEvaluation,
    ) -> Result<AcceptOutcome> {
        self.journal_mutation(|| {
            let mut refused: Vec<ItemId> = eval.refused.iter().copied().collect();
            refused.sort();
            crate::journal::Mutation::Delta {
                from: source,
                payload: payload.clone(),
                tails: eval.tails.clone(),
                refused,
            }
        });
        let mut outcome = AcceptOutcome { conflicts: eval.conflicts, ..AcceptOutcome::default() };
        let mut refused = eval.refused;

        for item in payload.items {
            match item {
                DeltaItem::Whole(shipped) => {
                    let x = shipped.item;
                    // Sink suspended: this delta exchange already journaled
                    // one record; the inner whole-item accept must not add
                    // a second.
                    let sub = self.with_sink_suspended(|r| {
                        let n = r.n_nodes();
                        r.accept_propagation(
                            source,
                            crate::PropagationPayload {
                                tails: vec![Vec::new(); n],
                                items: vec![shipped],
                            },
                        )
                    })?;
                    outcome.conflicts += sub.conflicts;
                    outcome.replayed += sub.replayed;
                    outcome.aux_discarded.extend(sub.aux_discarded);
                    if sub.copied.contains(&x) {
                        outcome.copied.push(x);
                    } else if sub.conflicts > 0 {
                        refused.insert(x);
                    }
                }
                DeltaItem::Ops { item: x, ops, final_ivv } => {
                    self.check_item(x)?;
                    // Chain must start exactly at the local state and end
                    // strictly ahead of it; anything else means the states
                    // raced between messages 3 and 4 — fall back by
                    // refusing now, a later pull repairs it.
                    let chain_ok = {
                        let local_ivv = &self.store.get(x)?.ivv;
                        ops.first().map(|c| &c.pre_vv == local_ivv).unwrap_or(false)
                            && final_ivv.compare(local_ivv) == VvOrd::Dominates
                    };
                    if !chain_ok {
                        self.counters.stale_receipts += 1;
                        self.costs.redundant_deliveries += 1;
                        refused.insert(x);
                        continue;
                    }
                    let chain_len = ops.len() as u64;
                    let record_cache = self.op_cache.is_enabled();
                    let prev_ivv = {
                        let stored = self.store.get_mut(x)?;
                        for c in &ops {
                            c.op.apply(&mut stored.value);
                        }
                        std::mem::replace(&mut stored.ivv, final_ivv)
                    };
                    if record_cache {
                        // Extend the local chain so this replica can relay
                        // deltas onward: op i's post-state is op i+1's
                        // pre-state.
                        for c in ops {
                            self.op_cache.record(x, c.pre_vv, c.op);
                        }
                    }
                    {
                        let cur_ivv = &self.store.get(x)?.ivv;
                        self.dbvv.absorb_item_copy(&prev_ivv, cur_ivv)?;
                    }
                    self.costs.items_copied += 1;
                    outcome.copied.push(x);
                    self.trace_record(
                        TraceStep::DeltaOps,
                        Some(x),
                        Some(source),
                        OrdTag::Dominates,
                        chain_len,
                    );
                }
            }
        }

        // Append surviving tails, as AcceptPropagation does.
        for (k, tail) in eval.tails.iter().enumerate() {
            let k = NodeId::from_index(k);
            for rec in tail {
                if refused.contains(&rec.item) {
                    continue;
                }
                self.log.add_record(k, *rec);
                self.costs.log_records_examined += 1;
            }
            self.enforce_log_retention(k);
        }

        let intra = self.intra_node_propagation(&outcome.copied);
        outcome.replayed += intra.replayed;
        outcome.aux_discarded.extend(intra.discarded);
        outcome.conflicts += intra.conflicts;
        self.post_step_audit("apply-delta");
        Ok(outcome)
    }
}

/// One complete delta-mode pull: `recipient` from `source`, with full
/// message/byte accounting across the four messages.
///
/// A thin wrapper over [`Engine::pull_delta`] with the in-process
/// [`LocalTransport`] — the same dispatch path every other runtime uses.
pub fn pull_delta(recipient: &mut Replica, source: &mut Replica) -> Result<PullOutcome> {
    debug_assert_eq!(recipient.n_nodes(), source.n_nodes());
    Engine::pull_delta(recipient, &mut LocalTransport::new(source))
}
