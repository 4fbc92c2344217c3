//! The replica state and the user-update path (§4, §5.3).

use std::collections::BTreeMap;

use epidb_common::trace::{OrdTag, TraceRing, TraceStep};
use epidb_common::{ConflictEvent, Costs, Error, ItemId, NodeId, Result};
use epidb_log::{AuxLog, LogRecord, LogVector};
use epidb_store::{ItemStore, ItemValue, UpdateOp};
use epidb_vv::{DbVersionVector, VersionVector};

use crate::opcache::OpCache;
use crate::policy::ConflictPolicy;

/// An auxiliary (out-of-bound) copy of one data item: its own value and its
/// own *auxiliary IVV* (§4.3), maintained in parallel with the regular copy.
#[derive(Clone, Debug)]
pub struct AuxItem {
    /// The auxiliary value — what the user sees and updates while the item
    /// is out-of-bound.
    pub value: ItemValue,
    /// The auxiliary IVV.
    pub ivv: VersionVector,
}

/// Counters for protocol outcomes that are expected to be rare; the tests
/// assert on them.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// A shipped item arrived whose IVV equaled the local one (possible
    /// only in post-conflict states; adopted as a no-op).
    pub equal_receipts: u64,
    /// A shipped item arrived strictly older than the local copy (possible
    /// only after an out-of-band conflict resolution; ignored). The paper
    /// notes this "cannot happen" in conflict-free operation (§5.1), and
    /// the test-suite asserts it stays zero there.
    pub stale_receipts: u64,
    /// Conflicts auto-resolved by the last-writer-wins policy.
    pub lww_resolutions: u64,
}

/// One replica of the database at a single server: the paper's complete
/// per-node state (§4) — regular item copies with IVVs, the DBVV, the log
/// vector, and the auxiliary structures for out-of-bound items.
#[derive(Clone, Debug)]
pub struct Replica {
    pub(crate) id: NodeId,
    pub(crate) store: ItemStore,
    pub(crate) dbvv: DbVersionVector,
    pub(crate) log: LogVector,
    /// Auxiliary copies, keyed by item; absent key = no out-of-bound copy.
    /// A `BTreeMap` so every state walk (snapshots, fingerprints, audits)
    /// sees a deterministic item order.
    pub(crate) aux_items: BTreeMap<ItemId, AuxItem>,
    pub(crate) aux_log: AuxLog,
    /// The `IsSelected` flags used to compute `S` in O(m) (§6). Kept
    /// all-false between propagation calls.
    pub(crate) is_selected: Vec<bool>,
    pub(crate) policy: ConflictPolicy,
    pub(crate) costs: Costs,
    pub(crate) conflicts: Vec<ConflictEvent>,
    pub(crate) counters: ProtocolCounters,
    /// Operation history for delta propagation (§2's update-record
    /// shipping mode). Disabled (empty, zero-cost) unless
    /// [`enable_delta`](Self::enable_delta) is called.
    pub(crate) op_cache: OpCache,
    /// Paranoid mode: when set, every protocol step ends with a full
    /// invariant audit ([`crate::paranoid::ReplicaAuditor`]), panicking
    /// with the protocol trace on any violation. Off (a single branch per
    /// step) by default.
    pub(crate) paranoid: bool,
    /// Structured protocol trace ring (disabled, zero-cost, by default;
    /// enabled together with paranoid mode or via
    /// [`enable_tracing`](Self::enable_tracing)).
    pub(crate) trace: TraceRing,
    /// Number of post-step audits run in paranoid mode.
    pub(crate) audits_run: u64,
    /// Set when this replica was recovered from a snapshot. Conflict
    /// reports are ephemeral (re-detected by the next propagation), so a
    /// restored replica may legitimately hold conflict-frozen auxiliary
    /// state with a zero conflict counter; the paranoid auditor uses this
    /// flag to avoid a false aux-dominance alarm in that window.
    pub(crate) restored: bool,
    /// Write-ahead journal sink (see [`crate::journal`]). `None` (a single
    /// branch per mutation) unless a durability layer attached one.
    pub(crate) sink: Option<crate::journal::SinkHandle>,
    /// Seeded-mutant switch for the model checker's self-test: when set,
    /// a conflicting (concurrent) copy received under
    /// [`ConflictPolicy::Report`] is **adopted** instead of refused —
    /// without the DBVV absorb — deliberately breaking DBVV maintenance
    /// rule 3. Never set outside `debug_break_conflict_adopt`.
    pub(crate) debug_adopt_conflicts: bool,
    /// Responder-side byte budget for one delta data frame: serving a
    /// `DeltaFetch` stops adding items once the accumulated frame reaches
    /// this size (always serving at least one item, for progress). The
    /// initiator re-requests the unserved suffix. Unbounded by default —
    /// a runtime that frames messages for a real wire sets this below the
    /// transport's frame limit via
    /// [`set_delta_frame_budget`](Self::set_delta_frame_budget).
    pub(crate) delta_frame_budget: u64,
    /// Per-origin log retention cap: each log component `L_ij` keeps at
    /// most this many records, evicting the oldest. `0` (the default) is
    /// unbounded — the paper's behaviour, where §4.2's one-record-per-item
    /// bound is the only limit. Bounding it trades log memory for tail
    /// coverage: once a record is evicted, tails below the coverage floor
    /// can no longer be served and pulls from far-behind peers degrade to
    /// digest-tree reconciliation ([`crate::recon`]).
    pub(crate) log_retention: usize,
    /// Per-origin coverage floor: `floor[k]` is the largest `m` whose
    /// record was evicted from `L_ik` (or adopted from a peer's floor
    /// during reconciliation). A tail `D_k` computed from a threshold
    /// `t < floor[k]` cannot be proven complete, so propagation refuses
    /// it with `NeedRecon` instead of shipping a lossy tail.
    pub(crate) floor: Vec<u64>,
}

impl Replica {
    /// A fresh replica for server `id` in a system of `n_nodes` servers
    /// replicating a database of `n_items` items. Conflicts are reported
    /// (the paper's behaviour: alert the administrator).
    pub fn new(id: NodeId, n_nodes: usize, n_items: usize) -> Replica {
        Replica::with_policy(id, n_nodes, n_items, ConflictPolicy::Report)
    }

    /// As [`new`](Self::new), with an explicit conflict policy.
    pub fn with_policy(
        id: NodeId,
        n_nodes: usize,
        n_items: usize,
        policy: ConflictPolicy,
    ) -> Replica {
        assert!(id.index() < n_nodes, "replica id out of range");
        Replica {
            id,
            store: ItemStore::new(n_nodes, n_items),
            dbvv: DbVersionVector::zero(n_nodes),
            log: LogVector::new(n_nodes, n_items),
            aux_items: BTreeMap::new(),
            aux_log: AuxLog::new(),
            is_selected: vec![false; n_items],
            policy,
            costs: Costs::ZERO,
            conflicts: Vec::new(),
            counters: ProtocolCounters::default(),
            op_cache: OpCache::disabled(),
            paranoid: false,
            trace: TraceRing::disabled(),
            audits_run: 0,
            restored: false,
            sink: None,
            debug_adopt_conflicts: false,
            delta_frame_budget: u64::MAX,
            log_retention: 0,
            floor: vec![0; n_nodes],
        }
    }

    /// Enable delta (update-record) propagation service at this replica:
    /// retain up to `budget_bytes` of recent operation payload so pulls via
    /// [`pull_delta`](crate::delta::pull_delta) can ship operation chains
    /// instead of whole values. Purely an optimization — replicas with and
    /// without the cache interoperate (cache misses fall back to
    /// whole-item shipping).
    pub fn enable_delta(&mut self, budget_bytes: usize) {
        self.op_cache = OpCache::new(budget_bytes);
    }

    /// The delta-mode operation cache (diagnostics).
    pub fn op_cache(&self) -> &OpCache {
        &self.op_cache
    }

    /// Bound one delta data frame to roughly `bytes` of encoded content
    /// (see the field docs on `delta_frame_budget`). A budget of
    /// `u64::MAX` (the default) restores unbounded frames.
    pub fn set_delta_frame_budget(&mut self, bytes: u64) {
        self.delta_frame_budget = bytes;
    }

    /// Bound each log component to at most `keep` records, evicting the
    /// oldest immediately and after every future append. `0` restores the
    /// unbounded default. Eviction raises the per-origin coverage floor
    /// (see [`coverage_floor`](Self::coverage_floor)): tails below the
    /// floor are refused and the puller falls back to digest-tree
    /// reconciliation. Like [`enable_delta`](Self::enable_delta) this is
    /// node configuration, not journaled state — a recovering runtime
    /// re-applies it (the floor itself is durable, in the snapshot).
    pub fn set_log_retention(&mut self, keep: usize) {
        self.log_retention = keep;
        if keep > 0 {
            for j in NodeId::all(self.n_nodes()) {
                self.enforce_log_retention(j);
            }
        }
    }

    /// The log retention cap (`0` = unbounded).
    pub fn log_retention(&self) -> usize {
        self.log_retention
    }

    /// The per-origin coverage floor: `floor[k]` is the largest origin-`k`
    /// sequence number whose log record this replica no longer retains.
    /// All-zero while retention is unbounded and no peer floor was adopted.
    pub fn coverage_floor(&self) -> &[u64] {
        &self.floor
    }

    /// Internal: prune component `j` down to the retention cap, raising
    /// the coverage floor past everything evicted. A no-op while retention
    /// is unbounded.
    #[inline]
    pub(crate) fn enforce_log_retention(&mut self, j: NodeId) {
        if self.log_retention == 0 {
            return;
        }
        if let Some(evicted) = self.log.prune_component(j, self.log_retention) {
            self.raise_floor(j, evicted);
        }
    }

    /// Internal: raise the coverage floor for origin `k` to at least `m`.
    #[inline]
    pub(crate) fn raise_floor(&mut self, k: NodeId, m: u64) {
        let e = &mut self.floor[k.index()];
        if m > *e {
            *e = m;
        }
    }

    /// This replica's server id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Re-identify this replica as `id` — the shard-handoff install step.
    ///
    /// A shard snapshot embeds the *source* node's id; the receiving node
    /// adopts the shipped state as its own replica, which only changes who
    /// answers for it, not any versioned state (DBVV, IVVs, and log
    /// records all name *origins* of updates, which are unchanged).
    ///
    /// # Panics
    /// Panics if `id` is outside the replica's fixed server set.
    pub fn rehome(&mut self, id: NodeId) {
        assert!(id.index() < self.store.n_nodes(), "replica id out of range");
        self.id = id;
    }

    /// Number of servers in the system.
    pub fn n_nodes(&self) -> usize {
        self.store.n_nodes()
    }

    /// Number of items in the database.
    pub fn n_items(&self) -> usize {
        self.store.n_items()
    }

    /// The replica's database version vector.
    pub fn dbvv(&self) -> &DbVersionVector {
        &self.dbvv
    }

    /// Apply a user update to item `x` (§5.3).
    ///
    /// If an auxiliary copy exists the update goes to it: the operation is
    /// applied to the auxiliary value, a re-doable record carrying the
    /// *pre-update* auxiliary IVV is appended to the auxiliary log, and the
    /// auxiliary IVV's own component is bumped. The DBVV and the log vector
    /// are **not** touched — out-of-bound state never participates in
    /// scheduled propagation directly.
    ///
    /// Otherwise the update goes to the regular copy: apply, bump
    /// `v_ii(x)`, bump `V_ii`, and append the log record `(x, V_ii)` to
    /// `L_ii`.
    pub fn update(&mut self, x: ItemId, op: UpdateOp) -> Result<()> {
        self.journal_mutation(|| crate::journal::Mutation::Update { item: x, op: op.clone() });
        if let Some(aux) = self.aux_items.get_mut(&x) {
            let pre_vv = aux.ivv.clone();
            op.apply(&mut aux.value);
            self.aux_log.push(x, pre_vv, op);
            aux.ivv.bump(self.id);
            let aux_len = self.aux_log.len() as u64;
            self.trace_record(TraceStep::AuxUpdate, Some(x), None, OrdTag::NoCompare, aux_len);
            self.post_step_audit("aux-update");
            return Ok(());
        }
        let pre_vv = if self.op_cache.is_enabled() {
            Some(self.store.get(x)?.ivv.clone())
        } else {
            self.check_item(x)?;
            None
        };
        self.store.apply_local_update(self.id, x, &op)?;
        let m = self.dbvv.record_local_update(self.id);
        self.log.add_record(self.id, LogRecord { item: x, m });
        self.enforce_log_retention(self.id);
        if let Some(pre_vv) = pre_vv {
            self.op_cache.record(x, pre_vv, op);
        }
        self.trace_record(TraceStep::LocalUpdate, Some(x), None, OrdTag::NoCompare, m);
        self.post_step_audit("local-update");
        Ok(())
    }

    /// The value a user reads at this replica: the auxiliary copy when one
    /// exists (it is never older than the regular copy), else the regular
    /// copy.
    pub fn read(&self, x: ItemId) -> Result<&ItemValue> {
        if let Some(aux) = self.aux_items.get(&x) {
            return Ok(&aux.value);
        }
        Ok(&self.store.get(x)?.value)
    }

    /// The regular copy's value (what scheduled propagation ships).
    pub fn read_regular(&self, x: ItemId) -> Result<&ItemValue> {
        Ok(&self.store.get(x)?.value)
    }

    /// The regular copy's IVV.
    pub fn item_ivv(&self, x: ItemId) -> Result<&VersionVector> {
        Ok(&self.store.get(x)?.ivv)
    }

    /// The auxiliary copy of `x`, if the item is currently out-of-bound
    /// here.
    pub fn aux_item(&self, x: ItemId) -> Option<&AuxItem> {
        self.aux_items.get(&x)
    }

    /// Number of items currently held out-of-bound.
    pub fn aux_item_count(&self) -> usize {
        self.aux_items.len()
    }

    /// The auxiliary log (diagnostics; its contents never travel).
    pub fn aux_log(&self) -> &AuxLog {
        &self.aux_log
    }

    /// The log vector (diagnostics and experiments).
    pub fn log(&self) -> &LogVector {
        &self.log
    }

    /// The regular item copies and their reconciliation digest tree
    /// (diagnostics and audits).
    pub fn store(&self) -> &ItemStore {
        &self.store
    }

    /// Cumulative protocol costs charged at this node.
    pub fn costs(&self) -> Costs {
        self.costs
    }

    /// Charge one outbound message to this node's cost counters. The
    /// in-process orchestration helpers (`pull`, `oob_copy`) do this
    /// automatically; custom transports (like `epidb-net`) call it at
    /// their send points.
    pub fn charge_message(&mut self, control_bytes: u64, payload_bytes: u64) {
        self.costs.charge_message(control_bytes, payload_bytes);
    }

    /// Charge one retried round attempt. Called by the engine's retry
    /// loop; custom recovery layers may call it too.
    pub fn note_retry(&mut self) {
        self.costs.retries += 1;
    }

    /// Charge one frame dropped by the integrity check — at whichever
    /// layer detected it (checked codec, framed transport, or the engine
    /// observing a peer's in-band report).
    pub fn note_corrupt_frame(&mut self) {
        self.costs.corrupt_frames_dropped += 1;
    }

    /// Rare-outcome counters.
    pub fn counters(&self) -> ProtocolCounters {
        self.counters
    }

    /// Conflicts declared at this node so far (the paper's "alert the
    /// system administrator"); `drain` to acknowledge them.
    pub fn conflicts(&self) -> &[ConflictEvent] {
        &self.conflicts
    }

    /// Remove and return all pending conflict reports.
    pub fn drain_conflicts(&mut self) -> Vec<ConflictEvent> {
        std::mem::take(&mut self.conflicts)
    }

    /// The conflict policy in force.
    pub fn policy(&self) -> ConflictPolicy {
        self.policy
    }

    /// Turn paranoid mode on or off. While on, every protocol step ends
    /// with a full invariant audit (see [`crate::paranoid`]); a violation
    /// panics with the audit report and the protocol trace, whose last
    /// event names the offending step. Enabling paranoid mode also enables
    /// tracing. Off, both cost a single branch per step.
    pub fn set_paranoid(&mut self, on: bool) {
        self.paranoid = on;
        if on {
            self.trace.enable();
        }
    }

    /// Whether paranoid mode is on.
    pub fn is_paranoid(&self) -> bool {
        self.paranoid
    }

    /// Enable protocol tracing alone (without per-step audits), retaining
    /// up to `capacity` events.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = TraceRing::with_capacity(capacity);
    }

    /// The protocol trace ring (empty unless tracing or paranoid mode was
    /// enabled).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Number of paranoid post-step audits this replica has run.
    pub fn audits_run(&self) -> u64 {
        self.audits_run
    }

    /// True if this replica was recovered from a snapshot (conflict
    /// reports are ephemeral, so some invariants are vacuous post-restore;
    /// see [`crate::paranoid::check_aux_dominance`]).
    pub fn is_restored(&self) -> bool {
        self.restored
    }

    /// Audit this replica's invariants right now, regardless of the
    /// paranoid flag, and return the findings without panicking.
    pub fn audit(&self) -> crate::paranoid::ParanoidReport {
        crate::paranoid::ReplicaAuditor::audit(self)
    }

    /// Test hook: corrupt the DBVV by counting a local update that never
    /// happened (breaks DBVV = Σ IVV). Public so integration tests can
    /// prove the auditor catches real corruption; never call it otherwise.
    #[doc(hidden)]
    pub fn debug_corrupt_dbvv(&mut self) {
        let _ = self.dbvv.record_local_update(self.id);
    }

    /// Test hook: seed the protocol **mutant** the model checker's
    /// self-test must catch. With the switch on, a concurrent copy
    /// received under [`ConflictPolicy::Report`] is adopted instead of
    /// refused, *without* the DBVV absorb — a plausible-looking conflict
    /// rule that silently breaks DBVV maintenance rule 3 (§4.1). The bug
    /// only fires on a genuine conflicting interleaving (two concurrent
    /// updates plus a propagation that delivers one onto the other), so a
    /// checker must explore several events deep to expose it. Never call
    /// it outside checker self-tests.
    #[doc(hidden)]
    pub fn debug_break_conflict_adopt(&mut self, on: bool) {
        self.debug_adopt_conflicts = on;
    }

    /// Internal: record one trace event (single branch when disabled).
    #[inline]
    pub(crate) fn trace_record(
        &mut self,
        step: TraceStep,
        item: Option<ItemId>,
        peer: Option<NodeId>,
        ord: OrdTag,
        detail: u64,
    ) {
        if self.trace.is_enabled() {
            let dbvv_total = self.dbvv.total();
            self.trace.record(self.id, step, item, peer, ord, detail, dbvv_total);
        }
    }

    /// Internal: the paranoid post-step hook. A single branch when
    /// paranoid mode is off; otherwise audits everything and panics with
    /// the trace dump on the first violation, naming the step that
    /// produced it.
    #[inline]
    pub(crate) fn post_step_audit(&mut self, step: &'static str) {
        if !self.paranoid {
            return;
        }
        self.audits_run += 1;
        let report = crate::paranoid::ReplicaAuditor::audit(self);
        if !report.is_clean() {
            panic!(
                "paranoid: invariant violation at {} after step `{step}`\n{}\n{}",
                self.id,
                report.summary(),
                self.trace.dump()
            );
        }
    }

    /// Validate the replica's global invariants. Cheap enough for tests,
    /// not meant for the hot path:
    ///
    /// 1. The DBVV equals the component-wise sum of all regular IVVs (the
    ///    defining property of maintenance rules 1–3, §4.1).
    /// 2. The log vector's structural invariants hold and no component
    ///    holds a record newer than the corresponding DBVV entry.
    /// 3. The `IsSelected` flags are all clear between propagations.
    /// 4. The auxiliary log's structural invariants hold, and every item
    ///    with auxiliary log records has an auxiliary copy.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let sum = self.store.ivv_sum();
        if self.dbvv.as_vector() != &sum {
            return Err(format!("DBVV {} != sum of IVVs {} at {}", self.dbvv, sum, self.id));
        }
        self.log.check_invariants()?;
        if self.floor.len() != self.n_nodes() {
            return Err(format!(
                "coverage floor has {} entries for {} servers",
                self.floor.len(),
                self.n_nodes()
            ));
        }
        if self.log_retention > 0 {
            for j in NodeId::all(self.n_nodes()) {
                if self.log.component_len(j) > self.log_retention {
                    return Err(format!(
                        "log component {} holds {} records over the retention cap {}",
                        j,
                        self.log.component_len(j),
                        self.log_retention
                    ));
                }
            }
        }
        if self.is_selected.iter().any(|&f| f) {
            return Err("IsSelected flag left set between propagations".into());
        }
        self.aux_log.check_invariants()?;
        for rec in self.aux_log.iter() {
            if !self.aux_items.contains_key(&rec.item) {
                return Err(format!(
                    "auxiliary log holds records for {} without an auxiliary copy",
                    rec.item
                ));
            }
        }
        Ok(())
    }

    /// The stricter invariant that holds only in *cluster-wide*
    /// conflict-free operation, on top of
    /// [`check_invariants`](Self::check_invariants): every logged record
    /// is covered by the
    /// DBVV (`m <= V_ij`). A refused conflicting item anywhere in the
    /// cluster legitimately breaks this — the DBVV lags records of items
    /// adopted in the same round, and the lag spreads through forwarded
    /// tails — so callers should apply it only when no conflict has been
    /// declared at any replica.
    pub fn check_invariants_clean(&self) -> std::result::Result<(), String> {
        self.check_invariants()?;
        for j in NodeId::all(self.n_nodes()) {
            if self.log.max_m(j) > self.dbvv.get(j) {
                return Err(format!(
                    "log component {} has record m={} beyond DBVV entry {}",
                    j,
                    self.log.max_m(j),
                    self.dbvv.get(j)
                ));
            }
            if self.floor[j.index()] > self.dbvv.get(j) {
                return Err(format!(
                    "coverage floor for {} is {} beyond DBVV entry {}",
                    j,
                    self.floor[j.index()],
                    self.dbvv.get(j)
                ));
            }
        }
        Ok(())
    }

    /// Internal: record a conflict event (and charge the counter).
    pub(crate) fn report_conflict(&mut self, ev: ConflictEvent) {
        self.costs.conflicts_detected += 1;
        self.conflicts.push(ev);
    }

    /// Internal: bounds-check an item id.
    pub(crate) fn check_item(&self, x: ItemId) -> Result<()> {
        if x.index() >= self.n_items() {
            return Err(Error::UnknownItem(x));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica() -> Replica {
        Replica::new(NodeId(0), 3, 4)
    }

    #[test]
    fn fresh_replica_passes_invariants() {
        let r = replica();
        r.check_invariants().unwrap();
        assert_eq!(r.dbvv().total(), 0);
        assert_eq!(r.aux_item_count(), 0);
    }

    #[test]
    fn regular_update_bumps_ivv_dbvv_and_logs() {
        let mut r = replica();
        r.update(ItemId(2), UpdateOp::set(&b"v1"[..])).unwrap();
        r.update(ItemId(2), UpdateOp::append(&b"+"[..])).unwrap();
        r.update(ItemId(0), UpdateOp::set(&b"w"[..])).unwrap();

        assert_eq!(r.read(ItemId(2)).unwrap().as_bytes(), b"v1+");
        assert_eq!(r.item_ivv(ItemId(2)).unwrap().get(NodeId(0)), 2);
        assert_eq!(r.dbvv().get(NodeId(0)), 3);
        // Log retains only the latest record per item.
        assert_eq!(r.log().component_len(NodeId(0)), 2);
        assert_eq!(
            r.log().retained(NodeId(0), ItemId(2)).unwrap(),
            LogRecord { item: ItemId(2), m: 2 }
        );
        assert_eq!(
            r.log().retained(NodeId(0), ItemId(0)).unwrap(),
            LogRecord { item: ItemId(0), m: 3 }
        );
        r.check_invariants().unwrap();
    }

    #[test]
    fn update_to_unknown_item_errors() {
        let mut r = replica();
        assert!(r.update(ItemId(99), UpdateOp::set(&b"x"[..])).is_err());
    }

    #[test]
    fn aux_update_goes_to_aux_structures_only() {
        let mut r = replica();
        // Install an auxiliary copy by hand (out-of-bound machinery is
        // exercised in the oob module; here we test the update path).
        r.aux_items.insert(
            ItemId(1),
            AuxItem {
                value: ItemValue::from_slice(b"remote"),
                ivv: VersionVector::from_entries(vec![0, 2, 0]),
            },
        );
        r.update(ItemId(1), UpdateOp::append(&b"!"[..])).unwrap();

        // User sees the auxiliary value.
        assert_eq!(r.read(ItemId(1)).unwrap().as_bytes(), b"remote!");
        // Regular copy untouched; DBVV and log vector untouched.
        assert_eq!(r.read_regular(ItemId(1)).unwrap().as_bytes(), b"");
        assert_eq!(r.dbvv().total(), 0);
        assert_eq!(r.log().total_len(), 0);
        // Aux IVV bumped; aux log holds the pre-update vv and the op.
        let aux = r.aux_item(ItemId(1)).unwrap();
        assert_eq!(aux.ivv.get(NodeId(0)), 1);
        assert_eq!(aux.ivv.get(NodeId(1)), 2);
        let rec = r.aux_log().earliest(ItemId(1)).unwrap();
        assert_eq!(rec.vv, VersionVector::from_entries(vec![0, 2, 0]));
        assert_eq!(rec.op, UpdateOp::append(&b"!"[..]));
        r.check_invariants().unwrap();
    }

    #[test]
    fn read_prefers_aux() {
        let mut r = replica();
        r.update(ItemId(0), UpdateOp::set(&b"regular"[..])).unwrap();
        r.aux_items.insert(
            ItemId(0),
            AuxItem {
                value: ItemValue::from_slice(b"aux"),
                ivv: VersionVector::from_entries(vec![1, 1, 0]),
            },
        );
        assert_eq!(r.read(ItemId(0)).unwrap().as_bytes(), b"aux");
        assert_eq!(r.read_regular(ItemId(0)).unwrap().as_bytes(), b"regular");
    }

    #[test]
    fn drain_conflicts_empties() {
        let mut r = replica();
        r.report_conflict(ConflictEvent {
            item: ItemId(0),
            detected_at: NodeId(0),
            peer: None,
            site: epidb_common::ConflictSite::IntraNode,
            offending: None,
        });
        assert_eq!(r.conflicts().len(), 1);
        assert_eq!(r.costs().conflicts_detected, 1);
        assert_eq!(r.drain_conflicts().len(), 1);
        assert!(r.conflicts().is_empty());
    }

    #[test]
    #[should_panic(expected = "replica id out of range")]
    fn id_must_be_within_n_nodes() {
        let _ = Replica::new(NodeId(3), 3, 1);
    }
}
