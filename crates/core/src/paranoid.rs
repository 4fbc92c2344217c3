//! Paranoid mode: an always-available replica-level invariant auditor.
//!
//! The protocol's correctness rests on a small set of state invariants
//! (DESIGN §4, §7). Each is implemented as a **pure, side-effect-free
//! predicate** `check_*(&Replica) -> Result<(), InvariantViolation>` that
//! re-derives the invariant from first principles against a replica's live
//! state. Two consumers share them:
//!
//! * **paranoid mode** ([`Replica::set_paranoid`]) runs all seven after
//!   every protocol step via [`ReplicaAuditor::audit`] and panics with the
//!   collected report plus the structured protocol trace
//!   ([`epidb_common::TraceRing`]), whose last event names the offending
//!   step;
//! * the **model checker** (`epidb-mc`) evaluates them at every explored
//!   state and, on a violation, minimizes the event schedule that reached
//!   it — which is why the predicates must not panic or mutate.
//!
//! The invariants:
//!
//! 1. **DBVV = Σ IVV** — the database version vector equals the
//!    component-wise sum of all regular item version vectors (the defining
//!    property of maintenance rules 1–3, §4.1).
//! 2. **Log structure** — the log vector's slot/pointer invariants hold
//!    (each origin's list is intact, `P(x)` pointers agree, §4.2).
//! 3. **m-monotonicity** — within each origin's log component, records are
//!    strictly increasing in `m` and retain at most one record per item.
//! 4. **Selection flags** — the `IsSelected` scratch flags are all clear
//!    between propagations (§6's O(m) set computation cleans up).
//! 5. **Aux structure** — the auxiliary log's invariants hold and every
//!    auxiliary log record belongs to an item with an auxiliary copy
//!    (§4.3–4.4).
//! 6. **Aux dominance** — while this replica has never declared a
//!    conflict, no auxiliary copy is *older* than the regular copy
//!    (out-of-bound copies are only ever adopted when strictly newer, and
//!    intra-node propagation discards them once the regular copy catches
//!    up — §4.4, §5.2). A declared conflict legitimately freezes auxiliary
//!    state, so the check is skipped from then on — and likewise after
//!    crash recovery, because conflict reports are ephemeral: a replica
//!    restored from a snapshot taken mid-conflict holds frozen auxiliary
//!    state with a reset conflict counter.

use std::fmt;

use epidb_vv::VvOrd;

use epidb_common::{InvariantViolation, NodeId};

use crate::replica::Replica;

/// Which invariant a violation belongs to (stable names for counters and
/// assertions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuditCheck {
    /// DBVV equals the component-wise sum of regular IVVs.
    DbvvSum,
    /// Log-vector structural invariants.
    LogStructure,
    /// Per-origin strict `m` monotonicity and latest-per-item retention.
    MMonotonicity,
    /// `IsSelected` flags clear between propagations.
    SelectionFlags,
    /// Auxiliary log structure and aux-log/aux-copy agreement.
    AuxStructure,
    /// Auxiliary copies never older than regular copies (conflict-free).
    AuxDominance,
    /// The maintained digest tree agrees with a from-scratch fold.
    DigestTree,
}

impl AuditCheck {
    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            AuditCheck::DbvvSum => "dbvv-sum",
            AuditCheck::LogStructure => "log-structure",
            AuditCheck::MMonotonicity => "m-monotonicity",
            AuditCheck::SelectionFlags => "selection-flags",
            AuditCheck::AuxStructure => "aux-structure",
            AuditCheck::AuxDominance => "aux-dominance",
            AuditCheck::DigestTree => "digest-tree",
        }
    }

    /// All checks, in the order the auditor runs them.
    pub const ALL: [AuditCheck; 7] = [
        AuditCheck::DbvvSum,
        AuditCheck::LogStructure,
        AuditCheck::MMonotonicity,
        AuditCheck::SelectionFlags,
        AuditCheck::AuxStructure,
        AuditCheck::AuxDominance,
        AuditCheck::DigestTree,
    ];

    /// Run this one check against `replica`, returning the first violation
    /// found (if any).
    pub fn run(self, replica: &Replica) -> Result<(), InvariantViolation> {
        match self {
            AuditCheck::DbvvSum => check_dbvv_sum(replica),
            AuditCheck::LogStructure => check_log_structure(replica),
            AuditCheck::MMonotonicity => check_m_monotonicity(replica),
            AuditCheck::SelectionFlags => check_selection_flags(replica),
            AuditCheck::AuxStructure => check_aux_structure(replica),
            AuditCheck::AuxDominance => check_aux_dominance(replica),
            AuditCheck::DigestTree => check_digest_tree(replica),
        }
    }
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn violation(replica: &Replica, check: AuditCheck, detail: String) -> InvariantViolation {
    InvariantViolation { node: replica.id, check: check.name(), detail }
}

/// Invariant 1: the DBVV equals the component-wise sum of all regular item
/// IVVs (§4.1, maintenance rules 1–3).
pub fn check_dbvv_sum(replica: &Replica) -> Result<(), InvariantViolation> {
    let sum = replica.store.ivv_sum();
    if replica.dbvv.as_vector() != &sum {
        return Err(violation(
            replica,
            AuditCheck::DbvvSum,
            format!("{} != sum of regular IVVs {}", replica.dbvv, sum),
        ));
    }
    Ok(())
}

/// Invariant 2: the log vector's slot/pointer structure is intact (§4.2).
pub fn check_log_structure(replica: &Replica) -> Result<(), InvariantViolation> {
    replica.log.check_invariants().map_err(|e| violation(replica, AuditCheck::LogStructure, e))
}

/// Invariant 3: within each origin's log component, records are strictly
/// increasing in `m` and retain at most one record per item.
pub fn check_m_monotonicity(replica: &Replica) -> Result<(), InvariantViolation> {
    for j in NodeId::all(replica.n_nodes()) {
        let mut prev_m: Option<u64> = None;
        let mut seen = std::collections::HashSet::new();
        for rec in replica.log.iter_component(j) {
            if let Some(p) = prev_m {
                if rec.m <= p {
                    return Err(violation(
                        replica,
                        AuditCheck::MMonotonicity,
                        format!(
                            "log component {j}: record ({}, m={}) follows m={p}",
                            rec.item, rec.m
                        ),
                    ));
                }
            }
            prev_m = Some(rec.m);
            if !seen.insert(rec.item) {
                return Err(violation(
                    replica,
                    AuditCheck::MMonotonicity,
                    format!("log component {j}: item {} retained more than once", rec.item),
                ));
            }
        }
    }
    Ok(())
}

/// Invariant 4: the `IsSelected` scratch flags are all clear between
/// propagations (§6).
pub fn check_selection_flags(replica: &Replica) -> Result<(), InvariantViolation> {
    if let Some(idx) = replica.is_selected.iter().position(|&f| f) {
        return Err(violation(
            replica,
            AuditCheck::SelectionFlags,
            format!("IsSelected flag left set for item index {idx}"),
        ));
    }
    Ok(())
}

/// Invariant 5: the auxiliary log's invariants hold and every auxiliary log
/// record belongs to an item with an auxiliary copy (§4.3–4.4).
pub fn check_aux_structure(replica: &Replica) -> Result<(), InvariantViolation> {
    replica
        .aux_log
        .check_invariants()
        .map_err(|e| violation(replica, AuditCheck::AuxStructure, e))?;
    for rec in replica.aux_log.iter() {
        if !replica.aux_items.contains_key(&rec.item) {
            return Err(violation(
                replica,
                AuditCheck::AuxStructure,
                format!("auxiliary log holds records for {} without an auxiliary copy", rec.item),
            ));
        }
    }
    Ok(())
}

/// Invariant 6: while this replica has never declared a conflict, no
/// auxiliary copy is older than the regular copy (§4.4, §5.2). Vacuously
/// true once a conflict was declared or after crash recovery — a declared
/// conflict legitimately freezes auxiliary state, and conflict reports are
/// ephemeral across restarts.
pub fn check_aux_dominance(replica: &Replica) -> Result<(), InvariantViolation> {
    if replica.costs.conflicts_detected != 0 || replica.restored {
        return Ok(());
    }
    for (&x, aux) in &replica.aux_items {
        let reg = &replica.store.get(x).expect("aux item exists in store").ivv;
        if reg.compare(&aux.ivv) == VvOrd::Dominates {
            return Err(violation(
                replica,
                AuditCheck::AuxDominance,
                format!(
                    "auxiliary copy of {x} (IVV {}) is older than the regular copy \
                     (IVV {}) with no conflict declared",
                    aux.ivv, reg
                ),
            ));
        }
    }
    Ok(())
}

/// Invariant 7: the maintained reconciliation digest tree, once built,
/// agrees with the from-scratch fold on every node it claims current, and
/// its dirty list and bitset agree. Vacuously true before the first recon
/// probe builds the tree.
pub fn check_digest_tree(replica: &Replica) -> Result<(), InvariantViolation> {
    replica.store.check_digest_tree().map_err(|e| violation(replica, AuditCheck::DigestTree, e))
}

/// One invariant violation found by an audit.
#[derive(Clone, Debug)]
pub struct AuditViolation {
    /// The invariant that failed.
    pub check: AuditCheck,
    /// Human-readable specifics (which item / origin / values).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check.name(), self.detail)
    }
}

/// The outcome of auditing one replica.
#[derive(Clone, Debug)]
pub struct ParanoidReport {
    /// The audited replica.
    pub node: NodeId,
    /// Every violation found (empty = all invariants hold).
    pub violations: Vec<AuditViolation>,
}

impl ParanoidReport {
    /// True iff no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one specific check.
    pub fn count(&self, check: AuditCheck) -> usize {
        self.violations.iter().filter(|v| v.check == check).count()
    }

    /// One-line-per-violation summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("{}: all invariants hold", self.node);
        }
        let lines: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
        format!("{}: {} violation(s)\n{}", self.node, self.violations.len(), lines.join("\n"))
    }
}

/// The auditor itself — a stateless bundle of checks over a [`Replica`].
pub struct ReplicaAuditor;

impl ReplicaAuditor {
    /// Run every check against `replica` and collect the violations (the
    /// first violation of each check, in [`AuditCheck::ALL`] order).
    pub fn audit(replica: &Replica) -> ParanoidReport {
        let mut violations = Vec::new();
        for check in AuditCheck::ALL {
            if let Err(v) = check.run(replica) {
                violations.push(AuditViolation { check, detail: v.detail });
            }
        }
        ParanoidReport { node: replica.id, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_common::{ItemId, NodeId};
    use epidb_store::UpdateOp;

    #[test]
    fn clean_replica_audits_clean() {
        let mut r = Replica::new(NodeId(0), 3, 8);
        r.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        let report = ReplicaAuditor::audit(&r);
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.summary().contains("all invariants hold"));
    }

    #[test]
    fn dbvv_corruption_is_reported() {
        let mut r = Replica::new(NodeId(0), 3, 8);
        r.update(ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
        r.debug_corrupt_dbvv();
        let report = ReplicaAuditor::audit(&r);
        assert!(!report.is_clean());
        assert_eq!(report.count(AuditCheck::DbvvSum), 1);
        assert!(report.summary().contains("dbvv-sum"));
    }

    #[test]
    fn predicates_are_pure_and_typed() {
        let mut r = Replica::new(NodeId(1), 3, 8);
        r.update(ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
        for check in AuditCheck::ALL {
            assert!(check.run(&r).is_ok(), "{check} failed on a clean replica");
        }
        r.debug_corrupt_dbvv();
        let before = format!("{:?}", ReplicaAuditor::audit(&r).summary());
        let v = check_dbvv_sum(&r).unwrap_err();
        assert_eq!(v.node, NodeId(1));
        assert_eq!(v.check, "dbvv-sum");
        assert!(v.to_string().starts_with("n1: [dbvv-sum]"), "{v}");
        // Running a predicate must not mutate the replica.
        let after = format!("{:?}", ReplicaAuditor::audit(&r).summary());
        assert_eq!(before, after);
    }

    #[test]
    fn digest_tree_check_covers_a_built_tree() {
        let mut r = Replica::new(NodeId(0), 2, 16);
        r.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        assert_eq!(r.store.dirty_digest_leaves(), None, "no probe, no tree");
        check_digest_tree(&r).unwrap();
        r.range_digest(0, 16);
        r.update(ItemId(9), UpdateOp::set(&b"w"[..])).unwrap();
        assert_eq!(r.store.dirty_digest_leaves(), Some(1));
        check_digest_tree(&r).unwrap();
        r.range_digest(8, 16);
        assert_eq!(r.store.dirty_digest_leaves(), Some(0));
        check_digest_tree(&r).unwrap();
    }

    #[test]
    fn check_names_are_stable() {
        let names: Vec<&str> = AuditCheck::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "dbvv-sum",
                "log-structure",
                "m-monotonicity",
                "selection-flags",
                "aux-structure",
                "aux-dominance",
                "digest-tree"
            ]
        );
    }
}
