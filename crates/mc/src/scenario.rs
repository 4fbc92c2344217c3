//! Scenario definitions: the bounded worlds the checker explores.
//!
//! A [`Scenario`] fixes everything *except* the schedule — topology,
//! conflict policy, a finite set of [`Action`]s (local updates and
//! protocol-round starts, each fired at most once), and fault budgets for
//! crashes and message losses. The explorer then enumerates every
//! interleaving of action firings, message deliveries, losses, crashes,
//! and revivals the budgets allow.
//!
//! The [`Expectation`] states what §2.1 eventual consistency means for
//! this scenario once the system quiesces (all actions fired, no rounds in
//! flight): conflict-free runs must converge byte-for-byte with exact
//! DBVV accounting, LWW runs must converge after resolution, and
//! `Report`-policy runs with genuine concurrent writes are allowed to hold
//! stable divergence on the conflicted items — but nothing else.

use epidb_core::ConflictPolicy;

use crate::explore::Limits;

/// How nodes replicate.
#[derive(Clone, Debug)]
pub enum Topology {
    /// Every node holds a full replica of the same `n_items`-item database.
    Full {
        /// Number of servers.
        n_nodes: usize,
        /// Database size in items.
        n_items: usize,
    },
    /// Sharded partial replication: shard `s` covers
    /// `items_per_shard` global items and is replicated by the nodes of
    /// `groups[s]` (indices into the node vector).
    Sharded {
        /// Number of servers.
        n_nodes: usize,
        /// Items per shard.
        items_per_shard: usize,
        /// One owner list per shard.
        groups: Vec<Vec<usize>>,
    },
}

impl Topology {
    /// Number of servers in the deployment.
    pub fn n_nodes(&self) -> usize {
        match self {
            Topology::Full { n_nodes, .. } | Topology::Sharded { n_nodes, .. } => *n_nodes,
        }
    }
}

/// One thing that can happen exactly once per run, at any point the
/// scheduler chooses (provided the acting node is up).
#[derive(Clone, Debug)]
pub enum Action {
    /// A local write at `node`.
    Update {
        /// Acting node index.
        node: usize,
        /// Item written (global id).
        item: u32,
        /// The value set.
        value: Vec<u8>,
    },
    /// `node` starts a whole-item anti-entropy pull from `peer` (§5.1).
    Pull {
        /// Initiating (recipient) node index.
        node: usize,
        /// Source node index.
        peer: usize,
    },
    /// `node` starts a delta-mode pull from `peer`.
    Delta {
        /// Initiating node index.
        node: usize,
        /// Source node index.
        peer: usize,
    },
    /// `node` starts a digest-tree set-reconciliation pull from `peer` —
    /// the cold-start rung below whole-pull (§15).
    ReconPull {
        /// Initiating (recipient) node index.
        node: usize,
        /// Source node index.
        peer: usize,
    },
    /// `node` requests an out-of-bound copy of `item` from `peer` (§5.2).
    Oob {
        /// Initiating node index.
        node: usize,
        /// Source node index.
        peer: usize,
        /// Item fetched (global id; for sharded topologies both nodes must
        /// own its shard).
        item: u32,
    },
    /// Sharded only: `node` starts a pull of one owned shard from a
    /// co-owner `peer`.
    ShardPull {
        /// Initiating node index.
        node: usize,
        /// Source node index (must co-own the shard).
        peer: usize,
        /// The shard pulled.
        shard: u32,
    },
    /// Sharded only: `node` fetches `item` from a shard it does *not* own,
    /// via `peer` (a remote-group owner) — the cross-group out-of-bound
    /// read. Charged to node meta-costs; adopts no local state.
    CrossOob {
        /// Initiating node index.
        node: usize,
        /// Remote-group owner serving the fetch.
        peer: usize,
        /// Item fetched (global id).
        item: u32,
    },
}

impl Action {
    /// The node that initiates this action.
    pub fn actor(&self) -> usize {
        match self {
            Action::Update { node, .. }
            | Action::Pull { node, .. }
            | Action::Delta { node, .. }
            | Action::ReconPull { node, .. }
            | Action::Oob { node, .. }
            | Action::ShardPull { node, .. }
            | Action::CrossOob { node, .. } => *node,
        }
    }
}

/// What §2.1 eventual consistency means for a scenario, checked at every
/// quiescent (goal) state after reviving crashed nodes and running healing
/// anti-entropy sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// No concurrent writes to the same item anywhere in the action set:
    /// replicas must converge byte-for-byte, report zero conflicts, shed
    /// all auxiliary copies, and each DBVV component `j` must equal the
    /// number of updates originated at `j` — no lost, no duplicated
    /// updates.
    ConflictFree,
    /// Concurrent writes exist but the policy is
    /// [`ConflictPolicy::ResolveLww`]: replicas must still converge
    /// byte-for-byte (conflicts are allowed and expected).
    Lww,
    /// Concurrent writes under [`ConflictPolicy::Report`]: conflicted
    /// items may hold stable divergence, but healing must reach a fixpoint
    /// where further pulls copy nothing, and every invariant must hold.
    ReportTolerated,
}

/// A bounded world for the explorer. See the module docs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name (also used in reports).
    pub name: &'static str,
    /// Replication layout.
    pub topology: Topology,
    /// Conflict policy of every replica.
    pub policy: ConflictPolicy,
    /// Op-cache budget in bytes; 0 disables delta shipping.
    pub delta_budget: usize,
    /// Max wanted items per `DeltaFetch` frame; 0 means unbounded.
    pub frame_items: usize,
    /// How many crash events the scheduler may inject.
    pub crash_budget: u32,
    /// How many in-flight messages the scheduler may lose.
    pub loss_budget: u32,
    /// Log-vector retention bound applied to every replica at start
    /// (records kept per (origin, item) component); 0 means unbounded.
    /// With a bound, compaction raises coverage floors and pulls against
    /// stale recipients degrade to set reconciliation.
    pub log_retention: usize,
    /// Node index whose replica runs with the seeded protocol mutation
    /// (adopt-concurrent-without-absorb; see
    /// `Replica::debug_break_conflict_adopt`) — the checker's self-test.
    pub mutant: Option<usize>,
    /// The finite action set.
    pub actions: Vec<Action>,
    /// The §2.1 statement to check at quiescent states.
    pub expectation: Expectation,
}

impl Scenario {
    /// Two full replicas, no conflicting writes: updates at both sides, a
    /// pull each way, a delta pull, and an OOB copy — with one crash and
    /// one message loss available to the scheduler. The canonical
    /// correctness scenario: every interleaving must preserve all seven
    /// state invariants and converge exactly.
    pub fn two_node_full() -> Scenario {
        Scenario {
            name: "two-node-full",
            topology: Topology::Full { n_nodes: 2, n_items: 4 },
            policy: ConflictPolicy::Report,
            delta_budget: 4096,
            frame_items: 1,
            crash_budget: 1,
            loss_budget: 1,
            log_retention: 0,
            mutant: None,
            actions: vec![
                Action::Update { node: 0, item: 0, value: b"a0".to_vec() },
                Action::Update { node: 1, item: 1, value: b"b1".to_vec() },
                Action::Delta { node: 1, peer: 0 },
                Action::Pull { node: 0, peer: 1 },
                Action::Oob { node: 0, peer: 1, item: 1 },
            ],
            expectation: Expectation::ConflictFree,
        }
    }

    /// Three full replicas relaying an update (0 → 1 → 2) with a second
    /// write landing mid-relay, one crash and one loss. Exercises
    /// propagation through an intermediary under faults.
    pub fn three_node_relay() -> Scenario {
        Scenario {
            name: "three-node-relay",
            topology: Topology::Full { n_nodes: 3, n_items: 3 },
            policy: ConflictPolicy::Report,
            delta_budget: 4096,
            frame_items: 0,
            crash_budget: 1,
            loss_budget: 1,
            log_retention: 0,
            mutant: None,
            actions: vec![
                Action::Update { node: 0, item: 0, value: b"x".to_vec() },
                Action::Delta { node: 1, peer: 0 },
                Action::Update { node: 2, item: 2, value: b"y".to_vec() },
                Action::Pull { node: 2, peer: 1 },
                Action::Pull { node: 1, peer: 2 },
            ],
            expectation: Expectation::ConflictFree,
        }
    }

    /// Two full replicas writing the same item concurrently under the LWW
    /// policy, syncing both ways: every schedule must still converge
    /// byte-for-byte after resolution.
    pub fn two_node_lww_conflict() -> Scenario {
        Scenario {
            name: "two-node-lww-conflict",
            topology: Topology::Full { n_nodes: 2, n_items: 2 },
            policy: ConflictPolicy::ResolveLww,
            delta_budget: 4096,
            frame_items: 0,
            crash_budget: 1,
            loss_budget: 0,
            log_retention: 0,
            mutant: None,
            actions: vec![
                Action::Update { node: 0, item: 0, value: b"from-a".to_vec() },
                Action::Update { node: 1, item: 0, value: b"from-b".to_vec() },
                Action::Delta { node: 1, peer: 0 },
                Action::Pull { node: 0, peer: 1 },
            ],
            expectation: Expectation::Lww,
        }
    }

    /// Same concurrent write, `Report` policy: the conflicted item may
    /// diverge stably, everything else must quiesce and every invariant
    /// must hold in every schedule.
    pub fn two_node_report_conflict() -> Scenario {
        Scenario {
            name: "two-node-report-conflict",
            policy: ConflictPolicy::Report,
            expectation: Expectation::ReportTolerated,
            ..Scenario::two_node_lww_conflict()
        }
    }

    /// Four sharded nodes in two groups of two (shard 0 → nodes 0,1;
    /// shard 1 → nodes 2,3): intra-group pulls plus a cross-group
    /// out-of-bound read, with one crash. Checks that shard routing and
    /// cross-group fetches preserve every per-shard invariant under
    /// arbitrary interleaving.
    pub fn sharded_two_group() -> Scenario {
        Scenario {
            name: "sharded-two-group",
            topology: Topology::Sharded {
                n_nodes: 4,
                items_per_shard: 2,
                groups: vec![vec![0, 1], vec![2, 3]],
            },
            policy: ConflictPolicy::Report,
            delta_budget: 4096,
            frame_items: 0,
            crash_budget: 1,
            loss_budget: 0,
            log_retention: 0,
            mutant: None,
            actions: vec![
                Action::Update { node: 0, item: 0, value: b"g0".to_vec() },
                Action::Update { node: 2, item: 2, value: b"g1".to_vec() },
                Action::ShardPull { node: 1, peer: 0, shard: 0 },
                Action::ShardPull { node: 3, peer: 2, shard: 1 },
                Action::CrossOob { node: 0, peer: 2, item: 2 },
            ],
            expectation: Expectation::ConflictFree,
        }
    }

    /// Cold-start reconciliation: node 0 accumulates writes (two to the
    /// same item, so retention-1 compaction prunes a record and raises its
    /// coverage floor), node 1 holds one write of its own, and node 1
    /// reconciles from node 0 via the digest tree — under one crash and
    /// one loss. Healing pulls against the compacted node must degrade to
    /// recon on their own, so every schedule still converges exactly.
    pub fn cold_start_recon() -> Scenario {
        Scenario {
            name: "cold-start-recon",
            topology: Topology::Full { n_nodes: 2, n_items: 4 },
            policy: ConflictPolicy::Report,
            delta_budget: 0,
            frame_items: 0,
            crash_budget: 1,
            loss_budget: 1,
            log_retention: 1,
            mutant: None,
            actions: vec![
                Action::Update { node: 0, item: 0, value: b"r0".to_vec() },
                Action::Update { node: 0, item: 0, value: b"r0-again".to_vec() },
                Action::Update { node: 0, item: 1, value: b"r1".to_vec() },
                Action::Update { node: 1, item: 2, value: b"s2".to_vec() },
                Action::ReconPull { node: 1, peer: 0 },
            ],
            expectation: Expectation::ConflictFree,
        }
    }

    /// The self-test: node 0 runs the seeded mutant (adopts concurrent
    /// copies without absorbing into the DBVV, breaking maintenance
    /// rule 3). The checker must find a schedule tripping the `dbvv-sum`
    /// invariant and minimize it.
    pub fn seeded_mutant() -> Scenario {
        Scenario {
            name: "seeded-mutant",
            topology: Topology::Full { n_nodes: 2, n_items: 2 },
            policy: ConflictPolicy::Report,
            delta_budget: 0,
            frame_items: 0,
            crash_budget: 0,
            loss_budget: 0,
            log_retention: 0,
            mutant: Some(0),
            actions: vec![
                Action::Update { node: 0, item: 0, value: b"mine".to_vec() },
                Action::Update { node: 1, item: 0, value: b"theirs".to_vec() },
                Action::Pull { node: 0, peer: 1 },
            ],
            expectation: Expectation::ReportTolerated,
        }
    }

    /// The depth every schedule needs to run all actions to completion
    /// with no faults: one ply per update, three per protocol round
    /// (fire, deliver request, deliver response) — plus extra plies for
    /// rounds that take multiple exchanges (delta frames, item fetches).
    fn full_completion_depth(&self) -> usize {
        let mut depth = 0usize;
        for a in &self.actions {
            depth += match a {
                Action::Update { .. } => 1,
                // Whole-item and shard pulls exchange VVs, then fetch; delta
                // pulls may ship several frames (frame_items bounds each).
                Action::Pull { .. } | Action::ShardPull { .. } | Action::Delta { .. } => 5,
                // Recon descends the digest tree level by level: fire plus
                // one request/response exchange per level, plus the leaf
                // fetch — bounded by the small worlds checked here.
                Action::ReconPull { .. } => 9,
                Action::Oob { .. } | Action::CrossOob { .. } => 3,
            };
        }
        depth
    }

    /// CI-sized exploration limits for this scenario: deep enough that
    /// every schedule can run to quiescence (so §2.1 goal checks fire on
    /// fault-free completions, not only on crash-truncated ones), with a
    /// couple of spare plies for fault injection.
    pub fn smoke_limits(&self) -> Limits {
        Limits { max_depth: self.full_completion_depth() + 2, max_states: 400_000 }
    }

    /// Deeper limits for local runs: more spare plies for faults and a
    /// larger state budget.
    pub fn thorough_limits(&self) -> Limits {
        Limits { max_depth: self.full_completion_depth() + 4, max_states: 4_000_000 }
    }

    /// Every built-in scenario that must pass (the seeded mutant is the
    /// deliberate failure and is excluded — see [`Scenario::seeded_mutant`]).
    pub fn all_clean() -> Vec<Scenario> {
        vec![
            Scenario::two_node_full(),
            Scenario::three_node_relay(),
            Scenario::two_node_lww_conflict(),
            Scenario::two_node_report_conflict(),
            Scenario::sharded_two_group(),
            Scenario::cold_start_recon(),
        ]
    }
}
