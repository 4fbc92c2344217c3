//! Workload definitions and the seeded generator of their inputs.
//!
//! Every input a run uses — preload values, the update stream, which item
//! each update hits and at which node — comes from one [`OpGen`] seeded by
//! `--seed`, so two generators built from the same seed yield the same
//! operations. The reactor run and the traced twin each own one.

use epidb_common::{ItemId, NodeId};
use epidb_store::{ItemValue, UpdateOp};

/// How the ring sweeps pull.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// Four-message delta pulls (`pull_delta_now_via` / `Engine::pull_delta`).
    Delta,
    /// Two-message whole-item pulls (`pull_now_via` / `Engine::pull`).
    Whole,
}

/// One workload: cluster shape, data size and the operation mix.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: usize,
    pub items: usize,
    pub item_bytes: usize,
    /// Op-cache budget per replica in bytes (0 = delta mode off).
    pub delta_budget: usize,
    /// WAL bytes between checkpoints (0 = durability off).
    pub checkpoint_bytes: u64,
    /// Log retention at node 0 after set-up (0 = unbounded).
    pub source_retention: usize,
    /// All updates at node 0; otherwise each item's owner (`item % nodes`)
    /// writes it, so no item has two writers.
    pub single_source: bool,
    /// Updates per batch.
    pub batch: usize,
    /// One update in `set_every` replaces the whole value; the rest are
    /// `write_range` edits of `edit_bytes`.
    pub set_every: u64,
    pub edit_bytes: usize,
    /// An out-of-bound fetch follows every `oob_every`-th update.
    pub oob_every: u64,
    /// A fresh replica joins after every `fresh_every`-th batch.
    pub fresh_every: u64,
    /// Batches every run completes; exact counters cover these.
    pub prefix: u64,
}

impl Spec {
    /// Delta pulls when the op cache is on, whole-item pulls otherwise.
    pub fn sweep(&self) -> Sweep {
        if self.delta_budget > 0 {
            Sweep::Delta
        } else {
            Sweep::Whole
        }
    }

    /// A group-commit WAL with fsync on and byte-triggered checkpoints.
    pub fn durable(&self) -> bool {
        self.checkpoint_bytes > 0
    }
}

/// Share of items that are hot, and share of updates that hit them.
const HOT_ITEMS: f64 = 0.05;
const HOT_UPDATES: f64 = 0.8;

pub fn workloads() -> Vec<Spec> {
    vec![
        Spec {
            name: "gossip_small",
            nodes: 4,
            items: 20_000,
            item_bytes: 64,
            delta_budget: 4 << 20,
            checkpoint_bytes: 0,
            source_retention: 0,
            single_source: false,
            batch: 64,
            set_every: 1,
            edit_bytes: 0,
            oob_every: 64,
            fresh_every: 64,
            prefix: 128,
        },
        Spec {
            name: "durable_large",
            nodes: 3,
            items: 512,
            item_bytes: 16 << 10,
            delta_budget: 16 << 20,
            checkpoint_bytes: 8 << 20,
            source_retention: 0,
            single_source: false,
            batch: 16,
            set_every: 4,
            edit_bytes: 256,
            oob_every: 8,
            fresh_every: 16,
            prefix: 160,
        },
        Spec {
            name: "cold_start",
            nodes: 3,
            items: 100_000,
            item_bytes: 128,
            delta_budget: 0,
            checkpoint_bytes: 0,
            source_retention: 1,
            single_source: true,
            batch: 50,
            set_every: 1,
            edit_bytes: 0,
            oob_every: 10,
            fresh_every: 4,
            prefix: 8,
        },
    ]
}

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// One client update: which node applies it, to which item.
#[derive(Clone, Debug)]
pub struct Op {
    pub node: NodeId,
    pub item: ItemId,
    pub op: UpdateOp,
}

/// The seeded operation stream of one workload.
pub struct OpGen {
    spec: Spec,
    rng: Rng,
    issued: u64,
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64) -> OpGen {
        OpGen { spec: spec.clone(), rng: Rng::new(seed), issued: 0 }
    }

    fn writer(&self, item: usize) -> NodeId {
        if self.spec.single_source {
            NodeId(0)
        } else {
            NodeId::from_index(item % self.spec.nodes)
        }
    }

    /// One whole-value set per item, at the item's writer.
    pub fn preload(&mut self) -> Vec<Op> {
        (0..self.spec.items)
            .map(|x| Op {
                node: self.writer(x),
                item: ItemId(x as u32),
                op: UpdateOp::set(self.rng.bytes(self.spec.item_bytes)),
            })
            .collect()
    }

    /// The next update: `HOT_UPDATES` of them land on the first
    /// `HOT_ITEMS` of the item space.
    pub fn next_op(&mut self) -> Op {
        let hot = ((self.spec.items as f64 * HOT_ITEMS) as usize).max(1);
        let x = if self.rng.unit() < HOT_UPDATES {
            self.rng.below(hot)
        } else {
            self.rng.below(self.spec.items)
        };
        self.issued += 1;
        let op = if self.issued.is_multiple_of(self.spec.set_every) {
            UpdateOp::set(self.rng.bytes(self.spec.item_bytes))
        } else {
            let slots = self.spec.item_bytes / self.spec.edit_bytes;
            let offset = self.rng.below(slots) * self.spec.edit_bytes;
            UpdateOp::write_range(offset, self.rng.bytes(self.spec.edit_bytes))
        };
        Op { node: self.writer(x), item: ItemId(x as u32), op }
    }

    pub fn batch(&mut self) -> Vec<Op> {
        (0..self.spec.batch).map(|_| self.next_op()).collect()
    }
}

/// The benchmark's own prediction of every item's value: each generated
/// op applied to an `ItemValue`, in order.
pub struct Model(pub Vec<ItemValue>);

impl Model {
    pub fn new(items: usize) -> Model {
        Model(vec![ItemValue::new(); items])
    }

    pub fn apply(&mut self, op: &Op) {
        op.op.apply(&mut self.0[op.item.index()]);
    }
}
