//! The traced twin: the same replicas, engine entry points and (for durable
//! workloads) group-commit WAL as the reactor cluster, assembled in-process
//! from public calls so that every layer boundary is a benchmark-side call
//! that can be timed.
//!
//! An exchange runs `encode_request_checked` → `decode_request_checked` →
//! `Engine::handle` → `encode_response_checked` → `decode_response_checked`,
//! and the initiating replica is reached through a [`ReplicaHost`] that
//! times every initiator step.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_core::codec::{
    decode_request_checked, decode_response_checked, encode_request_checked,
    encode_response_checked,
};
use epidb_core::{
    ConflictPolicy, Engine, ProtocolRequest, ProtocolResponse, PullOutcome, Replica, ReplicaHost,
    Transport,
};
use epidb_durable::{GroupCommitStats, GroupWal, StreamSpec};
use epidb_store::UpdateOp;

use crate::client::{Fabric, Pulled, Rungs};
use crate::reactor::{durability, DirGuard};
use crate::spec::{Spec, Sweep};
use crate::trace::{timed, Tracer};

/// The responder-side span name for each request kind.
fn handle_span(req: &ProtocolRequest) -> &'static str {
    match req {
        ProtocolRequest::Pull { .. } => "handle.pull",
        ProtocolRequest::DeltaPull { .. } => "handle.delta_pull",
        ProtocolRequest::DeltaFetch { .. } => "handle.delta_fetch",
        ProtocolRequest::Oob { .. } => "handle.oob",
        ProtocolRequest::Recon { .. } => "handle.recon",
        ProtocolRequest::FullPull { .. } => "handle.full_pull",
        _ => "handle.other",
    }
}

/// Codec counters, kept beside the spans.
#[derive(Default)]
pub struct Frames {
    pub frames: u64,
    pub bytes: u64,
}

struct TwinHost<'a> {
    replica: &'a mut Replica,
    tracer: &'a RefCell<Tracer>,
}

impl ReplicaHost for TwinHost<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut Replica) -> R) -> R {
        let replica = &mut *self.replica;
        timed(Some(self.tracer), "initiator", || f(replica))
    }
}

struct TwinLink<'a> {
    responder: &'a mut Replica,
    wal: Option<Arc<GroupWal>>,
    tracer: &'a RefCell<Tracer>,
    frames: &'a RefCell<Frames>,
    rungs: Rungs,
}

impl TwinLink<'_> {
    fn round_trip(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let t = Some(self.tracer);
        let span = handle_span(&req);
        let frame = timed(t, "codec.encode", || encode_request_checked(&req));
        drop(req);
        let req = timed(t, "codec.decode", || decode_request_checked(&frame))?;
        let responder = &mut *self.responder;
        let resp = timed(t, span, || Engine::handle(responder, req))
            .unwrap_or_else(|e| ProtocolResponse::Error(e.to_string()));
        // The reactor's ack gate: a response leaves only after the
        // responder's WAL covers anything serving journaled.
        if let Some(wal) = &self.wal {
            timed(t, "durable.serve_wait", || wal.wait_durable());
        }
        let back = timed(t, "codec.encode", || encode_response_checked(&resp));
        drop(resp);
        let resp = timed(t, "codec.decode", || decode_response_checked(&back))?;
        let mut f = self.frames.borrow_mut();
        f.frames += 2;
        f.bytes += (frame.len() + back.len()) as u64;
        match resp {
            ProtocolResponse::Error(msg) => Err(Error::Network(format!("peer error: {msg}"))),
            ProtocolResponse::Refused(e) => Err(e),
            resp => Ok(resp),
        }
    }
}

impl Transport for TwinLink<'_> {
    fn peer(&self) -> NodeId {
        self.responder.id()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        self.rungs.note(&req);
        let id = self.tracer.borrow_mut().begin("exchange");
        let out = self.round_trip(req);
        self.tracer.borrow_mut().end(id);
        out
    }
}

/// Two distinct replicas of one slice, mutably.
fn pair(nodes: &mut [Replica], a: usize, b: usize) -> (&mut Replica, &mut Replica) {
    assert_ne!(a, b, "a node cannot pull from itself");
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Storage written by the twin's WALs, measured from file sizes.
#[derive(Default)]
pub struct Storage {
    pub written: u64,
    pub checkpoints: u64,
    pub checkpoint_ms: Vec<f64>,
    wal_len: Vec<u64>,
    stats0: Vec<GroupCommitStats>,
}

pub struct TwinFab {
    spec: Spec,
    nodes: Vec<Replica>,
    wals: Vec<Option<Arc<GroupWal>>>,
    dirs: Vec<PathBuf>,
    tracer: RefCell<Tracer>,
    frames: RefCell<Frames>,
    pub storage: Storage,
    // Declared last: the directory goes after the WALs have closed.
    _dir: Option<DirGuard>,
}

impl TwinFab {
    /// Replicas configured as `AsyncTcpCluster::spawn` configures its own.
    pub fn new(spec: &Spec, dir: Option<PathBuf>) -> Result<TwinFab> {
        let (n, items) = (spec.nodes, spec.items);
        let mut nodes = Vec::with_capacity(n);
        let mut wals = Vec::with_capacity(n);
        let mut dirs = Vec::with_capacity(n);
        for id in NodeId::all(n) {
            let mut replica = match &dir {
                Some(root) => {
                    let cfg = durability(spec, root);
                    let node_dir = cfg.node_dir(id);
                    let (wal, mut streams, _) = GroupWal::open(
                        &cfg,
                        node_dir.clone(),
                        &[StreamSpec { id, n_nodes: n, n_items: items }],
                        ConflictPolicy::Report,
                        spec.delta_budget,
                    )?;
                    let mut replica = streams.pop().expect("one stream per node");
                    wal.attach(0, &mut replica);
                    wals.push(Some(wal));
                    dirs.push(node_dir);
                    replica
                }
                None => {
                    let mut replica = Replica::new(id, n, items);
                    if spec.delta_budget > 0 {
                        replica.enable_delta(spec.delta_budget);
                    }
                    wals.push(None);
                    replica
                }
            };
            replica.set_paranoid(false);
            replica.set_delta_frame_budget(u64::MAX);
            nodes.push(replica);
        }
        Ok(TwinFab {
            spec: spec.clone(),
            nodes,
            wals,
            dirs,
            tracer: RefCell::default(),
            frames: RefCell::default(),
            storage: Storage {
                wal_len: vec![0; n],
                stats0: vec![GroupCommitStats::default(); n],
                ..Storage::default()
            },
            _dir: dir.map(DirGuard),
        })
    }

    /// Forget set-up: spans, frame counts and storage counters restart.
    pub fn reset_trace(&mut self) {
        *self.tracer.get_mut() = Tracer::default();
        *self.frames.get_mut() = Frames::default();
        let wal_len = (0..self.nodes.len()).map(|i| self.current_wal_len(i)).collect();
        let stats0 =
            self.wals.iter().map(|w| w.as_ref().map(|w| w.stats()).unwrap_or_default()).collect();
        self.storage = Storage { wal_len, stats0, ..Storage::default() };
    }

    pub fn tracer(&self) -> std::cell::Ref<'_, Tracer> {
        self.tracer.borrow()
    }

    pub fn frames(&self) -> std::cell::Ref<'_, Frames> {
        self.frames.borrow()
    }

    /// Group-commit counters accrued since [`reset_trace`](Self::reset_trace).
    pub fn commit_stats(&self) -> GroupCommitStats {
        let mut sum = GroupCommitStats::default();
        for (w, s0) in self.wals.iter().zip(&self.storage.stats0) {
            if let Some(w) = w {
                let s = w.stats();
                sum.records += s.records - s0.records;
                sum.batches += s.batches - s0.batches;
                sum.fsyncs += s.fsyncs - s0.fsyncs;
            }
        }
        sum
    }

    fn current_wal_len(&self, i: usize) -> u64 {
        match &self.wals[i] {
            Some(w) => file_len(&self.dirs[i].join(format!("wal-{}.log", w.generation()))),
            None => 0,
        }
    }

    /// As the reactor's `after_mutation`: wait for the covering fsync,
    /// then run the checkpoint trigger.
    fn after_mutation(&mut self, i: usize) -> Result<()> {
        let Some(wal) = self.wals[i].clone() else { return Ok(()) };
        let t = Some(&self.tracer);
        timed(t, "durable.wait", || wal.wait_durable());
        let len = self.current_wal_len(i);
        self.storage.written += len.saturating_sub(self.storage.wal_len[i]);
        self.storage.wal_len[i] = len;
        let replica = &self.nodes[i];
        let started = std::time::Instant::now();
        let fired = timed(t, "durable.checkpoint", || wal.maybe_checkpoint(&[replica]))?;
        if fired {
            self.storage.checkpoint_ms.push(started.elapsed().as_secs_f64() * 1e3);
            self.storage.checkpoints += 1;
            let gen = wal.generation();
            let wal_len = self.current_wal_len(i);
            self.storage.written +=
                file_len(&self.dirs[i].join(format!("snap-{gen}-0.epdb"))) + wal_len;
            self.storage.wal_len[i] = wal_len;
        }
        Ok(())
    }

    /// One engine round from `recipient` against `source`, inside a
    /// `round` span; the WAL step follows a successful round, as on the
    /// reactor.
    fn round<R>(
        &mut self,
        recipient: usize,
        source: usize,
        drive: impl FnOnce(&mut TwinHost<'_>, &mut TwinLink<'_>) -> Result<R>,
    ) -> Result<(R, Rungs)> {
        let id = self.tracer.borrow_mut().begin("round");
        let wal = self.wals[source].clone();
        let (out, rungs) = {
            let (r, s) = pair(&mut self.nodes, recipient, source);
            let mut host = TwinHost { replica: r, tracer: &self.tracer };
            let mut link = TwinLink {
                responder: s,
                wal,
                tracer: &self.tracer,
                frames: &self.frames,
                rungs: Rungs::default(),
            };
            (drive(&mut host, &mut link), link.rungs)
        };
        let out = out.and_then(|v| self.after_mutation(recipient).map(|()| v));
        self.tracer.borrow_mut().end(id);
        Ok((out?, rungs))
    }
}

impl Fabric for TwinFab {
    fn nodes(&self) -> usize {
        self.nodes.len()
    }

    fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        let id = self.tracer.borrow_mut().begin("update");
        let replica = &mut self.nodes[node.index()];
        let out = timed(Some(&self.tracer), "replica.update", || replica.update(item, op))
            .and_then(|()| self.after_mutation(node.index()));
        self.tracer.borrow_mut().end(id);
        out
    }

    fn pull(&mut self, recipient: NodeId, source: NodeId, mode: Sweep) -> Result<Pulled> {
        let (out, rungs) = self.round(recipient.index(), source.index(), |h, l| match mode {
            Sweep::Delta => Engine::pull_delta(h, l),
            Sweep::Whole => Engine::pull(h, l),
        })?;
        Ok(Pulled { propagated: matches!(out, PullOutcome::Propagated(_)), rungs })
    }

    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<()> {
        self.round(recipient.index(), source.index(), |h, l| Engine::oob(h, l, item)).map(drop)
    }

    fn fresh_join(&mut self, source: NodeId) -> Result<(Replica, Rungs)> {
        let id = self.tracer.borrow_mut().begin("round");
        let n = self.spec.nodes;
        let mut fresh = Replica::new(NodeId::from_index(n - 1), n, self.spec.items);
        let mut link = TwinLink {
            responder: &mut self.nodes[source.index()],
            wal: self.wals[source.index()].clone(),
            tracer: &self.tracer,
            frames: &self.frames,
            rungs: Rungs::default(),
        };
        let mut host = TwinHost { replica: &mut fresh, tracer: &self.tracer };
        let out = Engine::pull_recon(&mut host, &mut link);
        let rungs = link.rungs;
        self.tracer.borrow_mut().end(id);
        out?;
        Ok((fresh, rungs))
    }

    fn set_retention(&mut self, node: NodeId, keep: usize) -> Result<()> {
        self.nodes[node.index()].set_log_retention(keep);
        self.after_mutation(node.index())
    }

    fn with_replica<T>(&self, node: NodeId, f: impl FnOnce(&Replica) -> T) -> T {
        f(&self.nodes[node.index()])
    }
}
