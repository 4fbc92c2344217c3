//! The production fabric: an `AsyncTcpCluster` whose gossip timer is set
//! to an hour, so only the benchmark's client thread moves data.

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Duration;

use epidb_common::{ItemId, NodeId, Result};
use epidb_core::{
    Engine, ProtocolRequest, ProtocolResponse, PullOutcome, Replica, RetryPolicy, Transport,
};
use epidb_durable::DurabilityConfig;
use epidb_net::{AsyncTcpCluster, AsyncTcpConfig, TcpConfig};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;

use crate::client::{first_mismatch, Fabric, Pulled, Rungs};
use crate::spec::{Model, Spec, Sweep};
use crate::trace::{timed, Tracer};

/// Removes a directory tree when dropped.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Durability settings shared by the reactor and the twin.
pub fn durability(spec: &Spec, dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 0,
        checkpoint_bytes: spec.checkpoint_bytes,
        retain_generations: 1,
        fsync: true,
    }
}

/// Wraps the transport handed to `pull_*_now_via`: notes each request's
/// rung and, when traced, times each exchange.
struct Tap<'a, T: Transport> {
    inner: T,
    rungs: Rungs,
    tracer: Option<&'a RefCell<Tracer>>,
}

impl<T: Transport> Transport for Tap<'_, T> {
    fn peer(&self) -> NodeId {
        self.inner.peer()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        self.rungs.note(&req);
        let inner = &mut self.inner;
        timed(self.tracer, "exchange", || inner.exchange(req))
    }
}

pub struct ReactorFab {
    cluster: AsyncTcpCluster,
    spec: Spec,
    tracer: Option<RefCell<Tracer>>,
    // Declared last: the directory goes after the cluster has stopped.
    _dir: Option<DirGuard>,
}

impl ReactorFab {
    pub fn spawn(spec: &Spec, dir: Option<PathBuf>, traced: bool) -> Result<ReactorFab> {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        let base = TcpConfig {
            gossip_interval: Duration::from_secs(3600),
            delta_budget: spec.delta_budget,
            durability: dir.as_deref().map(|d| durability(spec, d)),
            ..TcpConfig::default()
        };
        let cluster = AsyncTcpCluster::spawn(
            spec.nodes,
            spec.items,
            AsyncTcpConfig { base, worker_threads: workers },
        )?;
        Ok(ReactorFab {
            cluster,
            spec: spec.clone(),
            tracer: traced.then(RefCell::default),
            _dir: dir.map(DirGuard),
        })
    }

    /// Drop the spans recorded so far (set-up is not measured).
    pub fn reset_trace(&mut self) {
        if let Some(t) = &mut self.tracer {
            *t.get_mut() = Tracer::default();
        }
    }

    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take().map(RefCell::into_inner)
    }

    /// Crash `node`, recover it from its WAL and snapshots, and check that
    /// it still holds every acknowledged update.
    pub fn crash_revive_check(&self, node: NodeId, model: &Model) -> Vec<String> {
        let before = self.cluster.with_replica(node, |r| r.dbvv().clone());
        self.cluster.crash(node);
        self.cluster.revive(node);
        let mut failures = Vec::new();
        self.cluster.with_replica(node, |r| {
            if r.dbvv().compare(&before) != VvOrd::Equal {
                failures.push(format!("node {node} after crash + revive: DBVV differs"));
            }
            if let Some(bad) = first_mismatch(r, model) {
                failures.push(format!("node {node} after crash + revive: {bad}"));
            }
        });
        failures
    }
}

impl Fabric for ReactorFab {
    fn nodes(&self) -> usize {
        self.cluster.n_nodes()
    }

    fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        let cluster = &self.cluster;
        timed(self.tracer.as_ref(), "update", || cluster.update(node, item, op))
    }

    fn pull(&mut self, recipient: NodeId, source: NodeId, mode: Sweep) -> Result<Pulled> {
        let tracer = self.tracer.as_ref();
        let mut tap =
            Tap { inner: self.cluster.transport_to(source), rungs: Rungs::default(), tracer };
        let none = RetryPolicy::none();
        let cluster = &self.cluster;
        let out = timed(tracer, "round", || match mode {
            Sweep::Delta => cluster.pull_delta_now_via(recipient, &mut tap, &none),
            Sweep::Whole => cluster.pull_now_via(recipient, &mut tap, &none),
        })?;
        Ok(Pulled { propagated: matches!(out, PullOutcome::Propagated(_)), rungs: tap.rungs })
    }

    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<()> {
        let tracer = self.tracer.as_ref();
        let cluster = &self.cluster;
        timed(tracer, "round", || cluster.oob_fetch(recipient, source, item)).map(drop)
    }

    fn fresh_join(&mut self, source: NodeId) -> Result<(Replica, Rungs)> {
        let tracer = self.tracer.as_ref();
        let n = self.spec.nodes;
        let mut fresh = Replica::new(NodeId::from_index(n - 1), n, self.spec.items);
        let mut tap =
            Tap { inner: self.cluster.transport_to(source), rungs: Rungs::default(), tracer };
        timed(tracer, "round", || Engine::pull_recon(&mut fresh, &mut tap))?;
        Ok((fresh, tap.rungs))
    }

    fn set_retention(&mut self, node: NodeId, keep: usize) -> Result<()> {
        self.cluster.set_log_retention(node, keep)
    }

    fn with_replica<T>(&self, node: NodeId, f: impl FnOnce(&Replica) -> T) -> T {
        self.cluster.with_replica(node, f)
    }
}
