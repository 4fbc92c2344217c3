//! `epibench` — the end-to-end and per-layer benchmark of epidb.
//!
//! ```text
//! epibench --workload <gossip_small|durable_large|cold_start> --seed <n>
//!          --seconds <s> --trace <0|1> [--fault <skip-ring-pull|drop-acked-write>]
//! ```
//!
//! With `--trace 0` a single closed-loop client drives an `AsyncTcpCluster`
//! (gossip timer set to an hour) through its public API for `--seconds`
//! seconds and prints the end-to-end metrics. With `--trace 1` it runs the
//! workload's fixed prefix on the reactor — once to warm up, then in pairs
//! of untraced and traced (timing transport) phases — and on the
//! in-process traced twin, and prints the per-layer metrics, the tracing
//! overhead and the twin's cost parity. Either way every replica is checked against the
//! benchmark's own model; the last stdout line is the JSON result and the
//! exit code is 1 when a check fails.

mod client;
mod reactor;
mod spec;
mod stats;
mod trace;
mod twin;

use std::path::PathBuf;
use std::time::Instant;

use epidb_common::{Costs, NodeId, Result};

use client::{check, measure, setup, Fault, Record};
use reactor::ReactorFab;
use spec::{workloads, Model, OpGen, Spec};
use stats::{median, peak_rss_mb, quantile, ratio, Metrics};
use trace::Tracer;
use twin::TwinFab;

/// Scratch space for WAL directories, under the working directory.
const WORK_DIR: &str = ".bench_work";
/// Where traced runs write their spans.
const OUT_DIR: &str = ".bench_out";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Pairs of untraced and traced reactor phases compared for the tracing
/// overhead, after one warm-up phase. Each pair runs in the other order
/// from the one before, so neither side always runs first.
const OVERHEAD_PAIRS: usize = 3;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: Fault,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut fault) =
        (None, None, None, None, Fault::None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads()
                        .into_iter()
                        .find(|w| w.name == val)
                        .ok_or_else(|| format!("unknown workload {val:?}"))?,
                )
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--fault" => {
                fault = match val.as_str() {
                    "skip-ring-pull" => Fault::SkipRingPull,
                    "drop-acked-write" => Fault::DropAckedWrite,
                    _ => return Err(format!("unknown fault {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        fault,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("epibench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace { traced(&args) } else { untraced(&args) };
    let _ = std::fs::remove_dir_all(work_dir(&args));
    let _ = std::fs::remove_dir(WORK_DIR);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("epibench: {e}");
            std::process::exit(2);
        }
    }
}

fn work_dir(args: &Args) -> PathBuf {
    PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name, std::process::id()))
}

/// A fresh WAL directory for durable workloads.
fn wal_dir(args: &Args, label: &str) -> Option<PathBuf> {
    args.workload.durable().then(|| work_dir(args).join(label))
}

/// Spawn and load a reactor cluster; returns it with the generator and
/// model positioned after set-up.
fn reactor_setup(args: &Args, label: &str, traced: bool) -> Result<(ReactorFab, OpGen, Model)> {
    let spec = &args.workload;
    let mut fab = ReactorFab::spawn(spec, wal_dir(args, label), traced)?;
    let mut gen = OpGen::new(spec, args.seed);
    let mut model = Model::new(spec.items);
    setup(&mut fab, spec, &mut gen, &mut model)?;
    fab.reset_trace();
    Ok((fab, gen, model))
}

/// The checks every phase ends with; failures go to stderr.
fn report(phase: &str, rec: &Record, mut failures: Vec<String>) -> bool {
    failures.splice(0..0, rec.violations.iter().cloned());
    failures.extend(rec.errors.iter().map(|e| format!("operation failed: {e}")));
    for f in &failures {
        eprintln!("epibench: CHECK FAILED [{phase}]: {f}");
    }
    failures.is_empty() && rec.failed == 0
}

fn untraced(args: &Args) -> Result<bool> {
    let spec = &args.workload;
    let t = Instant::now();
    let (mut fab, mut gen, mut model) = reactor_setup(args, "setup-0", false)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let rec = measure(&mut fab, spec, &mut gen, &mut model, Some(args.seconds), args.fault);
    let mut failures = check(&fab, &model);
    if spec.durable() {
        failures.extend(fab.crash_revive_check(NodeId(0), &model));
    }
    let correct = report("reactor", &rec, failures);
    // Read before the extra set-ups, which only time set-up: the peak
    // covers one set-up and the measured phase.
    let peak_rss = peak_rss_mb();
    drop((fab, gen, model));
    for k in 1..SETUPS {
        let t = Instant::now();
        drop(reactor_setup(args, &format!("setup-{k}"), false)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("propagated_updates_per_s", ratio(spec.batch as f64, median(&rec.batch_secs)), "1/s");
    m.put("convergence_ms_p50", median(&rec.convergence_ms), "ms");
    m.put("update_ack_us_p50", median(&rec.ack_us), "us");
    m.put("catchup_behind_ms_p50", median(&rec.behind_ms), "ms");
    m.put("catchup_fresh_ms_p50", median(&rec.fresh_ms), "ms");
    m.put(
        "wire_bytes_per_update",
        ratio(rec.prefix_sweep_bytes as f64, rec.prefix_updates as f64),
        "B",
    );
    m.put(
        "catchup_wire_bytes",
        ratio(rec.prefix_catchup_bytes as f64, rec.prefix_catchups as f64),
        "B",
    );
    m.put("oob_wire_bytes", ratio(rec.prefix_oob_bytes as f64, rec.prefix_oobs as f64), "B");
    m.put("peak_rss_mb", peak_rss, "MiB");
    eprintln!(
        "epibench: {} seed {}: {} batches, {} updates, {} rounds, {} fresh joins in {:.1} s measured",
        spec.name,
        args.seed,
        rec.batches,
        rec.updates,
        rec.rounds,
        rec.fresh_ms.len(),
        phase_s(&rec)
    );
    // Not metrics (see BASELINE.md): on a shared host the tails follow the
    // host's stall rate, and an OOB fetch, the first exchange after the
    // client's in-process updates, waits for a reactor worker to wake from
    // idle, which the host sets. Both spread past any bound the benchmark
    // may set.
    eprintln!(
        "epibench: not metrics: convergence p95 {:.4} ms, update ack p95 {:.4} us, \
         OOB fetch p50 {:.4} us",
        quantile(&rec.convergence_ms, 0.95),
        quantile(&rec.ack_us, 0.95),
        median(&rec.oob_us)
    );
    eprint!("{}", m.table());
    println!("{}", m.result_line(correct, rec.attempted, rec.failed));
    Ok(correct)
}

/// Sum of every node's costs plus the fresh joiners'.
fn prefix_total(rec: &Record) -> Costs {
    rec.prefix_costs.iter().fold(rec.prefix_joiner_costs, |a, &c| a + c)
}

fn phase_s(rec: &Record) -> f64 {
    rec.batch_secs.iter().sum::<f64>() + rec.fresh_ms.iter().sum::<f64>() / 1e3
}

/// The workload's prefix on a fresh reactor cluster, checked; `traced`
/// passes the timing transport and keeps its spans.
fn reactor_phase(args: &Args, traced: bool) -> Result<(Record, Option<Tracer>, bool)> {
    let (mut fab, mut gen, mut model) = reactor_setup(args, "reactor", traced)?;
    let rec = measure(&mut fab, &args.workload, &mut gen, &mut model, None, args.fault);
    let phase = if traced { "reactor traced" } else { "reactor" };
    let correct = report(phase, &rec, check(&fab, &model));
    Ok((rec, fab.take_tracer(), correct))
}

fn traced(args: &Args) -> Result<bool> {
    let spec = &args.workload;

    // 1. The reactor, untraced and traced: a warm-up phase, then pairs in
    //    alternating order. The overhead is the median over pairs of
    //    traced ÷ untraced phase time − 1.
    let (warm, _, mut correct) = reactor_phase(args, false)?;
    let mut same_costs = true;
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut overhead = Vec::new();
    let mut last_timed = None;
    for pair in 0..OVERHEAD_PAIRS {
        let mut secs = [0.0; 2];
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            let (rec, tracer, ok) = reactor_phase(args, traced)?;
            correct &= ok;
            attempted += rec.attempted;
            failed += rec.failed;
            same_costs &= rec.prefix_costs == warm.prefix_costs
                && rec.prefix_joiner_costs == warm.prefix_joiner_costs;
            secs[traced as usize] = phase_s(&rec);
            if let Some(tracer) = tracer {
                last_timed = Some((rec, tracer));
            }
        }
        overhead.push(secs[1] / secs[0] - 1.0);
    }
    let (timed, net) = last_timed.expect("every pair runs a traced phase");
    // The range of the per-pair overheads. Tracing only adds work, so the
    // overhead is resolved only when its median is positive and above it.
    let noise = overhead.iter().copied().fold(f64::MIN, f64::max)
        - overhead.iter().copied().fold(f64::MAX, f64::min);

    // 2. The in-process twin, same seed and schedule.
    let mut twin = TwinFab::new(spec, wal_dir(args, "twin"))?;
    let mut gen = OpGen::new(spec, args.seed);
    let mut model = Model::new(spec.items);
    setup(&mut twin, spec, &mut gen, &mut model)?;
    twin.reset_trace();
    let rec = measure(&mut twin, spec, &mut gen, &mut model, None, args.fault);
    correct &= report("twin", &rec, check(&twin, &model));

    // The twin must do exactly the reactor's protocol work, node by node,
    // and every reactor phase the same.
    let parity = same_costs
        && rec.prefix_costs == timed.prefix_costs
        && rec.prefix_joiner_costs == timed.prefix_joiner_costs;
    if !parity {
        eprintln!("epibench: CHECK FAILED [parity]: twin and reactor Costs differ");
        for (i, (a, b)) in timed.prefix_costs.iter().zip(&rec.prefix_costs).enumerate() {
            eprintln!("  node {i}: reactor {a}\n  node {i}: twin    {b}");
        }
        correct = false;
    }

    let agg = twin.tracer().aggregate();
    let a = |name: &str| agg.get(name).copied().unwrap_or_default();
    let rounds = rec.rounds as f64;
    let per_round = |v: u64| ratio(v as f64, rounds);
    let total = prefix_total(&rec);
    let frames = twin.frames();
    let (enc, dec) = (a("codec.encode"), a("codec.decode"));

    let mut m = Metrics::default();
    m.put("core.codec.encode_ns_per_frame", ratio(enc.total_ns as f64, enc.count as f64), "ns");
    m.put("core.codec.decode_ns_per_frame", ratio(dec.total_ns as f64, dec.count as f64), "ns");
    m.put("core.codec.frame_bytes", ratio(frames.bytes as f64, frames.frames as f64), "B");
    m.put("core.codec.frames_per_round", per_round(frames.frames), "count");
    for (metric, span) in [
        ("core.engine.handle_us.delta_pull", "handle.delta_pull"),
        ("core.engine.handle_us.delta_fetch", "handle.delta_fetch"),
        ("core.engine.handle_us.pull", "handle.pull"),
        ("core.engine.handle_us.recon", "handle.recon"),
        ("core.engine.handle_us.full_pull", "handle.full_pull"),
        ("core.engine.handle_us.oob", "handle.oob"),
    ] {
        m.put(metric, a(span).mean_self_us(), "us");
    }
    m.put(
        "core.engine.initiator_us_per_round",
        ratio(a("initiator").total_ns as f64 / 1e3, rounds),
        "us",
    );
    m.put("core.replica.update_us", a("replica.update").mean_self_us(), "us");
    m.put("core.costs.vv_entry_cmps_per_round", per_round(total.vv_entry_cmps), "count");
    m.put(
        "core.costs.log_records_examined_per_round",
        per_round(total.log_records_examined),
        "count",
    );
    m.put("core.costs.items_scanned_per_round", per_round(total.items_scanned), "count");
    m.put("core.costs.items_copied_per_round", per_round(total.items_copied), "count");
    m.put("core.costs.control_bytes_per_round", per_round(total.control_bytes), "B");
    m.put("core.costs.aux_replays_per_round", per_round(total.aux_replays), "count");
    m.put(
        "core.costs.redundant_deliveries_per_round",
        per_round(total.redundant_deliveries),
        "count",
    );
    m.put("core.costs.retries_per_round", per_round(total.retries), "count");
    m.put(
        "core.recon.exchanges_per_catchup",
        ratio(rec.recon_exchanges as f64, rec.recon_catchups as f64),
        "count",
    );

    let waits = twin.tracer().durations_us("durable.wait");
    let commits = twin.commit_stats();
    let storage = &twin.storage;
    m.put("durable.wait_durable_us_p50", median(&waits), "us");
    m.put("durable.wait_durable_us_p95", quantile(&waits, 0.95), "us");
    m.put(
        "durable.fsyncs_per_record",
        ratio(commits.fsyncs as f64, commits.records as f64),
        "count",
    );
    m.put(
        "durable.records_per_batch",
        ratio(commits.records as f64, commits.batches as f64),
        "count",
    );
    m.put("durable.checkpoints", storage.checkpoints as f64, "count");
    m.put(
        "durable.checkpoint_ms",
        ratio(storage.checkpoint_ms.iter().sum(), storage.checkpoint_ms.len() as f64),
        "ms",
    );
    m.put(
        "durable.wal_bytes_per_user_byte",
        ratio(storage.written as f64, rec.user_bytes as f64),
        "count",
    );

    // Transport self time: what a reactor exchange costs beyond the codec
    // and engine work the twin measured for the same exchanges.
    let exchanges = net.durations_us("exchange");
    let twin_exchanges = a("exchange").count as f64;
    let handled: u64 =
        agg.iter().filter(|(k, _)| k.starts_with("handle.")).map(|(_, v)| v.total_ns).sum();
    let twin_work_us =
        (enc.total_ns + dec.total_ns + handled + a("durable.serve_wait").total_ns) as f64 / 1e3;
    let reactor_mean = ratio(exchanges.iter().sum(), exchanges.len() as f64);
    m.put("net.exchange_us_p50", median(&exchanges), "us");
    m.put("net.oob_fetch_us_p50", median(&timed.oob_us), "us");
    m.put("net.exchange_us_p95", quantile(&exchanges, 0.95), "us");
    m.put("net.exchanges_per_round", ratio(timed.exchanges as f64, timed.rounds as f64), "count");
    m.put("net.transport_self_us", reactor_mean - ratio(twin_work_us, twin_exchanges), "us");

    let round = a("round");
    m.put("trace.overhead_share", median(&overhead), "share");
    m.put("trace.overhead_noise_share", noise, "share");
    m.put("trace.residual_share", ratio(round.self_ns as f64, round.total_ns as f64), "share");

    std::fs::create_dir_all(OUT_DIR).map_err(|e| epidb_common::Error::Network(e.to_string()))?;
    for (who, tracer) in [("twin", &*twin.tracer()), ("reactor", &net)] {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}-{who}.jsonl", spec.name, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("epibench: cannot write {}: {e}", path.display());
        }
    }
    let phases = 2 + 2 * OVERHEAD_PAIRS;
    eprintln!(
        "epibench: {} seed {} traced: {} batches x {phases} phases, {} rounds; Costs parity {}; \
         traced/untraced - 1 per pair {overhead:.3?} ({}), twin {:.3} s",
        spec.name,
        args.seed,
        rec.batches,
        rec.rounds,
        if parity { "exact" } else { "BROKEN" },
        if median(&overhead) > noise { "resolved" } else { "unresolved: within noise" },
        phase_s(&rec)
    );
    eprint!("{}", m.table());
    println!("{}", m.result_line(correct, attempted + rec.attempted, failed + rec.failed));
    Ok(correct)
}
