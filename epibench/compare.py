#!/usr/bin/env python3
"""Run the epidb benchmark repeatedly and compare sets of runs.

    python3 epibench/compare.py run --out DIR [--workloads a,b] [--seeds 1-10] [--trace 0]
    python3 epibench/compare.py spread DIR
    python3 epibench/compare.py compare PARENT_DIR CHANGE_DIR
    python3 epibench/compare.py layers SPANS.jsonl

`run` executes the command named in BENCHMARK.json once per workload and
seed for the `run_seconds` it names, from the repository root, and keeps
each result line in DIR/<workload>-<seed>-t<trace>.json.

`spread` reports, per workload and end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median, against the
metric's bound (and flags spreads above a third of it), `setup_s`
included.

`compare` pairs parent and change runs by workload and seed and applies
the rule of the benchmark's method. A workload with a run on either side
that failed its output checks or any operation gets no verdicts.
Otherwise a gain needs the change to win at least 9 of 10 pairs (ties
count for neither) and a median gap larger than the parent's own
quartile spread; a regression is a median worse than the
parent's by more than the metric's bound; a metric whose spread exceeds
its bound on either side is `unresolved`, not unchanged, unless every
change run beats every parent run. Metrics that repeat exactly on both
sides are reported as counts.

`layers` reads a twin span file written by a traced run, groups engine
rounds by the request kinds they served (for example recon catch-ups, OOB
fetches, delta pulls) and prints each group's mean round time split into
the self time of every layer, so a slow end-to-end metric can be traced to
the layer that holds it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args):
    bench = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        for seed in parse_seeds(args.seeds):
            argv = bench["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"{name} seed {seed}: {status}", file=sys.stderr)
            if lines:
                path = os.path.join(args.out, f"{name}-{seed}-t{args.trace}.json")
                with open(path, "w") as f:
                    f.write(lines[-1] + "\n")


def load_runs(directory):
    """{workload: {seed: result}} for the untraced runs in `directory`."""
    runs = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith("-t0.json"):
            continue
        workload, seed = entry[: -len("-t0.json")].rsplit("-", 1)
        with open(os.path.join(directory, entry)) as f:
            runs.setdefault(workload, {})[int(seed)] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs.values() if metric in r["metrics"]]


def cmd_spread(args):
    bench = load_benchmark()
    runs = load_runs(args.dir)
    worst = 0.0
    for workload, by_seed in sorted(runs.items()):
        bad = incorrect_seeds(by_seed)
        print(f"{workload}: {len(by_seed)} runs" + (f", INCORRECT seeds {bad}" if bad else ""))
        for m in bench["end_to_end"]:
            vals = values_of(by_seed, m["name"])
            q1, med, q3 = quartiles(vals)
            share = spread_share(vals)
            worst = max(worst, share / m["bound"])
            flag = ""
            if share > m["bound"]:
                flag = "  OVER BOUND"
            elif share > m["bound"] / 3:
                flag = "  over a third of bound"
            print(f"  {m['name']:<28} median {med:>14.4f} {m['unit']:<5} "
                  f"q1 {q1:>14.4f} q3 {q3:>14.4f} spread {share:7.2%} (bound {m['bound']:.0%}){flag}")
    print(f"largest spread / bound: {worst:.2f}")


def incorrect_seeds(by_seed):
    return sorted(s for s, r in by_seed.items() if not r["correct"] or r["failed"])


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if len(set(parent)) == 1 and len(set(change)) == 1:
        return "same count" if parent[0] == change[0] else f"count {parent[0]} -> {change[0]}"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    beats_all = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    gap = (p_med - c_med) if lower else (c_med - p_med)
    worse_share = -gap / p_med if p_med else 0.0
    if worse_share > bound:
        return "regression"
    if wins >= 0.9 * len(pairs) and gap > (p_q3 - p_q1):
        return "gain"
    if (spread_share(parent) > bound or spread_share(change) > bound) and not beats_all:
        return "unresolved"
    return "unchanged"


def cmd_compare(args):
    bench = load_benchmark()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        p_runs = {s: parent_runs[workload][s] for s in seeds}
        c_runs = {s: change_runs[workload][s] for s in seeds}
        print(f"{workload}: {len(seeds)} pairs")
        p_bad, c_bad = incorrect_seeds(p_runs), incorrect_seeds(c_runs)
        invalid = []
        if p_bad:
            invalid.append(f"parent incorrect or failing on seeds {p_bad}")
        if c_bad:
            invalid.append(f"change incorrect or failing on seeds {c_bad}")
        if invalid:
            print(f"  INVALID, no verdicts: {'; '.join(invalid)}")
        for m in bench["end_to_end"]:
            p, c = values_of(p_runs, m["name"]), values_of(c_runs, m["name"])
            if not p or len(p) != len(c):
                continue
            pq = quartiles(p)
            cq = quartiles(c)
            print(f"  {m['name']:<28} parent {pq[1]:>12.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
                  f"change {cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {m['unit']:<5} "
                  f"{'invalid' if invalid else verdict(m, p, c)}")


def cmd_layers(args):
    spans = []
    with open(args.spans) as f:
        for line in f:
            spans.append(json.loads(line))
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    kinds = {}
    for s in spans:
        if s["name"].startswith("handle."):
            kinds.setdefault(s["round"], set()).add(s["name"][len("handle."):])
    groups = {}
    for i, s in enumerate(spans):
        key = "+".join(sorted(kinds.get(s["round"], {"none"})))
        g = groups.setdefault(key, {"rounds": set(), "round_ns": 0, "self": {}})
        self_ns = s["end_ns"] - s["start_ns"] - child_ns[i]
        if s["name"] == "round":
            g["rounds"].add(s["round"])
            g["round_ns"] += s["end_ns"] - s["start_ns"]
        if s["round"] == 0:
            continue
        g["self"][s["name"]] = g["self"].get(s["name"], 0) + self_ns
    for key, g in sorted(groups.items()):
        n = len(g["rounds"])
        if not n:
            continue
        mean_us = g["round_ns"] / n / 1e3
        print(f"rounds serving {key}: {n}, mean {mean_us:.1f} us")
        for name, ns in sorted(g["self"].items(), key=lambda kv: -kv[1]):
            share = ns / g["round_ns"] if g["round_ns"] else 0.0
            print(f"  {name:<22} {ns / n / 1e3:12.1f} us  {share:6.1%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--workloads", default="")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, default=0, choices=[0, 1])
    run.set_defaults(fn=cmd_run)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    sp.set_defaults(fn=cmd_spread)
    cp = sub.add_parser("compare")
    cp.add_argument("parent")
    cp.add_argument("change")
    cp.set_defaults(fn=cmd_compare)
    ly = sub.add_parser("layers")
    ly.add_argument("spans")
    ly.set_defaults(fn=cmd_layers)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
