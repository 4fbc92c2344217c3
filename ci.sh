#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"

echo "== format =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --release --workspace

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tests =="
cargo test -q --workspace

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== perf_report smoke =="
cargo run --release -q -p epidb-bench --bin perf_report -- \
  --smoke --assert-zero-copy --assert-small-path --assert-sharded-gossip \
  --assert-group-commit --assert-cold-start \
  --out target/bench_smoke.json
grep -q '"schema": "epidb-perf-report/v1"' target/bench_smoke.json

echo "== model checker smoke (exhaustive bounded exploration + self-test) =="
cargo run --release -q -p epidb-bench --bin mc -- --smoke

echo "== chaos soak smoke (seeded, deterministic) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- --smoke --seed 42

echo "== async reactor chaos soak smoke (loss + mid-exchange resets) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- \
  --smoke --seed 42 --async

echo "== crash-restart recovery soak smoke (durable runtimes) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- \
  --smoke --seed 42 --restart-from-disk

echo "== sharded chaos soak smoke (2 groups x 2 nodes, all runtimes) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- \
  --smoke --seed 42 --sharded

echo "== benchmark output checks (epibench prefix runs, reactor/twin parity) =="
for w in gossip_small durable_large cold_start; do
  if ! last=$(cargo run --release --quiet --manifest-path epibench/Cargo.toml -- \
      --workload "$w" --seed 1 --seconds 0 --trace 1 | tail -n 1); then
    echo "epibench $w: run failed its output checks"
    exit 1
  fi
  grep -q '"correct": true' <<<"$last" || { echo "epibench $w: not correct: $last"; exit 1; }
done
# The checks must bite: a run that drops an acknowledged write exits 1.
status=0
cargo run --release --quiet --manifest-path epibench/Cargo.toml -- \
  --workload gossip_small --seed 1 --seconds 0 --trace 0 --fault drop-acked-write \
  >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "epibench: the drop-acked-write fault was not caught (exit $status, want 1)"
  exit 1
fi

echo "CI green."
