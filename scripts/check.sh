#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, the whole test suite in debug
# and in release (the chaos sweeps of every workload included), the
# 100-seed adversary fuzz sweep, and the benchmark gates (one
# `repro [--quick] --gate benchN` each, which runs the benchmark and
# checks its records without writing a file). Run from the repository
# root:
#
#     scripts/check.sh
#
# CHAOS_JOBS=<n> caps the sweeps' worker threads (default: all cores).
# Any failing chaos seed prints a CHAOS_SEED=... repro line naming its
# workload's test; replay it with:
#
#     CHAOS_SEED=<seed> cargo test -p chaos --test <store|bcast|commute|recovery> -- --nocapture
#
# The adversarial sweep works the same way; replay one hostile seed with:
#
#     CHAOS_SEED=<seed> cargo test -p adversary --test fuzz -- --nocapture
set -euo pipefail
cd "$(dirname "$0")/.."

# Each phase is timed so a slow gate is visible, not just a slow total.
phase_started=0
phase() {
  local now
  now=$(date +%s)
  if [ "$phase_started" -ne 0 ]; then
    echo "    [${phase_name}: $((now - phase_started))s]"
  fi
  phase_name="$1"
  phase_started=$now
  echo "==> $1"
}

phase "cargo fmt --check"
cargo fmt --all --check

phase "cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Workspace clippy builds simnet with its test-only `heap_sched` feature
# (the root package's dev-dependencies turn it on); this phase lints
# simnet and chaos with it off.
phase "cargo clippy -p simnet -p chaos (deny warnings; heap_sched off)"
cargo clippy -p simnet -p chaos --all-targets -- -D warnings

phase "cargo test --workspace"
cargo test --workspace -q

phase "cargo test --workspace --release (chaos sweeps, CHAOS_JOBS=${CHAOS_JOBS:-auto})"
cargo test --workspace --release -q

# The full fuzz sweep's seed range rotates off the committed epoch
# counter (bump tests/corpus/seed_epoch to move CI onto 100 fresh
# seeds); bug-finding seeds are pinned in the corpus regardless.
adv_epoch=$(tr -d '[:space:]' < tests/corpus/seed_epoch)
phase "adversary fuzz sweep (100 seeds from epoch ${adv_epoch}, hostile injector, release, CHAOS_JOBS=${CHAOS_JOBS:-auto})"
ADV_SEED_BASE=$((adv_epoch * 100)) ADV_FULL=1 cargo test -p adversary --release --test fuzz -- --nocapture

phase "BENCH_4 gate (multicast call plane beats unicast on client sendmsg)"
cargo run -q --release -p bench --bin repro -- --quick --gate bench4

phase "BENCH_5 gate (parallel sweep beats serial wall clock)"
cargo run -q --release -p bench --bin repro -- --quick --gate bench5

phase "BENCH_6 gate (timer churn at least matches its echo_ref baseline)"
cargo run -q --release -p bench --bin repro -- --quick --gate bench6

phase "BENCH_7 gate (delta rejoin moves fewer bytes than full state transfer)"
cargo run -q --release -p bench --bin repro -- --quick --gate bench7

phase "BENCH_8 gate (commutative ops out-throughput commit under conflict, full grid)"
cargo run -q --release -p bench --bin repro -- --gate bench8

phase "done"
echo "All checks passed."
