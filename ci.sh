#!/bin/sh
# CI gate for the Serval reproduction. Everything runs with --offline:
# the workspace has zero external dependencies (see crates/check for the
# from-scratch proptest/rand replacement), and this script is the proof
# that resolution never reaches for a registry.
set -eu

# --workspace: the loopback smoke below runs the `servald` and
# `serval-cli` binaries, which a root-package build does not produce.
echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (whole workspace, offline, SERVAL_JOBS=1) =="
SERVAL_JOBS=1 cargo test -q --workspace --offline

echo "== tests (whole workspace, offline, SERVAL_JOBS=4) =="
SERVAL_JOBS=4 cargo test -q --workspace --offline

# Each leg below re-runs the engine and core suites with one engine
# default turned off.
echo "== tests (engine + core, fresh solver per sub-query) =="
SERVAL_MODE=fresh cargo test -q --offline -p serval-engine -p serval-core

echo "== tests (engine + core, presolve off) =="
SERVAL_PRESOLVE=0 cargo test -q --offline -p serval-engine -p serval-core

echo "== tests (engine + core, proof certificates off) =="
SERVAL_CERT=0 cargo test -q --offline -p serval-engine -p serval-core

# The benchmark is a workspace of its own; building it here makes an API
# change that breaks it fail CI, and its self-tests (oracle flip/drop,
# span self-time, plan) run here because the workspace tests above do
# not reach them.
echo "== benchmark build + self-tests (perfbench) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Deterministic simulation: the pinned regression-seed corpus runs as
# part of the workspace tests above; this block additionally sweeps
# fresh hostile schedules (seeded scheduler + buggify + IO faults). Any
# failure prints the offending seed and the replay command, and the
# sweep exits nonzero.
echo "== deterministic simulation (500-seed hostile sweep) =="
SERVAL_BUGGIFY=1 SERVAL_SIM_SWEEP=500 \
  cargo run --release --offline -p serval-sim --bin sim_sweep

# Verification service: start servald on an ephemeral loopback port,
# then discharge the whole certikos -O1 refinement through serval-cli
# and compare against an in-process run. `parity` exits nonzero on any
# verdict mismatch or if fewer than 2 shards did work. The net_batch
# scenario is already covered by the hostile sweep above.
echo "== verification service (loopback smoke) =="
rm -f target/servald.addr
./target/release/servald --addr 127.0.0.1:0 --addr-file target/servald.addr --shards 2 &
SERVALD_PID=$!
trap 'kill "$SERVALD_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -s target/servald.addr ] && [ "$i" -lt 100 ]; do
  i=$((i + 1))
  sleep 0.1
done
[ -s target/servald.addr ] || { echo "servald never wrote its address"; exit 1; }
SERVAL_ADDR="$(cat target/servald.addr)" ./target/release/serval-cli parity o1
kill "$SERVALD_PID"

echo "== examples =="
cargo run --release --offline --example quickstart
cargo run --release --offline --example bpf_jit_check
cargo run --release --offline --example remote_probe

echo "CI OK"
