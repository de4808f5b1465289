#!/usr/bin/env bash
# Reproduce everything: build, test, validate, regenerate every paper
# artifact and ablation. Outputs land in test_output.txt /
# bench_output.txt at the repository root and one CSV per figure in the
# working directory.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt
./build/tools/exawatt_validate

# Streaming ingest first: its sustained-rate target (>= 462,600 samples/s,
# zero drops under the blocking policy) is a hard acceptance gate.
./build/bench/bench_stream_ingest 2>&1 | tee bench_stream_output.txt
grep -q "sustained: MET" bench_stream_output.txt

# On-disk store next: persisting the same feed must beat sim-real-time
# (>= 462,600 events/s written through seal+fsync-free path), the
# decoded-block cache must make repeated queries >= 5x cheaper, the mmap
# warm tier must beat buffered cold reads >= 1.3x, and the zero-copy
# chunked scan must keep its staged bytes flat (<= one chunk) regardless
# of archive size.
./build/bench/bench_store 2>&1 | tee bench_store_output.txt
grep -q "store write: MET" bench_store_output.txt
grep -q "cache-hit repeated query: .* MET" bench_store_output.txt
grep -q "warm-tier scan: .* -- MET" bench_store_output.txt
grep -q "stream peak staged: .* -- MET" bench_store_output.txt
grep -q "compaction: " bench_store_output.txt

# The compaction crash sweep doubles as a runnable artifact: every write
# point of a merge+retention pass must recover without losing a
# committed event.
ctest --test-dir build -L lifecycle

# Codec fast path: the bulk varint decode tier must be >= 2x the scalar
# reference on the smooth-telemetry batch (bit-identical bytes).
./build/bench/bench_codec 2>&1 | tee bench_codec_output.txt
grep -q "decode fast path: .* MET" bench_codec_output.txt

# Network query service: serving the warm store over loopback TCP must
# sustain at least the machine's own 462,600 events/s production rate as
# decoded read volume across concurrent scan clients.
./build/bench/bench_net 2>&1 | tee bench_net_output.txt
grep -q "net read: MET" bench_net_output.txt

# Sharded cluster: scatter-gather reads across 3 shard servers through
# the coordinator must sustain the same 462,600 events/s of merged read
# volume — sharding for capacity must not cost real-time serving.
./build/bench/bench_cluster 2>&1 | tee bench_cluster_output.txt
grep -q "cluster read: MET" bench_cluster_output.txt

# What-if scenario service: a 32-variant counterfactual sweep must
# re-feed the stored trace at >= 462,600 events/s summed across its
# variant legs — planning sweeps must stay interactive.
./build/bench/bench_scenario 2>&1 | tee bench_scenario_output.txt
grep -q "scenario sweep read: MET" bench_scenario_output.txt

# Multi-tenant QoS: a mixed-method open-loop flood at 10x measured
# capacity must keep interactive p99 within its bound while batch work
# keeps flowing, and admission pricing must calibrate exactly against
# measured block counts. Runs after bench_codec so the cost model picks
# up this machine's own decode rate from BENCH_codec.json.
./build/bench/bench_qos 2>&1 | tee bench_qos_output.txt
grep -q "qos overload gate: MET" bench_qos_output.txt

# Machine-readable artifacts for trend tracking.
test -s BENCH_store.json
test -s BENCH_codec.json
test -s BENCH_net.json
test -s BENCH_cluster.json
test -s BENCH_scenario.json
test -s BENCH_qos.json

for b in build/bench/*; do
  case "$b" in *bench_stream_ingest|*bench_store|*bench_codec|*bench_net|*bench_cluster|*bench_scenario|*bench_qos) continue ;; esac
  [ -x "$b" ] && "$b"
done 2>&1 | tee bench_output.txt
