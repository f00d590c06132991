#!/bin/bash
# The canonical CI gate. Every check .github/workflows/ci.yml runs maps
# to a stage of this script, and run_all.sh front-loads the same stages,
# so CI can never disagree with a developer box: if `./ci.sh` passes
# locally, the workflow's check jobs pass too.
#
#   ./ci.sh            # everything (fmt, clippy, build, test, asm,
#                      # bench, dse, load)
#   ./ci.sh fmt        # rustfmt, check only
#   ./ci.sh clippy     # clippy, warnings are errors
#   ./ci.sh build      # release build, all targets
#   ./ci.sh test       # full test suite
#   ./ci.sh asm        # assembler front-end: corpus assembles through
#                      # the real CLI, native workloads re-emit to
#                      # identical streams, parser fuzz smoke
#   ./ci.sh bench      # the repository benchmark (perfbench/README.md):
#                      # one 10 s run per workload, every output checked
#   ./ci.sh dse        # surrogate-guided planner vs exhaustive truth
#                      # on the quick §4.6 space, plus the synthetic
#                      # budget and calibration gates (release)
#   ./ci.sh load       # loadgen chaos gate: open-loop load through a
#                      # gateway over fault-injecting backends, zero
#                      # lost/duplicated acks (SSIM_QUICK)
#   ./ci.sh deep       # deep tier (not part of `all`; manual or
#                      # nightly): the journal kill-and-resume chaos
#                      # test and the 10k-connection load story
set -euo pipefail

stage() { echo "[ci $(date +%H:%M:%S)] $*"; }

do_fmt() {
  stage "cargo fmt --check"
  cargo fmt --check
}

do_clippy() {
  stage "cargo clippy --all-targets -- -D warnings"
  cargo clippy --all-targets -- -D warnings
}

do_build() {
  stage "cargo build --release"
  cargo build --release
}

do_test() {
  stage "cargo test -q"
  cargo test -q
}

do_asm() {
  # Assembler front-end gate. Three layers: every shipped corpus
  # program assembles (and bounded-runs) through the real CLI; the
  # differential harness proves the native workloads re-emit through
  # text to byte-identical programs and dynamic streams; a deterministic
  # fuzz pass (token soup + mutated corpus) proves the parser returns
  # diagnostics instead of panicking.
  stage "ssim-asm build --run (corpus assembles and halts)"
  cargo run --release -q -p ssim-asm --bin ssim-asm -- \
    build --define ROUNDS=2 --run 5000000 programs/*.asm
  stage "asm differential (native workloads re-emit identically)"
  cargo test --release -q -p ssim-workloads --test asm_differential
  stage "asm fuzz smoke (deterministic soup + corpus mutation)"
  cargo test --release -q -p ssim-asm --test fuzz
}

do_bench() {
  # The repository benchmark: each run checks its own outputs (round
  # digests, EDS accuracy, Pareto gap, lost or duplicated replies) and
  # exits non-zero on a failed check.
  for workload in paper-repro dse-sweep served-mix; do
    stage "perfbench $workload (10 s)"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 10 --trace 0
  done
}

do_dse() {
  # Surrogate-guided DSE planner against exhaustive ground truth on the
  # quick §4.6 space (budget, Pareto-gap, stratum-error and re-run
  # determinism gates) and on the synthetic 20k-point space (budget and
  # error-bar calibration). Release: the real-space sweep is minutes in
  # a debug build.
  stage "dse gates (planner vs exhaustive, quick space)"
  cargo test --release -q -p ssim-bench --test dse_gates -- --ignored
}

# Shared body of the load stages: three fault-injecting backends, a
# gateway over them, and the open-loop loadgen with its zero-lost /
# zero-duplicated ack gate. Runs in a subshell so the EXIT trap always
# reaps the servers and the temp dir, pass or fail. Scale comes from
# the caller's SSIM_QUICK / SSIM_DEEP (and the SSIM_LOAD_* knobs).
run_loadgen() (
  set -euo pipefail
  tmp="$(mktemp -d)"
  pids=()
  trap '[ "${#pids[@]}" -gt 0 ] && kill "${pids[@]}" 2>/dev/null; rm -rf "$tmp"' EXIT
  # Thousands of concurrent sockets need headroom over the default
  # soft fd limit (best effort — the hard limit is the ceiling).
  ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
  SSIM_FAULT_PLAN="drop:0.05,delay:1ms@7" target/release/ssim-serve serve \
    --addr 127.0.0.1:0 --port-file "$tmp/b0.port" --workers 2 >"$tmp/b0.log" 2>&1 &
  pids+=($!)
  SSIM_FAULT_PLAN="reject:0.1@11" target/release/ssim-serve serve \
    --addr 127.0.0.1:0 --port-file "$tmp/b1.port" --workers 2 >"$tmp/b1.log" 2>&1 &
  pids+=($!)
  target/release/ssim-serve serve \
    --addr 127.0.0.1:0 --port-file "$tmp/b2.port" --workers 2 >"$tmp/b2.log" 2>&1 &
  pids+=($!)
  for _ in $(seq 1 300); do
    [ -f "$tmp/b0.port" ] && [ -f "$tmp/b1.port" ] && [ -f "$tmp/b2.port" ] && break
    sleep 0.1
  done
  [ -f "$tmp/b2.port" ] || { echo "backends never wrote their port files" >&2; exit 1; }
  target/release/ssim-serve gateway --addr 127.0.0.1:0 --port-file "$tmp/gw.port" \
    "$(cat "$tmp/b0.port")" "$(cat "$tmp/b1.port")" "$(cat "$tmp/b2.port")" \
    >"$tmp/gw.log" 2>&1 &
  pids+=($!)
  for _ in $(seq 1 300); do [ -f "$tmp/gw.port" ] && break; sleep 0.1; done
  [ -f "$tmp/gw.port" ] || { echo "gateway never wrote its port file" >&2; exit 1; }
  target/release/loadgen "$(cat "$tmp/gw.port")"
)

do_load() {
  # The chaos/load gate: a gateway over backends that drop, delay and
  # reject must still lose or duplicate zero acknowledgements under
  # 1k-connection open-loop load.
  do_build
  stage "loadgen (gateway over chaos backends, SSIM_QUICK)"
  SSIM_QUICK=1 run_loadgen
}

do_deep() {
  # Deep tier — the journal kill-and-resume chaos test and the
  # 10k-connection load story. Too heavy for the per-push gate: run
  # manually or from the nightly/dispatch CI job.
  do_build
  stage "journal chaos (SIGKILL mid-sweep, resume, byte-identical digest)"
  SSIM_TEST_TIMEOUT_MS="${SSIM_TEST_TIMEOUT_MS:-300000}" \
    cargo test --release -q -p ssim-serve --test journal_chaos -- --ignored
  stage "loadgen (deep: 10k connections)"
  SSIM_DEEP=1 run_loadgen
}

case "${1:-all}" in
  fmt)    do_fmt ;;
  clippy) do_clippy ;;
  build)  do_build ;;
  test)   do_test ;;
  asm)    do_asm ;;
  bench)  do_bench ;;
  dse)    do_dse ;;
  load)   do_load ;;
  deep)   do_deep ;;
  all)
    do_fmt
    do_clippy
    do_build
    do_test
    do_asm
    do_bench
    do_dse
    do_load
    stage "all stages passed"
    ;;
  *)
    echo "usage: ./ci.sh [fmt|clippy|build|test|asm|bench|dse|load|deep|all]" >&2
    exit 2
    ;;
esac
