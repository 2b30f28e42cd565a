#!/usr/bin/env bash
# CI gate: run the test suite in two tiers and report each tier's wall clock.
#
#   fast tier     everything except the real-socket and chaos tests, with
#                 sweeps fanned out over all cores (REPRO_JOBS=auto) and the
#                 on-disk result cache enabled -- a warm .repro-cache/ makes
#                 this tier cheap.
#   chaos tier    the fault-injection sweeps plus the resilience-marked
#                 tests (-m "chaos or resilience") and the metastable-
#                 failure benchmark: slower end-to-end determinism and
#                 recovery checks across worker processes.
#   realnet tier  the loopback-socket tests (-m realnet) on their own, so
#                 timing-sensitive socket work is not interleaved with the
#                 CPU-heavy simulation tier.
#   perf-smoke    a reduced-scale run of the kernel perf suite — including
#                 the tcp-spin benchmark (Table IV write-spin at 0/5 ms RTT
#                 plus the flow-level drain pattern) — gated against the
#                 committed BENCH_core.json: fails when any rate metric
#                 (events/sec and friends) regresses more than 30% below
#                 the tracked baseline, and fails hard when the baseline's
#                 gated-metric set does not match the suite's (a stale
#                 baseline must be regenerated, not silently skipped).
#                 Wall times are not gated (they scale with --scale);
#                 rates are scale-free.  Skipped when BENCH_core.json is
#                 absent.
#   cache tier    the cache-marked tests (cache-tier stores, single-flight
#                 coalescing, golden cache digests, the stampede artifact
#                 smoke) with the REPRO_CACHE kill switch pinned *on*, so
#                 a developer shell that disabled the tier cannot silently
#                 skip its coverage.
#   tcpfast tier  the tcpfast-marked equivalence tests (including the
#                 golden-digest matrix) re-run with REPRO_TCP_FASTPATH=0,
#                 proving the per-segment TCP path still produces
#                 bit-identical results so any digest mismatch can be
#                 bisected to the flow-level fast path in one run.
#   failover tier the failover-marked tests (replica groups, crash-
#                 restart faults, hedging, the golden replica digests and
#                 the failover artifact benchmark) with REPRO_REPLICA
#                 pinned *on*, followed by a kill-switch equivalence run:
#                 the golden-digest matrix re-executed under
#                 REPRO_REPLICA=0 must reproduce every pre-replica digest
#                 bit-for-bit (the replica layer is provably inert when
#                 killed).
#   dag tier      the dag-marked tests (DagConfig validation, fan-in
#                 policies, gray-failure degrade windows, latency-aware
#                 ejection, golden DAG digests and the DAG artifact
#                 benchmark) with REPRO_DAG pinned *on*, followed by a
#                 kill-switch equivalence run: the golden-digest matrix
#                 under REPRO_DAG=0 must reproduce every pre-DAG digest
#                 bit-for-bit (a DAG config collapses to the classic
#                 linear chain when killed; the dag-marked rows are
#                 deselected because they deliberately pin the live
#                 layer's own digests).
#   cohort tier   the cohort-marked tests (aggregate arrival engines,
#                 lazy materialization, golden cohort digests, the
#                 bounded-heap check and the million-client artifact
#                 benchmark) with REPRO_COHORT pinned *on*, followed by a
#                 kill-switch equivalence run: the golden-digest matrix
#                 under REPRO_COHORT=0 must reproduce every pre-cohort
#                 digest bit-for-bit (lazy cohorts demote to the classic
#                 builder when killed; the cohort-marked rows are
#                 deselected because they deliberately pin the lazy
#                 engine's own digests).
#
# Usage: tools/ci_check.sh [extra pytest args for both tiers]

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src
export REPRO_JOBS="${REPRO_JOBS:-auto}"

run_tier() {
    local name=$1; shift
    local started elapsed
    started=$SECONDS
    python -m pytest -q "$@"
    elapsed=$((SECONDS - started))
    eval "${name}_elapsed=$elapsed"
    echo "[ci_check] $name tier: ${elapsed}s"
}

echo "[ci_check] fast tier (REPRO_JOBS=$REPRO_JOBS, cache: ${REPRO_CACHE:-on})"
run_tier fast -m "not realnet and not chaos and not cache and not failover and not cohort and not dag" "$@"

echo "[ci_check] chaos tier"
run_tier chaos -m "chaos or resilience" tests benchmarks/test_bench_metastable.py "$@"

echo "[ci_check] cache tier (REPRO_CACHE=1 pinned)"
# Same export/unset discipline as the tcpfast tier below; REPRO_CACHE
# doubles as the sweep memo-cache switch, so restore the inherited value
# rather than leaving our pin behind.
_saved_repro_cache="${REPRO_CACHE-__unset__}"
export REPRO_CACHE=1
run_tier cache -m cache tests benchmarks/test_bench_cache.py "$@"
if [[ "$_saved_repro_cache" == "__unset__" ]]; then
    unset REPRO_CACHE
else
    export REPRO_CACHE="$_saved_repro_cache"
fi

echo "[ci_check] failover tier (REPRO_REPLICA=1 pinned)"
_saved_repro_replica="${REPRO_REPLICA-__unset__}"
export REPRO_REPLICA=1
run_tier failover -m failover tests benchmarks/test_bench_failover.py "$@"
echo "[ci_check] replica kill-switch equivalence (REPRO_REPLICA=0)"
# The failover-marked digest rows are deselected: under the kill switch
# the replica configs deliberately collapse to the classic topology, so
# only the pre-replica digests are expected to reproduce.
export REPRO_REPLICA=0
run_tier replicakill -m "not failover" tests/test_kernel_determinism_golden.py "$@"
if [[ "$_saved_repro_replica" == "__unset__" ]]; then
    unset REPRO_REPLICA
else
    export REPRO_REPLICA="$_saved_repro_replica"
fi

echo "[ci_check] dag tier (REPRO_DAG=1 pinned)"
_saved_repro_dag="${REPRO_DAG-__unset__}"
export REPRO_DAG=1
run_tier dag -m dag tests benchmarks/test_bench_dag.py "$@"
echo "[ci_check] dag kill-switch equivalence (REPRO_DAG=0)"
# The dag-marked digest rows are deselected: under the kill switch a DAG
# config deliberately collapses to the classic linear chain, so only the
# pre-DAG digests are expected to reproduce.
export REPRO_DAG=0
run_tier dagkill -m "not dag" tests/test_kernel_determinism_golden.py "$@"
if [[ "$_saved_repro_dag" == "__unset__" ]]; then
    unset REPRO_DAG
else
    export REPRO_DAG="$_saved_repro_dag"
fi

echo "[ci_check] cohort tier (REPRO_COHORT=1 pinned)"
_saved_repro_cohort="${REPRO_COHORT-__unset__}"
export REPRO_COHORT=1
run_tier cohort -m cohort tests benchmarks/test_bench_million.py "$@"
echo "[ci_check] cohort kill-switch equivalence (REPRO_COHORT=0)"
export REPRO_COHORT=0
run_tier cohortkill -m "not cohort" tests/test_kernel_determinism_golden.py "$@"
if [[ "$_saved_repro_cohort" == "__unset__" ]]; then
    unset REPRO_COHORT
else
    export REPRO_COHORT="$_saved_repro_cohort"
fi

echo "[ci_check] realnet tier"
run_tier realnet -m realnet "$@"

echo "[ci_check] tcpfast tier (REPRO_TCP_FASTPATH=0 equivalence)"
# Explicit export/unset: a VAR=x prefix on a *function* call would persist
# into the perf-smoke tier below (bash quirk), disabling the fast path
# during the very benchmark that gates its speedup.
export REPRO_TCP_FASTPATH=0
run_tier tcpfast -m tcpfast "$@"
unset REPRO_TCP_FASTPATH

perf_elapsed=0
if [[ -f BENCH_core.json ]]; then
    echo "[ci_check] perf-smoke tier (vs BENCH_core.json, tolerance 30%)"
    started=$SECONDS
    python -m repro perf --scale 0.2 --repeats 2 \
        --check BENCH_core.json --tolerance 0.30
    perf_elapsed=$((SECONDS - started))
    echo "[ci_check] perf-smoke tier: ${perf_elapsed}s"
else
    echo "[ci_check] perf-smoke tier skipped (no BENCH_core.json)"
fi

echo "[ci_check] done: fast ${fast_elapsed}s + chaos ${chaos_elapsed}s + cache ${cache_elapsed}s + failover ${failover_elapsed}s + replicakill ${replicakill_elapsed}s + dag ${dag_elapsed}s + dagkill ${dagkill_elapsed}s + cohort ${cohort_elapsed}s + cohortkill ${cohortkill_elapsed}s + realnet ${realnet_elapsed}s + tcpfast ${tcpfast_elapsed}s + perf ${perf_elapsed}s"
