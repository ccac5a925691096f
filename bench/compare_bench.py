#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs and gate on regressions.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold 0.15]
                     [--benchmarks name1,name2,...]

Exits non-zero if any tracked benchmark's throughput (items_per_second,
falling back to 1/real_time) dropped by more than --threshold relative
to the baseline, or if a tracked benchmark is missing from the current
run (a silently deleted/renamed hot-path bench must not pass the
gate). Tracked benchmarks missing from the *baseline* only warn, so a
new bench can land before the baseline is refreshed.

Also enforces the no-negative-scaling invariant on the CURRENT run
alone (no baseline needed): threaded sharded dispatch must not be
slower than inline dispatch of the same configuration — the
regression that motivated the persistent shard-pinned workers.
Skipped with a warning on hosts with too few CPUs to make the
threaded row meaningful; --skip-scaling-check disables it explicitly.

The checked-in baseline (bench/BENCH_baseline.json) was recorded on one
reference machine; absolute numbers vary across hosts, which is why the
CI perf job is opt-in (workflow_dispatch) rather than part of every PR.
Refresh the baseline alongside any intentional perf-relevant change:

    ./build/bench/perf_micro --benchmark_format=json \
        --benchmark_min_time=0.5 > bench/BENCH_baseline.json
"""

import argparse
import json
import os
import sys

# Hot-path benchmarks the gate tracks by default; must stay in sync
# with the optimized paths listed in README "Performance".
DEFAULT_TRACKED = [
    "BM_H3Hash",
    "BM_ShadowRouterRoute",
    "BM_FullyAssocLru",
    "BM_UmonAccess",
    "BM_CombinedUMonAccess",
    "BM_TalusFacadeAccess",
    "BM_TalusBatchedAccess",
    "BM_TalusMonitorOffAccess",
    "BM_TalusRoutedAccess",
    # Sharded serving engine (inline dispatch: deterministic and
    # meaningful on any core count; threaded variants are reported
    # but not tracked). The sweep uses UseRealTime — work runs on
    # worker threads — which suffixes the names.
    "BM_ShardedBatchedAccess/shards:1/threads:0/real_time",
    "BM_ShardedBatchedAccess/shards:4/threads:0/real_time",
    # Single-worker dispatch (PR 10): the smallest threaded
    # configuration, tracked so ring-dispatch overhead regressions
    # show up without needing a many-core host.
    "BM_ShardedBatchedAccess/shards:4/threads:1/real_time",
    # Double-buffered block dispatch (PR 10): multi-block batches on
    # one worker, so the caller's scatter of block k+1 overlaps the
    # worker's drain of block k.
    "BM_ShardedPipelinedAccess/threads:1/real_time",
    # Control plane (PR 5): the pure compute stage and the all-shard
    # reconfiguration sweep. As above, only the inline-dispatch row of
    # the sweep is tracked; the threaded rows depend on core count.
    "BM_ControlPlaneStep",
    "BM_ShardedReconfigure/shards:8/threads:0/real_time",
    # Serving harness (PR 6): the closed-loop driver end to end
    # (scatter, ring dispatch, gather, latency bookkeeping). Inline
    # row only, as above. BM_ServingOpenLoop is deliberately NOT
    # tracked: its wall time is dominated by the fixed arrival
    # schedule, so items/s reflects the offered rate, not the code.
    "BM_ServingClosedLoop/shards:4/threads:0/real_time",
    # Observability layer (PR 9): the batched facade with metrics
    # publishing on. Tracked against the baseline like any hot path,
    # and additionally held to the metrics-off row by
    # OVERHEAD_INVARIANTS below.
    "BM_MetricsOverhead/metrics:0",
    "BM_MetricsOverhead/metrics:1",
]

# No-negative-scaling invariants, checked on the current run alone:
# each (inline, threaded, min_cpus) row pair must satisfy
# throughput(threaded) >= throughput(inline). min_cpus is the fewest
# host CPUs at which expecting the threaded row to win is fair (the
# caller thread mostly yields during a batch, so workers == cores is
# enough). The pairs pin the fix for the ROADMAP's negative-scaling
# bug: per-batch pool dispatch used to make threads:4 ~20% SLOWER
# than threads:0.
SCALING_INVARIANTS = [
    ("BM_ShardedBatchedAccess/shards:4/threads:0/real_time",
     "BM_ShardedBatchedAccess/shards:4/threads:4/real_time", 4),
    ("BM_ServingClosedLoop/shards:4/threads:0/real_time",
     "BM_ServingClosedLoop/shards:4/threads:4/real_time", 4),
]

# Bounded-overhead invariants, checked on the current run alone: each
# (off, on, max_overhead) pair must satisfy
# throughput(on) >= throughput(off) * (1 - max_overhead). Pins the
# observability layer's advertised <= 2% cost on the batched facade
# path; the margin above 2% absorbs run-to-run noise on shared CI
# hosts (single runs swing a few percent either way — the budget
# claim itself comes from repetition medians).
OVERHEAD_INVARIANTS = [
    ("BM_MetricsOverhead/metrics:0", "BM_MetricsOverhead/metrics:1",
     0.05),
]


def throughput(entry):
    """Items/sec of one benchmark entry (1/real_time fallback)."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    real_time = float(entry["real_time"])
    # google-benchmark reports per-iteration time in time_unit.
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}
    return scale[entry.get("time_unit", "ns")] / real_time


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        out[entry["name"]] = throughput(entry)
    return out


def check_scaling(curr, skip):
    """No-negative-scaling: threaded rows must beat inline rows.

    Returns the list of violated (inline, threaded, ratio) tuples.
    Pairs whose rows are absent from the current run are ignored here
    (the tracked-benchmark missing check already covers deletions of
    the inline rows)."""
    failures = []
    cpus = os.cpu_count() or 1
    for inline_name, threaded_name, min_cpus in SCALING_INVARIANTS:
        if inline_name not in curr or threaded_name not in curr:
            continue
        if skip:
            print(f"scaling check SKIPPED (--skip-scaling-check): "
                  f"{threaded_name}")
            continue
        if cpus < min_cpus:
            print(f"scaling check SKIPPED (host has {cpus} CPUs, "
                  f"needs >= {min_cpus}): {threaded_name}")
            continue
        ratio = curr[threaded_name] / curr[inline_name]
        flag = "" if ratio >= 1.0 else "  << NEGATIVE SCALING"
        print(f"scaling {threaded_name}: {ratio:.2f}x of inline{flag}")
        if ratio < 1.0:
            failures.append((inline_name, threaded_name, ratio))
    return failures


def check_overhead(curr):
    """Bounded overhead: instrumented rows must stay near the
    uninstrumented rows. Returns violated (off, on, ratio, budget)
    tuples; pairs with absent rows are ignored (the tracked-benchmark
    missing check covers deletions)."""
    failures = []
    for off_name, on_name, budget in OVERHEAD_INVARIANTS:
        if off_name not in curr or on_name not in curr:
            continue
        ratio = curr[on_name] / curr[off_name]
        flag = "" if ratio >= 1.0 - budget else "  << OVER BUDGET"
        print(f"overhead {on_name}: {ratio:.3f}x of {off_name} "
              f"(budget {budget:.0%}){flag}")
        if ratio < 1.0 - budget:
            failures.append((off_name, on_name, ratio, budget))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed fractional drop (default 0.15)")
    parser.add_argument("--benchmarks", default=",".join(DEFAULT_TRACKED),
                        help="comma-separated tracked benchmark names")
    parser.add_argument("--skip-scaling-check", action="store_true",
                        help="skip the no-negative-scaling invariant")
    args = parser.parse_args()

    base = load(args.baseline)
    curr = load(args.current)
    tracked = [b for b in args.benchmarks.split(",") if b]

    failures = []
    missing = []
    print(f"{'benchmark':<54} {'baseline':>14} {'current':>14} "
          f"{'ratio':>7}")
    for name in tracked:
        if name not in curr:
            # A tracked bench that did not run is a gate failure: a
            # rename/delete must not silently drop perf coverage.
            missing.append(name)
            print(f"{name:<54} {'—':>14} {'—':>14} {'—':>7}  "
                  f"<< MISSING from current run")
            continue
        if name not in base:
            print(f"{name:<54} {'—':>14} {curr[name]:>12.3e}/s "
                  f"{'—':>7}  (missing from baseline; warned only)")
            continue
        ratio = curr[name] / base[name]
        flag = ""
        if ratio < 1.0 - args.threshold:
            failures.append((name, ratio))
            flag = "  << REGRESSION"
        print(f"{name:<54} {base[name]:>12.3e}/s {curr[name]:>12.3e}/s "
              f"{ratio:>6.2f}x{flag}")

    print()
    scaling_failures = check_scaling(curr, args.skip_scaling_check)
    overhead_failures = check_overhead(curr)

    if failures or missing or scaling_failures or overhead_failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more "
              f"than {args.threshold:.0%}, {len(missing)} tracked "
              f"benchmark(s) missing from the current run, "
              f"{len(scaling_failures)} scaling invariant(s) "
              f"violated, {len(overhead_failures)} overhead "
              f"invariant(s) violated:")
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x of baseline")
        for name in missing:
            print(f"  {name}: missing from current run")
        for inline_name, threaded_name, ratio in scaling_failures:
            print(f"  {threaded_name}: {ratio:.2f}x of {inline_name} "
                  f"(threaded dispatch must not lose to inline)")
        for off_name, on_name, ratio, budget in overhead_failures:
            print(f"  {on_name}: {ratio:.3f}x of {off_name} "
                  f"(instrumentation budget {budget:.0%})")
        return 1
    print(f"\nOK: no tracked benchmark regressed more than "
          f"{args.threshold:.0%}; scaling and overhead invariants "
          f"hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
