#!/usr/bin/env python3
"""Repository benchmark for the P4DB simulator.

Builds the benchmark driver (perfbench/CMakeLists.txt) from the sources in
the checkout, runs one workload for a host-time budget, checks the
simulator's outputs and prints every metric by name with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload ycsb_mixed_closed --seed 42 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # all three workloads
    python3 perfbench/run.py --self-test             # short pass + checks

--trace 0 reports the end-to-end metrics from untraced repetitions;
--trace 1 reports the per-layer metrics from a separate traced invocation.
perfbench/README.md defines every metric and workload.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ["ycsb_mixed_closed", "smallbank_sharded_closed", "ycsb_hot_open"]

# (name, unit, better). setup_s / wall_s / host_* / peak_rss_mb are host
# measurements; sim_* are simulated time and repeat exactly per seed.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("host_txn_per_s", "txn/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_txn_per_s", "txn/s", "higher"),
    ("sim_p50_us", "us", "lower"),
    ("sim_p99_us", "us", "lower"),
    ("sim_p999_us", "us", "lower"),
]

PER_LAYER = [
    # offload (core/hotset, access_graph, maxcut, layout)
    ("offload.sample_s", "s", "lower"),
    ("offload.observe_s", "s", "lower"),
    ("offload.topk_s", "s", "lower"),
    ("offload.graph_s", "s", "lower"),
    ("offload.plan_s", "s", "lower"),
    ("offload.install_s", "s", "lower"),
    ("offload.hot_items", "count", "higher"),
    ("offload.graph_edges", "count", "lower"),
    ("offload.cut_quality", "ratio", "higher"),
    # workload
    ("workload.ns_per_txn", "ns", "lower"),
    ("workload.est_share", "ratio", "lower"),
    # partition_manager
    ("classify.ns_per_txn", "ns", "lower"),
    ("classify.est_share", "ratio", "lower"),
    ("compile.ns_per_txn", "ns", "lower"),
    ("compile.est_share", "ratio", "lower"),
    ("compile.predicted_passes_mean", "passes", "lower"),
    # db/table
    ("table.ns_per_get", "ns", "lower"),
    ("table.est_share", "ratio", "lower"),
    ("table.rows_materialized", "count", "lower"),
    ("table.rows_per_txn", "1/txn", "lower"),
    # cc + lock_manager
    ("lock.node.acquisitions_per_txn", "1/txn", "lower"),
    ("lock.node.waits_per_txn", "1/txn", "lower"),
    ("lock.node.no_wait_aborts_per_txn", "1/txn", "lower"),
    ("lock.ns_per_acquire", "ns", "lower"),
    ("lock.est_share", "ratio", "lower"),
    # db/wal
    ("wal.host_commits_per_txn", "1/txn", "lower"),
    ("wal.switch_intents_per_txn", "1/txn", "lower"),
    ("wal.logged_writes_per_txn", "1/txn", "lower"),
    ("wal.ns_per_append", "ns", "lower"),
    ("wal.est_share", "ratio", "lower"),
    # net + egress_batcher
    ("net.messages_per_txn", "1/txn", "lower"),
    ("net.bytes_per_txn", "B/txn", "lower"),
    ("net.batched_txns_per_batch", "txn", "higher"),
    ("codec.ns_per_packet", "ns", "lower"),
    ("codec.est_share", "ratio", "lower"),
    # switchsim
    ("switch.txns_per_txn", "1/txn", "higher"),
    ("switch.passes_per_switch_txn", "passes", "lower"),
    ("switch.multi_pass_frac", "ratio", "lower"),
    ("switch.lock_blocked_recircs_per_switch_txn", "1/txn", "lower"),
    ("switch.holder_recircs_per_switch_txn", "1/txn", "lower"),
    ("switch.constrained_write_failures", "1/txn", "lower"),
    ("switch.recircs_p99", "count", "lower"),
    ("switch.ns_per_txn", "ns", "lower"),
    ("switch.est_share", "ratio", "lower"),
    # sim
    ("sim.events_per_txn", "1/txn", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.switch_shard_event_share", "ratio", "lower"),
    ("sim.max_shard_event_share", "ratio", "lower"),
    # engine
    ("engine.attempts_per_txn", "1/txn", "lower"),
    ("engine.abort_rate", "ratio", "lower"),
    ("engine.failed_frac", "ratio", "lower"),
    ("engine.admission_depth_p99", "count", "lower"),
    ("engine.admission_shed_frac", "ratio", "lower"),
    ("engine.allocs_per_txn", "1/txn", "lower"),
    # simulated attribution (Metrics::breakdown), per committed txn
    ("cp.lock_wait_us", "us", "lower"),
    ("cp.remote_access_us", "us", "lower"),
    ("cp.switch_access_us", "us", "lower"),
    ("cp.local_work_us", "us", "lower"),
    ("cp.commit_us", "us", "lower"),
    ("cp.backoff_us", "us", "lower"),
    # per class of transaction
    ("class.hot.frac", "ratio", "higher"),
    ("class.hot.p99_us", "us", "lower"),
    ("class.hot.abort_rate", "ratio", "lower"),
    ("class.warm.frac", "ratio", "lower"),
    ("class.warm.p99_us", "us", "lower"),
    ("class.warm.abort_rate", "ratio", "lower"),
    ("class.cold.frac", "ratio", "lower"),
    ("class.cold.p99_us", "us", "lower"),
    ("class.cold.abort_rate", "ratio", "lower"),
    # bases of the ratios above, and the traced-vs-untraced difference
    ("harness.run_ns_per_txn", "ns", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Committed transactions in the 10 ms measured window, pinned per seed. Seed
# 42 reproduces bench_hotpath's fig11_ycsb_p4db_8node (ycsb_mixed_closed)
# and the 6 M txn/s batch=8 row of bench/baselines/BENCH_openloop.json
# (ycsb_hot_open); seed 1234 is the held-out seed. A change that is meant to
# move simulated results re-pins these in its own benchmark change.
PINNED_COMMITTED = {
    ("ycsb_mixed_closed", 42): 84216,
    ("smallbank_sharded_closed", 42): 75749,
    ("ycsb_hot_open", 42): 59779,
    ("ycsb_mixed_closed", 1234): 84688,
    ("smallbank_sharded_closed", 1234): 71851,
    ("ycsb_hot_open", 1234): 60012,
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def child_env():
    """Environment for every child process: compiler temporaries stay
    inside the build directory, like everything else the benchmark
    writes."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_quiet(cmd, timeout):
    """Runs `cmd`, returning (ok, combined output)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout, check=False, env=child_env())
    except (OSError, subprocess.TimeoutExpired) as err:
        return False, str(err)
    return proc.returncode == 0, proc.stdout


def build():
    """Configures (once) and builds the driver; incremental afterwards."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs]
    ok, out = True, ""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        ok, out = run_quiet(configure, timeout=120)
    if ok:
        ok, out = run_quiet(compile_, timeout=600)
    if not ok:
        log(out[-4000:])
        fail("build failed")


def run_driver(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", "trace" if trace else "e2e"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=seconds + 120, check=False,
                              env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver timed out")
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        fail(f"{workload}: driver exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def evaluate(doc, trace):
    """Applies the output checks and attaches units. Returns the result."""
    checks = dict(doc["checks"])
    pinned = PINNED_COMMITTED.get((doc["workload"], int(doc["seed"])))
    if pinned is not None:
        checks["pinned_committed"] = int(doc["committed"]) == pinned
    correct = all(checks.values())
    attempted = int(doc["attempted"])
    failed = int(doc["failed"]) if correct else attempted
    metrics = {}
    for name, unit, _ in (PER_LAYER if trace else END_TO_END):
        if name not in doc["metrics"]:
            fail(f"{doc['workload']}: driver did not report {name}")
        metrics[name] = {"value": doc["metrics"][name], "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, checks


def report(doc, result, checks):
    """Human-readable lines ahead of the result line."""
    trace = doc["mode"] == "trace"
    table = PER_LAYER if trace else END_TO_END
    print(f"== {doc['workload']} seed={int(doc['seed'])} mode={doc['mode']} "
          f"repetitions={len(doc['reps']) + len(doc['traced_reps'])}")
    print(f"  committed under the seed itself: {int(doc['committed'])} "
          f"(registry digest {doc['digest']})")
    print(f"  warm-up repetition (discarded): "
          f"wall {doc['warmup_wall_s']:.4f} s")
    if not trace:
        print(f"  sim_* pool {int(doc['sim_samples'])} latency samples "
              f"from {int(doc['sub_seeds'])} sub-seeds")
    for name, unit, better in table:
        value = result["metrics"][name]["value"]
        print(f"  {name:45s} {value:16.6g} {unit:8s} ({better} is better)")
    for name, ok in sorted(checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for name, ok in sorted(doc.get("advisories", {}).items()):
        print(f"  advisory {name}: {'ok' if ok else 'not met'}")
    if trace:
        for name, span in sorted(doc["spans"].items()):
            print(f"  span {name:28s} n={int(span['count']):4d} "
                  f"median={span['median_s'] * 1e3:10.4f} ms")


def run_one(workload, seed, seconds, trace):
    doc = run_driver(workload, seed, seconds, trace)
    result, checks = evaluate(doc, trace)
    report(doc, result, checks)
    return result


def run_all(seed, seconds, trace, rounds):
    """Every workload, each in its own process, rotating the order by
    round so no workload always runs first."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for r in range(rounds):
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for workload in order:
            result = run_one(workload, seed, seconds, trace)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}.r{r}"] = m
    return merged


def self_test():
    """Short pass of all three workloads. Checks the metric table against
    BENCHMARK.json, the naming rules and the limits, every metric's
    presence, and that sim_* values repeat bit for bit within a seed."""
    problems = []
    for table, limit in ((END_TO_END, 16), (PER_LAYER, 128)):
        if len(table) > limit:
            problems.append(f"{len(table)} metrics exceed the limit {limit}")
    names = [n for n, _, _ in END_TO_END + PER_LAYER]
    problems += [f"bad metric name {n}" for n in names if not NAME_RE.match(n)]
    if len(set(names)) != len(names):
        problems.append("duplicate metric names")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {(m["name"], m["unit"], m["better"]) for m in bench[key]}
        if declared != set(table):
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(declared ^ set(table))}")
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        first = run_one(workload, 42, 1, trace=False)
        second = run_one(workload, 42, 1, trace=False)
        layers = run_one(workload, 1234, 1, trace=True)
        for result in (first, second, layers):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: output check failed")
        for name in first["metrics"]:
            if (name.startswith("sim_") and first["metrics"][name]["value"]
                    != second["metrics"][name]["value"]):
                problems.append(f"{workload}: {name} differs across runs")
    for p in problems:
        print(f"self-test: {p}")
    print(f"self-test: {'PASS' if not problems else 'FAIL'}")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="with --workload all: rounds, order rotated")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace, args.rounds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
