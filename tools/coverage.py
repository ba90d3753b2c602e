#!/usr/bin/env python3
"""Line coverage of src/ by what drives it: figures, scenarios, examples, tests.

Builds the repository with `--coverage -O1` in its own build directory, then
runs four sets of programs cumulatively and aggregates gcov's JSON output over
src/ after each set:

  1. figures   - the 12 figure benches under P4DB_BENCH_QUICK=1;
  2. scenarios - failover, open loop with and without INT, a4_occ with the
                 egress batcher and INT, fig11 on the sharded runtime and
                 fig11 with a Chrome-trace export;
  3. examples  - every example binary once;
  4. tests     - ctest.

It prints the cumulative table, then per file and per function the lines
reached only by tests (set 4 but none of 1-3) and the lines never reached,
and writes the same numbers as JSON. A line is instrumented if any
translation unit has code on it, and reached if any executed it.

Usage:
  python3 tools/coverage.py [--build-dir build-coverage] [--json PATH]

Builds and runs with one job per CPU.

Needs only the toolchain's gcov (gcov >= 9 for --json-format).
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
JOBS = os.cpu_count() or 1

FIGURES = [
    ["bench_fig01_teaser"],
    ["bench_fig11_ycsb"],
    ["bench_fig12_breakdown"],
    ["bench_fig13_smallbank"],
    ["bench_fig14_tpcc"],
    ["bench_fig15_hotcold"],
    ["bench_fig15c_opts"],
    ["bench_fig16_layout"],
    ["bench_fig17_capacity"],
    ["bench_fig18a_latency"],
    ["bench_fig18b_existing"],
    ["bench_a4_occ"],
]
SCENARIOS = [
    ["bench_failover"],
    ["bench_openloop"],
    ["bench_openloop", "--int"],
    ["bench_a4_occ", "--batch=4", "--int"],
    ["bench_fig11_ycsb", "--threads=2"],
    ["bench_fig11_ycsb", "--trace=trace.json"],
]
STAGES = ["figures", "+ scenarios", "+ examples", "+ tests"]


def run(cmd, cwd, env=None):
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout[-4000:])
        raise SystemExit(f"coverage: {' '.join(cmd)} exited "
                         f"{proc.returncode} (in {cwd})")


def build(build_dir):
    run(["cmake", "-S", REPO, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_CXX_FLAGS=--coverage -O1",
         "-DCMAKE_CXX_FLAGS_RELEASE=-DNDEBUG"], REPO)
    run(["cmake", "--build", build_dir, "-j", str(JOBS)], REPO)


def run_binaries(commands, bin_dir, runs_dir):
    """Runs each command in its own scratch directory, JOBS at a time.
    libgcov locks each .gcda file while it merges, so concurrent runs add up."""
    env = dict(os.environ, P4DB_BENCH_QUICK="1")

    def one(i_cmd):
        i, cmd = i_cmd
        cwd = os.path.join(runs_dir, f"{i:02d}_{cmd[0]}")
        os.makedirs(cwd, exist_ok=True)
        run([os.path.join(bin_dir, cmd[0])] + cmd[1:], cwd, env)

    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        list(pool.map(one, enumerate(commands)))


def gcov_lines(build_dir):
    """{(src-relative file, line): (count, function)} over every object."""
    notes = []
    for root, _, files in os.walk(build_dir):
        notes += [os.path.join(root, f) for f in files if f.endswith(".gcno")]
    lines = {}
    scratch = os.path.join(build_dir, "coverage-gcov")
    os.makedirs(scratch, exist_ok=True)
    for i in range(0, len(notes), 64):
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + notes[i:i + 64],
            cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"coverage: gcov exited {proc.returncode}")
        decoder = json.JSONDecoder()
        text, pos = proc.stdout, 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            doc, pos = decoder.raw_decode(text, pos)
            cwd = doc.get("current_working_directory", "")
            for f in doc["files"]:
                path = os.path.normpath(os.path.join(cwd, f["file"]))
                # A reused build directory keeps notes of deleted sources.
                if not (path.startswith(SRC + os.sep) and
                        os.path.exists(path)):
                    continue
                rel = os.path.relpath(path, REPO)
                names = {fn["name"]: fn["demangled_name"]
                         for fn in f.get("functions", [])}
                for ln in f["lines"]:
                    key = (rel, ln["line_number"])
                    mangled = ln.get("function_name", "(no function)")
                    fn = names.get(mangled, mangled)
                    count, prev_fn = lines.get(key, (0, fn))
                    lines[key] = (max(count, ln["count"]), prev_fn)
    shutil.rmtree(scratch, ignore_errors=True)
    return lines


def reached(lines):
    return {key for key, (count, _) in lines.items() if count > 0}


def tally(keys, functions):
    per_file, per_fn = {}, {}
    for key in keys:
        per_file[key[0]] = per_file.get(key[0], 0) + 1
        fn = (key[0], functions[key])
        per_fn[fn] = per_fn.get(fn, 0) + 1
    return per_file, per_fn


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO,
                                                        "build-coverage"))
    ap.add_argument("--json", default=None,
                    help="output path (default: <build-dir>/coverage.json)")
    args = ap.parse_args()
    build_dir = os.path.abspath(args.build_dir)
    out_json = args.json or os.path.join(build_dir, "coverage.json")

    build(build_dir)
    for root, _, files in os.walk(build_dir):
        for f in files:
            if f.endswith(".gcda"):
                os.remove(os.path.join(root, f))
    runs_dir = os.path.join(build_dir, "coverage-runs")
    shutil.rmtree(runs_dir, ignore_errors=True)

    bench_dir = os.path.join(build_dir, "bench")
    example_dir = os.path.join(build_dir, "examples")
    examples = sorted(
        [f[:-len(".cpp")]] for f in os.listdir(os.path.join(REPO, "examples"))
        if f.endswith(".cpp"))
    runners = [
        lambda: run_binaries(FIGURES, bench_dir, runs_dir),
        lambda: run_binaries(SCENARIOS, bench_dir, runs_dir),
        lambda: run_binaries(examples, example_dir, runs_dir),
        lambda: run(["ctest", "-j", str(JOBS), "--output-on-failure"],
                    build_dir),
    ]
    snapshots = []
    for name, run_set in zip(STAGES, runners):
        run_set()
        snapshots.append(gcov_lines(build_dir))
        print(f"coverage: {name} done", file=sys.stderr)

    final = snapshots[-1]
    total = len(final)
    functions = {key: fn for key, (_, fn) in final.items()}
    reach = [reached(s) for s in snapshots]
    only_tests = reach[3] - reach[2]
    never = set(final) - reach[3]
    files_only, fns_only = tally(only_tests, functions)
    files_never, fns_never = tally(never, functions)
    files_all, _ = tally(final.keys(), functions)

    print(f"Instrumented src/ lines: {total}\n")
    print("| Driven by | Lines reached | Share |")
    print("|---|---|---|")
    stages = []
    for name, r in zip(STAGES, reach):
        share = len(r) / total if total else 0.0
        stages.append({"name": name, "reached": len(r), "share": share})
        print(f"| {name} | {len(r)} | {100 * share:.1f}% |")
    print(f"\nReached only by tests: {len(only_tests)} lines; "
          f"never reached: {len(never)} lines.\n")

    files = [{"file": f, "instrumented": n,
              "reached_only_by_tests": files_only.get(f, 0),
              "never_reached": files_never.get(f, 0)}
             for f, n in sorted(files_all.items())]
    print("| File | Instrumented | Only tests | Never |")
    print("|---|---|---|---|")
    for row in sorted(files, key=lambda r: -(r["reached_only_by_tests"] +
                                             r["never_reached"])):
        if row["reached_only_by_tests"] + row["never_reached"] == 0:
            continue
        print(f"| {row['file']} | {row['instrumented']} | "
              f"{row['reached_only_by_tests']} | {row['never_reached']} |")

    def fn_rows(counts):
        return [{"file": f, "function": fn, "lines": n}
                for (f, fn), n in sorted(counts.items(),
                                         key=lambda kv: (-kv[1], kv[0]))]

    fn_only, fn_never = fn_rows(fns_only), fn_rows(fns_never)
    for title, rows in (("reached only by tests", fn_only),
                        ("never reached", fn_never)):
        print(f"\nFunctions with lines {title} ({len(rows)}):")
        for row in rows:
            print(f"  {row['lines']:5d}  {row['file']}  {row['function']}")

    with open(out_json, "w") as f:
        json.dump({"instrumented_lines": total, "stages": stages,
                   "reached_only_by_tests": len(only_tests),
                   "never_reached": len(never), "files": files,
                   "functions_reached_only_by_tests": fn_only,
                   "functions_never_reached": fn_never}, f, indent=1)
    print(f"\nwrote {out_json}")


if __name__ == "__main__":
    main()
