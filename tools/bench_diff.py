#!/usr/bin/env python3
"""Compares two directories of BENCH_*.json files, host time aside.

A bench JSON holds two kinds of numbers: simulated results, which are a pure
function of the seed and the configuration, and host-time measurements,
which vary from run to run. A change that claims to leave every simulated
result bit-identical must reproduce the first kind exactly, key sets
included. This tool checks that: both directories must hold the same
BENCH_*.json names, and each pair must be equal in every value and every
key, except these host-time fields, ignored at any depth:

  wall_seconds, events_per_sec      per-run wall time and event rate
  harness.* counters naming wall,   the registry's harness wall, offload
  offload or per_sec                and rate counters

It stops at the first other difference, prints its path and exits 1.

Usage:
  python3 tools/bench_diff.py DIR_A DIR_B

Exit status: 0 when every file matches, 1 at the first difference, 2 when a
directory holds no BENCH_*.json.
"""

import argparse
import glob
import json
import os
import sys

HOST_TIME_KEYS = {"wall_seconds", "events_per_sec"}
HARNESS_HOST_TERMS = ("wall", "offload", "per_sec")


def ignored(key):
    """True for a host-time field."""
    if key in HOST_TIME_KEYS:
        return True
    return key.startswith("harness.") and any(
        term in key for term in HARNESS_HOST_TERMS)


def first_difference(a, b, path):
    """The path of the first difference between a and b, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a = [k for k in a if not ignored(k)]
        keys_b = [k for k in b if not ignored(k)]
        if set(keys_a) != set(keys_b):
            only = sorted(set(keys_a) ^ set(keys_b))[0]
            side = "A" if only in a else "B"
            return f"{path}.{only}: only in {side}"
        for key in keys_a:
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if type(a) is not type(b) or a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def bench_files(directory):
    return sorted(os.path.basename(p)
                  for p in glob.glob(os.path.join(directory, "BENCH_*.json")))


def main():
    parser = argparse.ArgumentParser(
        description="Compare two directories of BENCH_*.json, host time aside.")
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args()

    names_a = bench_files(args.dir_a)
    names_b = bench_files(args.dir_b)
    if not names_a or not names_b:
        print("no BENCH_*.json in "
              f"{args.dir_a if not names_a else args.dir_b}")
        return 2
    if names_a != names_b:
        only = sorted(set(names_a) ^ set(names_b))[0]
        side = "A" if only in names_a else "B"
        print(f"{only}: only in {side}")
        return 1
    for name in names_a:
        with open(os.path.join(args.dir_a, name)) as f:
            doc_a = json.load(f)
        with open(os.path.join(args.dir_b, name)) as f:
            doc_b = json.load(f)
        diff = first_difference(doc_a, doc_b, name)
        if diff is not None:
            print(diff)
            return 1
    print(f"{len(names_a)} file(s) identical apart from host time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
