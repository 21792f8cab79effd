#!/usr/bin/env python3
"""Summarize Criterion results, with their spread, as machine-readable JSON.

Walks ``target/criterion`` for ``new/sample.json`` files (one per
benchmark; written by real criterion and by the vendored stand-in) and
writes ``{bench_id: {min, median, max, n}}`` in nanoseconds per
iteration, so CI can archive per-commit performance numbers as a build
artifact and downstream tooling can diff them without parsing
Criterion's directory layout. The median is ``sorted[n // 2]``, the
sample the stand-in prints.

Usage:
    python3 scripts/bench-summary.py [criterion_dir] [output.json] \
        [--groups GROUP ...]

Defaults: ``target/criterion`` and ``BENCH_engine.json``. With
``--groups``, only benchmark ids whose first path component is one of
the named Criterion groups are summarized, and a named group with no
samples (not sampled, renamed, or an empty directory) is an error.
The exit code is 1 when any requested group, or everything, is missing.
"""

import json
import os
import sys


def spread(sample):
    """{min, median, max, n} of one sample.json's per-iteration times."""
    per_iter = sorted(t / i for t, i in zip(sample["times"], sample["iters"]))
    return {
        "min": round(per_iter[0], 1),
        "median": round(per_iter[len(per_iter) // 2], 1),
        "max": round(per_iter[-1], 1),
        "n": len(per_iter),
    }


def collect(criterion_dir, groups=None):
    """Map benchmark id -> spread, in nanoseconds per iteration."""
    benches = {}
    for root, _dirs, files in os.walk(criterion_dir):
        if os.path.basename(root) != "new" or "sample.json" not in files:
            continue
        # <criterion_dir>/<group>/<bench>/new -> "group/bench"; Criterion
        # flattens ungrouped benches to <criterion_dir>/<bench>/new.
        rel = os.path.relpath(os.path.dirname(root), criterion_dir)
        bench_id = rel.replace(os.sep, "/")
        if groups is not None and bench_id.split("/", 1)[0] not in groups:
            continue
        with open(os.path.join(root, "sample.json")) as fh:
            benches[bench_id] = spread(json.load(fh))
    return benches


def main():
    args = sys.argv[1:]
    groups = None
    if "--groups" in args:
        split = args.index("--groups")
        groups = set(args[split + 1 :])
        args = args[:split]
        if not groups:
            print("error: --groups needs at least one group name", file=sys.stderr)
            return 2
    criterion_dir = args[0] if len(args) > 0 else "target/criterion"
    out_path = args[1] if len(args) > 1 else "BENCH_engine.json"
    benches = collect(criterion_dir, groups)
    if groups is not None:
        present = {bench_id.split("/", 1)[0] for bench_id in benches}
        missing = sorted(groups - present)
        if missing:
            print(
                f"error: no Criterion samples under {criterion_dir!r} for "
                f"group(s) {', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
    if not benches:
        print(f"error: no Criterion samples under {criterion_dir!r}", file=sys.stderr)
        return 1
    summary = {
        "schema": "wfbb-bench-summary",
        "version": 2,
        "unit": "ns",
        "benches": benches,
    }
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path} ({len(benches)} benchmark(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
