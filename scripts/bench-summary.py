#!/usr/bin/env python3
"""Summarize Criterion results as machine-readable JSON.

Walks ``target/criterion`` for ``new/estimates.json`` files (one per
benchmark) and writes a flat ``{bench_id: median_ns}`` mapping, so CI can
archive per-commit performance numbers as a build artifact and downstream
tooling can diff them without parsing Criterion's directory layout.

Usage:
    python3 scripts/bench-summary.py [criterion_dir] [output.json] \
        [--groups GROUP ...]

Defaults: ``target/criterion`` and ``BENCH_engine.json``. With
``--groups``, only benchmark ids whose first path component is one of
the named Criterion groups are summarized — so one criterion tree can
feed several summary files (e.g. ``--groups campaign_throughput
decision_log`` for the scheduler summary).

A requested group with no estimates (not yet sampled, renamed, or an
empty directory) still gets a stable entry: a warning on stderr and a
``null`` placeholder under ``missing`` in the summary, so downstream
diffs see an explicit hole instead of a silently absent key. The exit
code is non-zero only when *nothing* was found — no estimates at all, or
every requested group missing.
"""

import json
import os
import sys


def collect(criterion_dir, groups=None):
    """Map benchmark id -> median point estimate in nanoseconds."""
    medians = {}
    for root, _dirs, files in os.walk(criterion_dir):
        if os.path.basename(root) != "new" or "estimates.json" not in files:
            continue
        with open(os.path.join(root, "estimates.json")) as fh:
            estimates = json.load(fh)
        median = estimates.get("median", {}).get("point_estimate")
        if median is None:
            continue
        # <criterion_dir>/<group>/<bench>/new -> "group/bench"; Criterion
        # flattens ungrouped benches to <criterion_dir>/<bench>/new.
        rel = os.path.relpath(os.path.dirname(root), criterion_dir)
        bench_id = rel.replace(os.sep, "/")
        if groups is not None and bench_id.split("/", 1)[0] not in groups:
            continue
        medians[bench_id] = median
    return medians


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
    medians = collect(criterion_dir, groups)
    missing = []
    if groups is not None:
        present = {bench_id.split("/", 1)[0] for bench_id in medians}
        missing = sorted(groups - present)
        for group in missing:
            print(
                f"warning: no Criterion estimates for group {group!r} under "
                f"{criterion_dir!r}; emitting a null placeholder",
                file=sys.stderr,
            )
    if not medians:
        print(f"error: no Criterion estimates under {criterion_dir!r}", file=sys.stderr)
        return 1
    summary = {
        "schema": "wfbb-bench-summary",
        "version": 1,
        "unit": "ns",
        "medians": dict(sorted(medians.items())),
    }
    if missing:
        # Stable placeholders: every requested-but-absent group appears
        # explicitly, so artifact diffs distinguish "not sampled" from
        # "renamed away".
        summary["missing"] = {group: None for group in missing}
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    note = f", {len(missing)} group(s) missing" if missing else ""
    print(f"wrote {out_path} ({len(medians)} benchmark(s){note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
