#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload and metric by metric.

    python3 bench/compare.py BASE_DIR NEW_DIR   # medians, quartiles, deltas
    python3 bench/compare.py --overhead DIR     # traced minus untraced, one set

Each directory holds the ``*.json`` records that ``bench/run.py`` writes
(``.bench_results/`` by default).  End-to-end metrics come from untraced runs
and are judged against the bounds in BENCHMARK.json; per-layer metrics come
from traced runs and are reported as deltas.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "workload" in record and "end_to_end" in record:
            records.append(record)
    if not records:
        raise SystemExit(f"compare: no result records in {directory}")
    return records


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def collect(records: list[dict], workload: str, trace: int, section: str) -> dict[str, list]:
    out: dict[str, list] = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == trace:
            for name, metric in record[section].items():
                out.setdefault(name, []).append(metric["value"])
    return out


def specs() -> dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def fmt(values: list[float]) -> str:
    median, q1, q3 = summary(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def describe_set(label: str, records: list[dict]) -> None:
    revs = sorted({str(r["environment"].get("git_rev") or r["environment"]["source_sha256"][:12])
                   for r in records})
    env = records[0]["environment"]
    print(f"{label}: {len(records)} runs, revision {', '.join(revs)}; python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas'].get('vendor')} "
          f"x{env['blas'].get('threads')}, nproc {env['nproc']}")


def compare(base: list[dict], new: list[dict]) -> int:
    spec = specs()
    describe_set("base", base)
    describe_set("new ", new)
    regressions = 0
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        print(f"\n== {workload}")
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            a, b = collect(base, workload, trace, section), collect(new, workload, trace, section)
            for name in [n for n in a if n in b]:
                ma, mb = summary(a[name])[0], summary(b[name])[0]
                delta = (mb - ma) / abs(ma) if ma else float("nan") if mb else 0.0
                verdict = ""
                m = spec.get(name, {})
                if section == "end_to_end" and "bound" in m:
                    worse = -delta if m["better"] == "higher" else delta
                    verdict = "WORSE" if worse > m["bound"] else "ok"
                    regressions += verdict == "WORSE"
                print(f"  {name:28s} {fmt(a[name]):40s} -> {fmt(b[name]):40s} "
                      f"{delta:+8.2%} {verdict}")
        shares = {r["failed"] / r["attempted"] for r in base + new
                  if r["workload"] == workload and r["trace"] == 0}
        print(f"  failed share of attempted: {sorted(shares)}")
    return 1 if regressions else 0


def overhead(records: list[dict]) -> int:
    describe_set("set", records)
    for workload in sorted({r["workload"] for r in records}):
        plain = collect(records, workload, 0, "end_to_end")
        traced = collect(records, workload, 1, "end_to_end")
        if not plain or not traced:
            continue
        print(f"\n== {workload}: traced minus untraced")
        for name in plain:
            ma, mb = summary(plain[name])[0], summary(traced[name])[0]
            print(f"  {name:14s} untraced {fmt(plain[name]):40s} traced {fmt(traced[name]):40s} "
                  f"{mb - ma:+.5g} ({(mb - ma) / abs(ma):+.2%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", help="BASE_DIR NEW_DIR, or one DIR with --overhead")
    parser.add_argument("--overhead", action="store_true",
                        help="report traced minus untraced end-to-end metrics of one set")
    args = parser.parse_args(argv)
    if args.overhead:
        if len(args.dirs) != 1:
            parser.error("--overhead takes one directory")
        return overhead(load(args.dirs[0]))
    if len(args.dirs) != 2:
        parser.error("give BASE_DIR and NEW_DIR")
    return compare(load(args.dirs[0]), load(args.dirs[1]))


if __name__ == "__main__":
    sys.exit(main())
