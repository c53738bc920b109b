#!/usr/bin/env python3
"""Compare two sets of strrbench results, or check one set's own spread.

    python3 strrbench/compare.py BASE... --vs CHANGE...
    python3 strrbench/compare.py --spread SET...

Each argument is a result file or a directory of them. A result file is
either what strrbench writes under <state>/results/ (a JSON object with
"provenance" and "metrics") or a captured stdout whose last line is the
run's JSON result; the latter needs the workload (and ideally the seed) in
its file name, e.g. serve_hot.seed3.out.

For each workload and metric the comparison prints each side's median and
quartiles (statistics.quantiles(values, n=4)) and, for metrics with a bound
in BENCHMARK.json, a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the base's
              own interquartile range, or every change run beats every
              base run;
  unresolved  either side's spread (IQR / median) exceeds the bound;
  worse       the change's median is worse than the base's by more than
              the bound;
  no worse    otherwise.

Runs pair up by seed when both sides have it, else in sorted order.
--spread prints each metric's spread against its bound and exits 1 when a
spread other than setup_s's exceeds it. The comparison exits 1 when any
verdict is "worse".
"""

import argparse
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_sweep", "serve_hot", "ingest_serve")
SPREAD_EXEMPT = ("setup_s",)


def load_bounds(path):
    """{metric: (better, bound or None)} for every metric BENCHMARK.json names."""
    with open(path) as f:
        bench = json.load(f)
    out = {}
    for m in bench.get("end_to_end", []):
        out[m["name"]] = (m["better"], m["bound"])
    for m in bench.get("per_layer", []):
        out[m["name"]] = (m["better"], None)
    return out


def _parse_file(path):
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except ValueError:
        lines = [line for line in text.splitlines() if line.strip()]
        try:
            doc = json.loads(lines[-1]) if lines else None
        except ValueError:
            doc = None
        if not isinstance(doc, dict) or "metrics" not in doc:
            return None  # a run that printed no result
    prov = doc.get("provenance", {})
    name = os.path.basename(path)
    workload = prov.get("workload")
    if workload is None:
        workload = next((w for w in WORKLOADS if w in name), None)
    if workload is None:
        raise ValueError(f"{path}: cannot tell the workload")
    seed = prov.get("seed")
    if seed is None:
        found = re.search(r"seed[._-]?(\d+)", name)
        seed = int(found.group(1)) if found else None
    metrics = {k: v["value"] for k, v in doc.get("metrics", {}).items()}
    return workload, seed, metrics


def load_results(paths):
    """{workload: [(seed, {metric: value}), ...]} from files/directories."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, n) for n in os.listdir(p)
                            if n.endswith((".json", ".out")))
        else:
            files.append(p)
    runs = {}
    for path in files:
        parsed = _parse_file(path)
        if parsed is None:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        workload, seed, metrics = parsed
        runs.setdefault(workload, []).append((seed, metrics))
    return runs


def summarize(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values):
    """Interquartile range as a share of the median."""
    med, q1, q3 = summarize(values)
    return (q3 - q1) / med if med else float("inf")


def pair_up(base, change):
    """[(base_value, change_value)] paired by seed, else in sorted order."""
    base_by_seed = {s: v for s, v in base if s is not None}
    change_by_seed = {s: v for s, v in change if s is not None}
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if common and len(common) >= min(len(base), len(change)):
        return [(base_by_seed[s], change_by_seed[s]) for s in common]
    return list(zip(sorted(v for _, v in base), sorted(v for _, v in change)))


def verdict(base, change, better, bound):
    """Verdict for one metric; base/change are [(seed, value)]."""
    sign = 1.0 if better == "higher" else -1.0
    a = [v for _, v in base]
    b = [v for _, v in change]
    med_a, q1_a, q3_a = summarize(a)
    med_b, _, _ = summarize(b)
    if min(sign * x for x in b) > max(sign * x for x in a):
        return "improved"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    pairs = pair_up(base, change)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and \
            sign * (med_b - med_a) > (q3_a - q1_a):
        return "improved"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse"
    return "no worse"


def _fmt(x):
    return f"{x:.6g}"


def compare(base_runs, change_runs, bounds, out=sys.stdout):
    """Prints the verdict table; returns the list of (workload, metric, verdict)."""
    rows = []
    print(f"{'workload':13} {'metric':34} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} verdict", file=out)
    for workload in sorted(set(base_runs) | set(change_runs)):
        base = base_runs.get(workload, [])
        change = change_runs.get(workload, [])
        names = sorted({m for _, ms in base + change for m in ms})
        for metric in names:
            a = [(s, ms[metric]) for s, ms in base if metric in ms]
            b = [(s, ms[metric]) for s, ms in change if metric in ms]
            if not a or not b:
                continue
            better, bound = bounds.get(metric, ("lower", None))
            v = verdict(a, b, better, bound) if bound is not None else "-"
            ma, qa1, qa3 = summarize([x for _, x in a])
            mb, qb1, qb3 = summarize([x for _, x in b])
            print(f"{workload:13} {metric:34} "
                  f"{_fmt(ma) + ' [' + _fmt(qa1) + ', ' + _fmt(qa3) + ']':34} "
                  f"{_fmt(mb) + ' [' + _fmt(qb1) + ', ' + _fmt(qb3) + ']':34} "
                  f"{v}", file=out)
            rows.append((workload, metric, v))
    return rows


def check_spread(runs, bounds, out=sys.stdout):
    """Prints each bounded metric's spread; returns the metrics over bound."""
    over = []
    print(f"{'workload':13} {'metric':20} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} status", file=out)
    for workload in sorted(runs):
        for metric, (better, bound) in bounds.items():
            values = [ms[metric] for _, ms in runs[workload] if metric in ms]
            if bound is None or not values:
                continue
            med, q1, q3 = summarize(values)
            s = spread(values)
            if metric in SPREAD_EXEMPT:
                status = "exempt"
            elif s > bound:
                status = "OVER BOUND"
                over.append((workload, metric))
            elif s > bound / 3:
                status = "within bound, above bound/3"
            else:
                status = "ok"
            print(f"{workload:13} {metric:20} {len(values):3d} {_fmt(med):>12} "
                  f"{_fmt(q1):>12} {_fmt(q3):>12} {s:8.4f} {bound:6.3g} "
                  f"{status}", file=out)
    return over


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare strrbench result sets (see module docstring).")
    parser.add_argument("base", nargs="*", help="base result files/directories")
    parser.add_argument("--vs", nargs="+", metavar="CHANGE",
                        help="change result files/directories")
    parser.add_argument("--spread", nargs="+", metavar="SET",
                        help="check one set's own spread against the bounds")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bounds = load_bounds(args.benchmark)
    if args.spread:
        return 1 if check_spread(load_results(args.spread), bounds) else 0
    if not args.base or not args.vs:
        parser.error("give BASE... --vs CHANGE..., or --spread SET...")
    rows = compare(load_results(args.base), load_results(args.vs), bounds)
    return 1 if any(v == "worse" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
