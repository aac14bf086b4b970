"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --head B1.json ...

Inputs are the result.json files that run.py writes under .perfbench/.
For each workload and metric it prints both sides' medians and quartiles
and the change of the median relative to the base. Using the bounds in
BENCHMARK.json, an end-to-end metric whose median got worse by more than
its bound is marked WORSE. The comparison is invalid when the two sides
ran different jet backends, since their timings measure different kernels.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base, head, spec):
    """Rows per (workload, metric) plus validity; `spec` is BENCHMARK.json."""
    backends = {side: {r["env"]["backend"] for r in results}
                for side, results in (("base", base), ("head", head))}
    reasons = []
    if len(backends["base"] | backends["head"]) > 1:
        reasons.append(f"jet backends differ: base {sorted(backends['base'])}, "
                       f"head {sorted(backends['head'])}")
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in
              spec.get("end_to_end", []) + spec.get("per_layer", [])}
    rows = []
    workloads = sorted({r["env"]["workload"] for r in base + head})
    for workload in workloads:
        metric_names = sorted({name for r in base + head if r["env"]["workload"] == workload
                               for name in r["metrics"]})
        for name in metric_names:
            sides = []
            for results in (base, head):
                values = [r["metrics"][name]["value"] for r in results
                          if r["env"]["workload"] == workload and name in r["metrics"]]
                sides.append(summary(values) if values else None)
            if None in sides:
                continue
            (_, b_med, _), (_, h_med, _) = sides
            change = (h_med - b_med) / abs(b_med) if b_med else None
            better, bound = bounds.get(name, ("lower", None))
            worse = change is not None and bound is not None and (
                change > bound if better == "lower" else -change > bound)
            rows.append({"workload": workload, "metric": name, "base": sides[0],
                         "head": sides[1], "change": change, "worse": worse})
    return {"valid": not reasons, "reasons": reasons, "rows": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    result = compare(load(args.base), load(args.head), spec)
    for reason in result["reasons"]:
        print(f"INVALID: {reason}")
    for row in result["rows"]:
        change = "n/a" if row["change"] is None else f"{100 * row['change']:+.1f}%"
        b, h = row["base"], row["head"]
        print(f"{row['workload']:<7} {row['metric']:<36} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
              f"  head {h[1]:.6g} [{h[0]:.6g}, {h[2]:.6g}]  {change}"
              + ("  WORSE" if row["worse"] else ""))
    return 0 if result["valid"] else 3


if __name__ == "__main__":
    sys.exit(main())
