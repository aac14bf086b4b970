"""Benchmark of ruledgeo, end to end and layer by layer.

    python3 perfbench/run.py --workload build|query|verify --seed N \
        --seconds S --trace 0|1

Workloads (see workloads.py for the inputs):
  build   one CLI call per freshly generated spec with a cheap query, so
          building the surface dominates: invariant samples, general-form
          expressions with --standardize, standard-form expressions, and
          invalid specs that the CLI must reject with exit code 1.
  query   four surfaces built at set-up, then a stream of library calls:
          traces of all six families, power-law fits, classify and
          extract_invariants. Construction is outside the loop.
  verify  repeated `verify --all --format json`, the paper's table replay.
          Not in BENCHMARK.json: a request takes about 2.5 s, so a run holds
          too few for a 90th percentile and too few to be steady.

Each run starts fresh child processes (one process, one client thread,
closed loop, no think time; BLAS pools capped at the CPU count). All
inputs are generated here from --seed before a child starts.

The CPU speed of a shared host drifts, so every timing is scaled to a
reference speed by a probe loop timed next to it (see child.py); the
unscaled figures are printed too.

--trace 0 reports the end-to-end metrics of an untraced child, with
setup_s the median over several children. --trace 1 runs an untraced and
a traced child for half of --seconds each and reports per-layer metrics
(per round of the workload's fixed request mix) and the tracing overhead.

Lines before the last describe the run: environment, request kinds with
failures and their reasons. The last line is one JSON object with the keys
correct, attempted, failed and metrics. Files go to .perfbench/ under the
repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import child
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("build", "query", "verify")
SETUP_CHILDREN = 4      # set-up-only children besides the timed one
SETUP_TIMEOUT_S = 60
LOOP_TIMEOUT_S = 120    # beyond --seconds: the last round, checks, exit
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(nproc())
    env["PYTHONHASHSEED"] = "0"
    return env


def start_child(run_dir, mode, seconds, importtime=False):
    """Run child.py to completion; returns (its JSON record, its stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    probe_before = child.setup_probe_s()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += [os.path.join(HERE, "child.py"), run_dir, mode, repr(seconds), repr(t0)]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else seconds + LOOP_TIMEOUT_S
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          env=child_env(), cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {tail}")
    record = json.loads(lines[-1])
    probe = 0.5 * (probe_before + record["probe_after_setup_s"])
    record["setup_scaled_s"] = record["setup_s"] * child.REF_PROBE_S / probe
    return record, proc.stderr


def git_sha():
    """Commit of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # keeps git from reporting a repository above the checkout
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the library sources, to tell builds apart without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ruledgeo")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(args, child_env_record):
    return {
        "python": platform.python_version(),
        "numpy": child_env_record["numpy"],
        "scipy": child_env_record["scipy"],
        "backend": child_env_record["backend"],
        "nproc": nproc(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def latencies(record, key="scaled_s"):
    return [x for entry in record["kinds"].values() for x in entry[key]]


def p90(values):
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timings(lat, loop_s, setup_values):
    return {
        "setup_s": (statistics.median(setup_values), "s"),
        "throughput_rps": (len(lat) / loop_s, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * p90(lat), "ms"),
    }


def end_to_end(timed, setup_scaled):
    """The end-to-end metrics, every time scaled to the reference speed."""
    metrics = timings(latencies(timed), sum(timed["round_scaled_s"]), setup_scaled)
    metrics["peak_rss_mb"] = (timed["rss_mb"], "MB")
    return metrics


def per_layer(untraced, traced, importtime_stderr):
    totals = {name: tuple(v) for name, v in traced["totals"].items()}
    metrics = tracing.layer_metrics(totals, traced["counters"], traced["rounds"])
    metrics["setup.import_s"] = (untraced["import_s"], "s")
    metrics["setup.build_s"] = (untraced["build_s"], "s")
    metrics.update(tracing.import_breakdown(importtime_stderr, child.SETUP_DONE))
    # both children start from the first round and rounds differ in cost, so
    # compare their times over the rounds both completed
    both = min(untraced["rounds"], traced["rounds"])
    overhead = 1.0 - (sum(untraced["round_scaled_s"][:both])
                      / sum(traced["round_scaled_s"][:both]))
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def merge_kinds(records):
    kinds = {}
    for record in records:
        for kind, entry in record["kinds"].items():
            merged = kinds.setdefault(kind, {"attempted": 0, "failed": 0, "latencies_s": [],
                                             "scaled_s": [], "reasons": {}})
            merged["attempted"] += entry["attempted"]
            merged["failed"] += entry["failed"]
            merged["latencies_s"] += entry["latencies_s"]
            merged["scaled_s"] += entry["scaled_s"]
            for reason, count in entry["reasons"].items():
                merged["reasons"][reason] = merged["reasons"].get(reason, 0) + count
    return kinds


def describe(env, records, kinds, metrics, setups):
    print("env " + json.dumps(env, sort_keys=True))
    for record in records:
        n = sum(e["attempted"] for e in record["kinds"].values())
        print(f"{record['mode']} child: {record['rounds']} rounds, {n} requests "
              f"in {record['loop_s']:.3f} s, {sum(record['round_scaled_s']):.3f} s scaled")
    for key in ("setup_s", "setup_scaled_s"):
        if setups:
            print(f"{key} samples " + " ".join(f"{r[key]:.4f}" for r in setups))
    print(f"{'kind':<34} {'attempted':>9} {'failed':>6} {'p50_ms':>10} {'scaled':>10}")
    for kind in sorted(kinds):
        entry = kinds[kind]
        median_ms = 1e3 * statistics.median(entry["latencies_s"])
        scaled_ms = 1e3 * statistics.median(entry["scaled_s"])
        print(f"{kind:<34} {entry['attempted']:>9} {entry['failed']:>6} "
              f"{median_ms:>10.3f} {scaled_ms:>10.3f}")
    for kind in sorted(kinds):
        for reason, count in sorted(kinds[kind]["reasons"].items()):
            known = " (known hole)" if kind in workloads.KNOWN_HOLES else ""
            print(f"FAILED {kind}{known}: {count} x {reason}")
    if "latency_p90_ms" in metrics:
        n = len(latencies(records[-1]))
        print(f"latency percentiles over {n} samples")
    if setups:
        timed = records[-1]
        unscaled = timings(latencies(timed, "latencies_s"), timed["loop_s"],
                           [r["setup_s"] for r in setups])
        for name, (value, unit) in unscaled.items():
            print(f"unscaled {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # on SIGTERM, exit through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ruledgeo", "__init__.py")):
        print(f"error: no ruledgeo sources under {ROOT}/src", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec_dir = os.path.join(run_dir, "specs")
    inputs, expect = workloads.make_plan(args.workload, args.seed, spec_dir)
    for name, doc in (("setup", {"workload": args.workload, "setup": inputs["setup"]}),
                      ("rounds", {"rounds": inputs["rounds"]}),
                      ("expect", expect)):
        with open(os.path.join(run_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    try:
        if args.trace == 0:
            setups = [start_child(run_dir, "setup", 0)[0] for _ in range(SETUP_CHILDREN)]
            timed, _ = start_child(run_dir, "timed", args.seconds)
            setups.append(timed)
            records = [timed]
            metrics = end_to_end(timed, [r["setup_scaled_s"] for r in setups])
        else:
            setups = []
            untraced, _ = start_child(run_dir, "timed", args.seconds / 2)
            traced, stderr = start_child(run_dir, "traced", args.seconds / 2, importtime=True)
            records = [untraced, traced]
            metrics = per_layer(untraced, traced, stderr)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    kinds = merge_kinds(records)
    attempted = sum(e["attempted"] for e in kinds.values())
    failed = sum(e["failed"] for e in kinds.values())
    # correct: every failure is one of the known, documented holes
    correct = all(e["failed"] == 0 for k, e in kinds.items()
                  if k not in workloads.KNOWN_HOLES)
    env = environment(args, records[-1]["env"])
    if len({r["env"]["backend"] for r in records}) != 1:
        print("error: children ran different jet backends", file=sys.stderr)
        return 1

    describe(env, records, kinds, metrics, setups)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, failed_frac=failed / attempted,
                       setup_s_samples=[r["setup_s"] for r in setups],
                       setup_scaled_s_samples=[r["setup_scaled_s"] for r in setups],
                       kinds={k: {key: e[key] for key in ("attempted", "failed", "reasons")}
                              for k, e in kinds.items()}), fh, indent=1)
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
