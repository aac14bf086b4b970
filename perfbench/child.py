"""One benchmark process: set up, run the closed loop, check every output.

    python3 child.py RUN_DIR MODE SECONDS T0

MODE is `setup` (set up, report, exit), `timed` (untraced loop) or
`traced` (loop with layer spans). T0 is the CLOCK_MONOTONIC reading taken
by the parent just before it started this process, so `setup_s` covers
interpreter start, `import ruledgeo` and the workload's up-front surfaces.
Nothing but the standard library is imported before ruledgeo, so a lazier
import of numpy or scipy in ruledgeo shows in `setup_s`.

The loop sends one request at a time with no pause, round after round,
and stops at the round boundary nearest to SECONDS. Each request's
output is checked as soon as it returns, outside the timed region, and
then dropped. The speed probe (see REF_PROBE_S) also runs between
requests, outside the timed region.
The last line of standard output is a JSON record for the parent.
"""

import contextlib
import importlib.metadata
import io
import json
import os
import resource
import sys
import time

# printed to stderr once set-up is done: -X importtime lines after it are
# imports made by requests, not by set-up
SETUP_DONE = "perfbench: setup done"

# On a shared cloud host the CPU speed of a process can change by up to 40%
# for seconds to minutes at a time (measured on 2 vCPUs: a fixed loop's CPU
# time changes as much as its wall time), so every timing is also reported
# scaled to a reference speed: times the ratio of REF_PROBE_S to the time of
# a fixed pure-Python loop, the probe, measured next to it. REF_PROBE_S is
# the probe's time when that host ran at its fast level; it only sets the
# scale, since two commits are compared on one host. The probe mixes integer
# arithmetic with small objects in a dict: on that host its time tracked
# ruledgeo's closer than either part alone or a loop of cache misses.
PROBE_ITERATIONS = 10_000
PROBE_OBJECTS = 1_200
PROBE_PASSES = 2
SETUP_PROBES = 5
REF_PROBE_S = 0.0012


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build_surfaces(ruledgeo, setup):
    surfaces = {}
    for item in setup:
        if item["via"] == "gallery":
            surf = ruledgeo.gallery(item["name"], item["params"])
        elif item["via"] == "spec":
            surf = ruledgeo.load_spec(item["spec"], standardize_input=item["standardize"])
        else:
            k, delta, lam = item["profiles"]
            inv = ruledgeo.InvariantTriple.from_functions(
                k=k, delta=delta, lam=lam, domain=tuple(item["domain"]))
            surf = ruledgeo.surface_from_invariants(inv)
        surfaces[item["key"]] = surf
    return surfaces


def cli_call(run, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        return rc, out.getvalue()

    return call


def lib_call(ruledgeo, req, surf):
    from workloads import linspace

    op = req["op"]
    if op == "trace":
        family = ruledgeo.CurveFamily(req["family"])
        args = (family, surf, req["u0"], req["v0"], req["steps"], req["h"])
        return lambda: ruledgeo.trace_curve(*args)
    grid = linspace(*req["grid"])
    if op == "fit":
        family = ruledgeo.CurveFamily(req["family"])
        return lambda: ruledgeo.fit_power_law(surf, family, u_grid=grid)
    if op == "classify":
        return lambda: ruledgeo.classify(surf, u_grid=grid)
    if op == "extract":
        return lambda: [(u, ruledgeo.extract_invariants(surf, u)) for u in grid]
    raise ValueError(op)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _probe_loop():
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    acc = 0.0
    table = {k: _Point(0.0, 0.0) for k in range(256)}
    for i in range(PROBE_OBJECTS):
        p = _Point(i * 0.5, i * 0.25)
        table[i & 255] = p
        acc += p.x * p.y - table[(i * 7) & 255].x
    return total, acc


def probe_s():
    """Time of one pass of the probe loop, mean of PROBE_PASSES."""
    t = now()
    for _ in range(PROBE_PASSES):
        _probe_loop()
    return (now() - t) / PROBE_PASSES


def setup_probe_s():
    """Probe for set-up times: median of SETUP_PROBES probes, since a
    fresh process runs its first probe cold."""
    return sorted(probe_s() for _ in range(SETUP_PROBES))[SETUP_PROBES // 2]


def run_loop(rounds, calls, seconds, tracer, check):
    """Closed loop over whole rounds, at least one.

    Returns (kinds, wall s per round, speed-scaled s per round). Each
    output is checked as soon as its request returns and then dropped, so
    memory holds only per-kind latencies and failure reasons. The speed
    probe runs between requests; its time and checking time are left out
    of the wall time. A request's scaled latency is its wall time times
    REF_PROBE_S over the mean of the probes taken just before and after it.
    """
    kinds = {}
    round_s, round_scaled_s = [], []
    excluded = 0.0
    start = now()
    probe_before = probe_s()
    excluded += now() - start
    while True:
        index = len(round_s) % len(rounds)
        scaled_total = 0.0
        for req, call in zip(rounds[index], calls[index]):
            t = now()
            if tracer is not None:
                tracer.begin_request(req["id"])
            try:
                out, err = call(), None
            except Exception as exc:  # counted as a failed request; the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.end_request()
            t_check = now()
            if err is not None:
                reason = f"raised {err}"
            else:
                try:
                    reason = check(req, out)
                except Exception as exc:  # malformed output fails its request
                    reason = f"output not checkable: {type(exc).__name__}: {exc}"
            del out
            probe_after = probe_s()
            scaled = (t_check - t) * REF_PROBE_S / (0.5 * (probe_before + probe_after))
            probe_before = probe_after
            entry = kinds.setdefault(req["kind"], {"attempted": 0, "failed": 0,
                                                   "latencies_s": [], "scaled_s": [],
                                                   "reasons": {}})
            entry["attempted"] += 1
            entry["latencies_s"].append(t_check - t)
            entry["scaled_s"].append(scaled)
            scaled_total += scaled
            if reason is not None:
                entry["failed"] += 1
                entry["reasons"][reason] = entry["reasons"].get(reason, 0) + 1
            excluded += now() - t_check
        elapsed = now() - start - excluded
        round_s.append(elapsed - sum(round_s))
        round_scaled_s.append(scaled_total)
        # stop at the round boundary nearest to `seconds`
        if elapsed + 0.5 * elapsed / len(round_s) >= seconds:
            return kinds, round_s, round_scaled_s


def checker(workload, expect, surfaces, descs):
    """check(request, output) -> None or the reason the output is wrong."""
    import checks
    import workloads

    points = {}
    for key, desc in descs.items():
        if "profile" in desc:  # no closed form: the surface's own evaluation
            points[key] = surfaces[key].point
        else:
            points[key] = workloads.point_fn(desc)

    def check(req, out):
        if req["call"] == "cli":
            return checks.check_cli(workload, out, expect.get(str(req["id"])))
        key = req["surface"]
        return checks.check_lib(out, req, descs[key], points[key])

    return check


def main(argv):
    run_dir, mode, seconds, t0 = argv[1], argv[2], float(argv[3]), float(argv[4])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    t_import = now()
    import ruledgeo
    import ruledgeo.cli
    import_s = now() - t_import
    if not os.path.abspath(ruledgeo.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported ruledgeo from {ruledgeo.__file__}, not from {src}")

    with open(os.path.join(run_dir, "setup.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    t_build = now()
    surfaces = build_surfaces(ruledgeo, plan["setup"])
    build_s = now() - t_build
    record = {"setup_s": now() - t0, "import_s": import_s, "build_s": build_s,
              "probe_after_setup_s": setup_probe_s()}
    print(SETUP_DONE, file=sys.stderr, flush=True)
    if mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ruledgeo" or name.startswith("ruledgeo.")}
        tracing.install(tracer, modules)

    with open(os.path.join(run_dir, "rounds.json"), encoding="utf-8") as fh:
        rounds = json.load(fh)["rounds"]
    calls = [[cli_call(ruledgeo.cli.run, req["argv"]) if req["call"] == "cli"
              else lib_call(ruledgeo, req, surfaces[req["surface"]]) for req in rnd]
             for rnd in rounds]

    with open(os.path.join(run_dir, "expect.json"), encoding="utf-8") as fh:
        expect = json.load(fh)
    check = checker(plan["workload"], expect["requests"], surfaces,
                    expect.get("surfaces", {}))

    kinds, round_s, round_scaled_s = run_loop(rounds, calls, seconds, tracer, check)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update({
        "mode": mode,
        "rounds": len(round_s),
        "loop_s": sum(round_s),
        "round_s": round_s,
        "round_scaled_s": round_scaled_s,
        "rss_mb": rss_mb,
        "kinds": kinds,
        "env": {
            "backend": ruledgeo.backend_name(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
        },
    })
    if tracer is not None:
        record["totals"] = tracer.totals()
        record["counters"] = tracer.counters
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
