"""Tests of the benchmark itself: inputs, checkers, span arithmetic, comparison.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import child  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _plan_files(workload, seed, spec_dir):
    inputs, expect = workloads.make_plan(workload, seed, spec_dir)
    text = json.dumps([inputs, expect], sort_keys=True).replace(str(spec_dir), "SPECS")
    specs = {}
    if os.path.isdir(spec_dir):
        for name in sorted(os.listdir(spec_dir)):
            with open(os.path.join(spec_dir, name), encoding="utf-8") as fh:
                specs[name] = fh.read()
    return text, specs


def test_same_seed_gives_identical_inputs(tmp_path):
    for workload in ("verify", "build", "query"):
        a = _plan_files(workload, 7, tmp_path / f"{workload}-a")
        b = _plan_files(workload, 7, tmp_path / f"{workload}-b")
        assert a == b
    assert _plan_files("query", 8, tmp_path / "c") != _plan_files("query", 7, tmp_path / "d")


def test_rounds_hold_a_fixed_multiset_of_kinds(tmp_path):
    for workload in ("build", "query"):
        mixes = []
        for seed in (1, 2):
            inputs, _ = workloads.make_plan(workload, seed, tmp_path / f"{workload}{seed}")
            mixes.append([sorted(r["kind"] for r in rnd) for rnd in inputs["rounds"]])
            holes = [sum(r["kind"] in workloads.KNOWN_HOLES for r in rnd)
                     for rnd in inputs["rounds"]]
            assert set(holes) == ({2} if workload == "build" else {0})
        assert mixes[0] == mixes[1]  # the seed changes the order, not the mix
        # rounds differ at most in which invalid spec they hold
        valid = [[k for k in mix if not k.startswith("bad.")] for mix in mixes[0]]
        assert all(mix == valid[0] for mix in valid)
        assert {len(mix) for mix in mixes[0]} == {len(mixes[0][0])}


def _s1_curve(desc, u0, v0):
    point = workloads.point_fn(desc)

    class Curve:
        points = [(u, v0, *point(u, v0)) for u in workloads.linspace(u0, u0 + 1.0, 11)]

    return Curve, point


def test_trace_checker_flags_a_moved_point():
    import random

    desc = workloads.draw_closed_desc("orthoid_const_delta", random.Random(3))
    curve, point = _s1_curve(desc, 0.5, 1.1)
    req = {"u0": 0.5, "v0": 1.1, "family": "s1"}
    assert checks.check_trace(curve, req, desc, point) is None
    curve.points[4] = curve.points[4][:2] + (curve.points[4][2] + 1e-3,) + curve.points[4][3:]
    assert "trace point" in checks.check_trace(curve, req, desc, point)


def test_trace_checker_accepts_a_real_trace():
    import random

    import ruledgeo

    desc = workloads.draw_closed_desc("hyperboloid_edlinger", random.Random(5))
    surf = ruledgeo.load_spec(workloads.expression_spec(desc))
    req = {"u0": 0.7, "v0": -1.1, "family": "s4"}
    curve = ruledgeo.trace_curve(ruledgeo.CurveFamily.CONST_GAUSS, surf, 0.7, -1.1, 20, 0.02)
    assert checks.check_trace(curve, req, desc, workloads.point_fn(desc)) is None


def test_flag_checker_flags_a_flipped_flag():
    import random

    desc = workloads.draw_closed_desc("conoidal_const_delta", random.Random(1))
    flags = workloads.class_flags(desc)
    assert flags["conoidal_const_delta"] and not flags["orthoid"]
    assert checks.check_flags(dict(flags), desc) is None
    flags["orthoid"] = True
    assert "orthoid" in checks.check_flags(flags, desc)


def _verify_doc():
    def entry(surface, n):
        if n is None:
            return {"surface": f"{surface}(c=1)", "n_found": None, "fit_residual": 0.0,
                    "f_residual": None, "passed": True}
        return {"surface": f"{surface}(c=1)", "n_found": n, "fit_residual": 3e-16,
                "f_residual": 2e-16, "passed": True}

    flags = workloads.class_flags({"profile": None})  # every flag off
    return {
        "passed": True,
        "rows": [{"proposition": p, "family": f, "n": n, "passed": True,
                  "surfaces": [entry(t, n) for t in types]}
                 for p, f, n, types in workloads.TABLE_ROWS],
        "corollary": {"residual": 1e-15, "passed": True},
        "mismatches": [{"surface": s, "family": f, "n_found": workloads.TABLE_FITS[s][f][0],
                        "passed": True} for s, f in checks.CROSS_CHECKS],
        "negatives": [{"surface": label, "passed": True,
                       "families_nofit": dict.fromkeys(workloads.FAMILIES, True),
                       "flags": dict(flags, const_delta=const_delta)}
                      for label, const_delta in workloads.NEGATIVE_CONTROLS.items()],
    }


def test_verify_checker_flags_a_wrong_n():
    doc = _verify_doc()
    assert checks.check_verify(json.dumps(doc)) is None
    doc["rows"][4]["surfaces"][1]["n_found"] = -2
    assert "n = -2 on hyperboloid_edlinger" in checks.check_verify(json.dumps(doc))


def test_verify_checker_flags_a_wrong_figure():
    doc = _verify_doc()
    doc["rows"][9]["surfaces"][0]["f_residual"] = 1e-3
    assert "f off the table" in checks.check_verify(json.dumps(doc))
    doc = _verify_doc()
    doc["rows"][3]["surfaces"][0]["fit_residual"] = 1e-6
    assert "no zero fit" in checks.check_verify(json.dumps(doc))
    doc = _verify_doc()
    doc["negatives"][5]["flags"]["orthoid"] = True
    assert "near_orthoid: flags ['orthoid']" in checks.check_verify(json.dumps(doc))
    doc = _verify_doc()
    doc["negatives"][0]["families_nofit"]["s2"] = False
    assert "fits along ['s2']" in checks.check_verify(json.dumps(doc))


def test_fit_checker_flags_a_wrong_n():
    import random

    class PowerLawFit:
        n, is_zero = -1, False
        f_samples = [(0.5, -1.0), (1.0, -1.0)]

    fit = PowerLawFit()
    desc = workloads.draw_closed_desc("hyperboloid_edlinger", random.Random(2))
    assert checks.check_fit(fit, {"family": "s1"}, desc) is None
    fit.n = -3
    assert "expected -1" in checks.check_fit(fit, {"family": "s1"}, desc)


def test_invalid_input_must_exit_1():
    assert checks.check_cli("build", (1, ""), {"desc": None, "verb": "classify"}) is None
    assert "expected 1" in checks.check_cli("build", (0, "{}"), {"desc": None, "verb": "classify"})


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    a, b, c = (tracer.layer_id(n) for n in ("a", "b", "c"))
    tracer.request = 9
    tracer.open(a)        # a: 0 .. 10
    tracer.open(b)        # b: 2 .. 5
    tracer.open(c)        # c: 3 .. 4
    tracer.close()
    tracer.close()
    tracer.open(c)        # c: 6 .. 8
    tracer.close()
    tracer.close()
    totals = tracer.totals()
    assert totals["a"] == (1, 10.0 - 3.0 - 2.0, 10.0)
    assert totals["b"] == (1, 2.0, 3.0)
    assert totals["c"] == (2, 3.0, 3.0)
    assert tracer.spans[0] == (a, 0.0, 10.0, -1, 9)
    assert tracer.spans[2] == (c, 3.0, 4.0, 1, 9)
    assert tracer.spans[3][3] == 0


def test_latency_is_scaled_by_the_probes_around_it(monkeypatch):
    clock = [0.0]
    probes = iter([child.REF_PROBE_S, 3 * child.REF_PROBE_S, child.REF_PROBE_S])
    monkeypatch.setattr(child, "now", lambda: clock[0])
    monkeypatch.setattr(child, "probe_s", lambda: next(probes))

    def request(seconds):
        def call():
            clock[0] += seconds
        return call

    rounds = [[{"id": 0, "kind": "a"}, {"id": 1, "kind": "b"}]]
    kinds, round_s, round_scaled_s = child.run_loop(
        rounds, [[request(1.0), request(2.0)]], 1.0, None, lambda req, out: None)
    assert kinds["a"]["latencies_s"] == [1.0] and kinds["a"]["scaled_s"] == [0.5]
    assert kinds["b"]["latencies_s"] == [2.0] and kinds["b"]["scaled_s"] == [1.0]
    assert round_s == [3.0] and round_scaled_s == [1.5]


def test_install_rebinds_every_namespace():
    import ruledgeo
    import ruledgeo.cli  # noqa: F401  (wrapped too)
    from ruledgeo import analysis, families, invariants

    tracer = tracing.Tracer()
    modules = {n: m for n, m in sys.modules.items()
               if n == "ruledgeo" or n.startswith("ruledgeo.")}
    tracing.install(tracer, modules)
    assert families.point_invariants is invariants.point_invariants
    assert analysis.point_invariants is invariants.point_invariants
    assert invariants.point_invariants.__wrapped__ is not None
    surf = ruledgeo.gallery("right_helicoid", {"c": 1.0})
    ruledgeo.classify(surf, n_grid=5)          # untraced: outside a request
    assert tracer.totals()["invariants.point"][0] == 0
    tracer.begin_request(0)
    ruledgeo.classify(surf, n_grid=5)
    tracer.end_request()
    totals = tracer.totals()
    assert totals["analysis.classify"][0] == 1
    assert totals["invariants.point"][0] == 5
    assert totals["surface.curve_eval"][0] == 10


def test_comparison_across_backends_is_invalid():
    def result(backend, value):
        return {"env": {"workload": "verify", "backend": backend},
                "metrics": {"throughput_rps": {"value": value, "unit": "1/s"}}}

    spec = {"end_to_end": [{"name": "throughput_rps", "better": "higher", "bound": 0.1}]}
    same = compare.compare([result("python", 1.0)], [result("python", 0.8)], spec)
    assert same["valid"] and same["rows"][0]["worse"]
    mixed = compare.compare([result("cython", 1.0)], [result("python", 1.0)], spec)
    assert not mixed["valid"] and "backends differ" in mixed["reasons"][0]
