"""Direction fields, closed-form normal curvature, and RK4 tracing."""

import io
import math

import numpy as np
import pytest

from ruledgeo import gallery
from ruledgeo.errors import DegenerateField, InvalidArgument, OutOfDomain
from ruledgeo.families import (
    CurveFamily,
    direction_field,
    normal_curvature_along,
    trace_curve,
)
from ruledgeo.invariants import (
    extract_invariants,
    fundamental_forms,
    g_inner,
    gaussian_mean,
    normal_curvature,
)

from conftest import sample_uv

RNG_SEED = 555
LINEAR_FAMILIES = (
    CurveFamily.CONST_STRICTION,
    CurveFamily.ORTH_CONST_STRICTION,
    CurveFamily.ORTH_RULINGS,
    CurveFamily.CONST_GAUSS,
)


def test_s1_direction_is_u_line(generic_skew):
    du, dv = direction_field(CurveFamily.CONST_STRICTION, generic_skew, 3.0, 0.7)
    assert dv == 0.0 and du > 0.0


def test_s3_on_orthoid_runs_along_u_lines(orthoid_const_delta):
    du, dv = direction_field(CurveFamily.ORTH_RULINGS, orthoid_const_delta, 1.0, 0.5)
    assert abs(dv) < 1e-12 * abs(du)


def test_s2_on_orthoid_is_the_ruling(orthoid_const_delta):
    du, dv = direction_field(
        CurveFamily.ORTH_CONST_STRICTION, orthoid_const_delta, 1.0, 0.5
    )
    assert abs(du) < 1e-12 * abs(dv)


def test_s4_on_const_delta_surface_matches_s1(conoidal_const_delta):
    # delta' = 0 away from v = 0: the constant-K relation degenerates to v = const
    du, dv = direction_field(CurveFamily.CONST_GAUSS, conoidal_const_delta, 1.0, 0.8)
    assert abs(dv) < 1e-12 * abs(du)


def test_s4_gradient_oracle(generic_skew):
    # direction must annihilate the numerical gradient of K = -delta^2/w^4
    rng = np.random.default_rng(RNG_SEED)
    h = 1e-6
    for _ in range(20):
        u, v = sample_uv(generic_skew, rng)
        du, dv = direction_field(CurveFamily.CONST_GAUSS, generic_skew, u, v)
        K = lambda uu, vv: gaussian_mean(generic_skew, uu, vv).K
        dKu = (K(u + h, v) - K(u - h, v)) / (2 * h)
        dKv = (K(u, v + h) - K(u, v - h)) / (2 * h)
        directional = dKu * du + dKv * dv
        scale = math.hypot(dKu, dKv)
        assert abs(directional) < 1e-4 * max(scale, 1e-12)


def test_s4_degenerate_point_reported(conoidal_const_delta):
    with pytest.raises(DegenerateField):
        direction_field(CurveFamily.CONST_GAUSS, conoidal_const_delta, 1.0, 0.0)
    with pytest.raises(DegenerateField):
        normal_curvature_along(CurveFamily.CONST_GAUSS, conoidal_const_delta, 1.0, 0.0)


def test_direction_fields_are_g_unit_and_satisfy_relations(gallery_five):
    rng = np.random.default_rng(RNG_SEED + 1)
    for name, surf in gallery_five.items():
        for _ in range(20):
            u, v = sample_uv(surf, rng)
            k, delta, sigma, lam = extract_invariants(surf, u)
            f = fundamental_forms(surf, u, v)
            for family in LINEAR_FAMILIES:
                try:
                    du, dv = direction_field(family, surf, u, v)
                except DegenerateField:
                    continue
                assert abs(g_inner(f, (du, dv), (du, dv)) - 1.0) < 1e-10
                if family is CurveFamily.ORTH_CONST_STRICTION:
                    assert abs(g_inner(f, (du, dv), (1.0, 0.0))) < 1e-10
                if family is CurveFamily.ORTH_RULINGS:
                    assert abs(g_inner(f, (du, dv), (0.0, 1.0))) < 1e-10


def test_closed_forms_match_generic_normal_curvature(gallery_five):
    # the independent closed forms agree with Eq-(7)-style evaluation on the
    # field direction to 1e-10 relative
    rng = np.random.default_rng(RNG_SEED + 2)
    for name, surf in gallery_five.items():
        for _ in range(50):
            u, v = sample_uv(surf, rng)
            for family in CurveFamily:
                try:
                    closed = normal_curvature_along(family, surf, u, v)
                    du, dv = direction_field(family, surf, u, v)
                except DegenerateField:
                    continue
                generic = normal_curvature(surf, u, v, du, dv)
                assert abs(closed - generic) <= 1e-10 * max(1.0, abs(generic)), (
                    name,
                    family,
                )


def test_closed_form_spec_examples(right_helicoid, hyperboloid_edlinger,
                                   conoidal_const_delta):
    for u, v in ((0.5, 0.3), (2.0, -1.1)):
        assert abs(normal_curvature_along(
            CurveFamily.CONST_STRICTION, right_helicoid, u, v)) < 1e-14
        k, delta, *_ = extract_invariants(hyperboloid_edlinger, u)
        w = math.sqrt(v * v + delta * delta)
        got = normal_curvature_along(
            CurveFamily.ORTH_CONST_STRICTION, hyperboloid_edlinger, u, v)
        assert abs(got - delta * delta / (k * w**3)) < 1e-12
        got = normal_curvature_along(
            CurveFamily.ORTH_RULINGS, conoidal_const_delta, u, v)
        kc, dc, sc, lc = extract_invariants(conoidal_const_delta, u)
        wc = math.sqrt(v * v + dc * dc)
        assert abs(got + dc * dc * lc / wc**3) < 1e-12  # -delta^2 lambda w^-3 = -2/w^3
        assert abs(got + 2.0 / wc**3) < 1e-12


def test_trace_s1_keeps_v_exactly(generic_skew):
    tr = trace_curve(CurveFamily.CONST_STRICTION, generic_skew, 3.0, 0.8, 50, 0.02)
    assert tr.stop_reason == "completed"
    assert np.max(np.abs(tr.points[:, 1] - 0.8)) == 0.0


def test_trace_points_satisfy_ruled_parametrization(generic_skew):
    tr = trace_curve(CurveFamily.ORTH_RULINGS, generic_skew, 3.0, 0.5, 25, 0.02)
    for u, v, x, y, z in tr.points:
        assert np.allclose(generic_skew.point(u, v), [x, y, z], atol=1e-12)


def test_trace_s4_keeps_gaussian_curvature(generic_skew):
    tr = trace_curve(CurveFamily.CONST_GAUSS, generic_skew, 3.0, 0.8, 120, 0.01)
    assert tr.stop_reason == "completed"
    Ks = [gaussian_mean(generic_skew, u, v).K for u, v, *_ in tr.points]
    spread = (max(Ks) - min(Ks)) / abs(np.mean(Ks))
    assert spread < 1e-6


def test_trace_curvature_line_branch2_ode_residual(hyperboloid_edlinger):
    tr = trace_curve(CurveFamily.CURVATURE_2, hyperboloid_edlinger, 1.0, 0.5,
                     60, 0.01)
    assert tr.stop_reason == "completed"
    for u, v, *_ in tr.points:
        du, dv = direction_field(CurveFamily.CURVATURE_2, hyperboloid_edlinger, u, v)
        k, delta, sigma, lam = extract_invariants(hyperboloid_edlinger, u)
        resid = (k * k * v * v + delta * delta * (k * k + 1.0)) * du \
            - delta * k * dv
        assert abs(resid) < 1e-8


def test_trace_stops_at_domain_boundary(right_helicoid):
    tr = trace_curve(CurveFamily.CONST_STRICTION, right_helicoid, 6.0, 0.0,
                     1000, 0.01)
    assert tr.stop_reason == "domain_exit"
    assert tr.stop_step is not None
    assert tr.points[-1][0] <= right_helicoid.domain[1]


def test_trace_degenerate_start_raises(conoidal_const_delta):
    with pytest.raises(DegenerateField):
        trace_curve(CurveFamily.CONST_GAUSS, conoidal_const_delta, 1.0, 0.0, 10, 0.01)


def test_trace_bad_start_raises(right_helicoid):
    with pytest.raises(OutOfDomain):
        trace_curve(CurveFamily.CONST_STRICTION, right_helicoid, -5.0, 0.0, 10, 0.01)


@pytest.mark.parametrize("v0,h", [(math.inf, 0.01), (math.nan, 0.01), (-math.inf, 0.01),
                                  (0.5, math.nan), (0.5, math.inf)])
def test_trace_rejects_a_non_finite_start(right_helicoid, v0, h):
    with pytest.raises(InvalidArgument, match="finite v0 and step size"):
        trace_curve(CurveFamily.CONST_STRICTION, right_helicoid, 1.0, v0, 5, h)


def test_trace_evaluates_surface_jets_four_times_per_step(monkeypatch):
    surf = gallery("generic_skew", seed=0, n_steps=256)
    calls = [0]

    def counted(u, raw=surf.striction.raw_eval):
        calls[0] += 1
        return raw(u)

    monkeypatch.setattr(surf.striction, "raw_eval", counted)
    steps = 10
    tr = trace_curve(CurveFamily.ORTH_RULINGS, surf, 3.0, 0.4, steps, 0.01)
    assert tr.stop_reason == "completed" and len(tr.points) == steps + 1
    # the start, then per step three RK4 stages and the new point, whose
    # jets the field there reuses
    assert calls[0] == 1 + 4 * steps


def test_trace_arclength_is_g_length(generic_skew):
    # embedded speed along the trace matches the recorded g-arclength
    tr = trace_curve(CurveFamily.ORTH_RULINGS, generic_skew, 3.0, 0.4, 100, 0.01)
    xyz = tr.points[:, 2:]
    emb_len = float(np.sum(np.linalg.norm(np.diff(xyz, axis=0), axis=1)))
    assert abs(emb_len - tr.arclength) < 1e-3 * tr.arclength


def test_rk4_order_four(generic_skew):
    length = 2.0

    def endpoint(steps):
        tr = trace_curve(CurveFamily.CONST_GAUSS, generic_skew, 3.0, 0.8,
                         steps, length / steps)
        assert tr.stop_reason == "completed"
        return tr.points[-1][:2]

    ref = endpoint(1024)
    e16 = np.hypot(*(endpoint(16) - ref))
    e32 = np.hypot(*(endpoint(32) - ref))
    assert 12.0 <= e16 / e32 <= 20.0


def test_csv_export(generic_skew):
    tr = trace_curve(CurveFamily.CONST_STRICTION, generic_skew, 3.0, 0.5, 5, 0.01)
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "u,v,x,y,z"
    assert len(lines) == len(tr.points) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert np.allclose(first, tr.points[0], rtol=1e-11)


def test_obj_export(generic_skew):
    tr = trace_curve(CurveFamily.CONST_STRICTION, generic_skew, 3.0, 0.5, 5, 0.01)
    buf = io.StringIO()
    tr.to_obj(buf)
    lines = buf.getvalue().strip().splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    llines = [l for l in lines if l.startswith("l ")]
    assert len(vlines) == len(tr.points)
    assert len(llines) == 1
    assert llines[0].split()[1:] == [str(i + 1) for i in range(len(tr.points))]


# trace_curve against a copy of the loop that evaluated the field afresh at
# the start of every step ------------------------------------------------------


def _aligned(direction, ref):
    if direction[0] * ref[0] + direction[1] * ref[1] < 0.0:
        return (-direction[0], -direction[1])
    return direction


def _reference_trace(family, surf, u0, v0, steps, h):
    """(points, stop_reason, stop_step) of the six-evaluation RK4 loop."""
    lo, hi = surf.domain
    ref = direction_field(family, surf, u0, v0)
    u, v = float(u0), float(v0)
    rows = [(u, v, *surf.point(u, v))]
    stop_reason, stop_step = "completed", None
    for i in range(steps):
        try:
            f1 = _aligned(direction_field(family, surf, u, v), ref)
            f2 = _aligned(direction_field(
                family, surf, u + 0.5 * h * f1[0], v + 0.5 * h * f1[1]), ref)
            f3 = _aligned(direction_field(
                family, surf, u + 0.5 * h * f2[0], v + 0.5 * h * f2[1]), ref)
            f4 = _aligned(direction_field(family, surf, u + h * f3[0], v + h * f3[1]), ref)
        except OutOfDomain:
            stop_reason, stop_step = "domain_exit", i
            break
        except DegenerateField:
            stop_reason, stop_step = "degenerate_field", i
            break
        un = u + h / 6.0 * (f1[0] + 2.0 * f2[0] + 2.0 * f3[0] + f4[0])
        vn = v + h / 6.0 * (f1[1] + 2.0 * f2[1] + 2.0 * f3[1] + f4[1])
        if not lo <= un <= hi:
            stop_reason, stop_step = "domain_exit", i
            break
        u, v = un, vn
        rows.append((u, v, *surf.point(u, v)))
        try:
            ref = _aligned(direction_field(family, surf, u, v), ref)
        except DegenerateField:
            stop_reason, stop_step = "degenerate_field", i + 1
            break
    return np.array(rows), stop_reason, stop_step


def _assert_same_trace(family, surf, u0, v0, steps, h):
    got = trace_curve(family, surf, u0, v0, steps, h)
    points, stop_reason, stop_step = _reference_trace(family, surf, u0, v0, steps, h)
    assert np.array_equal(got.points, points)
    assert (got.stop_reason, got.stop_step) == (stop_reason, stop_step)
    return got.stop_reason


def _standardized_helicoid():
    from ruledgeo.surface import DEFAULT_DOMAIN, CurveR3, standardize

    base = CurveR3.from_expressions(
        "0.5*cos(u)*cos(u + 0.3*sin(u))", "0.5*cos(u)*sin(u + 0.3*sin(u))",
        "1.1*(u + 0.3*sin(u))", DEFAULT_DOMAIN)
    director = CurveR3.from_expressions(
        "(1.5 + 0.5*sin(u + 1))*cos(u + 0.3*sin(u))",
        "(1.5 + 0.5*sin(u + 1))*sin(u + 0.3*sin(u))", "0", DEFAULT_DOMAIN)
    return standardize(base, director)


@pytest.mark.parametrize("family", list(CurveFamily), ids=lambda f: f.tag)
def test_trace_matches_fresh_first_stage_loop(generic_skew, family):
    reasons = set()
    for surf in (generic_skew, _standardized_helicoid()):
        hi = surf.domain[1]
        for u0, v0, steps, h in ((1.0, 0.4, 12, 0.05), (hi - 0.05, 0.6, 12, 0.05)):
            reasons.add(_assert_same_trace(family, surf, u0, v0, steps, h))
    if family in (CurveFamily.CONST_STRICTION, CurveFamily.ORTH_RULINGS):
        assert "domain_exit" in reasons  # these run along u, out of the domain


def _exact_jet_surface(delta, delta_d1, domain=(0.0, 10.0)):
    """Surface whose jets give k = lambda = 0, the constant delta and the
    constant delta' exactly at every u (e = (1, 0, 0), e' = (0, 1, 0),
    s' = (0, 0, delta), s'' = (0, 0, delta')), so that point_invariants
    returns them without round-off."""
    from ruledgeo.jets import Jet2
    from ruledgeo.surface import CurveR3, StandardRuledSurface

    director = CurveR3(lambda u: (Jet2(1.0), Jet2(0.0, 1.0), Jet2(0.0)), domain)
    striction = CurveR3(
        lambda u: (Jet2(0.0), Jet2(0.0), Jet2(delta * u, delta, delta_d1)), domain)
    return StandardRuledSurface(striction, director, domain, check=False)


def test_trace_degenerate_field_stop_matches_fresh_first_stage_loop():
    # With delta = 1e12 the S4 field is 0 = 0 (to its relative 1e-12) for
    # |v| <= 0.5; delta' = 1e-13 drives v^2 down by about 0.1 per unit of u.
    surf = _exact_jet_surface(1e12, 1e-13)
    reason = _assert_same_trace(CurveFamily.CONST_GAUSS, surf, 0.5, 1.0, 60, 2e11)
    assert reason == "degenerate_field"
