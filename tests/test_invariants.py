"""Fundamental tensors, curvatures, normal curvature, principal directions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledgeo.errors import ZeroDirection
from ruledgeo.invariants import (
    extract_invariants,
    fundamental_forms,
    g_inner,
    gaussian_mean,
    normal_curvature,
    principal_directions,
)

from conftest import embedding_forms, sample_uv

RNG_SEED = 987


def test_forms_right_helicoid_at_gorge(right_helicoid):
    f = fundamental_forms(right_helicoid, 0.9, 0.0)
    assert np.allclose([f.g11, f.g12, f.g22], [1.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose([f.h11, f.h12, f.h22], [0.0, 1.0, 0.0], atol=1e-14)
    assert f.w == 1.0


def test_h22_is_exactly_zero_and_detg_is_w2(gallery_five):
    rng = np.random.default_rng(RNG_SEED)
    for surf in gallery_five.values():
        for _ in range(20):
            u, v = sample_uv(surf, rng)
            f = fundamental_forms(surf, u, v)
            assert f.h22 == 0.0
            det_g = f.g11 * f.g22 - f.g12 * f.g12
            assert abs(det_g - f.w * f.w) < 1e-9 * max(1.0, det_g)


def test_forms_match_embedding_oracle(gallery_five):
    rng = np.random.default_rng(RNG_SEED)
    for name, surf in gallery_five.items():
        for _ in range(60):
            u, v = sample_uv(surf, rng)
            f = fundamental_forms(surf, u, v)
            E, F, G, L, M, N, K, H = embedding_forms(surf, u, v)
            # the embedding normal equals (delta e' - v e3)/w up to jets noise
            for got, want in ((f.g11, E), (f.g12, F), (f.g22, G),
                              (f.h11, L), (f.h12, M), (f.h22, N)):
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), name


def test_curvature_closed_form_vs_embedding(gallery_five):
    rng = np.random.default_rng(RNG_SEED + 1)
    for name, surf in gallery_five.items():
        for _ in range(60):
            u, v = sample_uv(surf, rng)
            c = gaussian_mean(surf, u, v)
            *_, K, H = embedding_forms(surf, u, v)
            assert abs(c.K - K) <= 1e-7 * max(1.0, abs(K)), name
            assert abs(c.H - H) <= 1e-7 * max(1.0, abs(H)), name


def test_curvature_pair_identities(gallery_five):
    rng = np.random.default_rng(RNG_SEED + 2)
    for surf in gallery_five.values():
        for _ in range(25):
            u, v = sample_uv(surf, rng)
            c = gaussian_mean(surf, u, v)
            assert c.K < 0.0
            assert abs(c.k1 * c.k2 - c.K) <= 1e-9 * abs(c.K)
            assert abs(0.5 * (c.k1 + c.k2) - c.H) <= 1e-9 * max(1.0, abs(c.H))
            assert c.k1 <= c.k2


def test_gaussian_examples(right_helicoid):
    # delta = 2, v = 0 -> K = -1/4
    from ruledgeo.surface import gallery

    surf = gallery("right_helicoid", c=2.0)
    assert abs(gaussian_mean(surf, 1.0, 0.0).K + 0.25) < 1e-13
    c = gaussian_mean(right_helicoid, 0.3, 0.0)
    assert abs(c.H) < 1e-13
    assert abs(c.k1 + 1.0) < 1e-13 and abs(c.k2 - 1.0) < 1e-13


def test_edlinger_principal_curvatures_eq5(hyperboloid_edlinger):
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(100):
        u, v = sample_uv(hyperboloid_edlinger, rng)
        k, delta, sigma, lam = extract_invariants(hyperboloid_edlinger, u)
        w = math.sqrt(v * v + delta * delta)
        c = gaussian_mean(hyperboloid_edlinger, u, v)
        assert abs(c.k1 + k / w) < 1e-8
        assert abs(c.k2 - delta * delta / (k * w**3)) < 1e-8


def test_corollary_eq9_residual(hyperboloid_edlinger):
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(100):
        u, v = sample_uv(hyperboloid_edlinger, rng)
        k, delta, *_ = extract_invariants(hyperboloid_edlinger, u)
        c = gaussian_mean(hyperboloid_edlinger, u, v)
        lead = delta * delta * c.k1**3
        assert abs(lead + k**4 * c.k2) < 1e-8 * abs(lead)


def test_normal_curvature_ruling_is_asymptotic(gallery_five):
    rng = np.random.default_rng(RNG_SEED + 5)
    for surf in gallery_five.values():
        for _ in range(10):
            u, v = sample_uv(surf, rng)
            assert normal_curvature(surf, u, v, 0.0, 1.0) == 0.0


def test_normal_curvature_helicoid_u_lines(right_helicoid):
    for u, v in ((0.3, 0.0), (1.0, 0.8), (2.0, -1.7)):
        assert abs(normal_curvature(right_helicoid, u, v, 1.0, 0.0)) < 1e-14


def test_normal_curvature_scale_invariance_exact(conoidal_const_delta):
    kn1 = normal_curvature(conoidal_const_delta, 1.0, 0.5, 0.3, -0.7)
    kn2 = normal_curvature(conoidal_const_delta, 1.0, 0.5, 0.6, -1.4)
    assert kn1 == kn2  # doubling is exact in floating point


@settings(max_examples=60, deadline=None)
@given(
    du=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    dv=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    scale=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)
def test_normal_curvature_homogeneity_property(du, dv, scale):
    from ruledgeo.surface import gallery

    if abs(du) + abs(dv) < 1e-3:
        return
    surf = gallery("conoidal_const_delta", alpha=2.0, beta=1.0)
    a = normal_curvature(surf, 1.1, 0.4, du, dv)
    b = normal_curvature(surf, 1.1, 0.4, scale * du, scale * dv)
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def test_zero_direction_raises(right_helicoid):
    with pytest.raises(ZeroDirection):
        normal_curvature(right_helicoid, 1.0, 0.0, 0.0, 0.0)


def test_principal_directions_match_curvatures(gallery_five):
    rng = np.random.default_rng(RNG_SEED + 6)
    for name, surf in gallery_five.items():
        for _ in range(25):
            u, v = sample_uv(surf, rng)
            c = gaussian_mean(surf, u, v)
            d1, d2 = principal_directions(surf, u, v)
            kn1 = normal_curvature(surf, u, v, *d1)
            kn2 = normal_curvature(surf, u, v, *d2)
            assert abs(kn1 - c.k1) < 1e-8, name
            assert abs(kn2 - c.k2) < 1e-8, name
            f = fundamental_forms(surf, u, v)
            assert abs(g_inner(f, d1, d2)) < 1e-9
            assert abs(g_inner(f, d1, d1) - 1.0) < 1e-12
            assert abs(g_inner(f, d2, d2) - 1.0) < 1e-12


def test_principal_direction_extremizes_kn(generic_skew):
    # 360-direction sweep, refined around the best sample (independent of
    # the principal-direction solver)
    from scipy.optimize import minimize_scalar

    u, v = 3.1, 0.6
    c = gaussian_mean(generic_skew, u, v)
    angles = np.linspace(0.0, math.pi, 360, endpoint=False)
    kn = lambda a: normal_curvature(generic_skew, u, v, math.cos(a), math.sin(a))
    kns = np.array([kn(a) for a in angles])
    step = math.pi / 360.0
    for pick, want, sign in ((np.argmax(kns), c.k2, -1.0), (np.argmin(kns), c.k1, 1.0)):
        a0 = angles[pick]
        res = minimize_scalar(
            lambda a: sign * kn(a), bounds=(a0 - step, a0 + step), method="bounded",
            options={"xatol": 1e-10},
        )
        assert abs(sign * res.fun - want) < 1e-6
    # every sampled direction stays inside [k1, k2]
    assert np.all(kns <= c.k2 + 1e-12) and np.all(kns >= c.k1 - 1e-12)


def test_edlinger_curvature_line_directions(hyperboloid_edlinger):
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(20):
        u, v = sample_uv(hyperboloid_edlinger, rng)
        k, delta, sigma, lam = extract_invariants(hyperboloid_edlinger, u)
        d1, d2 = principal_directions(hyperboloid_edlinger, u, v)
        # one branch runs along the curves of constant striction distance
        assert abs(d1[1]) < 1e-9 * max(1.0, abs(d1[0]))
        # the other satisfies [k^2 v^2 + delta^2 (k^2+1)] du - delta k dv = 0
        resid = (k * k * v * v + delta * delta * (k * k + 1.0)) * d2[0] \
            - delta * k * d2[1]
        assert abs(resid) < 1e-8


def test_extract_invariants_spec_values():
    from ruledgeo.surface import gallery

    surf = gallery("right_helicoid", c=2.0)
    for u in (0.0, 1.0, 4.0):
        k, delta, sigma, lam = extract_invariants(surf, u)
        assert (abs(k), abs(delta - 2.0), abs(lam)) < (1e-12, 1e-12, 1e-12)
    surf = gallery("conoidal_const_delta", alpha=2.0, beta=1.0)
    k, delta, sigma, lam = extract_invariants(surf, 0.8)
    assert abs(k) < 1e-12 and abs(delta - 1.0) < 1e-12 and abs(lam - 2.0) < 1e-12


# grid evaluation against the point path ---------------------------------------

_GRID_SURFACES = {}


def _grid_surface(name):
    """Gallery members with their default parameters, built once."""
    from ruledgeo.surface import gallery

    if name not in _GRID_SURFACES:
        _GRID_SURFACES[name] = gallery(name)
    return _GRID_SURFACES[name]


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["right_helicoid", "hyperboloid_edlinger", "orthoid_const_delta",
                          "conoidal_const_delta", "generic_skew"]),
    fracs=st.lists(unit, min_size=1, max_size=8),
    v_fracs=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                     min_size=1, max_size=6),
)
def test_grid_invariants_and_kn_equal_points(name, fracs, v_fracs):
    from ruledgeo.errors import DegenerateField
    from ruledgeo.families import (
        CurveFamily,
        normal_curvature_from_invariants,
        normal_curvature_grid,
    )
    from ruledgeo.invariants import point_invariants

    surf = _grid_surface(name)
    lo, hi = surf.domain
    us = np.array([lo + f * (hi - lo) for f in fracs])
    grid = point_invariants(surf, us)
    points = [point_invariants(surf, u) for u in us.tolist()]
    for field in ("u", "k", "delta", "delta_d1", "lam", "sigma"):
        assert getattr(grid, field).tolist() == [getattr(p, field) for p in points], field
    # v = 0 included: where delta' = 0, S4 is degenerate there
    vs = np.array([3.0 * f for f in v_fracs] + [0.0])
    for family in CurveFamily:
        kn, degenerate = normal_curvature_grid(family, grid, vs)
        for i, p in enumerate(points):
            for j, v in enumerate(vs.tolist()):
                try:
                    want = normal_curvature_from_invariants(family, p, v)
                except DegenerateField:
                    assert degenerate[i, j], (family, p.u, v)
                    continue
                assert not degenerate[i, j] and kn[i, j] == want, (family, p.u, v)


def test_sigma_of_a_round_off_negative_lambda_is_pi_over_2():
    from ruledgeo.invariants import point_invariants, sigma_from_lam
    from ruledgeo.surface import CurveR3, StandardRuledSurface

    for lam in (-1e-16, -1e-300, -5e-324, -0.0, 0.0):
        assert sigma_from_lam(lam) == math.pi / 2.0, lam
    assert -math.pi / 2.0 < sigma_from_lam(-1e-15) < -1.5
    assert sigma_from_lam(1e-16) == math.pi / 2.0
    # an orthoid up to round-off: s' = lambda delta e + delta e x e' with
    # lambda = -1e-16 and delta = 1, so atan(1/lambda) rounds to -pi/2
    dom = (0.0, 6.0)
    surf = StandardRuledSurface(
        CurveR3.from_expressions("-1e-16*sin(u)", "1e-16*cos(u)", "u", dom),
        CurveR3.from_expressions("cos(u)", "sin(u)", "0", dom),
        dom,
    )
    us = np.linspace(0.0, 6.0, 9)
    grid = point_invariants(surf, us)
    assert (grid.lam < 0.0).all() and (grid.lam > -2e-16).all()
    assert grid.sigma.tolist() == [math.pi / 2.0] * len(us)
    for u in us.tolist():
        p = point_invariants(surf, u)
        assert p.lam < 0.0 and p.sigma == math.pi / 2.0, u


# slot arithmetic against the jet expressions ------------------------------------


def _jet_point_invariants(surf, u):
    """`point_invariants` as jet expressions: the triple products and the
    quotient run on `Jet2`s, all four slots formed. The reference its slot
    arithmetic must match bit for bit."""
    from ruledgeo import jets
    from ruledgeo.invariants import PointInvariants, sigma_from_lam

    s, e = surf.jets(u)
    ep = jets.deriv3(e)
    epp = jets.deriv3(ep)
    sp = jets.deriv3(s)
    k_jet = jets.triple(e, ep, epp)
    delta_jet = jets.triple(e, ep, sp)
    lam_jet = jets.dot(e, sp) / delta_jet
    lam = lam_jet.value
    if isinstance(lam, np.ndarray):
        u = np.asarray(u, dtype=float)
        sigma = np.array([sigma_from_lam(x) for x in lam.tolist()])
    else:
        u = float(u)
        sigma = sigma_from_lam(lam)
    return PointInvariants(u=u, k=k_jet.value, delta=delta_jet.value,
                           delta_d1=delta_jet.d1, lam=lam, sigma=sigma)


_SLOT_SURFACES = {}


def _slot_surface(name):
    """Gallery members, a standardized general pair, a sampled and a
    functional invariant system, built once."""
    from ruledgeo.surface import (
        InvariantTriple,
        load_spec,
        surface_from_invariants,
    )

    if name not in _SLOT_SURFACES:
        if name == "standardized":
            surf = load_spec({
                "type": "expression", "cx": "cos(u)", "cy": "sin(u)", "cz": "u^2/5",
                "dx": "(1.5 + 0.5*sin(u))*cos(u)", "dy": "(1.5 + 0.5*sin(u))*sin(u)",
                "dz": "0.3 + 0.1*cos(2*u)", "domain": [0.0, 6.0]}, standardize_input=True)
        elif name == "samples":
            surf = load_spec({
                "type": "invariants", "u": [0, 1, 2, 3, 4, 5],
                "k": [0.1, 0.3, -0.2, 0.5, 0.2, 0.1], "delta": [1, 1.2, 0.9, 1.1, 1.3, 1],
                "sigma": [0.5, 0.7, 0.6, 0.9, 0.4, 0.5]})
        elif name == "functions":
            surf = surface_from_invariants(InvariantTriple.from_functions(
                k="0.3*sin(u)", delta="1 + 0.2*cos(u)", lam="0.5 + 0.1*u"))
        else:
            surf = _grid_surface(name)
        _SLOT_SURFACES[name] = surf
    return _SLOT_SURFACES[name]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["right_helicoid", "hyperboloid_edlinger", "orthoid_const_delta",
                          "conoidal_const_delta", "generic_skew", "standardized",
                          "samples", "functions"]),
    fracs=st.lists(unit, min_size=1, max_size=8),
)
def test_point_invariants_equal_the_jet_expressions(name, fracs):
    from ruledgeo.invariants import point_invariants

    surf = _slot_surface(name)
    lo, hi = surf.domain
    us = [lo + f * (hi - lo) for f in fracs]
    fields = ("u", "k", "delta", "delta_d1", "lam", "sigma")
    for u in us:
        got, want = point_invariants(surf, u), _jet_point_invariants(surf, u)
        for field in fields:
            assert getattr(got, field) == getattr(want, field), (name, u, field)
    got, want = point_invariants(surf, np.array(us)), _jet_point_invariants(surf, np.array(us))
    for field in fields:
        assert getattr(got, field).tolist() == getattr(want, field).tolist(), (name, field)


def test_point_invariants_raise_non_skew_where_delta_vanishes():
    # s' = (0, 0, (u - a)^2) and e = (cos u, sin u, 0): delta = (u - a)^2
    # touches 0 at u = a without changing sign. Construction rejects this
    # surface, so it is built unchecked to reach the point evaluation.
    from ruledgeo.errors import NonSkew
    from ruledgeo.invariants import point_invariants
    from ruledgeo.surface import CurveR3, StandardRuledSurface

    a = 1.0 + math.pi / 32.0
    dom = (0.0, 2.0 * math.pi)
    surf = StandardRuledSurface(
        CurveR3.from_expressions("0", "0", "(u-(1+pi/32))^3/3", dom),
        CurveR3.from_expressions("cos(u)", "sin(u)", "0", dom),
        dom,
        check=False,
    )
    assert point_invariants(surf, 0.5).delta > 0.0
    with pytest.raises(NonSkew, match=f"at u = {a!r}$"):
        point_invariants(surf, a)
    # on a grid, the first u where delta = 0 is named
    with pytest.raises(NonSkew, match=f"at u = {a!r}$"):
        point_invariants(surf, np.array([0.5, a, 2.0, a]))
