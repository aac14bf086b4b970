"""Gauge conservation, standardization, gallery, and invariant reconstruction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ruledgeo import jets, surface
from ruledgeo.analysis import fit_power_law
from ruledgeo.errors import (
    CurveDomainError,
    CurveOverflow,
    DegenerateDirector,
    GaugeViolation,
    IntegrationFailure,
    InvalidSigma,
    NonSkew,
    OutOfDomain,
    ParamOutOfRange,
    TorsalRuling,
    UnknownGalleryName,
)
from ruledgeo.families import CurveFamily
from ruledgeo.invariants import extract_invariants, point_invariants
from ruledgeo.jets import Jet2
from ruledgeo.surface import (
    DEFAULT_DOMAIN,
    CurveR3,
    InvariantTriple,
    ProfileGrid,
    StandardRuledSurface,
    _GL4_NODES,
    _GL4_WEIGHTS,
    _gauge_residuals,
    _propagate_frame,
    _skew_gate,
    gallery,
    load_spec,
    standardize,
    surface_from_invariants,
)

from conftest import det_invariants

RNG_SEED = 1234


def test_gauge_conservation_all_gallery(gallery_five):
    rng = np.random.default_rng(RNG_SEED)
    for name, surf in gallery_five.items():
        worst = surf.gauge_residuals(n=100, rng=rng)
        assert worst["unit_e"] < 1e-9, name
        assert worst["unit_ep"] < 1e-7, name
        assert worst["orth"] < 1e-7, name


def test_point_is_striction_plus_v_director(right_helicoid):
    u, v = 1.2, 0.7
    p = right_helicoid.point(u, v)
    assert np.allclose(p, [v * math.cos(u), v * math.sin(u), u], atol=1e-14)


def test_out_of_domain(right_helicoid):
    with pytest.raises(OutOfDomain):
        right_helicoid.jets(-1.0)
    with pytest.raises(OutOfDomain):
        extract_invariants(right_helicoid, 100.0)


def _slot_curve(bad_slot=None, value=math.inf):
    """A curve on [0, 1] whose nine value/d1/d2 slots and three d3 slots
    are finite, but for the slot named (component, slot), set to `value`."""

    def raw(u):
        comps = [dict(value=u, d1=1.0, d2=0.5, d3=0.25) for _ in range(3)]
        if bad_slot is not None:
            comps[bad_slot[0]][bad_slot[1]] = value
        return tuple(Jet2(**c) for c in comps)

    return CurveR3(raw, (0.0, 1.0))


@pytest.mark.parametrize("component", range(3))
@pytest.mark.parametrize("slot", ["value", "d1", "d2", "d3"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_curve_eval_rejects_each_non_finite_slot(component, slot, value):
    curve = _slot_curve((component, slot), value)
    if slot == "d3":  # the third-order slot is not checked
        assert math.isnan(curve.eval(0.5)[component].d3) == math.isnan(value)
        return
    with pytest.raises(IntegrationFailure, match=r"non-finite curve value at u = 0\.5$"):
        curve.eval(0.5)


def test_curve_eval_domain_edges():
    curve = _slot_curve()
    slack = 1e-9 * 2.0  # 1e-9 (1 + hi - lo)
    for u in (0.0, 1.0, -slack, 1.0 + slack, 0, True):
        assert curve.eval(u)[0].value == float(u)
    for u, shown in ((-2.1 * slack, repr(-2.1 * slack)), (1.0 + 2.1 * slack, "1.0000000042"),
                     (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(OutOfDomain, match=rf"^u = {shown}.* outside \[0\.0, 1\.0\]$"):
            curve.eval(u)
    with pytest.raises(OutOfDomain, match=r"^u = nan outside \[0\.0, 1\.0\]$"):
        curve.eval(np.array([0.5, math.nan]))


def test_curve_eval_names_jet_errors_at_u():
    def raw(u):
        return (Jet2.variable(u).log(), Jet2.variable(u), Jet2.variable(u))

    curve = CurveR3(raw, (-1.0, 1.0))
    with pytest.raises(CurveDomainError, match=r"^jet log of a non-positive value at u = -0\.5$"):
        curve.eval(-0.5)


def _sampled_surface():
    u = np.linspace(0.0, 2.0 * math.pi, 33)
    profiles = {"k": 1.0 + 0.2 * np.sin(u), "delta": 1.0 + 0.1 * np.cos(u),
                "sigma": 0.9 + 0.1 * np.sin(u)}
    return load_spec({"type": "invariants", "u": u.tolist(),
                      **{name: p.tolist() for name, p in profiles.items()}})


NAN_SURFACES = {
    "gallery": lambda: gallery("right_helicoid"),
    "expression": lambda: StandardRuledSurface(
        CurveR3.from_expressions("0", "0", "u", DEFAULT_DOMAIN),
        CurveR3.from_expressions("cos(u)", "sin(u)", "0", DEFAULT_DOMAIN)),
    "standardized": lambda: standardize(
        *(CurveR3.from_expressions(*comps, DEFAULT_DOMAIN) for comps in GENERAL_PAIRS[1])),
    "from_invariants": lambda: gallery("generic_skew"),
    "sampled": _sampled_surface,
}


@pytest.mark.parametrize("kind", sorted(NAN_SURFACES))
def test_nan_u_is_out_of_domain(kind):
    # a NaN fails every comparison, so the domain check must be an inside
    # test negated, not an outside test
    surf = NAN_SURFACES[kind]()
    with pytest.raises(OutOfDomain, match="u = nan"):
        extract_invariants(surf, math.nan)
    with pytest.raises(OutOfDomain, match="u = nan"):
        point_invariants(surf, np.array([0.5, math.nan, 1.0]))
    with pytest.raises(OutOfDomain, match="u = nan"):
        fit_power_law(surf, CurveFamily("lc1"), u_grid=[0.5, math.nan, 1.0])


# gallery -----------------------------------------------------------------


def test_gallery_right_helicoid_invariants(right_helicoid):
    for u in np.linspace(*right_helicoid.domain, 7):
        k, delta, sigma, lam = extract_invariants(right_helicoid, u)
        ko, do, lo = det_invariants(right_helicoid, u)
        assert abs(k) < 1e-12 and abs(ko) < 1e-12
        assert abs(delta - 1.0) < 1e-12 and abs(do - 1.0) < 1e-12
        assert abs(lam) < 1e-12 and abs(lo) < 1e-12
        assert sigma == math.pi / 2


def test_gallery_helicoid_scales():
    surf = gallery("right_helicoid", c=2.0)
    k, delta, sigma, lam = extract_invariants(surf, 0.8)
    assert abs(k) < 1e-12 and abs(delta - 2.0) < 1e-12 and abs(lam) < 1e-12


def test_gallery_hyperboloid_edlinger_identities(hyperboloid_edlinger):
    for u in np.linspace(*hyperboloid_edlinger.domain, 9):
        k, delta, sigma, lam = extract_invariants(hyperboloid_edlinger, u)
        assert abs(k - 1.0) < 1e-10
        assert abs(delta + 1.0) < 1e-10
        assert abs(k * lam + 1.0) < 1e-10
    # delta' = 0: sample the delta profile directly
    deltas = [extract_invariants(hyperboloid_edlinger, u)[1]
              for u in np.linspace(*hyperboloid_edlinger.domain, 64)]
    assert max(deltas) - min(deltas) < 1e-10


def test_gallery_orthoid_documented_invariants(orthoid_const_delta):
    r = 0.6
    for u in (0.3, 2.0, 5.5):
        k, delta, sigma, lam = extract_invariants(orthoid_const_delta, u)
        assert abs(k - math.sqrt(1 - r * r) / r) < 1e-12
        assert abs(delta - 1.0) < 1e-12
        assert abs(lam) < 1e-12


def test_gallery_conoidal_documented_invariants(conoidal_const_delta):
    for u in (0.4, 1.9, 4.4):
        k, delta, sigma, lam = extract_invariants(conoidal_const_delta, u)
        ko, do, lo = det_invariants(conoidal_const_delta, u)
        assert abs(k) < 1e-12 and abs(ko) < 1e-12
        assert abs(delta - 1.0) < 1e-12
        assert abs(lam - 2.0) < 1e-12 and abs(lo - 2.0) < 1e-12


def test_gallery_conoidal_is_conoidal(conoidal_const_delta):
    # rulings parallel to the plane z = 0
    for u in np.linspace(*conoidal_const_delta.domain, 17):
        e = conoidal_const_delta.director.eval(u)
        assert abs(e[2].value) < 1e-15


def test_gallery_errors():
    with pytest.raises(UnknownGalleryName):
        gallery("moebius")
    with pytest.raises(ParamOutOfRange):
        gallery("orthoid_const_delta", r=1.5)
    with pytest.raises(ParamOutOfRange):
        gallery("orthoid_const_delta", r=0.5, delta=0.0)
    with pytest.raises(ParamOutOfRange):
        gallery("right_helicoid", c=0.0)
    with pytest.raises(ParamOutOfRange):
        gallery("conoidal_const_delta", alpha=-1.0)
    with pytest.raises(ParamOutOfRange):
        gallery("right_helicoid", q=3.0)  # unknown parameter name
    for domain in ((1.0, 0.0), (0.0, math.inf), ("a", "b")):
        with pytest.raises(ParamOutOfRange):
            gallery("right_helicoid", domain=domain)
    with pytest.raises(ParamOutOfRange):
        gallery("generic_skew", seed=10**400)  # beyond the float range


def test_generic_skew_deterministic():
    a = gallery("generic_skew", seed=7)
    b = gallery("generic_skew", seed=7)
    for u in (0.5, 3.3):
        assert extract_invariants(a, u) == extract_invariants(b, u)
    c = gallery("generic_skew", seed=8)
    assert extract_invariants(a, 1.0) != extract_invariants(c, 1.0)


# standardize ---------------------------------------------------------------


def test_standardize_helix_axis_identity():
    dom = DEFAULT_DOMAIN
    c = CurveR3.from_expressions("0", "0", "u", dom)
    d = CurveR3.from_expressions("cos(u)", "sin(u)", "0", dom)
    surf = standardize(c, d)
    assert abs(surf.domain[1] - dom[1]) < 1e-9
    for t in (0.2, 2.0, 5.0):
        e = surf.director.eval(t)
        s = surf.striction.eval(t)
        assert abs(e[0].value - math.cos(t)) < 1e-9
        assert abs(e[1].value - math.sin(t)) < 1e-9
        assert abs(s[2].value - t) < 1e-9
        assert abs(s[0].value) < 1e-9 and abs(s[1].value) < 1e-9


def test_standardize_hyperboloid_rulings():
    # gorge circle with slanted rulings; t = u / sqrt(2)
    dom = DEFAULT_DOMAIN
    c = CurveR3.from_expressions("cos(u)", "sin(u)", "0", dom)
    d = CurveR3.from_expressions(
        "-sin(u)/sqrt(2)", "cos(u)/sqrt(2)", "1/sqrt(2)", dom
    )
    surf = standardize(c, d)
    assert abs(surf.domain[1] - 2 * math.pi / math.sqrt(2)) < 1e-7
    worst = surf.gauge_residuals(n=60)
    assert worst["unit_e"] < 1e-12
    assert worst["unit_ep"] < 1e-10
    assert worst["orth"] < 1e-10
    # striction curve stays on the gorge circle
    for t in np.linspace(0.1, surf.domain[1] - 0.1, 11):
        s = surf.striction.eval(t)
        assert abs(math.hypot(s[0].value, s[1].value) - 1.0) < 1e-9
        assert abs(s[2].value) < 1e-9
    # constant invariants with k lambda + 1 = 0 (an Edlinger surface)
    k, delta, sigma, lam = extract_invariants(surf, 1.0)
    assert abs(k * lam + 1.0) < 1e-9


def test_standardize_unnormalized_director_matches_unit_one():
    dom = (0.0, 3.0)
    c = CurveR3.from_expressions("0", "0", "u", dom)
    d2 = CurveR3.from_expressions("2*cos(u)", "2*sin(u)", "0", dom)
    surf = standardize(c, d2)
    k, delta, sigma, lam = extract_invariants(surf, 1.0)
    assert abs(k) < 1e-10 and abs(delta - 1.0) < 1e-10 and abs(lam) < 1e-10


def test_standardize_idempotent_on_standard_surface(conoidal_const_delta):
    surf0 = conoidal_const_delta
    surf1 = standardize(surf0.striction, surf0.director)
    lo = surf0.domain[0]
    for t in np.linspace(0.0, surf1.domain[1], 13):
        e0 = surf0.director.eval(lo + t)
        e1 = surf1.director.eval(t)
        s0 = surf0.striction.eval(lo + t)
        s1 = surf1.striction.eval(t)
        for i in range(3):
            assert abs(e0[i].value - e1[i].value) < 1e-9
            assert abs(s0[i].value - s1[i].value) < 1e-9


def test_standardize_orientation_flip():
    # director chosen so that <e, s'> < 0; standardize must flip it so that
    # sign(lambda) = sign(delta)
    dom = DEFAULT_DOMAIN
    c = CurveR3.from_expressions("-2*sin(u)", "2*cos(u)", "u", dom)
    d = CurveR3.from_expressions("-cos(u)", "-sin(u)", "0", dom)
    surf = standardize(c, d)
    k, delta, sigma, lam = extract_invariants(surf, 2.0)
    assert abs(lam) > 1e-6
    assert math.copysign(1.0, lam) == math.copysign(1.0, delta)
    assert math.copysign(1.0, sigma) == math.copysign(1.0, delta)


def test_standardize_torsal_and_degenerate_errors():
    dom = (0.0, 3.0)
    c = CurveR3.from_expressions("0", "0", "u", dom)
    const_d = CurveR3.from_expressions("1", "0", "0", dom)
    with pytest.raises(TorsalRuling):
        standardize(c, const_d, grid=64)
    apex = CurveR3.from_expressions("0", "0", "0", dom)
    cone_dir = CurveR3.from_expressions("cos(u)", "sin(u)", "1", dom)
    # cone: striction degenerates to the apex, delta = 0 (torsal, non-skew)
    with pytest.raises(NonSkew):
        standardize(apex, cone_dir, grid=64)


# grid (array) evaluation against the scalar path ------------------------------


def _scalar_arclength_table(director, grid, tol_torsal=1e-8, tol_director=1e-12):
    """t(u) at the grid nodes as `standardize` built it, one scalar jet at
    a time (the reference for the grid evaluation)."""
    lo, hi = director.domain

    def ebar_jets(u):
        d = director.eval(u)
        n2 = jets.dot(d, d)
        if n2.value < tol_director**2:
            raise DegenerateDirector(f"|d(u)| ~ 0 at u = {u}")
        return jets.scale(d, 1.0 / n2.sqrt())

    def speed_jet(u):
        ebp = jets.deriv3(ebar_jets(u))
        n2 = jets.dot(ebp, ebp)
        if n2.value < tol_torsal * tol_torsal:
            raise TorsalRuling(
                f"|e'(u)| ~ {math.sqrt(max(n2.value, 0.0)):.3e} at u = {u}; "
                "ruling is (numerically) torsal"
            )
        return n2.sqrt()

    def segment_integral(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(
            w * speed_jet(mid + half * x).value for x, w in zip(_GL4_NODES, _GL4_WEIGHTS)
        )

    us = np.linspace(lo, hi, grid + 1)
    t_nodes = np.empty(grid + 1)
    t_nodes[0] = 0.0
    for i in range(grid):
        t_nodes[i + 1] = t_nodes[i] + segment_integral(us[i], us[i + 1])
        speed_jet(us[i])
    speed_jet(us[-1])
    return t_nodes


def _standardize_table(monkeypatch, base, director, grid):
    """The first arclength table `standardize` builds, captured as
    `_arclength_table` returns it."""
    seen = []
    real = surface._arclength_table

    def spy(*args):
        out = real(*args)
        seen.append(np.array(out[1]))
        return out

    monkeypatch.setattr(surface, "_arclength_table", spy)
    standardize(base, director, grid=grid)
    monkeypatch.undo()
    return seen[0]


GENERAL_PAIRS = [
    # reparametrized helicoid: phi = u + 0.3 sin u, director length 1.5 + 0.5 sin(u + 1)
    (("0.5*cos(u)*cos(u + 0.3*sin(u))", "0.5*cos(u)*sin(u + 0.3*sin(u))",
      "1.1*(u + 0.3*sin(u))"),
     ("(1.5 + 0.5*sin(u + 1))*cos(u + 0.3*sin(u))",
      "(1.5 + 0.5*sin(u + 1))*sin(u + 0.3*sin(u))", "0")),
    # gorge circle with slanted rulings (an Edlinger surface)
    (("cos(u)", "sin(u)", "0"), ("-sin(u)/sqrt(2)", "cos(u)/sqrt(2)", "1/sqrt(2)")),
    # director with exp and powers, so numpy's and math's exp both appear
    (("2*sin(u)", "-2*cos(u)", "3*u + u^2/8"),
     ("cos(u)", "sin(u)*(1 + u^2/9)^-0.25", "0.1*exp(u/5)")),
]


@pytest.mark.parametrize("pair", GENERAL_PAIRS, ids=["helicoid", "edlinger", "exp_pow"])
def test_standardize_table_matches_scalar_loop(monkeypatch, pair):
    dom = DEFAULT_DOMAIN
    base, director = (CurveR3.from_expressions(*comps, dom) for comps in pair)
    for grid in (64, 1024):
        got = _standardize_table(monkeypatch, base, director, grid)
        want = _scalar_arclength_table(director, grid)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13


def _speed(director, u):
    """Spherical speed of the normalized director at a float u."""
    d = director.eval(u)
    ebar = jets.scale(d, 1.0 / jets.dot(d, d).sqrt())
    ebp = jets.deriv3(ebar)
    return math.sqrt(jets.dot(ebp, ebp).value)


def _gauss(director, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * sum(w * _speed(director, mid + half * x)
                      for x, w in zip(_GL4_NODES, _GL4_WEIGHTS))


def _standardize_inverses(monkeypatch, base, director, grid):
    """Every (segment count, inverse u(t)) `standardize` builds, in order."""
    seen = []
    real = surface._hermite_inverse

    def spy(t_nodes, coef, lo, hi):
        invert = real(t_nodes, coef, lo, hi)
        seen.append((len(coef), invert))
        return invert

    monkeypatch.setattr(surface, "_hermite_inverse", spy)
    standardize(base, director, grid=grid)
    monkeypatch.undo()
    return seen


def _closure(director, n, invert, ts):
    """max |T(u(t)) - t| over ts, T the n-segment table rebuilt point by point."""
    us = np.linspace(*director.domain, n + 1).tolist()
    t_nodes = _scalar_arclength_table(director, n).tolist()
    worst = 0.0
    for t in ts:
        u = invert(t)
        i = min(max(int(np.searchsorted(t_nodes, t, side="right")) - 1, 0), n - 1)
        worst = max(worst, abs(t_nodes[i] + _gauss(director, us[i], u) - t))
    return worst


@pytest.mark.parametrize("pair", GENERAL_PAIRS, ids=["helicoid", "edlinger", "exp_pow"])
def test_arclength_inverse_closes(monkeypatch, pair):
    base, director = (CurveR3.from_expressions(*comps, DEFAULT_DOMAIN) for comps in pair)
    rng = np.random.default_rng(RNG_SEED)
    for grid in (64, 1024):
        built = _standardize_inverses(monkeypatch, base, director, grid)
        n, invert = built[-1]
        t_total = float(_scalar_arclength_table(director, n)[-1])
        ts = rng.uniform(0.0, t_total, 60).tolist() + [0.0, t_total]
        assert _closure(director, n, invert, ts) <= 1e-13 * max(1.0, t_total)
        if len(built) > 1:  # the first table did not close at its midpoints
            n0, invert0 = built[0]
            t0 = _scalar_arclength_table(director, n0)
            mids = (0.5 * (t0[:-1] + t0[1:])).tolist()
            assert _closure(director, n0, invert0, mids) > 1e-13 * max(1.0, t_total)
        assert [m for m, _ in built] == [grid * 2**j for j in range(len(built))]
        if grid == 64 and pair is not GENERAL_PAIRS[1]:
            assert len(built) > 1  # helicoid and exp_pow need a finer table


def _pchip_newton_inverse(director, grid):
    """u(t) as `standardize` inverted it before the quintic inverse: a
    monotone cubic through the table, polished by two Newton steps."""
    from scipy.interpolate import PchipInterpolator

    lo, hi = director.domain
    us = np.linspace(lo, hi, grid + 1)
    t_nodes = _scalar_arclength_table(director, grid)
    t_total = float(t_nodes[-1])
    u_of_t = PchipInterpolator(t_nodes, us)

    def invert(t):
        t = min(max(t, 0.0), t_total)
        u = float(u_of_t(t))
        for _ in range(2):
            u = min(max(u, lo), hi)
            i = max(min(int(np.searchsorted(t_nodes, t, side="right")) - 1, grid - 1), 0)
            u -= (t_nodes[i] + _gauss(director, us[i], u) - t) / _speed(director, u)
        return min(max(u, lo), hi)

    return invert


@pytest.mark.parametrize("pair", GENERAL_PAIRS, ids=["helicoid", "edlinger", "exp_pow"])
def test_arclength_inverse_matches_pchip_newton(monkeypatch, pair):
    base, director = (CurveR3.from_expressions(*comps, DEFAULT_DOMAIN) for comps in pair)
    # At the default grid. On a coarse table the quintic only has to close
    # to 1e-13 max(1, t_total) in t, while the Newton polish went further.
    grid = 1024
    n, invert = _standardize_inverses(monkeypatch, base, director, grid)[-1]
    assert n == grid
    old = _pchip_newton_inverse(director, grid)
    ts = np.linspace(0.0, float(_scalar_arclength_table(director, grid)[-1]), 97)
    got = invert(ts)
    for t, u in zip(ts.tolist(), got.tolist()):
        assert invert(t) == u  # the float and array paths agree
        assert abs(u - old(t)) <= 1e-13


def test_arclength_inverse_that_never_closes_raises():
    # director speed 1 + 0.9 sin(8u): two segments, even at 8x, cannot follow it
    base = CurveR3.from_expressions("0", "0", "u", (0.0, 3.0))
    director = CurveR3.from_expressions(
        "cos(u - 0.1125*cos(8*u))", "sin(u - 0.1125*cos(8*u))", "0", (0.0, 3.0))
    with pytest.raises(IntegrationFailure, match=r"does not close at t = \d"):
        standardize(base, director, grid=2)


def test_standardized_grid_eval_matches_points():
    base, director = (CurveR3.from_expressions(*comps, DEFAULT_DOMAIN)
                      for comps in GENERAL_PAIRS[0])
    surf = standardize(base, director)
    ts = np.linspace(0.0, surf.domain[1], 11)
    for curve in (surf.director, surf.striction):
        grid = curve.eval(ts)
        for i, t in enumerate(ts.tolist()):
            for g, p in zip(grid, curve.eval(t)):
                for a, b in zip((g.value, g.d1, g.d2), (p.value, p.d1, p.d2)):
                    assert abs(a[i] - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("pair", GENERAL_PAIRS, ids=["helicoid", "edlinger", "exp_pow"])
def test_standardized_grid_invariants_equal_the_float_path(pair):
    # exp_pow reaches exp and fractional powers, whose array rules take
    # math's functions element by element
    surf = standardize(*(CurveR3.from_expressions(*comps, DEFAULT_DOMAIN) for comps in pair))
    us = np.linspace(0.0, surf.domain[1], 129)
    grid = point_invariants(surf, us)
    points = [point_invariants(surf, u) for u in us.tolist()]
    for field in ("k", "delta", "delta_d1", "lam", "sigma"):
        _assert_same_bits(getattr(grid, field), [getattr(p, field) for p in points])
    for curve in (surf.director, surf.striction):
        _assert_jets_same_bits(curve.eval(us), [curve.eval(u) for u in us.tolist()])


# the slot arithmetic of standardize against its Jet2 form ------------------


def _jet_standardized(base, director, invert):
    """The raw director and striction evaluators of `standardize` written
    with `Jet2` objects, as they were before its slot arithmetic: the
    oracle that arithmetic must equal bit for bit."""

    def ebar_jets(u):
        d = director.eval(u)
        n2 = jets.dot(d, d)
        i = jets.first_true(n2.value < surface.TOL_DIRECTOR**2)
        if i is not None:
            raise DegenerateDirector(f"|d(u)| ~ 0 at u = {np.asarray(u)[i]}")
        return jets.scale(d, 1.0 / n2.sqrt())

    def speed_from(eb, u):
        ebp = jets.deriv3(eb)
        n2 = jets.dot(ebp, ebp)
        i = jets.first_true(n2.value < surface.TOL_TORSAL * surface.TOL_TORSAL)
        if i is not None:
            raise TorsalRuling(
                f"|e'(u)| ~ {math.sqrt(max(np.asarray(n2.value)[i], 0.0)):.3e} "
                f"at u = {np.asarray(u)[i]}; ruling is (numerically) torsal"
            )
        return n2.sqrt()

    def frame(t):
        u = invert(t)
        eb = ebar_jets(u)
        tau = speed_from(eb, u)
        t0, t1, t2 = tau.value, tau.d1, tau.d2
        up = 1.0 / t0
        return Jet2(u, up, -t1 / jets.power(t0, 3),
                    (3.0 * t1 * t1 - t0 * t2) / jets.power(t0, 5)), eb

    def director_raw(t):
        uj, eb = frame(t)
        return tuple(uj._compose(c.value, c.d1, c.d2, c.d3) for c in eb)

    def striction_raw(t):
        uj, eb = frame(t)
        c = base.eval(uj.value)
        cp = jets.deriv3(c)
        ebp = jets.deriv3(eb)
        m = jets.dot(cp, ebp) / jets.dot(ebp, ebp)
        s_u = tuple(a - b for a, b in zip(c, jets.scale(eb, m)))
        out = tuple(uj._compose(comp.value, comp.d1, comp.d2, comp.d3) for comp in s_u)
        return tuple(Jet2(c.value, c.d1, c.d2, 0.0) for c in out)

    return director_raw, striction_raw


def _standardize_with_oracle(monkeypatch, base, director):
    """The standardized surface and the `Jet2` oracle of its two curves,
    on the arclength inverse the surface keeps."""
    inverses, real = [], surface._hermite_inverse

    def spy(*args):
        inverses.append(real(*args))
        return inverses[-1]

    monkeypatch.setattr(surface, "_hermite_inverse", spy)
    surf = standardize(base, director)
    monkeypatch.undo()
    return surf, _jet_standardized(base, director, inverses[-1])


def _build_plan_general_specs(tmp_path, rounds):
    """The general (base curve, director) specs of the first rounds of the
    seed-7 `build` benchmark plan."""
    import json
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    inputs, _ = workloads.make_plan("build", 7, str(tmp_path))
    paths = [req["argv"][2] for reqs in inputs["rounds"][:rounds] for req in reqs
             if "--standardize" in req["argv"]]
    specs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        specs.append(([spec[k] for k in ("cx", "cy", "cz")],
                      [spec[k] for k in ("dx", "dy", "dz")], tuple(spec["domain"])))
    return specs


def _oracle_cases(tmp_path):
    """(base, director, domain) of the test pairs, a pair whose director
    orientation flips, a negative domain and the benchmark's general specs."""
    cases = [(*pair, DEFAULT_DOMAIN) for pair in GENERAL_PAIRS]
    base, director = GENERAL_PAIRS[1]
    cases.append((base, tuple(f"-({c})" for c in director), DEFAULT_DOMAIN))
    cases.append((*GENERAL_PAIRS[2], (-3.0, 1.0)))
    return cases + _build_plan_general_specs(tmp_path, 5)


def _slot_bits(comps):
    """The value, d1, d2 and d3 slots of three component jets, as int64 bits
    on a common shape (a grid broadcasts its scalar slots)."""
    slots = [x for c in comps for x in (c.value, c.d1, c.d2, c.d3)]
    shape = np.broadcast_shapes(*(np.shape(x) for x in slots))
    rows = [np.broadcast_to(np.asarray(x, dtype=float), shape) for x in slots]
    return np.array(rows).view(np.int64)


def test_standardize_slots_equal_the_jet_rules(monkeypatch, tmp_path):
    flips = []
    for base_comps, dir_comps, domain in _oracle_cases(tmp_path):
        base, director = (CurveR3.from_expressions(*comps, domain)
                          for comps in (base_comps, dir_comps))
        surf, (director_raw, striction_raw) = _standardize_with_oracle(
            monkeypatch, base, director)
        ts = np.concatenate([np.linspace(0.0, surf.domain[1], 33),
                             np.random.default_rng(RNG_SEED).uniform(0.0, surf.domain[1], 8)])
        # the surface's director is the raw one or its negation, exactly
        got = _slot_bits(surf.director.raw_eval(ts))
        flipped = not np.array_equal(got, _slot_bits(director_raw(ts)))
        flips.append(flipped)
        sign = -1.0 if flipped else 1.0

        def oracle_director(t):
            return tuple(sign * c for c in director_raw(t))

        for curve, oracle in ((surf.director, oracle_director), (surf.striction, striction_raw)):
            assert np.array_equal(_slot_bits(curve.raw_eval(ts)), _slot_bits(oracle(ts)))
            for t in ts.tolist():
                assert np.array_equal(_slot_bits(curve.raw_eval(t)), _slot_bits(oracle(t))), t
    assert flips[1] != flips[3]  # the negated Edlinger director flips back


def _spoil(monkeypatch, curve, u_cut, how):
    """Make `curve` degenerate (|d| ~ 0), torsal (d' = 0) or raise a math
    domain error where u > u_cut, on floats and on arrays alike."""
    raw = curve.raw_eval

    def spoiled(u):
        bad = u > u_cut
        if how == "error":
            if np.any(bad):
                raise ValueError("math domain error")
            return raw(u)
        f = np.where(bad, 1e-14 if how == "degenerate" else 0.0, 1.0)
        f = f if isinstance(u, np.ndarray) else float(f)
        if how == "degenerate":
            return tuple(c * f for c in raw(u))
        return tuple(Jet2(c.value, c.d1 * f, c.d2 * f, c.d3 * f) for c in raw(u))

    monkeypatch.setattr(curve, "raw_eval", spoiled)


@pytest.mark.parametrize("how,exc", [("degenerate", DegenerateDirector),
                                     ("torsal", TorsalRuling),
                                     ("error", CurveDomainError)])
def test_standardized_errors_agree_on_floats_and_grids(monkeypatch, how, exc):
    base, director = (CurveR3.from_expressions(*comps, DEFAULT_DOMAIN)
                      for comps in GENERAL_PAIRS[0])
    surf = standardize(base, director)
    t_total = surf.domain[1]
    _spoil(monkeypatch, director, 3.0, how)
    ts = np.array([0.1, 0.8, 0.9]) * t_total
    for curve in (surf.director, surf.striction):
        messages = _same_error(lambda: curve.eval(float(ts[1])), lambda: curve.eval(ts))
        assert messages[0] == messages[1] and "at u = " in messages[0]
        with pytest.raises(exc):
            curve.eval(float(ts[1]))


def _count_raw_evals(monkeypatch, **curves):
    """Wrap each curve's `raw_eval`; returns the live count per name."""
    calls = dict.fromkeys(curves, 0)
    for name, curve in curves.items():
        def counted(u, raw=curve.raw_eval, name=name):
            calls[name] += 1
            return raw(u)

        monkeypatch.setattr(curve, "raw_eval", counted)
    return calls


def test_standardized_point_evaluates_director_and_base_once(monkeypatch):
    base, director = (CurveR3.from_expressions(*comps, DEFAULT_DOMAIN)
                      for comps in GENERAL_PAIRS[0])
    surf = standardize(base, director)
    calls = _count_raw_evals(monkeypatch, base=base, director=director)
    ts = np.linspace(0.1, surf.domain[1] - 0.1, 7).tolist()
    for t in ts:
        surf.point(t, 0.3)
        extract_invariants(surf, t)  # the same t again: no evaluation at all
    assert calls == {"base": len(ts), "director": len(ts)}
    # arrays bypass the memo: each of the two curves evaluates the director
    surf.jets(np.array(ts))
    assert calls == {"base": len(ts) + 1, "director": len(ts) + 2}


def test_jet_memos_key_on_the_identical_float(monkeypatch):
    surf = gallery("right_helicoid", c=1.0)
    calls = _count_raw_evals(monkeypatch, s=surf.striction, e=surf.director)
    for u in (0.0, 0.0, -0.0, -0.0, 0.0, 1.0, 1, np.float64(1.0), 0.5):
        surf.jets(u)
    # 0.0, -0.0, 0.0, 1.0 (also as int and numpy float), 0.5
    assert calls == {"s": 5, "e": 5}
    surf.jets(0.0)
    _, e = surf.jets(-0.0)
    assert math.copysign(1.0, e[2].value) == -1.0  # e_z = 0 * u at u = -0.0
    grid = np.array([0.5, 0.5])
    surf.jets(grid)
    surf.jets(grid)  # arrays bypass the memo
    assert calls == {"s": 9, "e": 9}

    # the reparametrization memo of a standardized surface: its striction and
    # director ask for the same t, which hits for 0.0 and misses for -0.0
    base, director = (CurveR3.from_expressions(*comps, DEFAULT_DOMAIN)
                      for comps in GENERAL_PAIRS[1])
    std = standardize(base, director)
    inner = _count_raw_evals(monkeypatch, d=director)
    for t in (0.0, -0.0):
        std.director.eval(t)
        std.striction.eval(t)
    assert inner == {"d": 2}


def _pointwise_gauge_residuals(striction, director, us):
    """The gauge residuals evaluated one point at a time (the reference)."""
    worst = {"unit_e": 0.0, "unit_ep": 0.0, "orth": 0.0}
    deltas = []
    for u in us:
        e = director.eval(u)
        s = striction.eval(u)
        ev = jets.values3(e)
        epv = (e[0].d1, e[1].d1, e[2].d1)
        spv = (s[0].d1, s[1].d1, s[2].d1)
        worst["unit_e"] = max(worst["unit_e"], abs(math.hypot(*ev) - 1.0))
        worst["unit_ep"] = max(worst["unit_ep"], abs(math.hypot(*epv) - 1.0))
        worst["orth"] = max(worst["orth"], abs(jets.dot(spv, epv)))
        deltas.append(jets.triple(ev, epv, spv))
    worst["min_abs_delta"] = min(map(abs, deltas))
    return worst, deltas


def test_gauge_residuals_on_grid_match_points(gallery_five):
    base, director = (CurveR3.from_expressions(*comps, DEFAULT_DOMAIN)
                      for comps in GENERAL_PAIRS[0])
    surfaces = dict(gallery_five, standardized=standardize(base, director))
    rng = np.random.default_rng(RNG_SEED)
    for name, surf in surfaces.items():
        lo, hi = surf.domain
        for us in (np.linspace(lo, hi, 33), rng.uniform(lo, hi, 20)):
            worst, deltas = _gauge_residuals(surf.striction, surf.director, us)
            want_worst, want_deltas = _pointwise_gauge_residuals(
                surf.striction, surf.director, us)
            assert worst.keys() == want_worst.keys()
            for key, value in want_worst.items():
                assert abs(worst[key] - value) <= 1e-15 * max(1.0, abs(value)), (name, key)
            np.testing.assert_allclose(deltas, want_deltas, rtol=1e-13, atol=0.0)


def _same_error(scalar_call, grid_call):
    """Both calls raise the same exception type; returns both messages."""
    with pytest.raises(Exception) as scalar:
        scalar_call()
    with pytest.raises(type(scalar.value)) as grid:
        grid_call()
    assert type(grid.value) is type(scalar.value)
    return str(scalar.value), str(grid.value)


@pytest.mark.parametrize("comps,u_bad,exc", [
    (("sqrt(u - 1)", "0", "0"), 0.0, ValueError),
    (("0", "log(u - 1)", "0"), 0.0, ValueError),
    (("0", "0", "1/(u - 1)"), 1.0, ZeroDivisionError),
], ids=["sqrt", "log", "zero_divisor"])
def test_grid_jet_errors_name_u(comps, u_bad, exc):
    curve = CurveR3.from_expressions(*comps, (0.0, 2.0))
    us = np.linspace(0.0, 2.0, 5)
    scalar_msg, grid_msg = _same_error(lambda: curve.eval(u_bad), lambda: curve.eval(us))
    with pytest.raises(exc):
        curve.eval(us)
    assert f"u = {u_bad}" in grid_msg and grid_msg == scalar_msg


@pytest.mark.parametrize("cx", ["2^2^2^2^2^2", "(u + 1e100)^3.5"])
def test_float_power_overflow_names_its_text(cx):
    try:
        10.0**400.0
    except OverflowError as exc:
        errno, text = exc.args  # the C library's text for ERANGE
    curve = CurveR3.from_expressions(cx, "0", "u", (0.0, 1.0))
    for u in (0.0, np.linspace(0.0, 1.0, 5)):
        with pytest.raises(CurveOverflow) as err:
            curve.eval(u)
        assert str(err.value) == f"{text} at u = 0.0"


def test_grid_out_of_domain_names_u():
    curve = CurveR3.from_expressions("cos(u)", "sin(u)", "0", (0.0, 2.0))
    scalar_msg, grid_msg = _same_error(lambda: curve.eval(3.0),
                                       lambda: curve.eval(np.array([0.5, 3.0, -1.0])))
    with pytest.raises(OutOfDomain):
        curve.eval(np.array([0.5, 3.0]))
    assert "u = 3.0" in grid_msg and grid_msg == scalar_msg


def test_grid_falls_back_to_points_where_only_grid_rules_fail():
    # a constant integral exponent allows a negative base at a point, while
    # a grid of exponents takes the fractional-power rule
    curve = CurveR3.from_expressions("u^(2 + 0*u)", "0", "0", (-1.0, 1.0))
    us = np.linspace(-1.0, 1.0, 5)
    grid = curve.eval(us)
    np.testing.assert_allclose(grid[0].value, us**2)
    np.testing.assert_allclose(grid[0].d1, 2.0 * us)


def test_standardize_grid_errors_name_u():
    dom = (0.0, 2.0)
    base = CurveR3.from_expressions("0", "0", "u", dom)
    # |d| vanishes at u = 1, a node of the 64-segment grid
    vanishing = CurveR3.from_expressions("(u-1)*cos(u)", "(u-1)*sin(u)", "0", dom)
    scalar_msg, grid_msg = _same_error(
        lambda: _scalar_arclength_table(vanishing, 64),
        lambda: standardize(base, vanishing, grid=64))
    with pytest.raises(DegenerateDirector):
        standardize(base, vanishing, grid=64)
    assert "u = 1.0" in grid_msg and grid_msg == scalar_msg
    constant = CurveR3.from_expressions("1", "0", "0", dom)
    scalar_msg, grid_msg = _same_error(
        lambda: _scalar_arclength_table(constant, 64),
        lambda: standardize(base, constant, grid=64))
    with pytest.raises(TorsalRuling):
        standardize(base, constant, grid=64)
    assert "u = " in grid_msg and grid_msg == scalar_msg


def test_standard_ctor_rejects_non_unit_director():
    dom = (0.0, 3.0)
    s = CurveR3.from_expressions("0", "0", "u", dom)
    d = CurveR3.from_expressions("2*cos(u)", "2*sin(u)", "0", dom)
    with pytest.raises(GaugeViolation):
        StandardRuledSurface(s, d, dom)


# surface_from_invariants ----------------------------------------------------


def test_reconstruction_right_helicoid_case():
    from ruledgeo.families import CurveFamily, normal_curvature_along

    inv = InvariantTriple.from_functions(k=0.0, delta=1.0, sigma=math.pi / 2,
                                         domain=(0.0, 4.0))
    surf = surface_from_invariants(inv)
    report_k = [extract_invariants(surf, u)[0] for u in np.linspace(0.1, 3.9, 9)]
    assert max(abs(k) for k in report_k) < 1e-9
    # matches the closed-form helicoid up to rigid motion: compare invariants
    # and check k_N = 0 along the orthogonal trajectories of the rulings
    for u in (0.5, 2.5):
        k, delta, sigma, lam = extract_invariants(surf, u)
        assert abs(delta - 1.0) < 1e-9 and abs(lam) < 1e-9
        for v in (-1.0, 0.0, 0.8):
            kn = normal_curvature_along(CurveFamily.ORTH_RULINGS, surf, u, v)
            assert abs(kn) < 1e-9


def test_reconstruction_edlinger_case():
    from ruledgeo.analysis import classify

    lam = -1.0
    inv = InvariantTriple.from_functions(k=1.0, delta=-1.0,
                                         sigma=math.atan(1.0 / lam),
                                         domain=(0.0, 4.0))
    surf = surface_from_invariants(inv)
    flags = classify(surf).flags
    assert flags["edlinger"] and flags["const_delta"]
    assert not flags["right_helicoid"] and not flags["orthoid"]


def test_round_trip_constant_and_varying_profiles():
    cases = [
        dict(k=0.3, delta=1.2, lam=0.7, domain=(0.0, 2.0)),
        dict(
            k=lambda u: jets.sin(u),
            delta=lambda u: 1.0 + 0.3 * jets.sin(u),
            lam=lambda u: 0.6 + 0.2 * jets.cos(u),
            domain=(0.0, 2.0),
        ),
    ]
    for case in cases:
        inv = InvariantTriple.from_functions(**case)
        surf = surface_from_invariants(inv)
        for u in np.linspace(0.01, 1.99, 41):
            k, delta, sigma, lam = extract_invariants(surf, u)
            assert abs(k - inv.k(u)) < 1e-6
            assert abs(delta - inv.delta(u)) < 1e-6
            assert abs(sigma - inv.sigma(u)) < 1e-6


def test_frame0_and_s0_are_honored():
    inv = InvariantTriple.from_functions(k=0.2, delta=1.0, lam=0.5,
                                         domain=(0.0, 2.0))
    th = 0.3
    rot = np.array(
        [
            [math.cos(th), math.sin(th), 0.0],
            [-math.sin(th), math.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    frame0 = np.stack([rot[0], rot[1], np.cross(rot[0], rot[1])])
    surf = surface_from_invariants(inv, frame0=frame0, s0=(1.0, 2.0, 3.0))
    s = surf.striction.eval(0.0)
    e = surf.director.eval(0.0)
    assert np.allclose([c.value for c in s], [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose([c.value for c in e], rot[0], atol=1e-12)
    # invariants are rigid-motion invariant
    k, delta, sigma, lam = extract_invariants(surf, 1.0)
    assert abs(k - 0.2) < 1e-8 and abs(delta - 1.0) < 1e-8


def _counted(curve, calls):
    """`curve` with the number of points of each evaluation kept in `calls`."""

    def raw(u):
        calls.append(np.size(u))
        return curve.raw_eval(u)

    return CurveR3(raw, curve.domain)


def test_skew_gate_refines_only_where_delta_dips(gallery_five):
    dom = (0.0, 2.0 * math.pi)
    a = 1.0 + math.pi / 32.0
    # delta = 1e-3 + (u - a)^2 dips between two gate samples but stays skew
    calls = []
    striction = CurveR3.from_expressions("0", "0", "1e-3*u + (u-(1+pi/32))^3/3", dom)
    director = CurveR3.from_expressions("cos(u)", "sin(u)", "0", dom)
    surf = StandardRuledSurface(_counted(striction, calls), director, dom)
    assert abs(point_invariants(surf, a).delta - 1e-3) < 1e-15
    assert calls[0] == 33 and len(calls) > 1
    # delta' is round-off or small on the gallery: one grid call per curve
    for name, surf in gallery_five.items():
        calls = []
        StandardRuledSurface(_counted(surf.striction, calls), surf.director, surf.domain)
        assert calls == [33], name


def test_invalid_frame0_rejected():
    inv = InvariantTriple.from_functions(k=0.2, delta=1.0, lam=0.5,
                                         domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        surface_from_invariants(inv, frame0=np.diag([1.0, 2.0, 1.0]))


def test_invariant_triple_validation():
    with pytest.raises(NonSkew):
        InvariantTriple.from_functions(k=0.0, delta=lambda u: jets.sin(u),
                                       lam=0.5, domain=(0.0, 3.0))
    # delta changes sign between samples without hitting 0 at any of them
    with pytest.raises(NonSkew, match="changes sign between u = "):
        InvariantTriple.from_functions(k=0.0, delta="u - 1.01", lam=0.5,
                                       domain=(0.0, 3.0))
    with pytest.raises(InvalidSigma):
        InvariantTriple.from_functions(k=0.0, delta=1.0, sigma=2.0,
                                       domain=(0.0, 1.0))
    with pytest.raises(InvalidSigma):
        # sign(lambda) != sign(delta)
        InvariantTriple.from_functions(k=1.0, delta=1.0, lam=-1.0,
                                       domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        InvariantTriple.from_functions(k=1.0, delta=1.0, domain=(0.0, 1.0))


@pytest.mark.parametrize("kw,exc,u_bad", [
    (dict(k="exp(1000*u)", delta="1", lam="0.5"), CurveOverflow, 0.7978648009116935),
    (dict(k="1", delta="sqrt(u-3)", lam="0.5"), CurveDomainError, 0.0),
    (dict(k="1", delta="1", sigma="0.5 + log(u-1)"), CurveDomainError, 0.0),
], ids=["overflow", "sqrt", "log_sigma"])
def test_expression_profile_errors_name_u(kw, exc, u_bad):
    with pytest.raises(exc, match=f"at u = {u_bad!r}$"):
        InvariantTriple.from_functions(**kw)


def test_expression_profile_jet_errors_name_u():
    inv = InvariantTriple.from_functions(k="exp(100*u)", delta="sqrt(u)", lam="0.5",
                                         domain=(1.0, 7.0))
    with pytest.raises(CurveOverflow, match="at u = 7.2$"):
        inv.k(7.2)
    with pytest.raises(CurveOverflow, match="at u = 7.2$"):
        inv.k_jet(7.2)
    # the nodes of a frame grid take one jet each: the first bad node is named
    with pytest.raises(CurveOverflow, match="at u = 7.2$"):
        inv.grid(1.0, 7.2, 2)
    with pytest.raises(CurveDomainError, match="jet sqrt of a non-positive value at u = -1.0$"):
        inv.grid(-1.0, 7.0, 2)


def test_invariant_triple_from_samples_round_trip():
    us = np.linspace(0.0, 2.0, 24)
    inv = InvariantTriple.from_samples(
        us,
        np.sin(us),
        1.0 + 0.3 * np.sin(us),
        np.arctan(1.0 / (0.6 + 0.2 * np.cos(us))),
    )
    surf = surface_from_invariants(inv)
    for u in np.linspace(0.1, 1.9, 11):
        k, delta, sigma, lam = extract_invariants(surf, u)
        # spline interpolation of the profiles limits the accuracy here
        assert abs(k - math.sin(u)) < 1e-5
        assert abs(delta - (1.0 + 0.3 * math.sin(u))) < 1e-5


# batched propagator against the scalar RK4 loop it replaced --------------


def _scalar_rk4_states(inv, lo, hi, n_steps):
    """Reference: the per-step scalar RK4 loop over the frame system,
    one profile call per stage, from the standard basis at the origin."""

    def rhs(u, y):
        k = inv.k(u)
        d = inv.delta(u)
        lam = inv.lam(u)
        dl = d * lam
        return (
            y[3], y[4], y[5],
            -y[0] + k * y[6], -y[1] + k * y[7], -y[2] + k * y[8],
            -k * y[3], -k * y[4], -k * y[5],
            dl * y[0] + d * y[6], dl * y[1] + d * y[7], dl * y[2] + d * y[8],
        )

    h = (hi - lo) / n_steps
    y = list(np.eye(3).reshape(-1)) + [0.0, 0.0, 0.0]
    states = [tuple(y)]
    for step in range(n_steps):
        u = lo + step * h
        k1 = rhs(u, y)
        y2 = [y[j] + 0.5 * h * k1[j] for j in range(12)]
        k2 = rhs(u + 0.5 * h, y2)
        y3 = [y[j] + 0.5 * h * k2[j] for j in range(12)]
        k3 = rhs(u + 0.5 * h, y3)
        y4 = [y[j] + h * k3[j] for j in range(12)]
        k4 = rhs(u + h, y4)
        y = [
            y[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
            for j in range(12)
        ]
        states.append(tuple(y))
    return np.array(states).reshape(-1, 4, 3)


def _profile_cases():
    dom = (0.0, 2.0 * math.pi)
    us = np.linspace(*dom, 40)
    return {
        "spline": InvariantTriple.from_samples(
            us, 0.8 + 0.3 * np.sin(us), 1.0 + 0.2 * np.cos(us),
            np.arctan(1.0 / (0.7 + 0.2 * np.sin(2.0 * us))),
        ),
        "callable": InvariantTriple.from_functions(
            k=lambda u: 0.9 + 0.25 * jets.sin(u + 0.4),
            delta=lambda u: 1.1 * (1.0 + 0.15 * jets.sin(u + 2.0)),
            lam=lambda u: 0.7 + 0.2 * jets.sin(u + 1.0),
            domain=dom,
        ),
        "expression": InvariantTriple.from_functions(
            k="0.5 + 0.3*cos(u)", delta="-1 - 0.2*sin(2*u)", sigma="-1.2 + 0.1*sin(u)",
            domain=dom,
        ),
    }


def test_propagator_matches_scalar_rk4():
    n = 4096
    for name, inv in _profile_cases().items():
        lo, hi = inv.domain
        _, states = _propagate_frame(inv, lo, hi, n, np.eye(3), np.zeros(3))
        ref = _scalar_rk4_states(inv, lo, hi, n)
        assert states.shape == ref.shape == (n + 1, 4, 3)
        assert np.max(np.abs(states - ref)) < 1e-12, name
        # the surface interpolates the states at the nodes
        surf = surface_from_invariants(inv, n_steps=n)
        for i in range(0, n + 1, 97):
            u = lo + i * (hi - lo) / n
            e = surf.director.eval(u)
            s = surf.striction.eval(u)
            assert np.allclose([c.value for c in e], ref[i, 0], atol=1e-12), name
            assert np.allclose([c.d1 for c in e], ref[i, 1], atol=1e-12), name
            assert np.allclose([c.value for c in s], ref[i, 3], atol=1e-12), name


def test_sample_grid_matches_jets():
    inv = _profile_cases()["spline"]
    lo, hi = inv.domain
    g = inv.grid(lo, hi, 64)
    for i, u in enumerate(g.u):
        for (val, der), jet in (
            ((g.k, g.dk), inv.k_jet(u)),
            ((g.delta, g.ddelta), inv.delta_jet(u)),
            ((g.lam, g.dlam), inv.lam_jet(u)),
        ):
            assert abs(val[i] - jet.value) < 1e-12
            assert abs(der[i] - jet.d1) < 1e-12
    for i, u in enumerate(g.u[:-1] + 0.5 * (hi - lo) / 64):
        assert abs(g.k_mid[i] - inv.k(u)) < 1e-12
        assert abs(g.delta_mid[i] - inv.delta(u)) < 1e-12
        assert abs(g.lam_mid[i] - inv.lam(u)) < 1e-12


# one array path for invariant profiles --------------------------------------------


def _loop_profile_grid(inv, lo, hi, n):
    """`InvariantTriple.grid` as a loop: one jet per node, one value per midpoint."""
    h = (hi - lo) / n
    us = lo + h * np.arange(n + 1)
    nodes = np.array([
        [x for jet in (inv.k_jet(u), inv.delta_jet(u), inv.lam_jet(u))
         for x in (jet.value, jet.d1)]
        for u in us.tolist()
    ])
    mids = np.array([(inv.k(u), inv.delta(u), inv.lam(u))
                     for u in (us[:-1] + 0.5 * h).tolist()])
    return ProfileGrid(us, *nodes.T, *mids.T)


_EXACT_PROFILES = {
    "numbers": dict(k=0.8, delta=-1.0, lam=-0.99),
    "sin_cos": dict(k="0.5 + 0.3*cos(u)", delta="-1 - 0.2*sin(2*u)",
                    sigma="-1.2 + 0.1*sin(u)"),
    "lam_string": dict(k="0.9 + 0.25*sin(u + 0.4)", delta="1.1*(1 + 0.15*sin(u + 2))",
                       lam="0.7 + 0.2*sin(u + 1)"),
    "callable": dict(k=lambda u: 0.9 + 0.25 * jets.sin(u + 0.4), delta=1.1,
                     lam=lambda u: 0.7 + 0.2 * jets.cos(u)),
}

# numpy's exp, tan, cosh and power may differ from math's by an ulp
_CLOSE_PROFILES = {
    "exp_tan": dict(k="0.5 + 0.1*exp(sin(u))", delta="1 + 0.1*tan(0.2*u)", lam="0.6"),
    "cosh_power": dict(k="(2 + sin(u))^0.7", delta="-0.5 - 0.1*cosh(0.3*u)",
                       sigma="-1 + 0.02*u^2"),
}


def _assert_close(got, want, rtol=1e-14):
    assert np.all(np.abs(got - want) <= rtol * np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(_EXACT_PROFILES) + sorted(_CLOSE_PROFILES))
def test_profile_grid_equals_the_point_loop(name):
    kw = _EXACT_PROFILES.get(name) or _CLOSE_PROFILES[name]
    inv = InvariantTriple.from_functions(**kw, domain=(0.0, 2.0 * math.pi))
    got, want = inv.grid(0.5, 6.0, 257), _loop_profile_grid(inv, 0.5, 6.0, 257)
    for field in ProfileGrid._fields:
        if name in _EXACT_PROFILES:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        else:
            _assert_close(getattr(got, field), getattr(want, field))


def test_spline_profile_grid_matches_the_spline_formulas():
    us = np.linspace(0.0, 2.0 * math.pi, 40)
    samples = (0.8 + 0.3 * np.sin(us), 1.0 + 0.2 * np.cos(us),
               np.arctan(1.0 / (0.7 + 0.2 * np.sin(2.0 * us))))
    inv = InvariantTriple.from_samples(us, *samples)
    g = inv.grid(0.0, 2.0 * math.pi, 512)
    um = g.u[:-1] + 0.5 * (g.u[1] - g.u[0])

    # the spline's own point evaluation, one float u at a time
    def at(fn, points):
        return np.array([fn(u) for u in points.tolist()])

    def slope(profile):
        return lambda u: profile(Jet2.variable(u)).d1

    s, sm = at(inv.sigma, g.u), at(inv.sigma, um)
    exact = {"k": at(inv.k, g.u), "dk": at(slope(inv._k), g.u), "delta": at(inv.delta, g.u),
             "ddelta": at(slope(inv._delta), g.u), "lam": np.cos(s) / np.sin(s),
             "k_mid": at(inv.k, um), "delta_mid": at(inv.delta, um),
             "lam_mid": np.cos(sm) / np.sin(sm)}
    for field, want in exact.items():
        assert np.array_equal(getattr(g, field), want), field
    # the jet quotient rule, against -sigma' / sin^2 sigma
    _assert_close(g.dlam, -at(slope(inv._sigma), g.u) / (np.sin(s) * np.sin(s)))


def _random_knots(rng, n, min_gap):
    """n increasing knots whose gaps vary from min_gap to 1."""
    gaps = min_gap ** rng.uniform(0.0, 1.0, n - 1)
    return rng.uniform(-3.0, 3.0) + np.concatenate([[0.0], np.cumsum(gaps)])


def test_spline_matches_scipy_cubic_spline():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        n = int(rng.integers(4, 201))
        x = _random_knots(rng, n, 0.02)
        ys = np.array([np.sin(a * x + b) for a, b in rng.uniform(0.2, 2.0, (3, 2))])
        # beyond the ends by up to two end intervals
        points = np.concatenate([rng.uniform(x[0], x[-1], 50), x,
                                 x[0] - rng.uniform(0.0, 2.0 * (x[1] - x[0]), 5),
                                 x[-1] + rng.uniform(0.0, 2.0 * (x[-1] - x[-2]), 5)])
        for coef, y in zip(surface._not_a_knot_coefficients(x, ys), ys):
            fn = surface._spline_profile(surface._PiecewiseQuintic(x, coef[:, None]))
            want = CubicSpline(x, y)
            grid = fn(Jet2.variable(points))
            floats = [fn(Jet2.variable(u)) for u in points.tolist()]
            values = [fn(u) for u in points.tolist()]
            assert all(type(v) is float for v in values)
            for nu, slot in enumerate(("value", "d1", "d2", "d3")):
                # the data's scale for the nu-th derivative: a change of y
                # by one part in 1e12 moves it by about this much
                ref = want(points, nu)
                bound = 1e-12 * np.max(np.abs(y)) / np.min(np.diff(x)) ** nu
                assert np.max(np.abs(getattr(grid, slot) - ref)) <= bound, (n, nu)
                got = [getattr(jet, slot) for jet in floats]
                assert np.max(np.abs(np.array(got) - ref)) <= bound, (n, nu)
            assert np.max(np.abs(np.array(values) - want(points))) <= 1e-12 * np.max(np.abs(y))


def _exact_not_a_knot_slopes(x, y):
    """Knot slopes of the not-a-knot spline in rational arithmetic."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    n = len(x)
    dx = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / h for a, b, h in zip(y, y[1:], dx)]
    w0, w1 = x[2] - x[0], x[-1] - x[-3]
    diag = [dx[1]] + [2 * (dx[i - 1] + dx[i]) for i in range(1, n - 1)] + [dx[-2]]
    upper = [w0] + dx[:-1]
    lower = dx[1:] + [w1]
    rhs = ([((dx[0] + 2 * w0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / w0]
           + [3 * (dx[i] * m[i - 1] + dx[i - 1] * m[i]) for i in range(1, n - 1)]
           + [(dx[-1] ** 2 * m[-2] + (2 * w1 + dx[-1]) * dx[-2] * m[-1]) / w1])
    for i in range(1, n):
        f = lower[i - 1] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    s = [rhs[-1] / diag[-1]]
    for i in range(n - 2, -1, -1):
        s.insert(0, (rhs[i] - upper[i] * s[0]) / diag[i])
    return np.array([float(v) for v in s])


def test_spline_slopes_match_rational_arithmetic_on_uneven_knots():
    # gaps down to 1e-4 of the largest: the sweep without pivoting stays
    # close to the exact slopes. scipy's pivoting solve is no closer on
    # such knots, which is why the comparison with it keeps gaps >= 0.02.
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(60):
        x = _random_knots(rng, int(rng.integers(4, 25)), 1e-4)
        ys = np.array([np.sin(a * x + b) for a, b in rng.uniform(0.2, 2.0, (3, 2))])
        for coef, y in zip(surface._not_a_knot_coefficients(x, ys), ys):
            want = _exact_not_a_knot_slopes(x, y)
            assert np.max(np.abs(coef[:, 1] - want[:-1])) <= 1e-11 * np.max(np.abs(want))


# float and array evaluation of the piecewise quintics, bit for bit ----------


def _probe_points(knots, rng):
    """Every knot and the floats either side of it, random interior points,
    and points beyond both ends."""
    lo, hi = knots[0], knots[-1]
    beyond = (hi - lo) * rng.uniform(0.0, 0.1, 5)
    return np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                           rng.uniform(lo, hi, 200), lo - beyond, hi + beyond])


def _assert_same_bits(grid_values, point_values):
    """The array result equals the float results bit for bit (signed zeros too)."""
    want = np.array(point_values, dtype=float)
    assert grid_values.shape == want.shape
    assert np.array_equal(grid_values.view(np.int64), want.view(np.int64))


def _assert_jets_same_bits(grid_jets, point_jets):
    for i, g in enumerate(grid_jets):
        for slot in ("value", "d1", "d2", "d3"):
            _assert_same_bits(getattr(g, slot), [getattr(p[i], slot) for p in point_jets])


def test_spline_profile_floats_and_arrays_agree_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED)
    u = _random_knots(rng, 40, 0.05)
    inv = InvariantTriple.from_samples(u, 1.0 + 0.3 * np.sin(u), 1.0 + 0.2 * np.cos(u),
                                       0.9 + 0.1 * np.sin(2.0 * u))
    points = _probe_points(u, rng)
    for profile in (inv._k, inv._delta, inv._sigma):
        _assert_same_bits(profile(points), [profile(x) for x in points.tolist()])
        _assert_jets_same_bits([profile(Jet2.variable(points))],
                               [[profile(Jet2.variable(x))] for x in points.tolist()])


def test_frame_dense_output_floats_and_arrays_agree_bit_for_bit():
    surf = gallery("generic_skew", seed=3)
    rng = np.random.default_rng(RNG_SEED)
    for curve in (surf.director, surf.striction):
        # the raw evaluation, so that points beyond the ends are kept
        points = _probe_points(curve.raw_eval.__self__.knots, rng)
        _assert_jets_same_bits(curve.raw_eval(points),
                               [curve.raw_eval(x) for x in points.tolist()])
    # one list of the nodes as Python floats serves both curves
    pieces = [curve.raw_eval.__self__ for curve in (surf.director, surf.striction)]
    assert pieces[0]._knot_list is pieces[1]._knot_list


def test_arclength_inverse_floats_and_arrays_agree_bit_for_bit(monkeypatch):
    tables, real = [], surface._hermite_inverse

    def spy(t_nodes, coef, lo, hi):
        tables.append((t_nodes, real(t_nodes, coef, lo, hi)))
        return tables[-1][1]

    monkeypatch.setattr(surface, "_hermite_inverse", spy)
    standardize(*(CurveR3.from_expressions(*comps, DEFAULT_DOMAIN) for comps in GENERAL_PAIRS[2]))
    monkeypatch.undo()
    t_nodes, invert = tables[-1]  # the table the surface keeps
    points = _probe_points(t_nodes, np.random.default_rng(RNG_SEED))
    _assert_same_bits(invert(points), [invert(t) for t in points.tolist()])


def _loop_validate(inv, n=64):
    """`InvariantTriple._validate` as a loop over scalar samples."""
    us = np.linspace(inv.domain[0], inv.domain[1], n)
    samples = [(inv.k(u), inv.delta(u), inv.sigma(u), inv.lam(u)) for u in us]
    for u, values in zip(us, samples):
        if not all(map(math.isfinite, values)):
            raise InvalidSigma(f"non-finite invariant at u = {u}")
    _skew_gate(us, [d for _, d, _, _ in samples], 0.0)
    for u, (_, d, s, lam) in zip(us, samples):
        if not (-math.pi / 2.0 < s <= math.pi / 2.0 + 1e-12):
            raise InvalidSigma(f"sigma(u) = {s} outside (-pi/2, pi/2] at u = {u}")
        if abs(lam) > 1e-9 and math.copysign(1.0, s) != math.copysign(1.0, d):
            raise InvalidSigma(
                f"sign(sigma) != sign(delta) at u = {u} (sigma={s}, delta={d})"
            )


class _Unvalidated(InvariantTriple):
    def _validate(self):
        pass


_KNOTS = np.linspace(0.0, 63.0, 64)  # also the validation samples
_BAD_TRIPLES = {
    "non_finite": ("from_functions", dict(k=lambda u: 1e308 * jets.exp(u), delta=1.0,
                                          lam=0.5, domain=(0.0, 1.0))),
    "overflow": ("from_functions", dict(k="exp(1000*u)", delta="1", lam="0.5")),
    "sqrt": ("from_functions", dict(k="1", delta="sqrt(u-3)", lam="0.5")),
    "sigma_zero": ("from_functions", dict(k=1.0, delta=1.0, sigma="0.5*(u - 1)",
                                          domain=(0.0, 63.0))),
    "sigma_zero_spline": ("from_samples", dict(u=_KNOTS, k=np.ones(64), delta=np.ones(64),
                                               sigma=0.01 * (_KNOTS - 1.0))),
    "delta_zero": ("from_functions", dict(k=1.0, delta="u - 1", lam=0.5,
                                          domain=(0.0, 63.0))),
    "sign_change": ("from_functions", dict(k=1.0, delta="cos(u)", lam=0.5)),
    "out_of_range": ("from_functions", dict(k=1.0, delta=1.0, sigma="0.5 + 0.2*u")),
    "mismatch": ("from_functions", dict(k=1.0, delta=1.0, lam=-1.0)),
    "mismatch_first": ("from_functions", dict(k=1.0, delta=1.0, sigma="1 - 0.5*u")),
    "range_first": ("from_functions", dict(k=1.0, delta=1.0, sigma="1.6 - 0.5*u")),
    "range_and_mismatch": ("from_functions", dict(k=1.0, delta=1.0, sigma=-1.6)),
}


@pytest.mark.parametrize("name", sorted(_BAD_TRIPLES))
def test_validation_fails_as_the_scalar_loop(name):
    build, kw = _BAD_TRIPLES[name]
    with pytest.raises(Exception) as loop:
        _loop_validate(getattr(_Unvalidated, build)(**kw))
    with pytest.raises(type(loop.value)) as array:
        getattr(InvariantTriple, build)(**kw)
    assert type(array.value) is type(loop.value)
    assert str(array.value) == str(loop.value)


def test_profile_that_rejects_arrays_is_evaluated_point_by_point():
    def k(u):
        if isinstance(u, np.ndarray) or isinstance(getattr(u, "value", None), np.ndarray):
            raise TypeError("floats only")
        return 0.9 + 0.25 * jets.sin(u + 0.4)

    inv = InvariantTriple.from_functions(k=k, delta=1.1, lam=0.7)
    got, want = inv.grid(0.0, 6.0, 64), _loop_profile_grid(inv, 0.0, 6.0, 64)
    for field in ProfileGrid._fields:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert surface_from_invariants(inv, n_steps=256).domain == DEFAULT_DOMAIN


def test_frame_orthonormality_drift():
    for name, inv in _profile_cases().items():
        lo, hi = inv.domain
        _, states = _propagate_frame(inv, lo, hi, 4096, np.eye(3), np.zeros(3))
        frames = states[:, :3]
        gram = frames @ frames.transpose(0, 2, 1)
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12, name


def test_load_spec_variants(tmp_path):
    surf = load_spec({"type": "gallery", "name": "right_helicoid",
                      "params": {"c": 2.0}})
    assert abs(extract_invariants(surf, 1.0)[1] - 2.0) < 1e-12

    expr_spec = {
        "type": "expression",
        "cx": "0", "cy": "0", "cz": "1.5*u",
        "dx": "cos(u)", "dy": "sin(u)", "dz": "0",
        "domain": [0.0, 6.0],
    }
    surf = load_spec(expr_spec)
    assert abs(extract_invariants(surf, 1.0)[1] - 1.5) < 1e-12

    us = np.linspace(0.0, 2.0, 12)
    inv_spec = {
        "type": "invariants",
        "u": list(us),
        "k": [0.4] * 12,
        "delta": [1.0] * 12,
        "sigma": [math.atan(2.0)] * 12,
    }
    surf = load_spec(inv_spec)
    assert abs(extract_invariants(surf, 1.0)[0] - 0.4) < 1e-7


def test_load_spec_errors():
    from ruledgeo.errors import SpecFormatError

    with pytest.raises(SpecFormatError):
        load_spec({"type": "nonsense"})
    with pytest.raises(SpecFormatError):
        load_spec({"type": "expression", "cx": "0", "domain": [0, 1]})
    with pytest.raises(SpecFormatError):
        load_spec({"type": "gallery", "name": "right_helicoid", "junk": 1})
    with pytest.raises(SpecFormatError):
        load_spec({"type": "invariants", "u": [0, 1], "k": [0, 0],
                   "delta": [1, 1], "sigma": [1.0, 1.0]})


def _samples(**changes):
    spec = {"type": "invariants", "u": [0.0, 1.0, 2.0, 3.0], "k": [0.0] * 4,
            "delta": [1.0] * 4, "sigma": [0.5] * 4}
    spec.update(changes)
    return spec


_TOO_MANY = surface.MAX_SAMPLES + 1

HELICOID_COMPONENTS = {"type": "expression", "cx": "0", "cy": "0", "cz": "u",
                       "dx": "cos(u)", "dy": "sin(u)", "dz": "0"}


@pytest.mark.parametrize("spec", [
    _samples(k=["a", 0.0, 0.0, 0.0]),
    _samples(k=[[0.0], 0.0, 0.0, 0.0]),
    _samples(u=5.0),
    _samples(k=[0.0, math.nan, 0.0, 0.0]),
    _samples(u=[0.0, 1.0, 2.0, math.inf]),
    _samples(u=[-1.0, 0.0, 1e-300, 1.0]),  # the spline's slope system is singular
    _samples(u=[-1.0, 0.0, 2e-232, 1.0], sigma=[0.5, 0.5, 1.0, 0.5]),  # singular too
    _samples(u=[0.0, 1e-200, 2e-200, 3e-200], sigma=[0.5, 1.0, 0.5, 1.0]),  # cubics overflow
    _samples(u=[-1e308, 1e308, 1.2e308, 1.5e308]),  # u spacing overflows
    _samples(u=list(range(_TOO_MANY)), k=[0.0] * _TOO_MANY, delta=[1.0] * _TOO_MANY,
             sigma=[0.5] * _TOO_MANY),
    dict(HELICOID_COMPONENTS, domain=[-math.inf, 0.0]),
    dict(HELICOID_COMPONENTS, domain=[0.0, math.inf]),
    dict(HELICOID_COMPONENTS, domain=[math.nan, 1.0]),
], ids=["string", "nested", "scalar_u", "nan_k", "inf_u", "close_u", "steep_sigma",
        "tiny_spacing", "huge_spacing", "too_many",
        "domain_minus_inf", "domain_inf", "domain_nan"])
def test_load_spec_rejects_malformed_samples_and_domains(spec):
    from ruledgeo.errors import SpecFormatError

    with np.errstate(all="raise"), pytest.raises(SpecFormatError):
        load_spec(spec)

