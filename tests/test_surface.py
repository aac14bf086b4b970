"""Gauge conservation, standardization, gallery, and invariant reconstruction."""

import math

import numpy as np
import pytest

from ruledgeo import jets
from ruledgeo.errors import (
    GaugeViolation,
    InvalidSigma,
    NonSkew,
    OutOfDomain,
    ParamOutOfRange,
    TorsalRuling,
    UnknownGalleryName,
)
from ruledgeo.invariants import extract_invariants
from ruledgeo.surface import (
    DEFAULT_DOMAIN,
    CurveR3,
    InvariantTriple,
    StandardRuledSurface,
    _propagate_frame,
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
