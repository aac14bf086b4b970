"""Closed-form gallery members and built-in profiles, written as expression
strings, against the `Jet2` closures that defined them before (the oracle)."""

import math
import random
import types

import numpy as np
import pytest

from ruledgeo import analysis, jets, surface
from ruledgeo.jets import Jet2
from ruledgeo.surface import DEFAULT_DOMAIN, CurveR3, InvariantTriple, gallery

# the oracle: the closures of the gallery and the profiles, as they were ------


def _closures(fx, fy, fz, domain):
    def raw(u):
        uj = Jet2.variable(u)
        return (jets.as_jet(fx(uj)), jets.as_jet(fy(uj)), jets.as_jet(fz(uj)))

    return CurveR3(raw, domain)


def _right_helicoid(domain, c=1.0):
    e = _closures(lambda u: jets.cos(u), lambda u: jets.sin(u), lambda u: 0.0 * u, domain)
    s = _closures(lambda u: 0.0 * u, lambda u: 0.0 * u, lambda u: c * u, domain)
    return s, e


_SQ2 = math.sqrt(2.0)


def _hyperboloid_edlinger(domain, c=1.0):
    rho = _SQ2 / 2.0
    e = _closures(
        lambda u: rho * jets.cos(_SQ2 * u),
        lambda u: rho * jets.sin(_SQ2 * u),
        lambda u: 0.0 * u + rho,
        domain,
    )
    s = _closures(
        lambda u: c * jets.sin(_SQ2 * u),
        lambda u: -c * jets.cos(_SQ2 * u),
        lambda u: 0.0 * u,
        domain,
    )
    return s, e


def _orthoid_const_delta(domain, r=0.6, delta=1.0):
    z0 = math.sqrt(1.0 - r * r)
    w = 1.0 / r
    e = _closures(
        lambda u: r * jets.cos(w * u),
        lambda u: r * jets.sin(w * u),
        lambda u: 0.0 * u + z0,
        domain,
    )
    s = _closures(
        lambda u: -delta * z0 * r * jets.sin(w * u),
        lambda u: delta * z0 * r * jets.cos(w * u),
        lambda u: delta * r * u,
        domain,
    )
    return s, e


def _conoidal_const_delta(domain, alpha=2.0, beta=1.0):
    e = _closures(lambda u: jets.cos(u), lambda u: jets.sin(u), lambda u: 0.0 * u, domain)
    s = _closures(
        lambda u: alpha * jets.sin(u),
        lambda u: -alpha * jets.cos(u),
        lambda u: beta * u,
        domain,
    )
    return s, e


def _generic_skew_profiles(seed, domain):
    rng = random.Random(int(seed))
    a0 = rng.uniform(0.6, 1.1)
    a1 = rng.uniform(0.15, 0.35)
    p1 = rng.uniform(0.0, 2.0 * math.pi)
    l0 = rng.uniform(0.5, 0.9)
    l1 = rng.uniform(0.1, 0.25)
    p2 = rng.uniform(0.0, 2.0 * math.pi)
    d0 = rng.uniform(0.8, 1.2)
    p3 = rng.uniform(0.0, 2.0 * math.pi)
    return InvariantTriple.from_functions(
        k=lambda u: a0 + a1 * jets.sin(u + p1),
        delta=lambda u: d0 * (1.0 + 0.15 * jets.sin(u + p3)),
        lam=lambda u: l0 + l1 * jets.sin(u + p2),
        domain=domain,
    )


def _near_edlinger_delta_prime_profiles():
    return InvariantTriple.from_functions(
        k=1.0, delta=lambda u: -(1.0 + 0.01 * jets.sin(u)), lam=-1.0)


ORACLES = {
    "right_helicoid": _right_helicoid,
    "hyperboloid_edlinger": _hyperboloid_edlinger,
    "orthoid_const_delta": _orthoid_const_delta,
    "conoidal_const_delta": _conoidal_const_delta,
}

# parameters: the defaults, the verify ones, ints, bools and numpy floats
PARAMS = {
    "right_helicoid": [{}, {"c": 1.0}, {"c": 2}, {"c": -3}, {"c": True},
                       {"c": np.float64(-1.5)}],
    "hyperboloid_edlinger": [{}, {"c": 1.0}, {"c": 3}, {"c": True}, {"c": np.float64(0.3)}],
    "orthoid_const_delta": [{}, {"r": 0.6, "delta": 1.0}, {"r": 0.5, "delta": -2},
                            {"r": np.float64(0.3), "delta": True},
                            {"r": 0.75, "delta": np.float64(-0.4)}],
    "conoidal_const_delta": [{}, {"alpha": 2.0, "beta": 1.0}, {"alpha": 3, "beta": -2},
                             {"alpha": True, "beta": np.float64(-0.7)}],
}
# ranges of drawn parameters
RANGES = {
    "right_helicoid": {"c": (-3.0, 3.0)},
    "hyperboloid_edlinger": {"c": (0.05, 4.0)},
    "orthoid_const_delta": {"r": (0.05, 0.95), "delta": (-3.0, 3.0)},
    "conoidal_const_delta": {"alpha": (0.05, 4.0), "beta": (-3.0, 3.0)},
}
# the default domain, a negative one, and one across 0
DOMAINS = [DEFAULT_DOMAIN, (-3.5, -0.25), (-2.0, 2.0)]


def _cases():
    rng = random.Random(20241018)
    for name, params in PARAMS.items():
        drawn = [{key: rng.uniform(lo, hi) for key, (lo, hi) in RANGES[name].items()}
                 for _ in range(3)]
        for kw in params + drawn:
            for domain in DOMAINS:
                yield name, kw, domain


def _bits(x):
    """Exact identity of a slot: floats by their hex form (signed zeros
    apart), arrays by their bytes."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    return float(x).hex()


def _jet_bits(triple):
    return [_bits(getattr(c, slot)) for c in triple for slot in ("value", "d1", "d2", "d3")]


@pytest.mark.parametrize("name,kw,domain", list(_cases()))
def test_closed_form_gallery_matches_the_closures_bit_for_bit(name, kw, domain):
    surf = gallery(name, kw, domain=domain)
    s_want, e_want = ORACLES[name](domain, **kw)
    us = np.linspace(domain[0], domain[1], 41)
    points = us.tolist() + ([-0.0, 0.0] if domain[0] < 0.0 < domain[1] else [])
    for got, want in ((surf.striction, s_want), (surf.director, e_want)):
        assert _jet_bits(got.eval(us)) == _jet_bits(want.eval(us))
        for u in points:
            assert _jet_bits(got.eval(u)) == _jet_bits(want.eval(u)), u


def test_gallery_labels_read_the_parameters_as_given():
    assert gallery("right_helicoid", c=True).label == "right_helicoid(c=1)"
    assert (gallery("orthoid_const_delta", r=np.float64(0.3), delta=-2).label
            == "orthoid_const_delta(r=0.3, delta=-2)")


def _grid_bits(inv, lo, hi, n):
    return [_bits(a) for a in inv.grid(lo, hi, n)]


def _captured_profiles(monkeypatch, module, build):
    """The `InvariantTriple`s `build()` passes to `module.surface_from_invariants`,
    without integrating any of them."""
    seen = []

    def capture(inv, **kwargs):
        seen.append(inv)
        return types.SimpleNamespace()

    monkeypatch.setattr(module, "surface_from_invariants", capture)
    build()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("domain", [DEFAULT_DOMAIN, (-4.0, 1.5)])
def test_generic_skew_profiles_match_the_closures_bit_for_bit(monkeypatch, seed, domain):
    (inv,) = _captured_profiles(monkeypatch, surface,
                                lambda: gallery("generic_skew", seed=seed, domain=domain))
    want = _generic_skew_profiles(seed, domain)
    for n in (7, 256):
        assert _grid_bits(inv, *domain, n) == _grid_bits(want, *domain, n)
    for u in np.linspace(domain[0], domain[1], 13).tolist():
        for fn in ("k", "delta", "lam", "sigma"):
            assert _bits(getattr(inv, fn)(u)) == _bits(getattr(want, fn)(u)), (fn, u)
        for fn in ("k_jet", "delta_jet", "lam_jet"):
            assert _jet_bits([getattr(inv, fn)(u)]) == _jet_bits([getattr(want, fn)(u)])


def test_near_miss_profile_matches_the_closure_bit_for_bit(monkeypatch):
    profiles = _captured_profiles(monkeypatch, analysis, analysis.near_miss_surfaces)
    inv = profiles[1]  # near_edlinger_delta_prime
    want = _near_edlinger_delta_prime_profiles()
    for n in (7, 4096):
        assert _grid_bits(inv, *DEFAULT_DOMAIN, n) == _grid_bits(want, *DEFAULT_DOMAIN, n)
    for u in np.linspace(*DEFAULT_DOMAIN, 13).tolist():
        assert _bits(inv.delta(u)) == _bits(want.delta(u))
        assert _jet_bits([inv.delta_jet(u)]) == _jet_bits([want.delta_jet(u)])
