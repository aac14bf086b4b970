"""Ruled surfaces in standard striction-line form.

A surface is x(u, v) = s(u) + v e(u) with |e| = |e'| = 1 and <s', e'> = 0,
u the arclength along the spherical director curve. This module builds
such surfaces from expressions, from a canonical gallery, from a general
(base curve, director) pair via `standardize`, and from a complete system
of invariants (k, delta, sigma) via moving-frame integration.
"""

import json
import math
import numbers
import random
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from . import jets
from .errors import (
    DegenerateDirector,
    GaugeViolation,
    IntegrationFailure,
    InvalidSigma,
    NonSkew,
    OutOfDomain,
    ParamOutOfRange,
    SpecFormatError,
    TorsalRuling,
    UnknownGalleryName,
)
from .jets import Jet2
from .parser import parse_expression

DEFAULT_DOMAIN = (0.0, 2.0 * math.pi)

# construction-time gauge gates; the test suite checks tighter bounds
TOL_UNIT_E = 1e-8
TOL_UNIT_EP = 1e-7
TOL_ORTH = 1e-7
TOL_SKEW = 1e-8

_GL4_NODES = (
    -0.8611363115940526,
    -0.3399810435848563,
    0.3399810435848563,
    0.8611363115940526,
)
_GL4_WEIGHTS = (
    0.3478548451374538,
    0.6521451548625461,
    0.6521451548625461,
    0.3478548451374538,
)


class CurveR3:
    """Curve in R^3 with order-2 jet access, defined on a closed interval."""

    def __init__(self, raw_eval, domain, name=""):
        self.raw_eval = raw_eval  # float u -> (Jet2, Jet2, Jet2)
        self.domain = (float(domain[0]), float(domain[1]))
        self.name = name
        if not self.domain[0] < self.domain[1]:
            raise ValueError(f"empty domain {self.domain}")

    @classmethod
    def from_jet_components(cls, fx, fy, fz, domain, name=""):
        """Build from three closures mapping a jet (or float) to the component."""

        def raw(u):
            uj = jets.variable(u)
            return (jets.as_jet(fx(uj)), jets.as_jet(fy(uj)), jets.as_jet(fz(uj)))

        return cls(raw, domain, name)

    @classmethod
    def from_expressions(cls, sx, sy, sz, domain, name=""):
        ex, ey, ez = (parse_expression(s) for s in (sx, sy, sz))

        def raw(u):
            uj = jets.variable(u)
            return (
                jets.as_jet(ex.eval(uj)),
                jets.as_jet(ey.eval(uj)),
                jets.as_jet(ez.eval(uj)),
            )

        return cls(raw, domain, name)

    def _check_domain(self, u):
        lo, hi = self.domain
        slack = 1e-9 * (1.0 + hi - lo)
        if u < lo - slack or u > hi + slack:
            raise OutOfDomain(f"u = {u} outside [{lo}, {hi}]")

    def eval(self, u):
        """Jets of the three components at u."""
        self._check_domain(u)
        out = self.raw_eval(float(u))
        for c in out:
            if not (math.isfinite(c.value) and math.isfinite(c.d1) and math.isfinite(c.d2)):
                raise IntegrationFailure(f"non-finite curve value at u = {u}")
        return out

    def point(self, u):
        return np.array(jets.values3(self.eval(u)))

    def negated(self):
        raw = self.raw_eval

        def neg_raw(u):
            x, y, z = raw(u)
            return (-x, -y, -z)

        return CurveR3(neg_raw, self.domain, self.name)


def _gauge_residuals(striction, director, us):
    """Worst standard-form residuals over the sample points, and the
    signed parameter of distribution at each of them."""
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
    worst["min_abs_delta"] = min(map(abs, deltas), default=math.inf)
    return worst, deltas


def _skew_gate(us, deltas, tol):
    """Raise `NonSkew` where delta is within `tol` of 0 at a sample or
    changes sign between two neighbouring samples."""
    i = min(range(len(deltas)), key=lambda j: abs(deltas[j]))
    if not abs(deltas[i]) > tol:
        raise NonSkew(
            f"parameter of distribution ~ {abs(deltas[i]):.3e} at u = {us[i]}; "
            "surface is torsal there"
        )
    for j in range(len(deltas) - 1):
        if (deltas[j] > 0.0) != (deltas[j + 1] > 0.0):
            raise NonSkew(
                f"parameter of distribution changes sign between u = {us[j]} "
                f"and u = {us[j + 1]}; surface is torsal in between"
            )


class StandardRuledSurface:
    """Skew ruled surface in standard form: striction line s(u), unit director e(u).

    Construction verifies the gauge conditions and skewness on a sample
    grid and raises `GaugeViolation` / `NonSkew` otherwise. Instances are
    immutable; evaluation is pure.
    """

    def __init__(self, striction, director, domain=None, label="", check=True, n_check=33):
        self.striction = striction
        self.director = director
        self.domain = tuple(float(x) for x in (domain or director.domain))
        self.label = label
        if check:
            us = np.linspace(self.domain[0], self.domain[1], n_check)
            worst, deltas = _gauge_residuals(striction, director, us)
            problems = []
            if worst["unit_e"] > TOL_UNIT_E:
                problems.append(f"| |e|-1 | = {worst['unit_e']:.3e}")
            if worst["unit_ep"] > TOL_UNIT_EP:
                problems.append(f"| |e'|-1 | = {worst['unit_ep']:.3e}")
            if worst["orth"] > TOL_ORTH:
                problems.append(f"|<s', e'>| = {worst['orth']:.3e}")
            if problems:
                raise GaugeViolation(
                    "not in standard form: " + ", ".join(problems)
                    + " (use standardize() for general input)"
                )
            _skew_gate(us, deltas, TOL_SKEW)

    def jets(self, u):
        """(striction jets, director jets) at u."""
        return self.striction.eval(u), self.director.eval(u)

    def point(self, u, v):
        s, e = self.jets(u)
        return np.array(
            [s[i].value + v * e[i].value for i in range(3)]
        )

    def gauge_residuals(self, n=100, rng=None):
        lo, hi = self.domain
        if rng is None:
            us = np.linspace(lo, hi, n)
        else:
            us = np.array([rng.uniform(lo, hi) for _ in range(n)])
        return _gauge_residuals(self.striction, self.director, us)[0]

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<StandardRuledSurface{tag} on [{self.domain[0]:g}, {self.domain[1]:g}]>"


# invariant profiles ----------------------------------------------------------


def _sigma_from_lam(lam):
    return math.pi / 2.0 if lam == 0.0 else math.atan(1.0 / lam)


def _as_profile(p):
    """Normalize a profile: number | expression string | generic callable."""
    if isinstance(p, (int, float)):
        c = float(p)
        return lambda u: c
    if isinstance(p, str):
        return parse_expression(p).eval
    if callable(p):
        return p
    raise TypeError(f"cannot interpret profile {p!r}")


class ProfileGrid(NamedTuple):
    """Invariant profiles on the uniform grid u_i = lo + i h, i = 0..n.

    Node arrays (n + 1 entries) hold k, delta, lambda and their first
    derivatives; the midpoint arrays (n entries) hold values at u_i + h/2.
    """

    u: np.ndarray
    k: np.ndarray
    dk: np.ndarray
    delta: np.ndarray
    ddelta: np.ndarray
    lam: np.ndarray
    dlam: np.ndarray
    k_mid: np.ndarray
    delta_mid: np.ndarray
    lam_mid: np.ndarray


class InvariantTriple:
    """Complete invariant system (k, delta, sigma) of a skew ruled surface.

    Profiles are callables of u usable with floats (values) and jets
    (derivatives). sigma lies in (-pi/2, pi/2] and carries the sign of
    delta wherever lambda = cot(sigma) is nonzero; lambda is available
    directly via `lam` to avoid trigonometric branch loss. `splines`,
    when given, are the (k, delta, sigma) `CubicSpline`s the profiles
    interpolate; `grid` then evaluates them on whole arrays.
    """

    def __init__(self, k_fn, delta_fn, lam_fn, sigma_fn, domain, splines=None):
        self._k = k_fn
        self._delta = delta_fn
        self._lam = lam_fn
        self._sigma = sigma_fn
        self._splines = splines
        self.domain = (float(domain[0]), float(domain[1]))
        self._validate()

    @classmethod
    def from_functions(cls, k, delta, sigma=None, lam=None, domain=DEFAULT_DOMAIN):
        """Build from profiles given as numbers, expression strings, or callables.

        Exactly one of `sigma`, `lam` must be provided.
        """
        if (sigma is None) == (lam is None):
            raise ValueError("provide exactly one of sigma / lam")
        k_fn = _as_profile(k)
        d_fn = _as_profile(delta)
        if lam is not None:
            lam_fn = _as_profile(lam)
            sigma_fn = lambda u: _sigma_from_lam(lam_fn(float(u)))
        else:
            sig = _as_profile(sigma)
            sigma_fn = lambda u: sig(float(u))
            lam_fn = lambda u: jets.cos(sig(u)) / jets.sin(sig(u))
        return cls(k_fn, d_fn, lam_fn, sigma_fn, domain)

    @classmethod
    def from_samples(cls, u, k, delta, sigma):
        """Cubic-spline profiles through sampled arrays (equal length >= 4)."""
        u = np.asarray(u, dtype=float)
        arrays = {"k": k, "delta": delta, "sigma": sigma}
        if any(len(np.asarray(a)) != len(u) for a in arrays.values()) or len(u) < 4:
            raise SpecFormatError("u, k, delta, sigma must have equal length >= 4")
        if not np.all(np.diff(u) > 0):
            raise SpecFormatError("u samples must be strictly increasing")

        def spline_profile(sp):
            def fn(x):
                if isinstance(x, Jet2):
                    outer = Jet2(*(float(sp(x.value, nu)) for nu in range(4)))
                    return jets.compose(outer, x)
                return float(sp(x))

            return fn

        splines = tuple(
            CubicSpline(u, np.asarray(values, dtype=float)) for values in (k, delta, sigma)
        )
        k_fn, d_fn, sig_fn = map(spline_profile, splines)
        lam_fn = lambda x: jets.cos(sig_fn(x)) / jets.sin(sig_fn(x))
        return cls(k_fn, d_fn, lam_fn, sig_fn, (u[0], u[-1]), splines)

    def _validate(self, n=64):
        us = np.linspace(self.domain[0], self.domain[1], n)
        samples = [
            (self.k(u), self.delta(u), self.sigma(u), self.lam(u)) for u in us
        ]
        for u, values in zip(us, samples):
            if not all(map(math.isfinite, values)):
                raise InvalidSigma(f"non-finite invariant at u = {u}")
        _skew_gate(us, [d for _, d, _, _ in samples], 0.0)
        for u, (_, d, s, lam) in zip(us, samples):
            if not (-math.pi / 2.0 < s <= math.pi / 2.0 + 1e-12):
                raise InvalidSigma(f"sigma(u) = {s} outside (-pi/2, pi/2] at u = {u}")
            # sign sigma = sign delta; vacuous at the sigma = pi/2 boundary
            if abs(lam) > 1e-9 and math.copysign(1.0, s) != math.copysign(1.0, d):
                raise InvalidSigma(
                    f"sign(sigma) != sign(delta) at u = {u} (sigma={s}, delta={d})"
                )

    def k(self, u):
        return float(self._k(float(u)))

    def delta(self, u):
        return float(self._delta(float(u)))

    def lam(self, u):
        """lambda = cot(sigma) = <e, s'> / delta."""
        return float(self._lam(float(u)))

    def sigma(self, u):
        return float(self._sigma(float(u)))

    def k_jet(self, u):
        return jets.as_jet(self._k(jets.variable(u)))

    def delta_jet(self, u):
        return jets.as_jet(self._delta(jets.variable(u)))

    def lam_jet(self, u):
        return jets.as_jet(self._lam(jets.variable(u)))

    def grid(self, lo, hi, n):
        """`ProfileGrid` of the n-step uniform grid on [lo, hi].

        Spline profiles are evaluated on whole arrays; other profiles take
        one jet per node and one value per midpoint.
        """
        h = (hi - lo) / n
        us = lo + h * np.arange(n + 1)
        um = us[:-1] + 0.5 * h
        if self._splines is not None:
            k, d, sig = self._splines
            s = sig(us)
            sin_s = np.sin(s)
            sm = sig(um)
            return ProfileGrid(
                us, k(us), k(us, 1), d(us), d(us, 1),
                np.cos(s) / sin_s, -sig(us, 1) / (sin_s * sin_s),
                k(um), d(um), np.cos(sm) / np.sin(sm),
            )
        nodes = np.array([
            [x for jet in (self.k_jet(u), self.delta_jet(u), self.lam_jet(u))
             for x in (jet.value, jet.d1)]
            for u in us.tolist()
        ])
        mids = np.array([(self.k(u), self.delta(u), self.lam(u)) for u in um.tolist()])
        return ProfileGrid(us, *nodes.T, *mids.T)


# moving-frame integration -----------------------------------------------------


class _DenseFrameSolution:
    """Dense-output RK4 solution with two-point quintic Hermite evaluation.

    Stores state, first and second derivative at uniform nodes; between
    nodes each component is the quintic matching all six endpoint values.
    """

    def __init__(self, us, y, yp, ypp):
        self.us = us
        self.u0 = float(us[0])
        self.h = float(us[1] - us[0])
        self.n = len(us) - 1
        h = self.h
        y0, y1 = y[:-1], y[1:]
        p0, p1 = yp[:-1], yp[1:]
        q0, q1 = ypp[:-1], ypp[1:]
        a = y1 - y0 - p0 * h - 0.5 * q0 * h * h
        b = p1 - p0 - q0 * h
        c = q1 - q0
        c3 = (10.0 * a - 4.0 * b * h + 0.5 * c * h * h) / h**3
        c4 = (-15.0 * a + 7.0 * b * h - c * h * h) / h**4
        c5 = (6.0 * a - 3.0 * b * h + 0.5 * c * h * h) / h**5
        # (interval, component, power) coefficient table
        self.coef = np.stack([y0, p0, 0.5 * q0, c3, c4, c5], axis=-1)

    def eval_jets(self, u, col_lo, col_hi):
        i = int((u - self.u0) / self.h)
        if i < 0:
            i = 0
        elif i >= self.n:
            i = self.n - 1
        x = u - (self.u0 + i * self.h)
        out = []
        for c0, c1, c2, c3, c4, c5 in self.coef[i, col_lo:col_hi]:
            out.append(
                Jet2(
                    ((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0,
                    (((5.0 * c5 * x + 4.0 * c4) * x + 3.0 * c3) * x + 2.0 * c2) * x + c1,
                    ((20.0 * c5 * x + 12.0 * c4) * x + 6.0 * c3) * x + 2.0 * c2,
                    (60.0 * c5 * x + 24.0 * c4) * x + 6.0 * c3,
                )
            )
        return tuple(out)


def _generators(k, delta, lam, out):
    """Fill `out[i]` with the matrix A(u_i) of Y' = A Y, Y the 4x3 matrix
    with rows (e1, e2, e3, s): e1' = e2, e2' = -e1 + k e3, e3' = -k e2,
    s' = delta (lam e1 + e3). Entries outside that pattern are left as
    they are, so `out` starts as zeros and can then be refilled."""
    out[:, 0, 1] = 1.0
    out[:, 1, 0] = -1.0
    out[:, 1, 2] = k
    np.negative(k, out=out[:, 2, 1])
    np.multiply(delta, lam, out=out[:, 3, 0])
    out[:, 3, 2] = delta
    return out


def _propagate_frame(inv, lo, hi, n_steps, frame0, s0):
    """RK4 states of the frame system on the n_steps-step uniform grid.

    Returns the `ProfileGrid` and Y, shape (n_steps + 1, 4, 3), rows
    (e1, e2, e3, s) of each node. The system is linear, so each classical
    RK4 step is the matrix M_i = I + h/6 (A1 + 2 P2 + 2 P3 + P4) with
    P2 = Am (I + h/2 A1), P3 = Am (I + h/2 P2), P4 = A4 (I + h P3), and
    A1, Am, A4 the generator at the step's start, midpoint and end. All
    M_i are formed at once and the state is propagated by Y_{i+1} = M_i Y_i.
    """
    h = (hi - lo) / n_steps
    if h <= 0.0 or not math.isfinite(h):
        raise IntegrationFailure("step underflow in frame integration")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = inv.grid(lo, hi, n_steps)
        a = _generators(g.k[:-1], g.delta[:-1], g.lam[:-1], np.zeros((n_steps, 4, 4)))
        am = _generators(g.k_mid, g.delta_mid, g.lam_mid, np.zeros_like(a))
        m = a.copy()                    # accumulates A1 + 2 P2 + 2 P3 + P4
        p = np.matmul(am, a)
        p *= 0.5 * h
        p += am                         # P2
        m += p
        m += p
        np.matmul(am, p, out=a)
        a *= 0.5 * h
        a += am                         # P3
        m += a
        m += a
        _generators(g.k[1:], g.delta[1:], g.lam[1:], am)  # A4
        np.matmul(am, a, out=p)
        p *= h
        p += am                         # P4
        m += p
        del a, am, p                    # free before the states are allocated
        m *= h / 6.0
        m[:, range(4), range(4)] += 1.0

        y = np.empty((n_steps + 1, 4, 3))
        y[0, :3] = frame0
        y[0, 3] = s0
        for i in range(n_steps):
            np.matmul(m[i], y[i], out=y[i + 1])
    bad = np.flatnonzero(~np.isfinite(y).all(axis=(1, 2)))
    if bad.size:
        raise IntegrationFailure(
            f"non-finite state during frame integration at u = {g.u[bad[0]]}"
        )
    return g, y


def surface_from_invariants(inv, frame0=None, s0=None, domain=None, n_steps=4096):
    """Reconstruct the surface with the given invariants, up to rigid motion.

    Integrates the spherical moving frame of the director together with
    the striction line and wraps the dense solution as a standard-form
    surface. `frame0` rows are (e(u0), e'(u0), e x e'(u0)); defaults to
    the standard basis with the striction line starting at `s0` (origin).
    """
    lo, hi = domain or inv.domain
    if not (lo < hi) or not math.isfinite(hi - lo):
        raise IntegrationFailure(f"bad domain [{lo}, {hi}]")
    if frame0 is None:
        frame0 = np.eye(3)
    frame0 = np.asarray(frame0, dtype=float)
    if frame0.shape != (3, 3):
        raise ValueError("frame0 must be a 3x3 matrix with rows e, e', e x e'")
    if np.max(np.abs(frame0 @ frame0.T - np.eye(3))) > 1e-9:
        raise ValueError("frame0 is not orthonormal")
    if np.max(np.abs(np.cross(frame0[0], frame0[1]) - frame0[2])) > 1e-9:
        raise ValueError("frame0 rows must satisfy e3 = e1 x e2")
    s0 = np.zeros(3) if s0 is None else np.asarray(s0, dtype=float)

    g, y = _propagate_frame(inv, lo, hi, n_steps, frame0, s0)

    # Dense output of the director e1 and the striction line s only:
    # y' = A y and y'' = (A' + A^2) y on their rows.
    e1, e2, e3, s = y.swapaxes(0, 1)
    k, d, lam = (col[:, None] for col in (g.k, g.delta, g.lam))
    dp, lamp = g.ddelta[:, None], g.dlam[:, None]
    dense = np.concatenate([e1, s], axis=1)
    dense_p = np.concatenate([e2, d * lam * e1 + d * e3], axis=1)
    dense_pp = np.concatenate(
        [-e1 + k * e3, (dp * lam + d * lamp) * e1 + (d * lam - d * k) * e2 + dp * e3],
        axis=1,
    )
    sol = _DenseFrameSolution(g.u, dense, dense_p, dense_pp)
    director = CurveR3(lambda uq: sol.eval_jets(uq, 0, 3), (lo, hi), "director")
    striction = CurveR3(lambda uq: sol.eval_jets(uq, 3, 6), (lo, hi), "striction")
    return StandardRuledSurface(striction, director, (lo, hi))


# standardization of general (base curve, director) input ----------------------


def _segment_integral(fn, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * sum(
        w * fn(mid + half * x) for x, w in zip(_GL4_NODES, _GL4_WEIGHTS)
    )


def standardize(base, director, grid=1024, tol_torsal=1e-8, tol_director=1e-12,
                tol_skew=TOL_SKEW):
    """Bring a general ruled surface c(u) + v d(u) into standard form.

    The director is normalized and reparametrized by its spherical
    arclength t (monotone cubic inverse of t(u) on a `grid`-point table,
    polished by one Newton step), and the base curve is replaced by the
    striction line s = c - (<c', e'> / <e', e'>) e. The director
    orientation is chosen so that sign(lambda) = sign(delta), following
    the striction-angle sign convention; the returned surface lives on
    [0, t_total].

    The third-order jet slot of the returned striction curve is not
    tracked (it would require fourth derivatives of the input).
    """
    if base.domain != director.domain:
        raise ValueError("base and director must share a domain")
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

    # arclength table t(u) over the grid, with torsality checks
    us = np.linspace(lo, hi, grid + 1)
    t_nodes = np.empty(grid + 1)
    t_nodes[0] = 0.0
    min_speed = math.inf
    for i in range(grid):
        seg = _segment_integral(lambda x: speed_jet(x).value, us[i], us[i + 1])
        t_nodes[i + 1] = t_nodes[i] + seg
        min_speed = min(min_speed, speed_jet(us[i]).value)
    min_speed = min(min_speed, speed_jet(us[-1]).value)
    if min_speed < tol_torsal:
        raise TorsalRuling(
            f"spherical speed of the director drops to {min_speed:.3e}; "
            "ruling is (numerically) torsal"
        )
    t_total = float(t_nodes[-1])
    u_of_t = PchipInterpolator(t_nodes, us)

    def invert(t):
        t = min(max(t, 0.0), t_total)
        u = float(u_of_t(t))
        for _ in range(2):  # Newton polish on t(u) - t = 0
            u = min(max(u, lo), hi)
            i = min(int(np.searchsorted(t_nodes, t, side="right")) - 1, grid - 1)
            i = max(i, 0)
            resid = t_nodes[i] + _segment_integral(
                lambda x: speed_jet(x).value, us[i], u
            ) - t
            u -= resid / speed_jet(u).value
        return min(max(u, lo), hi)

    def param_jet(u):
        """Jet of u(t): derivatives of the inverse arclength map."""
        tau = speed_jet(u)
        t0, t1, t2 = tau.value, tau.d1, tau.d2
        up = 1.0 / t0
        return Jet2(u, up, -t1 / t0**3, (3.0 * t1 * t1 - t0 * t2) / t0**5)

    def director_raw(t):
        uj = param_jet(invert(t))
        eb = ebar_jets(uj.value)
        return tuple(jets.compose(c, uj) for c in eb)

    def striction_raw(t):
        uj = param_jet(invert(t))
        u = uj.value
        c = base.eval(u)
        eb = ebar_jets(u)
        cp = jets.deriv3(c)
        ebp = jets.deriv3(eb)
        m = jets.dot(cp, ebp) / jets.dot(ebp, ebp)
        s_u = jets.sub3(c, jets.scale(eb, m))
        out = tuple(jets.compose(comp, uj) for comp in s_u)
        return tuple(Jet2(c.value, c.d1, c.d2, 0.0) for c in out)

    director_curve = CurveR3(director_raw, (0.0, t_total), "director")
    striction_curve = CurveR3(striction_raw, (0.0, t_total), "striction")

    # orientation: <e, s'> >= 0 makes sign(lambda) = sign(delta)
    probes = np.linspace(0.0, t_total, 9)[1:-1]
    a_vals, deltas = [], []
    for t in probes:
        e = director_curve.eval(t)
        s = striction_curve.eval(t)
        ev = jets.values3(e)
        epv = (e[0].d1, e[1].d1, e[2].d1)
        spv = (s[0].d1, s[1].d1, s[2].d1)
        a_vals.append(jets.dot(ev, spv))
        deltas.append(jets.triple(ev, epv, spv))
    if min(abs(d) for d in deltas) < tol_skew:
        raise NonSkew("parameter of distribution vanishes after standardization")
    if max(abs(a) for a in a_vals) > 1e-9 and sum(a_vals) < 0.0:
        director_curve = director_curve.negated()

    return StandardRuledSurface(striction_curve, director_curve, (0.0, t_total))


# gallery -----------------------------------------------------------------------


def _req(cond, msg):
    if not cond:
        raise ParamOutOfRange(msg)


def _is_finite(x):
    """False for NaN, +-inf and integers beyond the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _right_helicoid(c=1.0, domain=DEFAULT_DOMAIN):
    # (k, delta, lambda) = (0, c, 0)
    _req(c != 0.0, "right_helicoid: need c != 0")
    e = CurveR3.from_jet_components(
        lambda u: jets.cos(u), lambda u: jets.sin(u), lambda u: 0.0 * u, domain
    )
    s = CurveR3.from_jet_components(
        lambda u: 0.0 * u, lambda u: 0.0 * u, lambda u: c * u, domain
    )
    return StandardRuledSurface(s, e, domain, label=f"right_helicoid(c={c:g})")


_SQ2 = math.sqrt(2.0)


def _hyperboloid_edlinger(c=1.0, domain=DEFAULT_DOMAIN):
    # Rotational hyperboloid with gorge circle radius c:
    # (k, delta, lambda) = (1, -c, -1), so delta' = 0 and k lambda + 1 = 0.
    _req(c > 0.0, "hyperboloid_edlinger: need c > 0")
    rho = _SQ2 / 2.0
    e = CurveR3.from_jet_components(
        lambda u: rho * jets.cos(_SQ2 * u),
        lambda u: rho * jets.sin(_SQ2 * u),
        lambda u: 0.0 * u + rho,
        domain,
    )
    s = CurveR3.from_jet_components(
        lambda u: c * jets.sin(_SQ2 * u),
        lambda u: -c * jets.cos(_SQ2 * u),
        lambda u: 0.0 * u,
        domain,
    )
    return StandardRuledSurface(s, e, domain, label=f"hyperboloid_edlinger(c={c:g})")


def _orthoid_const_delta(r=0.6, delta=1.0, domain=DEFAULT_DOMAIN):
    # (k, delta, lambda) = (sqrt(1-r^2)/r, delta, 0): rulings orthogonal to
    # the striction line, delta' = 0.
    _req(0.0 < r < 1.0, "orthoid_const_delta: need r in (0, 1)")
    _req(delta != 0.0, "orthoid_const_delta: need delta != 0")
    z0 = math.sqrt(1.0 - r * r)
    w = 1.0 / r
    e = CurveR3.from_jet_components(
        lambda u: r * jets.cos(w * u),
        lambda u: r * jets.sin(w * u),
        lambda u: 0.0 * u + z0,
        domain,
    )
    s = CurveR3.from_jet_components(
        lambda u: -delta * z0 * r * jets.sin(w * u),
        lambda u: delta * z0 * r * jets.cos(w * u),
        lambda u: delta * r * u,
        domain,
    )
    return StandardRuledSurface(
        s, e, domain, label=f"orthoid_const_delta(r={r:g}, delta={delta:g})"
    )


def _conoidal_const_delta(alpha=2.0, beta=1.0, domain=DEFAULT_DOMAIN):
    # s' = alpha e + beta (e x e'): (k, delta, lambda) = (0, beta, alpha/beta),
    # rulings parallel to the plane z = 0.
    _req(alpha > 0.0, "conoidal_const_delta: need alpha > 0 (sign convention)")
    _req(beta != 0.0, "conoidal_const_delta: need beta != 0")
    e = CurveR3.from_jet_components(
        lambda u: jets.cos(u), lambda u: jets.sin(u), lambda u: 0.0 * u, domain
    )
    s = CurveR3.from_jet_components(
        lambda u: alpha * jets.sin(u),
        lambda u: -alpha * jets.cos(u),
        lambda u: beta * u,
        domain,
    )
    return StandardRuledSurface(
        s, e, domain, label=f"conoidal_const_delta(alpha={alpha:g}, beta={beta:g})"
    )


def _generic_skew(seed=0, domain=DEFAULT_DOMAIN, n_steps=4096):
    # Deterministic negative control: k, lambda, delta all vary, delta' != 0,
    # k lambda + 1 bounded away from 0.
    _req(isinstance(seed, numbers.Real) and float(seed).is_integer(),
         f"generic_skew: need an integral seed, got {seed!r}")
    rng = random.Random(int(seed))
    a0 = rng.uniform(0.6, 1.1)
    a1 = rng.uniform(0.15, 0.35)
    p1 = rng.uniform(0.0, 2.0 * math.pi)
    l0 = rng.uniform(0.5, 0.9)
    l1 = rng.uniform(0.1, 0.25)
    p2 = rng.uniform(0.0, 2.0 * math.pi)
    d0 = rng.uniform(0.8, 1.2)
    p3 = rng.uniform(0.0, 2.0 * math.pi)
    inv = InvariantTriple.from_functions(
        k=lambda u: a0 + a1 * jets.sin(u + p1),
        delta=lambda u: d0 * (1.0 + 0.15 * jets.sin(u + p3)),
        lam=lambda u: l0 + l1 * jets.sin(u + p2),
        domain=domain,
    )
    surf = surface_from_invariants(inv, domain=domain, n_steps=n_steps)
    surf.label = f"generic_skew(seed={seed})"
    return surf


_GALLERY = {
    "right_helicoid": _right_helicoid,
    "hyperboloid_edlinger": _hyperboloid_edlinger,
    "orthoid_const_delta": _orthoid_const_delta,
    "conoidal_const_delta": _conoidal_const_delta,
    "generic_skew": _generic_skew,
}


def gallery_names():
    return sorted(_GALLERY)


def gallery(name, params=None, **kwargs):
    """Construct a canonical surface by name.

    Names and parameters: right_helicoid(c), hyperboloid_edlinger(c),
    orthoid_const_delta(r, delta), conoidal_const_delta(alpha, beta),
    generic_skew(seed). All accept `domain=(lo, hi)`.
    """
    if name not in _GALLERY:
        raise UnknownGalleryName(
            f"unknown gallery surface {name!r}; choose from {gallery_names()}"
        )
    merged = dict(params or {})
    merged.update(kwargs)
    for key, value in merged.items():
        if isinstance(value, numbers.Real) and not _is_finite(value):
            raise ParamOutOfRange(f"{name}: parameter {key} = {value!r} is not finite")
    if "domain" in merged:
        try:
            lo, hi = (float(x) for x in merged["domain"])
        except (TypeError, ValueError, OverflowError):
            raise ParamOutOfRange(f"{name}: domain must be (lo, hi)") from None
        _req(math.isfinite(lo) and math.isfinite(hi) and lo < hi,
             f"{name}: domain must be finite with lo < hi, got ({lo}, {hi})")
        merged["domain"] = (lo, hi)
    try:
        return _GALLERY[name](**merged)
    except TypeError as exc:
        raise ParamOutOfRange(f"{name}: {exc}") from None


# surface spec (JSON interface) --------------------------------------------------

_EXPR_KEYS = ("cx", "cy", "cz", "dx", "dy", "dz")


def gallery_spec(name, params=None):
    """SurfaceSpec dict for a gallery member (CLI --emit-spec)."""
    if name not in _GALLERY:
        raise UnknownGalleryName(f"unknown gallery surface {name!r}")
    return {"type": "gallery", "name": name, "params": dict(params or {})}


def load_spec(spec, standardize_input=False):
    """Build a surface from a SurfaceSpec mapping.

    Schema: {"type": "gallery", "name": ..., "params": {...}} |
    {"type": "expression", "cx": ..., ..., "dz": ..., "domain": [lo, hi]} |
    {"type": "invariants", "u": [...], "k": [...], "delta": [...], "sigma": [...]}.

    Expression components are read as the striction line and unit director
    unless `standardize_input` is set, in which case they are a general
    base curve and (not necessarily unit) director to be standardized.
    """
    if not isinstance(spec, dict):
        raise SpecFormatError("spec must be a JSON object")
    kind = spec.get("type")
    if kind == "gallery":
        allowed = {"type", "name", "params"}
        _check_keys(spec, allowed)
        if "name" not in spec:
            raise SpecFormatError("gallery spec needs a 'name'")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SpecFormatError("'params' must be an object")
        return gallery(spec["name"], params)
    if kind == "expression":
        allowed = {"type", "domain", *_EXPR_KEYS}
        _check_keys(spec, allowed)
        missing = [k for k in _EXPR_KEYS if k not in spec]
        if missing:
            raise SpecFormatError(f"expression spec missing components: {missing}")
        if "domain" not in spec:
            raise SpecFormatError("expression spec needs 'domain': [lo, hi]")
        domain = _read_domain(spec["domain"])
        comps = [spec[k] for k in _EXPR_KEYS]
        if not all(isinstance(c, str) for c in comps):
            raise SpecFormatError("expression components must be strings")
        c = CurveR3.from_expressions(*comps[0:3], domain=domain)
        d = CurveR3.from_expressions(*comps[3:6], domain=domain)
        if standardize_input:
            return standardize(c, d)
        return StandardRuledSurface(c, d, domain)
    if kind == "invariants":
        allowed = {"type", "u", "k", "delta", "sigma"}
        _check_keys(spec, allowed)
        missing = [k for k in ("u", "k", "delta", "sigma") if k not in spec]
        if missing:
            raise SpecFormatError(f"invariants spec missing arrays: {missing}")
        inv = InvariantTriple.from_samples(
            spec["u"], spec["k"], spec["delta"], spec["sigma"]
        )
        return surface_from_invariants(inv)
    raise SpecFormatError(
        f"unknown spec type {kind!r}; expected gallery | expression | invariants"
    )


def _check_keys(spec, allowed):
    unknown = set(spec) - allowed
    if unknown:
        raise SpecFormatError(f"unknown spec keys: {sorted(unknown)}")


def _read_domain(dom):
    try:
        lo, hi = (float(x) for x in dom)
    except (TypeError, ValueError):
        raise SpecFormatError("'domain' must be [lo, hi]") from None
    if not lo < hi:
        raise SpecFormatError(f"'domain' must satisfy lo < hi, got [{lo}, {hi}]")
    return (lo, hi)


def load_spec_file(path, standardize_input=False):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{path}: invalid JSON ({exc})") from None
    return load_spec(spec, standardize_input=standardize_input)
