"""Ruled surfaces in standard striction-line form.

A surface is x(u, v) = s(u) + v e(u) with |e| = |e'| = 1 and <s', e'> = 0,
u the arclength along the spherical director curve. This module builds
such surfaces from expressions, from a canonical gallery, from a general
(base curve, director) pair via `standardize`, and from a complete system
of invariants (k, delta, sigma) via moving-frame integration.
"""

import bisect
import json
import math
import numbers
import random
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from . import jets
from .errors import (
    CurveDomainError,
    CurveEvaluationError,
    CurveOverflow,
    CurveZeroDivision,
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
from .invariants import sigma_from_lam
from .jets import Jet2
from .parser import compile_program, parse_expression

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


# jet-level errors and the library errors that curves and expression profiles
# raise for them
_CURVE_ERRORS = (
    (ZeroDivisionError, CurveZeroDivision),
    (OverflowError, CurveOverflow),
    (ValueError, CurveDomainError),
)


def _named_errors(fn, x, u):
    """fn(x), with a jet-level error raised as its `CurveEvaluationError`
    naming u. One that an inner curve raised, and so named, passes as is."""
    try:
        return fn(x)
    except CurveEvaluationError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        mapped = next(new for old, new in _CURVE_ERRORS if isinstance(exc, old))
        raise mapped(f"{exc} at u = {u}") from None


def _on_grid(grid_fn, point_fn, us):
    """Rows of `grid_fn(us)`, a sequence of arrays or scalars broadcast to
    the grid, as one 2-d array. Where the array rules raise or give a
    non-finite value, the rows are built from `point_fn(u)` at every u
    instead: the point path then decides, raising its own error at the
    first offending u, or giving the values where only the array rules fail.
    """
    with np.errstate(all="ignore"):
        try:
            rows = np.array([np.broadcast_to(x, us.shape) for x in grid_fn(us)], dtype=float)
            if np.isfinite(rows).all():
                return rows
        except (TypeError, ValueError, ArithmeticError):
            pass
    return np.array([point_fn(u) for u in us.tolist()], dtype=float).T


def _slots(comps):
    """The value, d1, d2 and d3 slots of three component jets, in turn."""
    return [x for c in comps for x in (c.value, c.d1, c.d2, c.d3)]


class CurveR3:
    """Curve in R^3 with order-2 jet access, defined on a closed interval.

    `raw_eval` maps u to the three component jets. It takes a float, and
    also a 1-d array of u, for which it returns jets whose slots are
    arrays (or scalars, which `eval` broadcasts to the grid).
    """

    def __init__(self, raw_eval, domain, name=""):
        self.raw_eval = raw_eval  # u (float or 1-d array) -> (Jet2, Jet2, Jet2)
        self.domain = (float(domain[0]), float(domain[1]))
        self.name = name
        if not self.domain[0] < self.domain[1]:
            raise ValueError(f"empty domain {self.domain}")

    @classmethod
    def from_jet_components(cls, fx, fy, fz, domain, name=""):
        """Build from three closures mapping a jet (or float) to the component."""

        def raw(u):
            uj = Jet2.variable(u)
            return (jets.as_jet(fx(uj)), jets.as_jet(fy(uj)), jets.as_jet(fz(uj)))

        return cls(raw, domain, name)

    @classmethod
    def from_expressions(cls, sx, sy, sz, domain, name=""):
        """Build from three expression strings, run as one program, so a
        subexpression the components share is computed once."""
        program = compile_program([parse_expression(s).root for s in (sx, sy, sz)])

        def raw(u):
            x, y, z = program.run(Jet2.variable(u))
            return (jets.as_jet(x), jets.as_jet(y), jets.as_jet(z))

        return cls(raw, domain, name)

    def _check_domain(self, u):
        lo, hi = self.domain
        slack = 1e-9 * (1.0 + hi - lo)
        i = jets.first_true((u < lo - slack) | (u > hi + slack))
        if i is not None:
            raise OutOfDomain(f"u = {np.asarray(u)[i]} outside [{lo}, {hi}]")

    def eval(self, u):
        """Jets of the three components at u, a float or a 1-d array.

        Jet-level errors (a square root or logarithm outside its domain, a
        zero divisor, an overflow) raise a `CurveEvaluationError` naming the
        offending u; on a grid, the first offending u.
        """
        if isinstance(u, np.ndarray):
            return self._eval_grid(u)
        u = float(u)
        self._check_domain(u)
        out = _named_errors(self.raw_eval, u, u)
        for c in out:
            if not (math.isfinite(c.value) and math.isfinite(c.d1) and math.isfinite(c.d2)):
                raise IntegrationFailure(f"non-finite curve value at u = {u}")
        return out

    def _eval_grid(self, us):
        self._check_domain(us)
        rows = _on_grid(lambda x: _slots(self.raw_eval(x)), lambda u: _slots(self.eval(u)), us)
        return tuple(Jet2(*rows[i:i + 4]) for i in (0, 4, 8))

    def point(self, u):
        return np.array(jets.values3(self.eval(u)))

    def negated(self):
        raw = self.raw_eval

        def neg_raw(u):
            x, y, z = raw(u)
            return (-x, -y, -z)

        return CurveR3(neg_raw, self.domain, self.name)


def _first_order(striction, director, us):
    """Values of e, e' and s' at the points `us` (a float or an array)."""
    e = director.eval(us)
    s = striction.eval(us)
    return jets.values3(e), tuple(c.d1 for c in e), tuple(c.d1 for c in s)


def _gauge_residuals(striction, director, us):
    """Worst standard-form residuals over the sample points, and the
    signed parameter of distribution at each of them (an array)."""
    ev, epv, spv = _first_order(striction, director, np.asarray(us, dtype=float))
    deltas = jets.triple(ev, epv, spv)
    worst = {
        "unit_e": float(np.max(np.abs(jets.norm(ev) - 1.0), initial=0.0)),
        "unit_ep": float(np.max(np.abs(jets.norm(epv) - 1.0), initial=0.0)),
        "orth": float(np.max(np.abs(jets.dot(spv, epv)), initial=0.0)),
        "min_abs_delta": float(np.min(np.abs(deltas), initial=math.inf)),
    }
    return worst, deltas


def _skew_gate(us, deltas, tol):
    """Raise `NonSkew` where delta is within `tol` of 0 at a sample or
    changes sign between two neighbouring samples."""
    deltas = np.asarray(deltas)
    i = int(np.argmin(np.abs(deltas)))
    if not abs(deltas[i]) > tol:
        raise NonSkew(
            f"parameter of distribution ~ {abs(deltas[i]):.3e} at u = {us[i]}; "
            "surface is torsal there"
        )
    flips = np.flatnonzero((deltas[:-1] > 0.0) != (deltas[1:] > 0.0))
    if flips.size:
        j = flips[0]
        raise NonSkew(
            f"parameter of distribution changes sign between u = {us[j]} "
            f"and u = {us[j + 1]}; surface is torsal in between"
        )


class _LastCall:
    """`fn` with a one-entry memo for float arguments.

    A call hits only for the identical float, the sign of zero included,
    and array arguments bypass the memo. The entry is one tuple, replaced
    whole, so threads sharing the memo always read a matching pair.
    """

    __slots__ = ("fn", "entry")

    def __init__(self, fn):
        self.fn = fn
        self.entry = (None, None)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.fn(x)
        key, value = self.entry
        if key == x and (x != 0.0 or math.copysign(1.0, key) == math.copysign(1.0, x)):
            return value
        value = self.fn(x)
        self.entry = (x, value)
        return value


class StandardRuledSurface:
    """Skew ruled surface in standard form: striction line s(u), unit director e(u).

    Construction verifies the gauge conditions and skewness on a sample
    grid and raises `GaugeViolation` / `NonSkew` otherwise. Instances are
    immutable and evaluation is pure; the jets at the latest float u are
    kept in a one-entry memo that no result depends on.
    """

    def __init__(self, striction, director, domain=None, label="", check=True, n_check=33):
        self.striction = striction
        self.director = director
        self._jets = _LastCall(lambda u: (striction.eval(u), director.eval(u)))
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
        """(striction jets, director jets) at u, a float or a 1-d array.

        `trace_curve` asks for the point at u and then for the field there,
        so the jets at the latest float u are kept.
        """
        return self._jets(u)

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


def _as_profile(p):
    """Normalize a profile: number | expression string | generic callable."""
    if isinstance(p, (int, float)):
        c = float(p)
        return lambda u: c
    if isinstance(p, str):
        ev = parse_expression(p).eval
        return lambda x: _named_errors(ev, x, x.value if isinstance(x, Jet2) else x)
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


def _cot(s):
    return jets.cos(s) / jets.sin(s)


class InvariantTriple:
    """Complete invariant system (k, delta, sigma) of a skew ruled surface.

    Profiles are callables of u that take floats (values), 1-d arrays of
    u and jets whose slots are such arrays (derivatives). A profile that
    rejects arrays, or whose array values are not finite, is evaluated
    point by point instead. sigma lies in (-pi/2, pi/2] and carries the
    sign of delta wherever lambda = cot(sigma) is nonzero; lambda is
    available directly via `lam` to avoid trigonometric branch loss.
    """

    def __init__(self, k_fn, delta_fn, lam_fn, sigma_fn, domain):
        self._k = k_fn
        self._delta = delta_fn
        self._lam = lam_fn
        self._sigma = sigma_fn
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
            sigma_fn = lambda u: sigma_from_lam(lam_fn(u))
        else:
            sigma_fn = _as_profile(sigma)
            lam_fn = lambda u: _cot(sigma_fn(u))
        return cls(k_fn, d_fn, lam_fn, sigma_fn, domain)

    @classmethod
    def from_samples(cls, u, k, delta, sigma):
        """Cubic-spline profiles through sampled arrays (finite, equal length >= 4)."""
        arrays = {"u": u, "k": k, "delta": delta, "sigma": sigma}
        for name, values in arrays.items():
            try:
                values = np.asarray(values, dtype=float)
            except (TypeError, ValueError):
                raise SpecFormatError(f"'{name}' must be an array of numbers") from None
            if values.ndim != 1 or not np.isfinite(values).all():
                raise SpecFormatError(f"'{name}' must be a flat array of finite numbers")
            arrays[name] = values
        u = arrays.pop("u")
        if any(len(a) != len(u) for a in arrays.values()) or len(u) < 4:
            raise SpecFormatError("u, k, delta, sigma must have equal length >= 4")
        if not np.all(np.diff(u) > 0):
            raise SpecFormatError("u samples must be strictly increasing")

        def spline_profile(sp):
            def fn(x, nu=0):
                if isinstance(x, Jet2):
                    return jets.compose(Jet2(*(fn(x.value, i) for i in range(4))), x)
                # a float gives a float, so cot(sigma) divides by zero as math does
                return sp(x, nu) if isinstance(x, np.ndarray) else float(sp(x, nu))

            return fn

        # the inputs are checked above, so what CubicSpline still rejects is
        # a spacing of u too small for its slopes or its linear system
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                splines = tuple(CubicSpline(u, values) for values in arrays.values())
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SpecFormatError(f"no cubic spline through the samples: {exc}") from None
        k_fn, d_fn, sig_fn = map(spline_profile, splines)
        lam_fn = lambda x: _cot(sig_fn(x))
        return cls(k_fn, d_fn, lam_fn, sig_fn, (u[0], u[-1]))

    def _validate(self, n=64):
        us = np.linspace(self.domain[0], self.domain[1], n)
        rows = _on_grid(
            lambda x: (self._k(x), self._delta(x), self._sigma(x), self._lam(x)),
            lambda u: (self.k(u), self.delta(u), self.sigma(u), self.lam(u)),
            us,
        )
        i = jets.first_true(~np.isfinite(rows).all(axis=0))
        if i is not None:
            raise InvalidSigma(f"non-finite invariant at u = {us[i]}")
        _, d, s, lam = rows
        _skew_gate(us, d, 0.0)
        # sign sigma = sign delta; vacuous at the sigma = pi/2 boundary
        out_of_range = ~((-math.pi / 2.0 < s) & (s <= math.pi / 2.0 + 1e-12))
        mismatch = (np.abs(lam) > 1e-9) & (np.copysign(1.0, s) != np.copysign(1.0, d))
        i = jets.first_true(out_of_range | mismatch)
        if i is not None and out_of_range[i]:
            raise InvalidSigma(f"sigma(u) = {s[i]} outside (-pi/2, pi/2] at u = {us[i]}")
        if i is not None:
            raise InvalidSigma(
                f"sign(sigma) != sign(delta) at u = {us[i]} (sigma={s[i]}, delta={d[i]})"
            )

    def k(self, u):
        return float(self._k(float(u)))

    def delta(self, u):
        return float(self._delta(float(u)))

    def lam(self, u):
        """lambda = cot(sigma) = <e, s'> / delta."""
        return float(self._lam_at(float(u), u))

    def sigma(self, u):
        return float(self._sigma(float(u)))

    def k_jet(self, u):
        return jets.as_jet(self._k(Jet2.variable(u)))

    def delta_jet(self, u):
        return jets.as_jet(self._delta(Jet2.variable(u)))

    def lam_jet(self, u):
        return jets.as_jet(self._lam_at(Jet2.variable(u), u))

    def _lam_at(self, x, u):
        """The lambda profile at x (a float or a seed jet of u)."""
        try:
            return self._lam(x)
        except ZeroDivisionError:
            raise InvalidSigma(
                f"lambda = cot(sigma) is infinite at u = {u}: sigma = 0 there"
            ) from None

    def grid(self, lo, hi, n):
        """`ProfileGrid` of the n-step uniform grid on [lo, hi]: one jet
        call on the node array and one value call on the midpoint array."""
        h = (hi - lo) / n
        us = lo + h * np.arange(n + 1)

        def slots(*jet3):
            return [x for jet in jet3 for x in (jet.value, jet.d1)]

        nodes = _on_grid(
            lambda x: slots(*(jets.as_jet(f(Jet2.variable(x)))
                              for f in (self._k, self._delta, self._lam))),
            lambda u: slots(self.k_jet(u), self.delta_jet(u), self.lam_jet(u)),
            us,
        )
        mids = _on_grid(
            lambda x: (self._k(x), self._delta(x), self._lam(x)),
            lambda u: (self.k(u), self.delta(u), self.lam(u)),
            us[:-1] + 0.5 * h,
        )
        return ProfileGrid(us, *nodes, *mids)


# moving-frame integration -----------------------------------------------------


def _quintic_hermite(y, yp, ypp, h):
    """Coefficients of the two-point quintic Hermite interpolant.

    `y`, `yp`, `ypp` hold the values and the first and second derivatives
    at the n + 1 nodes (first axis); `h` is the node spacing, a float or an
    array of the n interval lengths shaped to broadcast against `y[:-1]`.
    On interval i the interpolant is sum_j coef[i, ..., j] x^j, x the
    distance from node i; it matches all six endpoint values.
    """
    y0, y1 = y[:-1], y[1:]
    p0, p1 = yp[:-1], yp[1:]
    q0, q1 = ypp[:-1], ypp[1:]
    a = y1 - y0 - p0 * h - 0.5 * q0 * h * h
    b = p1 - p0 - q0 * h
    c = q1 - q0
    c3 = (10.0 * a - 4.0 * b * h + 0.5 * c * h * h) / h**3
    c4 = (-15.0 * a + 7.0 * b * h - c * h * h) / h**4
    c5 = (6.0 * a - 3.0 * b * h + 0.5 * c * h * h) / h**5
    return np.stack([y0, p0, 0.5 * q0, c3, c4, c5], axis=-1)


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
        # (interval, component, power) coefficient table
        self.coef = _quintic_hermite(y, yp, ypp, self.h)

    def eval_jets(self, u, col_lo, col_hi):
        """Jets of the components col_lo:col_hi at u, a float or a 1-d array."""
        if isinstance(u, np.ndarray):
            i = np.clip(((u - self.u0) / self.h).astype(np.intp), 0, self.n - 1)
            # (component, power, point): each power's coefficients as arrays
            rows = self.coef[i, col_lo:col_hi].transpose(1, 2, 0)
        else:
            i = min(max(int((u - self.u0) / self.h), 0), self.n - 1)
            rows = self.coef[i, col_lo:col_hi].tolist()
        x = u - (self.u0 + i * self.h)
        return tuple(
            Jet2(
                ((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0,
                (((5.0 * c5 * x + 4.0 * c4) * x + 3.0 * c3) * x + 2.0 * c2) * x + c1,
                ((20.0 * c5 * x + 12.0 * c4) * x + 6.0 * c3) * x + 2.0 * c2,
                (60.0 * c5 * x + 24.0 * c4) * x + 6.0 * c3,
            )
            for c0, c1, c2, c3, c4, c5 in rows
        )


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


_GL4_X = np.array(_GL4_NODES)


def _segment_integral(fn, a, b):
    """Four-point Gauss-Legendre integrals of fn over the segments [a, b],
    `a` and `b` arrays of segment ends: one call of `fn` on the 4 nodes of
    every segment."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    f = fn(np.ravel(mid[:, None] + half[:, None] * _GL4_X)).reshape(-1, 4).T
    return half * sum(w * fx for w, fx in zip(_GL4_WEIGHTS, f))


def _arclength_table(speed_jet, lo, hi, n):
    """Arclength table of a director with spherical speed jet `speed_jet`.

    Returns the n + 1 uniform nodes u_i on [lo, hi], the arclength t_i at
    each (4-point Gauss rule per segment, one grid call on all Gauss
    nodes) and the quintic Hermite coefficients of the inverse u(t) on
    every segment [t_i, t_i+1], from u' = 1/tau and u'' = -tau'/tau^3 at
    the nodes (one grid call of the speed jet, which also checks the
    nodes for torsality). `IntegrationFailure` is raised first where a
    segment length h is not finite or h^5, a divisor of the Hermite fit,
    underflows or overflows.
    """
    us = np.linspace(lo, hi, n + 1)
    seg = _segment_integral(lambda u: speed_jet(u).value, us[:-1], us[1:])
    t_nodes = np.concatenate(([0.0], np.cumsum(seg)))
    h = np.diff(t_nodes)
    with np.errstate(all="ignore"):
        h5 = h**5
    i = jets.first_true(~(np.isfinite(h5) & (h5 >= np.finfo(float).tiny)))
    if i is not None:
        raise IntegrationFailure(
            f"arclength table segment of length {h[i]:.3e} at u = {us[i]}: "
            "its fifth power under- or overflows a float"
        )
    tau = speed_jet(us)
    up = 1.0 / tau.value
    coef = _quintic_hermite(us, up, -tau.d1 * up**3, h)
    return us, t_nodes, coef


def _hermite_inverse(t_nodes, coef, lo, hi):
    """u(t) from an arclength table: the segment's quintic by Horner's rule,
    for a float t (Python floats throughout) or a 1-d array of them."""
    n = len(coef)
    t_total = float(t_nodes[-1])
    t_list, rows = t_nodes.tolist(), coef.tolist()

    def invert(t):
        if isinstance(t, np.ndarray):
            t = np.clip(t, 0.0, t_total)
            i = np.clip(np.searchsorted(t_nodes, t, side="right") - 1, 0, n - 1)
            x = t - t_nodes[i]
            c0, c1, c2, c3, c4, c5 = coef[i].T
            return np.clip(((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0, lo, hi)
        t = min(max(t, 0.0), t_total)
        i = min(max(bisect.bisect_right(t_list, t) - 1, 0), n - 1)
        c0, c1, c2, c3, c4, c5 = rows[i]
        x = t - t_list[i]
        return min(max(((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0, lo), hi)

    return invert


def standardize(base, director, grid=1024, tol_torsal=1e-8, tol_director=1e-12,
                tol_skew=TOL_SKEW):
    """Bring a general ruled surface c(u) + v d(u) into standard form.

    The director is normalized and reparametrized by its spherical
    arclength t, and the base curve is replaced by the striction line
    s = c - (<c', e'> / <e', e'>) e. The inverse u(t) is a quintic
    Hermite on each segment of a `grid`-segment arclength table. It must
    reproduce every segment midpoint t, |T(u(t)) - t| <= 1e-13 max(1,
    t_total) with T the table's quadrature; where it does not, the table
    is doubled, up to 8x `grid`, and then `IntegrationFailure` is raised.
    The director orientation is chosen so that sign(lambda) = sign(delta),
    following the striction-angle sign convention; the returned surface
    lives on [0, t_total].

    The third-order jet slot of the returned striction curve is not
    tracked (it would require fourth derivatives of the input).
    Every helper below takes a float u or a 1-d array of them.
    """
    if base.domain != director.domain:
        raise ValueError("base and director must share a domain")
    lo, hi = director.domain

    def ebar_jets(u):
        d = director.eval(u)
        n2 = jets.dot(d, d)
        i = jets.first_true(n2.value < tol_director**2)
        if i is not None:
            raise DegenerateDirector(f"|d(u)| ~ 0 at u = {np.asarray(u)[i]}")
        return jets.scale(d, 1.0 / n2.sqrt())

    def speed_from(eb, u):
        """Spherical speed jet at u from the normalized director jets there."""
        ebp = jets.deriv3(eb)
        n2 = jets.dot(ebp, ebp)
        i = jets.first_true(n2.value < tol_torsal * tol_torsal)
        if i is not None:
            raise TorsalRuling(
                f"|e'(u)| ~ {math.sqrt(max(np.asarray(n2.value)[i], 0.0)):.3e} "
                f"at u = {np.asarray(u)[i]}; ruling is (numerically) torsal"
            )
        return n2.sqrt()

    def speed_jet(u):
        return speed_from(ebar_jets(u), u)

    def speed(u):
        return speed_jet(u).value

    n = grid
    while True:
        us, t_nodes, coef = _arclength_table(speed_jet, lo, hi, n)
        invert = _hermite_inverse(t_nodes, coef, lo, hi)
        # closure at the segment midpoints: one grid call on their Gauss nodes
        t_mid = 0.5 * (t_nodes[:-1] + t_nodes[1:])
        t_back = t_nodes[:-1] + _segment_integral(speed, us[:-1], invert(t_mid))
        err = np.nan_to_num(np.abs(t_back - t_mid), nan=np.inf)
        worst = int(np.argmax(err))
        if err[worst] <= 1e-13 * max(1.0, t_nodes[-1]):
            break
        if n >= 8 * grid:
            raise IntegrationFailure(
                f"arclength inverse does not close at t = {t_mid[worst]}: "
                f"|t(u(t)) - t| = {err[worst]:.3e} on a {n}-segment table"
            )
        n *= 2
    t_total = float(t_nodes[-1])

    @_LastCall
    def frame(t):
        """Jet of u(t), the inverse arclength map, and the normalized
        director jets at u(t). A point evaluation of the surface asks both
        curves for the same t in turn, so the latest float t is kept."""
        u = invert(t)
        eb = ebar_jets(u)
        tau = speed_from(eb, u)
        t0, t1, t2 = tau.value, tau.d1, tau.d2
        up = 1.0 / t0
        return Jet2(u, up, -t1 / t0**3, (3.0 * t1 * t1 - t0 * t2) / t0**5), eb

    def director_raw(t):
        uj, eb = frame(t)
        return tuple(jets.compose(c, uj) for c in eb)

    def striction_raw(t):
        uj, eb = frame(t)
        c = base.eval(uj.value)
        cp = jets.deriv3(c)
        ebp = jets.deriv3(eb)
        m = jets.dot(cp, ebp) / jets.dot(ebp, ebp)
        s_u = jets.sub3(c, jets.scale(eb, m))
        out = tuple(jets.compose(comp, uj) for comp in s_u)
        return tuple(Jet2(c.value, c.d1, c.d2, 0.0) for c in out)

    director_curve = CurveR3(director_raw, (0.0, t_total), "director")
    striction_curve = CurveR3(striction_raw, (0.0, t_total), "striction")

    # orientation: <e, s'> >= 0 makes sign(lambda) = sign(delta)
    ev, epv, spv = _first_order(
        striction_curve, director_curve, np.linspace(0.0, t_total, 9)[1:-1]
    )
    a_vals = jets.dot(ev, spv)
    if np.min(np.abs(jets.triple(ev, epv, spv))) < tol_skew:
        raise NonSkew("parameter of distribution vanishes after standardization")
    if np.max(np.abs(a_vals)) > 1e-9 and sum(a_vals.tolist()) < 0.0:
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
        if key == "domain":
            continue
        if not isinstance(value, numbers.Real):
            raise ParamOutOfRange(f"{name}: parameter {key} = {value!r} is not a number")
        if not _is_finite(value):
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
    """SurfaceSpec dict for a gallery member (CLI --emit-spec).

    The surface is built first, so the parameters pass every check of
    `gallery` and the spec loads.
    """
    gallery(name, params)
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpecFormatError(f"'domain' must be finite, got [{lo}, {hi}]")
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
