"""Ruled surfaces in standard striction-line form.

A surface is x(u, v) = s(u) + v e(u) with |e| = |e'| = 1 and <s', e'> = 0,
u the arclength along the spherical director curve. This module builds
such surfaces from expressions, from a canonical gallery (whose closed-form
members are expressions too), from a general (base curve, director) pair
via `standardize`, and from a complete system of invariants (k, delta,
sigma) via moving-frame integration.
"""

import bisect
import json
import math
import numbers
import random
from typing import NamedTuple

import numpy as np

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
TOL_DIRECTOR = 1e-12  # standardize: the least |d(u)| of a director
TOL_TORSAL = 1e-8  # standardize: the least spherical speed |e'(u)|
N_CHECK = 33  # sample points of the gauge and skewness gates

# the most samples an invariant profile may have: the spline's slope system
# is solved by a Python sweep over them (about 0.6 s at this size)
MAX_SAMPLES = 100_000

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


def _curve_error(exc, u):
    """The `CurveEvaluationError` for a jet-level error at u. Its message is
    the error's text: float power's overflow carries (errno, text) as its
    arguments."""
    mapped = next(new for old, new in _CURVE_ERRORS if isinstance(exc, old))
    return mapped(f"{exc.args[-1] if exc.args else exc} at u = {u}")


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
    arrays (or scalars, which `eval` broadcasts to the grid). A closed-form
    curve comes from `from_expressions`; the other raw evaluators are the
    piecewise quintics and the standardized curves.
    """

    def __init__(self, raw_eval, domain, name=""):
        self.raw_eval = raw_eval  # u (float or 1-d array) -> (Jet2, Jet2, Jet2)
        self.domain = lo, hi = (float(domain[0]), float(domain[1]))
        self.name = name
        if not lo < hi:
            raise ValueError(f"empty domain {self.domain}")
        slack = 1e-9 * (1.0 + hi - lo)
        self._lo, self._hi = lo - slack, hi + slack  # the accepted u

    @classmethod
    def from_expressions(cls, sx, sy, sz, domain, name=""):
        """Build from three expression strings, run as one program, so a
        subexpression the components share is computed once. A float u
        and an array of u both run the program's generated straight-line
        code."""
        program = compile_program([parse_expression(s).root for s in (sx, sy, sz)])
        return cls(program.jets, domain, name)

    def _check_domain(self, u):
        inside = (u >= self._lo) & (u <= self._hi)  # false for a NaN u
        i = jets.first_true(~inside if isinstance(inside, np.ndarray) else not inside)
        if i is not None:
            lo, hi = self.domain
            raise OutOfDomain(f"u = {np.asarray(u)[i]} outside [{lo}, {hi}]")

    def eval(self, u):
        """Jets of the three components at u, a float or a 1-d array.

        Jet-level errors (a square root or logarithm outside its domain, a
        zero divisor, an overflow) raise a `CurveEvaluationError` naming the
        offending u; on a grid, the first offending u. A non-finite value,
        d1 or d2 slot raises `IntegrationFailure`.
        """
        if isinstance(u, np.ndarray):
            return self._eval_grid(u)
        u = float(u)
        if not self._lo <= u <= self._hi:  # false for a NaN u too
            self._check_domain(u)
        try:
            out = self.raw_eval(u)
        except CurveEvaluationError:
            raise
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _curve_error(exc, u) from None
        x, y, z = out
        isfinite = math.isfinite
        if not (isfinite(x.value) and isfinite(x.d1) and isfinite(x.d2)
                and isfinite(y.value) and isfinite(y.d1) and isfinite(y.d2)
                and isfinite(z.value) and isfinite(z.d1) and isfinite(z.d2)):
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


def _first_order(e, s):
    """Values of e, e' and s' from the director jets e and striction jets s."""
    return jets.values3(e), tuple(c.d1 for c in e), tuple(c.d1 for c in s)


def _delta_and_slope(e, s):
    """delta = (e, e', s') and delta' = (e, e'', s') + (e, e', s'') from
    the director jets e and the striction jets s."""
    ev, epv, spv = _first_order(e, s)
    eppv, sppv = tuple(c.d2 for c in e), tuple(c.d2 for c in s)
    return jets.triple(ev, epv, spv), jets.triple(ev, eppv, spv) + jets.triple(ev, epv, sppv)


def _residuals(e, s):
    """Worst standard-form residuals over the jets of a sample grid, and
    the signed parameter of distribution at each sample (an array)."""
    ev, epv, spv = _first_order(e, s)
    deltas = jets.triple(ev, epv, spv)
    worst = {
        "unit_e": float(np.max(np.abs(jets.norm(ev) - 1.0), initial=0.0)),
        "unit_ep": float(np.max(np.abs(jets.norm(epv) - 1.0), initial=0.0)),
        "orth": float(np.max(np.abs(jets.dot(spv, epv)), initial=0.0)),
        "min_abs_delta": float(np.min(np.abs(deltas), initial=math.inf)),
    }
    return worst, deltas


def _gauge_residuals(striction, director, us):
    """Worst standard-form residuals over the sample points, and the
    signed parameter of distribution at each of them (an array)."""
    us = np.asarray(us, dtype=float)
    return _residuals(director.eval(us), striction.eval(us))


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


# bisection steps of the between-samples skew check: they shrink a sample
# interval to 2^-64 of itself (adjacent floats where |u| >= 2.5e-4 h), where
# delta differs from its least value by ~ delta'' w^2, far below TOL_SKEW
_SKEW_BISECTIONS = 64


def _skew_between_samples(striction, director, us, e, s, tol):
    """Raise `NonSkew` where |delta| falls to `tol` between two samples
    without changing sign. `e` and `s` are the jets at the samples `us`,
    on which `_skew_gate` has passed.

    The cubic Hermite of (delta, delta') on each sample interval screens
    for a dip below half the smaller end value |delta|. On the flagged
    intervals, all at once, delta' is bisected from the cubic's least point
    towards its zero, and the least |delta| met is kept. Every value
    compared with `tol` is one of the surface, never one of the cubic.
    """
    h = np.diff(us)
    with np.errstate(all="ignore"):
        deltas, slopes = _delta_and_slope(e, s)
        d0, d1 = np.abs(deltas[:-1]), np.abs(deltas[1:])
        # The Hermite basis gives H >= min(d0, d1) - 4/27 (|m0| + |m1|), so
        # no interval dips below half unless this bound allows it.
        reach = h * (np.abs(slopes[:-1]) + np.abs(slopes[1:]))
        if not (reach > 3.375 * np.minimum(d0, d1)).any():
            return
        sign = np.sign(deltas[:-1])
        m0, m1 = sign * h * slopes[:-1], sign * h * slopes[1:]
        # H(t) = d0 + m0 t + b t^2 + c t^3 on [0, 1] dips below both ends
        # only at a root of H' = m0 + 2 b t + 3 c t^2 (c = 0: the last
        # candidate). Every candidate is a point of [0, 1], so a spurious
        # one cannot hide the least.
        b = 3.0 * (d1 - d0) - 2.0 * m0 - m1
        c = 2.0 * (d0 - d1) + m0 + m1
        root = np.sqrt(np.maximum(b * b - 3.0 * c * m0, 0.0))
        t = np.stack([(root - b) / (3.0 * c), -(b + root) / (3.0 * c), -m0 / (2.0 * b)])
        t = np.clip(np.nan_to_num(t, nan=0.0), 0.0, 1.0)
        cubic = ((c * t + b) * t + m0) * t + d0
        ivs = np.flatnonzero(cubic.min(axis=0) < 0.5 * np.minimum(d0, d1))
    if not ivs.size:
        return
    lo, hi, sign = us[ivs], us[ivs + 1], sign[ivs]
    mid = lo + h[ivs] * t[np.argmin(cubic[:, ivs], axis=0), ivs]
    best, best_u = np.full(ivs.size, math.inf), mid
    for _ in range(_SKEW_BISECTIONS):
        with np.errstate(all="ignore"):
            delta, slope = _delta_and_slope(director.eval(mid), striction.eval(mid))
        closer = np.abs(delta) < best
        best, best_u = np.where(closer, np.abs(delta), best), np.where(closer, mid, best_u)
        falling = sign * slope < 0.0
        lo, hi = np.where(falling, mid, lo), np.where(falling, hi, mid)
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            break
    i = jets.first_true(best <= tol)
    if i is not None:
        raise NonSkew(f"parameter of distribution vanishes at u = {float(best_u[i])!r}")


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

    def __init__(self, striction, director, domain=None, label="", check=True):
        self.striction = striction
        self.director = director
        self._jets = _LastCall(lambda u: (striction.eval(u), director.eval(u)))
        self.domain = tuple(float(x) for x in (domain or director.domain))
        self.label = label
        if check:
            us = np.linspace(self.domain[0], self.domain[1], N_CHECK)
            e, s = director.eval(us), striction.eval(us)
            worst, deltas = _residuals(e, s)
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
            _skew_between_samples(striction, director, us, e, s, TOL_SKEW)

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
        expr = parse_expression(p)

        def profile(x):
            """Values at a float or an array, jets at a `Jet2`; a jet-level
            error raised as its `CurveEvaluationError` naming u."""
            u = x.value if isinstance(x, Jet2) else x
            try:
                return expr.eval(x) if u is x else expr.program.jets(u, x.d1, x.d2, x.d3)[0]
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise _curve_error(exc, u) from None

        return profile
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


class _PiecewiseQuintic:
    """Piecewise quintic with `coef` of shape (pieces, components, 6): on
    [knots[i], knots[i+1]) component c is sum_j coef[i, c, j] x^j with
    x = u - knots[i], and the end pieces extend beyond the ends. A float u
    runs on Python floats, a 1-d array of u on numpy. Pieces on the same
    knots may share one `knot_list`, the knots as Python floats."""

    def __init__(self, knots, coef, knot_list=None):
        self.knots, self.coef = knots, coef
        self._knot_list = knots.tolist() if knot_list is None else knot_list
        self._last = len(coef) - 1

    def _piece(self, u):
        """x = u - knots[i] and the rows (component, power) of u's piece i."""
        if isinstance(u, np.ndarray):
            i = np.clip(np.searchsorted(self.knots, u, side="right") - 1, 0, self._last)
            return u - self.knots[i], self.coef[i].transpose(1, 2, 0)
        i = min(max(bisect.bisect_right(self._knot_list, u) - 1, 0), self._last)
        return u - self._knot_list[i], self.coef[i].tolist()

    def value(self, u):
        """The first component at u."""
        x, rows = self._piece(u)
        c0, c1, c2, c3, c4, c5 = rows[0]
        return ((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0

    def jets(self, u):
        """One `Jet2` per component at u: the value and three derivatives."""
        x, rows = self._piece(u)
        return tuple(
            Jet2(
                ((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0,
                (((5.0 * c5 * x + 4.0 * c4) * x + 3.0 * c3) * x + 2.0 * c2) * x + c1,
                ((20.0 * c5 * x + 12.0 * c4) * x + 6.0 * c3) * x + 2.0 * c2,
                (60.0 * c5 * x + 24.0 * c4) * x + 6.0 * c3,
            )
            for c0, c1, c2, c3, c4, c5 in rows
        )


def _not_a_knot_coefficients(x, ys):
    """Coefficients of the not-a-knot cubic splines through (x, y) for each
    row y of `ys`, shape (rows, n - 1, 6): on [x_i, x_i+1] a spline is
    sum_j c_j h^j with h the distance from x_i, c4 = c5 = 0 (the layout of
    `_PiecewiseQuintic`).

    The knot slopes solve the tridiagonal system of scipy's `CubicSpline`,
    row for row, in one Thomas sweep for all rows of `ys`: its matrix
    depends on x only. A zero or non-finite pivot (a spacing of x too
    uneven for the system) or a non-finite coefficient (one that
    overflows) raises `SpecFormatError`.
    """
    n, xs = len(x), x.tolist()
    w0, w1 = xs[2] - xs[0], xs[-1] - xs[-3]
    with np.errstate(all="ignore"):
        dx = np.diff(x)
        slope = np.diff(ys, axis=1) / dx
        rhs = np.empty((n, len(ys)))
        rhs[1:-1] = (3.0 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])).T
        rhs[0] = ((dx[0] + 2.0 * w0) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / w0
        rhs[-1] = (dx[-1] ** 2 * slope[:, -2]
                   + (2.0 * w1 + dx[-1]) * dx[-2] * slope[:, -1]) / w1
        inner = (2.0 * (dx[:-1] + dx[1:])).tolist()
    # Python floats from here on, so the caller's errstate does not apply
    h, rows = dx.tolist(), rhs.tolist()
    diag = [h[1], *inner, h[-2]]
    upper = [w0, *h[:-1]]  # entries (i, i + 1)
    lower = [*h[1:], w1]  # entries (i + 1, i)
    for i in range(n):
        if i:
            f = lower[i - 1] / diag[i - 1]
            diag[i] -= f * upper[i - 1]
            rows[i] = [r - f * p for r, p in zip(rows[i], rows[i - 1])]
        if diag[i] == 0.0 or not math.isfinite(diag[i]):
            raise SpecFormatError("no cubic spline through the samples: the u spacing "
                                  "makes its slope system singular or overflow")
    rows[-1] = [r / diag[-1] for r in rows[-1]]
    for i in range(n - 2, -1, -1):
        rows[i] = [(r - upper[i] * q) / diag[i] for r, q in zip(rows[i], rows[i + 1])]
    s = np.array(rows).T
    with np.errstate(all="ignore"):
        t = (s[:, :-1] + s[:, 1:] - 2.0 * slope) / dx
        coef = np.stack([ys[:, :-1], s[:, :-1], (slope - s[:, :-1]) / dx - t, t / dx,
                         *np.zeros((2, *t.shape))], axis=-1)
    if not np.isfinite(coef).all():
        raise SpecFormatError("no cubic spline through the samples: its coefficients overflow")
    return coef


def _spline_profile(spline):
    """Profile of a one-component `_PiecewiseQuintic`: a float gives a float
    (so cot(sigma) divides by zero as math does), an array an array, and a
    jet the spline's jet composed with it."""

    def fn(x):
        if isinstance(x, Jet2):
            f = spline.jets(x.value)[0]
            return x._compose(f.value, f.d1, f.d2, f.d3)
        return spline.value(x)

    return fn


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
        """Not-a-knot cubic-spline profiles through sampled arrays: finite,
        of equal length from 4 to `MAX_SAMPLES`, u strictly increasing.
        Beyond the end samples the end cubics extrapolate."""
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
        if len(u) > MAX_SAMPLES:
            raise SpecFormatError(f"at most {MAX_SAMPLES} samples, got {len(u)}")
        if not np.all(u[1:] > u[:-1]):
            raise SpecFormatError("u samples must be strictly increasing")
        coef = _not_a_knot_coefficients(u, np.array(list(arrays.values())))
        knot_list = u.tolist()
        k_fn, d_fn, sig_fn = (
            _spline_profile(_PiecewiseQuintic(u, c[:, None], knot_list)) for c in coef
        )
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
    coef = _quintic_hermite(dense, dense_p, dense_pp, float(g.u[1] - g.u[0]))
    knot_list = g.u.tolist()  # one copy for both curves
    e_jets = _PiecewiseQuintic(g.u, coef[:, 0:3], knot_list).jets
    s_jets = _PiecewiseQuintic(g.u, coef[:, 3:6], knot_list).jets
    director = CurveR3(e_jets, (lo, hi), "director")
    striction = CurveR3(s_jets, (lo, hi), "striction")
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
    """Arclength table of a director whose spherical speed tau and its
    derivative tau' at u are `speed_jet(u)`.

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
    seg = _segment_integral(lambda u: speed_jet(u)[0], us[:-1], us[1:])
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
    tau, dtau = speed_jet(us)
    up = 1.0 / tau
    coef = _quintic_hermite(us, up, -dtau * up**3, h)
    return us, t_nodes, coef


def _hermite_inverse(t_nodes, coef, lo, hi):
    """u(t) from an arclength table, for a float t or a 1-d array of them:
    the segment quintics, with t clamped to [0, t_total] and u to [lo, hi]."""
    t_total = float(t_nodes[-1])
    inverse = _PiecewiseQuintic(t_nodes, coef[:, None])

    def invert(t):
        if isinstance(t, np.ndarray):
            return np.clip(inverse.value(np.clip(t, 0.0, t_total)), lo, hi)
        return min(max(inverse.value(min(max(t, 0.0), t_total)), lo), hi)

    return invert


def standardize(base, director, grid=1024):
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
    Every helper below takes a float u or a 1-d array of them and works on
    jet slots, not `Jet2` objects. Each slot is computed by the operations
    of the `Jet2` rules in their order (the product rule of `jets.dot` and
    `jets.scale`, summed as `jets.dot` sums, the chain rule of `sqrt` and
    of the composition with u(t), the quotient rule, 1/r included), so it
    is the jet expression's number bit for bit (Griewank and Walther,
    "Evaluating Derivatives", 2008, ch. 13). Slots that feed no output are
    not computed.
    """
    if base.domain != director.domain:
        raise ValueError("base and director must share a domain")
    lo, hi = director.domain

    def unit_director(u, full):
        """Slots of e = d / |d| at u, the normalized director, of
        g = <e', e'> and of the spherical speed tau = sqrt(g): e as three
        component lists [value, d1, d2], g as [value, d1] and tau as
        [tau, tau']. `full` adds the d3 slot of e and the d2 slots of g
        and tau."""
        sqrt = np.sqrt if isinstance(u, np.ndarray) else math.sqrt
        d = [[c.value, c.d1, c.d2, c.d3] for c in director.eval(u)]
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = d
        # n = <d, d>
        n0 = a0 * a0 + b0 * b0 + c0 * c0
        i = jets.first_true(n0 < TOL_DIRECTOR**2)
        if i is not None:
            raise DegenerateDirector(f"|d(u)| ~ 0 at u = {np.asarray(u)[i]}")
        n1 = (a1 * a0 + a0 * a1) + (b1 * b0 + b0 * b1) + (c1 * c0 + c0 * c1)
        n2 = ((a2 * a0 + 2.0 * a1 * a1 + a0 * a2) + (b2 * b0 + 2.0 * b1 * b1 + b0 * b2)
              + (c2 * c0 + 2.0 * c1 * c1 + c0 * c2))
        # r = sqrt(n), then w = 1 / r
        r0 = sqrt(n0)
        f1 = 0.5 / r0
        f2 = -0.5 * f1 / n0
        r1 = f1 * n1
        r2 = f2 * n1 * n1 + f1 * n2
        w0 = 1.0 / r0
        w1 = (0.0 - w0 * r1) / r0
        w2 = (0.0 - w0 * r2 - 2.0 * w1 * r1) / r0
        if full:
            n3 = ((a3 * a0 + 3.0 * a2 * a1 + 3.0 * a1 * a2 + a0 * a3)
                  + (b3 * b0 + 3.0 * b2 * b1 + 3.0 * b1 * b2 + b0 * b3)
                  + (c3 * c0 + 3.0 * c2 * c1 + 3.0 * c1 * c2 + c0 * c3))
            f3 = 0.75 * f1 / jets.power(n0, 2)
            r3 = f3 * n1 * n1 * n1 + 3.0 * f2 * n1 * n2 + f1 * n3
            w3 = (0.0 - w0 * r3 - 3.0 * w1 * r2 - 3.0 * w2 * r1) / r0
            e = [[p0 * w0, p1 * w0 + p0 * w1, p2 * w0 + 2.0 * p1 * w1 + p0 * w2,
                  p3 * w0 + 3.0 * p2 * w1 + 3.0 * p1 * w2 + p0 * w3]
                 for p0, p1, p2, p3 in d]
        else:
            e = [[p0 * w0, p1 * w0 + p0 * w1, p2 * w0 + 2.0 * p1 * w1 + p0 * w2]
                 for p0, p1, p2, _ in d]
        x, y, z = e
        # g = <e', e'>
        g0 = x[1] * x[1] + y[1] * y[1] + z[1] * z[1]
        i = jets.first_true(g0 < TOL_TORSAL * TOL_TORSAL)
        if i is not None:
            raise TorsalRuling(
                f"|e'(u)| ~ {math.sqrt(max(np.asarray(g0)[i], 0.0)):.3e} "
                f"at u = {np.asarray(u)[i]}; ruling is (numerically) torsal"
            )
        g1 = ((x[2] * x[1] + x[1] * x[2]) + (y[2] * y[1] + y[1] * y[2])
              + (z[2] * z[1] + z[1] * z[2]))
        # tau = sqrt(g)
        t0 = sqrt(g0)
        h1 = 0.5 / t0
        if not full:
            return e, [g0, g1], [t0, h1 * g1]
        g2 = ((x[3] * x[1] + 2.0 * x[2] * x[2] + x[1] * x[3])
              + (y[3] * y[1] + 2.0 * y[2] * y[2] + y[1] * y[3])
              + (z[3] * z[1] + 2.0 * z[2] * z[2] + z[1] * z[3]))
        h2 = -0.5 * h1 / g0
        return e, [g0, g1, g2], [t0, h1 * g1, h2 * g1 * g1 + h1 * g2]

    def speed_jet(u):
        return unit_director(u, False)[2]

    def speed(u):
        return speed_jet(u)[0]

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
        """Slots of u(t), the inverse arclength map (value and three
        derivatives), then those of e and g at u(t), as `unit_director`
        gives them. A point evaluation of the surface asks both curves for
        the same t in turn, so the latest float t is kept."""
        u = invert(t)
        e, g, (t0, t1, t2) = unit_director(u, True)
        up = 1.0 / t0
        return (u, up, -t1 / jets.power(t0, 3),
                (3.0 * t1 * t1 - t0 * t2) / jets.power(t0, 5)), e, g

    def director_raw(t):
        (_, x1, x2, x3), e, _ = frame(t)
        return tuple([Jet2(c0, c1 * x1, c2 * x1 * x1 + c1 * x2,
                           c3 * x1 * x1 * x1 + 3.0 * c2 * x1 * x2 + c1 * x3)
                      for c0, c1, c2, c3 in e])

    def striction_raw(t):
        (u, x1, x2, _), e, (g0, g1, g2) = frame(t)
        c = [[j.value, j.d1, j.d2, j.d3] for j in base.eval(u)]
        # m = <c', e'> / g, to order 2
        (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = [
            (c1 * e1, c2 * e1 + c1 * e2, c3 * e1 + 2.0 * c2 * e2 + c1 * e3)
            for (_, c1, c2, c3), (_, e1, e2, e3) in zip(c, e)]
        m0 = (p0 + q0 + r0) / g0
        m1 = ((p1 + q1 + r1) - m0 * g1) / g0
        m2 = ((p2 + q2 + r2) - m0 * g2 - 2.0 * m1 * g1) / g0
        out = []
        for (c0, c1, c2, _), (e0, e1, e2, _) in zip(c, e):
            # s = c - e m, composed with u(t)
            s1 = c1 - (e1 * m0 + e0 * m1)
            s2 = c2 - (e2 * m0 + 2.0 * e1 * m1 + e0 * m2)
            out.append(Jet2(c0 - e0 * m0, s1 * x1, s2 * x1 * x1 + s1 * x2, 0.0))
        return tuple(out)

    director_curve = CurveR3(director_raw, (0.0, t_total), "director")
    striction_curve = CurveR3(striction_raw, (0.0, t_total), "striction")

    # orientation: <e, s'> >= 0 makes sign(lambda) = sign(delta)
    ts = np.linspace(0.0, t_total, 9)[1:-1]
    ev, epv, spv = _first_order(director_curve.eval(ts), striction_curve.eval(ts))
    a_vals = jets.dot(ev, spv)
    if np.min(np.abs(jets.triple(ev, epv, spv))) < TOL_SKEW:
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


def _closed_form(name, comps, domain, **params):
    """Gallery surface `name` of six component expressions, the striction
    line then the director, whose {key} fields are the parameters. Each
    enters the text as repr(float(x)) in parentheses: it round-trips
    exactly (repr(x) can read `np.float64(1.5)` or `True`), and a negative
    one stays one factor. A constant-zero component is 0*u, not 0, so on
    a negative domain its value slot is -0.0."""
    text = {key: f"({float(x)!r})" for key, x in params.items()}
    label = f"{name}({', '.join(f'{key}={x:g}' for key, x in params.items())})"
    return _expression_surface([c.format(**text) for c in comps], domain, label=label)


def _right_helicoid(c=1.0, domain=DEFAULT_DOMAIN):
    # (k, delta, lambda) = (0, c, 0)
    _req(c != 0.0, "right_helicoid: need c != 0")
    return _closed_form("right_helicoid", (
        "0*u", "0*u", "{c}*u", "cos(u)", "sin(u)", "0*u",
    ), domain, c=c)


def _hyperboloid_edlinger(c=1.0, domain=DEFAULT_DOMAIN):
    # Rotational hyperboloid with gorge circle radius c:
    # (k, delta, lambda) = (1, -c, -1), so delta' = 0 and k lambda + 1 = 0.
    _req(c > 0.0, "hyperboloid_edlinger: need c > 0")
    return _closed_form("hyperboloid_edlinger", (
        "{c}*sin(sqrt(2)*u)", "-{c}*cos(sqrt(2)*u)", "0*u",
        "sqrt(2)/2*cos(sqrt(2)*u)", "sqrt(2)/2*sin(sqrt(2)*u)", "0*u + sqrt(2)/2",
    ), domain, c=c)


def _orthoid_const_delta(r=0.6, delta=1.0, domain=DEFAULT_DOMAIN):
    # (k, delta, lambda) = (sqrt(1-r^2)/r, delta, 0): rulings orthogonal to
    # the striction line, delta' = 0.
    _req(0.0 < r < 1.0, "orthoid_const_delta: need r in (0, 1)")
    _req(delta != 0.0, "orthoid_const_delta: need delta != 0")
    return _closed_form("orthoid_const_delta", (
        "-{delta}*sqrt(1 - {r}*{r})*{r}*sin(1/{r}*u)",
        "{delta}*sqrt(1 - {r}*{r})*{r}*cos(1/{r}*u)",
        "{delta}*{r}*u",
        "{r}*cos(1/{r}*u)", "{r}*sin(1/{r}*u)", "0*u + sqrt(1 - {r}*{r})",
    ), domain, r=r, delta=delta)


def _conoidal_const_delta(alpha=2.0, beta=1.0, domain=DEFAULT_DOMAIN):
    # s' = alpha e + beta (e x e'): (k, delta, lambda) = (0, beta, alpha/beta),
    # rulings parallel to the plane z = 0.
    _req(alpha > 0.0, "conoidal_const_delta: need alpha > 0 (sign convention)")
    _req(beta != 0.0, "conoidal_const_delta: need beta != 0")
    return _closed_form("conoidal_const_delta", (
        "{alpha}*sin(u)", "-{alpha}*cos(u)", "{beta}*u", "cos(u)", "sin(u)", "0*u",
    ), domain, alpha=alpha, beta=beta)


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
        k=f"{a0!r} + {a1!r}*sin(u + {p1!r})",
        delta=f"{d0!r}*(1 + 0.15*sin(u + {p3!r}))",
        lam=f"{l0!r} + {l1!r}*sin(u + {p2!r})",
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
    generic_skew(seed). All accept `domain=(lo, hi)`. The first four are
    expression curves (`_closed_form`), generic_skew is integrated from
    expression profiles.
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
        return _expression_surface(comps, domain, standardize_input)
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


def _expression_surface(comps, domain, standardize_input=False, label=""):
    """Surface of six component expressions: the striction line and unit
    director, or with `standardize_input` a base curve and director to
    standardize."""
    c = CurveR3.from_expressions(*comps[0:3], domain=domain)
    d = CurveR3.from_expressions(*comps[3:6], domain=domain)
    if standardize_input:
        return standardize(c, d)
    return StandardRuledSurface(c, d, domain, label=label)


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
