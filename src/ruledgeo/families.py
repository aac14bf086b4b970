"""Distinguished curve families: direction fields, normal curvature, tracing.

Families (direction relations in du : dv):

    S1  curves of constant striction distance, v = const
    S2  orthogonal trajectories of S1:  [v^2 + delta^2 (lambda^2+1)] du + delta lambda dv = 0
    S3  orthogonal trajectories of the rulings:  delta lambda du + dv = 0
    S4  curves of constant Gaussian curvature:  delta' (delta^2 - v^2) du + 2 delta v dv = 0
    LC1 / LC2  the two curvature-line branches (k1 and k2)

The normal curvature along each family is implemented in closed form,
independently of the generic direction/forms route, so the two can be
cross-checked against each other.
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import jets
from .errors import DegenerateField, InvalidArgument, OutOfDomain
from .invariants import (
    PointInvariants,
    curvatures_from_invariants,
    forms_from_invariants,
    g_normalize,
    point_invariants,
    principal_directions_from_forms,
)


class CurveFamily(Enum):
    CURVATURE_1 = "lc1"  # curvature lines, k1 branch
    CURVATURE_2 = "lc2"  # curvature lines, k2 branch
    CONST_STRICTION = "s1"
    ORTH_CONST_STRICTION = "s2"
    ORTH_RULINGS = "s3"
    CONST_GAUSS = "s4"

    @property
    def tag(self):
        return self.value


def _pow(x, n):
    """x**n, on an array element by element with Python's float power:
    numpy's power can differ from it by an ulp, and a grid must give the
    same numbers as its points."""
    if isinstance(x, np.ndarray):
        return np.array([y**n for y in x.ravel().tolist()]).reshape(x.shape)
    return x**n


def _s4_degenerate(p, v):
    # relation is identically 0 = 0 exactly when delta' = 0 and v = 0
    scale = _pow(1.0 + abs(p.delta) + abs(v), 2)
    return (abs(2.0 * p.delta * v) <= 1e-12 * scale) & (
        abs(p.delta_d1 * (p.delta * p.delta - v * v)) <= 1e-12 * scale
    )


def _raw_direction(family, p, v):
    """Unnormalized (du, dv) from the family's linear relation."""
    if family is CurveFamily.CONST_STRICTION:
        return (1.0, 0.0)
    if family is CurveFamily.ORTH_CONST_STRICTION:
        g11 = v * v + p.delta * p.delta * (p.lam * p.lam + 1.0)
        return (p.delta * p.lam, -g11)
    if family is CurveFamily.ORTH_RULINGS:
        return (1.0, -p.delta * p.lam)
    if family is CurveFamily.CONST_GAUSS:
        if _s4_degenerate(p, v):
            raise DegenerateField(
                f"constant-K field is 0 = 0 at (u, v) = ({p.u}, {v}) "
                "(delta' = 0 and v = 0)"
            )
        return (2.0 * p.delta * v, -p.delta_d1 * (p.delta * p.delta - v * v))
    raise ValueError(f"no linear relation for {family}")


def direction_field(family, surf, u, v):
    """Unit-g-norm direction of the family at (u, v), canonically oriented."""
    p = point_invariants(surf, u)
    forms = forms_from_invariants(p, v)
    if family in (CurveFamily.CURVATURE_1, CurveFamily.CURVATURE_2):
        curv = curvatures_from_invariants(p, v)
        d1, d2 = principal_directions_from_forms(forms, curv)
        return d1 if family is CurveFamily.CURVATURE_1 else d2
    return g_normalize(forms, *_raw_direction(family, p, v))


def normal_curvature_from_invariants(family, p, v):
    """Closed-form normal curvature along the family at striction distance v."""
    if family is CurveFamily.CONST_GAUSS and _s4_degenerate(p, v):
        raise DegenerateField(f"constant-K field is 0 = 0 at (u, v) = ({p.u}, {v})")
    return _closed_form(family, p, v)


def normal_curvature_grid(family, p, v):
    """k_N along the family on a (u, v) grid, and where it is meaningless.

    `p` holds the invariants at the grid's u values as arrays (rows), `v`
    the striction distances (columns). Returns the (u, v) array of k_N and
    the mask of the points where the family's relation is 0 = 0 (S4 only).
    """
    cols = PointInvariants(*(np.asarray(getattr(p, f.name))[:, None] for f in fields(p)))
    v = np.asarray(v, dtype=float)
    shape = (len(cols.u), len(v))
    if family is CurveFamily.CONST_GAUSS:
        degenerate = _s4_degenerate(cols, v)
    else:
        degenerate = np.zeros(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        kn = _closed_form(family, cols, v)
    return np.broadcast_to(kn, shape), degenerate


def _closed_form(family, p, v):
    """The closed forms; the fields of `p` and `v` may be arrays that
    broadcast together."""
    k, d, dd, lam = p.k, p.delta, p.delta_d1, p.lam
    d2 = d * d
    w2 = v * v + d2
    w = jets.sqrt(w2)
    g11 = v * v + d2 * (lam * lam + 1.0)
    if family is CurveFamily.CONST_STRICTION:
        return (-k * v * v - dd * v - d2 * (k - lam)) / (w * g11)
    if family is CurveFamily.ORTH_CONST_STRICTION:
        bracket = (k * lam + 2.0) * v * v + dd * lam * v + d2 * (
            lam * lam + k * lam + 2.0
        )
        return -d2 * lam * bracket / (w2 * w * g11)
    if family is CurveFamily.ORTH_RULINGS:
        return -(k * v * v + dd * v + d2 * (k + lam)) / (w2 * w)
    if family is CurveFamily.CONST_GAUSS:
        v3, v4 = _pow(v, 3), _pow(v, 4)
        a = (
            (4.0 * d2 + dd * dd) * v4
            + 4.0 * d2 * dd * lam * v3
            + 2.0 * d2 * (2.0 * d2 * (lam * lam + 1.0) - dd * dd) * v * v
            - 4.0 * d2 * d2 * dd * lam * v
            + d2 * d2 * dd * dd
        )
        num = 4.0 * d2 * v * (k * v3 + d2 * (k - lam) * v + d2 * dd)
        return -num / (w * a)
    curv = curvatures_from_invariants(p, v)
    return curv.k1 if family is CurveFamily.CURVATURE_1 else curv.k2


def normal_curvature_along(family, surf, u, v):
    """Normal curvature along the family's direction at (u, v), closed form."""
    return normal_curvature_from_invariants(family, point_invariants(surf, u), v)


@dataclass
class TracedCurve:
    """Integral curve of a family's direction field with embedded points.

    `points` rows are (u, v, x, y, z) with (x, y, z) = s(u) + v e(u);
    `arclength` is the g-length actually traced. `stop_reason` is one of
    'completed', 'domain_exit', 'degenerate_field', with the step index in
    `stop_step` when the trace ended early.
    """

    family: CurveFamily
    points: np.ndarray
    arclength: float
    stop_reason: str
    stop_step: int | None = None

    def to_csv(self, target):
        lines = ["u,v,x,y,z"]
        for row in self.points:
            lines.append(",".join(f"{x:.12g}" for x in row))
        _write_text(target, "\n".join(lines) + "\n")

    def to_obj(self, target):
        """Wavefront OBJ polyline: one `v` record per point, one `l` record."""
        lines = [f"v {row[2]:.12g} {row[3]:.12g} {row[4]:.12g}" for row in self.points]
        lines.append("l " + " ".join(str(i + 1) for i in range(len(self.points))))
        _write_text(target, "\n".join(lines) + "\n")


def _write_text(target, text):
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _aligned(direction, ref):
    if direction[0] * ref[0] + direction[1] * ref[1] < 0.0:
        return (-direction[0], -direction[1])
    return direction


def trace_curve(family, surf, u0, v0, steps, step_size):
    """Fixed-step RK4 integration of the family's unit direction field.

    Step size is geometric arclength (the field is g-normalized). Each
    step evaluates the field 4 times: at its two midpoints, at its end,
    and at the new point, where the value orients the next step and is
    that step's first stage. The trace stops early at the domain boundary
    or at a field degeneracy, recording the stop reason; a degenerate
    starting point raises, and so do a non-finite v0 or step size.
    """
    lo, hi = surf.domain
    if not lo <= u0 <= hi:
        raise OutOfDomain(f"u0 = {u0} outside [{lo}, {hi}]")
    if not (math.isfinite(v0) and math.isfinite(step_size)):
        raise InvalidArgument(
            f"trace needs a finite v0 and step size, got v0 = {v0}, "
            f"step size = {step_size}"
        )
    ref = direction_field(family, surf, u0, v0)  # raises if degenerate at start

    u, v = float(u0), float(v0)
    h = float(step_size)
    rows = [(u, v, *surf.point(u, v))]
    arclength = 0.0
    stop_reason, stop_step = "completed", None

    for i in range(int(steps)):
        f1 = ref  # the field at (u, v), already aligned
        try:
            f2 = _aligned(
                direction_field(family, surf, u + 0.5 * h * f1[0], v + 0.5 * h * f1[1]),
                ref,
            )
            f3 = _aligned(
                direction_field(family, surf, u + 0.5 * h * f2[0], v + 0.5 * h * f2[1]),
                ref,
            )
            f4 = _aligned(
                direction_field(family, surf, u + h * f3[0], v + h * f3[1]), ref
            )
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
        arclength += h
        rows.append((u, v, *surf.point(u, v)))
        try:
            ref = _aligned(direction_field(family, surf, u, v), ref)
        except DegenerateField:
            stop_reason, stop_step = "degenerate_field", i + 1
            break

    return TracedCurve(
        family=family,
        points=np.array(rows),
        arclength=arclength,
        stop_reason=stop_reason,
        stop_step=stop_step,
    )
