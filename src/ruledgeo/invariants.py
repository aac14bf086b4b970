"""Scalar invariants, fundamental tensors, and curvatures of a standard surface.

All quantities derive from the invariants k (conical curvature),
delta (parameter of distribution), its derivative, and lambda = cot(sigma):

    g = [[v^2 + delta^2 (lambda^2 + 1), delta lambda], [delta lambda, 1]]
    h = (1/w) [[-(k v^2 + delta' v + delta^2 (k - lambda)), delta], [delta, 0]]
    K = -delta^2 / w^4
    H = -(k v^2 + delta' v + delta^2 (k + lambda)) / (2 w^3)

with w = sqrt(v^2 + delta^2).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import InternalConsistencyError, ZeroDirection


@dataclass(frozen=True)
class PointInvariants:
    """Invariant data of a surface at one parameter value u, or at a grid
    of them (then every field is an array)."""

    u: float
    k: float
    delta: float
    delta_d1: float
    lam: float
    sigma: float


@dataclass(frozen=True)
class FundamentalForms:
    g11: float
    g12: float
    g22: float
    h11: float
    h12: float
    h22: float
    w: float


@dataclass(frozen=True)
class CurvaturePair:
    K: float
    H: float
    k1: float
    k2: float


def sigma_from_lam(lam):
    """Striction angle sigma in (-pi/2, pi/2] of lambda = cot(sigma).

    A round-off-sized negative lambda (about -1e-16 or less) gives
    atan(1/lambda) = -pi/2, the end the interval excludes; it is the same
    angle as +pi/2, which is returned instead.
    """
    if lam == 0.0:
        return math.pi / 2.0
    sigma = math.atan(1.0 / lam)
    return math.pi / 2.0 if sigma == -math.pi / 2.0 else sigma


def point_invariants(surf, u):
    """Evaluate (k, delta, delta', lambda, sigma) at u from surface jets.

    `u` is a float, or a 1-d array of u, for which every field is an array.
    """
    s, e = surf.jets(u)
    ep = jets.deriv3(e)
    epp = jets.deriv3(ep)
    sp = jets.deriv3(s)
    k_jet = jets.triple(e, ep, epp)
    delta_jet = jets.triple(e, ep, sp)
    lam_jet = jets.dot(e, sp) / delta_jet
    lam = lam_jet.value
    if isinstance(lam, np.ndarray):
        # math.atan element by element, so a grid matches its points exactly
        u = np.asarray(u, dtype=float)
        sigma = np.array([sigma_from_lam(x) for x in lam.tolist()])
    else:
        u = float(u)
        sigma = sigma_from_lam(lam)
    return PointInvariants(
        u=u,
        k=k_jet.value,
        delta=delta_jet.value,
        delta_d1=delta_jet.d1,
        lam=lam,
        sigma=sigma,
    )


def extract_invariants(surf, u):
    """(k, delta, sigma, lambda) at u.

    k = (e, e', e''), delta = (e, e', s'); sigma in (-pi/2, pi/2] is the
    striction angle with lambda = cot(sigma) = <e, s'> / delta.
    """
    p = point_invariants(surf, u)
    return p.k, p.delta, p.sigma, p.lam


def forms_from_invariants(p, v):
    """Fundamental tensors at striction distance v from point invariants."""
    d2 = p.delta * p.delta
    w2 = v * v + d2
    w = math.sqrt(w2)
    return FundamentalForms(
        g11=v * v + d2 * (p.lam * p.lam + 1.0),
        g12=p.delta * p.lam,
        g22=1.0,
        h11=-(p.k * v * v + p.delta_d1 * v + d2 * (p.k - p.lam)) / w,
        h12=p.delta / w,
        h22=0.0,
        w=w,
    )


def fundamental_forms(surf, u, v):
    """First and second fundamental tensors and w at (u, v)."""
    return forms_from_invariants(point_invariants(surf, u), v)


def curvatures_from_invariants(p, v):
    """K, H, k1 and k2 at striction distance v. The fields of `p` and `v`
    may also be arrays that broadcast together; so are the results."""
    d2 = p.delta * p.delta
    w2 = v * v + d2
    w = jets.sqrt(w2)
    K = -d2 / (w2 * w2)
    H = -(p.k * v * v + p.delta_d1 * v + d2 * (p.k + p.lam)) / (2.0 * w2 * w)
    disc = H * H - K
    if jets.first_true(disc < -1e-12) is not None:
        disc, u, v = (np.ravel(np.broadcast_to(x, np.shape(disc))) for x in (disc, p.u, v))
        i = int(np.argmax(disc < -1e-12))
        raise InternalConsistencyError(
            f"H^2 - K = {disc[i]} < -1e-12 at (u, v) = ({u[i]}, {v[i]})"
        )
    root = jets.sqrt(np.maximum(disc, 0.0))
    return CurvaturePair(K=K, H=H, k1=H - root, k2=H + root)


def gaussian_mean(surf, u, v):
    """Gaussian and mean curvature plus principal curvatures k1 <= k2."""
    return curvatures_from_invariants(point_invariants(surf, u), v)


def g_inner(forms, d1, d2):
    """First-fundamental-form inner product of two (du, dv) directions."""
    return (
        forms.g11 * d1[0] * d2[0]
        + forms.g12 * (d1[0] * d2[1] + d1[1] * d2[0])
        + forms.g22 * d1[1] * d2[1]
    )


def g_normalize(forms, du, dv):
    q = g_inner(forms, (du, dv), (du, dv))
    if q <= 0.0:
        raise ZeroDirection(f"cannot normalize direction ({du}, {dv})")
    inv = 1.0 / math.sqrt(q)
    du, dv = du * inv, dv * inv
    if du < 0.0 or (du == 0.0 and dv < 0.0):
        du, dv = -du, -dv
    return du, dv


def normal_curvature_from_forms(forms, du, dv):
    if du == 0.0 and dv == 0.0:
        raise ZeroDirection("normal curvature needs a nonzero direction")
    num = forms.h11 * du * du + 2.0 * forms.h12 * du * dv  # h22 = 0
    den = forms.g11 * du * du + 2.0 * forms.g12 * du * dv + forms.g22 * dv * dv
    return num / den


def normal_curvature(surf, u, v, du, dv):
    """Normal curvature in direction du : dv (degree-0 homogeneous)."""
    return normal_curvature_from_forms(fundamental_forms(surf, u, v), du, dv)


def principal_directions_from_forms(forms, curv):
    """g-normalized principal directions, ordered to match (k1, k2)."""
    if not curv.k2 - curv.k1 > 1e-15 * (abs(curv.k1) + abs(curv.k2)):
        raise InternalConsistencyError(
            "umbilic point encountered; impossible for K < 0"
        )
    out = []
    for kappa in (curv.k1, curv.k2):
        r1 = (forms.h11 - kappa * forms.g11, forms.h12 - kappa * forms.g12)
        r2 = (forms.h12 - kappa * forms.g12, forms.h22 - kappa * forms.g22)
        row = r1 if math.hypot(*r1) >= math.hypot(*r2) else r2
        out.append(g_normalize(forms, -row[1], row[0]))
    return tuple(out)


def principal_directions(surf, u, v):
    """The two curvature-line directions at (u, v), for k1 and k2 in order."""
    p = point_invariants(surf, u)
    forms = forms_from_invariants(p, v)
    curv = curvatures_from_invariants(p, v)
    return principal_directions_from_forms(forms, curv)
