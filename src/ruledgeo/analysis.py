"""Power-law detection k_N = f(u) w^n, surface classification, verification.

The verification harness replays the summary table of results: for each
(family, f, n, surface type) row it fits the power law on the matching
gallery surface and checks the recovered exponent and coefficient, and it
confirms that generic and near-miss surfaces produce no fit at all.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import EmptyGrid, InvalidArgument
from .families import CurveFamily, normal_curvature_grid
from .invariants import curvatures_from_invariants, point_invariants
from .surface import InvariantTriple, gallery, surface_from_invariants

TOL_FIT = 1e-6
TOL_CLASS = 1e-8
N_RANGE = (-5, 2)

# size bounds, checked before anything is allocated: points of a uniform u
# grid, and integers in a searched exponent range
MAX_GRID = 100_000
MAX_EXPONENTS = 64

# flags naming surface classes from the table (as opposed to the bare
# constant-delta condition, which generic surfaces may genuinely satisfy)
CLASS_FLAGS = (
    "right_helicoid",
    "edlinger",
    "orthoid",
    "conoidal",
    "orthoid_const_delta",
    "conoidal_const_delta",
)


@dataclass
class PowerLawFit:
    """Accepted power law k_N = f(u) w^n (or the f == 0 degenerate case)."""

    n: int | None
    f_samples: np.ndarray  # rows (u, f(u)); zeros when is_zero
    residual: float
    is_zero: bool = False
    ambiguous: bool = False
    candidates: dict = field(default_factory=dict)


@dataclass
class NoFit:
    """No exponent in range fits within tolerance."""

    best_n: int | None
    best_residual: float
    candidates: dict = field(default_factory=dict)


def uniform_u_grid(surf, n=33):
    """n evenly spaced u over the surface's domain; `EmptyGrid` for n < 0
    and `InvalidArgument` for n > MAX_GRID."""
    if n < 0:
        raise EmptyGrid(f"a grid needs a number of points >= 0, got {n}")
    if n > MAX_GRID:
        raise InvalidArgument(f"a grid holds at most {MAX_GRID} points, got {n}")
    return np.linspace(surf.domain[0], surf.domain[1], n)


def _row_stats(stat, blocks):
    """`stat` (np.max, np.mean or np.std) of every row of a list of 2-d
    blocks, as Python floats in row order."""
    return [x for block in blocks for x in stat(block, axis=1).tolist()]


def fit_power_law(
    surf,
    family,
    u_grid=None,
    v_grid=None,
    n_range=N_RANGE,
    tol_fit=TOL_FIT,
    tol_abs=None,
    min_points=5,
):
    """Search integer exponents for k_N = f(u) w^n along the family.

    Degenerate grid points are dropped; the f == 0 case is detected first
    (n is meaningless there). Among qualifying exponents the smallest
    residual wins and multiplicity is flagged as ambiguous.
    """
    lo_n, hi_n = (int(n) for n in n_range)
    if lo_n > hi_n:
        raise InvalidArgument(f"exponent range [{lo_n}, {hi_n}] holds no integer")
    if hi_n - lo_n >= MAX_EXPONENTS:
        raise InvalidArgument(
            f"exponent range [{lo_n}, {hi_n}] holds more than {MAX_EXPONENTS} integers"
        )
    u_grid = uniform_u_grid(surf) if u_grid is None else np.asarray(u_grid, float)
    if u_grid.size == 0:
        raise EmptyGrid("empty u grid")
    p = point_invariants(surf, u_grid)
    delta_bar = float(np.mean(np.abs(p.delta)))
    if v_grid is None:
        v_grid = np.linspace(-3.0 * delta_bar, 3.0 * delta_bar, 21)
    v_grid = np.asarray(v_grid, float)
    if v_grid.size == 0:
        raise EmptyGrid("empty v grid")
    if tol_abs is None:
        tol_abs = 1e-9 / delta_bar

    kn, degenerate = normal_curvature_grid(family, p, v_grid)
    w = np.sqrt(v_grid * v_grid + (p.delta * p.delta)[:, None])
    us = p.u.tolist()
    counts = np.count_nonzero(~degenerate, axis=1)
    i = jets.first_true(counts < min_points)
    if i is not None:
        raise EmptyGrid(f"only {counts[i]} non-degenerate v points at u = {us[i]}")
    # (k_N, w) blocks of rows: the whole C-contiguous grid when no point is
    # degenerate, else one block per row holding its kept points. Either
    # way the statistics of a row are those of its own 1-d array.
    if degenerate.any():
        blocks = [
            (kn_row[keep][None, :], w_row[keep][None, :])
            for kn_row, w_row, keep in zip(kn, w, ~degenerate)
        ]
    else:
        blocks = [(np.ascontiguousarray(kn), np.ascontiguousarray(w))]

    max_abs = max(_row_stats(np.max, [np.abs(kns) for kns, _ in blocks]))
    if max_abs < tol_abs:
        samples = np.array([(u, 0.0) for u in us])
        return PowerLawFit(
            n=None, f_samples=samples, residual=max_abs, is_zero=True
        )

    # one exponent at a time: stacking the exponents as well moves some
    # candidates by an ulp
    candidates = {}
    for n in range(lo_n, hi_n + 1):
        r = [kns * ws ** float(-n) for kns, ws in blocks]
        worst = 0.0
        for sd, mean in zip(_row_stats(np.std, r), _row_stats(np.mean, r)):
            worst = max(worst, sd / max(tol_abs, abs(mean)))
        candidates[n] = worst

    qualifying = [n for n, res in candidates.items() if res <= tol_fit]
    if not qualifying:
        best_n = min(candidates, key=candidates.get)
        return NoFit(
            best_n=best_n, best_residual=candidates[best_n], candidates=candidates
        )
    best = min(qualifying, key=candidates.get)
    f_values = _row_stats(np.mean, [kns * ws ** float(-best) for kns, ws in blocks])
    samples = np.array(list(zip(us, f_values)))
    return PowerLawFit(
        n=best,
        f_samples=samples,
        residual=candidates[best],
        ambiguous=len(qualifying) > 1,
        candidates=candidates,
    )


# classification ----------------------------------------------------------------


@dataclass
class ClassificationReport:
    """Boolean class flags with the invariant residuals that produced them."""

    flags: dict
    residuals: dict
    tol_class: float
    n_grid: int

    def to_json_dict(self):
        return {
            "flags": dict(self.flags),
            "residuals": dict(self.residuals),
            "tol_class": self.tol_class,
            "n_grid": self.n_grid,
        }

    def to_text(self):
        lines = ["flag                   set    residual"]
        detail = {
            "orthoid": "lam",
            "conoidal": "k",
            "const_delta": "delta_prime",
            "edlinger": "k_lam_plus_1",
        }
        for name, value in self.flags.items():
            res = self.residuals.get(detail.get(name, ""), None)
            tail = f"{res:.3e}" if res is not None else "-"
            lines.append(f"{name:<22} {str(value):<6} {tail}")
        lines.append(f"tolerance {self.tol_class:g} on {self.n_grid} points")
        return "\n".join(lines)


def classify(surf, u_grid=None, tol_class=TOL_CLASS, n_grid=256):
    """Flag the named surface classes from invariant residuals on a u grid."""
    u_grid = uniform_u_grid(surf, n_grid) if u_grid is None else np.asarray(u_grid, float)
    if u_grid.size == 0:
        raise EmptyGrid("empty u grid")
    pts = [point_invariants(surf, u) for u in u_grid]
    residuals = {
        "lam": max(abs(p.lam) for p in pts),
        "k": max(abs(p.k) for p in pts),
        "delta_prime": max(abs(p.delta_d1) for p in pts),
        "k_lam_plus_1": max(abs(p.k * p.lam + 1.0) for p in pts),
    }
    orthoid = residuals["lam"] < tol_class
    conoidal = residuals["k"] < tol_class
    const_delta = residuals["delta_prime"] < tol_class
    flags = {
        "right_helicoid": orthoid and conoidal and const_delta,
        "edlinger": const_delta and residuals["k_lam_plus_1"] < tol_class,
        "orthoid": orthoid,
        "conoidal": conoidal,
        "const_delta": const_delta,
        "orthoid_const_delta": orthoid and const_delta,
        "conoidal_const_delta": conoidal and const_delta,
    }
    return ClassificationReport(
        flags=flags, residuals=residuals, tol_class=tol_class, n_grid=len(u_grid)
    )


# verification harness -----------------------------------------------------------


@dataclass
class TableRow:
    prop: str
    family: CurveFamily
    f_label: str
    n: int | None  # None encodes the f == 0 rows (the table prints '-')
    surface_type: str
    surfaces: tuple
    f_expected: object = None  # callable(PointInvariants) -> f, on floats or arrays
    sign_free: bool = False


def _table_rows():
    k1_branch = CurveFamily.CURVATURE_1
    k2_branch = CurveFamily.CURVATURE_2
    s1, s2 = CurveFamily.CONST_STRICTION, CurveFamily.ORTH_CONST_STRICTION
    s3, s4 = CurveFamily.ORTH_RULINGS, CurveFamily.CONST_GAUSS
    neg_k = lambda p: -p.k
    d2_over_k = lambda p: p.delta * p.delta / p.k
    return [
        TableRow("1", k1_branch, "-k", -1, "Edlinger surface",
                 ("hyperboloid_edlinger",), neg_k),
        TableRow("1", k2_branch, "+/-delta", -2, "right helicoid",
                 ("right_helicoid",), lambda p: p.delta, sign_free=True),
        TableRow("1", k2_branch, "delta^2/k", -3, "Edlinger surface",
                 ("hyperboloid_edlinger",), d2_over_k),
        TableRow("2", s1, "0", None, "right helicoid", ("right_helicoid",)),
        TableRow("2", s1, "-k", -1, "orthoid, const. delta / Edlinger",
                 ("orthoid_const_delta", "hyperboloid_edlinger"), neg_k),
        TableRow("3", s2, "0", None, "orthoid surface", ("orthoid_const_delta",)),
        TableRow("3", s2, "delta^2/k", -3, "Edlinger surface",
                 ("hyperboloid_edlinger",), d2_over_k),
        TableRow("4", s3, "0", None, "right helicoid", ("right_helicoid",)),
        TableRow("4", s3, "-k", -1, "orthoid, const. delta",
                 ("orthoid_const_delta",), neg_k),
        TableRow("4", s3, "-delta^2*lambda", -3, "conoidal, const. delta",
                 ("conoidal_const_delta",),
                 lambda p: -p.delta * p.delta * p.lam),
        TableRow("5", s4, "0", None, "right helicoid", ("right_helicoid",)),
        TableRow("5", s4, "-k", -1, "orthoid, const. delta / Edlinger",
                 ("orthoid_const_delta", "hyperboloid_edlinger"), neg_k),
    ]


_VERIFY_GALLERY_PARAMS = {
    "right_helicoid": {"c": 1.0},
    "hyperboloid_edlinger": {"c": 1.0},
    "orthoid_const_delta": {"r": 0.6, "delta": 1.0},
    "conoidal_const_delta": {"alpha": 2.0, "beta": 1.0},
}


def _verify_surfaces():
    return {
        name: gallery(name, params)
        for name, params in _VERIFY_GALLERY_PARAMS.items()
    }


@dataclass
class RowResult:
    row: TableRow
    passed: bool
    per_surface: list  # dicts: surface, passed, n_found, fit_residual, f_residual

    def to_text(self):
        n = "-" if self.row.n is None else self.row.n
        return (f"prop {self.row.prop} {self.row.family.tag} f={self.row.f_label} "
                f"n={n}: {'pass' if self.passed else 'FAIL'}")

    def to_json_dict(self):
        return {
            "proposition": self.row.prop,
            "family": self.row.family.tag,
            "f": self.row.f_label,
            "n": self.row.n,
            "surface_type": self.row.surface_type,
            "passed": self.passed,
            "surfaces": self.per_surface,
        }


def _check_row(row, surfaces, tol_f=1e-6, **fit_kwargs):
    per_surface = []
    for name in row.surfaces:
        surf = surfaces[name]
        fit = fit_power_law(surf, row.family, **fit_kwargs)
        entry = {"surface": surf.label or name, "n_found": None,
                 "fit_residual": None, "f_residual": None}
        if row.n is None:
            entry["passed"] = isinstance(fit, PowerLawFit) and fit.is_zero
            if isinstance(fit, PowerLawFit):
                entry["fit_residual"] = fit.residual
                entry["n_found"] = fit.n
        elif isinstance(fit, PowerLawFit) and not fit.is_zero:
            entry["n_found"] = fit.n
            entry["fit_residual"] = fit.residual
            got = fit.f_samples[:, 1]
            want = row.f_expected(point_invariants(surf, fit.f_samples[:, 0]))
            if row.sign_free:
                got, want = np.abs(got), np.abs(want)
            worst = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
            entry["f_residual"] = float(worst)
            entry["passed"] = bool(fit.n == row.n and worst <= tol_f)
        else:
            entry["passed"] = False
            if isinstance(fit, NoFit):
                entry["n_found"] = fit.best_n
                entry["fit_residual"] = fit.best_residual
        per_surface.append(entry)
    return RowResult(row=row, passed=all(e["passed"] for e in per_surface),
                     per_surface=per_surface)


@dataclass
class CorollaryResult:
    """The corollary's check on the Edlinger surface, as `verify --prop` reports it."""

    residual: float
    passed: bool

    def to_json_dict(self):
        return {"proposition": "corollary", "residual": self.residual, "passed": self.passed}

    def to_text(self):
        return f"corollary residual {self.residual:.3e}: {'pass' if self.passed else 'FAIL'}"


def corollary_residual(surf, n_points=100, seed=20240901):
    """Worst relative residual of delta^2 k1^3 + k^4 k2 = 0 on random (u, v)."""
    rng = np.random.default_rng(seed)
    lo, hi = surf.domain
    worst = 0.0
    for _ in range(n_points):
        u = rng.uniform(lo, hi)
        p = point_invariants(surf, u)
        v = rng.uniform(-3.0 * abs(p.delta), 3.0 * abs(p.delta))
        c = curvatures_from_invariants(p, v)
        lead = p.delta * p.delta * c.k1**3
        worst = max(worst, abs(lead + p.k**4 * c.k2) / abs(lead))
    return worst


def near_miss_surfaces(n_steps=4096):
    """Surfaces one small perturbation away from a special class.

    Each breaks exactly one defining identity by about 1e-2, so every
    class flag must stay off and every family fit must fail.
    """
    specs = [
        ("near_edlinger_k_lam", dict(k=1.0, delta=-1.0, lam=-0.99)),
        ("near_edlinger_delta_prime",
         dict(k=1.0, delta="-(1 + 0.01*sin(u))", lam=-1.0)),
        ("near_orthoid", dict(k=0.8, delta=1.0, lam=0.01)),
        ("near_conoidal", dict(k=0.01, delta=1.0, lam=2.0)),
        ("near_right_helicoid", dict(k=0.01, delta=1.0, lam=0.01)),
    ]
    out = []
    for label, kw in specs:
        inv = InvariantTriple.from_functions(**kw)
        surf = surface_from_invariants(inv, n_steps=n_steps)
        surf.label = label
        out.append(surf)
    return out


ALL_FAMILIES = tuple(CurveFamily)


def check_negative_control(surf, tol_fit=TOL_FIT, tol_class=TOL_CLASS):
    """NoFit on every family and no class flags; returns a result dict."""
    fams = {}
    for family in ALL_FAMILIES:
        fit = fit_power_law(surf, family, tol_fit=tol_fit)
        fams[family.tag] = isinstance(fit, NoFit)
    report = classify(surf, tol_class=tol_class)
    flags_clear = not any(report.flags[name] for name in CLASS_FLAGS)
    return {
        "surface": surf.label,
        "families_nofit": fams,
        "flags": report.flags,
        "passed": flags_clear and all(fams.values()),
    }


# cross-checks from the table: a surface must not match another type's row
_MISMATCH_CHECKS = (
    ("conoidal_const_delta", CurveFamily.ORTH_RULINGS, -1, -3),
    ("orthoid_const_delta", CurveFamily.ORTH_RULINGS, -3, -1),
)


@dataclass
class VerifyReport:
    rows: list
    corollary: dict
    mismatches: list
    negatives: list

    @property
    def passed(self):
        return (
            all(r.passed for r in self.rows)
            and self.corollary["passed"]
            and all(m["passed"] for m in self.mismatches)
            and all(n["passed"] for n in self.negatives)
        )

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "rows": [r.to_json_dict() for r in self.rows],
            "corollary": self.corollary,
            "mismatches": self.mismatches,
            "negatives": self.negatives,
        }

    def to_text(self):
        header = (
            f"{'along':<26} {'f':<16} {'n':>4}  "
            f"{'type of the ruled surface':<34} {'status':<6}"
        )
        family_names = {
            "lc1": "lines of curvature (k1)",
            "lc2": "lines of curvature (k2)",
            "s1": "const. striction distance",
            "s2": "orth. traj. of S1",
            "s3": "orth. traj. of rulings",
            "s4": "const. Gaussian curvature",
        }
        lines = [header, "-" * len(header)]
        for r in self.rows:
            n_str = "-" if r.row.n is None else str(r.row.n)
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"{family_names[r.row.family.tag]:<26} {r.row.f_label:<16} "
                f"{n_str:>4}  {r.row.surface_type:<34} {status:<6}"
            )
        lines.append("-" * len(header))
        c = self.corollary
        lines.append(
            f"corollary delta^2 k1^3 + k^4 k2 = 0: residual {c['residual']:.3e} "
            f"({'pass' if c['passed'] else 'FAIL'})"
        )
        for m in self.mismatches:
            lines.append(
                f"cross-check {m['surface']} vs n={m['rejected_n']} on "
                f"{m['family']}: got n={m['n_found']} "
                f"({'pass' if m['passed'] else 'FAIL'})"
            )
        for n in self.negatives:
            lines.append(
                f"negative control {n['surface']}: "
                f"{'pass' if n['passed'] else 'FAIL'}"
            )
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def verify_proposition(prop, tol_fit=TOL_FIT, tol_f=1e-6, surfaces=None):
    """Check the table rows of one proposition (1-5) or the corollary."""
    surfaces = surfaces or _verify_surfaces()
    if str(prop) == "corollary":
        residual = corollary_residual(surfaces["hyperboloid_edlinger"])
        return [CorollaryResult(residual=residual, passed=residual < 1e-8)]
    wanted = str(prop)
    rows = [r for r in _table_rows() if r.prop == wanted]
    if not rows:
        raise ValueError(f"unknown proposition {prop!r} (1-5 or 'corollary')")
    return [_check_row(r, surfaces, tol_f=tol_f, tol_fit=tol_fit) for r in rows]


def verify_all(tol_fit=TOL_FIT, tol_f=1e-6, negative_seeds=(0, 1, 2),
               include_near_misses=True):
    """Reproduce the whole summary table plus converse negative controls."""
    surfaces = _verify_surfaces()
    rows = [_check_row(r, surfaces, tol_f=tol_f, tol_fit=tol_fit)
            for r in _table_rows()]

    residual = corollary_residual(surfaces["hyperboloid_edlinger"])
    corollary = {"residual": residual, "passed": residual < 1e-8}

    mismatches = []
    for name, family, rejected_n, expected_n in _MISMATCH_CHECKS:
        fit = fit_power_law(surfaces[name], family, tol_fit=tol_fit)
        n_found = fit.n if isinstance(fit, PowerLawFit) else None
        mismatches.append({
            "surface": name,
            "family": family.tag,
            "rejected_n": rejected_n,
            "n_found": n_found,
            "passed": n_found == expected_n and n_found != rejected_n,
        })

    negatives = []
    for seed in negative_seeds:
        negatives.append(check_negative_control(gallery("generic_skew", seed=seed)))
    if include_near_misses:
        for surf in near_miss_surfaces():
            negatives.append(check_negative_control(surf))

    return VerifyReport(rows=rows, corollary=corollary, mismatches=mismatches,
                        negatives=negatives)
