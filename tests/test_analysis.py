"""Power-law fitting, classification, and the verification harness."""

import math

import numpy as np
import pytest

from ruledgeo.analysis import (
    CLASS_FLAGS,
    NoFit,
    PowerLawFit,
    check_negative_control,
    classify,
    corollary_residual,
    fit_power_law,
    near_miss_surfaces,
    verify_all,
    verify_proposition,
)
from ruledgeo.errors import EmptyGrid
from ruledgeo.families import CurveFamily, direction_field
from ruledgeo.invariants import extract_invariants, normal_curvature
from ruledgeo.surface import gallery

LC1, LC2 = CurveFamily.CURVATURE_1, CurveFamily.CURVATURE_2
S1, S2 = CurveFamily.CONST_STRICTION, CurveFamily.ORTH_CONST_STRICTION
S3, S4 = CurveFamily.ORTH_RULINGS, CurveFamily.CONST_GAUSS


@pytest.fixture(scope="module")
def near_misses():
    return near_miss_surfaces()


def expected_f_ok(surf, fit, fn, tol=1e-6, sign_free=False):
    for u, f_val in fit.f_samples:
        k, delta, sigma, lam = extract_invariants(surf, u)
        want = fn(k, delta, lam)
        got, want = (abs(f_val), abs(want)) if sign_free else (f_val, want)
        if abs(got - want) > tol * max(abs(want), 1e-12):
            return False
    return True


# table rows -------------------------------------------------------------------


def test_fit_lc_rows(hyperboloid_edlinger, right_helicoid):
    fit = fit_power_law(hyperboloid_edlinger, LC1)
    assert isinstance(fit, PowerLawFit) and fit.n == -1 and not fit.ambiguous
    assert expected_f_ok(hyperboloid_edlinger, fit, lambda k, d, l: -k)

    fit = fit_power_law(right_helicoid, LC2)
    assert fit.n == -2
    assert expected_f_ok(right_helicoid, fit, lambda k, d, l: d, sign_free=True)

    fit = fit_power_law(hyperboloid_edlinger, LC2)
    assert fit.n == -3
    assert expected_f_ok(hyperboloid_edlinger, fit, lambda k, d, l: d * d / k)


def test_fit_s1_rows(right_helicoid, orthoid_const_delta, hyperboloid_edlinger):
    fit = fit_power_law(right_helicoid, S1)
    assert isinstance(fit, PowerLawFit) and fit.is_zero and fit.n is None
    for surf in (orthoid_const_delta, hyperboloid_edlinger):
        fit = fit_power_law(surf, S1)
        assert fit.n == -1
        assert expected_f_ok(surf, fit, lambda k, d, l: -k)


def test_fit_s2_rows(orthoid_const_delta, hyperboloid_edlinger):
    assert fit_power_law(orthoid_const_delta, S2).is_zero
    fit = fit_power_law(hyperboloid_edlinger, S2)
    assert fit.n == -3
    assert expected_f_ok(hyperboloid_edlinger, fit, lambda k, d, l: d * d / k)


def test_fit_s3_rows(right_helicoid, orthoid_const_delta, conoidal_const_delta):
    assert fit_power_law(right_helicoid, S3).is_zero
    fit = fit_power_law(orthoid_const_delta, S3)
    assert fit.n == -1
    assert expected_f_ok(orthoid_const_delta, fit, lambda k, d, l: -k)
    fit = fit_power_law(conoidal_const_delta, S3)
    assert fit.n == -3
    assert expected_f_ok(conoidal_const_delta, fit, lambda k, d, l: -d * d * l)


def test_fit_s4_rows(right_helicoid, orthoid_const_delta, hyperboloid_edlinger):
    assert fit_power_law(right_helicoid, S4).is_zero
    for surf in (orthoid_const_delta, hyperboloid_edlinger):
        fit = fit_power_law(surf, S4)
        assert fit.n == -1
        assert expected_f_ok(surf, fit, lambda k, d, l: -k)


# fit mechanics ------------------------------------------------------------------


def test_generic_skew_no_fit_with_brute_force_oracle(generic_skew):
    # independent oracle: evaluate k_N through the generic forms route on the
    # field direction and sweep every exponent by brute force
    fit = fit_power_law(generic_skew, S1)
    assert isinstance(fit, NoFit)
    us = np.linspace(*generic_skew.domain, 9)
    k, d0, *_ = extract_invariants(generic_skew, 3.0)
    vs = np.linspace(-2.5 * abs(d0), 2.5 * abs(d0), 9)
    for n in range(-5, 3):
        worst = 0.0
        for u in us:
            vals = []
            for v in vs:
                du, dv = direction_field(S1, generic_skew, u, v)
                kn = normal_curvature(generic_skew, u, v, du, dv)
                _, delta, _, _ = extract_invariants(generic_skew, u)
                w = math.sqrt(v * v + delta * delta)
                vals.append(kn * w ** float(-n))
            vals = np.array(vals)
            worst = max(worst, np.std(vals) / max(1e-12, abs(np.mean(vals))))
        assert worst > 1e-6, f"brute force unexpectedly fits n={n}"


def test_no_fit_reports_candidates(generic_skew):
    fit = fit_power_law(generic_skew, S3)
    assert isinstance(fit, NoFit)
    assert set(fit.candidates) == set(range(-5, 3))
    assert fit.best_residual > 1e-6
    assert fit.candidates[fit.best_n] == fit.best_residual


def test_fit_respects_n_range(hyperboloid_edlinger):
    fit = fit_power_law(hyperboloid_edlinger, S2, n_range=(-2, 2))
    assert isinstance(fit, NoFit)  # true exponent -3 excluded


def test_fit_stability_under_v_refinement(hyperboloid_edlinger):
    k, d0, *_ = extract_invariants(hyperboloid_edlinger, 1.0)
    for m in (17, 33):
        v_grid = np.linspace(-3 * abs(d0), 3 * abs(d0), m)
        fit = fit_power_law(hyperboloid_edlinger, S2, v_grid=v_grid)
        assert fit.n == -3


def test_fit_homothety_scaling():
    mu = 2.0
    base = gallery("hyperboloid_edlinger", c=1.0)
    scaled = gallery("hyperboloid_edlinger", c=mu)
    for family, n in ((LC1, -1), (LC2, -3), (S2, -3)):
        f0 = fit_power_law(base, family)
        f1 = fit_power_law(scaled, family)
        assert f0.n == n and f1.n == n
        # k_N scales as 1/length, w as length: f -> f * mu^(-n-1)
        ratio = f1.f_samples[0][1] / f0.f_samples[0][1]
        assert abs(ratio - mu ** (-n - 1)) < 1e-9 * abs(mu ** (-n - 1))


def test_fit_empty_grid_errors(right_helicoid):
    with pytest.raises(EmptyGrid):
        fit_power_law(right_helicoid, S1, u_grid=[])
    with pytest.raises(EmptyGrid):
        fit_power_law(right_helicoid, S1, v_grid=[])


def test_s4_fit_skips_degenerate_points(orthoid_const_delta, conoidal_const_delta):
    # v = 0 is degenerate on constant-delta surfaces; the grid must drop it
    # and still fit where the table says so
    k, d0, *_ = extract_invariants(orthoid_const_delta, 1.0)
    v_grid = np.linspace(-3 * abs(d0), 3 * abs(d0), 21)  # includes v = 0
    fit = fit_power_law(orthoid_const_delta, S4, v_grid=v_grid)
    assert isinstance(fit, PowerLawFit) and fit.n == -1
    # conoidal is in no S4 row of the table: NoFit, not an exception
    assert isinstance(fit_power_law(conoidal_const_delta, S4, v_grid=v_grid), NoFit)


def test_ambiguous_fit_flagged(hyperboloid_edlinger):
    # a single v sample cannot separate exponents: every n fits, the
    # minimal-residual one is returned and the ambiguity is flagged
    fit = fit_power_law(hyperboloid_edlinger, S2, v_grid=[0.7], min_points=1)
    assert isinstance(fit, PowerLawFit)
    assert fit.ambiguous
    assert len([n for n, r in fit.candidates.items() if r <= 1e-6]) > 1


def test_zero_detection_precedes_exponent_search(right_helicoid):
    fit = fit_power_law(right_helicoid, S1)
    assert fit.is_zero and fit.n is None and not fit.candidates
    assert np.all(fit.f_samples[:, 1] == 0.0)


# classification -----------------------------------------------------------------


def test_classify_gallery_flags(gallery_five):
    flags = classify(gallery_five["right_helicoid"]).flags
    assert flags["right_helicoid"] and flags["orthoid"] and flags["conoidal"]
    assert flags["const_delta"] and not flags["edlinger"]
    assert flags["orthoid_const_delta"] and flags["conoidal_const_delta"]

    flags = classify(gallery_five["hyperboloid_edlinger"]).flags
    assert flags["edlinger"] and flags["const_delta"]
    assert not flags["right_helicoid"] and not flags["orthoid"]
    assert not flags["conoidal"]

    flags = classify(gallery_five["orthoid_const_delta"]).flags
    assert flags["orthoid"] and flags["const_delta"] and flags["orthoid_const_delta"]
    assert not flags["conoidal"] and not flags["edlinger"]

    flags = classify(gallery_five["conoidal_const_delta"]).flags
    assert flags["conoidal"] and flags["conoidal_const_delta"]
    assert not flags["orthoid"] and not flags["edlinger"]

    flags = classify(gallery_five["generic_skew"]).flags
    assert not any(flags.values())


def test_classify_implications(gallery_five):
    for surf in gallery_five.values():
        flags = classify(surf).flags
        if flags["right_helicoid"]:
            assert flags["orthoid_const_delta"] and flags["conoidal_const_delta"]
        if flags["edlinger"]:
            assert flags["const_delta"]


def test_classify_residuals_reported(hyperboloid_edlinger):
    report = classify(hyperboloid_edlinger)
    assert report.residuals["k_lam_plus_1"] < 1e-9
    assert report.residuals["delta_prime"] < 1e-9
    assert abs(report.residuals["lam"] - 1.0) < 1e-9
    assert abs(report.residuals["k"] - 1.0) < 1e-9
    assert report.tol_class == 1e-8


def test_soundness_flags_imply_fits(gallery_five):
    # classify flags predict fit outcomes on the gallery
    for name, surf in gallery_five.items():
        flags = classify(surf).flags
        if flags["edlinger"]:
            fit = fit_power_law(surf, LC1)
            assert fit.n == -1
            assert expected_f_ok(surf, fit, lambda k, d, l: -k)
        if flags["right_helicoid"]:
            assert fit_power_law(surf, S1).is_zero
            assert fit_power_law(surf, S3).is_zero
        if flags["orthoid"]:
            assert fit_power_law(surf, S2).is_zero
        if flags["orthoid_const_delta"] and not flags["right_helicoid"]:
            fit = fit_power_law(surf, S3)
            assert fit.n == -1
        if flags["conoidal_const_delta"] and not flags["right_helicoid"]:
            fit = fit_power_law(surf, S3)
            assert fit.n == -3
            assert expected_f_ok(surf, fit, lambda k, d, l: -d * d * l)


# negative controls ----------------------------------------------------------------


def test_near_miss_surfaces_are_rejected(near_misses):
    assert len(near_misses) == 5
    for surf in near_misses:
        result = check_negative_control(surf)
        assert result["passed"], (surf.label, result)
        assert not any(result["flags"][name] for name in CLASS_FLAGS)


def test_near_miss_kl_keeps_const_delta_condition(near_misses):
    by_label = {s.label: s for s in near_misses}
    report = classify(by_label["near_edlinger_k_lam"])
    # delta really is constant; only the class flags must stay off
    assert report.flags["const_delta"]
    assert not report.flags["edlinger"]
    assert 5e-3 < report.residuals["k_lam_plus_1"] < 2e-2


def test_randomized_generic_controls():
    for seed in (4, 5):
        surf = gallery("generic_skew", seed=seed)
        result = check_negative_control(surf)
        assert result["passed"], result
        assert not any(result["flags"].values())


# verification harness ---------------------------------------------------------------


def test_verify_proposition_rows_pass():
    for prop in ("1", "2", "3", "4", "5"):
        rows = verify_proposition(prop)
        assert rows and all(r.passed for r in rows), prop
    corr = verify_proposition("corollary")
    assert corr[0].passed and corr[0].residual < 1e-8


def test_verify_proposition_unknown():
    with pytest.raises(ValueError):
        verify_proposition("7")


def test_prop4_cross_example():
    # the conoidal gallery must fail the (n=-1, f=-k) row but pass (n=-3)
    surf = gallery("conoidal_const_delta", alpha=2.0, beta=1.0)
    fit = fit_power_law(surf, S3)
    assert fit.n == -3 and fit.n != -1


def test_corollary_residual_small():
    for c in (0.5, 2.0):
        surf = gallery("hyperboloid_edlinger", c=c)
        assert corollary_residual(surf) < 1e-8


def test_verify_all_report(capsys):
    report = verify_all(negative_seeds=(0,), include_near_misses=False)
    assert report.passed
    assert len(report.rows) == 12
    assert {r.row.prop for r in report.rows} == {"1", "2", "3", "4", "5"}
    text = report.to_text()
    assert text.count("pass") >= 12 and "FAIL" not in text
    payload = report.to_json_dict()
    assert payload["passed"] is True
    assert len(payload["rows"]) == 12
    assert payload["corollary"]["passed"] is True
    # deterministic row order mirrors the table
    labels = [r["surface_type"] for r in payload["rows"]]
    assert labels[0] == "Edlinger surface"
    assert labels[-1] == "orthoid, const. delta / Edlinger"
    # exactly the 12 (f, n) combinations of the table, in order
    combos = [(r["f"], r["n"]) for r in payload["rows"]]
    assert combos == [
        ("-k", -1), ("+/-delta", -2), ("delta^2/k", -3),
        ("0", None), ("-k", -1),
        ("0", None), ("delta^2/k", -3),
        ("0", None), ("-k", -1), ("-delta^2*lambda", -3),
        ("0", None), ("-k", -1),
    ]


# row-batched statistics against the per-row loop --------------------------------


def _per_row_fit(surf, family, v_grid=None, n_range=(-5, 2), tol_fit=1e-6):
    """`fit_power_law`'s exponent search with one `np.std`/`np.mean` call
    per row, the reference its batched statistics must match bit for bit.
    Returns (candidates, n, f_samples) and whether a point was degenerate."""
    from ruledgeo.analysis import uniform_u_grid
    from ruledgeo.families import normal_curvature_grid
    from ruledgeo.invariants import point_invariants

    p = point_invariants(surf, uniform_u_grid(surf))
    delta_bar = float(np.mean(np.abs(p.delta)))
    if v_grid is None:
        v_grid = np.linspace(-3.0 * delta_bar, 3.0 * delta_bar, 21)
    tol_abs = 1e-9 / delta_bar
    kn, degenerate = normal_curvature_grid(family, p, v_grid)
    w = np.sqrt(v_grid * v_grid + (p.delta * p.delta)[:, None])
    us = p.u.tolist()
    kn_rows = [row[~skip] for row, skip in zip(kn, degenerate)]
    w_rows = [row[~skip] for row, skip in zip(w, degenerate)]
    max_abs = max(float(np.max(np.abs(r))) for r in kn_rows)
    if max_abs < tol_abs:
        return ({}, None, np.array([(u, 0.0) for u in us])), degenerate.any()
    candidates = {}
    for n in range(n_range[0], n_range[1] + 1):
        worst = 0.0
        for kns, ws in zip(kn_rows, w_rows):
            r = kns * ws ** float(-n)
            worst = max(worst, float(np.std(r)) / max(tol_abs, abs(float(np.mean(r)))))
        candidates[n] = worst
    qualifying = [n for n, res in candidates.items() if res <= tol_fit]
    if not qualifying:
        return (candidates, None, None), degenerate.any()
    best = min(qualifying, key=candidates.get)
    samples = np.array([(u, float(np.mean(kns * ws ** float(-best))))
                        for u, kns, ws in zip(us, kn_rows, w_rows)])
    return (candidates, best, samples), degenerate.any()


def _fit_outputs(fit):
    if isinstance(fit, NoFit):
        return fit.candidates, None, None
    return fit.candidates, fit.n, fit.f_samples


@pytest.mark.parametrize("family", list(CurveFamily), ids=lambda f: f.tag)
def test_batched_fit_equals_per_row_loop(family, gallery_five, near_misses):
    surfaces = list(gallery_five.values()) + near_misses
    for surf in surfaces:
        (cands, n, samples), _ = _per_row_fit(surf, family)
        got = _fit_outputs(fit_power_law(surf, family))
        assert got[0] == cands and got[1] == n, (surf.label, family)
        assert samples is None or np.array_equal(got[2], samples), (surf.label, family)
    if family is S4:
        # v = 0 is degenerate where delta' = 0: ragged rows, one block each
        v_grid = np.linspace(-3.0, 3.0, 21)
        for name in ("right_helicoid", "hyperboloid_edlinger", "orthoid_const_delta",
                     "conoidal_const_delta"):
            surf = gallery_five[name]
            (cands, n, samples), degenerate = _per_row_fit(surf, family, v_grid)
            assert degenerate, name
            got = _fit_outputs(fit_power_law(surf, family, v_grid=v_grid))
            assert got[0] == cands and got[1] == n, name
            assert samples is None or np.array_equal(got[2], samples), name
