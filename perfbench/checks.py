"""Output checkers. Each returns None when the output is right, else a reason.

Expected values come from the paper's table and from the closed forms in
`workloads`, never from stored output bytes, so a change that moves the
last digits of a result within tolerance still passes.
"""

import json

import workloads

# tolerances of the acceptance suite (tests/test_acceptance.py)
TOL_INVARIANT = 1e-6    # invariant round trips, sup norm
TOL_F = 1e-6            # fitted coefficient f, relative
TOL_K_SPREAD = 1e-6     # Gaussian curvature along S4, relative spread
TOL_COROLLARY = 1e-8
TOL_POINT = 1e-7        # trace point against s(u) + v e(u)
# verify's table surfaces have |delta| = 1, so the zero fit's absolute
# tolerance 1e-9 / mean |delta| is 1e-9
TOL_ZERO = 1e-9
# verify's cross-checks: (surface type, family), each must fit its own row's n
CROSS_CHECKS = [("conoidal_const_delta", "s3"), ("orthoid_const_delta", "s3")]


def _check_table_row(row, prop, family, n, types):
    where = f"row {prop} {family} n={n}"
    found = [entry["surface"].split("(")[0] for entry in row["surfaces"]]
    if found != list(types):
        return f"{where}: surfaces {found}, expected {list(types)}"
    for entry in row["surfaces"]:
        surface, n_found = entry["surface"], entry["n_found"]
        if n is None:
            size = entry["fit_residual"]
            if n_found is not None or size is None or not size < TOL_ZERO:
                return f"{where}: no zero fit on {surface} (n = {n_found}, |k_N| {size})"
            continue
        if n_found != n:
            return f"{where}: n = {n_found} on {surface}"
        residual = entry["f_residual"]
        if residual is None or not residual < TOL_F:
            return f"{where}: f off the table by {residual} on {surface}"
    return None


def _check_negative(entry):
    surface = entry["surface"]
    if set(entry["families_nofit"]) != set(workloads.FAMILIES):
        return f"negative control {surface}: families {sorted(entry['families_nofit'])}"
    fitted = sorted(fam for fam, nofit in entry["families_nofit"].items() if nofit is not True)
    if fitted:
        return f"negative control {surface}: a power law fits along {fitted}"
    want = dict(workloads.class_flags({"profile": None}),  # every flag off
                const_delta=workloads.NEGATIVE_CONTROLS[surface])
    flags = entry["flags"]
    wrong = sorted(flag for flag in set(want) | set(flags) if flags.get(flag) is not want.get(flag))
    if wrong:
        return f"negative control {surface}: flags {wrong} wrong"
    return None


def check_verify(text):
    """The figures of `verify --all --format json` against the paper's table."""
    doc = json.loads(text)
    if doc.get("passed") is not True:
        return "verify reports passed != true"
    rows = doc["rows"]
    if [(r["proposition"], r["family"], r["n"]) for r in rows] != \
            [row[:3] for row in workloads.TABLE_ROWS]:
        return "table rows differ from the paper's table"
    for row, expected in zip(rows, workloads.TABLE_ROWS):
        reason = _check_table_row(row, *expected)
        if reason is not None:
            return reason
    residual = doc["corollary"]["residual"]
    if not residual < TOL_COROLLARY:
        return f"corollary residual {residual:.3e} >= {TOL_COROLLARY}"
    if [(m["surface"], m["family"]) for m in doc["mismatches"]] != CROSS_CHECKS:
        return "cross-checks differ from conoidal and orthoid along s3"
    for m in doc["mismatches"]:
        want = workloads.TABLE_FITS[m["surface"]][m["family"]][0]
        if m["n_found"] != want:
            return f"cross-check {m['surface']} {m['family']}: n = {m['n_found']}, expected {want}"
    negatives = doc["negatives"]
    labels = [entry["surface"] for entry in negatives]
    if sorted(labels) != sorted(workloads.NEGATIVE_CONTROLS):
        return f"negative controls {labels}, expected {sorted(workloads.NEGATIVE_CONTROLS)}"
    for entry in negatives:
        reason = _check_negative(entry)
        if reason is not None:
            return reason
    return None


def check_flags(flags, desc):
    want = workloads.class_flags(desc)
    if flags != want:
        wrong = sorted(k for k in want if flags.get(k) != want[k])
        return f"class flags differ from the known class: {wrong}"
    return None


def check_invariant_rows(rows, desc):
    """rows: (u, k, delta, lambda) tuples against the exact invariants."""
    exact = workloads.invariants_fn(desc)
    worst = 0.0
    for u, k, delta, lam in rows:
        k0, d0, _, l0 = exact(u)
        worst = max(worst, abs(k - k0), abs(delta - d0), abs(lam - l0))
    if not worst < TOL_INVARIANT:
        return f"invariants off by {worst:.3e} (sup norm)"
    return None


def check_cli(workload, result, expect):
    """Check one CLI request: (exit code, stdout) against its expectation."""
    rc, out = result
    if workload == "verify":
        return f"exit code {rc}, expected 0" if rc != 0 else check_verify(out)
    desc = expect["desc"]
    if desc is None:
        return f"exit code {rc}, expected 1 (invalid input)" if rc != 1 else None
    if rc != 0:
        return f"exit code {rc}, expected 0"
    doc = json.loads(out)
    if expect["verb"] == "classify":
        return check_flags(doc["flags"], desc)
    rows = zip(doc["u"], doc["k"], doc["delta"], doc["lambda"])
    return check_invariant_rows(rows, desc)


def check_trace(curve, req, desc, point):
    """`point(u, v)` is the reference s(u) + v e(u) of the traced surface."""
    rows = curve.points
    if abs(rows[0][0] - req["u0"]) > 1e-15 or abs(rows[0][1] - req["v0"]) > 1e-15:
        return "trace does not start at (u0, v0)"
    worst = 0.0
    for u, v, x, y, z in rows:
        ref = point(u, v)
        worst = max(worst, abs(x - ref[0]), abs(y - ref[1]), abs(z - ref[2]))
    if not worst < TOL_POINT:
        return f"trace point off s(u) + v e(u) by {worst:.3e}"
    if req["family"] == "s1":
        drift = max(abs(row[1] - req["v0"]) for row in rows)
        if drift > 1e-12:
            return f"S1 trace drifts in v by {drift:.3e}"
    if req["family"] == "s4":
        exact = workloads.invariants_fn(desc)
        ks = []
        for u, v, *_ in rows:
            d = exact(u)[1]
            w2 = v * v + d * d
            ks.append(-d * d / (w2 * w2))
        spread = (max(ks) - min(ks)) / abs(sum(ks) / len(ks))
        if not spread < TOL_K_SPREAD:
            return f"K spread {spread:.3e} along S4"
    return None


def check_fit(fit, req, desc):
    name = type(fit).__name__
    if "profile" in desc:
        return None if name == "NoFit" else f"{name} on a generic surface, expected NoFit"
    n, f_exact, sign_free = workloads.TABLE_FITS[desc["type"]][req["family"]]
    if name != "PowerLawFit":
        return f"{name}, expected the table's n = {n}"
    if n is None:
        return None if fit.is_zero else f"n = {fit.n}, expected f = 0"
    if fit.is_zero or fit.n != n:
        return f"n = {fit.n}, expected {n}"
    k, d, lam = workloads.closed_invariants(desc)
    want = f_exact(k, d, lam)
    worst = 0.0
    for _u, f in fit.f_samples:
        got, ref = (abs(f), abs(want)) if sign_free else (f, want)
        worst = max(worst, abs(got - ref) / abs(ref))
    if not worst < TOL_F:
        return f"f off the table's closed form by {worst:.3e} (relative)"
    return None


def check_lib(result, req, desc, point):
    op = req["op"]
    if op == "trace":
        return check_trace(result, req, desc, point)
    if op == "fit":
        return check_fit(result, req, desc)
    if op == "classify":
        return check_flags(result.flags, desc)
    if op == "extract":
        return check_invariant_rows(((u, k, d, lam) for u, (k, d, _s, lam) in result), desc)
    raise ValueError(op)

