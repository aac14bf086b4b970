"""Seeded inputs for the benchmark workloads and the closed forms that check them.

Every input a child process sends to ruledgeo is generated here, before the
child starts, from the workload seed alone. Each workload repeats a fixed
multiset of request kinds (a "round"); the seed draws the parameters of each
request and the order inside each round, never the mix, so the cost of a
round does not depend on the seed.

Surfaces are described by plain dicts ("descs") from which both the spec
strings sent to ruledgeo and the closed forms used by the checkers are
derived, so a checker never relies on ruledgeo to tell it the right answer.
"""

import json
import math
import os
import random

# Rounds generated per run. Inputs are distinct across rounds up to this
# count, so a per-input cache in the program cannot turn repeats into hits;
# a run that gets through more rounds starts over from the first.
ROUNDS = 48

FAMILIES = ("lc1", "lc2", "s1", "s2", "s3", "s4")
GALLERY_TYPES = (
    "right_helicoid",
    "hyperboloid_edlinger",
    "orthoid_const_delta",
    "conoidal_const_delta",
)

# Table of the paper: (proposition, family, n, surface types) for every row,
# n None for f = 0.
TABLE_ROWS = (
    ("1", "lc1", -1, ("hyperboloid_edlinger",)),
    ("1", "lc2", -2, ("right_helicoid",)),
    ("1", "lc2", -3, ("hyperboloid_edlinger",)),
    ("2", "s1", None, ("right_helicoid",)),
    ("2", "s1", -1, ("orthoid_const_delta", "hyperboloid_edlinger")),
    ("3", "s2", None, ("orthoid_const_delta",)),
    ("3", "s2", -3, ("hyperboloid_edlinger",)),
    ("4", "s3", None, ("right_helicoid",)),
    ("4", "s3", -1, ("orthoid_const_delta",)),
    ("4", "s3", -3, ("conoidal_const_delta",)),
    ("5", "s4", None, ("right_helicoid",)),
    ("5", "s4", -1, ("orthoid_const_delta", "hyperboloid_edlinger")),
)

# Negative controls of `verify --all`: surface -> its const_delta flag. Every
# other class flag must be off and every family must give NoFit. The near
# misses keep a constant delta except the one whose delta is perturbed.
NEGATIVE_CONTROLS = {
    "generic_skew(seed=0)": False,
    "generic_skew(seed=1)": False,
    "generic_skew(seed=2)": False,
    "near_edlinger_k_lam": True,
    "near_edlinger_delta_prime": False,
    "near_orthoid": True,
    "near_conoidal": True,
    "near_right_helicoid": True,
}

# The table rows per surface type: family -> (n, f(k, delta, lam), sign_free).
# n None means k_N vanishes identically along the family.
TABLE_FITS = {
    "right_helicoid": {
        "lc2": (-2, lambda k, d, lam: d, True),
        "s1": (None, None, False),
        "s3": (None, None, False),
        "s4": (None, None, False),
    },
    "hyperboloid_edlinger": {
        "lc1": (-1, lambda k, d, lam: -k, False),
        "lc2": (-3, lambda k, d, lam: d * d / k, False),
        "s1": (-1, lambda k, d, lam: -k, False),
        "s2": (-3, lambda k, d, lam: d * d / k, False),
    },
    "orthoid_const_delta": {
        "s1": (-1, lambda k, d, lam: -k, False),
        "s2": (None, None, False),
        "s3": (-1, lambda k, d, lam: -k, False),
        "s4": (-1, lambda k, d, lam: -k, False),
    },
    "conoidal_const_delta": {
        "s3": (-3, lambda k, d, lam: -d * d * lam, False),
    },
}

_MATH = {"sin": math.sin, "cos": math.cos}


def compiled(src):
    """Function of u for a generated expression, by Python's own arithmetic.

    Generated strings use only `+ - * /`, parentheses, sin and cos, so
    Python evaluates them without going through ruledgeo's parser.
    """
    code = compile(src, "<expr>", "eval")
    namespace = {"__builtins__": {}, **_MATH}
    return lambda u: eval(code, namespace, {"u": u})


def linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _num(x):
    return f"({float(x)!r})"


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def draw_gallery_params(kind, rng):
    if kind == "right_helicoid":
        return {"c": _signed(rng, 0.7, 1.3)}
    if kind == "hyperboloid_edlinger":
        return {"c": rng.uniform(0.6, 1.4)}
    if kind == "orthoid_const_delta":
        return {"r": rng.uniform(0.5, 0.8), "delta": _signed(rng, 0.7, 1.3)}
    if kind == "conoidal_const_delta":
        return {"alpha": rng.uniform(1.0, 2.5), "beta": _signed(rng, 0.7, 1.3)}
    raise ValueError(kind)


def draw_rotation(rng):
    """Uniform random rotation matrix (rows) from a unit quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(x * x for x in q))
    w, x, y, z = (c / n for c in q)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _base_strings(kind, p, v):
    """Closed-form striction line and director of a gallery type in variable v.

    Returns ((sx, sy, sz), (ex, ey, ez)); "0" marks an identically zero
    component.
    """
    if kind == "right_helicoid":
        return ("0", "0", f"{_num(p['c'])}*{v}"), (f"cos({v})", f"sin({v})", "0")
    if kind == "hyperboloid_edlinger":
        q, rho, c = _num(math.sqrt(2.0)), _num(math.sqrt(2.0) / 2.0), p["c"]
        return (
            (f"{_num(c)}*sin({q}*{v})", f"{_num(-c)}*cos({q}*{v})", "0"),
            (f"{rho}*cos({q}*{v})", f"{rho}*sin({q}*{v})", rho),
        )
    if kind == "orthoid_const_delta":
        r, d = p["r"], p["delta"]
        z0, w = math.sqrt(1.0 - r * r), 1.0 / r
        arg = f"{_num(w)}*{v}"
        return (
            (f"{_num(-d * z0 * r)}*sin({arg})", f"{_num(d * z0 * r)}*cos({arg})",
             f"{_num(d * r)}*{v}"),
            (f"{_num(r)}*cos({arg})", f"{_num(r)}*sin({arg})", _num(z0)),
        )
    if kind == "conoidal_const_delta":
        a, b = p["alpha"], p["beta"]
        return (
            (f"{_num(a)}*sin({v})", f"{_num(-a)}*cos({v})", f"{_num(b)}*{v}"),
            (f"cos({v})", f"sin({v})", "0"),
        )
    raise ValueError(kind)


def _combine(rows, comps, factor=1.0):
    """Strings of factor * R @ comps, skipping zero components."""
    out = []
    for row in rows:
        terms = [f"{_num(factor * r)}*({c})" for r, c in zip(row, comps) if c != "0"]
        out.append(" + ".join(terms) if terms else "0")
    return tuple(out)


def standard_strings(desc, v="u"):
    """(s, e) component strings of a closed-form desc: scale * R s0, R e0."""
    s0, e0 = _base_strings(desc["type"], desc["params"], v)
    return _combine(desc["rot"], s0, desc["scale"]), _combine(desc["rot"], e0)


def general_strings(desc):
    """(c, d) of a general-form desc: reparametrized, offset base, scaled director.

    With phi(u) = u + b sin(u), the base curve is c = s(phi) + mu(u) e(phi)
    and the director d = rho(u) e(phi). Standardizing gives back s and e of
    the standard strings in the arclength t = phi(u).
    """
    g = desc["general"]
    phi = f"(u + {_num(g['b'])}*sin(u))"
    s, e = standard_strings(desc, v=phi)
    mu = f"{_num(g['m'])}*cos(u)"
    rho = f"({_num(1.5)} + {_num(0.5)}*sin(u + {_num(g['q'])}))"
    c = tuple(f"{si} + {mu}*({ei})" if ei != "0" else si for si, ei in zip(s, e))
    d = tuple(f"{rho}*({ei})" if ei != "0" else "0" for ei in e)
    return c, d


def closed_invariants(desc):
    """Constant (k, delta, lambda) of a closed-form desc."""
    kind, p, a = desc["type"], desc["params"], desc["scale"]
    if kind == "right_helicoid":
        return 0.0, a * p["c"], 0.0
    if kind == "hyperboloid_edlinger":
        return 1.0, -a * p["c"], -1.0
    if kind == "orthoid_const_delta":
        r = p["r"]
        return math.sqrt(1.0 - r * r) / r, a * p["delta"], 0.0
    if kind == "conoidal_const_delta":
        return 0.0, a * p["beta"], p["alpha"] / p["beta"]
    raise ValueError(kind)


def class_flags(desc):
    """Class flags of `classify`, decided from the exact invariants."""
    if "profile" in desc:
        const_delta = orthoid = conoidal = edlinger = False
    else:
        k, _delta, lam = closed_invariants(desc)
        const_delta = True
        orthoid, conoidal = lam == 0.0, k == 0.0
        edlinger = k * lam + 1.0 == 0.0
    return {
        "right_helicoid": orthoid and conoidal and const_delta,
        "edlinger": const_delta and edlinger,
        "orthoid": orthoid,
        "conoidal": conoidal,
        "const_delta": const_delta,
        "orthoid_const_delta": orthoid and const_delta,
        "conoidal_const_delta": conoidal and const_delta,
    }


def draw_closed_desc(kind, rng, rotate=True, domain=(0.0, 2.0 * math.pi)):
    return {
        "type": kind,
        "params": draw_gallery_params(kind, rng),
        "rot": draw_rotation(rng) if rotate else IDENTITY,
        "scale": rng.uniform(0.8, 1.25) if rotate else 1.0,
        "domain": list(domain),
    }


def draw_general(desc, rng):
    desc = dict(desc)
    desc["general"] = {
        "b": rng.uniform(-0.4, 0.4),
        "m": rng.uniform(-0.8, 0.8),
        "q": rng.uniform(0.0, 2.0 * math.pi),
    }
    return desc


# varying invariant profiles (the ranges of the gallery's generic_skew)


def draw_profile_desc(rng, domain=(0.0, 2.0 * math.pi)):
    sign = rng.choice((-1.0, 1.0))
    return {
        "profile": {
            "a0": rng.uniform(0.6, 1.1), "a1": rng.uniform(0.15, 0.35),
            "p1": rng.uniform(0.0, 2.0 * math.pi),
            "l0": rng.uniform(0.5, 0.9), "l1": rng.uniform(0.1, 0.25),
            "p2": rng.uniform(0.0, 2.0 * math.pi),
            "d0": rng.uniform(0.8, 1.2), "p3": rng.uniform(0.0, 2.0 * math.pi),
            "sign": sign,
        },
        "domain": list(domain),
    }


def profile_strings(desc):
    """(k, delta, lambda) expression strings of a profile desc.

    sign(lambda) = sign(delta), as the striction-angle convention requires.
    """
    p = desc["profile"]
    s = p["sign"]
    return (
        f"{_num(p['a0'])} + {_num(p['a1'])}*sin(u + {_num(p['p1'])})",
        f"{_num(s * p['d0'])}*(1 + {_num(0.15)}*sin(u + {_num(p['p3'])}))",
        f"{_num(s * p['l0'])} + {_num(s * p['l1'])}*sin(u + {_num(p['p2'])})",
    )


def invariants_fn(desc):
    """u -> exact (k, delta, delta', lambda) of any desc."""
    if "profile" in desc:
        p = desc["profile"]
        k, d, lam = (compiled(src) for src in profile_strings(desc))
        amp = p["sign"] * p["d0"] * 0.15
        return lambda u: (k(u), d(u), amp * math.cos(u + p["p3"]), lam(u))
    k, d, lam = closed_invariants(desc)
    return lambda u: (k, d, 0.0, lam)


def point_fn(desc):
    """(u, v) -> s(u) + v e(u) of a closed-form desc, by Python arithmetic."""
    s, e = standard_strings(desc)
    pairs = [(compiled(si), compiled(ei)) for si, ei in zip(s, e)]
    return lambda u, v: [sf(u) + v * ef(u) for sf, ef in pairs]


# spec documents ---------------------------------------------------------------


def expression_spec(desc):
    s, e = standard_strings(desc)
    return _expr_doc(s, e, desc["domain"])


def general_spec(desc):
    c, d = general_strings(desc)
    return _expr_doc(c, d, desc["domain"])


def _expr_doc(c, d, domain):
    keys = ("cx", "cy", "cz", "dx", "dy", "dz")
    return dict({"type": "expression", "domain": list(domain)}, **dict(zip(keys, c + d)))


def samples_spec(desc, n=65):
    us = linspace(*desc["domain"], n)
    k, d, lam = (compiled(src) for src in profile_strings(desc))
    return {
        "type": "invariants",
        "u": us,
        "k": [k(u) for u in us],
        "delta": [d(u) for u in us],
        "sigma": [math.atan(1.0 / lam(u)) for u in us],
    }


# invalid specs: each must make the CLI exit 1 without a traceback

def _bad_syntax(rng):
    doc = expression_spec(draw_closed_desc("conoidal_const_delta", rng))
    doc["dx"] = doc["dx"] + " * (u"
    return json.dumps(doc)


def _bad_identifier(rng):
    doc = expression_spec(draw_closed_desc("right_helicoid", rng))
    doc["dy"] = doc["dy"].replace("u", "x")
    return json.dumps(doc)


def _bad_gauge(rng):
    doc = expression_spec(draw_closed_desc("conoidal_const_delta", rng))
    f = _num(rng.uniform(1.5, 3.0))
    for key in ("dx", "dy", "dz"):
        doc[key] = f"{f}*({doc[key]})"
    return json.dumps(doc)


def _bad_nonskew(rng):
    doc = expression_spec(draw_closed_desc("right_helicoid", rng))
    for key in ("cx", "cy", "cz"):
        doc[key] = _num(rng.uniform(-1.0, 1.0))
    return json.dumps(doc)


def _bad_param(rng):
    return json.dumps({"type": "gallery", "name": "hyperboloid_edlinger",
                       "params": {"c": -rng.uniform(0.1, 2.0)}})


def _bad_name(rng):
    return json.dumps({"type": "gallery", "name": f"helicoid_{rng.randrange(100)}"})


def _bad_format(rng):
    doc = expression_spec(draw_closed_desc("orthoid_const_delta", rng))
    del doc["domain"]
    return json.dumps(doc)


def _bad_sigma(rng):
    doc = samples_spec(draw_profile_desc(rng), n=9)
    doc["sigma"] = [-s for s in doc["sigma"]]
    return json.dumps(doc)


def _bad_json(rng):
    return json.dumps(expression_spec(draw_closed_desc("right_helicoid", rng)))[:-2]


# Rejections the CLI promises; build round r holds the r-th of these in name
# order (cyclically), so the mix of a round does not depend on the seed.
BAD_CLASSES = {
    "bad.syntax": _bad_syntax,
    "bad.unknown_identifier": _bad_identifier,
    "bad.gauge": _bad_gauge,
    "bad.nonskew": _bad_nonskew,
    "bad.param_range": _bad_param,
    "bad.unknown_name": _bad_name,
    "bad.spec_format": _bad_format,
    "bad.invalid_sigma": _bad_sigma,
    "bad.json": _bad_json,
}


def _bad_sign_change(rng):
    # delta = u - a changes sign inside the domain: the surface is not skew
    a = _num(rng.uniform(0.5, 5.5))
    return json.dumps({"type": "expression", "cx": "0", "cy": "0",
                       "cz": f"(u - {a})*(u - {a})/2", "dx": "cos(u)",
                       "dy": "sin(u)", "dz": "0", "domain": [0.0, 6.283]})


def _bad_nan_seed(rng):
    return '{"type": "gallery", "name": "generic_skew", "params": {"seed": NaN}}'


# Invalid inputs the CLI does not reject today (open robustness items). They
# are in every build round so that the failures show in the result.
KNOWN_HOLES = {
    "bad.nonskew_sign_change": _bad_sign_change,
    "bad.gallery_nan_seed": _bad_nan_seed,
}


# plans --------------------------------------------------------------------------


def make_plan(workload, seed, spec_dir):
    """Inputs and expectations of one run.

    Returns (inputs, expect): `inputs` is everything the child sends to
    ruledgeo (set-up surfaces and rounds of requests); `expect` is what the
    checkers need: a desc per request id (build) or per surface (query).
    Spec files are written to spec_dir.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        rounds = [[{"id": r, "kind": "verify", "call": "cli",
                    "argv": ["verify", "--all", "--format", "json"]}]
                  for r in range(ROUNDS)]
        return {"setup": [], "rounds": rounds}, {"requests": {}}
    if workload == "build":
        return _build_plan(rng, spec_dir)
    if workload == "query":
        return _query_plan(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _build_plan(rng, spec_dir):
    os.makedirs(spec_dir, exist_ok=True)
    expect, rounds, rid = {}, [], 0
    for r in range(ROUNDS):
        items = []
        for _ in range(4):
            desc = draw_profile_desc(rng)
            items.append(("build.samples", "invariants", samples_spec(desc), desc, False))
        for kind in GALLERY_TYPES:
            desc = draw_general(draw_closed_desc(kind, rng), rng)
            items.append(("build.general", "classify", general_spec(desc), desc, True))
        for i in range(14):
            desc = draw_closed_desc(GALLERY_TYPES[i % 4], rng)
            verb = "classify" if i < 7 else "invariants"
            items.append((f"build.standard.{verb}", verb, expression_spec(desc), desc, False))
        for kind, gen in KNOWN_HOLES.items():
            items.append((kind, "classify", gen(rng), None, False))
        kind = sorted(BAD_CLASSES)[r % len(BAD_CLASSES)]
        items.append((kind, "classify", BAD_CLASSES[kind](rng), None, False))
        rng.shuffle(items)
        reqs = []
        for kind, verb, doc, desc, std in items:
            path = os.path.join(spec_dir, f"r{r:03d}-{rid:05d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc if isinstance(doc, str) else json.dumps(doc))
            argv = [verb, "--spec", path, "--grid", "33" if verb == "classify" else "17"]
            if verb == "invariants":
                argv += ["--format", "json"]
            if std:
                argv.append("--standardize")
            reqs.append({"id": rid, "kind": kind, "call": "cli", "argv": argv})
            expect[str(rid)] = {"desc": desc, "verb": verb}
            rid += 1
        rounds.append(reqs)
    return {"setup": [], "rounds": rounds}, {"requests": expect}


# query: four surfaces built at set-up, then a stream of library calls

QUERY_STEPS = 50
QUERY_STEP_SIZE = 0.02


def _query_surfaces(rng):
    gallery = draw_closed_desc("hyperboloid_edlinger", rng, rotate=False)
    standard = draw_closed_desc("orthoid_const_delta", rng)
    # unrotated: its evaluation already costs over ten times the gallery's
    general = draw_general(draw_closed_desc("right_helicoid", rng, rotate=False), rng)
    profile = draw_profile_desc(rng)
    setup = [
        {"key": "gallery", "via": "gallery", "name": gallery["type"],
         "params": gallery["params"]},
        {"key": "standard", "via": "spec", "spec": expression_spec(standard),
         "standardize": False},
        {"key": "general", "via": "spec", "spec": general_spec(general),
         "standardize": True},
        {"key": "profile", "via": "invariants",
         "profiles": list(profile_strings(profile)), "domain": profile["domain"]},
    ]
    descs = {"gallery": gallery, "standard": standard, "general": general,
             "profile": profile}
    return setup, descs


def _grid(rng, desc, n):
    lo, hi = desc["domain"]
    return [lo + rng.uniform(0.0, 0.3), hi - rng.uniform(0.0, 0.3), n]


def _query_plan(rng):
    setup, descs = _query_surfaces(rng)
    rounds, rid = [], 0
    for _ in range(ROUNDS):
        items = []
        for key, desc in descs.items():
            for fam in FAMILIES:
                u0 = rng.uniform(0.3, 1.0)
                v0 = _signed(rng, 1.0, 1.3)
                items.append((f"query.trace.{key}", key,
                              {"op": "trace", "family": fam, "u0": u0, "v0": v0,
                               "steps": QUERY_STEPS, "h": QUERY_STEP_SIZE}))
            fams = FAMILIES if "profile" in desc else sorted(TABLE_FITS[desc["type"]])
            for fam in fams:
                items.append((f"query.fit.{key}", key,
                              {"op": "fit", "family": fam, "grid": _grid(rng, desc, 33)}))
            items.append((f"query.classify.{key}", key,
                          {"op": "classify", "grid": _grid(rng, desc, 256)}))
            items.append((f"query.extract.{key}", key,
                          {"op": "extract", "grid": _grid(rng, desc, 257)}))
        rng.shuffle(items)
        reqs = []
        for kind, key, args in items:
            reqs.append(dict(args, id=rid, kind=kind, call="lib", surface=key))
            rid += 1
        rounds.append(reqs)
    return {"setup": setup, "rounds": rounds}, {"requests": {}, "surfaces": descs}
