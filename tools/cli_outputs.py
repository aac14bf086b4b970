"""Record the outputs of a fixed list of ruledgeo CLI calls, or compare two records.

    python tools/cli_outputs.py OUT.json [--src SRC_DIR]
    python tools/cli_outputs.py --compare A.json B.json

The list of calls is fixed:
- the specs of the first `ROUNDS` rounds of the `build` benchmark plan of
  seed 7 (`perfbench/workloads.make_plan`, read only), each with the
  `--standardize` flag its plan request carries;
- the general (base curve, director) pairs of `GENERAL`, with the
  `--standardize` flag: they reach `exp`, a fractional power, `sqrt` of a
  u-dependent value, a director whose orientation `standardize` flips and
  an exponent that is a constant expression of u;
- the `generic_skew` gallery surface of seeds 0 and 1;
- each closed-form gallery member (`CLOSED_FORM`) at the parameters
  `verify` uses, at int parameters, and at parameters drawn with seed
  `SEED` on the domain `DRAWN_DOMAIN`, which reaches negative u;
- for each of these specs: `classify`, `invariants --format json`, `fit`
  on each of the six families and `trace --format json` on each family;
- `verify --all --format json`.

Each call runs in-process through `ruledgeo.cli.run`, imported from
SRC_DIR (default: the `src` directory of this checkout), so one copy of
this script records any checkout. The record holds argv, stdout, stderr
and the exit code of every call; the temporary spec directory reads as
`<specs>` in all of them.

`--compare` prints how many calls differ, then, for each verb and JSON key
(list positions dropped), the worst float difference |a - b| / max(1, |a|)
between the records, and every difference that is not one of floats:
exit codes, stderr, strings, booleans, integers and output shape. It exits
0 when the records are identical and 1 when any call differs, or when they
hold different call lists, so it can gate byte-identical outputs.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
ROUNDS = 4
FAMILIES = ("lc1", "lc2", "s1", "s2", "s3", "s4")
SPECS = "<specs>"
# closed-form gallery members: the verify parameters, int parameters, and the
# ranges of the drawn ones
CLOSED_FORM = {
    "right_helicoid": ({"c": 1.0}, {"c": 2}, {"c": (-3.0, -0.2)}),
    "hyperboloid_edlinger": ({"c": 1.0}, {"c": 3}, {"c": (0.2, 3.0)}),
    "orthoid_const_delta": ({"r": 0.6, "delta": 1.0}, {"r": 0.5, "delta": -2},
                            {"r": (0.1, 0.9), "delta": (-3.0, -0.2)}),
    "conoidal_const_delta": ({"alpha": 2.0, "beta": 1.0}, {"alpha": 3, "beta": -2},
                             {"alpha": (0.2, 3.0), "beta": (-3.0, -0.2)}),
}
DRAWN_DOMAIN = [-3.0, 1.0]
# general pairs for --standardize: (cx, cy, cz), (dx, dy, dz) on [0, 2 pi]
GENERAL = {
    "helicoid": (("0.5*cos(u)*cos(u + 0.3*sin(u))", "0.5*cos(u)*sin(u + 0.3*sin(u))",
                  "1.1*(u + 0.3*sin(u))"),
                 ("(1.5 + 0.5*sin(u + 1))*cos(u + 0.3*sin(u))",
                  "(1.5 + 0.5*sin(u + 1))*sin(u + 0.3*sin(u))", "0")),
    "edlinger": (("cos(u)", "sin(u)", "0"),
                 ("-sin(u)/sqrt(2)", "cos(u)/sqrt(2)", "1/sqrt(2)")),
    "edlinger-flipped": (("cos(u)", "sin(u)", "0"),
                         ("sin(u)/sqrt(2)", "-cos(u)/sqrt(2)", "-1/sqrt(2)")),
    "exp-pow": (("2*sin(u)", "-2*cos(u)", "3*u + u^2/8"),
                ("cos(u)", "sin(u)*(1 + u^2/9)^-0.25", "0.1*exp(u/5)")),
    "sqrt": (("cos(u)", "sin(u)", "0.5*u"), ("-sin(u)", "cos(u)", "sqrt(1 + u^2/4)")),
    "const-exponent": (("2*sin(u)", "-2*cos(u)",
                        "2*u + (u + 2)^(0*u + 3)/40 + (u + 2)^(0*u + 5)/400"),
                       ("cos(u)", "sin(u)", "0.2")),
}


def _specs(spec_dir):
    """(path, standardize) of every spec the list uses, written to spec_dir."""
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import workloads

    inputs, _ = workloads.make_plan("build", SEED, spec_dir)
    specs = [(req["argv"][2], "--standardize" in req["argv"])
             for reqs in inputs["rounds"][:ROUNDS] for req in reqs]
    for name, (base, director) in GENERAL.items():
        path = os.path.join(spec_dir, f"general-{name}.json")
        doc = dict(zip(("cx", "cy", "cz", "dx", "dy", "dz"), base + director))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"type": "expression", **doc, "domain": [0.0, 2.0 * math.pi]}, fh)
        specs.append((path, True))
    gallery = [("generic_skew", f"seed-{seed}", {"seed": seed}) for seed in (0, 1)]
    rng = random.Random(SEED)
    for name, (verify, ints, ranges) in CLOSED_FORM.items():
        drawn = {key: rng.uniform(lo, hi) for key, (lo, hi) in ranges.items()}
        gallery += [(name, "verify", verify), (name, "int", ints),
                    (name, "drawn", {**drawn, "domain": DRAWN_DOMAIN})]
    for name, tag, params in gallery:
        path = os.path.join(spec_dir, f"{name}-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"type": "gallery", "name": name, "params": params}, fh)
        specs.append((path, False))
    return specs


def _calls(specs):
    calls = []
    for path, std in specs:
        flag = ["--spec", path] + (["--standardize"] if std else [])
        calls.append(["classify", *flag, "--grid", "33"])
        calls.append(["invariants", *flag, "--grid", "17", "--format", "json"])
        for family in FAMILIES:
            calls.append(["fit", *flag, "--family", family])
        for family in FAMILIES:
            calls.append(["trace", *flag, "--family", family, "--u0", "0.5", "--v0", "0.3",
                          "--steps", "40", "--step-size", "0.02", "--format", "json"])
    calls.append(["verify", "--all", "--format", "json"])
    return calls


def record(out_path, src):
    sys.path.insert(0, src)
    import ruledgeo.cli

    with tempfile.TemporaryDirectory() as spec_dir:
        rows = []
        for argv in _calls(_specs(spec_dir)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ruledgeo.cli.run(argv)
            rows.append({
                "argv": [a.replace(spec_dir, SPECS) for a in argv],
                "exit": code,
                "stdout": out.getvalue().replace(spec_dir, SPECS),
                "stderr": err.getvalue().replace(spec_dir, SPECS),
            })
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"src": src, "calls": rows}, fh, indent=1)
    print(f"{len(rows)} calls recorded in {out_path}")


def _leaves(obj, key=""):
    """(key, leaf) pairs of a JSON document, list positions dropped."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v, key)
    else:
        yield key, obj


def _parse(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def compare(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        a_rows = json.load(fh)["calls"]
    with open(path_b, encoding="utf-8") as fh:
        b_rows = json.load(fh)["calls"]
    if [r["argv"] for r in a_rows] != [r["argv"] for r in b_rows]:
        print("the records hold different call lists")
        return 1
    worst, other, differ = {}, [], 0
    for a, b in zip(a_rows, b_rows):
        if a == b:
            continue
        differ += 1
        verb, where = a["argv"][0], " ".join(a["argv"])
        for field in ("exit", "stderr"):
            if a[field] != b[field]:
                other.append(f"{where}: {field} {a[field]!r} -> {b[field]!r}")
        doc_a, doc_b = _parse(a["stdout"]), _parse(b["stdout"])
        leaves_a, leaves_b = list(_leaves(doc_a)), list(_leaves(doc_b))
        if len(leaves_a) != len(leaves_b) or isinstance(doc_a, str):
            if a["stdout"] != b["stdout"]:
                other.append(f"{where}: stdout differs in shape or is not JSON")
            continue
        for (key, x), (key_b, y) in zip(leaves_a, leaves_b):
            if x == y and type(x) is type(y):
                continue
            if key != key_b or not (type(x) is type(y) is float):
                other.append(f"{where}: {key} {x!r} -> {key_b} {y!r}")
                continue
            rel = abs(x - y) / max(1.0, abs(x))
            if rel >= worst.get((verb, key), (0.0, ""))[0]:
                worst[(verb, key)] = (rel, where)
    print(f"{differ} of {len(a_rows)} calls differ")
    for (verb, key), (rel, where) in sorted(worst.items()):
        print(f"{verb:10s} {key:28s} worst |a-b|/max(1,|a|) = {rel:.3g}  ({where})")
    for line in other:
        print("not a float:", line)
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="record path to write")
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="directory to import ruledgeo from")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records instead of writing one")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT.json or --compare A B")
    record(args.out, os.path.abspath(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
