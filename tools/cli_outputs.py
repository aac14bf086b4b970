"""Record the outputs of a fixed list of ruledgeo CLI calls, or compare two records.

    python tools/cli_outputs.py OUT.json [--src SRC_DIR]
    python tools/cli_outputs.py --compare A.json B.json

The list of calls is fixed:
- the specs of the first `ROUNDS` rounds of the `build` benchmark plan of
  seed 7 (`perfbench/workloads.make_plan`, read only), each with the
  `--standardize` flag its plan request carries;
- the `generic_skew` gallery surface of seeds 0 and 1;
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
exit codes, stderr, strings, booleans, integers and output shape.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
ROUNDS = 4
FAMILIES = ("lc1", "lc2", "s1", "s2", "s3", "s4")
SPECS = "<specs>"


def _specs(spec_dir):
    """(path, standardize) of every spec the list uses, written to spec_dir."""
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import workloads

    inputs, _ = workloads.make_plan("build", SEED, spec_dir)
    specs = [(req["argv"][2], "--standardize" in req["argv"])
             for reqs in inputs["rounds"][:ROUNDS] for req in reqs]
    for seed in (0, 1):
        path = os.path.join(spec_dir, f"generic_skew-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"type": "gallery", "name": "generic_skew", "params": {"seed": seed}}, fh)
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
    return 0


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
