"""Fuzzed SurfaceSpec JSON and verb arguments through `cli.run`.

Whatever the input, the CLI answers with exit code 0, 1 or 2 and lets no
exception escape. Sizes (grids, exponent ranges, trace steps) are drawn
small so that each example runs in milliseconds.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ruledgeo.cli import run

# numbers a spec or an argument may carry, the awkward ones included
numbers = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, math.inf, -math.inf,
                     math.nan]),
    st.integers(min_value=-3, max_value=3),
)
json_values = st.one_of(numbers, st.text(max_size=4), st.none(), st.booleans(),
                        st.lists(numbers, max_size=3))


# (striction line, director) pairs in standard form, and general pairs that
# only load with --standardize
PAIRS = [
    (("0", "0", "u"), ("cos(u)", "sin(u)", "0")),
    (("2*sin(u)", "-2*cos(u)", "u"), ("cos(u)", "sin(u)", "0")),
    (("sin(sqrt(2)*u)", "-cos(sqrt(2)*u)", "0"),
     ("cos(sqrt(2)*u)/sqrt(2)", "sin(sqrt(2)*u)/sqrt(2)", "1/sqrt(2)")),
    (("cos(u)", "sin(u)", "0"), ("-sin(u)/sqrt(2)", "cos(u)/sqrt(2)", "1/sqrt(2)")),
    (("0", "0", "u + u^2/8"), ("(1.5 + 0.5*sin(u))*cos(u)", "(1.5 + 0.5*sin(u))*sin(u)",
                               "0.2")),
]
# components that break a pair: out of a function's domain, a zero divisor,
# an overflow, a torsal or vanishing director, malformed source
BROKEN = ["0", "u", "sqrt(u-3)", "log(u)", "1/(u-1)", "exp(1000*u)", "tan(u)", "u^-1",
          "0^u", "(u-1)^2/2", "1e999*u", "cos(", "foo(u)", ""]
KEYS = ("cx", "cy", "cz", "dx", "dy", "dz")

def sometimes(draw, one_in):
    """True about once in `one_in` draws; False is the simpler example."""
    return draw(st.sampled_from([False] * (one_in - 1) + [True]))


def rarely(draw, valid, odd, one_in=4):
    """Draw from `odd` about once in `one_in` draws, else from `valid`."""
    return draw(odd if sometimes(draw, one_in) else valid)


@st.composite
def expression_specs(draw):
    base, director = draw(st.sampled_from(PAIRS))
    spec = {"type": "expression", **dict(zip(KEYS, base + director))}
    if sometimes(draw, 3):
        spec[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(BROKEN))
    spec["domain"] = rarely(
        draw, st.tuples(st.floats(0.0, 3.0), st.floats(3.5, 6.5)).map(list),
        st.one_of(st.tuples(numbers, numbers).map(list), json_values))
    if sometimes(draw, 10):
        del spec[draw(st.sampled_from(sorted(spec)))]
    return spec


@st.composite
def gallery_specs(draw):
    spec = {"type": "gallery", "name": draw(st.sampled_from(
        ["right_helicoid", "hyperboloid_edlinger", "orthoid_const_delta",
         "conoidal_const_delta", "generic_skew", "no_such_surface"]))}
    params = rarely(draw, st.just({}), st.one_of(
        st.dictionaries(st.sampled_from(["c", "r", "delta", "alpha", "beta", "seed",
                                         "domain", "bogus"]), json_values, max_size=2),
        json_values), one_in=2)
    if params != {}:
        spec["params"] = params
    return spec


@st.composite
def invariant_specs(draw):
    n = draw(st.integers(min_value=4, max_value=7))
    steps = draw(st.lists(st.floats(0.3, 2.0), min_size=n - 1, max_size=n - 1))
    u = [draw(st.floats(-5.0, 5.0))]
    for h in steps:
        u.append(u[-1] + h)
    spec = {"type": "invariants", "u": u,
            "k": draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)),
            "delta": draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)),
            "sigma": draw(st.lists(st.floats(0.1, 1.5), min_size=n, max_size=n))}
    if sometimes(draw, 3):  # break one entry, or drop one array
        key = draw(st.sampled_from(sorted(spec)))
        if key == "type" or draw(st.booleans()):
            del spec[key]
        else:
            spec[key][draw(st.integers(0, n - 1))] = draw(json_values)
    return spec


specs = st.sampled_from(["expression"] * 4 + ["invariants"] * 2 + ["gallery"] * 3
                        + ["junk"]).flatmap(
    lambda kind: {"expression": expression_specs(), "invariants": invariant_specs(),
                  "gallery": gallery_specs(), "junk": json_values}[kind])

families = st.sampled_from(["lc1", "lc2", "s1", "s2", "s3", "s4", "s9"])
# mostly inside the domains above, sometimes not finite or not a number
odd_numbers = st.one_of(numbers.map(repr), st.sampled_from(["nan", "inf", "-inf", "x"]))


@st.composite
def verb_args(draw):
    verb = draw(st.sampled_from(["classify", "invariants", "fit", "trace"]))
    if verb in ("classify", "invariants"):
        argv = [verb, f"--grid={draw(st.integers(-3, 12))}"]
        return argv + (["--format", draw(st.sampled_from(["csv", "json"]))]
                       if verb == "invariants" else [])
    family = rarely(draw, st.sampled_from(["lc1", "lc2", "s1", "s2", "s3", "s4"]),
                    st.just("s9"), one_in=10)
    if verb == "fit":
        n_min, n_max = draw(st.integers(-4, 3)), draw(st.integers(-4, 3))
        return [verb, "--family", family, f"--n-min={n_min}", f"--n-max={n_max}"]
    u0 = rarely(draw, st.floats(0.5, 3.0).map(repr), odd_numbers)
    v0 = rarely(draw, st.floats(-2.0, 2.0).map(repr), odd_numbers)
    h = rarely(draw, st.floats(-0.2, 0.2).map(repr), odd_numbers)
    steps = draw(st.integers(-2, 6))
    return [verb, "--family", family, f"--u0={u0}", f"--v0={v0}", f"--steps={steps}",
            f"--step-size={h}"]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(spec=specs, argv=verb_args(), standardize=st.booleans())
def test_cli_answers_any_spec_and_arguments_with_an_exit_code(
        tmp_path, capsys, spec, argv, standardize):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    full = [argv[0], "--spec", str(path), *argv[1:]]
    if standardize:
        full.append("--standardize")
    code = run(full)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), full
    assert "Traceback" not in err, full
