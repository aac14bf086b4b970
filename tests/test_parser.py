"""Expression grammar, jet evaluation, and positioned syntax errors."""

import math

import numpy as np
import pytest

from ruledgeo.errors import ExpressionSyntaxError, UnknownIdentifier
from ruledgeo.parser import parse_expression

from conftest import fd_jet

# 30 well-formed fixtures: (source, evaluation point)
FIXTURES = [
    ("cos(u)", 0.0),
    ("sin(u)", 0.7),
    ("tan(u/3)", 1.2),
    ("sqrt(u+2)", 0.5),
    ("exp(-u^2)", 0.8),
    ("log(u+3)", 0.0),
    ("sinh(u/2)", -0.4),
    ("cosh(u)", 0.3),
    ("u^2 + 3", 2.0),
    ("u^3 - 2*u", 1.5),
    ("1/(1+u^2)", 0.9),
    ("(u+1)/(u-2)", 0.5),
    ("-u^2", 1.1),
    ("2^u", 1.3),
    ("u^0.5", 2.25),
    ("pi*u", 0.4),
    ("sin(u)*cos(u)", 0.6),
    ("sin(cos(u))", 1.0),
    ("exp(sin(u))", 0.2),
    ("log(cosh(u))", 0.7),
    ("sqrt(1+sin(u)^2)", 1.4),
    ("u*exp(-u)", 2.0),
    ("(1+u)^-2", 0.3),
    ("tan(u)^2", 0.5),
    ("sinh(u)*cosh(u)", 0.25),
    ("u/(1+exp(-u))", 0.8),
    ("cos(u^2)", 0.9),
    ("sqrt(u^2+1)", -1.2),
    ("exp(u)/(2+sin(u))", 0.35),
    ("u^4 - u^2 + 1", 1.05),
]

# malformed fixtures: (source, expected 0-based error position)
MALFORMED = [
    ("cos(u", 5),
    ("1+", 2),
    ("(u))", 3),
    ("u +* 2", 3),
    ("foo(u)", 0),
    ("sin u", 4),
    ("", 0),
    ("3 + * 4", 4),
    ("cos()", 4),
    ("u^", 2),
]


def test_spec_examples():
    assert parse_expression("cos(u)").eval_jet(0.0).value == 1.0
    j = parse_expression("cos(u)").eval_jet(0.0)
    assert j.d1 == 0.0 and j.d2 == -1.0
    j = parse_expression("u^2 + 3").eval_jet(2.0)
    assert (j.value, j.d1, j.d2) == (7.0, 4.0, 2.0)
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("cos(u")
    assert exc.value.position == 5


@pytest.mark.parametrize("src,u0", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_jets_match_finite_differences(src, u0):
    expr = parse_expression(src)
    jet = expr.eval_jet(u0)
    d1, d2 = fd_jet(expr.eval, u0)
    assert abs(jet.d1 - d1) <= 1e-6 * max(1.0, abs(d1))
    assert abs(jet.d2 - d2) <= 1e-6 * max(1.0, abs(d2))
    assert math.isclose(jet.value, expr.eval(u0), rel_tol=1e-15, abs_tol=1e-300)


@pytest.mark.parametrize("src,pos", MALFORMED, ids=[repr(m[0]) for m in MALFORMED])
def test_malformed_positions(src, pos):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression(src)
    assert exc.value.position == pos


def test_unknown_identifier_type():
    with pytest.raises(UnknownIdentifier) as exc:
        parse_expression("2*quux + 1")
    assert exc.value.name == "quux"
    assert exc.value.position == 2


def test_precedence_and_unary_minus():
    e = parse_expression("-u^2")
    assert e.eval(3.0) == -9.0  # -(u^2), not (-u)^2
    assert parse_expression("2^-2").eval(0.0) == 0.25
    assert parse_expression("2*3+4").eval(0.0) == 10.0
    assert parse_expression("2+3*4").eval(0.0) == 14.0
    assert parse_expression("2^3^2").eval(0.0) == 512.0  # right-assoc
    assert parse_expression("--u").eval(5.0) == 5.0


def test_float_and_jet_paths_agree():
    expr = parse_expression("sin(u)^2/(1+cos(u))")
    for u in (0.2, 1.1, 2.7):
        assert math.isclose(expr.eval(u), expr.eval_jet(u).value, rel_tol=1e-15)


def test_grid_evaluation_matches_points():
    # one array seed evaluates every fixture on a grid around its point;
    # numpy's transcendental functions may differ from math's by an ulp
    for src, u0 in FIXTURES:
        expr = parse_expression(src)
        us = u0 + np.linspace(-0.05, 0.05, 5)
        grid = expr.eval_jet(us)
        for i, u in enumerate(us.tolist()):
            point = expr.eval_jet(u)
            for got, want in zip((grid.value, grid.d1, grid.d2, grid.d3),
                                 (point.value, point.d1, point.d2, point.d3)):
                got = np.broadcast_to(got, us.shape)[i]
                assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-13), (src, u)


def test_constants_stay_float():
    # constant subtrees evaluate to plain floats even with a jet seed
    expr = parse_expression("pi/2 + 0*u")
    assert math.isclose(expr.eval_jet(1.0).value, math.pi / 2)
    assert expr.eval(1.0) == math.pi / 2 + 0.0


def test_whitespace_and_scientific_numbers():
    assert parse_expression(" 1.5e2 *  u ").eval(2.0) == 300.0
    assert parse_expression(".5*u").eval(4.0) == 2.0
    assert parse_expression("2.e1").eval(0.0) == 20.0


# shared-subexpression programs against a recursive walk of the tree ------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ruledgeo import parser  # noqa: E402
from ruledgeo.jets import Jet2  # noqa: E402
from ruledgeo.parser import compile_program  # noqa: E402


def tree_eval(node, u):
    """The recursive evaluator the node classes used to carry (the oracle)."""
    if isinstance(node, parser.Num):
        return node.value
    if isinstance(node, parser.Var):
        return u
    if isinstance(node, parser.Neg):
        return -tree_eval(node.arg, u)
    if isinstance(node, parser.Bin):
        return parser.BINARY[node.op](tree_eval(node.left, u), tree_eval(node.right, u))
    return parser.FUNCTIONS[node.name](tree_eval(node.arg, u))


def bits(x):
    """Exact identity of a result: floats by their hex form, arrays by their bytes."""
    if isinstance(x, Jet2):
        return tuple(bits(s) for s in (x.value, x.d1, x.d2, x.d3))
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", x.hex())
    return (type(x).__name__, repr(x))


def outcome(fn):
    """Bits of fn()'s results, or the type and message of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return ("ok", [bits(x) for x in fn()])
    except Exception as exc:  # the oracle and the program must fail alike
        return ("error", type(exc), str(exc))


numbers = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "1e-3", "10", "pi"]),
    st.floats(min_value=0.0, max_value=50.0).map(repr),
)
sources = st.recursive(
    st.one_of(st.just("u"), numbers),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub, st.booleans()).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})" if t[3] else f"{t[0]} {t[1]} {t[2]}"),
        st.tuples(st.sampled_from(sorted(parser.FUNCTIONS)), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda s: f"-({s})"),
        sub.map(lambda s: f"({s})*({s})"),  # a repeat the program must share
    ),
    max_leaves=10,
)
points = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=100, deadline=None)
@given(srcs=st.lists(sources, min_size=1, max_size=3), u=points,
       grid=st.lists(points, min_size=1, max_size=4))
def test_program_matches_tree_walk_bit_for_bit(srcs, u, grid):
    roots = [parser._Parser(s).parse() for s in srcs]
    program = compile_program(roots)
    us = np.array(grid)
    for seed in (u, Jet2.variable(u), Jet2.variable(us)):
        want = outcome(lambda: [tree_eval(r, seed) for r in roots])
        got = outcome(lambda: program.run(seed))
        assert got == want, (srcs, seed)
    # a one-root program behind each Expression
    for s in srcs:
        expr = parse_expression(s)
        assert outcome(lambda: [expr.eval(u)]) == outcome(lambda: [tree_eval(expr.root, u)])


def _tree_ops(node):
    if isinstance(node, (parser.Num, parser.Var)):
        return 0
    if isinstance(node, parser.Bin):
        return 1 + _tree_ops(node.left) + _tree_ops(node.right)
    return 1 + _tree_ops(node.arg)


def test_program_computes_each_subexpression_once():
    srcs = ["2*sin(u+1)*cos(u+1)", "sin(u+1)^2 - cos(u+1)^2", "cos(u+1)*(2 - 0)"]
    roots = [parse_expression(s).root for s in srcs]
    assert sum(map(_tree_ops, roots)) == 17
    # 6 + 7 + 4 tree operations; shared within each expression 5 + 6 + 4;
    # across them u+1, sin, 2*sin, cos, 2*sin*cos, sin^2, cos^2, their
    # difference, 2-0 and cos*(2-0)
    assert [len(compile_program([r]).code) for r in roots] == [5, 6, 4]
    assert len(compile_program(roots).code) == 10
    # 0 and -0 are different constants
    program = compile_program([parse_expression("u*0").root, parser.Bin(
        "*", parser.Var(), parser.Num(-0.0))])
    assert len(program.consts) == 2
    x, y = program.run(1.0)
    assert math.copysign(1.0, x) == 1.0 and math.copysign(1.0, y) == -1.0


def test_program_raises_the_first_error_of_the_tree_walk():
    # log(u - 2) fails before 1/(u - 1) in the walk; at u = 1 both would
    roots = [parse_expression(s).root for s in ("log(u - 2)", "1/(u - 1)")]
    with pytest.raises(ValueError, match="log"):
        compile_program(roots).run(Jet2.variable(1.0))
    with pytest.raises(ZeroDivisionError):
        compile_program(roots[::-1]).run(Jet2.variable(1.0))


def test_nesting_is_bounded_and_long_sums_compile():
    from ruledgeo.parser import MAX_DEPTH

    deep = "(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH
    with pytest.raises(ExpressionSyntaxError, match="nested deeper") as exc:
        parse_expression(deep)
    assert exc.value.position == MAX_DEPTH
    for src in ("-" * 2000 + "u", "sin(" * 500 + "u" + ")" * 500, "2^" * 1000 + "u"):
        with pytest.raises(ExpressionSyntaxError, match="nested deeper"):
            parse_expression(src)
    shallow = "(" * (MAX_DEPTH - 1) + "u" + ")" * (MAX_DEPTH - 1)
    assert parse_expression(shallow).eval(0.5) == 0.5
    # a sum of n terms is a tree n deep; compiling and running it recurse nowhere
    expr = parse_expression(" + ".join(["u"] * 5000))
    assert expr.eval(1.0) == 5000.0
    jet = expr.eval_jet(2.0)
    assert (jet.value, jet.d1, jet.d2) == (10000.0, 5000.0, 0.0)
