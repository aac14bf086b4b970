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
