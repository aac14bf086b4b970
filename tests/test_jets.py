"""Jet arithmetic: Taylor rules, derivative correctness, grid (array) slots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledgeo import jets
from ruledgeo.jets import Jet2

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def jets_close(a, b, tol=1e-12):
    return (
        math.isclose(a.value, b.value, rel_tol=tol, abs_tol=tol)
        and math.isclose(a.d1, b.d1, rel_tol=tol, abs_tol=tol)
        and math.isclose(a.d2, b.d2, rel_tol=tol, abs_tol=tol)
        and math.isclose(a.d3, b.d3, rel_tol=tol, abs_tol=tol)
    )


def test_seed_jets():
    c = Jet2.constant(4.5)
    assert (c.value, c.d1, c.d2, c.d3) == (4.5, 0.0, 0.0, 0.0)
    v = Jet2.variable(2.0)
    assert (v.value, v.d1, v.d2, v.d3) == (2.0, 1.0, 0.0, 0.0)


def test_product_rule_first_order():
    f = Jet2(2.0, 3.0, 4.0, 5.0)
    g = Jet2(7.0, -1.0, 0.5, 2.0)
    p = f * g
    assert p.d1 == f.d1 * g.value + f.value * g.d1


def test_product_against_polynomial():
    # (u^2)(u^3) = u^5 has exact derivatives at any u
    u = Jet2.variable(1.3)
    p = (u * u) * (u * u * u)
    x = 1.3
    assert math.isclose(p.value, x**5, rel_tol=1e-15)
    assert math.isclose(p.d1, 5 * x**4, rel_tol=1e-14)
    assert math.isclose(p.d2, 20 * x**3, rel_tol=1e-14)
    assert math.isclose(p.d3, 60 * x**2, rel_tol=1e-14)


def test_division_inverts_product():
    f = Jet2(2.0, 3.0, -4.0, 5.0)
    g = Jet2(0.7, -1.0, 0.5, 2.0)
    assert jets_close((f * g) / g, f)


def test_quotient_of_sines():
    u = Jet2.variable(0.4)
    q = u.sin() / u.cos()  # tan
    t = u.tan()
    assert jets_close(q, t, tol=1e-13)


def test_float_mixing():
    u = Jet2.variable(1.5)
    a = 2.0 * u + 1.0
    assert (a.value, a.d1) == (4.0, 2.0)
    b = 1.0 - u
    assert (b.value, b.d1) == (-0.5, -1.0)
    c = 6.0 / u
    assert math.isclose(c.d1, -6.0 / 1.5**2)
    d = u / 2
    assert d.value == 0.75


def test_integer_power_at_zero():
    z = Jet2.variable(0.0)
    p = z**2 + 3.0
    assert (p.value, p.d1, p.d2) == (3.0, 0.0, 2.0)
    with pytest.raises(ZeroDivisionError):
        z**-1


def test_power_variants():
    u = Jet2.variable(2.25)
    assert jets_close(u**0.5, u.sqrt(), tol=1e-13)
    e = 2.0**Jet2.variable(1.0)
    assert math.isclose(e.value, 2.0)
    assert math.isclose(e.d1, 2.0 * math.log(2.0))
    uu = Jet2.variable(2.0) ** Jet2.variable(2.0)
    # d/du u^u = u^u (log u + 1)
    assert math.isclose(uu.d1, 4.0 * (math.log(2.0) + 1.0), rel_tol=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        Jet2.constant(-1.0).sqrt()
    with pytest.raises(ValueError):
        Jet2.constant(-1.0).log()
    with pytest.raises(ValueError):
        Jet2.constant(-1.0) ** 0.5
    with pytest.raises(ZeroDivisionError):
        Jet2.variable(1.0) / Jet2.constant(0.0)


@pytest.mark.parametrize(
    "name",
    ["sin", "cos", "tan", "exp", "sinh", "cosh", "sqrt", "log"],
)
def test_elementary_derivatives_match_fd(name):
    from conftest import fd_jet

    u0 = 0.7  # inside every function's domain
    jet = getattr(Jet2.variable(u0), name)()
    f = lambda x: getattr(math, name)(x)
    d1, d2 = fd_jet(f, u0)
    assert abs(jet.d1 - d1) <= 1e-6 * max(1.0, abs(d1))
    assert abs(jet.d2 - d2) <= 1e-6 * max(1.0, abs(d2))


@settings(max_examples=200, deadline=None)
@given(x=finite, y=finite)
def test_sum_rule_property(x, y):
    f = Jet2(x, 1.0, 0.5, 0.25)
    g = Jet2(y, -2.0, 1.5, 0.125)
    s = f + g
    assert s.value == x + y
    assert s.d1 == -1.0 and s.d2 == 2.0 and s.d3 == 0.375


@settings(max_examples=200, deadline=None)
@given(u=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_sin_cos_pythagoras_property(u):
    j = Jet2.variable(u)
    one = j.sin() * j.sin() + j.cos() * j.cos()
    assert math.isclose(one.value, 1.0, abs_tol=1e-14)
    assert abs(one.d1) < 1e-13 and abs(one.d2) < 1e-13 and abs(one.d3) < 1e-12


def test_derivative_shift():
    u = Jet2.variable(0.9)
    s = u.sin()
    sp = s.derivative()
    assert sp.value == s.d1 and sp.d1 == s.d2 and sp.d2 == s.d3 and sp.d3 == 0.0


# grid jets: array slots against scalar jets, element by element -------------

# Every operation below is defined on this box: values in [0.1, 1.4] keep
# sqrt, log, fractional powers and division valid and tan away from its poles.
grid_value = st.floats(min_value=0.1, max_value=1.4)
grid_slope = st.floats(min_value=-2.0, max_value=2.0)
grid_jet = st.tuples(grid_value, grid_slope, grid_slope, grid_slope)

# Both paths run the same IEEE operations and math's functions (numpy's
# sin, cos and sqrt give math's bits), so grids match to rounding.
EXACT = 1e-15
UNARY = {
    "neg": lambda a: -a,
    "derivative": Jet2.derivative,
    "float_mix": lambda a: 1.5 - 2.0 * a / 3.0 + 0.25 * (1.0 - a),
    "reciprocal": lambda a: 1.0 / a,
    "pow_int": lambda a: a**3,
    "pow_neg_int": lambda a: a**-2,
    "sin": Jet2.sin,
    "cos": Jet2.cos,
    "sqrt": Jet2.sqrt,
    "log": Jet2.log,
    "tan": Jet2.tan,
    "exp": Jet2.exp,
    "sinh": Jet2.sinh,
    "cosh": Jet2.cosh,
    "pow_frac": lambda a: a**0.7,
    "rpow": lambda a: 2.0**a,
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def stack(rows):
    """One grid jet whose element i is the scalar jet rows[i]."""
    return Jet2(*(np.array(col) for col in zip(*rows)))


def assert_grid_matches(grid, scalars, tol=EXACT):
    """Each element of every slot equals the scalar jets' slot to `tol`,
    relative to the size of that scalar jet."""
    for i, ref in enumerate(scalars):
        ref_slots = (ref.value, ref.d1, ref.d2, ref.d3)
        size = max(map(abs, ref_slots))
        for got, want in zip((grid.value, grid.d1, grid.d2, grid.d3), ref_slots):
            got = np.broadcast_to(got, (len(scalars),))[i]
            assert abs(got - want) <= tol * size, (i, got, want)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(grid_jet, min_size=1, max_size=6))
def test_grid_unary_ops_match_scalar_jets(rows):
    grid = stack(rows)
    for name, op in UNARY.items():
        assert_grid_matches(op(grid), [op(Jet2(*r)) for r in rows])


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(grid_jet, grid_jet), min_size=1, max_size=6))
def test_grid_binary_ops_match_scalar_jets(pairs):
    a = stack([p for p, _ in pairs])
    b = stack([q for _, q in pairs])
    for name, op in BINARY.items():
        assert_grid_matches(op(a, b), [op(Jet2(*p), Jet2(*q)) for p, q in pairs])
        # a scalar jet broadcasts against a grid jet
        q0 = pairs[0][1]
        assert_grid_matches(op(a, Jet2(*q0)), [op(Jet2(*p), Jet2(*q0)) for p, _ in pairs])
        # and so does a plain array of numbers, on either side
        values = np.array([q[0] for _, q in pairs])
        assert_grid_matches(op(a, values), [op(Jet2(*p), q[0]) for p, q in pairs])
        assert_grid_matches(op(values, a), [op(q[0], Jet2(*p)) for p, q in pairs])
    # A grid exponent with any nonzero slope is exp(b log a) throughout, a
    # chain of the operations above; a constant one is a number exponent.
    varying = any(slope != 0.0 for _, q in pairs for slope in q[1:])
    assert (a**b) == ((b * a.log()).exp() if varying else a**b.value)


def test_grid_seed_broadcasts_scalar_slots():
    us = np.array([0.3, 0.9, 1.2])
    u = Jet2.variable(us)
    assert u.value is us and (u.d1, u.d2, u.d3) == (1.0, 0.0, 0.0)
    left = us * u.sin() + 1.0
    assert isinstance(left, Jet2)  # a numpy array on the left defers to the jet
    assert_grid_matches(left, [x * Jet2.variable(x).sin() + 1.0 for x in us])
    assert u == Jet2.variable(us.copy())


def test_grid_domain_errors():
    bad = Jet2(np.array([1.0, -1.0, 2.0]), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bad.sqrt()
    with pytest.raises(ValueError):
        bad.log()
    with pytest.raises(ValueError):
        bad**0.5
    with pytest.raises(ValueError):
        Jet2(np.array([1.0, 0.0]), 1.0).sqrt()
    with pytest.raises(ZeroDivisionError):
        Jet2.variable(np.ones(3)) / Jet2(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ZeroDivisionError):
        Jet2.variable(np.ones(2)) / np.array([2.0, 0.0])


def test_facade_dispatches_arrays():
    from ruledgeo import jets

    xs = np.array([0.2, 0.7, 1.3])
    for name in ("sin", "cos", "tan", "sqrt", "exp", "log", "sinh", "cosh"):
        fn = getattr(jets, name)
        np.testing.assert_allclose(fn(xs), [getattr(math, name)(x) for x in xs],
                                   rtol=EXACT)
        assert_grid_matches(fn(Jet2.variable(xs)), [fn(Jet2.variable(x)) for x in xs])
    with pytest.raises(ValueError):
        jets.sqrt(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        jets.log(np.array([1.0, 0.0]))
    assert jets.first_true(np.array([False, True, True])) == 1
    assert jets.first_true(np.array([False, False])) is None
    assert jets.first_true(True) == () and jets.first_true(False) is None


# numpy's tan, exp, log, sinh, cosh and power differ from math's in the last
# bit on a share of arguments (x**2 on about 1 in 1 000); the jet kernel
# takes math's functions on arrays, so a grid is its points bit for bit
ARRAY_RULES = {
    "sin": Jet2.sin,
    "cos": Jet2.cos,
    "tan": Jet2.tan,
    "sqrt": Jet2.sqrt,  # its d3 slot divides by value**2
    "exp": Jet2.exp,
    "log": Jet2.log,
    "sinh": Jet2.sinh,
    "cosh": Jet2.cosh,
    "pow_quarter": lambda a: a**-0.25,
    "pow_three_halves": lambda a: a**1.5,
    "rpow": lambda a: 2.0**a,
    "pow_array_exponent": lambda a: a ** (0.5 + 0.0 * a.value),
}


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(ARRAY_RULES))
def test_array_jets_equal_float_jets_bit_for_bit(name):
    rng = np.random.default_rng(20)
    n = 20_000
    slots = [rng.uniform(0.05, 3.0, n), *rng.uniform(-2.0, 2.0, (3, n))]
    rule = ARRAY_RULES[name]
    grid = rule(Jet2(*slots))
    points = [rule(Jet2(*row)) for row in zip(*(x.tolist() for x in slots))]
    for slot in ("value", "d1", "d2", "d3"):
        want = [getattr(p, slot) for p in points]
        got = np.broadcast_to(getattr(grid, slot), (n,))
        assert np.array_equal(_bits(got), _bits(want)), slot
    fn = getattr(jets, name, None)
    if fn is not None:  # the module function on a plain array
        assert np.array_equal(_bits(fn(slots[0])), _bits([fn(x) for x in slots[0].tolist()]))


def test_power_broadcasts_an_array_exponent():
    xs, ps = np.array([0.3, 1.7, 2.2]), np.array([0.5, -1.25, 3.0])
    got = jets.power(xs, ps)
    assert np.array_equal(_bits(got), _bits([x**p for x, p in zip(xs.tolist(), ps.tolist())]))
    assert np.array_equal(_bits(jets.power(2.0, ps)), _bits([2.0**p for p in ps.tolist()]))
    assert jets.power(1.5, 2) == 1.5**2
