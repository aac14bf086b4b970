"""Jet arithmetic facade over the one jet kernel, `_jet_py.Jet2`.

The module-level math functions dispatch on their argument, so the same
closure evaluates over plain floats (cheap value-only path), over `Jet2`
seeds (derivative-carrying path), and over whole grids: numpy arrays of
values, or jets whose slots are arrays.
"""

import math

import numpy as np

from ._jet_py import Jet2


def backend_name():
    """Name of the jet kernel: always 'python', the only kernel."""
    return "python"


def as_jet(x):
    """Coerce a number to a constant jet; pass jets through."""
    if isinstance(x, Jet2):
        return x
    return Jet2(x, 0.0, 0.0, 0.0)


def compose(outer, inner):
    """Jet of f(g(t)) from the jet of f at g's value and the jet of g in t."""
    g1, g2, g3 = inner.d1, inner.d2, inner.d3
    return Jet2(
        outer.value,
        outer.d1 * g1,
        outer.d2 * g1 * g1 + outer.d1 * g2,
        outer.d3 * g1 * g1 * g1 + 3.0 * outer.d2 * g1 * g2 + outer.d1 * g3,
    )


def first_true(mask):
    """Where a check first holds: the index of the first true element of a
    bool array, `()` for a true scalar, None when it holds nowhere.

    `np.asarray(x)[index]` then picks the matching element of an x shaped
    like the mask, so one error message serves floats and grids.
    """
    if isinstance(mask, np.ndarray):
        return int(np.argmax(mask)) if mask.any() else None
    return () if mask else None


# float-, array- or jet-valued elementary functions ----------------------------


def _elementary(name, domain=None):
    """`name` as the `Jet2` method for jets, from numpy for arrays and from
    math for numbers. `domain`, if given, tells which array elements are
    valid; outside it an array raises ValueError as math does."""
    method, array, scalar = getattr(Jet2, name), getattr(np, name), getattr(math, name)

    def fn(x):
        if isinstance(x, Jet2):
            return method(x)
        if isinstance(x, np.ndarray):
            if domain is not None and not domain(x).all():
                raise ValueError(f"{name} of a value outside its domain")
            return array(x)
        return scalar(x)

    fn.__name__ = fn.__qualname__ = name
    return fn


sin = _elementary("sin")
cos = _elementary("cos")
tan = _elementary("tan")
sqrt = _elementary("sqrt", lambda x: x >= 0.0)
exp = _elementary("exp")
log = _elementary("log", lambda x: x > 0.0)
sinh = _elementary("sinh")
cosh = _elementary("cosh")


# R^3 helpers over float-or-jet components -----------------------------------


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def triple(a, b, c):
    """Scalar triple product (a, b, c) = <a, b x c>."""
    return dot(a, cross(b, c))


def norm(a):
    return sqrt(dot(a, a))


def scale(a, f):
    return (a[0] * f, a[1] * f, a[2] * f)


def sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def deriv3(a):
    """Component-wise jet derivative of a jet triple."""
    return (a[0].derivative(), a[1].derivative(), a[2].derivative())


def values3(a):
    return (as_jet(a[0]).value, as_jet(a[1]).value, as_jet(a[2]).value)
