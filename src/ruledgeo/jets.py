"""Truncated Taylor jets over one point or a whole grid of points.

The slots of a `Jet2` hold Python floats (one point) or 1-d numpy arrays
(a grid, one element per point). Every rule is written once and runs on
both: scalar slots go through `math`, and a scalar slot broadcasts
against an array one. Array slots take `math`'s functions element by
element, except `sin`, `cos` and `sqrt`, whose numpy versions give the
same bits; so a grid gives the same numbers as its points. Callers pass
floats, not numpy scalars, for the scalar path, which is several times
cheaper. The module-level math functions dispatch the same way on
floats, arrays and jets, so one closure evaluates values, derivatives
and whole grids.
"""

import math

import numpy as np

_NUMBER = (int, float, np.ndarray)


def _lib(v):
    """The module whose functions evaluate a slot value: numpy or math."""
    return np if isinstance(v, np.ndarray) else math


def _each(fn, x):
    """fn on every element of an array x, as Python floats: numpy's own
    functions can differ from math's by an ulp."""
    return np.array([fn(y) for y in x.ravel().tolist()]).reshape(x.shape)


def _math(fn, v):
    """math's function fn at a slot value v, element by element on an array."""
    return _each(fn, v) if isinstance(v, np.ndarray) else fn(v)


def _any(mask):
    """Truth of a scalar comparison, or whether any element of an array one holds."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


class Jet2:
    """Taylor jet of a scalar function of u, truncated at order 3.

    `value`, `d1`, `d2` are the function value and its first two
    derivatives with respect to u, each a float or a 1-d array over a grid
    of u. The third-order slot `d3` rides along because the
    striction-line construction consumes three derivatives of its raw
    inputs; consumers that only need order 2 can ignore it. Instances are
    treated as immutable.
    """

    __slots__ = ("value", "d1", "d2", "d3")
    # numpy defers `array op jet` to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, value, d1=0.0, d2=0.0, d3=0.0):
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    @staticmethod
    def constant(c):
        return Jet2(c, 0.0, 0.0, 0.0)

    @staticmethod
    def variable(u):
        """Jet of the identity map at u (seed for evaluating f(u))."""
        return Jet2(u, 1.0, 0.0, 0.0)

    def derivative(self):
        """Jet of the derivative; the top order of the result is unknown (0)."""
        return Jet2(self.d1, self.d2, self.d3, 0.0)

    def __repr__(self):
        return f"Jet2({self.value!r}, {self.d1!r}, {self.d2!r}, {self.d3!r})"

    def __eq__(self, other):
        if isinstance(other, Jet2):
            return all(
                bool(np.all(a == b))
                for a, b in zip((self.value, self.d1, self.d2, self.d3),
                                (other.value, other.d1, other.d2, other.d3))
            )
        return NotImplemented

    # arithmetic -----------------------------------------------------------

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2, -self.d3)

    def __pos__(self):
        return self

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.value + other.value,
                self.d1 + other.d1,
                self.d2 + other.d2,
                self.d3 + other.d3,
            )
        if isinstance(other, _NUMBER):
            return Jet2(self.value + other, self.d1, self.d2, self.d3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.value - other.value,
                self.d1 - other.d1,
                self.d2 - other.d2,
                self.d3 - other.d3,
            )
        if isinstance(other, _NUMBER):
            return Jet2(self.value - other, self.d1, self.d2, self.d3)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet2(other - self.value, -self.d1, -self.d2, -self.d3)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet2):
            # Leibniz rule with binomial weights 1, 3, 3, 1 at order 3.
            return Jet2(
                self.value * other.value,
                self.d1 * other.value + self.value * other.d1,
                self.d2 * other.value + 2.0 * self.d1 * other.d1 + self.value * other.d2,
                self.d3 * other.value
                + 3.0 * self.d2 * other.d1
                + 3.0 * self.d1 * other.d2
                + self.value * other.d3,
            )
        if isinstance(other, _NUMBER):
            return Jet2(
                self.value * other, self.d1 * other, self.d2 * other, self.d3 * other
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            b0 = other.value
            if _any(b0 == 0.0):
                raise ZeroDivisionError("jet division by zero value")
            q0 = self.value / b0
            q1 = (self.d1 - q0 * other.d1) / b0
            q2 = (self.d2 - q0 * other.d2 - 2.0 * q1 * other.d1) / b0
            q3 = (
                self.d3 - q0 * other.d3 - 3.0 * q1 * other.d2 - 3.0 * q2 * other.d1
            ) / b0
            return Jet2(q0, q1, q2, q3)
        if isinstance(other, _NUMBER):
            if _any(other == 0.0):
                raise ZeroDivisionError("jet division by zero")
            inv = 1.0 / other
            return Jet2(self.value * inv, self.d1 * inv, self.d2 * inv, self.d3 * inv)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return Jet2.constant(other).__truediv__(self)
        return NotImplemented

    def __pow__(self, p):
        if isinstance(p, Jet2):
            if not (_any(p.d1 != 0.0) or _any(p.d2 != 0.0) or _any(p.d3 != 0.0)):
                return self.__pow__(p.value)
            if _any(self.value <= 0.0):
                raise ValueError("jet exponent requires a positive base")
            return (p * self.log()).exp()
        if isinstance(p, _NUMBER):
            # an array of exponents takes the fractional rule throughout
            if not isinstance(p, np.ndarray) and float(p).is_integer():
                return self._int_pow(int(p))
            v = self.value
            if _any(v <= 0.0):
                raise ValueError("fractional power of a non-positive jet value")
            f0 = power(v, p)
            f1 = p * power(v, p - 1.0)
            f2 = p * (p - 1.0) * power(v, p - 2.0)
            f3 = p * (p - 1.0) * (p - 2.0) * power(v, p - 3.0)
            return self._compose(f0, f1, f2, f3)
        return NotImplemented

    def __rpow__(self, base):
        if isinstance(base, _NUMBER):
            if _any(base <= 0.0):
                raise ValueError("jet exponent requires a positive base")
            return (self * _math(math.log, base)).exp()
        return NotImplemented

    def _int_pow(self, n):
        if n < 0:
            return 1.0 / self._int_pow(-n)
        result = Jet2.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # elementary functions (chain rule via Faa di Bruno at order 3) --------

    def _compose(self, f0, f1, f2, f3):
        x1, x2, x3 = self.d1, self.d2, self.d3
        return Jet2(
            f0,
            f1 * x1,
            f2 * x1 * x1 + f1 * x2,
            f3 * x1 * x1 * x1 + 3.0 * f2 * x1 * x2 + f1 * x3,
        )

    def sin(self):
        v = self.value
        m = _lib(v)
        s, c = m.sin(v), m.cos(v)
        return self._compose(s, c, -s, -c)

    def cos(self):
        v = self.value
        m = _lib(v)
        s, c = m.sin(v), m.cos(v)
        return self._compose(c, -s, -c, s)

    def tan(self):
        t = _math(math.tan, self.value)
        sec2 = 1.0 + t * t
        return self._compose(t, sec2, 2.0 * t * sec2, (2.0 + 6.0 * t * t) * sec2)

    def sqrt(self):
        v = self.value
        # the derivatives are infinite at 0, so 0 is outside the domain too
        if _any(v <= 0.0):
            raise ValueError("jet sqrt of a non-positive value")
        r = _lib(v).sqrt(v)
        inv = 0.5 / r
        return self._compose(r, inv, -0.5 * inv / v, 0.75 * inv / power(v, 2))

    def exp(self):
        e = _math(math.exp, self.value)
        return self._compose(e, e, e, e)

    def log(self):
        v = self.value
        if _any(v <= 0.0):
            raise ValueError("jet log of a non-positive value")
        f0 = _math(math.log, v)
        return self._compose(f0, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def sinh(self):
        v = self.value
        s, c = _math(math.sinh, v), _math(math.cosh, v)
        return self._compose(s, c, s, c)

    def cosh(self):
        v = self.value
        s, c = _math(math.sinh, v), _math(math.cosh, v)
        return self._compose(c, s, c, s)


def backend_name():
    """Name of the jet kernel: always 'python', the only kernel."""
    return "python"


def as_jet(x):
    """Coerce a number to a constant jet; pass jets through."""
    if isinstance(x, Jet2):
        return x
    return Jet2(x, 0.0, 0.0, 0.0)


def power(x, n):
    """x**n, on arrays element by element with Python's float power:
    numpy's power can differ from it by an ulp, and a grid must give the
    same numbers as its points. An array n broadcasts against x."""
    if isinstance(n, np.ndarray):
        x, n = np.broadcast_arrays(x, n)
        pairs = zip(x.ravel().tolist(), n.ravel().tolist())
        return np.array([y**m for y, m in pairs]).reshape(x.shape)
    if isinstance(x, np.ndarray):
        return np.array([y**n for y in x.ravel().tolist()]).reshape(x.shape)
    return x**n


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


def _elementary(name, domain=None, numpy_agrees=False):
    """`name` as the `Jet2` method for jets and from math for numbers. An
    array takes numpy's function where it agrees with math's bit for bit
    (`numpy_agrees`), else math's element by element. `domain`, if given,
    tells which array elements are valid; outside it an array raises
    ValueError as math does."""
    method, scalar = getattr(Jet2, name), getattr(math, name)
    array = getattr(np, name) if numpy_agrees else (lambda x: _each(scalar, x))

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


sin = _elementary("sin", numpy_agrees=True)
cos = _elementary("cos", numpy_agrees=True)
tan = _elementary("tan")
sqrt = _elementary("sqrt", lambda x: x >= 0.0, numpy_agrees=True)
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


def deriv3(a):
    """Component-wise jet derivative of a jet triple."""
    return (a[0].derivative(), a[1].derivative(), a[2].derivative())


def values3(a):
    return (as_jet(a[0]).value, as_jet(a[1]).value, as_jet(a[2]).value)
