"""Recursive-descent parser for scalar expressions of the variable u.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative, binds above '-'
    atom   := NUMBER | 'pi' | 'u' | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan sqrt exp log sinh cosh. The parsed tree evaluates
over anything supporting arithmetic, so the same expression yields plain
floats for float input and derivative-carrying jets for `Jet2` input,
one point per slot or a whole grid when the slots are arrays.
"""

import math
import operator
import re

from . import jets
from .errors import ExpressionSyntaxError, UnknownIdentifier

FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "sqrt": jets.sqrt,
    "exp": jets.exp,
    "log": jets.log,
    "sinh": jets.sinh,
    "cosh": jets.cosh,
}

CONSTANTS = {"pi": math.pi}

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind  # 'num', 'ident', 'op', 'lparen', 'rparen', 'eof'
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.pos})"


def tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(src, i)
            if not m:
                raise ExpressionSyntaxError(i, f"malformed number near '{ch}'")
            tokens.append(Token("num", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(src, i)
            tokens.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("rparen", ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(i, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", n))
    return tokens


# expression tree ------------------------------------------------------------


class Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, u):
        return self.value


class Var:
    __slots__ = ()

    def eval(self, u):
        return u


class Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def eval(self, u):
        return -self.arg.eval(u)


BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


class Bin:
    __slots__ = ("op", "fn", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.fn = BINARY[op]
        self.left = left
        self.right = right

    def eval(self, u):
        return self.fn(self.left.eval(u), self.right.eval(u))


class Call:
    __slots__ = ("name", "fn", "arg")

    def __init__(self, name, arg):
        self.name = name
        self.fn = FUNCTIONS[name]
        self.arg = arg

    def eval(self, u):
        return self.fn(self.arg.eval(u))


class Expression:
    """Parsed expression; evaluate with a float or a `Jet2` seed."""

    def __init__(self, source, root):
        self.source = source
        self.root = root

    def eval(self, u):
        return self.root.eval(u)

    def eval_jet(self, u):
        """Evaluate at u (a float or a 1-d array), returning a `Jet2`."""
        return jets.as_jet(self.root.eval(jets.Jet2.variable(u)))

    def __repr__(self):
        return f"Expression({self.source!r})"


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ExpressionSyntaxError(tok.pos, f"expected {what}, found {found}")
        return self.advance()

    def parse(self):
        root = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExpressionSyntaxError(tok.pos, f"unexpected {tok.text!r}")
        return root

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = Bin("^", node, self.unary())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "u":
                return Var()
            if name in CONSTANTS:
                return Num(CONSTANTS[name])
            if name in FUNCTIONS:
                self.expect("lparen", f"'(' after function '{name}'")
                arg = self.expr()
                self.expect("rparen", "')'")
                return Call(name, arg)
            raise UnknownIdentifier(name, tok.pos)
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ExpressionSyntaxError(tok.pos, f"expected a value, found {found}")


def parse_expression(src):
    """Parse `src` into an `Expression` evaluable over floats or jets."""
    return Expression(src, _Parser(src).parse())
