"""Recursive-descent parser for scalar expressions of the variable u.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative, binds above '-'
    atom   := NUMBER | 'pi' | 'u' | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan sqrt exp log sinh cosh.

Parse trees are plain data. `compile_program` turns one or more of them
into a straight-line register program that computes each distinct
subexpression once, also across trees (Taylor-mode evaluation of a
shared-subexpression program, as in Griewank and Walther, "Evaluating
Derivatives", SIAM 2008). The program runs over anything supporting
arithmetic, so the same expression yields plain floats for float input
and derivative-carrying jets for `Jet2` input, one point per slot or a
whole grid when the slots are arrays. Sharing changes no floating-point
operation, only how often one is repeated, and the first error raised is
the one a left-to-right walk of the trees would raise.
"""

import functools
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


# expression tree: plain data, evaluated through `compile_program` -------------


class Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var:
    __slots__ = ()


class Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


class Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


class Call:
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg


# shared-subexpression programs -------------------------------------------------


class Program:
    """Straight-line register program for one or more expression trees.

    Register 0 holds u and the next ones the distinct constants; each
    instruction `(fn, a, b)` appends `fn(regs[a])` (b < 0) or
    `fn(regs[a], regs[b])` as the next register. `run` returns the
    registers of the roots, in order.
    """

    __slots__ = ("consts", "code", "outputs")

    def __init__(self, consts, code, outputs):
        self.consts = consts
        self.code = code
        self.outputs = outputs

    def run(self, u):
        """Values of the roots at u: a float, a `Jet2` seed or an array."""
        regs = [u, *self.consts]
        append = regs.append
        for fn, a, b in self.code:
            append(fn(regs[a]) if b < 0 else fn(regs[a], regs[b]))
        return [regs[i] for i in self.outputs]


def _children(node):
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    return ()


def compile_program(roots):
    """Compile expression trees into one `Program`.

    Subtrees are hash-consed by structure (node kind, operator or function,
    and the registers of the children), so each distinct subexpression is
    computed once, also where the trees share it. Instructions run in the
    post-order of first occurrence: the trees' own left-to-right order
    with repeats removed, so the first error raised (a domain error, a
    zero divisor) is the one evaluating the trees in turn would raise.
    """
    registers = {}  # structural key -> register, constants counted from -1 down
    consts, code = [], []

    def emit(node, args):
        """Register of `node`, given the registers of its children."""
        if isinstance(node, Var):
            return 0
        if isinstance(node, Num):
            # float.hex keeps 0.0 and -0.0 apart
            key = ("num", float(node.value).hex())
            if key not in registers:
                consts.append(node.value)
                registers[key] = -len(consts)
            return registers[key]
        a, b = args if len(args) == 2 else (args[0], None)
        if isinstance(node, Bin):
            key, fn = ("bin", node.op, a, b), BINARY[node.op]
        elif isinstance(node, Call):
            key, fn = ("call", node.name, a), FUNCTIONS[node.name]
        else:
            key, fn = ("neg", a), operator.neg
        if key not in registers:
            code.append((fn, a, b))
            registers[key] = len(code)
        return registers[key]

    def register(root):
        """`emit` over the tree in post-order, without recursion: a long sum
        is a tree as deep as it has terms."""
        done = {}  # id(node) -> register
        stack = [root]
        while stack:
            node = stack[-1]
            kids = _children(node)
            todo = [kid for kid in kids if id(kid) not in done]
            if todo:
                stack.extend(reversed(todo))  # the left child first
                continue
            stack.pop()
            done[id(node)] = emit(node, [done[id(kid)] for kid in kids])
        return done[id(root)]

    outputs = [register(root) for root in roots]
    n = len(consts)

    def slot(r):
        """Register index in `Program.run`: u, then constants, then code."""
        if r is None:
            return -1
        return -r if r < 0 else (r + n if r > 0 else 0)

    return Program(
        consts, [(fn, slot(a), slot(b)) for fn, a, b in code], [slot(r) for r in outputs]
    )


class Expression:
    """Parsed expression; evaluate with a float, a `Jet2` seed or an array."""

    def __init__(self, source, root):
        self.source = source
        self.root = root

    @functools.cached_property
    def program(self):
        """One-root `Program`, compiled at the first evaluation: callers that
        compile several roots together need only `root`."""
        return compile_program([self.root])

    def eval(self, u):
        return self.program.run(u)[0]

    def eval_jet(self, u):
        """Evaluate at u (a float or a 1-d array), returning a `Jet2`."""
        return jets.as_jet(self.program.run(jets.Jet2.variable(u))[0])

    def __repr__(self):
        return f"Expression({self.source!r})"


# Nesting levels (parentheses, calls, unary minus, powers) the parser
# accepts. A level takes up to 5 Python frames, so this stays well inside
# the interpreter's recursion limit.
MAX_DEPTH = 64


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0

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
        if self.depth == MAX_DEPTH:
            raise ExpressionSyntaxError(tok.pos, f"nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

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
