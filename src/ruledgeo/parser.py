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

`straight_line` writes a program out as generated Python code that gives
the roots' jets at an input jet, its slots floats (one point) or 1-d
arrays (a grid): one local per (register, slot), with the slot formulas
of the `Jet2` rules in their order of operations, so its results are
bit-identical to `Program.run` on that jet and its errors the same.
Instructions on constants only are folded first. Compiled code is cached
by the folded structure, at most `TEMPLATES` structures, the least
recently used dropped first; the constants are bound as closure
arguments, so no text of an expression reaches the generated source.
"""

import functools
import math
import operator
import re

from . import jets
from .errors import ExpressionSyntaxError, SpecFormatError, UnknownIdentifier

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

    __slots__ = ("consts", "code", "outputs", "_straight")

    def __init__(self, consts, code, outputs):
        self.consts = consts
        self.code = code
        self.outputs = outputs
        self._straight = None

    def run(self, u):
        """Values of the roots at u: a float, a `Jet2` seed or an array."""
        regs = [u, *self.consts]
        append = regs.append
        for fn, a, b in self.code:
            append(fn(regs[a]) if b < 0 else fn(regs[a], regs[b]))
        return [regs[i] for i in self.outputs]

    def jets(self, u, u1=1.0, u2=0.0, u3=0.0):
        """The roots' jets at the input jet (u, u1, u2, u3), by default u's
        seed, from generated straight-line code (`straight_line`, built at the
        first call): bit for bit, and error for error, those of `run`."""
        if self._straight is None:
            self._straight = straight_line(self)
        return self._straight(u, u1, u2, u3)


def _children(node):
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    return ()


# the most instructions one program may have: the memory and time to compile
# a program's generated float code grow with its length
MAX_PROGRAM = 1024


def compile_program(roots):
    """Compile expression trees into one `Program` of at most `MAX_PROGRAM`
    instructions; a longer one raises `SpecFormatError`.

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
    if len(code) > MAX_PROGRAM:
        raise SpecFormatError(
            f"expression program of {len(code)} instructions, more than {MAX_PROGRAM}")
    n = len(consts)

    def slot(r):
        """Register index in `Program.run`: u, then constants, then code."""
        if r is None:
            return -1
        return -r if r < 0 else (r + n if r > 0 else 0)

    return Program(
        consts, [(fn, slot(a), slot(b)) for fn, a, b in code], [slot(r) for r in outputs]
    )


# straight-line jet code --------------------------------------------------------

# compiled templates kept, the least recently used dropped first
TEMPLATES = 64

# instructions written out inline; the others call their function
_INLINE = {
    operator.add: "add",
    operator.sub: "sub",
    operator.mul: "mul",
    operator.neg: "neg",
    jets.sin: "sin",
    jets.cos: "cos",
}

# slot formulas of the `Jet2` rules, in their order of operations, by op and
# operand kinds: jets a and b ("j"), a float constant c ("k"). A bare name
# passes the slot on unchanged.
_RULES = {
    ("add", "j", "j"): ("{a0} + {b0}", "{a1} + {b1}", "{a2} + {b2}", "{a3} + {b3}"),
    ("add", "j", "k"): ("{a0} + {c}", "{a1}", "{a2}", "{a3}"),
    ("add", "k", "j"): ("{b0} + {c}", "{b1}", "{b2}", "{b3}"),  # __radd__ is __add__
    ("sub", "j", "j"): ("{a0} - {b0}", "{a1} - {b1}", "{a2} - {b2}", "{a3} - {b3}"),
    ("sub", "j", "k"): ("{a0} - {c}", "{a1}", "{a2}", "{a3}"),
    ("sub", "k", "j"): ("{c} - {b0}", "-{b1}", "-{b2}", "-{b3}"),
    ("mul", "j", "j"): (
        "{a0} * {b0}",
        "{a1} * {b0} + {a0} * {b1}",
        "{a2} * {b0} + 2.0 * {a1} * {b1} + {a0} * {b2}",
        "{a3} * {b0} + 3.0 * {a2} * {b1} + 3.0 * {a1} * {b2} + {a0} * {b3}",
    ),
    ("mul", "j", "k"): ("{a0} * {c}", "{a1} * {c}", "{a2} * {c}", "{a3} * {c}"),
    ("mul", "k", "j"): ("{b0} * {c}", "{b1} * {c}", "{b2} * {c}", "{b3} * {c}"),  # __rmul__
    ("neg", "j"): ("-{a0}", "-{a1}", "-{a2}", "-{a3}"),
    # `Jet2._compose` of (sin, cos, -sin, -cos) and of (cos, -sin, -cos, sin)
    ("sin", "j"): (
        "{s}",
        "{c} * {a1}",
        "-{s} * {a1} * {a1} + {c} * {a2}",
        "-{c} * {a1} * {a1} * {a1} + 3.0 * -{s} * {a1} * {a2} + {c} * {a3}",
    ),
    ("cos", "j"): (
        "{c}",
        "-{s} * {a1}",
        "-{c} * {a1} * {a1} + -{s} * {a2}",
        "{s} * {a1} * {a1} * {a1} + 3.0 * -{c} * {a1} * {a2} + -{s} * {a3}",
    ),
}
# of sin and cos, in `Jet2`'s order, from numpy on a grid and math at a point
_PRELUDE = ("{s} = _m.sin({a0})", "{c} = _m.cos({a0})")


def straight_line(program):
    """Function `run(u, u1=1.0, u2=0.0, u3=0.0)` giving the jets of
    `program`'s roots at the input jet with those slots.

    It runs generated straight-line code that repeats, bit for bit and
    error for error, `[jets.as_jet(r) for r in program.run(Jet2(u, u1, u2, u3))]`
    (Taylor-mode propagation written out, as in Griewank and Walther,
    ch. 13). Instructions on constants only are folded first; the code is
    then a template for the folded structure, cached, with the constants
    bound as closure arguments.
    """
    structure, bound = _fold(program)
    return _template(structure)(*bound)


def _fold(program):
    """(structure, bound values) of `program` run at a jet seed.

    An instruction whose operands are all constants is folded with its own
    function. One that raises stays in place, so it raises there at run
    time too, after the same earlier instructions. Each instruction left is
    (op, operand, ...) and yields the next jet register; an operand is
    ("j", n), jet register n (0 is u), or ("k", i), the i-th bound value.
    Constants and the functions of called instructions are bound values,
    so programs that differ only in them share a structure.
    """
    regs = [("j", 0), *(("c", c) for c in program.consts)]
    ops, bound = [], []

    def bind(value):
        bound.append(value)
        return ("k", len(bound) - 1)

    def ref(r):
        return r if r[0] == "j" else bind(r[1])

    for fn, a, b in program.code:
        args = [regs[a]] if b < 0 else [regs[a], regs[b]]
        constant = all(r[0] == "c" for r in args)
        if constant:
            try:
                regs.append(("c", fn(*(r[1] for r in args))))
                continue
            except (ArithmeticError, TypeError, ValueError):
                pass  # left in place: the call raises again at run time
        op = _INLINE.get(fn)
        # the jet rules treat constants other than floats differently
        if (op is None or constant
                or any(r[0] == "c" and type(r[1]) is not float for r in args)):
            ops.append(("call", bind(fn), *map(ref, args)))
        else:
            ops.append((op, *map(ref, args)))
        regs.append(("j", len(ops)))
    outputs = tuple(ref(regs[i]) for i in program.outputs)
    return (tuple(ops), outputs, len(bound)), bound


@functools.lru_cache(maxsize=TEMPLATES)
def _template(structure):
    """The compiled template of a folded structure: a function of the bound
    values returning the function of u. Its source holds generated names
    only, never text from an expression."""
    namespace = {"Jet2": jets.Jet2, "_lib": jets._lib}
    exec(compile(_source(structure), "<straight-line code>", "exec"), namespace)
    return namespace["template"]


def _source(structure):
    ops, outputs, n_bound = structure
    slots = [("u", "u1", "u2", "u3")]  # the names of each jet register's slots
    body = ["_m = _lib(u)"] if any(op in ("sin", "cos") for op, *_ in ops) else []

    def operand(r):
        return f"Jet2({', '.join(slots[r[1]])})" if r[0] == "j" else f"k{r[1]}"

    for n, (op, *args) in enumerate(ops, 1):
        if op == "call":
            fn, *args = args
            body.append(f"t = k{fn[1]}({', '.join(map(operand, args))})")
            body.append(f"j{n}_0, j{n}_1, j{n}_2, j{n}_3 = t.value, t.d1, t.d2, t.d3")
            slots.append(tuple(f"j{n}_{i}" for i in range(4)))
            continue
        # the first operand is jet a, the second jet b, a constant is c
        names = {"s": f"j{n}_s", "c": f"j{n}_c"}
        for x, r in zip("ab", args):
            if r[0] == "k":
                names["c"] = f"k{r[1]}"
            else:
                names.update((f"{x}{i}", name) for i, name in enumerate(slots[r[1]]))
        if op in ("sin", "cos"):
            body.extend(line.format(**names) for line in _PRELUDE)
        row = []
        for i, rule in enumerate(_RULES[(op, *(r[0] for r in args))]):
            if rule[1:-1].isidentifier():  # a bare name
                row.append(rule.format(**names))
            else:
                body.append(f"j{n}_{i} = {rule.format(**names)}")
                row.append(f"j{n}_{i}")
        slots.append(tuple(row))
    results = (operand(r) if r[0] == "j" else f"Jet2(k{r[1]}, 0.0, 0.0, 0.0)" for r in outputs)
    return "\n".join([
        f"def template({', '.join(f'k{i}' for i in range(n_bound))}):",
        "    def run(u, u1=1.0, u2=0.0, u3=0.0):",
        *(f"        {line}" for line in body),
        f"        return ({', '.join(results)},)",
        "    return run",
    ])


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
        return self.program.jets(u)[0]

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
