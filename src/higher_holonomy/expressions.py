"""Scalar field expressions: a small AST with a parser, numpy-broadcasting
evaluation, and exact symbolic differentiation.

Grammar (documented bit-exactly in docs/expression_grammar.md):

    expr   := term { ("+" | "-") term }
    term   := unary { ("*" | "/") unary }
    unary  := ("-" | "+") unary | power
    power  := atom [ "^" [ "-" ] INTEGER ]
    atom   := NUMBER | "i" | "pi" | VAR | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "sin" | "cos" | "exp"
    VAR    := "s" | "t" | "z" | "x1" | "x2" | ...

Powers are restricted to integer exponents.  The literal `i` is the
imaginary unit (for complex algebras); `pi` is the circle constant.
Evaluation environments may bind variables to scalars or numpy arrays.
The parser folds every constant subexpression into one number, and
`simplify` folds by the same rule, so a divisor that folds to 0 is an
ExpressionError, whether parsed or met only in a derivative.

A `Table` is the one evaluator of a table of entries: every form
component, path, loop, chart, loop path and exponent family is one, over
the variables its map takes.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re

import numpy as np

from .errors import DomainError, ExpressionError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VAR_RE = re.compile(r"^(s|t|z|u|x[0-9]+)$")


class Expr:
    """Base expression node."""

    def evaluate(self, env):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def leaves(self) -> list:
        """The `Num` and `Var` nodes of the tree, left to right."""
        return [self]

    def __str__(self):
        raise NotImplementedError


class Num(Expr):
    def __init__(self, value):
        self.value = value

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def __str__(self):
        if isinstance(self.value, complex):
            return f"({self.value.real}+{self.value.imag}*i)"
        return repr(self.value)


class Var(Expr):
    def __init__(self, name):
        self.name = name

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError as exc:
            raise ExpressionError(f"unbound variable {self.name!r}") from exc

    def diff(self, var):
        return Num(1.0 if var == self.name else 0.0)

    def __str__(self):
        return self.name


class Bin(Expr):
    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b

    def evaluate(self, env):
        x = self.a.evaluate(env)
        y = self.b.evaluate(env)
        if self.op == "+":
            return x + y
        if self.op == "-":
            return x - y
        if self.op == "*":
            return x * y
        return x / y

    def diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        if self.op in "+-":
            return Bin(self.op, da, db)
        if self.op == "*":
            return Bin("+", Bin("*", da, self.b), Bin("*", self.a, db))
        # quotient rule
        num = Bin("-", Bin("*", da, self.b), Bin("*", self.a, db))
        return Bin("/", num, Pow(self.b, 2))

    def leaves(self):
        return self.a.leaves() + self.b.leaves()

    def __str__(self):
        return f"({self.a} {self.op} {self.b})"


class Neg(Expr):
    def __init__(self, a):
        self.a = a

    def evaluate(self, env):
        return -self.a.evaluate(env)

    def diff(self, var):
        return Neg(self.a.diff(var))

    def leaves(self):
        return self.a.leaves()

    def __str__(self):
        return f"(-{self.a})"


class Pow(Expr):
    def __init__(self, base, exponent: int):
        self.base = base
        self.exponent = int(exponent)

    def evaluate(self, env):
        return self.base.evaluate(env) ** self.exponent

    def diff(self, var):
        n = self.exponent
        if n == 0:
            return Num(0.0)
        return Bin("*", Num(float(n)), Bin("*", Pow(self.base, n - 1), self.base.diff(var)))

    def leaves(self):
        return self.base.leaves()

    def __str__(self):
        return f"({self.base}^{self.exponent})"


class Call(Expr):
    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg

    def evaluate(self, env):
        return _FUNCS[self.fn](self.arg.evaluate(env))

    def diff(self, var):
        inner = self.arg.diff(var)
        if self.fn == "sin":
            outer = Call("cos", self.arg)
        elif self.fn == "cos":
            outer = Neg(Call("sin", self.arg))
        else:
            outer = Call("exp", self.arg)
        return Bin("*", outer, inner)

    def leaves(self):
        return self.arg.leaves()

    def __str__(self):
        return f"{self.fn}({self.arg})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"bad character at {pos}: {text[pos:pos + 8]!r}")
        if m.lastgroup is None:
            # matched only whitespace at the very end
            pos = m.end()
            continue
        if m.group("num") is not None:
            tokens.append(("num", float(m.group(0))))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind}, got {tok} in {self.text!r}")
        if value is not None and tok[1] != value:
            raise ExpressionError(f"expected {value!r}, got {tok} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at token {self.peek()} in {self.text!r}")
        return e

    def expr(self):
        e = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            e = _fold(Bin(op, e, self.term()), self.text)
        return e

    def term(self):
        e = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            e = _fold(Bin(op, e, self.unary()), self.text)
        return e

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return _fold(Neg(self.unary()), self.text)
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            tok = self.take("num")
            if tok[1] != int(tok[1]):
                raise ExpressionError("only integer powers are supported")
            return _fold(Pow(base, sign * int(tok[1])), self.text)
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return Num(value)
        if kind == "ident":
            self.take()
            if value == "i":
                return Num(1j)
            if value == "pi":
                return Num(math.pi)
            if value in _FUNCS:
                self.take("op", "(")
                arg = self.expr()
                self.take("op", ")")
                return _fold(Call(value, arg), self.text)
            if _VAR_RE.match(value):
                return Var(value)
            raise ExpressionError(f"unknown identifier {value!r}")
        if (kind, value) == ("op", "("):
            self.take()
            e = self.expr()
            self.take("op", ")")
            return e
        raise ExpressionError(f"unexpected token {self.peek()} in {self.text!r}")


def parse(text) -> Expr:
    """Parse a scalar field expression; numbers pass through unchanged."""
    if isinstance(text, Expr):
        return text
    if isinstance(text, (int, float, complex)):
        return Num(text)
    if not isinstance(text, str):  # such as a row of a ragged table
        raise ExpressionError(f"expected an expression, got {text!r}")
    return _Parser(_tokenize(text), text).parse()


def _fold(node: Expr, where) -> Expr:
    """`node` as a `Num` when its operands are all numbers, computed by its
    own `evaluate`, otherwise `node` itself; a divisor that is the number 0
    (x/0, 0^-n), and a constant that is not finite (10^400, exp(1000)), is
    an ExpressionError naming `where`."""
    if isinstance(node, Bin):
        divisor = node.b if node.op == "/" else None
        constant = isinstance(node.a, Num) and isinstance(node.b, Num)
    elif isinstance(node, Pow):
        divisor = node.base if node.exponent < 0 else None
        constant = isinstance(node.base, Num)
    else:
        divisor, constant = None, isinstance(node.a if isinstance(node, Neg) else node.arg, Num)
    if isinstance(divisor, Num) and divisor.value == 0:
        raise ExpressionError(f"division by zero in {str(where)!r}")
    if not constant:
        return node
    if isinstance(node, Call):
        # a numpy function overflows to inf with a warning; its value is
        # kept as a Python number, whose arithmetic warns of nothing
        with np.errstate(all="ignore"):
            value = node.evaluate({}).item()
    else:
        try:
            value = node.evaluate({})
        except OverflowError:
            value = math.inf
    if not cmath.isfinite(value):
        raise ExpressionError(f"overflow in {str(where)!r}")
    return Num(value)


def simplify(e: Expr) -> Expr:
    """Constant folding, by the parser's rule, and unit elimination; keeps
    derivative evaluation cheap without attempting canonical forms."""
    if isinstance(e, Bin):
        a, b = simplify(e.a), simplify(e.b)
        folded = _fold(Bin(e.op, a, b), e)
        if isinstance(folded, Num):
            return folded
        if e.op == "+":
            if _is_const(a, 0):
                return b
            if _is_const(b, 0):
                return a
        elif e.op == "-":
            if _is_const(b, 0):
                return a
            if _is_const(a, 0):
                return simplify(Neg(b))
        elif e.op == "*":
            if _is_const(a, 0) or _is_const(b, 0):
                return Num(0.0)
            if _is_const(a, 1):
                return b
            if _is_const(b, 1):
                return a
        elif e.op == "/":
            if _is_const(a, 0):
                return Num(0.0)
            if _is_const(b, 1):
                return a
        return folded
    if isinstance(e, Neg):
        a = simplify(e.a)
        return a.a if isinstance(a, Neg) else _fold(Neg(a), e)
    if isinstance(e, Pow):
        base = simplify(e.base)
        if e.exponent == 0:
            return Num(1.0)
        if e.exponent == 1:
            return base
        return _fold(Pow(base, e.exponent), e)
    if isinstance(e, Call):
        return _fold(Call(e.fn, simplify(e.arg)), e)
    return e


def _is_const(e: Expr, value) -> bool:
    return isinstance(e, Num) and e.value == value


def derivative(e: Expr, var: str) -> Expr:
    return simplify(e.diff(var))


class Table:
    """An object array `entries` of parsed expressions, of shape (), (n,)
    or (d, d), over `variables`, which `eval` binds positionally.
    `free_variables` are those of `variables` that some entry uses, in
    their order; the others may be bound to anything that broadcasts.
    Building it refuses a free variable outside `variables` and, when
    `real`, any use of i, so a bad entry fails where its map is made."""

    def __init__(self, entries, variables, real: bool = False):
        self.variables = tuple(variables)
        self.entries = np.array(entries, dtype=object)
        flat = self.entries.reshape(-1)
        names = set(self.variables)
        free = set()
        for k, text in enumerate(flat):
            flat[k] = e = parse(text)
            used, imaginary = set(), False
            for leaf in e.leaves():  # one walk for both refusals
                if isinstance(leaf, Var):
                    used.add(leaf.name)
                elif isinstance(leaf.value, complex):
                    imaginary = True
            if not used <= names:
                raise DomainError(f"free variables {sorted(used - names)} in {str(text)!r} "
                                  f"outside ({', '.join(self.variables)})")
            if real and imaginary:
                raise DomainError(f"the imaginary unit i in the real entry {str(text)!r}")
            free |= used
        self.free_variables = tuple(v for v in self.variables if v in free)
        self._dtype = float if real else complex
        self._cells = [((Ellipsis, *index), e) for index, e in
                       zip(itertools.product(*map(range, self.entries.shape)), flat)]
        # a table of numbers has one value, built here
        self._value = None
        if all(isinstance(e, Num) for e in flat):
            self._value = np.array([e.value for e in flat], self._dtype).reshape(self.entries.shape)
            self._value.flags.writeable = False

    def eval(self, *args) -> np.ndarray:
        """Values at `args`, one per variable, broadcast together: shape
        (..., *entries.shape), float when real and complex otherwise.  A
        table of numbers returns its one read-only value, broadcast as a
        view over a stack."""
        args = [np.asarray(a, dtype=float) for a in args]
        shape = args[0].shape if args else ()
        for a in args:
            if a.shape != shape:  # cheaper, when they agree, than np.broadcast
                shape = np.broadcast(*args).shape
                break
        if self._value is not None:
            return (np.broadcast_to(self._value, shape + self.entries.shape) if shape
                    else self._value)
        env = dict(zip(self.variables, args))
        out = np.empty(shape + self.entries.shape, self._dtype)
        for cell, e in self._cells:
            out[cell] = e.evaluate(env)
        return out

    def partial(self, var: str) -> "Table":
        """The table of exact partials in `var`."""
        return Table(np.frompyfunc(lambda e: derivative(e, var), 1, 1)(self.entries),
                     self.variables, real=self._dtype is float)
