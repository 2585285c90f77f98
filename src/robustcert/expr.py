"""Piecewise-smooth scalar expression language.

Expressions are finite immutable trees over decision variables ``z1..zd`` and
uncertainty variables ``u1..up`` with arithmetic (+, -, *, /, integer ^),
``abs``, ``sqrt``, and n-ary ``max``/``min``.  This module provides the parser,
a round-tripping printer, double-precision evaluation (scalar and broadcast),
forward-mode gradients in the decision variables z at smooth points, and
detection of active nonsmooth atoms (kinks) at a point, all at one kink
tolerance, ``KINK_ACTIVITY_TOL``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Absolute activity tolerance for kink detection (an abs argument within this
# of 0, or max/min branches within this of the attained value, count as active).
KINK_ACTIVITY_TOL = 1e-9

# Two tied max/min branch gradients are considered equal (no real kink) when
# they differ by less than this.
GRADIENT_TIE_TOL = 1e-12

# The deepest expression tree parse_expr accepts.  The evaluators, the
# printer and a node's repr recurse through the tree, the repr about three
# frames per level, so a tree this deep stays well inside Python's default
# recursion limit of 1000 frames.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class ExprError(Exception):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text; ``offset`` is the character offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(ExprError):
    """Identifier that is not a declared variable or builtin function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


class ArityError(ExprError):
    """max/min called with fewer than two arguments."""

    def __init__(self, func: str, count: int, offset: int):
        super().__init__(
            f"{func} needs at least 2 arguments, got {count} (at offset {offset})"
        )
        self.offset = offset


class DomainError(ExprError):
    """Division by zero or sqrt of a negative value; names the subexpression."""


class ActiveKinkError(ExprError):
    """A gradient was requested at a point where nonsmooth atoms are active."""

    def __init__(self, atoms):
        names = ", ".join(to_source(a.node) for a in atoms) or "<ambiguous atom>"
        super().__init__(f"active nonsmooth atoms at this point: {names}")
        self.atoms = tuple(atoms)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # 'z' (decision) or 'u' (uncertainty)
    index: int  # 1-based


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Abs:
    arg: "Expr"


@dataclass(frozen=True)
class Sqrt:
    arg: "Expr"


@dataclass(frozen=True)
class MaxOp:
    args: tuple


@dataclass(frozen=True)
class MinOp:
    args: tuple


Expr = Union[Lit, Var, BinOp, Pow, Neg, Abs, Sqrt, MaxOp, MinOp]


@dataclass(frozen=True)
class Point:
    """A decision point, optionally with an uncertainty realization."""

    z: tuple
    u: Optional[tuple] = None

    @staticmethod
    def of(z, u=None) -> "Point":
        zt = tuple(float(v) for v in np.atleast_1d(np.asarray(z, dtype=float)))
        ut = None
        if u is not None:
            ut = tuple(float(v) for v in np.atleast_1d(np.asarray(u, dtype=float)))
        return Point(zt, ut)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\)|,)"
    r")"
)

_FUNCS = {"abs", "sqrt", "max", "min"}


@dataclass
class _Token:
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually if regex stalled on it
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = n - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, d: int, p: int):
        self.tokens = tokens
        self.i = 0
        self.d = d
        self.p = p

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected '{op}'", tok.offset)
        return self.advance()

    def parse(self) -> Expr:
        e = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)
        return e

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self.advance()
                rhs = self.parse_term()
                e = BinOp(tok.text, e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("*", "/"):
                self.advance()
                rhs = self.parse_factor()
                e = BinOp(tok.text, e, rhs)
            else:
                return e

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Expr:
        e = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                e = Pow(e, self.parse_exponent())
            else:
                return e

    def parse_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "number":
            raise ExprSyntaxError("expected integer exponent", tok.offset)
        try:
            value = int(tok.text)
        except ValueError:
            raise ExprSyntaxError("exponent must be an integer", tok.offset) from None
        self.advance()
        return sign * value

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Lit(float(tok.text))
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in _FUNCS:
                return self.parse_call(name, tok.offset)
            m = re.fullmatch(r"([zu])(\d+)", name)
            if m:
                kind, idx = m.group(1), int(m.group(2))
                limit = self.d if kind == "z" else self.p
                if 1 <= idx <= limit:
                    return Var(kind, idx)
            raise UnknownVariableError(name, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.parse_sum()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)

    def parse_call(self, name: str, offset: int) -> Expr:
        self.expect_op("(")
        args = [self.parse_sum()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == ",":
                self.advance()
                args.append(self.parse_sum())
            else:
                break
        self.expect_op(")")
        if name == "abs":
            if len(args) != 1:
                raise ExprSyntaxError("abs takes exactly one argument", offset)
            return Abs(args[0])
        if name == "sqrt":
            if len(args) != 1:
                raise ExprSyntaxError("sqrt takes exactly one argument", offset)
            return Sqrt(args[0])
        if len(args) < 2:
            raise ArityError(name, len(args), offset)
        return MaxOp(tuple(args)) if name == "max" else MinOp(tuple(args))


def parse_expr(text: str, d: int, p: int) -> Expr:
    """Parse source text over z1..z<d> and u1..u<p>.

    Raises ExprSyntaxError for text nested too deeply for the parser and for
    a tree deeper than ``MAX_DEPTH``.
    """
    parser = _Parser(_tokenize(text), d, p)
    try:
        e = parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply",
                              parser.peek().offset) from None
    if depth(e) > MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return e


# ---------------------------------------------------------------------------
# Printer (round-trips through parse_expr)
# ---------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(e: Expr, context: int) -> str:
    if isinstance(e, Lit):
        if e.value < 0:
            # negative literals only arise from programmatic construction;
            # print a parenthesized unary form that re-parses equivalently
            text = "-" + _fmt_number(-e.value)
            return f"({text})" if context > _LEVEL_ADD else text
        text = _fmt_number(e.value)
    elif isinstance(e, Var):
        text = f"{e.kind}{e.index}"
    elif isinstance(e, BinOp):
        lvl = _level(e)
        text = f"{_print(e.left, lvl)} {e.op} {_print(e.right, lvl + 1)}"
    elif isinstance(e, Neg):
        text = "-" + _print(e.arg, _LEVEL_UNARY)
    elif isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        text = f"{_print(e.base, _LEVEL_ATOM)}^{exp}"
    elif isinstance(e, Abs):
        text = f"abs({_print(e.arg, 0)})"
    elif isinstance(e, Sqrt):
        text = f"sqrt({_print(e.arg, 0)})"
    elif isinstance(e, (MaxOp, MinOp)):
        name = "max" if isinstance(e, MaxOp) else "min"
        text = f"{name}({', '.join(_print(a, 0) for a in e.args)})"
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown node {e!r}")
    if _level(e) < context:
        return f"({text})"
    return text


def to_source(e: Expr) -> str:
    """Print an expression so that ``parse_expr(to_source(e))`` rebuilds it."""
    return _print(e, 0)


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------


def children(e: Expr) -> tuple:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, (Neg, Abs, Sqrt)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (MaxOp, MinOp)):
        return e.args
    return ()


def depth(e: Expr) -> int:
    """Levels of the tree ``e``, a variable or literal being one, counted
    without recursion."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in children(node))
    return deepest


def free_var_indices(e: Expr, kind: str) -> frozenset:
    """1-based indices of variables of the given kind referenced by e."""
    found = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var) and node.kind == kind:
            found.add(node.index)
        stack.extend(children(node))
    return frozenset(found)


def try_literal(e: Expr) -> Optional[float]:
    """Value of a constant subtree (no variables), else None."""
    if free_var_indices(e, "z") or free_var_indices(e, "u"):
        return None
    try:
        return evaluate(e, Point((), ()))
    except DomainError:
        return None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, pt: Point) -> float:
    """Double-precision evaluation; raises DomainError on /0 or sqrt(<0)."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        values = pt.z if e.kind == "z" else pt.u
        if values is None or e.index > len(values):
            raise ExprError(
                f"variable {e.kind}{e.index} has no value at this point"
            )
        return float(values[e.index - 1])
    if isinstance(e, BinOp):
        a = evaluate(e.left, pt)
        b = evaluate(e.right, pt)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError(f"division by zero in '{to_source(e)}'")
        return a / b
    if isinstance(e, Pow):
        base = evaluate(e.base, pt)
        if e.exponent < 0 and base == 0.0:
            raise DomainError(f"zero base with negative exponent in '{to_source(e)}'")
        return float(base**e.exponent)
    if isinstance(e, Neg):
        return -evaluate(e.arg, pt)
    if isinstance(e, Abs):
        return abs(evaluate(e.arg, pt))
    if isinstance(e, Sqrt):
        val = evaluate(e.arg, pt)
        if val < 0.0:
            raise DomainError(f"sqrt of negative value in '{to_source(e)}'")
        return math.sqrt(val)
    if isinstance(e, MaxOp):
        return max(evaluate(a, pt) for a in e.args)
    if isinstance(e, MinOp):
        return min(evaluate(a, pt) for a in e.args)
    raise TypeError(f"unknown node {e!r}")  # pragma: no cover


class BufferPool:
    """Float arrays for ``eval_broadcast``'s intermediates, reused by shape.

    ``take`` lends a free array of a shape, or a new one when none is free;
    ``release`` hands lent arrays back and ignores anything else (input
    columns, literals, scalars).  One sweep of a grid in equal blocks then
    allocates once per shape, not once per node per block.
    """

    def __init__(self) -> None:
        self._free: dict = {}
        self._lent: dict = {}

    def take(self, shape: tuple) -> np.ndarray:
        free = self._free.get(shape)
        buf = free.pop() if free else np.empty(shape)
        self._lent[id(buf)] = buf
        return buf

    def release(self, *arrays) -> None:
        for a in arrays:
            buf = self._lent.pop(id(a), None)
            if buf is not None:
                self._free.setdefault(buf.shape, []).append(buf)


def _apply(ufunc, args, pool: Optional[BufferPool]):
    """``ufunc(*args)``; with a pool, a result that is not a scalar is
    written into a pooled array of its shape, and the arguments go back."""
    if pool is None:
        return ufunc(*args)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    out = ufunc(*args, out=pool.take(shape)) if shape else ufunc(*args)
    pool.release(*args)
    return out


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def eval_broadcast(e: Expr, z_cols, u_cols=None,
                   pool: Optional[BufferPool] = None) -> np.ndarray:
    """Vectorized evaluation with numpy broadcasting.

    ``z_cols``/``u_cols`` are sequences of arrays (one per variable index, any
    mutually broadcastable shapes).  Returns the broadcast result array.
    With a ``pool``, every intermediate that is not a scalar is taken from
    it and handed back once its parent is computed; the result is the
    caller's to release.  The floats are the same either way.
    """
    if isinstance(e, Lit):
        return np.asarray(e.value)
    if isinstance(e, Var):
        cols = z_cols if e.kind == "z" else u_cols
        if cols is None or e.index > len(cols):
            raise ExprError(f"variable {e.kind}{e.index} has no value in this batch")
        return np.asarray(cols[e.index - 1])
    if isinstance(e, BinOp):
        a = eval_broadcast(e.left, z_cols, u_cols, pool)
        b = eval_broadcast(e.right, z_cols, u_cols, pool)
        if e.op == "/" and np.any(b == 0.0):
            raise DomainError(f"division by zero in '{to_source(e)}'")
        return _apply(_BINARY[e.op], (a, b), pool)
    if isinstance(e, Pow):
        base = eval_broadcast(e.base, z_cols, u_cols, pool)
        if e.exponent < 0 and np.any(base == 0.0):
            raise DomainError(f"zero base with negative exponent in '{to_source(e)}'")
        exponent = float(e.exponent) if e.exponent < 0 else e.exponent
        return _apply(np.power, (base, exponent), pool)
    if isinstance(e, (Neg, Abs)):
        ufunc = np.negative if isinstance(e, Neg) else np.abs
        return _apply(ufunc, (eval_broadcast(e.arg, z_cols, u_cols, pool),),
                      pool)
    if isinstance(e, Sqrt):
        val = eval_broadcast(e.arg, z_cols, u_cols, pool)
        if np.any(val < 0.0):
            raise DomainError(f"sqrt of negative value in '{to_source(e)}'")
        return _apply(np.sqrt, (val,), pool)
    if isinstance(e, (MaxOp, MinOp)):
        reduce = np.maximum if isinstance(e, MaxOp) else np.minimum
        out = eval_broadcast(e.args[0], z_cols, u_cols, pool)
        for arg in e.args[1:]:
            out = _apply(reduce, (out, eval_broadcast(arg, z_cols, u_cols,
                                                      pool)), pool)
        return out
    raise TypeError(f"unknown node {e!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Kink atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KinkAtom:
    """A nonsmooth atom active at a point.

    ``kind`` is 'abs', 'max', or 'min'; ``activity`` is how close to exactly
    active the atom is (|argument| for abs, largest in-tolerance branch gap for
    max/min); ``active_branches`` lists tied branch indices for max/min.
    """

    node: Expr
    kind: str
    activity: float
    active_branches: tuple = ()


def kink_atoms(e: Expr, pt: Point):
    """All active nonsmooth atoms of ``e`` at ``pt``, in preorder."""
    atoms = []

    def visit(node: Expr):
        if isinstance(node, Abs):
            val = evaluate(node.arg, pt)
            if abs(val) <= KINK_ACTIVITY_TOL:
                atoms.append(KinkAtom(node, "abs", abs(val)))
        elif isinstance(node, (MaxOp, MinOp)):
            vals = [evaluate(a, pt) for a in node.args]
            attained = max(vals) if isinstance(node, MaxOp) else min(vals)
            active = tuple(
                i for i, v in enumerate(vals)
                if abs(v - attained) <= KINK_ACTIVITY_TOL
            )
            if len(active) >= 2:
                kind = "max" if isinstance(node, MaxOp) else "min"
                spread = max(abs(vals[i] - attained) for i in active)
                atoms.append(KinkAtom(node, kind, spread, active))
        for child in children(node):
            visit(child)

    visit(e)
    return atoms


def relevant_kink_atoms(e: Expr, pt: Point, wrt: str):
    """Active atoms whose argument depends on the ``wrt`` variables
    (``"decision"`` for z, ``"uncertainty"`` for u)."""
    kinds = {"decision": "z", "uncertainty": "u"}
    if wrt not in kinds:
        raise ValueError(
            f"wrt must be 'decision' or 'uncertainty', not {wrt!r}")
    kind = kinds[wrt]
    out = []
    for atom in kink_atoms(e, pt):
        if isinstance(atom.node, Abs):
            dependent = bool(free_var_indices(atom.node.arg, kind))
        else:
            dependent = any(
                free_var_indices(atom.node.args[i], kind)
                for i in atom.active_branches
            )
        if dependent:
            out.append(atom)
    return out


# ---------------------------------------------------------------------------
# Forward-mode gradients
# ---------------------------------------------------------------------------


def _forward(e: Expr, pt: Point, hole=None, hole_value: float = 0.0):
    """Returns (value, gradient, hole_coefficient).

    The gradient is with respect to the decision variables z.  If ``hole`` is an
    AST node (matched by identity), it is treated as an independent scalar with
    value ``hole_value``; the third return slot is the partial derivative of
    the expression with respect to that scalar.  Raises ActiveKinkError if an
    abs/max/min atom is active with genuinely different one-sided derivatives.
    """
    dim = len(pt.z)

    def rec(node: Expr):
        if node is hole:
            return hole_value, np.zeros(dim), 1.0
        if isinstance(node, Lit):
            return node.value, np.zeros(dim), 0.0
        if isinstance(node, Var):
            values = pt.z if node.kind == "z" else pt.u
            if values is None or node.index > len(values):
                raise ExprError(
                    f"variable {node.kind}{node.index} has no value at this point"
                )
            g = np.zeros(dim)
            if node.kind == "z":
                g[node.index - 1] = 1.0
            return float(values[node.index - 1]), g, 0.0
        if isinstance(node, BinOp):
            av, ag, at = rec(node.left)
            bv, bg, bt = rec(node.right)
            if node.op == "+":
                return av + bv, ag + bg, at + bt
            if node.op == "-":
                return av - bv, ag - bg, at - bt
            if node.op == "*":
                return av * bv, av * bg + bv * ag, av * bt + bv * at
            if bv == 0.0:
                raise DomainError(f"division by zero in '{to_source(node)}'")
            val = av / bv
            return val, (ag - val * bg) / bv, (at - val * bt) / bv
        if isinstance(node, Pow):
            bv, bg, bt = rec(node.base)
            n = node.exponent
            if n < 0 and bv == 0.0:
                raise DomainError(
                    f"zero base with negative exponent in '{to_source(node)}'"
                )
            val = float(bv**n)
            if n == 0:
                return 1.0, np.zeros(dim), 0.0
            # 0.0**0 == 1.0, so this is right even at bv == 0 with n == 1
            coeff = float(n) * float(bv ** (n - 1))
            return val, coeff * bg, coeff * bt
        if isinstance(node, Neg):
            v, g, t = rec(node.arg)
            return -v, -g, -t
        if isinstance(node, Abs):
            v, g, t = rec(node.arg)
            if abs(v) <= KINK_ACTIVITY_TOL:
                if np.max(np.abs(g), initial=0.0) <= GRADIENT_TIE_TOL and \
                        abs(t) <= GRADIENT_TIE_TOL:
                    return abs(v), np.zeros(dim), 0.0
                raise ActiveKinkError(kink_atoms(e, pt))
            s = 1.0 if v > 0 else -1.0
            return abs(v), s * g, s * t
        if isinstance(node, Sqrt):
            v, g, t = rec(node.arg)
            if v < 0.0:
                raise DomainError(f"sqrt of negative value in '{to_source(node)}'")
            if v == 0.0:
                if np.max(np.abs(g), initial=0.0) <= GRADIENT_TIE_TOL and \
                        abs(t) <= GRADIENT_TIE_TOL:
                    return 0.0, np.zeros(dim), 0.0
                raise DomainError(
                    f"sqrt not differentiable at zero in '{to_source(node)}'"
                )
            coeff = 0.5 / math.sqrt(v)
            return math.sqrt(v), coeff * g, coeff * t
        if isinstance(node, (MaxOp, MinOp)):
            triples = [rec(a) for a in node.args]
            vals = [tr[0] for tr in triples]
            attained = max(vals) if isinstance(node, MaxOp) else min(vals)
            active = [i for i, v in enumerate(vals)
                      if abs(v - attained) <= KINK_ACTIVITY_TOL]
            first = triples[active[0]]
            for i in active[1:]:
                if (
                    np.max(np.abs(triples[i][1] - first[1]), initial=0.0)
                    > GRADIENT_TIE_TOL
                    or abs(triples[i][2] - first[2]) > GRADIENT_TIE_TOL
                ):
                    raise ActiveKinkError(kink_atoms(e, pt))
            return attained, first[1], first[2]
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    return rec(e)


def grad_smooth(e: Expr, pt: Point) -> np.ndarray:
    """Exact gradient in z at a point where no relevant kink atom is active.

    Kinks transverse to z (e.g. an active ``abs(u1)``) or with coinciding
    one-sided derivatives (e.g. ``max(z1, z1)``) do not block the derivative.
    Raises ActiveKinkError listing the active atoms otherwise.
    """
    _, g, _ = _forward(e, pt)
    return g


def gradient_with_hole(e: Expr, pt: Point, hole, hole_value: float):
    """(base gradient in z, chain coefficient) of e with ``hole`` held constant."""
    _, g, t = _forward(e, pt, hole=hole, hole_value=hole_value)
    return g, t


# ---------------------------------------------------------------------------
# Sum decomposition / weighted combination
# ---------------------------------------------------------------------------

# coefficients with magnitude at or below this are dropped when collecting
COLLECT_DROP_TOL = 1e-15


def _lit(c: float) -> Expr:
    return Neg(Lit(-c)) if c < 0 else Lit(c)


def decompose_sum(e: Expr):
    """Flatten into (terms, constant): e == sum(c * t for c, t in terms) + constant.

    Literal numeric factors (including whole constant subtrees such as
    ``1/sqrt(2)``) are pulled out of products and quotients; +, -, and unary
    negation are distributed.
    """
    terms = []
    const = 0.0

    def dec(node: Expr, c: float):
        nonlocal const
        lit = try_literal(node)
        if lit is not None:
            const += c * lit
            return
        if isinstance(node, BinOp) and node.op == "+":
            dec(node.left, c)
            dec(node.right, c)
            return
        if isinstance(node, BinOp) and node.op == "-":
            dec(node.left, c)
            dec(node.right, -c)
            return
        if isinstance(node, Neg):
            dec(node.arg, -c)
            return
        if isinstance(node, BinOp) and node.op == "*":
            la = try_literal(node.left)
            if la is not None:
                dec(node.right, c * la)
                return
            lb = try_literal(node.right)
            if lb is not None:
                dec(node.left, c * lb)
                return
        if isinstance(node, BinOp) and node.op == "/":
            lb = try_literal(node.right)
            if lb is not None and lb != 0.0:
                dec(node.left, c / lb)
                return
        terms.append((c, node))

    dec(e, 1.0)
    return terms, const


def collect_terms(terms):
    """Merge structurally identical subtrees, summing coefficients."""
    merged = {}
    for c, t in terms:
        key = to_source(t)
        if key in merged:
            merged[key] = (merged[key][0] + c, merged[key][1])
        else:
            merged[key] = (c, t)
    return [
        (c, t) for c, t in merged.values() if abs(c) > COLLECT_DROP_TOL
    ]


def scaled_term(c: float, t: Expr) -> Expr:
    """``c * t``, written as ``t`` or ``-t`` when ``c`` is 1 or -1."""
    if c == 1.0:
        return t
    if c == -1.0:
        return Neg(t)
    return BinOp("*", _lit(c), t)


def rebuild_sum(terms, const: float) -> Expr:
    """Inverse of decompose_sum/collect_terms (up to literal placement)."""
    parts = [scaled_term(c, t) for c, t in terms]
    if abs(const) > COLLECT_DROP_TOL or not parts:
        parts.append(_lit(const))
    out = parts[0]
    for part in parts[1:]:
        out = BinOp("+", out, part)
    return out


def combine_weighted(coeffs, exprs) -> Expr:
    """Symbolic sum(c_j * e_j) with cancellation of identical kinked terms."""
    all_terms = []
    const = 0.0
    for c, e in zip(coeffs, exprs):
        if c == 0.0:
            continue
        terms, k = decompose_sum(e)
        const += c * k
        all_terms.extend((c * tc, t) for tc, t in terms)
    return rebuild_sum(collect_terms(all_terms), const)


def substitute_abs_class(e: Expr, key: str, sign: int) -> Expr:
    """Replace every abs node whose argument prints as ``key`` by ±argument."""

    def sub(node: Expr) -> Expr:
        if isinstance(node, Abs) and to_source(node.arg) == key:
            inner = sub(node.arg)
            return inner if sign > 0 else Neg(inner)
        if isinstance(node, BinOp):
            return BinOp(node.op, sub(node.left), sub(node.right))
        if isinstance(node, Neg):
            return Neg(sub(node.arg))
        if isinstance(node, Abs):
            return Abs(sub(node.arg))
        if isinstance(node, Sqrt):
            return Sqrt(sub(node.arg))
        if isinstance(node, Pow):
            return Pow(sub(node.base), node.exponent)
        if isinstance(node, MaxOp):
            return MaxOp(tuple(sub(a) for a in node.args))
        if isinstance(node, MinOp):
            return MinOp(tuple(sub(a) for a in node.args))
        return node

    return sub(e)
