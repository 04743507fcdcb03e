"""Regressor signal construction, evaluation, and excitation diagnostics.

A regressor is a known vector signal w(t) in R^q. Each component is a small
expression tree over the primitives {constant, t, sin, cos, exp, pow} closed
under +, -, *, /. Expressions can be built programmatically or parsed from a
compact infix grammar (see ``parse_expr``), e.g.::

    (sin(t)+cos(t))/pow(1+t,0.5) - sin(t)/(2*pow(1+t,1.5))

Excitation diagnostics integrate the windowed Gram matrix
``int_t^{t+T} w(s) w(s)^T ds`` by composite trapezoid rule and report its
smallest eigenvalue rho. A regressor is persistently exciting when rho stays
bounded away from zero for every window start; it is only interval exciting
when the bound holds on a single finite window.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SignalEvalError, SignalParseError

_DENOM_FLOOR = 1e-300


class SignalExpr:
    """Base class for scalar signal expression nodes.

    Nodes evaluate on a scalar time or a numpy array of times; evaluation is
    pure and thread-safe.
    """

    def __call__(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class Const(SignalExpr):
    value: float

    def __call__(self, t):
        return self.value * np.ones_like(np.asarray(t, dtype=float))

    def __str__(self):
        return format_float(self.value)


@dataclass(frozen=True)
class Time(SignalExpr):
    def __call__(self, t):
        return np.asarray(t, dtype=float)

    def __str__(self):
        return "t"


@dataclass(frozen=True)
class Func(SignalExpr):
    """sin, cos, or exp applied to a subexpression."""

    name: str
    arg: SignalExpr

    _TABLE = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

    def __call__(self, t):
        return self._TABLE[self.name](self.arg(t))

    def __str__(self):
        return f"{self.name}({self.arg})"


@dataclass(frozen=True)
class Pow(SignalExpr):
    base: SignalExpr
    exponent: SignalExpr

    def __call__(self, t):
        return np.power(self.base(t), self.exponent(t))

    def __str__(self):
        return f"pow({self.base},{self.exponent})"


@dataclass(frozen=True)
class BinOp(SignalExpr):
    op: str  # one of + - * /
    left: SignalExpr
    right: SignalExpr

    def __call__(self, t):
        a = self.left(t)
        b = self.right(t)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        # division: denominators must stay bounded away from zero
        if np.min(np.abs(b)) < _DENOM_FLOOR:
            raise SignalEvalError(
                f"denominator magnitude below {_DENOM_FLOOR:g} in '{self.right}'"
            )
        return a / b

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


def format_float(x: float) -> str:
    """Shortest representation that round-trips through float()."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


# --------------------------------------------------------------------------
# Infix grammar:  expr := term (('+'|'-') term)*
#                 term := unary (('*'|'/') unary)*
#                 unary := '-' unary | atom
#                 atom := NUMBER | 't' | fn '(' expr ')' | 'pow' '(' expr ',' expr ')'
#                       | '(' expr ')'
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<sym>[()+\-*/,]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise SignalParseError(f"unexpected character {text[pos]!r} at {pos} in {text!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("sym", m.group("sym")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, val = self.next()
        if kind != "sym" or val != sym:
            raise SignalParseError(f"expected {sym!r}, got {val!r} in {self.text!r}")

    def parse(self) -> SignalExpr:
        node = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise SignalParseError(f"trailing input {val!r} in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("sym", "*") or self.peek() == ("sym", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("sym", "-"):
            self.next()
            return BinOp("*", Const(-1.0), self.unary())
        return self.atom()

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return Const(val)
        if kind == "name":
            if val == "t":
                return Time()
            if val in ("sin", "cos", "exp"):
                self.expect_sym("(")
                arg = self.expr()
                self.expect_sym(")")
                return Func(val, arg)
            if val == "pow":
                self.expect_sym("(")
                base = self.expr()
                self.expect_sym(",")
                exponent = self.expr()
                self.expect_sym(")")
                return Pow(base, exponent)
            raise SignalParseError(f"unknown identifier {val!r} in {self.text!r}")
        if (kind, val) == ("sym", "("):
            node = self.expr()
            self.expect_sym(")")
            return node
        raise SignalParseError(f"unexpected token {val!r} in {self.text!r}")


def parse_expr(text: str) -> SignalExpr:
    """Parse an infix signal expression string into a SignalExpr tree."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Regressor vector
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressorSpec:
    """Known regressor vector w(t): one scalar expression per component."""

    components: tuple[SignalExpr, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ConfigurationError("regressor needs at least one component")

    @property
    def dimension(self) -> int:
        return len(self.components)

    def evaluate(self, t: float) -> np.ndarray:
        """Evaluate w(t) at a single time; raises SignalEvalError on non-finite."""
        out = np.empty(self.dimension)
        for i, comp in enumerate(self.components):
            with np.errstate(over="ignore", invalid="ignore"):
                v = float(comp(t))
            if not np.isfinite(v):
                raise SignalEvalError(f"component {i} evaluated to {v!r} at t={t}")
            out[i] = v
        return out

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Evaluate on an array of times; returns shape (len(ts), q)."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, self.dimension))
        for i, comp in enumerate(self.components):
            with np.errstate(over="ignore", invalid="ignore"):
                col = comp(ts)
            if not np.all(np.isfinite(col)):
                bad = ts[~np.isfinite(col)][0]
                raise SignalEvalError(f"component {i} non-finite at t={bad}")
            out[:, i] = col
        return out


def regressor_from_strings(exprs) -> RegressorSpec:
    """Build a RegressorSpec from a sequence of infix expression strings."""
    return RegressorSpec(tuple(parse_expr(e) for e in exprs))


# --------------------------------------------------------------------------
# Excitation diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcitationReport:
    """Windowed Gram integral of the regressor and its smallest eigenvalue."""

    window_start: float
    window_length: float
    gram: np.ndarray
    min_eigenvalue: float


def excitation_report(spec: RegressorSpec, t: float, T: float, dt: float) -> ExcitationReport:
    """Integrate the Gram matrix of w over [t, t+T] by composite trapezoid.

    The step is adjusted to the nearest value dividing T exactly; dt must be
    at most T/10 so the window holds a reasonable number of nodes.
    """
    if T <= 0 or dt <= 0:
        raise ConfigurationError("window length and quadrature step must be positive")
    if dt > T / 10:
        raise ConfigurationError(f"quadrature step {dt} too coarse for window {T}")
    n = int(round(T / dt))
    h = T / n
    ts = t + h * np.arange(n + 1)
    w = spec.sample(ts)
    weights = np.full(n + 1, h)
    weights[0] = weights[-1] = h / 2
    gram = (w * weights[:, None]).T @ w
    gram = 0.5 * (gram + gram.T)
    rho = float(np.linalg.eigvalsh(gram)[0])
    return ExcitationReport(window_start=float(t), window_length=float(T),
                            gram=gram, min_eigenvalue=rho)


def excitation_sweep(spec: RegressorSpec, starts, T: float, dt: float):
    """Minimum Gram eigenvalue over a sweep of window starts.

    Returns a list of (start, rho) pairs; the map staying bounded away from
    zero over all starts is the observable signature of persistent
    excitation, while a decaying map indicates excitation confined to an
    initial interval.
    """
    return [(float(s), excitation_report(spec, s, T, dt).min_eigenvalue) for s in starts]
