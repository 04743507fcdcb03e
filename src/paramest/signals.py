"""Regressor signal construction, evaluation, and excitation diagnostics.

A regressor is a known vector signal w(t) in R^q. Each component is a
``SignalExpr`` parsed from an infix string over numeric literals, t, sin,
cos, exp and pow(base, p), closed under + - * / and unary minus, e.g.::

    (sin(t)+cos(t))/pow(1+t,0.5) - sin(t)/(2*pow(1+t,1.5))

The grammar is a whitelist over Python expression syntax: ``ast.parse``
reads the string and any node outside the grammar is a parse error, as is
nesting too deep for the parser. An accepted string is compiled once and
evaluated with no builtins in scope.

Excitation diagnostics integrate the windowed Gram matrix
``int_t^{t+T} w(s) w(s)^T ds`` by composite trapezoid rule and report its
smallest eigenvalue rho. A regressor is persistently exciting when rho stays
bounded away from zero for every window start; it is only interval exciting
when the bound holds on a single finite window.
"""
from __future__ import annotations

import ast
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SignalEvalError, SignalParseError

_DENOM_FLOOR = 1e-300
_ARITY = {"sin": 1, "cos": 1, "exp": 1, "pow": 2}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_FOREIGN = re.compile(r"[^A-Za-z0-9_.()+\-*/, ]")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_LITERAL = re.compile(r"[0-9.eE+-]+")


def _clip(text: str) -> str:
    return repr(text if len(text) <= 80 else text[:77] + "...")


def _nonzero(b, label: str):
    """The denominator b, unless it comes within the floor of zero."""
    if np.min(np.abs(b)) < _DENOM_FLOOR:
        raise SignalEvalError(f"denominator magnitude below {_DENOM_FLOOR:g} in {label}")
    return b


_SCOPE = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp,
          "pow": np.power, "_nonzero": _nonzero}


def _compilable(source: str) -> tuple[str, list[float]]:
    """Check source against the grammar and rewrite it for ``eval``.

    Any node outside the grammar is a SyntaxError. In the returned text each
    literal reads ``(_k[i]*_one)``, with its value at index i of the returned
    list, and each denominator d reads ``_nonzero(d, label)``. Literals are
    arrays like t because numpy takes other loops for scalar operands (power
    with a scalar exponent rounds differently). The walk is iterative, and
    text compiles to about three times the nesting depth an ``ast`` tree does.
    """
    def outside(node):
        return SyntaxError(f"{_clip(ast.get_source_segment(source, node))} is outside "
                           "the signal grammar")

    consts = []
    # (position, order among edits there: closing before opening, outer
    # before inner; text to insert; number of source characters it replaces)
    edits = []
    todo = [ast.parse(source, mode="eval").body]
    while todo:
        node = todo.pop()
        start, end = node.col_offset, node.end_col_offset
        if isinstance(node, ast.Constant):
            literal = source[start:end]
            if type(node.value) not in (int, float) or not _LITERAL.fullmatch(literal):
                raise outside(node)
            edits.append((start, (1, -end, 1), f"(_k[{len(consts)}]*_one)", end - start))
            consts.append(float(literal))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            todo += [node.left, node.right]
            if isinstance(node.op, ast.Div):
                a, b = node.right.col_offset, node.right.end_col_offset
                edits.append((a, (1, -b, 0), "_nonzero(", 0))
                edits.append((b, (0, -a), f", {_clip(source[a:b])!r})", 0))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            todo.append(node.operand)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and len(node.args) == _ARITY.get(node.func.id) and not node.keywords
              # Python also reads "(sin)(t)" and a trailing comma "sin(t,)"
              and node.func.col_offset == start
              and "," not in source[node.args[-1].end_col_offset:end]):
            todo += node.args
        elif not (isinstance(node, ast.Name) and node.id == "t"):
            raise outside(node)

    pieces, done = [], 0
    for pos, _, text, replaced in sorted(edits):
        pieces += [source[done:pos], text]
        done = pos + replaced
    return "".join(pieces) + source[done:], consts


class SignalExpr:
    """One scalar signal, parsed from an infix string and compiled once.

    Calling it on a time or an array of times evaluates it elementwise; the
    evaluation is pure and thread-safe. ``str`` gives back the source text.
    """

    def __init__(self, text: str):
        self.text = text
        # the tokens of the grammar are ASCII and may be split by any
        # whitespace; integer literals may carry leading zeros
        source = _LEADING_ZEROS.sub("", " ".join(text.split()))
        try:
            bad = _FOREIGN.search(source)
            if bad:
                raise SyntaxError(f"unexpected character {bad.group()!r}")
            code, consts = _compilable(source)
            self._code = compile(code, "<signal>", "eval")
        except RecursionError:
            raise SignalParseError(f"expression nested too deeply: {_clip(text)}") from None
        except (SyntaxError, ValueError) as exc:
            raise SignalParseError(f"{getattr(exc, 'msg', exc)} in {_clip(text)}") from None
        self._scope = {**_SCOPE, "_k": consts}

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t) if self._scope["_k"] else None
        return eval(self._code, {**self._scope, "t": t, "_one": one})

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"SignalExpr({self.text!r})"


def format_float(x: float) -> str:
    """Shortest representation that round-trips through float()."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def parse_expr(text: str) -> SignalExpr:
    """Parse an infix signal expression string into a SignalExpr."""
    return SignalExpr(text)


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
        """w(t) at a single time: ``sample`` at one point."""
        return self.sample(np.array([t], dtype=float))[0]

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
    """Build a RegressorSpec from a list or tuple of infix expression strings."""
    if not isinstance(exprs, (list, tuple)):
        raise ConfigurationError(
            f"regressor must be a list of expression strings, got {type(exprs).__name__}")
    for i, text in enumerate(exprs):
        if not isinstance(text, str):
            raise SignalParseError(f"regressor component {i} must be a string, got {text!r}")
    return RegressorSpec(tuple(SignalExpr(text) for text in exprs))


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
    if not 0 < T < np.inf:
        raise ConfigurationError(f"window length must be positive and finite, got {T}")
    if not 0 < dt < np.inf:
        raise ConfigurationError(f"quadrature step must be positive and finite, got {dt}")
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
