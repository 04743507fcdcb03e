"""Regressor signal construction, evaluation, and excitation diagnostics.

A regressor is a known vector signal w(t) in R^q. Each component is a
``SignalExpr`` parsed from an infix string over numeric literals, t, sin,
cos, exp and pow(base, p), closed under + - * / and unary minus, e.g.::

    (sin(t)+cos(t))/pow(1+t,0.5) - sin(t)/(2*pow(1+t,1.5))

The grammar is a whitelist over Python expression syntax: ``ast.parse``
reads the string and any node outside the grammar is a parse error, as is
nesting too deep for the parser. A ``RegressorSpec`` compiles the trees of
all its components once into one straight-line program with one line per
distinct subexpression, run with no builtins in scope: a subtree that
several components share is evaluated once per call, with the same numpy
operations and so the same values as evaluating each component alone.

Excitation diagnostics integrate the windowed Gram matrix
``int_t^{t+T} w(s) w(s)^T ds`` by composite trapezoid rule and report its
smallest eigenvalue rho. ``excitation_sweep`` is the one path: it evaluates
the windows one by one into a reused buffer and takes the eigenvalues of
blocks of windows at once; ``excitation_report`` is its one-window case. A
regressor is persistently exciting when rho stays bounded away from zero for
every window start; it is only interval exciting when the bound holds on a
single finite window.

Every window has its nodes at ``s + offsets`` with the same offsets, so a
sweep runs its own compile of the components (``_gram_blocks``): its
constants are computed once per sweep, each separable node, sin or cos of ``k*t + c``
for literals k and c, comes from the addition formula sin(ks + c + ko) =
sin(ks + c) cos(ko) + cos(ks + c) sin(ko) as one matrix product per window
and distinct k, and finiteness is tested once per window, on its Gram
matrix, with any failing window evaluated again by sampling so that it
raises sampling's error. ``RegressorSpec.sample``, like the simulation,
never takes this path. Over the ``pe-scan`` tables of the builtin scenarios
rho moves by at most 4.5e-15 from the sampled windows', and for the random
mixed regressors of the tests, with starts in [-50, 1e3], by at most
2.5e-13 of the window's largest Gram eigenvalue.
"""
from __future__ import annotations

import ast
import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SignalEvalError, SignalParseError

# Most integration steps, quadrature intervals or excitation windows one call
# may ask for: 50x the longest horizon any test or benchmark runs (100 s at
# dt = 5e-4), while a half-step grid of that many steps still fits in memory.
MAX_STEPS = 10_000_000
# excitation windows per eigenvalue call: a sweep holds one block's Gram
# matrices at a time
_GRAM_BLOCK = 512
_DENOM_FLOOR = 1e-300
_ARITY = {"sin": 1, "cos": 1, "exp": 1, "pow": 2}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_FOREIGN = re.compile(r"[^A-Za-z0-9_.()+\-*/, ]")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_LITERAL = re.compile(r"[0-9.eE+-]+")


def _clip(text: str) -> str:
    return repr(text if len(text) <= 80 else text[:77] + "...")


def _segment(source: str, node: ast.AST) -> str:
    return source[node.col_offset:node.end_col_offset]


def _children(node: ast.expr) -> list:
    if isinstance(node, ast.BinOp):
        return [node.left, node.right]
    if isinstance(node, ast.UnaryOp):
        return [node.operand]
    return node.args if isinstance(node, ast.Call) else []


def _nonzero(b, label: str):
    """The denominator b, unless it comes within the floor of zero (a nan
    entry passes). A b of one sign is passed on its minimum or maximum."""
    if b.min(initial=np.inf) >= _DENOM_FLOOR or b.max(initial=-np.inf) <= -_DENOM_FLOOR:
        return b
    if np.min(np.abs(b), initial=np.inf) < _DENOM_FLOOR:
        raise SignalEvalError(f"denominator magnitude below {_DENOM_FLOOR:g} in {label}")
    return b


def _finite(i: int, col, ts):
    """Component i's values col at the times ts, unless one of them is not finite.

    Defined here, not in the compiled program: numpy imports some modules on
    first use, which fails in code that runs with no builtins in scope.
    """
    finite = np.isfinite(col)
    if not finite.all():
        raise SignalEvalError(f"component {i} non-finite at t={ts[~finite][0]}")
    return col


def _grammar_tree(source: str) -> ast.expr:
    """The parsed tree of source; any node outside the grammar is a SyntaxError.

    The walk is iterative, so nesting is bounded by the parser alone.
    """
    def outside(node):
        return SyntaxError(f"{_clip(ast.get_source_segment(source, node))} is outside "
                           "the signal grammar")

    tree = ast.parse(source, mode="eval").body
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float) or not _LITERAL.fullmatch(
                    _segment(source, node)):
                raise outside(node)
        elif (isinstance(node, ast.BinOp) and type(node.op) in _BINOPS
              or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)):
            todo += _children(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and len(node.args) == _ARITY.get(node.func.id) and not node.keywords
              # Python also reads "(sin)(t)" and a trailing comma "sin(t,)"
              and node.func.col_offset == node.col_offset
              and "," not in source[node.args[-1].end_col_offset:node.end_col_offset]):
            todo += node.args
        elif not (isinstance(node, ast.Name) and node.id == "t"):
            raise outside(node)
    return tree


def _angle(source: str, node: ast.expr):
    """``(func, k, c)`` when node is sin or cos of ``k*t + c`` for literals k
    and c: the argument t, -t, k*t or t*k, optionally plus or minus a literal
    c (else c is 0). None for any other node."""
    if not (isinstance(node, ast.Call) and node.func.id in ("sin", "cos")):
        return None
    arg, c = node.args[0], 0.0
    if (isinstance(arg, ast.BinOp) and type(arg.op) in (ast.Add, ast.Sub)
            and isinstance(arg.right, ast.Constant)):
        c = float(_segment(source, arg.right))
        c = c if isinstance(arg.op, ast.Add) else -c
        arg = arg.left
    if isinstance(arg, ast.Name):
        k = 1.0
    elif isinstance(arg, ast.UnaryOp) and isinstance(arg.operand, ast.Name):
        k = -1.0
    elif (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult)
          and {type(arg.left), type(arg.right)} == {ast.Name, ast.Constant}):
        k = float(_segment(source, arg.left if isinstance(arg.left, ast.Constant)
                           else arg.right))
    else:
        return None
    return node.func.id, k, c


def _program(exprs, checked: bool, sweep: bool = False):
    """Compile grammar trees into one straight-line function over all of them.

    exprs holds ``(source, tree)`` pairs. Returns ``(make, literals,
    angles)``. ``make(_one)`` runs the prelude, the value lines that read
    neither t nor a ``_w[j]`` (literals and arithmetic on them), under
    ``np.errstate(all="ignore")`` and returns ``run(t, _out, _w)``, which
    stores expression i's value at the times t, shaped like ``_one``, in
    ``_out[i]``, with ``checked`` first passing it through ``_finite``.
    ``_one`` is an array of ones, needed only when ``literals`` is true.

    With ``sweep``, each sin or cos node that ``_angle`` reads as
    ``(func, k, c)`` is not computed from t: its value is ``_w[j]``, an
    array the caller fills with func(k*t + c), where ``angles[j]`` is that
    triple, and its argument's lines are emitted only if another node reads
    them. Without ``sweep``, ``angles`` is empty and ``_w`` unused.

    A post-order walk gives each distinct subexpression one line. A node's
    key is its literal value, operator or function name together with the
    lines of its children, so subtrees share a line when ``ast.dump`` prints
    them alike (or they are the literals 1 and 1.0), and each is evaluated
    once per call. Each expression's new lines and its store run before the
    next expression's, so an error names the component that evaluating the
    expressions one at a time would name. A denominator is checked once by
    ``_nonzero``, before its first division and labelled by that occurrence.
    Checks and stores stay in ``run``, in that order, so a constant ``1/0``
    raises there as it would with no prelude. Literals read ``_k[i] * _one``:
    arrays like t, because numpy takes other loops for scalar operands
    (power with a scalar exponent rounds differently). Each value of ``run``
    is deleted after its last use; the prelude's live as long as ``run``.
    """
    prelude = []  # statements
    lines = []  # (statement, names of the values it reads)
    consts = []
    angles = []
    names = {}  # key -> name of the value of that subexpression
    fixed = set()  # names of the prelude's values
    denominators = set()

    def line(key, text, reads):
        if key not in names:
            names[key] = name = f"_v{len(names)}"
            if key[0] != "w" and fixed.issuperset(reads):
                fixed.add(name)
                prelude.append(f"{name} = {text}")
            else:
                lines.append((f"{name} = {text}", reads))
        return names[key]

    for i, (source, tree) in enumerate(exprs):
        # root, right subtree, left subtree: reversed, the post-order
        order, todo, angle = [], [tree], {}  # angle: id(node) -> its _angle
        while todo:
            order.append(node := todo.pop())
            if sweep and (triple := _angle(source, node)):
                angle[id(node)] = triple
            else:
                todo += _children(node)
        value = {}  # id(node) -> name of its value
        for node in reversed(order):
            if id(node) in angle:
                key = ("w", *angle[id(node)])
                if key not in names:
                    angles.append(angle[id(node)])
                value[id(node)] = line(key, f"_w[{len(angles) - 1}]", [])
                continue
            args = [value[id(child)] for child in _children(node)]
            if isinstance(node, ast.Name):
                name = "t"
            elif isinstance(node, ast.Constant):
                literal = float(_segment(source, node))
                if ("k", literal) not in names:
                    consts.append(literal)
                name = line(("k", literal), f"_k[{len(consts) - 1}] * _one", [])
            elif isinstance(node, ast.UnaryOp):
                name = line(("-", *args), f"-{args[0]}", args)
            elif isinstance(node, ast.Call):
                name = line((node.func.id, *args), f"{node.func.id}({', '.join(args)})", args)
            else:
                op = _BINOPS[type(node.op)]
                if op == "/" and args[1] not in denominators:
                    denominators.add(args[1])
                    label = _clip(_segment(source, node.right))
                    lines.append((f"_nonzero({args[1]}, {label!r})", args[1:]))
                name = line((op, *args), f"{args[0]} {op} {args[1]}", args)
            value[id(node)] = name
        name = value[id(tree)]
        lines.append((f"_out[{i}] = " + (f"_finite({i}, {name}, t)" if checked else name),
                      [name]))

    last = {name: j for j, (_, reads) in enumerate(lines) for name in reads}
    body = []
    for j, (text, reads) in enumerate(lines):
        dead = sorted({name for name in reads if last[name] == j} - fixed - {"t"})
        body += [text] + ([f"del {', '.join(dead)}"] if dead else [])
    setup = "".join(f"        {text}\n" for text in prelude)
    source = ("def make(_one):\n"
              + (f"    with _errstate(all='ignore'):\n{setup}" if setup else "")
              + "    def run(t, _out, _w=()):\n" + "".join(f"        {text}\n" for text in body)
              + "    return run\n")
    scope = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp,
             "pow": np.power, "_nonzero": _nonzero, "_finite": _finite, "_k": consts,
             "_errstate": np.errstate}
    exec(compile(source, "<signal>", "exec"), scope)
    return scope["make"], bool(consts), angles


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
            self._tree = (source, _grammar_tree(source))
        except RecursionError:
            raise SignalParseError(f"expression nested too deeply: {_clip(text)}") from None
        except (SyntaxError, ValueError) as exc:
            raise SignalParseError(f"{getattr(exc, 'msg', exc)} in {_clip(text)}") from None

    @functools.cached_property
    def _compiled(self):
        # compiled on first call: a RegressorSpec compiles its components together
        return _program([self._tree], checked=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        make, literals, _ = self._compiled
        out = [None]
        make(np.ones_like(t) if literals else None)(t, out)
        return out[0]

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
    """Known regressor vector w(t): one scalar expression per component.

    The components are compiled once, together, into one straight-line
    program with one line per distinct subexpression (``_program``): a
    subtree that several components share, like ``sin(t)`` and ``cos(t)`` in
    example6, is evaluated once per call.
    """

    components: tuple[SignalExpr, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ConfigurationError("regressor needs at least one component")
        make, literals, _ = _program([c._tree for c in self.components], checked=True)
        object.__setattr__(self, "_make", make)
        object.__setattr__(self, "_literals", literals)

    @functools.cached_property
    def _sweep(self):
        """The ``_program`` of the components with ``sweep``: the one that
        ``_gram_blocks`` runs, compiled on the spec's first sweep."""
        return _program([c._tree for c in self.components], checked=False, sweep=True)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def evaluate(self, t: float) -> np.ndarray:
        """w(t) at a single time: ``sample`` at one point."""
        return self.sample(np.array([t], dtype=float))[0]

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Evaluate on an array of times; returns a C-ordered (len(ts), q) array."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, self.dimension))
        self._evaluate(ts, out.T)
        return out

    def _evaluate(self, ts: np.ndarray, out: np.ndarray) -> None:
        """w at the times ts into out, shape (q, len(ts)), one component at a
        time: a component not finite at every time raises SignalEvalError
        before the next one is computed."""
        with np.errstate(all="ignore"):
            self._make(np.ones_like(ts) if self._literals else None)(ts, out)


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


def _window_grams(spec: RegressorSpec, starts, T: float, dt: float):
    """Gram integrals of w over the windows [s, s+T], in blocks of windows.

    T and dt are checked at the call, which returns a generator over the
    starts: it yields ``(block, grams)`` for consecutive blocks of at most
    ``_GRAM_BLOCK`` starts, ``grams[j]`` the symmetrized trapezoid Gram
    matrix of window ``block[j]``, and takes the next block of starts only
    when the previous one is done (``_gram_blocks``).
    """
    if not 0 < T < np.inf:
        raise ConfigurationError(f"window length must be positive and finite, got {T}")
    if not 0 < dt < np.inf:
        raise ConfigurationError(f"quadrature step must be positive and finite, got {dt}")
    if dt > T / 10:
        raise ConfigurationError(f"quadrature step {dt} too coarse for window {T}")
    if T / dt > MAX_STEPS + 0.5:
        raise ConfigurationError(
            f"quadrature step {dt:g} over window {T:g} needs {T / dt:.3g} intervals, "
            f"more than the limit of {MAX_STEPS}")
    n = int(round(T / dt))
    return _gram_blocks(spec, iter(starts), n, T / n)


def _gram_blocks(spec: RegressorSpec, starts, n: int, h: float):
    """The blocks of ``_window_grams`` over n intervals of length h. The node
    offsets, weights and the sweep program's prelude are made once per
    sweep, and each window is evaluated into one reused buffer w (q, n+1),
    whose Gram matrix is ``(w * weights) @ w.T``.

    The separable nodes func(k*t + c) of one k are filled per window by one
    product ``coef @ [C; S]``: C, S = cos, sin of k*offsets are tabled once
    per sweep, and a node's row of coef is ``(a, b)`` for sin and
    ``(b, -a)`` for cos, a, b = sin, cos of k*s + c, taken once per block.
    A window whose Gram matrix is not finite (every weight is positive, so
    some value is not) or whose denominator check raised is evaluated again
    by sampling, in window order, which raises sampling's error; if none,
    its sampled Gram matrix is kept, or named by a ``SignalEvalError``.
    """
    make, literals, angles = spec._sweep
    offsets = h * np.arange(n + 1)
    weights = np.full(n + 1, h)
    weights[0] = weights[-1] = h / 2
    run = make(np.ones(n + 1) if literals else None)
    t = np.empty(n + 1)
    w = np.empty((spec.dimension, n + 1))
    weighted = np.empty_like(w)
    by_k = {}  # k -> (j, func, c) for each angle j of frequency k
    for j, (func, k, c) in enumerate(angles):
        by_k.setdefault(k, []).append((j, func, c))
    values = {k: np.empty((len(nodes), n + 1)) for k, nodes in by_k.items()}
    rows = {j: row for k, nodes in by_k.items() for (j, _, _), row in zip(nodes, values[k])}
    with np.errstate(all="ignore"):
        tables = {k: np.stack([np.cos(k * offsets), np.sin(k * offsets)]) for k in by_k}
    while (block := np.fromiter(itertools.islice(starts, _GRAM_BLOCK), float)).size:
        finite = np.isfinite(block)
        if not finite.all():
            raise ConfigurationError(f"window start must be finite, got {block[~finite][0]}")
        grams = np.empty((block.size, spec.dimension, spec.dimension))
        with np.errstate(all="ignore"):
            coefs = {}
            for k, nodes in by_k.items():
                coef = coefs[k] = np.empty((block.size, len(nodes), 2))
                for r, (_, func, c) in enumerate(nodes):
                    a, b = np.sin(k * block + c), np.cos(k * block + c)
                    coef[:, r, 0], coef[:, r, 1] = (a, b) if func == "sin" else (b, -a)
            for j, (gram, s) in enumerate(zip(grams, block)):
                for k, table in tables.items():
                    np.matmul(coefs[k][j], table, out=values[k])
                try:
                    run(np.add(offsets, s, out=t), w, rows)
                except SignalEvalError:
                    gram.fill(np.nan)  # evaluated again below
                    continue
                np.matmul(np.multiply(w, weights, out=weighted), w.T, out=gram)
            grams = 0.5 * (grams + grams.transpose(0, 2, 1))
        for j in np.flatnonzero(~np.isfinite(grams).all(axis=(1, 2))):
            spec._evaluate(np.add(offsets, block[j], out=t), w)
            with np.errstate(all="ignore"):
                gram = np.multiply(w, weights, out=weighted) @ w.T
                grams[j] = 0.5 * (gram + gram.T)
            if not np.isfinite(grams[j]).all():
                raise SignalEvalError(f"Gram matrix not finite over the window at t={block[j]}")
        yield block, grams


def excitation_report(spec: RegressorSpec, t: float, T: float, dt: float) -> ExcitationReport:
    """Integrate the Gram matrix of w over [t, t+T] by composite trapezoid.

    The one-window case of ``excitation_sweep``. The step is adjusted to the
    nearest value dividing T exactly; dt must be at most T/10 so the window
    holds a reasonable number of nodes, and at least T/MAX_STEPS so it holds
    no more intervals than the limit.
    """
    (_, grams), = _window_grams(spec, [t], T, dt)
    return ExcitationReport(window_start=float(t), window_length=float(T), gram=grams[0],
                            min_eigenvalue=float(np.linalg.eigvalsh(grams)[0, 0]))


def excitation_sweep(spec: RegressorSpec, starts, T: float, dt: float):
    """Minimum Gram eigenvalue over a sweep of window starts.

    Returns a list of (start, rho) pairs, rho as ``excitation_report`` gives
    it for that start; the map staying bounded away from zero over all
    starts is the observable signature of persistent excitation, while a
    decaying map indicates excitation confined to an initial interval. The
    windows are evaluated and their Gram matrices reduced in blocks of
    ``_GRAM_BLOCK``, so the sweep's working memory does not grow with the
    number of starts.
    """
    return list(itertools.chain.from_iterable(excitation_blocks(spec, starts, T, dt)))


def excitation_blocks(spec: RegressorSpec, starts, T: float, dt: float):
    """The (start, rho) pairs of ``excitation_sweep``, one list per block of
    at most ``_GRAM_BLOCK`` starts, each made when it is asked for: the starts
    may be any iterable, read one block at a time. T and dt are checked at
    the call, before the first block."""
    return (list(zip(block.tolist(), np.linalg.eigvalsh(grams)[:, 0].tolist()))
            for block, grams in _window_grams(spec, starts, T, dt))
