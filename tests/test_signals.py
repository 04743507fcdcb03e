import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paramest import signals
from paramest.catalog import BUILTIN_NAMES, builtin, builtin_t_end
from paramest.errors import (
    ConfigurationError,
    ScenarioNotFoundError,
    SignalEvalError,
    SignalParseError,
)
from paramest.signals import (
    _nonzero,
    excitation_report,
    excitation_sweep,
    parse_expr,
    regressor_from_strings,
)


class _BelowFloor(Exception):
    pass


def _divide(a, b):
    if np.min(np.abs(b)) < 1e-300:
        raise _BelowFloor
    return a / b


_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide}

# a grammar tree as (text, direct numpy evaluation); literals are arrays
# like t, so numpy picks the same loops as for the parsed expression
_leaves = st.one_of(
    st.just(("t", lambda t: t)),
    st.one_of(st.integers(0, 999).map(str),
              st.floats(0.0, 1e6, allow_nan=False).map(repr)).map(
        lambda s: (s, lambda t: float(s) * np.ones_like(t))),
)


def _branches(sub):
    return st.one_of(
        sub.map(lambda a: (f"-{a[0]}", lambda t: -a[1](t))),
        st.tuples(st.sampled_from(sorted(_FUNCS)), sub).map(
            lambda a: (f"{a[0]}({a[1][0]})", lambda t: _FUNCS[a[0]](a[1][1](t)))),
        st.tuples(sub, sub).map(
            lambda a: (f"pow({a[0][0]}, {a[1][0]})",
                       lambda t: np.power(a[0][1](t), a[1][1](t)))),
        st.tuples(sub, st.sampled_from(sorted(_OPS)), sub).map(
            lambda a: (f"({a[0][0]} {a[1]} {a[2][0]})",
                       lambda t: _OPS[a[1]](a[0][1](t), a[2][1](t)))),
    )


_trees = st.recursive(_leaves, _branches, max_leaves=10)


def _mixed_component(rng) -> str:
    """A random component mixing sin/cos of k*t + c, which a sweep evaluates
    by the addition formulas, with exp, pow and arithmetic. It stays within
    a few orders of magnitude of 1 for t in [-60, 1010], so the rounding of
    an angle shows in a Gram matrix relative to its largest eigenvalue."""
    def number(lo, hi):
        return f"{rng.uniform(lo, hi):.3g}"

    def angle():
        k, c = number(0.25, 3), number(0, 2)
        arg = rng.choice(["t", "-t", f"{k}*t", f"t*{k}", f"{k}*t + {c}", f"{k}*t - {c}"])
        return f"{rng.choice(['sin', 'cos'])}({arg})"

    def factor():
        return rng.choice([
            angle(), angle(), f"exp(-{number(0, 0.004)}*t)", f"pow(2 + {angle()}, {number(-2, 2)})",
            f"pow(1 + t*t, {number(-0.2, 0)})", f"{angle()}/(2 + cos(t*t))"])

    def term():
        return " * ".join(factor() for _ in range(rng.integers(1, 4)))

    return f" {rng.choice(['+', '-'])} ".join(f"{number(0.5, 2)}*{term()}"
                                             for _ in range(rng.integers(1, 4)))


def _trapezoid_rows(spec, starts, window, step):
    """(start, rho) per window from ``spec.sample`` and the trapezoid weights,
    with the sweep's operations but the plain program's values."""
    n = int(round(window / step))
    offsets = window / n * np.arange(n + 1)
    weights = np.full(n + 1, window / n)
    weights[0] = weights[-1] = window / n / 2
    grams = []
    for start in starts:
        w = np.ascontiguousarray(spec.sample(start + offsets).T)
        grams.append((w * weights) @ w.T)
    grams = np.array(grams)
    return list(zip(starts, np.linalg.eigvalsh(0.5 * (grams + grams.transpose(0, 2, 1)))))


class TestEval:
    def test_example1_at_zero(self):
        spec, _, _, _ = builtin("example1")
        assert np.allclose(spec.evaluate(0.0), [1.0, 0.0])

    def test_example3_at_zero(self):
        spec, _, _, _ = builtin("example3")
        assert np.allclose(spec.evaluate(0.0), [0.0, 1.0, 0.0])

    def test_example5_at_zero(self):
        spec, _, _, _ = builtin("example5")
        assert np.allclose(spec.evaluate(0.0), [1.0, 1.0])

    def test_parsed_matches_direct_formula(self):
        # the decaying component of examples 2/4/6, written out with numpy
        spec, _, _, _ = builtin("example2")
        for t in np.linspace(0.0, 40.0, 101):
            direct = (math.sin(t) + math.cos(t)) / (1 + t) ** 0.5 \
                - math.sin(t) / (2 * (1 + t) ** 1.5)
            assert spec.evaluate(t)[1] == pytest.approx(direct, abs=1e-14)

    def test_vectorized_sample_matches_scalar_eval(self):
        spec, _, _, _ = builtin("example6")
        ts = np.linspace(0.0, 20.0, 40)
        block = spec.sample(ts)
        for i, t in enumerate(ts):
            assert np.allclose(block[i], spec.evaluate(t), atol=1e-15)

    def test_nonfinite_names_component(self):
        spec = regressor_from_strings(["1", "exp(100*t)"])
        with pytest.raises(SignalEvalError, match="component 1"):
            spec.evaluate(10.0)

    def test_non_finite_power_raises_without_a_warning(self):
        # 0 ** -1 divides by zero inside numpy; the named error is the one message
        spec = regressor_from_strings(["1", "pow(t, -1)"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SignalEvalError, match="component 1 non-finite at t=0.0"):
                spec.sample([0.0, 1.0])

    def test_divide_near_zero_raises(self):
        spec = regressor_from_strings(["1/(t-1)"])
        with pytest.raises(SignalEvalError, match="denominator .* in 't-1'"):
            spec.evaluate(1.0)

    @pytest.mark.parametrize("b", [
        [-1.0, -2.0, -1e-299],  # all negative
        [-1.0, -1e-301],  # all negative, one within the floor
        [1.0, math.nan, 2.0],  # a nan entry passes
        [math.nan, 0.0],  # and hides a zero, as the magnitude's minimum does
        [1.0, 1e-301, 2.0],  # one entry within the floor among positives
        [2.0, 0.0],
        [1.0, -0.0],
        [-1.0, 1.0],  # both signs, away from zero
        [1e-300, 5e-324],  # subnormal
        [],
    ])
    def test_nonzero_matches_the_magnitude_floor(self, b):
        b = np.array(b)
        if np.min(np.abs(b), initial=np.inf) < 1e-300:
            with pytest.raises(SignalEvalError, match="denominator magnitude below 1e-300 in x"):
                _nonzero(b, "x")
        else:
            assert _nonzero(b, "x") is b

    def test_evaluate_is_sample_at_one_point(self):
        spec, _, _, _ = builtin("example6")
        assert np.array_equal(spec.evaluate(2.5), spec.sample([2.5])[0])

    def test_sample_of_no_times_is_empty(self):
        spec = regressor_from_strings(["1", "1/(1+t)"])
        assert spec.sample([]).shape == (0, 2)

    def test_errors_keep_component_order(self):
        # component 0 overflows at t = 1 before component 1's denominator vanishes
        with pytest.raises(SignalEvalError, match="component 0 non-finite"):
            regressor_from_strings(["exp(1000*t)", "1/(t-1)"]).evaluate(1.0)
        # one shared denominator, checked once under its first spelling
        with pytest.raises(SignalEvalError, match=r"in 't - 1'$"):
            regressor_from_strings(["t-1", "1/(t - 1) + 1/(t-1)"]).evaluate(1.0)

    def test_shared_subexpressions_are_evaluated_once(self, monkeypatch):
        exprs = [str(c) for c in builtin("example6")[0].components]
        calls = Counter()
        for name in ("sin", "cos"):
            ufunc = getattr(np, name)
            monkeypatch.setattr(np, name, lambda x, f=ufunc: calls.update([f.__name__]) or f(x))
        # example6 reads sin(t) twice and cos(t) twice
        regressor_from_strings(exprs).sample(np.linspace(0.0, 1.0, 5))
        assert calls == {"sin": 1, "cos": 1}

    @given(a=_trees, b=_trees, op=st.sampled_from(sorted(_OPS) + ["pow"]))
    def test_shared_subtrees_sample_like_numpy(self, a, b, op):
        # the third component holds the first two whole, so it reuses their lines
        if op == "pow":
            text, combine = f"pow({a[0]}, {b[0]})", np.power
        else:
            text, combine = f"({a[0]} {op} {b[0]})", _OPS[op]
        spec = regressor_from_strings([a[0], b[0], text])
        t = np.linspace(0.0, 10.0, 11)
        want, error = [], None
        with np.errstate(all="ignore"):
            for i, direct in enumerate((a[1], b[1], lambda t: combine(want[0], want[1]))):
                try:
                    col = direct(t)
                except _BelowFloor:
                    error = "denominator"
                    break
                if not np.all(np.isfinite(col)):
                    error = f"component {i} non-finite"
                    break
                want.append(col)
            if error:
                with pytest.raises(SignalEvalError, match=error):
                    spec.sample(t)
                return
            got = spec.sample(t)
        for i, col in enumerate(want):
            assert np.array_equal(got[:, i], col)
            assert np.array_equal(np.signbit(got[:, i]), np.signbit(col))


class TestParser:
    def test_numbers_and_precedence(self):
        e = parse_expr("1+2*3-4/2")
        assert float(e(0.0)) == pytest.approx(5.0)

    def test_unary_minus_and_nesting(self):
        e = parse_expr("-sin(t)*(-2)")
        assert float(e(math.pi / 2)) == pytest.approx(2.0)

    def test_pow_two_arguments(self):
        e = parse_expr("pow(1+t, 0.5)")
        assert float(e(3.0)) == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [
        "sin(t", "1 +", "bogus(t)", "t t", "pow(t)", "1 $ 2",
        "2**t", "+t", "t % 2", "True", "'a'", "1j", "0x10", "1_0", "sin(t, 1)",
        "sin(x=t)", "[t]", "t.real", "(t := 1)", "lambda: 1", "__import__('os')",
        "t if t else t", "(sin)(t)", "sin(t,)", "t # 1", "...", "",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SignalParseError):
            parse_expr(bad)

    def test_whitespace_and_leading_zeros(self):
        e = parse_expr(" 007*t\n+\t.5e1 ")
        assert float(e(2.0)) == 19.0

    @pytest.mark.parametrize("deep", [
        "(" * 3000 + "t" + ")" * 3000,
        "-" * 3000 + "t",
        "+".join(["t"] * 5000),
    ], ids=["parentheses", "unary-minus", "long-sum"])
    def test_excessive_nesting_is_a_parse_error(self, deep):
        with pytest.raises(SignalParseError, match="nested"):
            parse_expr(deep)

    def test_long_sum_evaluates(self):
        # deeper than a recursive tree walk could evaluate
        e = parse_expr("+".join(["t"] * 990))
        assert float(e(2.0)) == 1980.0

    @given(tree=_trees)
    def test_grammar_trees_match_numpy(self, tree):
        text, direct = tree
        expr = parse_expr(text)
        assert str(expr) == text
        t = np.linspace(0.0, 10.0, 11)
        with np.errstate(all="ignore"):
            try:
                want = direct(t)
            except _BelowFloor:
                with pytest.raises(SignalEvalError, match="denominator"):
                    expr(t)
                return
            got = expr(t)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_empty_regressor_rejected(self):
        with pytest.raises(ConfigurationError):
            regressor_from_strings([])

    @pytest.mark.parametrize("exprs", ["t", "sin(t)", None, 5])
    def test_regressor_must_be_a_list(self, exprs):
        with pytest.raises(ConfigurationError, match="regressor must be a list"):
            regressor_from_strings(exprs)

    def test_non_string_component_named(self):
        with pytest.raises(SignalParseError, match="component 1"):
            regressor_from_strings(["1", 2])


class TestBuiltin:
    # name -> (q, theta, tau, mu)
    EXPECTED = {
        "example1": (2, (-2.0, 2.0), 1.0, 0.95),
        "example2": (2, (-2.0, 2.0), 1.0, 0.95),
        "example3": (3, (1.0, 2.0, 3.0), 1.0, 0.55),
        "example4": (2, (-2.0, 2.0), 1.0, 0.75),
        "example5": (2, (-2.0, 2.0), 50.0, 0.75),
        "example6": (3, (1.0, 2.0, 3.0), 10.0, 0.95),
    }

    def test_catalog_covers_expected_names(self):
        assert BUILTIN_NAMES == tuple(self.EXPECTED)

    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_builtin_values(self, name):
        q, theta, tau, mu = self.EXPECTED[name]
        spec, got_theta, got_tau, got_mu = builtin(name)
        assert spec.dimension == q
        assert np.allclose(got_theta, theta)
        assert got_tau == tau and got_mu == mu

    def test_unknown_name(self):
        with pytest.raises(ScenarioNotFoundError):
            builtin("nosuch")


class TestExcitation:
    def test_example1_full_period_gram(self):
        # closed forms over one period: int 1 = 2*pi, int sin^2 = pi, int sin = 0
        spec, _, _, _ = builtin("example1")
        rep = excitation_report(spec, 0.0, 2 * math.pi, 1e-3)
        target = np.array([[2 * math.pi, 0.0], [0.0, math.pi]])
        assert np.max(np.abs(rep.gram - target)) < 1e-4
        assert rep.min_eigenvalue == pytest.approx(math.pi, abs=1e-4)

    def test_constant_rank_one_regressor(self):
        spec = regressor_from_strings(["1", "0"])
        rep = excitation_report(spec, 0.0, 3.0, 0.01)
        assert np.allclose(rep.gram, [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert abs(rep.min_eigenvalue) < 1e-12

    def test_example5_tail_below_analytic_bound(self):
        # rho <= integral of the decayed component energy over the window
        spec, _, _, _ = builtin("example5")
        rep = excitation_report(spec, 100.0, 10.0, 1e-3)
        bound = 2.0 * (math.exp(-50.0) - math.exp(-55.0))
        assert 0.0 <= rep.min_eigenvalue <= bound + 1e-12

    def test_example1_stays_excited_across_window_starts(self):
        spec, _, _, _ = builtin("example1")
        starts = np.arange(0.0, 20.0 + 1e-9, 0.5)
        for _, rho in excitation_sweep(spec, starts, 2 * math.pi, 1e-3):
            assert rho >= 3.0

    def test_example5_excitation_dies_out(self):
        spec, _, _, _ = builtin("example5")
        rep = excitation_report(spec, 100.0, 10.0, 1e-3)
        assert rep.min_eigenvalue < 1e-2

    def test_trapezoid_is_second_order(self):
        spec = regressor_from_strings(["sin(t)"])
        ref = excitation_report(spec, 0.0, 1.3, 1.3 / 8192).gram[0, 0]
        e1 = abs(excitation_report(spec, 0.0, 1.3, 1.3 / 16).gram[0, 0] - ref)
        e2 = abs(excitation_report(spec, 0.0, 1.3, 1.3 / 32).gram[0, 0] - ref)
        assert 3.5 < e1 / e2 < 4.5

    def test_validates_window_and_step(self):
        spec = regressor_from_strings(["1"])
        with pytest.raises(ConfigurationError):
            excitation_report(spec, 0.0, -1.0, 0.01)
        with pytest.raises(ConfigurationError):
            excitation_report(spec, 0.0, 1.0, 0.5)  # dt > T/10
        for window, step in ((math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan)):
            with pytest.raises(ConfigurationError, match="finite"):
                excitation_report(spec, 0.0, window, step)

    @staticmethod
    def _assert_non_finite_start_rejected(exprs, start):
        spec = regressor_from_strings(exprs)
        with pytest.raises(ConfigurationError, match=f"window start must be finite, got {start}"):
            excitation_sweep(spec, [0.0, start], 6.28, 1e-3)
        with pytest.raises(ConfigurationError, match="window start must be finite"):
            excitation_report(spec, start, 6.28, 1e-3)

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_rejected(self, start):
        self._assert_non_finite_start_rejected(["1", "1/(1+t)"], start)

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_rejected_with_angle_tables(self, start):
        # sin(2*t) is read from the sweep's angle tables
        self._assert_non_finite_start_rejected(["1", "1/(1+t)", "sin(2*t)"], start)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_sweep_matches_per_window_trapezoid(self, name):
        # more windows than one eigenvalue block, over the scenario's horizon
        spec, _, _, _ = builtin(name)
        window, step = 2 * math.pi, 1e-2
        starts = np.linspace(0.0137, builtin_t_end(name) - window, 600)
        n = int(round(window / step))
        h = window / n
        for (start, rho), want_start in zip(excitation_sweep(spec, starts, window, step), starts):
            w = spec.sample(want_start + h * np.arange(n + 1))
            gram = h * (w.T @ w) - 0.5 * h * (np.outer(w[0], w[0]) + np.outer(w[-1], w[-1]))
            eigenvalues = np.linalg.eigvalsh(0.5 * (gram + gram.T))
            assert start == want_start
            assert abs(rho - eigenvalues[0]) <= 1e-12 * eigenvalues[-1]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_report_is_the_sweeps_one_window_case(self, name):
        spec, _, _, _ = builtin(name)
        starts = [0.0, 3.3, 17.25]
        table = excitation_sweep(spec, starts, 2 * math.pi, 1e-3)
        assert table == [(s, excitation_report(spec, s, 2 * math.pi, 1e-3).min_eigenvalue)
                         for s in starts]

    @pytest.mark.parametrize("seed", range(24))
    def test_separable_sweep_matches_sampled_trapezoid(self, seed):
        rng = np.random.default_rng(seed)
        spec = regressor_from_strings([_mixed_component(rng) for _ in range(rng.integers(1, 4))])
        assert spec._sweep[2], "no node the sweep reads from angle tables"
        starts = np.concatenate([[-50.0, 0.0, 1e3], rng.uniform(-50.0, 1e3, 12)])
        table = excitation_sweep(spec, starts, 2 * math.pi, 1e-2)
        for (start, rho), (want_start, eigenvalues) in zip(
                table, _trapezoid_rows(spec, starts, 2 * math.pi, 1e-2), strict=True):
            assert start == want_start
            assert abs(rho - eigenvalues[0]) <= 1e-11 * eigenvalues[-1]

    @pytest.mark.parametrize("exprs", [
        ["1", "exp(-0.25*t)"],
        ["sin(t*t)", "cos(t/2)", "sin(2*t*1)", "pow(1 + t*t, 0.5) * cos(exp(-t))"],
        # constant components and factors, computed once per sweep
        ["2/3", "-0.5*1", "pow(2, 0.5)*exp(-0.25*t)/(1 + 2)"],
    ])
    def test_sweep_without_separable_nodes_is_the_plain_program(self, exprs):
        spec = regressor_from_strings(exprs)
        assert not spec._sweep[2]
        starts = np.linspace(-3.0, 40.0, 30)
        want = [(s, eigenvalues[0])
                for s, eigenvalues in _trapezoid_rows(spec, starts, 2 * math.pi, 1e-2)]
        assert excitation_sweep(spec, starts, 2 * math.pi, 1e-2) == want

    @staticmethod
    def _assert_sweep_error_matches_sampling(exprs, start):
        spec = regressor_from_strings(exprs)
        assert spec._sweep[2]
        with pytest.raises(SignalEvalError) as want:
            spec.sample(start + 6.29 / 629 * np.arange(630))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(SignalEvalError) as got:
                excitation_report(spec, start, 6.29, 0.01)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.parametrize("text,start", [
        ("sin(t)*exp(800*t)", 0.0),  # exp overflows past t = 0.887
        ("1/sin(t)", 0.0),  # the first node's denominator is 0
        ("sin(1e308*t)", 0.0),  # the angle overflows within the window
        ("cos(1e308*t + 1)", 1e10),  # the angle overflows at the start
    ])
    def test_separable_sweep_errors_match_sampling(self, text, start):
        self._assert_sweep_error_matches_sampling(["1", text], start)

    @pytest.mark.parametrize("exprs", [
        # component 0 turns non-finite and component 1's denominator is 0:
        # sampling names component 0, which the sweep checks only on its Gram
        ["sin(t)*exp(800*t)", "1/sin(t)"],
        # constants, computed once per sweep, beside a t-dependent component
        ["sin(t)", "1/0"],
        ["sin(t)", "pow(-1, 0.5)"],
        ["2/(1-1) + sin(t)", "cos(t)"],
    ])
    def test_sweep_errors_match_sampling_across_components(self, exprs):
        self._assert_sweep_error_matches_sampling(exprs, 0.0)

    def test_constant_components_match_sampled_trapezoid(self):
        spec = regressor_from_strings(["2/3", "-0.5*1", "sin(t)", "pow(2, 0.5)*cos(t)"])
        starts = np.linspace(-3.0, 40.0, 30)
        table = excitation_sweep(spec, starts, 2 * math.pi, 1e-2)
        for (start, rho), (want_start, eigenvalues) in zip(
                table, _trapezoid_rows(spec, starts, 2 * math.pi, 1e-2), strict=True):
            assert start == want_start
            assert abs(rho - eigenvalues[0]) <= 1e-12 * eigenvalues[-1]

    def test_gram_overflow_from_finite_values_is_named(self):
        spec = regressor_from_strings(["1e200", "sin(t)"])
        assert np.isfinite(spec.sample(np.linspace(0.0, 6.29, 630))).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SignalEvalError,
                               match=r"^Gram matrix not finite over the window at t=3\.5$"):
                excitation_sweep(spec, [3.5, 4.0], 6.29, 0.01)

    def test_window_whose_sweep_check_raises_keeps_its_sampled_gram(self, monkeypatch):
        # a sweep program whose every denominator check raises, while the
        # spec's sampling program, compiled first, checks as usual
        spec = regressor_from_strings(["1", "1/(2 + sin(t))"])
        raised = Counter()

        def refuse(b, label):
            raised[label] += 1
            raise SignalEvalError(label)

        monkeypatch.setattr(signals, "_nonzero", refuse)
        starts = np.linspace(0.0, 10.0, 7)
        assert excitation_sweep(spec, starts, 2 * math.pi, 1e-2) == [
            (s, eigenvalues[0])
            for s, eigenvalues in _trapezoid_rows(spec, starts, 2 * math.pi, 1e-2)]
        assert raised == {"'2 + sin(t)'": starts.size}

    def test_window_the_angle_tables_overflow_keeps_its_sampled_gram(self):
        # 1e308*o overflows for offsets o past 1.8, while the sampled angles
        # 1e308*(s + o) stay within [-1.5e308, 1.5e308]
        spec = regressor_from_strings(["1", "sin(1e308*t)"])
        starts = [-1.5, -1.4]
        assert excitation_sweep(spec, starts, 3.0, 0.01) == [
            (s, eigenvalues[0]) for s, eigenvalues in _trapezoid_rows(spec, starts, 3.0, 0.01)]

    def test_sweep_memory_does_not_grow_with_the_window_count(self):
        spec = regressor_from_strings(["1", "sin(t)", "cos(t)"])
        starts = 0.01 * np.arange(10_000)
        tracemalloc.start()
        try:
            table = excitation_sweep(spec, starts, 1.0, 0.1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == starts.size
        # beyond the table: a [10000, 3, 3] stack of Gram matrices would take 720 kB
        assert peak - current < 400_000

    @given(
        coeffs=st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.3, 3.0)),
            min_size=1, max_size=3),
        start=st.floats(0.0, 20.0),
        window=st.floats(0.5, 8.0),
    )
    def test_gram_symmetric_psd(self, coeffs, start, window):
        spec = regressor_from_strings(
            [f"{c0} + {c1}*sin({a}*t)" for c0, c1, a in coeffs])
        rep = excitation_report(spec, start, window, window / 64)
        assert np.max(np.abs(rep.gram - rep.gram.T)) < 1e-9
        assert rep.min_eigenvalue >= -1e-9
