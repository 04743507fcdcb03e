import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paramest.catalog import BUILTIN_NAMES, builtin
from paramest.errors import (
    ConfigurationError,
    ScenarioNotFoundError,
    SignalEvalError,
    SignalParseError,
)
from paramest.signals import (
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

    def test_divide_near_zero_raises(self):
        spec = regressor_from_strings(["1/(t-1)"])
        with pytest.raises(SignalEvalError, match="denominator .* in 't-1'"):
            spec.evaluate(1.0)

    def test_evaluate_is_sample_at_one_point(self):
        spec, _, _, _ = builtin("example6")
        assert np.array_equal(spec.evaluate(2.5), spec.sample([2.5])[0])


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
