import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_holonomy import expressions as xp
from higher_holonomy.errors import DomainError, ExpressionError


def ev(text, **env):
    return xp.parse(text).evaluate(env)


class TestParsing:
    def test_precedence(self):
        assert ev("1 + 2*3") == 7
        assert ev("(1 + 2)*3") == 9
        assert ev("2*x1^2", x1=3.0) == 18.0
        assert ev("-x1^2", x1=2.0) == -4.0

    def test_division_and_unary(self):
        assert ev("6/3/2") == 1.0
        assert ev("--2") == 2
        assert ev("3 - -2") == 5

    def test_functions_and_constants(self):
        assert abs(ev("sin(pi/2)") - 1.0) < 1e-15
        assert abs(ev("exp(0)") - 1.0) < 1e-15
        assert ev("i*i") == -1.0 + 0j

    def test_negative_powers(self):
        assert ev("x1^-2", x1=2.0) == 0.25

    def test_scientific_notation(self):
        assert ev("1e-3 + 2.5e2") == pytest.approx(250.001)

    def test_rejects_garbage(self):
        for bad in ("1 +", "foo(2)", "x1^t", "(1", "2 @ 3", "sin 2", "x1 x2"):
            with pytest.raises(ExpressionError):
                xp.parse(bad)

    def test_unbound_variable(self):
        with pytest.raises(ExpressionError):
            ev("x1 + x2", x1=1.0)

    @pytest.mark.parametrize("text, value", [
        ("-2", -2.0), ("i*(0.2)", 0.2j), ("(0.3 + 0.2*i)", 0.3 + 0.2j),
        ("2^-2", 0.25), ("-(1 - 3)/4", 0.5), ("cos(0)", 1.0),
    ])
    def test_constant_subexpressions_fold_to_numbers(self, text, value):
        e = xp.parse(text)
        assert isinstance(e, xp.Num) and e.value == value

    def test_folding_keeps_variables(self):
        e = xp.parse("x1*(2*3) - 0.5*i*x2")
        assert str(e) == "((x1 * 6.0) - ((0.0+0.5*i) * x2))"
        assert e.evaluate({"x1": 1.0, "x2": 2.0}) == 6.0 - 1j

    @pytest.mark.parametrize("text, message", [
        ("1/0", "division by zero"), ("i*(1/0)", "division by zero"),
        ("x1 + 2/(1 - 1)", "division by zero"), ("0^-1", "division by zero"),
        ("x1/0", "division by zero"), ("10^400", "overflow"), ("exp(1000)", "overflow"),
        ("exp(700)*exp(700)", "overflow"),
    ])
    def test_constant_arithmetic_errors_are_parse_errors(self, text, message):
        with pytest.raises(ExpressionError, match=message):
            xp.parse(text)

    def test_free_vars(self):
        leaves = xp.parse("sin(x1)*t + 2*z^2").leaves()
        assert [str(leaf) for leaf in leaves] == ["x1", "t", "2.0", "z"]


class TestEvaluation:
    def test_broadcasts_over_arrays(self):
        t = np.linspace(0, 1, 7)
        out = ev("t^2 + 1", t=t)
        assert np.allclose(out, t**2 + 1)

    def test_complex_arrays(self):
        x = np.array([0.0, 0.5])
        out = ev("i*(1 + x1)", x1=x)
        assert np.allclose(out, 1j * (1 + x))


class TestDifferentiation:
    CASES = [
        ("x1^3", "x1", lambda x: 3 * x**2),
        ("sin(2*x1)", "x1", lambda x: 2 * np.cos(2 * x)),
        ("exp(x1^2)", "x1", lambda x: 2 * x * np.exp(x**2)),
        ("cos(x1)/x1", "x1", lambda x: (-np.sin(x) * x - np.cos(x)) / x**2),
        ("x1*sin(x1)", "x1", lambda x: np.sin(x) + x * np.cos(x)),
    ]

    @pytest.mark.parametrize("text,var,deriv", CASES)
    def test_symbolic_matches_closed_form(self, text, var, deriv):
        d = xp.derivative(xp.parse(text), var)
        for x in (0.3, 0.9, 1.7):
            assert d.evaluate({var: x}) == pytest.approx(deriv(x), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.1, max_value=2.0))
    def test_derivative_matches_finite_difference(self, x):
        e = xp.parse("sin(x1)*exp(0.3*x1) + x1^3/(1 + x1^2)")
        d = xp.derivative(e, "x1")
        h = 1e-6
        fd = (e.evaluate({"x1": x + h}) - e.evaluate({"x1": x - h})) / (2 * h)
        assert d.evaluate({"x1": x}) == pytest.approx(fd, rel=1e-7, abs=1e-8)

    @pytest.mark.parametrize("text", ["(0*x1)^-1", "x1/(0*x2)"])
    def test_zero_divisor_after_differentiation_raises(self, text):
        # the divisor is 0 only once simplified; parsing keeps it symbolic
        e = xp.parse(text)
        with pytest.raises(ExpressionError, match="division by zero"):
            xp.derivative(e, "x1")

    def test_other_variable_is_constant(self):
        d = xp.derivative(xp.parse("x1*x2"), "x2")
        assert d.evaluate({"x1": 4.0, "x2": 0.0}) == 4.0

    def test_simplify_folds_constants(self):
        e = xp.simplify(xp.parse("0*x1 + 1*(2 + 3)"))
        assert isinstance(e, xp.Num) and e.value == 5


class TestTable:
    """`Table` against the per-entry `Expr.evaluate` it replaces."""

    REAL = ["s*t + sin(s)", "t^2 - 3", "exp(-s)*cos(2*t)", "s/(1 + t^2)"]
    COMPLEX = ["i*s + t", "(0.5 - i)*t^3", "exp(s)*i", "2"]
    S = np.random.default_rng(5).uniform(-1.0, 1.0, (7, 5))
    T = np.random.default_rng(6).uniform(-1.0, 1.0, 5)

    @staticmethod
    def shaped(entries, shape):
        return np.reshape(np.array(entries[:int(np.prod(shape))], dtype=object), shape).tolist()

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("real", [True, False])
    def test_eval_is_the_per_entry_oracle(self, shape, real):
        entries = self.shaped(self.REAL if real else self.COMPLEX, shape)
        table = xp.Table(entries, ("s", "t"), real=real)
        got = table.eval(self.S, self.T)
        assert got.shape == (7, 5) + shape
        assert got.dtype == (float if real else complex)
        env = {"s": self.S, "t": self.T}
        want = np.empty((7, 5) + shape, dtype=got.dtype)
        for index in np.ndindex(shape):
            text = np.array(entries, dtype=object)[index]
            want[(..., *index)] = xp.parse(text).evaluate(env)
        assert np.array_equal(got, want)
        for var in ("s", "t"):
            partial = table.partial(var)
            for index in np.ndindex(shape):
                d = xp.derivative(xp.parse(np.array(entries, dtype=object)[index]), var)
                assert str(partial.entries[index]) == str(d)
                assert np.array_equal(partial.eval(self.S, self.T)[(..., *index)],
                                      np.broadcast_to(d.evaluate(env), (7, 5)))

    @pytest.mark.parametrize("entries, value", [
        ("-2", -2.0), (["1", "0.5"], [1.0, 0.5]),
        ([["1", "-2"], ["i*(0.5)", "0"]], [[1.0, -2.0], [0.5j, 0.0]]),
    ])
    def test_table_of_numbers_is_one_read_only_value(self, entries, value):
        table = xp.Table(entries, ("s", "t"))
        vals = table.eval(self.S, self.T)
        assert vals.strides[:2] == (0, 0) and not vals.flags.writeable
        assert np.array_equal(vals, np.broadcast_to(value, vals.shape))
        # one value, built with the table, backs every evaluation
        assert np.shares_memory(vals, table.eval(0.5, 0.25))

    def test_free_variable_is_refused_by_name(self):
        with pytest.raises(DomainError, match=r"free variables \['s'\] in 's \+ t' outside \(t\)"):
            xp.Table(["t", "s + t"], ("t",))

    def test_free_variables_are_those_the_entries_use(self):
        table = xp.Table([["x2", "0"], ["sin(x4)*x2", "i"]], ("x1", "x2", "x3", "x4"))
        assert table.free_variables == ("x2", "x4")
        assert table.partial("x4").free_variables == ("x2", "x4")
        assert table.partial("x1").free_variables == ()
        assert xp.Table("2*pi", ("s", "t")).free_variables == ()

    def test_a_foreign_variable_is_refused_before_the_imaginary_unit(self):
        with pytest.raises(DomainError, match="free variables"):
            xp.Table(["t", "s + i"], ("t",), real=True)

    def test_ragged_table_is_an_expression_error(self):
        with pytest.raises(ExpressionError, match="expected an expression"):
            xp.Table([["1", "x1"], ["x1"]], ("x1",))

    @pytest.mark.parametrize("text", ["t + 0.5*i", "i*i", "t*(i - i)"])
    def test_real_table_refuses_the_imaginary_unit(self, text):
        with pytest.raises(DomainError, match="imaginary unit"):
            xp.Table(["t", text], ("t",), real=True)
        assert xp.Table(["t", text], ("t",)).eval(0.5).dtype == complex
