import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from higher_holonomy import forms as fm
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy.errors import DomainError, FakeCurvatureError, MembershipError
from higher_holonomy.sampling import ProductGrid

from .conftest import SU2, U1, one_form_from_callables, su2_matrix_table, two_form_from_callables
from .oracles import dense_one_form, dense_pair_contraction


class TestOneForm:
    def test_zero_form(self):
        a = fm.zero_one_form(SU2, 3)
        x = np.array([0.1, 0.2, 0.3])
        assert lc.frob(a(x, np.array([1.0, 1.0, 1.0])).matrix) == 0.0

    def test_zero_vector(self, su2_one_form):
        x = np.array([0.4, 0.8])
        assert lc.frob(su2_one_form(x, np.zeros(2)).matrix) == 0.0

    def test_linear_component_hand_value(self):
        # A = x2 * X dx1 at x=(0,3), v=(1,0) evaluates to 3X
        xmat = 0.5j * np.array([[1, 0], [0, -1]])
        a = fm.one_form_from_expressions(
            SU2,
            [su2_matrix_table("0.5*x2", "0", "0"), su2_matrix_table("0", "0", "0")],
            2,
        )
        val = a(np.array([0.0, 3.0]), np.array([1.0, 0.0]))
        assert np.allclose(val.matrix, 3.0 * xmat)

    def test_batched_eval_matches_pointwise(self, su2_one_form):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (5, 2))
        vs = rng.standard_normal((5, 2))
        batch = su2_one_form.matrices_at(xs, vs)
        for k in range(5):
            assert np.allclose(batch[k], su2_one_form(xs[k], vs[k]).matrix)

    def test_free_variable_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            fm.one_form_from_expressions(U1, [[["i*x3"]]], 1)

    def test_exponent_family_is_real(self):
        x0 = lc.AlgebraElement(SU2, 0.5j * np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(DomainError, match="imaginary unit"):
            fm.exp_scalar_family(SU2, "0.5*x1 + i*x2", x0, 2)
        with pytest.raises(DomainError, match="free variables"):
            fm.exp_scalar_family(SU2, "0.5*t", x0, 2)


class TestTwoForm:
    @pytest.fixture
    def b_field(self):
        return fm.two_form_from_expressions(U1, {(0, 1): [["i*(1 + x1)"]]}, 2)

    def test_antisymmetry(self, b_field):
        x = np.array([0.5, 0.5])
        v1 = np.array([1.0, 2.0])
        v2 = np.array([-0.3, 0.7])
        assert np.allclose(b_field(x, v1, v2).matrix, -b_field(x, v2, v1).matrix)
        assert lc.frob(b_field(x, v1, v1).matrix) == 0.0

    def test_basis_pair_recovers_component(self, b_field):
        x = np.array([0.25, 0.0])
        val = b_field(x, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert val.matrix[0, 0] == pytest.approx(1.25j)

    def test_bad_index_pair_rejected(self):
        with pytest.raises(ValueError):
            fm.TwoFormField(U1, {(1, 0): None}, 2)


class TestCurvature:
    def test_constant_form_gives_pure_bracket(self):
        a = fm.one_form_from_expressions(
            SU2,
            [su2_matrix_table("0.4", "0", "0"), su2_matrix_table("0", "0.3", "0")],
            2,
        )
        x = np.array([0.3, 0.3])
        e1, e2 = np.eye(2)
        k = fm.curvature_matrices_at(a, x, e1, e2)
        a1 = a.matrices_at(x, e1)
        a2 = a.matrices_at(x, e2)
        assert np.allclose(k, a1 @ a2 - a2 @ a1)

    def test_abelian_symbolic_d(self):
        # A = x1 dx2 on u(1): K(e1, e2) = 1 * generator
        a = fm.one_form_from_expressions(U1, [[["0"]], [["i*x1"]]], 2)
        k = fm.curvature_matrices_at(a, np.array([0.7, 0.1]), np.eye(2)[0], np.eye(2)[1])
        assert k[0, 0] == pytest.approx(1j)

    def test_rank_one_form_has_no_bracket(self):
        a = fm.one_form_from_expressions(U1, [[["i*x2^2"]], [["0"]]], 2)
        x = np.array([0.2, 0.4])
        k = fm.curvature_matrices_at(a, x, np.eye(2)[0], np.eye(2)[1])
        # dA(e1,e2) = -d/dx2 (x2^2) = -0.8
        assert k[0, 0] == pytest.approx(-0.8j)

    def test_fd_matches_symbolic_with_second_order(self):
        # entries need nonzero third derivatives or the central difference
        # is exact and the ratio test is vacuous
        tables = [su2_matrix_table("0.4*sin(2*x2)", "0.3*x1^3", "0"),
                  su2_matrix_table("0.2*exp(x1*x2)", "0", "0.5*x2^3")]
        sym = fm.one_form_from_expressions(SU2, tables, 2)
        x = np.array([0.3, 0.6])
        e1, e2 = np.eye(2)
        exact = fm.curvature_matrices_at(sym, x, e1, e2)
        errs = []
        for h in (2e-2, 1e-2):
            fd_form = one_form_from_callables(
                SU2, [lambda x, c=c: c.eval(x) for c in sym.components], 2, fd_step=h)
            errs.append(lc.frob(fm.curvature_matrices_at(fd_form, x, e1, e2) - exact))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] < 1e-4

    def test_symbolic_curvature_field_matches_pointwise(self, su2_one_form):
        kf = fm.symbolic_curvature(su2_one_form)
        x = np.array([0.35, 0.62])
        e1, e2 = np.eye(2)
        assert np.allclose(kf(x, e1, e2).matrix,
                           fm.curvature_matrices_at(su2_one_form, x, e1, e2))


def _expression_form(descriptor, ambient_dim, seed):
    """A one-form whose every entry is a seeded mix of sin and a square, so
    that partials and brackets are all nonzero."""
    rng = np.random.default_rng(seed)
    d = descriptor.matrix_dim

    def entry():
        a, b, c = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
        p, q = rng.integers(1, ambient_dim + 1, 2)
        return f"{a!r}*sin({b!r}*x{p}) + {c!r}*i*x{q}^2"

    tables = [[[entry() for _ in range(d)] for _ in range(d)] for _ in range(ambient_dim)]
    return fm.one_form_from_expressions(descriptor, tables, ambient_dim)


def _callable_copy(a, vectorized):
    return one_form_from_callables(
        a.descriptor, [lambda x, c=c: c.eval(x) for c in a.components], a.ambient_dim,
        vectorized=vectorized)


CURVATURE_FORMS = {
    "symbolic_su2": lambda: _expression_form(SU2, 4, 0),
    "vectorized_callable": lambda: _callable_copy(_expression_form(SU2, 4, 1), True),
    "per_point_callable": lambda: _callable_copy(_expression_form(SU2, 3, 2), False),
    "u1": lambda: _expression_form(U1, 3, 3),
    "dim_3": lambda: _expression_form(lc.su(3), 3, 4),
}


class TestCoordinateCurvatures:
    @pytest.mark.parametrize("form", sorted(CURVATURE_FORMS))
    def test_matches_curvature_on_unit_frames(self, form):
        # K_ij = d_i A_j - d_j A_i + A_i A_j - A_j A_i, written out here
        a = CURVATURE_FORMS[form]()
        n = a.ambient_dim
        xs = np.random.default_rng(5).uniform(0.0, 1.0, (3, 4, n))
        vals = [c.eval(xs) for c in a.components]
        exact = fm.symbolic_curvature(a) if a.is_symbolic else None
        planes = []
        for (i, j), k in fm.coordinate_curvatures(a, xs):
            ref = (a.components[j].partial(i).eval(xs) - a.components[i].partial(j).eval(xs)
                   + vals[i] @ vals[j] - vals[j] @ vals[i])
            assert k.shape == ref.shape
            assert np.linalg.norm(k - ref) <= 1e-13 * np.linalg.norm(ref)
            if exact is not None:
                sym = exact.component_matrix(i, j, xs)
                assert np.linalg.norm(k - sym) <= 1e-13 * np.linalg.norm(sym)
            planes.append((i, j))
        assert planes == [(i, j) for i in range(n) for j in range(i + 1, n)]

    @pytest.mark.parametrize("form", sorted(CURVATURE_FORMS))
    def test_general_frames_match_the_exterior_derivative(self, form):
        a = CURVATURE_FORMS[form]()
        n = a.ambient_dim
        rng = np.random.default_rng(6)
        xs = rng.uniform(0.0, 1.0, (3, 4, n))
        v1, v2 = rng.uniform(-1.0, 1.0, (2, 3, 4, n))
        a1 = a.matrices_at(xs, v1)
        a2 = a.matrices_at(xs, v2)
        ref = fm.exterior_derivative_one_form(a, xs, v1, v2) + a1 @ a2 - a2 @ a1
        k = fm.curvature_matrices_at(a, xs, v1, v2)
        assert np.linalg.norm(k - ref) <= 1e-13 * np.linalg.norm(ref)


def _product_grid(sizes, seed):
    """Axes of unequal, seeded lengths, so that a mix-up of axes shows."""
    rng = np.random.default_rng(seed)
    return ProductGrid([np.sort(rng.uniform(0.0, 1.0, m)) for m in sizes])


class TestProductGrid:
    """Fields on a product grid take, bit for bit, their values at its
    stacked points; `flat` spreads them over the points in order."""

    def test_points_are_the_tensor_product_in_c_order(self):
        grid = _product_grid((2, 3, 4, 5), 30)
        mesh = np.meshgrid(*[ax.ravel() for ax in grid.axes], indexing="ij")
        assert grid.shape == np.shape(grid) == (120, 4)
        assert grid.grid_shape == (2, 3, 4, 5)
        assert np.array_equal(grid.points, np.stack([g.ravel() for g in mesh], axis=-1))

    @pytest.mark.parametrize("entries, shape", [
        (su2_matrix_table("0.4*x2", "0", "0"), (1, 3, 1, 1)),
        (su2_matrix_table("x1*x4", "0.5", "0"), (2, 1, 1, 5)),
        (su2_matrix_table("sin(x3)*exp(x4)", "cos(x1)", "x2^2 - exp(x1)/3"), (2, 3, 4, 5)),
        (su2_matrix_table("0.5", "0.25", "0"), (1, 1, 1, 1)),
    ])
    def test_expression_field_uses_only_its_free_axes(self, entries, shape):
        grid = _product_grid((2, 3, 4, 5), 31)
        fld = fm.ExpressionMatrixField(entries, 2, 4)
        vals = fld.eval(grid)
        assert vals.shape == shape + (2, 2)
        assert np.array_equal(grid.flat(vals), fld.eval(grid.points))
        for axis in range(4):
            part = fld.partial(axis)
            assert np.array_equal(grid.flat(part.eval(grid)), part.eval(grid.points))

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_callable_field_sees_the_flat_points(self, vectorized):
        grid = _product_grid((2, 3, 2), 32)
        seen = []

        def fn(x):
            seen.append(x.shape)
            out = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
            out[..., 0, 0] = 1j * np.exp(x[..., 0])
            out[..., 0, 1] = x[..., 1] * x[..., 2]
            out[..., 1, 0] = np.sin(x[..., 2])
            return out

        fld = fm.CallableMatrixField(fn, 2, 3, vectorized=vectorized)
        vals = fld.eval(grid)
        assert seen[0] == ((12, 3) if vectorized else (3,))
        assert vals.shape == (2, 3, 2, 2, 2)
        assert np.array_equal(grid.flat(vals), fld.eval(grid.points))
        part = fld.partial(1)
        assert np.array_equal(grid.flat(part.eval(grid)), part.eval(grid.points))

    def test_callable_may_return_one_matrix(self):
        grid = _product_grid((2, 3), 33)
        m = np.array([[1j, 2.0], [-2.0, -1j]])
        assert np.array_equal(fm.CallableMatrixField(lambda x: m, 2, 2).eval(grid), m)

    @pytest.mark.parametrize("form", sorted(CURVATURE_FORMS))
    def test_coordinate_curvatures_equal_the_stacked_points(self, form):
        a = CURVATURE_FORMS[form]()
        grid = _product_grid((3, 2, 4, 5)[:a.ambient_dim], 34)
        at_points = dict(fm.coordinate_curvatures(a, grid.points))
        for plane, k in fm.coordinate_curvatures(a, grid):
            assert np.array_equal(grid.flat(k), at_points[plane])

    def test_a_missing_plane_is_one_zero_matrix(self):
        grid = _product_grid((2, 3, 4), 35)
        b = fm.two_form_from_expressions(SU2, {(0, 2): su2_matrix_table("x2", "0", "0")}, 3)
        assert b.component_matrix(0, 1, grid).shape == (1, 1, 1, 2, 2)
        for i, j in ((0, 1), (0, 2), (2, 0), (1, 2)):
            assert np.array_equal(grid.flat(b.component_matrix(i, j, grid)),
                                  b.component_matrix(i, j, grid.points))


def _frame(rng, shape, zero_columns):
    """A random frame stack (..., n) whose listed columns are exactly 0."""
    v = rng.uniform(-1.0, 1.0, shape)
    v[..., list(zero_columns)] = 0.0
    return v


def _counted_field(calls, key, value):
    """A vectorized U(1) component that counts its calls under `key` and
    returns `value` at every point."""
    def fn(x):
        calls[key] = calls.get(key, 0) + 1
        return np.full(x.shape[:-1] + (1, 1), value, dtype=complex)
    return fn


class TestFrameContraction:
    # every evaluator on vectors is one frame contraction: a component or
    # plane whose coefficient is identically zero is not evaluated
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 4), stack=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           zeros1=st.sets(st.integers(0, 3)), zeros2=st.sets(st.integers(0, 3)),
           one_point=st.booleans())
    @example(n=3, stack=2, seed=0, zeros1={0, 1, 2}, zeros2={0, 1, 2}, one_point=False)
    @example(n=2, stack=3, seed=1, zeros1={0, 1}, zeros2=set(), one_point=True)
    def test_matches_a_dense_einsum(self, n, stack, seed, zeros1, zeros2, one_point):
        rng = np.random.default_rng(seed)
        a = _expression_form(SU2, n, seed % 7)
        planes = [(i, j) for i in range(n) for j in range(i + 1, n)]
        stored = planes[:: 1 + seed % 2]
        b = fm.TwoFormField(SU2, {p: _expression_form(SU2, n, seed % 5 + k).components[0]
                                  for k, p in enumerate(stored)}, n)
        x = rng.uniform(0.0, 1.0, (n,) if one_point else (stack, n))
        v1 = _frame(rng, (stack, n), zeros1 & set(range(n)))
        v2 = _frame(rng, (stack, n), zeros2 & set(range(n)))
        b_planes = {p: b.component_matrix(*p, x) for p in stored}
        cases = [
            (a.matrices_at(x, v1), dense_one_form(a, x, v1)),
            (b.matrices_at(x, v1, v2), dense_pair_contraction(b_planes, n, v1, v2)),
            (fm.curvature_matrices_at(a, x, v1, v2),
             dense_pair_contraction(dict(fm.coordinate_curvatures(a, x)), n, v1, v2)),
            # a form storing no plane broadcasts x with the frames as well
            (fm.two_form_from_expressions(SU2, {}, n).matrices_at(x, v1, v2),
             np.zeros((stack, 2, 2), dtype=complex)),
        ]
        for got, want in cases:
            assert got.shape == want.shape == (stack, 2, 2)
            assert got.dtype == complex
            assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))
            if not v1.any():
                assert not got.any()

    def test_a_zero_velocity_component_is_never_called(self):
        # component 2 has a pole (NaN) everywhere; a frame that is 0 there
        # on the whole stack never sees it, one nonzero point does
        calls = {}
        a = one_form_from_callables(
            U1, [_counted_field(calls, 0, 1j), _counted_field(calls, 1, 2j),
                 _counted_field(calls, 2, np.nan)], 3)
        x = np.random.default_rng(0).uniform(0.0, 1.0, (5, 3))
        v = _frame(np.random.default_rng(1), (5, 3), [2])
        assert np.array_equal(a.matrices_at(x, v)[:, 0, 0], 1j * v[:, 0] + 2j * v[:, 1])
        assert calls == {0: 1, 1: 1}
        v[3, 2] = 1e-300
        assert np.isnan(a.matrices_at(x, v)).any()
        assert calls[2] == 1

    def test_a_nan_coefficient_is_evaluated(self):
        calls = {}
        a = one_form_from_callables(U1, [_counted_field(calls, 0, 1j),
                                            _counted_field(calls, 1, 1j)], 2)
        x = np.zeros((3, 2))
        v = np.zeros((3, 2))
        v[1, 1] = np.nan
        out = a.matrices_at(x, v)
        assert calls == {1: 1}
        assert np.isnan(out[1]).all() and not out[[0, 2]].any()

    def test_only_planes_with_a_nonzero_coefficient_are_evaluated(self):
        calls = {}
        b = two_form_from_callables(
            U1, {(0, 1): _counted_field(calls, (0, 1), 1j),
                 (0, 2): _counted_field(calls, (0, 2), np.nan),
                 (1, 2): _counted_field(calls, (1, 2), np.nan)}, 3)
        x = np.zeros((4, 3))
        e1, e2 = np.eye(3)[:2]
        assert np.array_equal(b.matrices_at(x, e1, e2), np.full((4, 1, 1), 1j))
        assert calls == {(0, 1): 1}
        # the curvature of A on (e1, e2) needs A_1, A_2 and their partials only
        calls.clear()
        a = one_form_from_callables(
            U1, [_counted_field(calls, k, 1j if k < 2 else np.nan) for k in range(3)], 3)
        assert not fm.curvature_matrices_at(a, x, e1, e2).any()
        assert 2 not in calls

    def test_mc_pullback_skips_zero_directions(self):
        seen = []

        def mc(i, x):
            seen.append(i)
            return np.full(x.shape[:-1] + (2, 2), np.nan if i == 1 else 1.0)

        g = fm.GroupValuedMap(SU2, lambda x: np.eye(2), mc)
        assert np.array_equal(g.mc_pullback(np.zeros((2, 2)), [0.5, 0.0]), np.full((2, 2, 2), 0.5))
        assert seen == [0]
        assert np.array_equal(g.mc_pullback(np.zeros(2), np.zeros((3, 2))), np.zeros((3, 2, 2)))


class TestConstantField:
    # every entry parses to a number
    ENTRIES = [["0.5", "1.5"], ["i", "0.25"]]

    def test_values_are_one_broadcast_matrix(self):
        fld = fm.ExpressionMatrixField(self.ENTRIES, 2, 3)
        xs = np.random.default_rng(8).uniform(0.0, 1.0, (4, 5, 3))
        vals = fld.eval(xs)
        assert vals.shape == (4, 5, 2, 2)
        assert vals.strides[:2] == (0, 0)
        assert np.array_equal(vals, np.broadcast_to([[0.5, 1.5], [1j, 0.25]], (4, 5, 2, 2)))
        # one matrix, built with the field, backs every evaluation
        assert fld.eval(xs[0, 0]).shape == (2, 2)
        assert np.shares_memory(vals, fld.eval(xs[0, 0]))

    def test_values_are_read_only(self):
        fld = fm.ExpressionMatrixField(self.ENTRIES, 2, 3)
        vals = fld.eval(np.zeros((6, 3)))
        with pytest.raises(ValueError):
            vals[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            vals += 1.0

    def test_constant_expressions_are_one_broadcast_matrix(self):
        # a negated number, a product and a sum of numbers fold at parse time
        fld = fm.ExpressionMatrixField([["-2", "i*(0.2)"], ["(0.3 + 0.2*i)", "0"]], 2, 2)
        vals = fld.eval(np.zeros((5, 2)))
        assert vals.strides[0] == 0 and not vals.flags.writeable
        assert np.array_equal(vals[0], [[-2.0, 0.2j], [0.3 + 0.2j, 0.0]])

    def test_partials_of_a_linear_field_are_constant(self):
        fld = fm.ExpressionMatrixField([["0.5*x1 + 2*x2", "x3"], ["0", "-x1"]], 2, 3)
        vals = fld.partial(0).eval(np.zeros((7, 3)))
        assert vals.strides[0] == 0
        assert np.array_equal(vals[0], [[0.5, 0.0], [0.0, -1.0]])

    def test_non_constant_field_is_a_fresh_array(self):
        fld = fm.ExpressionMatrixField([["x1", "0"], ["0", "1"]], 2, 1)
        vals = fld.eval(np.array([[0.5], [2.0]]))
        assert vals.flags.writeable
        assert np.array_equal(vals[:, 0, 0], [0.5, 2.0])


class TestPlaneCurvature:
    def test_single_matrices_give_the_full_stacked_shape(self):
        # every value and both partials are one (d, d) matrix for any stack
        rng = np.random.default_rng(9)
        mats = [lc.random_algebra(SU2, rng).matrix for _ in range(2)]
        a = one_form_from_callables(SU2, [lambda x, m=m: m for m in mats], 2)
        xs = rng.uniform(0.0, 1.0, (3, 4, 2))
        k = fm._plane_curvature(a, xs, 0, 1, mats[0], mats[1])
        assert k.shape == (3, 4, 2, 2)
        ref = mats[0] @ mats[1] - mats[1] @ mats[0]
        assert np.linalg.norm(k - ref) <= 1e-14 * np.linalg.norm(ref) * 12 ** 0.5


class TestEgPair:
    def test_callable_pair_evaluates_each_component_17_times_in_4d(self):
        # per component: 7 for the fake-curvature gate's coordinate
        # curvatures, 1 for the algebra gate, and 3 in each of the 3 planes
        # of B that contain it, evaluated once and shared by both gates
        tables = [su2_matrix_table(f"0.3*sin(x{m % 4 + 1})", f"0.2*x{m + 1}*x{(m + 2) % 4 + 1}",
                                   f"0.1*x{m + 1}") for m in range(4)]
        sym = fm.one_form_from_expressions(SU2, tables, 4)
        counts = [0] * 4

        def counted(m):
            def fn(x):
                counts[m] += 1
                return sym.components[m].eval(x)
            return fn

        a = one_form_from_callables(SU2, [counted(m) for m in range(4)], 4)
        pair = fm.eg_pair(a)
        assert counts == [17] * 4
        assert pair.fc_report.max_residual == 0.0


class TestThreeForm:
    def test_constant_b_trivial_a(self):
        cm = hg.make_b_abelian(U1)
        b = fm.two_form_from_expressions(U1, {(0, 1): [["i*0.5"]]}, 3)
        a = fm.zero_one_form(cm.G, 3)
        e = np.eye(3)
        val = fm.curvature_three_form(cm, a, b, np.zeros(3), e[0], e[1], e[2])
        assert lc.frob(val.matrix) == 0.0

    def test_abelian_db(self):
        # B = x1 dx2 ^ dx3: dB(e1,e2,e3) = 1
        cm = hg.make_b_abelian(U1)
        b = fm.two_form_from_expressions(U1, {(1, 2): [["i*x1"]]}, 3)
        a = fm.zero_one_form(cm.G, 3)
        e = np.eye(3)
        val = fm.curvature_three_form(cm, a, b, np.zeros(3), e[0], e[1], e[2])
        assert val.matrix[0, 0] == pytest.approx(1j)

    def test_repeated_argument_vanishes(self):
        cm = hg.make_b_abelian(U1)
        b = fm.two_form_from_expressions(U1, {(0, 1): [["i*x3"]], (1, 2): [["i*x1"]]}, 3)
        a = fm.zero_one_form(cm.G, 3)
        v = np.array([0.3, 0.5, -0.2])
        w = np.array([1.0, 0.0, 0.4])
        val = fm.curvature_three_form(cm, a, b, np.zeros(3), v, w, v)
        assert lc.frob(val.matrix) <= 1e-14

    def test_bianchi_identity_in_the_inner_2_group(self):
        # in eg:SU(2) the curvature 3-form of (A, K_A) is dK + [A ^ K], which
        # vanishes for every A; dK alone does not
        a = fm.one_form_from_expressions(SU2, [
            su2_matrix_table("0.7*sin(x2)", "0.4*x1*x3", "0.3*cos(x3)"),
            su2_matrix_table("0.5*x3^2", "0.6*cos(x1 + x3)", "0.2*x1"),
            su2_matrix_table("0.3*x1*x2", "0.5*sin(x2)", "0.4*x2^2 - x1")], 3)
        k = fm.symbolic_curvature(a)
        rng = np.random.default_rng(11)
        x, v1, v2, v3 = (rng.uniform(-1.0, 1.0, (50, 3)) for _ in range(4))
        three = fm.curvature_three_form(hg.make_eg(SU2), a, k, x, v1, v2, v3)
        assert np.max(lc.frobs(three)) <= 1e-13
        assert np.max(lc.frobs(fm.exterior_derivative_two_form(k, x, v1, v2, v3))) > 0.1


def _stacked_three_form_case(module):
    """(cm, A, B, A', phi) in 3-D for a b_u1 or an eg:SU(2) module."""
    if module == "b_u1":
        cm = hg.make_b_abelian(U1)
        b = fm.two_form_from_expressions(U1, {(0, 1): [["i*x3*x2"]], (1, 2): [["i*x1"]]}, 3)
        phi = fm.one_form_from_expressions(U1, [[["i*x2"]], [["i*x1*x3"]], [["i"]]], 3)
        return cm, fm.zero_one_form(cm.G, 3), b, fm.zero_one_form(cm.G, 3), phi
    cm = hg.make_eg(SU2)
    a = fm.one_form_from_expressions(SU2, [su2_matrix_table("0.4*x2", "0.1*x3", "0"),
                                           su2_matrix_table("0", "0.3*x1", "0.2"),
                                           su2_matrix_table("0.5*x1*x2", "0", "0.1*x3")], 3)
    b = fm.two_form_from_expressions(SU2, {(0, 1): su2_matrix_table("0.2*x3", "0", "0.1"),
                                           (0, 2): su2_matrix_table("0", "0.3*x2", "0"),
                                           (1, 2): su2_matrix_table("0.1", "0.2*x1", "x3")}, 3)
    phi = fm.one_form_from_expressions(SU2, [su2_matrix_table("0.2*x2", "0", "0.1"),
                                             su2_matrix_table("0.15*x1", "0.1", "0"),
                                             su2_matrix_table("0", "0.3", "0.2*x1")], 3)
    return cm, a, b, a, phi


@pytest.mark.parametrize("module", ["b_u1", "eg:SU(2)"])
def test_three_forms_on_stacked_points_match_a_per_point_loop(module):
    cm, a, b, a_prime, phi = _stacked_three_form_case(module)
    rng = np.random.default_rng(3)
    x, v1, v2, v3 = (rng.uniform(-1.0, 1.0, (4, 3)) for _ in range(4))
    three = fm.curvature_three_form(cm, a, b, x, v1, v2, v3)
    wedge = fm.alpha_wedge(cm, a_prime, phi, x, v1, v2)
    for k in range(4):
        one = fm.curvature_three_form(cm, a, b, x[k], v1[k], v2[k], v3[k]).matrix
        assert np.max(np.abs(three[k] - one)) <= 1e-14 * max(1.0, np.max(np.abs(one)))
        one = fm.alpha_wedge(cm, a_prime, phi, x[k], v1[k], v2[k]).matrix
        assert np.max(np.abs(wedge[k] - one)) <= 1e-14 * max(1.0, np.max(np.abs(one)))


class TestAlphaWedge:
    def test_zero_phi(self, su2_one_form):
        cm = hg.make_eg(SU2)
        phi = fm.zero_one_form(SU2, 2)
        out = fm.alpha_wedge(cm, su2_one_form, phi, np.array([0.3, 0.3]),
                             np.eye(2)[0], np.eye(2)[1])
        assert lc.frob(out.matrix) == 0.0

    def test_b_abelian_trivial_action(self):
        cm = hg.make_b_abelian(U1)
        ap = fm.zero_one_form(cm.G, 2)
        phi = fm.one_form_from_expressions(U1, [[["i*x1"]], [["i"]]], 2)
        out = fm.alpha_wedge(cm, ap, phi, np.array([0.4, 0.9]), np.eye(2)[0], np.eye(2)[1])
        assert lc.frob(out.matrix) == 0.0

    def test_eg_reduces_to_brackets(self, su2_one_form):
        cm = hg.make_eg(SU2)
        phi = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.1", "0.2", "0"), su2_matrix_table("0", "0", "0.3")], 2)
        x = np.array([0.5, 0.25])
        e1, e2 = np.eye(2)
        got = fm.alpha_wedge(cm, su2_one_form, phi, x, e1, e2).matrix
        a1 = su2_one_form.matrices_at(x, e1)
        a2 = su2_one_form.matrices_at(x, e2)
        p1 = phi.matrices_at(x, e1)
        p2 = phi.matrices_at(x, e2)
        oracle = (a1 @ p2 - p2 @ a1) - (a2 @ p1 - p1 @ a2)
        assert np.allclose(got, oracle)


class TestFakeCurvature:
    def test_zero_pair(self):
        cm = hg.make_b_abelian(U1)
        rep = fm.fake_curvature_residual(cm, fm.zero_one_form(cm.G, 2),
                                         fm.two_form_from_expressions(U1, {}, 2))
        assert rep.max_residual == 0.0
        # one dimension has no 2-planes, so nothing can be violated
        rep = fm.fake_curvature_residual(cm, fm.zero_one_form(cm.G, 1),
                                         fm.two_form_from_expressions(U1, {}, 1))
        assert rep.max_residual == 0.0
        assert rep.as_dict()["argmax_plane"] == []

    def test_eg_pair_passes(self, su2_one_form):
        pair = fm.eg_pair(su2_one_form)
        assert pair.fc_report.max_residual <= 1e-10

    def test_corrupted_pair_rejected(self, su2_one_form):
        cm = hg.make_eg(SU2)
        bad = fm.add_two_forms(
            fm.symbolic_curvature(su2_one_form),
            fm.two_form_from_expressions(
                SU2, {(0, 1): su2_matrix_table("1", "0", "0")}, 2),
            factor=0.1,
        )
        with pytest.raises(FakeCurvatureError) as err:
            fm.ConnectionPair(cm, su2_one_form, bad)
        assert err.value.report.max_residual >= 0.05

    def test_report_deterministic_given_seed(self, su2_one_form):
        cm = hg.make_eg(SU2)
        b = fm.symbolic_curvature(su2_one_form)
        r1 = fm.fake_curvature_residual(cm, su2_one_form, b, seed=9)
        r2 = fm.fake_curvature_residual(cm, su2_one_form, b, seed=9)
        assert r1.max_residual == r2.max_residual
        assert np.array_equal(r1.argmax_point, r2.argmax_point)

    def test_gate_differences_with_the_field_step(self):
        # a callable copy of a symbolic form carries its own step, and the
        # gate must use it rather than a step of its own
        tables = [su2_matrix_table("0.4*sin(2*x2)", "0.3*x1^3", "0"),
                  su2_matrix_table("0.2*exp(x1*x2)", "0", "0.5*x2^3")]
        sym = fm.one_form_from_expressions(SU2, tables, 2)
        cm = hg.make_eg(SU2)
        b = fm.symbolic_curvature(sym)
        res = {}
        for h in (0.2, 1e-4):
            fd_form = one_form_from_callables(
                SU2, [lambda x, c=c: c.eval(x) for c in sym.components], 2, fd_step=h)
            res[h] = fm.fake_curvature_residual(cm, fd_form, b).max_residual
        assert res[1e-4] < 1e-6
        assert res[0.2] > 1e4 * res[1e-4]

    def test_non_finite_residual_fails(self):
        # the first Halton sample of the unit box has x1 = 0.5 exactly
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.1/(x1 - 0.5)", "0", "0"),
                  su2_matrix_table("0", "0", "0")], 2)
        b = fm.two_form_from_expressions(SU2, {}, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(FakeCurvatureError) as err:
                fm.ConnectionPair(hg.make_eg(SU2), a, b)
        rep = err.value.report
        assert rep.max_residual == float("inf")
        assert rep.argmax_point[0] == 0.5
        assert rep.as_dict()["max_residual"] is None


class TestAlgebraGate:
    def test_hermitian_a_rejected(self):
        # A = diag(x1, -x1) dx1 is flat with B = 0 but is not in su(2)
        a = fm.one_form_from_expressions(SU2, [[["x1", "0"], ["0", "-x1"]],
                                               [["0", "0"], ["0", "0"]]], 2)
        b = fm.two_form_from_expressions(SU2, {}, 2)
        with pytest.raises(MembershipError, match="^A leaves"):
            fm.ConnectionPair(hg.make_eg(SU2), a, b)

    def test_real_b_rejected(self):
        # t_* vanishes in b_u1, so a real (non-u(1)) B passes the
        # fake-curvature gate and only the algebra gate catches it
        cm = hg.make_b_abelian(U1)
        b = fm.two_form_from_expressions(U1, {(0, 1): [["1 + x1"]]}, 2)
        with pytest.raises(MembershipError, match="^B leaves"):
            fm.ConnectionPair(cm, fm.zero_one_form(cm.G, 2), b)

    def test_tolerance_scales_with_the_entries(self):
        # a defect of 4e-9 passes at |entry| = 50 (tolerance 1e-9 * 50)
        cm = hg.make_eg(SU2)
        a = one_form_from_callables(
            SU2, [lambda x: np.broadcast_to(50.0j * np.diag([1.0, -1.0]) + 1e-9,
                                            x.shape[:-1] + (2, 2)),
                  lambda x: np.zeros(x.shape[:-1] + (2, 2))], 2)
        b = two_form_from_callables(SU2, {(0, 1): lambda x: np.zeros(x.shape[:-1] + (2, 2))}, 2)
        fm.ConnectionPair(cm, a, b)


class TestGroupValuedMap:
    def test_exp_family_partials_exact(self):
        x0 = lc.AlgebraElement(SU2, 0.5j * np.array([[1, 0], [0, -1]]))
        g = fm.exp_scalar_family(SU2, "x1 + 0.5*x2^2", x0, 2)
        x = np.array([0.3, 0.8])
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (g.matrix(x + e) - g.matrix(x - e)) / (2 * h) @ np.linalg.inv(g.matrix(x))
            assert np.allclose(g.mc_pullback(x, np.eye(2)[i]), fd, atol=1e-8)

    def test_mc_pullback_linear_exponent(self):
        # g = exp(c x1 X): pullback of the right MC form along e1 is c X
        x0 = lc.AlgebraElement(SU2, 0.5j * np.array([[1, 0], [0, -1]]))
        g = fm.exp_scalar_family(SU2, "2*x1", x0, 2)
        val = g.mc_pullback(np.array([0.4, 0.1]), np.array([1.0, 0.0]))
        assert np.allclose(val, 2.0 * x0.matrix)
