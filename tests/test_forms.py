import numpy as np
import pytest

from higher_holonomy import forms as fm
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy.errors import DomainError, FakeCurvatureError, MembershipError

from .conftest import SU2, U1, su2_matrix_table


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
        k = fm.curvature_two_form(a, x, e1, e2)
        a1 = a.matrices_at(x, e1)
        a2 = a.matrices_at(x, e2)
        assert np.allclose(k.matrix, a1 @ a2 - a2 @ a1)

    def test_abelian_symbolic_d(self):
        # A = x1 dx2 on u(1): K(e1, e2) = 1 * generator
        a = fm.one_form_from_expressions(U1, [[["0"]], [["i*x1"]]], 2)
        k = fm.curvature_two_form(a, np.array([0.7, 0.1]), np.eye(2)[0], np.eye(2)[1])
        assert k.matrix[0, 0] == pytest.approx(1j)

    def test_rank_one_form_has_no_bracket(self):
        a = fm.one_form_from_expressions(U1, [[["i*x2^2"]], [["0"]]], 2)
        x = np.array([0.2, 0.4])
        k = fm.curvature_two_form(a, x, np.eye(2)[0], np.eye(2)[1])
        # dA(e1,e2) = -d/dx2 (x2^2) = -0.8
        assert k.matrix[0, 0] == pytest.approx(-0.8j)

    def test_fd_matches_symbolic_with_second_order(self):
        # entries need nonzero third derivatives or the central difference
        # is exact and the ratio test is vacuous
        tables = [su2_matrix_table("0.4*sin(2*x2)", "0.3*x1^3", "0"),
                  su2_matrix_table("0.2*exp(x1*x2)", "0", "0.5*x2^3")]
        sym = fm.one_form_from_expressions(SU2, tables, 2)
        x = np.array([0.3, 0.6])
        e1, e2 = np.eye(2)
        exact = fm.curvature_two_form(sym, x, e1, e2).matrix
        errs = []
        for h in (2e-2, 1e-2):
            fd_form = fm.one_form_from_callables(
                SU2, [lambda x, c=c: c.eval(x) for c in sym.components], 2, fd_step=h)
            errs.append(lc.frob(fm.curvature_two_form(fd_form, x, e1, e2).matrix - exact))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] < 1e-4

    def test_symbolic_curvature_field_matches_pointwise(self, su2_one_form):
        kf = fm.symbolic_curvature(su2_one_form)
        x = np.array([0.35, 0.62])
        e1, e2 = np.eye(2)
        assert np.allclose(kf(x, e1, e2).matrix,
                           fm.curvature_two_form(su2_one_form, x, e1, e2).matrix)


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
    return fm.one_form_from_callables(
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
        a = CURVATURE_FORMS[form]()
        n = a.ambient_dim
        xs = np.random.default_rng(5).uniform(0.0, 1.0, (3, 4, n))
        eye = np.eye(n)
        planes = []
        for (i, j), k in fm.coordinate_curvatures(a, xs):
            ref = fm.curvature_matrices_at(a, xs, np.broadcast_to(eye[i], xs.shape),
                                           np.broadcast_to(eye[j], xs.shape))
            assert k.shape == ref.shape
            assert np.linalg.norm(k - ref) <= 1e-13 * np.linalg.norm(ref)
            planes.append((i, j))
        assert planes == [(i, j) for i in range(n) for j in range(i + 1, n)]


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
            fd_form = fm.one_form_from_callables(
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
        a = fm.one_form_from_callables(
            SU2, [lambda x: np.broadcast_to(50.0j * np.diag([1.0, -1.0]) + 1e-9,
                                            x.shape[:-1] + (2, 2)),
                  lambda x: np.zeros(x.shape[:-1] + (2, 2))], 2)
        b = fm.two_form_from_callables(SU2, {(0, 1): lambda x: np.zeros(x.shape[:-1] + (2, 2))}, 2)
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
            fd = (g.matrix(x + e) - g.matrix(x - e)) / (2 * h)
            assert np.allclose(g.partial_matrix(i, x), fd, atol=1e-8)

    def test_mc_pullback_linear_exponent(self):
        # g = exp(c x1 X): pullback of the right MC form along e1 is c X
        x0 = lc.AlgebraElement(SU2, 0.5j * np.array([[1, 0], [0, -1]]))
        g = fm.exp_scalar_family(SU2, "2*x1", x0, 2)
        val = g.mc_pullback(np.array([0.4, 0.1]), np.array([1.0, 0.0]))
        assert np.allclose(val, 2.0 * x0.matrix)
