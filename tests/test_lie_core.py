import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_holonomy import lie_core as lc
from higher_holonomy.errors import DomainError, MembershipError, NumericalError

from .oracles import taylor_expm


class TestDescriptors:
    def test_u1_shape(self):
        d = lc.u1()
        assert d.matrix_dim == 1 and d.field == "complex"

    def test_family_constraints(self):
        with pytest.raises(ValueError):
            lc.GroupDescriptor(lc.U1, 2, "complex")
        with pytest.raises(ValueError):
            lc.GroupDescriptor(lc.SU, 2, "real")
        with pytest.raises(ValueError):
            lc.GroupDescriptor(lc.SO, 3, "complex")
        with pytest.raises(ValueError):
            lc.GroupDescriptor(lc.SU, 2, "complex", membership_tolerance=-1.0)

    def test_membership_enforced(self):
        with pytest.raises(MembershipError):
            lc.GroupElement(lc.su(2), np.diag([2.0, 0.5]))
        with pytest.raises(MembershipError):
            lc.AlgebraElement(lc.su(2), np.diag([1.0, -1.0]))  # hermitian, not anti


class TestExpMap:
    def test_zero_gives_identity(self):
        for d in (lc.su(2), lc.so(3), lc.u1(), lc.unipotent(3)):
            g = lc.exp_map(lc.zero(d))
            assert np.allclose(g.matrix, np.eye(d.matrix_dim))

    def test_u1_half_turn(self):
        # closed form cos(pi) + i sin(pi)
        g = lc.exp_map(lc.AlgebraElement(lc.u1(), [[1j * np.pi]]))
        assert abs(g.matrix[0, 0] + 1.0) < 1e-14

    def test_nilpotent_series_terminates(self):
        d = lc.unipotent(2)
        x = lc.AlgebraElement(d, [[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(lc.exp_map(x).matrix, [[1.0, 1.0], [0.0, 1.0]])

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(3)
        x = lc.random_algebra(lc.su(3), rng, 2.5)
        w, v = np.linalg.eig(x.matrix)
        oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        assert np.allclose(lc.exp_map(x).matrix, oracle, atol=1e-12)

    def test_group_membership_after_exp(self):
        rng = np.random.default_rng(7)
        for d in (lc.su(2), lc.so(3), lc.u1()):
            for _ in range(10):
                g = lc.exp_map(lc.random_algebra(d, rng, 1.5))
                assert lc.group_defect(d, g.matrix) <= 10 * d.membership_tolerance

    def test_nonfinite_rejected(self):
        d = lc.gl(2)
        x = lc.AlgebraElement(d, [[np.inf, 0.0], [0.0, 0.0]], validate=False)
        with pytest.raises(NumericalError):
            lc.exp_map(x)


class TestAdjointAndBracket:
    def test_identity_fixes(self):
        rng = np.random.default_rng(0)
        x = lc.random_algebra(lc.su(2), rng)
        assert np.allclose(lc.adjoint(lc.identity(lc.su(2)), x).matrix, x.matrix)

    def test_abelian_conjugation_trivial(self):
        rng = np.random.default_rng(1)
        g = lc.random_group(lc.u1(), rng)
        x = lc.random_algebra(lc.u1(), rng)
        assert np.allclose(lc.adjoint(g, x).matrix, x.matrix)

    def test_adjoint_matches_triple_product(self):
        rng = np.random.default_rng(2)
        g = lc.random_group(lc.su(2), rng)
        x = lc.random_algebra(lc.su(2), rng)
        oracle = g.matrix @ x.matrix @ np.linalg.inv(g.matrix)
        assert np.allclose(lc.adjoint(g, x).matrix, oracle)

    def test_bracket_self_vanishes(self):
        rng = np.random.default_rng(4)
        x = lc.random_algebra(lc.su(2), rng)
        assert lc.frob(lc.bracket(x, x).matrix) == 0.0

    def test_bracket_matches_matrix_arithmetic(self):
        sigma1 = 0.5j * np.array([[0, 1], [1, 0]])
        sigma2 = 0.5j * np.array([[0, -1j], [1j, 0]])
        x = lc.AlgebraElement(lc.su(2), sigma1)
        y = lc.AlgebraElement(lc.su(2), sigma2)
        oracle = sigma1 @ sigma2 - sigma2 @ sigma1
        assert np.allclose(lc.bracket(x, y).matrix, oracle)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bracket_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = lc.random_algebra(lc.su(2), rng)
        y = lc.random_algebra(lc.su(2), rng)
        lhs = lc.bracket(x, y).matrix
        rhs = -lc.bracket(y, x).matrix
        scale = max(lc.frob(lhs), 1e-30)
        assert lc.frob(lhs - rhs) / scale <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exp_adjoint_compatibility(self, seed):
        # exp(Ad_g X) = g exp(X) g^{-1}
        rng = np.random.default_rng(seed)
        g = lc.random_group(lc.su(2), rng)
        x = lc.random_algebra(lc.su(2), rng)
        lhs = lc.exp_map(lc.adjoint(g, x)).matrix
        rhs = g.matrix @ lc.exp_map(x).matrix @ np.linalg.inv(g.matrix)
        assert lc.frob(lhs - rhs) / max(lc.frob(rhs), 1.0) <= 1e-9


class TestRightTranslation:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = lc.random_algebra(lc.su(2), rng)
        assert np.allclose(lc.right_translate_diff(lc.identity(lc.su(2)), x), x.matrix)

    def test_scalar_case(self):
        g = lc.GroupElement(lc.gl(1), [[2.0]])
        x = lc.AlgebraElement(lc.gl(1), [[1j]], validate=False)
        assert lc.right_translate_diff(g, x)[0, 0] == 2j

    def test_is_matrix_product(self):
        rng = np.random.default_rng(6)
        g = lc.random_group(lc.su(2), rng)
        x = lc.random_algebra(lc.su(2), rng)
        assert np.array_equal(lc.right_translate_diff(g, x), x.matrix @ g.matrix)


class TestMaurerCartan:
    def test_constant_curve(self):
        d = lc.su(2)
        g0 = lc.random_group(d, np.random.default_rng(0))
        val = lc.maurer_cartan_right(lambda t: g0, 0.5, 1e-4)
        assert lc.frob(val.matrix) < 1e-12

    def test_u1_rotation(self):
        omega = 2.3
        d = lc.u1()

        def curve(t):
            return lc.GroupElement(d, [[np.exp(1j * omega * t)]])

        val = lc.maurer_cartan_right(curve, 0.4, 1e-4)
        assert abs(val.matrix[0, 0] - 1j * omega) < 1e-7

    def test_one_parameter_subgroup_and_order(self):
        d = lc.su(2)
        x = lc.random_algebra(d, np.random.default_rng(9), 0.8)

        def curve(t):
            return lc.GroupElement(d, taylor_expm(t * x.matrix), validate=False)

        errs = []
        for h in (1e-2, 5e-3):
            val = lc.maurer_cartan_right(curve, 0.5, h)
            errs.append(lc.frob(val.matrix - x.matrix))
        assert errs[0] / errs[1] >= 3.5  # second order in the step
        assert errs[1] <= 1e-4

    def test_boundary_raises(self):
        d = lc.u1()
        with pytest.raises(DomainError):
            lc.maurer_cartan_right(lambda t: lc.identity(d), 0.0, 1e-3)


class TestValidationToggle:
    def test_non_group_matrix_raises_by_default(self):
        with pytest.raises(MembershipError):
            lc.GroupElement(lc.su(2), np.diag([2.0, 0.5]))

    def test_explicit_argument_wins(self):
        bad = np.diag([2.0, 0.5])
        g = lc.GroupElement(lc.su(2), bad, validate=False)
        assert np.allclose(g.matrix, bad)


class TestRetraction:
    def test_polar_restores_unitarity(self):
        rng = np.random.default_rng(11)
        g = lc.random_group(lc.su(2), rng)
        drifted = g.matrix + 1e-6 * (rng.standard_normal((2, 2))
                                     + 1j * rng.standard_normal((2, 2)))
        fixed = lc.retract(lc.su(2), drifted)
        assert lc.group_defect(lc.su(2), fixed) < 1e-12
        assert lc.frob(fixed - g.matrix) < 1e-5

    def test_unipotent_projection(self):
        d = lc.unipotent(3)
        m = np.eye(3) + np.triu(np.ones((3, 3)), 1) + 1e-8 * np.ones((3, 3))
        fixed = lc.retract(d, m)
        assert lc.group_defect(d, fixed) == 0.0


class TestAlgebraDefect:
    @pytest.mark.parametrize("desc", [lc.u1(), lc.su(2), lc.so(3), lc.gl(2),
                                      lc.unipotent(3)], ids=str)
    def test_stack_gives_the_largest_defect(self, desc):
        rng = np.random.default_rng(12)
        n = desc.matrix_dim
        stack = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        singles = [lc.algebra_defect(desc, m) for m in stack.reshape(-1, n, n)]
        assert lc.algebra_defect(desc, stack) == max(singles)

    def test_require_algebra_names_the_form(self):
        bad = np.stack([np.zeros((2, 2)), np.diag([1.0, -1.0])])
        lc.require_algebra(lc.su(2), bad[:1], "A")
        with pytest.raises(MembershipError, match="^A leaves the algebra of SU"):
            lc.require_algebra(lc.su(2), bad, "A")
