import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy import transport as tp
from higher_holonomy.errors import MembershipError, NumericalError

from .oracles import su_algebra_defect, taylor_expm


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


def _expm_stack(kind, rng, norms):
    """Random matrices of Frobenius norms `norms` from one of the test
    families: u(1), su(2), sl(2, R), gl(2, C) or unipotent(2)."""
    k = len(norms)
    if kind == "u(1)":
        m = 1j * rng.standard_normal((k, 1, 1))
    elif kind == "su(2)":
        m = np.stack([lc.random_algebra(lc.su(2), rng).matrix for _ in range(k)])
    elif kind == "sl(2,R)":
        m = rng.standard_normal((k, 2, 2))
        m[:, 1, 1] = -m[:, 0, 0]
    elif kind == "gl(2,C)":
        m = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
    else:
        m = np.zeros((k, 2, 2))
        m[:, 0, 1] = rng.standard_normal(k)
    m = np.asarray(m, dtype=complex)
    return m * (np.asarray(norms) / np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1))))[:, None, None]


class TestClosedFormExpm:
    """The 1x1 and 2x2 closed forms of `expm` against the plain series."""

    @pytest.mark.parametrize("kind", ["u(1)", "su(2)", "sl(2,R)", "gl(2,C)", "unipotent(2)"])
    def test_matches_taylor_series(self, kind):
        m = _expm_stack(kind, np.random.default_rng(31), np.geomspace(1e-9, 8.0, 25))
        got = lc.expm(m)
        # 60 terms: at |z| = 8 a 40-term series is still 3e-13 short, and
        # its cancellation alone costs up to about 3e-14
        ref = taylor_expm(m, order=60)
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
        err = np.max(np.abs(got - ref), axis=(-2, -1)) / scale
        assert np.max(err) <= 5e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_gives_exact_identity(self, n):
        assert np.array_equal(lc.expm(np.zeros((3, n, n))), np.broadcast_to(np.eye(n), (3, n, n)))

    def test_nilpotent_is_exact(self):
        for nil in ([[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [-1.0, -1.0]]):
            nil = np.array(nil)
            assert np.array_equal(lc.expm(nil), np.eye(2) + nil)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_stack_keeps_its_shape(self, n):
        assert lc.expm(np.zeros((0, n, n))).shape == (0, n, n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nonfinite_rejected(self, n):
        m = np.zeros((4, n, n), dtype=complex)
        m[2, 0, 0] = np.nan
        with pytest.raises(NumericalError):
            lc.expm(m)


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


class TestValidationToggle:
    def test_non_group_matrix_raises_by_default(self):
        with pytest.raises(MembershipError):
            lc.GroupElement(lc.su(2), np.diag([2.0, 0.5]))

    def test_explicit_argument_wins(self):
        bad = np.diag([2.0, 0.5])
        g = lc.GroupElement(lc.su(2), bad, validate=False)
        assert np.allclose(g.matrix, bad)


def _random_group_stack(desc, rng, shape):
    """Seeded random group elements in a stack of leading shape `shape`."""
    n = desc.matrix_dim
    mats = [lc.random_group(desc, rng).matrix for _ in range(int(np.prod(shape)))]
    return np.reshape(mats, shape + (n, n))


def _polar_then_det(m, n):
    """The polar retraction followed by the determinant renormalization:
    the SU(n) retraction for n > 2."""
    q = lc.polar_retract(m)
    return q * np.exp(-np.log(np.linalg.det(q)) / n)[..., None, None]


class TestRetraction:
    @pytest.mark.parametrize("desc", [lc.su(3), lc.so(3)], ids=str)
    def test_far_determinant_raises(self, desc):
        # the polar factor of diag(1, 1, -1) is itself, with determinant -1
        with pytest.raises(NumericalError):
            lc.retract(desc, np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("desc", [lc.su(2), lc.su(3), lc.so(3)], ids=str)
    def test_polar_restores_unitarity(self, desc):
        rng = np.random.default_rng(11)
        n = desc.matrix_dim
        g = lc.random_group(desc, rng)
        noise = rng.standard_normal((n, n))
        if desc.field == "complex":
            noise = noise + 1j * rng.standard_normal((n, n))
        drifted = g.matrix + 1e-6 * noise
        fixed = lc.retract(desc, drifted)
        assert lc.group_defect(desc, fixed) < 1e-12
        assert lc.frob(fixed - g.matrix) < 1e-5

    def test_unipotent_projection(self):
        d = lc.unipotent(3)
        m = np.eye(3) + np.triu(np.ones((3, 3)), 1) + 1e-8 * np.ones((3, 3))
        fixed = lc.retract(d, m)
        assert lc.group_defect(d, fixed) == 0.0


class TestSU2Retraction:
    """The closed-form quaternion projection that `retract` uses on SU(2),
    against the polar retraction it replaced there."""

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=str)
    @pytest.mark.parametrize("drift", [1e-9, 1e-6, 1e-3])
    def test_agrees_with_polar_to_second_order(self, shape, drift):
        rng = np.random.default_rng(21)
        g = _random_group_stack(lc.su(2), rng, shape)
        m = g + drift * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        q = lc.retract(lc.su(2), m)
        assert q.shape == m.shape
        assert np.max(np.abs(q - _polar_then_det(m, 2))) <= 10.0 * drift ** 2 + 1e-15

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=str)
    @pytest.mark.parametrize("drift", [1e-9, 1e-6, 1e-3])
    def test_lands_on_su2(self, shape, drift):
        rng = np.random.default_rng(22)
        g = _random_group_stack(lc.su(2), rng, shape)
        m = g + drift * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        q = lc.retract(lc.su(2), m)
        qhq = np.swapaxes(q.conj(), -2, -1) @ q
        assert np.max(np.abs(qhq - np.eye(2)), initial=0.0) <= 1e-14
        assert np.max(np.abs(np.linalg.det(q) - 1.0), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=str)
    def test_group_elements_are_fixed(self, shape):
        g = _random_group_stack(lc.su(2), np.random.default_rng(23), shape)
        assert np.max(np.abs(lc.retract(lc.su(2), g) - g)) <= 1e-15

    @pytest.mark.parametrize("m", [np.diag([1.0, -1.0]), np.zeros((2, 2)),
                                   np.array([[0.0, 1.0], [1.0, 0.0]])],
                             ids=["diag", "zero", "swap"])
    def test_zero_quaternion_part_is_not_finite(self, m):
        with np.errstate(divide="ignore", invalid="ignore"):
            q = lc.retract(lc.su(2), m)
        assert not np.all(np.isfinite(q))

    def test_rk4_raises_on_a_zero_quaternion_part(self):
        # with am = a1 = 0 one step's transport is 1 - (h/6) a0 = diag(1, -1)
        h = 0.5
        a = np.zeros((1, 3, 2, 2), dtype=complex)
        a[0, 0] = np.diag([0.0, 12.0 / h])
        # that a0 is not in su(2), so the sweep refuses it before any step
        with pytest.raises(MembershipError):
            tp._rk4_sweep(a, h, lc.su(2), "a", "")[:, -1]


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSmallMatmul:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("x_lead, y_lead", [((), ()), ((5,), (5,)), ((3, 4), (3, 4)),
                                                ((), (5,)), ((3, 4), (4,)), ((3, 1), (1, 4))],
                             ids=str)
    def test_equals_matmul(self, d, x_lead, y_lead):
        rng = np.random.default_rng(31)
        x = _complex_stack(rng, x_lead + (d, d))
        y = _complex_stack(rng, y_lead + (d, d))
        want = x @ y
        got = lc.small_matmul(x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_in_place_on_the_right_factor(self, d):
        rng = np.random.default_rng(32)
        x = _complex_stack(rng, (4, d, d))
        y = _complex_stack(rng, (3, 4, d, d))
        want = x @ y
        out = lc.small_matmul(x, y, out=y)
        assert out is y
        assert np.max(np.abs(y - want)) <= 1e-14


class TestConjugate:
    @pytest.mark.parametrize("desc", [lc.gl(2, "complex"), lc.su(2), lc.su(3), lc.u1()],
                             ids=str)
    @pytest.mark.parametrize("g_lead, y_lead", [((), ()), ((5,), (5,)), ((3, 4), (3, 4)),
                                                ((), (5,)), ((3, 4), (4,))], ids=str)
    def test_equals_g_y_inverse_g(self, desc, g_lead, y_lead):
        rng = np.random.default_rng(33)
        n = desc.matrix_dim
        if desc.family == lc.GL:
            g = _complex_stack(rng, g_lead + (n, n))
        else:
            g = _random_group_stack(desc, rng, g_lead)
        y = _complex_stack(rng, y_lead + (n, n))
        want = g @ y @ np.linalg.inv(g)
        got = hg.alpha_g_star_matrices(hg.make_eg(desc), g, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_singular_raises_without_a_warning(self, n):
        # a 1x1 g is singular only when it is zero
        g = np.stack([np.eye(n), np.ones((n, n)) if n > 1 else np.zeros((1, 1))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                lc.conjugate(g, np.eye(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_g_gives_nan_without_a_warning(self, n):
        g = np.stack([np.eye(n), np.full((n, n), np.nan)])
        y = 0.5j * np.eye(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lc.conjugate(g, y)
        assert np.array_equal(out[0], y)
        assert np.all(np.isnan(out[1]))


class TestRetractedInverse:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 1, 1), (129, 65, 1, 1)], ids=str)
    def test_1x1_gl_matches_linalg_inv(self, shape):
        u = _complex_stack(np.random.default_rng(34), shape)
        got = lc.retracted_inverse(lc.gl(1, "complex"), u)
        want = np.linalg.inv(u)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_1x1_identity_is_exact(self):
        # b_u1 transports on GL(1) stay exactly 1
        u = np.ones((5, 3, 1, 1), dtype=complex)
        assert np.array_equal(lc.retracted_inverse(lc.gl(1), u), u)

    def test_1x1_singular_raises_without_a_warning(self):
        u = np.array([[[2.0]], [[0.0]]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                lc.retracted_inverse(lc.gl(1, "complex"), u)


def _project_one(desc, m):
    """Reference projection of one matrix, written with the plain
    transpose, trace and [0, 0] entry."""
    if desc.family == lc.U1:
        return np.array([[1j * m[0, 0].imag]])
    if desc.family == lc.SU:
        a = 0.5 * (m - m.conj().T)
        return a - (np.trace(a) / desc.matrix_dim) * np.eye(desc.matrix_dim)
    if desc.family == lc.SO:
        return 0.5 * (m.real - m.real.T).astype(complex)
    if desc.family == lc.UT:
        a = np.triu(m, 1)
        return a.real.astype(complex) if desc.field == "real" else a
    return m.real.astype(complex) if desc.field == "real" else m


class TestProjectToAlgebra:
    @pytest.mark.parametrize("desc", [lc.u1(), lc.su(2), lc.su(3), lc.so(3), lc.gl(2),
                                      lc.gl(2, "complex"), lc.unipotent(3)],
                             ids=["U1", "SU2", "SU3", "SO3", "GL2R", "GL2C", "UT3R"])
    def test_stack_matches_a_per_matrix_loop(self, desc):
        rng = np.random.default_rng(13)
        n = desc.matrix_dim
        stack = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        out = lc.project_to_algebra(desc, stack)
        singles = [lc.project_to_algebra(desc, m) for m in stack.reshape(-1, n, n)]
        assert out.shape == stack.shape
        assert np.array_equal(out, np.reshape(singles, stack.shape))
        for m, p in zip(stack.reshape(-1, n, n), singles):
            assert p.tobytes() == _project_one(desc, m).tobytes()


class TestAlgebraDefect:
    @pytest.mark.parametrize("desc", [lc.u1(), lc.su(2), lc.su(3), lc.so(3), lc.gl(2),
                                      lc.unipotent(3)], ids=str)
    def test_stack_gives_the_largest_defect(self, desc):
        rng = np.random.default_rng(12)
        n = desc.matrix_dim
        stack = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        singles = [lc.algebra_defect(desc, m) for m in stack.reshape(-1, n, n)]
        assert lc.algebra_defect(desc, stack) == max(singles)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(), (0,), (5,), (3, 4)]), st.integers(0, 10_000),
           st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]), st.integers(-100, 100),
           st.sampled_from([None, np.nan, np.inf, -np.inf, complex(np.inf, -np.inf)]))
    def test_su2_closed_form_matches_the_generic_defect(self, lead, seed, noise, exponent,
                                                         bad):
        # in-algebra stacks, perturbed and scaled by 10^exponent, with at
        # most one non-finite entry; the closed form is the generic SU
        # defect within rounding, and inf without a warning
        rng = np.random.default_rng(seed)
        raw = _complex_stack(rng, lead + (2, 2))
        m = 10.0 ** exponent * (lc.project_to_algebra(lc.su(2), raw)
                                + noise * _complex_stack(rng, lead + (2, 2)))
        if bad is not None and m.size:
            m.reshape(-1)[rng.integers(m.size)] = bad
        want = su_algebra_defect(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lc.algebra_defect(lc.su(2), m)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_require_algebra_names_the_form(self):
        bad = np.stack([np.zeros((2, 2)), np.diag([1.0, -1.0])])
        lc.require_algebra(lc.su(2), bad[:1], "A")
        with pytest.raises(MembershipError, match="^A leaves the algebra of SU"):
            lc.require_algebra(lc.su(2), bad, "A")
