import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_holonomy import lie_core as lc
from higher_holonomy import transport as tp
from higher_holonomy.errors import MembershipError, NumericalError

from .oracles import per_sample_draw, su_algebra_defect, taylor_expm


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
            g = lc.exp_map(lc.AlgebraElement(d, np.zeros((d.matrix_dim, d.matrix_dim))))
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

    @pytest.mark.parametrize("scale", [1e40, 1e200])
    def test_overflowing_squarings_raise_without_a_warning(self, scale):
        # a finite su(3) argument whose squarings overflow (n >= 3 only)
        x = lc.random_algebra(lc.su(3), np.random.default_rng(5)).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="squarings"):
                lc.expm(scale * x / lc.frob(x))


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


_FAMILIES = [lc.u1(), lc.su(2), lc.su(3), lc.so(2), lc.so(3), lc.gl(2), lc.gl(3, "complex"),
             lc.unipotent(3), lc.unipotent(3, "complex")]


def _group_defect_one(desc, m):
    """Reference membership defect of one matrix, written with the plain
    transpose, scalar moduli and Python maxima."""
    if not np.all(np.isfinite(m)):
        return np.inf
    if desc.family == lc.U1:
        return abs(abs(m[0, 0]) - 1.0)
    if desc.family in (lc.SU, lc.SO):
        d = max(lc.frob(m.conj().T @ m - np.eye(desc.matrix_dim)), abs(np.linalg.det(m) - 1.0))
        return max(d, lc.frob(m.imag)) if desc.family == lc.SO else d
    if desc.family == lc.UT:
        d = max(lc.frob(np.tril(m, -1)), lc.frob(np.diagonal(m) - 1.0))
        return max(d, lc.frob(m.imag)) if desc.field == "real" else d
    if abs(np.linalg.det(m)) < 1e-12:
        return np.inf
    return lc.frob(m.imag) if desc.field == "real" else 0.0


def _near_group_stack(desc, rng, k):
    """k random group matrices, each drifted off the group by up to 1e-6
    in a random complex direction."""
    n = desc.matrix_dim
    g = lc.group_from_normals(desc, rng.standard_normal((k, 2, n, n)))
    return g + 1e-6 * rng.random((k, 1, 1)) * (rng.standard_normal((k, n, n))
                                                + 1j * rng.standard_normal((k, n, n)))


class TestGroupDefect:
    @pytest.mark.parametrize("desc", _FAMILIES, ids=str)
    def test_one_matrix_matches_the_reference_bit_for_bit(self, desc):
        # the holonomy report prints the defect of one matrix
        rng = np.random.default_rng(17)
        for m in _near_group_stack(desc, rng, 50):
            assert lc.group_defect(desc, m) == _group_defect_one(desc, m)
            assert lc.group_defect(desc, m.real) == _group_defect_one(desc, m.real)

    @pytest.mark.parametrize("desc", _FAMILIES, ids=str)
    def test_stack_gives_the_largest_defect(self, desc):
        n = desc.matrix_dim
        stack = _near_group_stack(desc, np.random.default_rng(18), 12).reshape(3, 4, n, n)
        singles = [lc.group_defect(desc, m) for m in stack.reshape(-1, n, n)]
        assert lc.group_defect(desc, stack) == max(singles)
        assert lc.group_defect(desc, stack[:0]) == 0.0

    @pytest.mark.parametrize("desc", _FAMILIES, ids=str)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_a_non_finite_entry_anywhere_gives_inf(self, desc, bad):
        n = desc.matrix_dim
        stack = lc.group_from_normals(desc, np.random.default_rng(19).standard_normal((200, 2, n, n)))
        stack[123, n - 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lc.group_defect(desc, stack) == np.inf

    @pytest.mark.parametrize("desc", [lc.gl(2), lc.gl(3, "complex")], ids=str)
    def test_one_singular_gl_matrix_gives_inf(self, desc):
        n = desc.matrix_dim
        stack = lc.group_from_normals(desc, np.random.default_rng(20).standard_normal((200, 2, n, n)))
        assert lc.group_defect(desc, stack) < 1e-12
        stack[57] = 0.0
        stack[57, 0, 0] = 1.0
        assert lc.group_defect(desc, stack) == np.inf


class TestStackedSampling:
    @pytest.mark.parametrize("desc", [lc.su(3), lc.so(3), lc.gl(3), lc.unipotent(3), lc.su(4)],
                             ids=str)
    def test_stacked_expm_is_the_per_matrix_expm(self, desc):
        # each matrix takes its own number of squarings, so its neighbours
        # in the stack do not change its rounding
        n = desc.matrix_dim
        z = np.random.default_rng(21).standard_normal((400, 2, n, n))
        x = lc.algebra_from_normals(desc, z, 1.0) * np.geomspace(0.01, 30.0, 400)[:, None, None]
        assert np.array_equal(lc.expm(x), np.stack([lc.expm(m) for m in x]))

    @pytest.mark.parametrize("desc", _FAMILIES, ids=str)
    def test_one_sample_draws_match_the_per_sample_reference(self, desc):
        r1, r2 = np.random.default_rng(22), np.random.default_rng(22)
        for _ in range(10):
            assert lc.random_group(desc, r1) == per_sample_draw(desc, r2)
        a, b = lc.random_algebra(desc, r1, 0.3), lc.algebra_from_normals(
            desc, r2.standard_normal((2, desc.matrix_dim, desc.matrix_dim)), 0.3)
        assert np.array_equal(a.matrix, b)

    def test_stacked_draws_are_the_one_sample_draws(self):
        desc = lc.su(3)
        z = np.random.default_rng(23).standard_normal((50, 2, 3, 3))
        rng = np.random.default_rng(23)
        singles = [lc.random_group(desc, rng).matrix for _ in range(50)]
        assert np.array_equal(lc.group_from_normals(desc, z), np.stack(singles))


def _commutator(x, y):
    """[x, y] of two matrices (or stacks) by `lc.add_commutator` into zeros."""
    out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex)
    lc.add_commutator(out, x, y)
    return out


class TestConjugateAndCommutator:
    def test_identity_fixes(self):
        x = lc.random_algebra(lc.su(2), np.random.default_rng(0)).matrix
        assert np.allclose(lc.conjugate(np.eye(2), x), x)

    def test_abelian_conjugation_trivial(self):
        rng = np.random.default_rng(1)
        g = lc.random_group(lc.u1(), rng).matrix
        x = lc.random_algebra(lc.u1(), rng).matrix
        assert np.allclose(lc.conjugate(g, x), x)

    @pytest.mark.parametrize("desc", [lc.u1(), lc.su(2), lc.su(3), lc.so(3)], ids=str)
    def test_self_commutator_is_exactly_zero(self, desc):
        # the 2x2 closed form by its operand order, other sizes because
        # both products are the same bits
        x = lc.algebra_from_normals(desc, np.random.default_rng(4).standard_normal(
            (200, 2, desc.matrix_dim, desc.matrix_dim)))
        assert not np.any(_commutator(x, x))

    def test_commutator_matches_matrix_arithmetic(self):
        sigma1 = 0.5j * np.array([[0, 1], [1, 0]])
        sigma2 = 0.5j * np.array([[0, -1j], [1j, 0]])
        oracle = sigma1 @ sigma2 - sigma2 @ sigma1
        assert np.allclose(_commutator(sigma1, sigma2), oracle)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_commutator_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = lc.random_algebra(lc.su(2), rng).matrix
        y = lc.random_algebra(lc.su(2), rng).matrix
        lhs = _commutator(x, y)
        rhs = -_commutator(y, x)
        scale = max(lc.frob(lhs), 1e-30)
        assert lc.frob(lhs - rhs) / scale <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exp_conjugate_compatibility(self, seed):
        # exp(Ad_g X) = g exp(X) g^{-1}
        rng = np.random.default_rng(seed)
        g = lc.random_group(lc.su(2), rng).matrix
        x = lc.random_algebra(lc.su(2), rng).matrix
        lhs = lc.expm(lc.conjugate(g, x))
        rhs = g @ lc.expm(x) @ np.linalg.inv(g)
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

    @pytest.mark.parametrize("bad", [np.diag([1.0, -1.0]), np.full((2, 2), np.inf),
                                     np.array([[np.nan, 0.0], [0.0, 1.0]])],
                             ids=["zero_part", "inf", "nan"])
    @pytest.mark.parametrize("lead", [(), (1,), (2,)], ids=str)
    def test_short_stack_without_a_finite_scale_is_the_stacked_formula(self, bad, lead):
        m = np.broadcast_to(np.eye(2, dtype=complex), lead + (2, 2)).copy()
        m[(0,) * len(lead)] = bad
        assert lc._su2_retract_short(m) is None
        want, want_warnings = _recording_warnings(
            lambda a: lc._su2_retract_stacked(a.reshape(-1, 2, 2)).reshape(a.shape), m)
        got, got_warnings = _recording_warnings(partial(lc.retract, lc.su(2)), m)
        assert not np.all(np.isfinite(want))
        assert got_warnings == want_warnings
        assert bool(want_warnings) != np.any(np.isnan(bad))  # NaN in, NaN out, silently
        for part in ("real", "imag"):
            assert np.array_equal(np.isnan(getattr(got, part)), np.isnan(getattr(want, part)))
            assert np.array_equal(getattr(got, part), getattr(want, part), equal_nan=True)

    def test_rk4_raises_on_a_zero_quaternion_part(self):
        # 3 samples are one step, h = 1; with am = a1 = 0 its transport is
        # 1 - (h/6) a0 = diag(1, -1)
        h = 1.0
        a = np.zeros((1, 3, 2, 2), dtype=complex)
        a[0, 0] = np.diag([0.0, 12.0 / h])
        # that a0 is not in su(2), so the sweep refuses it before any step
        with pytest.raises(MembershipError):
            tp._rk4_sweep(a, lc.su(2), "a", "")[:, -1]


def _recording_warnings(f, *args):
    """f(*args) and the (category, message) of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, [(w.category, str(w.message)) for w in caught]


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestConjugate:
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


# The kernel test: every fast path of lie_core against the generic numpy
# formula, on six groups, at stack widths on both sides of each width
# threshold (9 and 10 matrices for `_SU2_STACKED_MIN_MATRICES`, 63 and 64
# lines for `_SMALL_MATMUL_MIN_LINES`), each on unit-size operands, on
# operands scaled by 1e200 and on stacks with a NaN and an inf entry.
_KERNEL_GROUPS = [lc.u1(), lc.su(2), lc.su(3), lc.so(3), lc.gl(2, "complex"), lc.unipotent(3)]
_KERNEL_LEADS = [(), (1, 1), (lc._SU2_STACKED_MIN_MATRICES - 1,),
                 (lc._SU2_STACKED_MIN_MATRICES,), (lc._SMALL_MATMUL_MIN_LINES - 1,),
                 (lc._SMALL_MATMUL_MIN_LINES,)]
_KERNEL_CASES = ["unit", "1e200", "non_finite"]


def _kernel_operands(desc, lead, case):
    """Seeded operands of leading shape `lead`: g on the group, x and y in
    the algebra and z complex normal.  Case "1e200" scales x and z by
    1e200; case "non_finite" sets an entry of the first matrix of each to
    NaN, and one of the last (when there are two) to inf."""
    rng = np.random.default_rng(41)
    n = desc.matrix_dim
    ops = {"g": lc.group_from_normals(desc, rng.standard_normal(lead + (2, n, n))),
           "x": lc.algebra_from_normals(desc, rng.standard_normal(lead + (2, n, n))),
           "y": lc.algebra_from_normals(desc, rng.standard_normal(lead + (2, n, n))),
           "z": _complex_stack(rng, lead + (n, n))}
    if case == "1e200":
        ops["x"] *= 1e200
        ops["z"] *= 1e200
    elif case == "non_finite":
        for m in ops.values():
            flat = m.reshape((-1, n, n))
            flat[0, 0, -1] = np.nan
            if len(flat) > 1:
                flat[-1, -1, 0] = np.inf
    return ops


def _last(m):
    """The last matrix of a stack, alone."""
    return m.reshape((-1,) + m.shape[-2:])[-1]


def _size(*ms):
    """The product of the largest finite moduli of the stacks `ms`."""
    return np.prod([np.max(np.abs(m[np.isfinite(m)]), initial=0.0) for m in ms])


def _exact_scaled(f, m):
    """f(m) computed on m / 2^k and scaled back by 2^k, exactly, so that a
    generic formula that squares entries does not overflow at 1e200."""
    big = np.max(np.abs(m[np.isfinite(m)]), initial=1.0)
    scale = 2.0 ** np.floor(np.log2(big)) if big > 1e100 else 1.0
    return f(m / scale) * scale


def _product_kernel(desc, ops):
    # the product `_rk4_sweep` takes for a stack of this width, and
    # `small_matmul` itself: stacked, in place on its right factor, with
    # one matrix broadcast against a stack, and on an outer broadcast
    x, y = ops["z"], ops["g"]
    lines = int(np.prod(x.shape[:-2]))
    in_place = y.copy()
    lc.small_matmul(x, in_place, out=in_place)
    outer = (x[..., None, :, :], y[None])
    bound = 1e-14 * _size(x, y)
    return [(lc.line_product(lines, desc.matrix_dim)(x, y), x @ y, bound),
            (lc.small_matmul(x, y), x @ y, bound), (in_place, x @ y, bound),
            (lc.small_matmul(_last(x), y), _last(x) @ y, bound),
            (lc.small_matmul(*outer), np.matmul(*outer), bound)]


def _commutator_kernel(desc, ops):
    # stacked, and one matrix against a stack on either side
    x, y, out = ops["x"], ops["y"], ops["z"]
    bound = 1e-14 * (_size(x, y) + _size(out))
    cases = []
    for xx, yy in ((x, y), (x, _last(y)), (_last(x), y)):
        got = out.copy()
        lc.add_commutator(got, xx, yy)
        cases.append((got, out + (xx @ yy - yy @ xx), bound))
    return cases


def _conjugate_kernel(desc, ops):
    # stacked, and one matrix against a stack on either side
    g, y = ops["g"], ops["z"]
    with np.errstate(all="ignore"):
        bound = 1e-13 * _size(g, np.linalg.inv(g), y)
    return [(lc.conjugate(gg, yy), gg @ yy @ np.linalg.inv(gg), bound)
            for gg, yy in ((g, y), (_last(g), y), (g, _last(y)))]


def _inverse_kernel(desc, ops):
    # on the group, where U(1), SU(n) and SO(n) take the conjugate
    # transpose, which keeps a matrix with a non-finite entry non-finite
    # (`np.linalg.inv` gives 1 / inf = 0); for 1x1 also a GL(1) stack of
    # any complex numbers, which is inverted as 1 / u
    u = ops["g"]
    want = np.linalg.inv(u)
    if desc.family in (lc.U1, lc.SU, lc.SO):
        want[~np.all(np.isfinite(u), axis=(-2, -1))] = np.nan
    cases = [(lc.retracted_inverse(desc, u), want, 1e-14 * _size(u) * _size(want))]
    if desc.matrix_dim == 1:
        z = ops["z"]
        cases.append((lc.retracted_inverse(lc.gl(1, "complex"), z), np.linalg.inv(z),
                      1e-15 * np.abs(np.linalg.inv(z))))
    return cases


def _norm_kernel(desc, ops):
    m = ops["z"]
    frobs = _exact_scaled(lambda a: np.linalg.norm(a, axis=(-2, -1)), m)
    frob = _exact_scaled(lambda a: np.linalg.norm(a.reshape(-1)), m)
    largest = np.max(frobs, initial=0.0) if np.all(np.isfinite(m)) else np.inf
    empty = m.reshape((-1,) + m.shape[-2:])[:0]
    return [(lc.frobs(m), frobs, 1e-15 * frobs), (lc.frob(m), frob, 1e-15 * frob),
            (lc.max_frob(m), largest, 1e-15 * largest), (lc.frobs(empty), np.zeros(0), 0.0),
            (lc.max_frob(empty), 0.0, 0.0)]


def _retract_kernel(desc, ops):
    # SU(2) alone has a closed form: the short path of fewer than
    # `_SU2_STACKED_MIN_MATRICES` matrices is the stacked numpy formula to
    # the bit, signed zeros and warnings included.  Python complex
    # arithmetic and numpy round alike only while a real times a complex
    # is done as a complex product (CPython 3.13 and before); the signs of
    # zeros show the difference, e.g. for 0.5 * (m00 + conj m11) with
    # Im m00 = -0.0, Im m11 = +0.0 and a positive real part, so zeros of
    # random sign are set in 8 draws
    near = ops["g"] + 1e-3 * ops["z"]
    rng = np.random.default_rng(42)
    inputs = [near, near.real.astype(complex), ops["g"],
              np.broadcast_to(np.eye(2, dtype=complex), near.shape).copy()]
    for _ in range(8):
        m = near.copy()
        parts = m.view(float)
        zero = rng.random(parts.shape) < 0.4
        zero[..., 0, 0] = False  # Re m00 keeps the quaternion part off 0
        parts[zero] = np.copysign(0.0, rng.standard_normal(parts.shape))[zero]
        inputs.append(m)
    cases = []
    for m in inputs:
        got, got_warnings = _recording_warnings(partial(lc.retract, desc), m)
        want, want_warnings = _recording_warnings(
            lambda a: lc._su2_retract_stacked(a.reshape(-1, 2, 2)).reshape(a.shape), m)
        assert got_warnings == want_warnings
        cases.append((got, want, None))
    return cases


def _defect_kernel(desc, ops):
    # the SU(2) closed form against the generic SU defect, on the algebra,
    # off it, and on an empty stack
    x = ops["x"]
    cases = []
    for m in (x, x + 1e-3 * _size(x) * ops["g"], x.reshape(-1, 2, 2)[:0]):
        want = _exact_scaled(su_algebra_defect, m)
        cases.append((lc.algebra_defect(desc, m), want,
                      1e-14 * want + 1e-15 * _size(m)))
    return cases


_KERNELS = {"product": (_product_kernel, _KERNEL_GROUPS),
            "commutator": (_commutator_kernel, _KERNEL_GROUPS),
            "conjugate": (_conjugate_kernel, _KERNEL_GROUPS),
            "inverse": (_inverse_kernel, _KERNEL_GROUPS),
            "norm": (_norm_kernel, _KERNEL_GROUPS),
            "retract": (_retract_kernel, [lc.su(2)]),
            "defect": (_defect_kernel, [lc.su(2)])}


def _assert_agrees(got, want, bound):
    """got has the shape of want, the same matrices (or values) are not
    finite, and the finite ones differ by at most `bound`, or, for a None
    bound, not at all: the same bits, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    axes = (-2, -1) if want.ndim >= 2 and want.shape[-2:] == want.shape[-1:] * 2 else ()
    bad = ~np.all(np.isfinite(want), axis=axes)
    assert np.array_equal(~np.all(np.isfinite(got), axis=axes), bad)
    if bound is None:
        assert np.array_equal(got, want, equal_nan=True)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
        return
    with np.errstate(invalid="ignore"):
        excess = np.abs(got - want) - bound
    assert np.all(np.where(bad, 0.0, np.max(np.nan_to_num(excess, nan=np.inf), axis=axes,
                                            initial=-np.inf)) <= 0.0)


@pytest.mark.parametrize("lead", _KERNEL_LEADS, ids=str)
@pytest.mark.parametrize("name, desc", [(name, desc) for name, (_, groups) in _KERNELS.items()
                                        for desc in groups], ids=str)
def test_kernel_matches_the_generic_formula(name, desc, lead):
    kernel = _KERNELS[name][0]
    for case in _KERNEL_CASES:
        ops = _kernel_operands(desc, lead, case)
        if case == "non_finite":  # NaN and inf signal as they spread
            with np.errstate(all="ignore"):
                results = kernel(desc, ops)
        else:
            results = kernel(desc, ops)
        for k, (got, want, bound) in enumerate(results):
            try:
                _assert_agrees(got, want, bound)
            except AssertionError as exc:
                raise AssertionError(f"{case} operands, result {k}") from exc


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

    @pytest.mark.parametrize("desc", [lc.su(2), lc.su(3), lc.so(3)], ids=str)
    def test_a_finite_stack_whose_squares_overflow_keeps_a_rounding_size_defect(self, desc):
        # in the algebra up to rounding, scaled to 1e200: the squares of its
        # entries overflow, its defect does not, and a real defect at that
        # scale is still refused with a finite value
        rng = np.random.default_rng(14)
        shape = (2, 17, desc.matrix_dim, desc.matrix_dim)
        near = lc.project_to_algebra(desc, _complex_stack(rng, shape))
        noise = _complex_stack(rng, shape)
        m = 1e200 * (near + 1e-16 * noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = lc.algebra_defect(desc, m)
            lc.require_algebra(desc, m, "A")
            lc.require_algebra(desc, 1e200 * near, "A")
            with pytest.raises(MembershipError, match=r"defect \d\.\d{3}e\+19\d\)$"):
                lc.require_algebra(desc, 1e200 * (near + 1e-6 * noise), "A")
        assert 0.0 < d <= 1e-14 * np.max(np.abs(m))

    def test_require_algebra_names_the_form(self):
        bad = np.stack([np.zeros((2, 2)), np.diag([1.0, -1.0])])
        lc.require_algebra(lc.su(2), bad[:1], "A")
        with pytest.raises(MembershipError, match="^A leaves the algebra of SU"):
            lc.require_algebra(lc.su(2), bad, "A")

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)], ids=str)
    @pytest.mark.parametrize("desc", [lc.u1(), lc.su(2), lc.su(3), lc.gl(2)], ids=str)
    def test_require_algebra_says_a_non_finite_stack_is_not_finite(self, desc, value):
        m = np.zeros((3, desc.matrix_dim, desc.matrix_dim), dtype=complex)
        m[1, 0, -1] = value
        with pytest.raises(MembershipError, match="^A along the path is not finite$"):
            lc.require_algebra(desc, m, "A", " along the path")
