import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy.errors import CompositionError, MembershipError, TargetMatchingError

from .oracles import per_sample_axioms, sample_g, sample_h

SU2 = lc.su(2)
U1 = lc.u1()


@pytest.fixture(scope="module")
def eg_su2():
    return hg.make_eg(SU2)


@pytest.fixture(scope="module")
def bu1():
    return hg.make_b_abelian(U1)


@pytest.fixture(scope="module")
def aut_su2():
    return hg.make_aut_inner(SU2)


class TestBuilders:
    def test_b_abelian_t_collapses(self, bu1):
        h = lc.random_group(U1, np.random.default_rng(0))
        assert np.array_equal(bu1.t(h.matrix), [[1.0]])

    def test_eg_t_is_identity_on_matrices(self, eg_su2):
        h = lc.random_group(SU2, np.random.default_rng(1))
        assert np.array_equal(eg_su2.t(h.matrix), h.matrix)

    def test_aut_inner_equivariance_by_construction(self, aut_su2):
        rng = np.random.default_rng(2)
        g = sample_g(aut_su2, rng).matrix
        h = sample_h(aut_su2, rng).matrix
        lhs = aut_su2.t(aut_su2.alpha(g, h))
        rhs = g @ aut_su2.t(h) @ np.linalg.inv(g)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_b_abelian_rejects_a_larger_h(self):
        with pytest.raises(CompositionError):
            hg.make_b_abelian(SU2)


_ORACLE_MODULES = {
    **{f"{kind}:{desc}": partial(make, desc)
       for kind, make in (("eg", hg.make_eg), ("aut_inner", hg.make_aut_inner))
       for desc in (SU2, lc.su(3), lc.so(3), lc.gl(2), lc.unipotent(3))},
    "b_u1": partial(hg.make_b_abelian, U1),
}


class TestVerifyAxioms:
    @pytest.mark.parametrize("builder", [
        lambda: hg.make_eg(SU2),
        lambda: hg.make_b_abelian(U1),
        lambda: hg.make_aut_inner(SU2),
    ])
    def test_builtins_pass(self, builder):
        report = hg.verify_axioms(builder(), n_samples=100, tol=1e-10, seed=3)
        assert report.passed, report.as_dict()

    def test_b_abelian_action_axioms_exact(self, bu1):
        report = hg.verify_axioms(bu1, n_samples=50, seed=4)
        assert report.action_identity == 0.0
        assert report.action_composition == 0.0

    def test_corrupted_action_fails(self):
        # s(g) = g^-1 is no homomorphism, and conjugating by it violates the
        # Peiffer identity and equivariance
        cm = replace(hg.make_eg(SU2), s=np.linalg.inv)
        report = hg.verify_axioms(cm)
        assert not report.passed and report.tol == 1e-9
        assert report.peiffer > 0.1

    def test_nan_action_fails_with_an_infinite_residual(self):
        # an s that is NaN on part of its arguments; a NaN residual must not
        # be dropped by the maximum
        def s_nan(g):
            bad = np.abs(g[..., 0, 0].real) > 0.9
            return np.where(bad[..., None, None], np.nan, g)

        report = hg.verify_axioms(replace(hg.make_eg(SU2), s=s_nan))
        assert report.max_residual == math.inf and not report.passed
        assert report.action_homomorphism == math.inf
        assert report.as_dict()["max_residual"] == math.inf
        # on 1x1 matrices conjugation is the identity for every finite s(g),
        # so only a NaN s(g) itself can show
        report = hg.verify_axioms(replace(hg.make_b_abelian(U1),
                                          s=lambda g: np.full(np.shape(g), np.nan)))
        assert report.max_residual == math.inf and not report.passed

    def test_axioms_are_evaluated_on_stacks(self):
        # t is called once per axiom term, on all samples at once
        calls = []
        cm = hg.make_eg(SU2)

        def counted_t(h):
            calls.append(np.shape(h))
            return cm.t(h)

        report = hg.verify_axioms(replace(cm, t=counted_t), n_samples=7, seed=5)
        assert report.passed
        assert calls and all(shape == (7, 2, 2) for shape in calls)

    def test_report_is_seed_deterministic(self, eg_su2):
        r1 = hg.verify_axioms(eg_su2, n_samples=20, seed=11)
        r2 = hg.verify_axioms(eg_su2, n_samples=20, seed=11)
        assert r1.as_dict() == r2.as_dict()

    @pytest.mark.parametrize("name", sorted(_ORACLE_MODULES))
    @pytest.mark.parametrize("n_samples", [1, 7, 200])
    def test_stacked_draw_equals_the_per_sample_draws(self, name, n_samples):
        # one draw for all samples gives the report of one-at-a-time draws,
        # bit for bit
        cm = _ORACLE_MODULES[name]()
        for seed in (0, 3, 101):
            report = hg.verify_axioms(cm, n_samples=n_samples, tol=1e-9, seed=seed)
            assert report.as_dict() == per_sample_axioms(cm, n_samples, 1e-9, seed)

    def test_an_exponential_off_the_group_fails_the_stacked_gate(self, eg_su2, monkeypatch):
        # one H-sample of 200 pushed off SU(2) after its exponential
        expm = lc.expm

        def one_off(m):
            out = expm(m)
            if out.shape[:2] == (200, 3):
                out[137, 2] *= 1.001
            return out

        monkeypatch.setattr(lc, "expm", one_off)
        with pytest.raises(MembershipError, match="exp_map left SU"):
            hg.verify_axioms(eg_su2, n_samples=200)
        monkeypatch.undo()
        assert hg.verify_axioms(eg_su2, n_samples=200).passed


def _central(f, step):
    return (f(step) - f(-step)) / (2.0 * step)


_MODULES = {
    "eg:SU(2)": lambda: hg.make_eg(SU2),
    "aut_inner:SU(2)": lambda: hg.make_aut_inner(SU2),
    "eg:SO(3)": lambda: hg.make_eg(lc.so(3)),
    "eg:U(1)": lambda: hg.make_eg(U1),
    "b_u1": lambda: hg.make_b_abelian(U1),
}


def _difference_quotients(cm, g, h, x, y):
    """{map name: (derived map, its arguments, difference quotient of t or
    alpha, tolerance)} on stacks g, h of group elements and x, y of algebra
    elements of G and H."""
    def mixed(step):
        def a(sx, uy):
            return cm.alpha(lc.expm(sx * step * x), lc.expm(uy * step * y))
        return (a(1, 1) - a(1, -1) - a(-1, 1) + a(-1, -1)) / (4 * step ** 2)

    action_diff = _central(lambda e: cm.alpha(lc.expm(e * x), h), 1e-5)
    return {
        "t_star": (cm.t_star, (y,), _central(lambda e: cm.t(lc.expm(e * y)), 1e-5), 1e-8),
        "alpha_star": (cm.alpha_star, (x, y), mixed(1e-4), 1e-6),
        "alpha_g_star": (cm.alpha_g_star, (g, y),
                         _central(lambda e: cm.alpha(g, lc.expm(e * y)), 1e-5), 1e-8),
        "alpha_action_diff": (partial(hg.alpha_action_diff, cm), (x, h), action_diff, 1e-8),
        "alpha_conjugate_star": (partial(hg.alpha_conjugate_star, cm), (h, x),
                                 action_diff @ np.linalg.inv(h), 1e-8),
    }


class TestInducedMaps:
    def test_action_derivative_matches_difference_quotient(self):
        # every map derived from s and s_*, on stacks, against central
        # differences of t and alpha (steps 1e-5, and 1e-4 for the mixed
        # second difference of alpha)
        rng = np.random.default_rng(10)

        def stack(desc, draw):
            return np.stack([draw(desc, rng).matrix for _ in range(6)]).reshape(
                (2, 3) + (desc.matrix_dim,) * 2)

        for label, make in _MODULES.items():
            cm = make()
            x, y = stack(cm.G, lc.random_algebra), stack(cm.H, lc.random_algebra)
            g, h = lc.expm(stack(cm.G, lc.random_algebra)), stack(cm.H, lc.random_group)
            for name, (fn, args, want, tol) in _difference_quotients(cm, g, h, x, y).items():
                got = fn(*args)
                assert got.shape == want.shape, (label, name)
                assert np.max(np.abs(got - want)) <= tol, (label, name)

    def test_t_star_eg_identity(self, eg_su2):
        y = lc.random_algebra(SU2, np.random.default_rng(0))
        assert np.array_equal(hg.t_star(eg_su2, y).matrix, y.matrix)

    def test_t_star_b_abelian_zero(self, bu1):
        y = lc.random_algebra(U1, np.random.default_rng(1))
        out = hg.t_star(bu1, y)
        assert out.matrix.shape == (1, 1) and lc.frob(out.matrix) == 0.0

    def test_t_star_aut_inner_acts_as_ad(self, aut_su2):
        # exp(s t_star(Y)) acting via alpha differentiates to the bracket
        rng = np.random.default_rng(2)
        y = lc.random_algebra(SU2, rng)
        z = lc.random_algebra(SU2, rng)
        ty = hg.t_star(aut_su2, y)
        s = 1e-5
        gp = lc.exp_map(lc.AlgebraElement(aut_su2.G, s * ty.matrix, validate=False))
        gm = lc.exp_map(lc.AlgebraElement(aut_su2.G, -s * ty.matrix, validate=False))
        zel = lc.exp_map(lc.AlgebraElement(SU2, 1e-3 * z.matrix, validate=False))
        der = (aut_su2.alpha(gp.matrix, zel.matrix)
               - aut_su2.alpha(gm.matrix, zel.matrix)) / (2 * s)
        # derivative of conj action at exp(uZ), pulled to the algebra at u
        oracle = 1e-3 * (y.matrix @ z.matrix - z.matrix @ y.matrix)
        assert np.allclose(der, oracle, atol=1e-9)

    def test_alpha_star_zero_first_slot(self, eg_su2):
        y = lc.random_algebra(SU2, np.random.default_rng(3))
        out = hg.alpha_star(eg_su2, lc.AlgebraElement(SU2, np.zeros((2, 2))), y)
        assert lc.frob(out.matrix) == 0.0

    def test_alpha_star_b_abelian_trivial(self, bu1):
        x = lc.random_algebra(bu1.G, np.random.default_rng(4))
        y = lc.random_algebra(U1, np.random.default_rng(5))
        assert lc.frob(hg.alpha_star(bu1, x, y).matrix) == 0.0

    def test_alpha_star_eg_is_bracket(self, eg_su2):
        rng = np.random.default_rng(6)
        x = lc.random_algebra(SU2, rng)
        y = lc.random_algebra(SU2, rng)
        assert np.allclose(hg.alpha_star(eg_su2, x, y).matrix,
                           x.matrix @ y.matrix - y.matrix @ x.matrix)

    def test_alpha_g_star_identity_and_conjugation(self, eg_su2, bu1):
        rng = np.random.default_rng(8)
        y = lc.random_algebra(SU2, rng)
        assert np.allclose(
            hg.alpha_g_star(eg_su2, lc.identity(SU2), y).matrix, y.matrix)
        g = lc.random_group(SU2, rng)
        assert np.allclose(
            hg.alpha_g_star(eg_su2, g, y).matrix, g.matrix @ y.matrix @ np.linalg.inv(g.matrix))
        yu = lc.random_algebra(U1, rng)
        assert np.allclose(
            hg.alpha_g_star(bu1, lc.identity(bu1.G), yu).matrix, yu.matrix)


class TestTwoMorphisms:
    def test_target_matching_enforced(self, eg_su2):
        rng = np.random.default_rng(0)
        g = lc.random_group(SU2, rng)
        h = lc.random_group(SU2, rng)
        tv = hg.two_morphism(eg_su2, g, h)
        assert tv.matching_residual() <= 1e-12
        assert issubclass(TargetMatchingError, CompositionError)
        with pytest.raises(TargetMatchingError):
            hg.TwoMorphismValue(eg_su2, g, h, g)  # wrong target
        nan_target = lc.GroupElement(SU2, np.full((2, 2), np.nan), validate=False)
        with pytest.raises(TargetMatchingError):
            hg.TwoMorphismValue(eg_su2, g, h, nan_target, match_tolerance=math.inf)

    def test_vcompose_identity_neutral(self, eg_su2):
        rng = np.random.default_rng(1)
        g = lc.random_group(SU2, rng)
        h = lc.random_group(SU2, rng)
        tv = hg.two_morphism(eg_su2, g, h)
        ident = hg.identity_two_morphism(eg_su2, g)
        out = hg.vcompose(tv, ident)
        assert np.allclose(out.h_part.matrix, tv.h_part.matrix)
        assert np.allclose(out.source.matrix, tv.source.matrix)

    def test_vcompose_abelian_phases_add(self, bu1):
        one = lc.identity(bu1.G)
        a = hg.two_morphism(bu1, one, lc.GroupElement(U1, [[np.exp(0.3j)]]))
        b = hg.two_morphism(bu1, one, lc.GroupElement(U1, [[np.exp(0.5j)]]))
        out = hg.vcompose(b, a)
        assert abs(out.h_part.matrix[0, 0] - np.exp(0.8j)) < 1e-14

    def test_vcompose_requires_matching(self, eg_su2):
        rng = np.random.default_rng(2)
        a = hg.two_morphism(eg_su2, lc.random_group(SU2, rng), lc.random_group(SU2, rng))
        b = hg.two_morphism(eg_su2, lc.random_group(SU2, rng), lc.random_group(SU2, rng))
        with pytest.raises(CompositionError):
            hg.vcompose(b, a)

    def test_hcompose_matches_semidirect_product(self, eg_su2):
        rng = np.random.default_rng(3)
        a = hg.two_morphism(eg_su2, lc.random_group(SU2, rng), lc.random_group(SU2, rng))
        b = hg.two_morphism(eg_su2, lc.random_group(SU2, rng), lc.random_group(SU2, rng))
        out = hg.hcompose(a, b)
        expected_h = b.h_part.matrix @ (
            b.source.matrix @ a.h_part.matrix @ np.linalg.inv(b.source.matrix))
        assert np.allclose(out.h_part.matrix, expected_h)
        assert np.allclose(out.source.matrix, b.source.matrix @ a.source.matrix)

    def test_hcompose_identities(self, eg_su2):
        ident = hg.identity_two_morphism(eg_su2, lc.identity(SU2))
        out = hg.hcompose(ident, ident)
        assert np.allclose(out.h_part.matrix, np.eye(2))

    def test_hcompose_b_abelian_reduces_to_product(self, bu1):
        one = lc.identity(bu1.G)
        a = hg.two_morphism(bu1, one, lc.GroupElement(U1, [[np.exp(0.4j)]]))
        b = hg.two_morphism(bu1, one, lc.GroupElement(U1, [[np.exp(-0.1j)]]))
        out = hg.hcompose(a, b)
        assert abs(out.h_part.matrix[0, 0] - np.exp(0.3j)) < 1e-14

    def test_eg_unique_filler(self, eg_su2):
        # between any two 1-morphisms the unique h is g' g^{-1}
        rng = np.random.default_rng(4)
        g = lc.random_group(SU2, rng)
        gp = lc.random_group(SU2, rng)
        h = lc.GroupElement(SU2, gp.matrix @ np.linalg.inv(g.matrix), validate=False)
        tv = hg.TwoMorphismValue(eg_su2, g, h, gp)
        assert tv.matching_residual() <= 1e-12


def _composable_quadruple(cm, rng):
    """phi2: g => g', phi1: g' => g'', psi2: k => k', psi1: k' => k''."""
    g = sample_g(cm, rng)
    k = sample_g(cm, rng)
    phi2 = hg.two_morphism(cm, g, sample_h(cm, rng))
    phi1 = hg.two_morphism(cm, phi2.target, sample_h(cm, rng))
    psi2 = hg.two_morphism(cm, k, sample_h(cm, rng))
    psi1 = hg.two_morphism(cm, psi2.target, sample_h(cm, rng))
    return phi1, phi2, psi1, psi2


@pytest.mark.parametrize("make", [
    lambda: hg.make_eg(SU2),
    lambda: hg.make_b_abelian(U1),
    lambda: hg.make_aut_inner(SU2),
])
def test_interchange_law(make):
    cm = make()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        phi1, phi2, psi1, psi2 = _composable_quadruple(cm, rng)
        lhs = hg.hcompose(hg.vcompose(phi1, phi2), hg.vcompose(psi1, psi2))
        rhs = hg.vcompose(hg.hcompose(phi1, psi1), hg.hcompose(phi2, psi2))
        worst = max(worst, lc.frob(lhs.h_part.matrix - rhs.h_part.matrix))
        worst = max(worst, lc.frob(lhs.source.matrix - rhs.source.matrix))
    assert worst <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000))
def test_every_constructed_morphism_target_matches(seed):
    cm = hg.make_eg(SU2)
    rng = np.random.default_rng(seed)
    tv = hg.two_morphism(cm, sample_g(cm, rng), sample_h(cm, rng))
    assert tv.matching_residual() <= 1e-8
