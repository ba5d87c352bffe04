from collections import Counter

import numpy as np
import pytest

from higher_holonomy import bf_theory as bf
from higher_holonomy import forms as fm
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy.errors import DomainError

from .conftest import SU2, U1, su2_matrix_table


@pytest.fixture(scope="module")
def su2_4d_pair():
    a = fm.one_form_from_expressions(
        SU2,
        [
            su2_matrix_table("0.4*x2", "0", "0"),
            su2_matrix_table("0", "0.3*x1", "0"),
            su2_matrix_table("0.2*x4", "0", "0.1*x3"),
            su2_matrix_table("0", "0", "0.15*x2"),
        ],
        4,
    )
    cm = hg.make_eg(SU2)
    return cm, a, fm.symbolic_curvature(a)


class TestPairing:
    def test_neg_trace_positive_definite_on_su2(self):
        rng = np.random.default_rng(0)
        p = bf.PairingSpec("neg_trace")
        for _ in range(20):
            x = lc.random_algebra(SU2, rng)
            val = p.pair_elements(x, x)
            assert val > 0 or lc.frob(x.matrix) < 1e-12

    def test_ad_invariance(self):
        rng = np.random.default_rng(1)
        p = bf.PairingSpec("neg_trace")
        for _ in range(20):
            g = lc.random_group(SU2, rng)
            x = lc.random_algebra(SU2, rng)
            y = lc.random_algebra(SU2, rng)
            lhs = p.pair_elements(*(lc.AlgebraElement(SU2, lc.conjugate(g.matrix, v.matrix))
                                    for v in (x, y)))
            rhs = p.pair_elements(x, y)
            assert abs(lhs - rhs) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        p = bf.PairingSpec("trace")
        x = lc.random_algebra(SU2, rng)
        y = lc.random_algebra(SU2, rng)
        assert p.pair_elements(x, y) == pytest.approx(p.pair_elements(y, x))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bf.PairingSpec("weird")


class TestBetaField:
    def test_fake_flat_pair_vanishes(self, su2_4d_pair):
        cm, a, b = su2_4d_pair
        betas = bf.beta_field(cm, a, b, np.array([0.3, 0.5, 0.2, 0.8]))
        for val in betas.values():
            assert lc.frob(val.matrix) <= 1e-12

    def test_zero_b_gives_curvature(self, su2_4d_pair):
        cm, a, _ = su2_4d_pair
        b0 = fm.two_form_from_expressions(SU2, {}, 4)
        x = np.array([0.4, 0.1, 0.7, 0.2])
        betas = bf.beta_field(cm, a, b0, x)
        e = np.eye(4)
        for (i, j), val in betas.items():
            k = fm.curvature_two_form(a, x, e[i], e[j])
            assert np.allclose(val.matrix, k.matrix)

    def test_zero_a_gives_minus_tb(self, su2_4d_pair):
        cm, _, b = su2_4d_pair
        a0 = fm.zero_one_form(SU2, 4)
        x = np.array([0.4, 0.1, 0.7, 0.2])
        betas = bf.beta_field(cm, a0, b, x)
        e = np.eye(4)
        for (i, j), val in betas.items():
            tb = hg.t_star(cm, b(x, e[i], e[j]))
            assert np.allclose(val.matrix, -tb.matrix)


class TestAction:
    def test_requires_dimension_four(self):
        cm = hg.make_eg(U1)
        a = fm.zero_one_form(U1, 2)
        b = fm.two_form_from_expressions(U1, {}, 2)
        with pytest.raises(DomainError):
            bf.bf_action(cm, a, b)

    def test_fake_flat_action_at_fd_floor(self, su2_4d_pair):
        cm, a, b = su2_4d_pair
        assert abs(bf.bf_action(cm, a, b)) <= 1e-6

    def test_abelian_yang_mills_oracle(self):
        # A = i(x2 dx1 + x4 dx3), B = 0: F12 = F34 = -i and
        # S = 1/2 int <F ^ F> = 1 on the unit 4-cube (hand integral)
        cm = hg.make_eg(U1)
        a = fm.one_form_from_expressions(
            U1, [[["i*x2"]], [["0"]], [["i*x4"]], [["0"]]], 4)
        b0 = fm.two_form_from_expressions(U1, {}, 4)
        s = bf.bf_action(cm, a, b0, bf.PairingSpec("neg_trace"), bf.GridSpec(8))
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_b_scaling_invisible_when_t_star_vanishes(self):
        # BAbelian: t_* = 0, so S is independent of B entirely
        cm = hg.make_b_abelian(U1)
        a = fm.zero_one_form(cm.G, 4)
        b1 = fm.two_form_from_expressions(U1, {(0, 1): [["i*x3"]]}, 4)
        b2 = fm.two_form_from_expressions(U1, {(0, 1): [["i*7*x3"]]}, 4)
        s1 = bf.bf_action(cm, a, b1, grid=bf.GridSpec(4))
        s2 = bf.bf_action(cm, a, b2, grid=bf.GridSpec(4))
        assert s1 == s2 == 0.0

    def test_action_quadratic_in_beta(self):
        # abelian EG with B=0: scaling A by lam scales F, hence S, by lam^2
        # (choose A with vanishing bracket term)
        cm = hg.make_eg(U1)
        b0 = fm.two_form_from_expressions(U1, {}, 4)

        def action_for(lam):
            a = fm.one_form_from_expressions(
                U1, [[[f"i*{lam}*x2"]], [["0"]], [[f"i*{lam}*x4"]], [["0"]]], 4)
            return bf.bf_action(cm, a, b0, grid=bf.GridSpec(6))

        assert action_for(2.0) == pytest.approx(4.0 * action_for(1.0), rel=1e-12)

    def test_decomposition_sums_to_action(self, su2_4d_pair):
        cm, a, _ = su2_4d_pair
        # use a non-flat pair so all three terms are nonzero
        b = fm.two_form_from_expressions(
            SU2, {(0, 1): su2_matrix_table("0.5", "0.2", "0"),
                  (2, 3): su2_matrix_table("0", "0.1*x1", "0")}, 4)
        grid = bf.GridSpec(6)
        s = bf.bf_action(cm, a, b, grid=grid)
        dec = bf.action_decomposition(cm, a, b, grid=grid)
        assert abs(dec.total - s) <= 1e-9
        assert dec.bf_term != 0.0 and dec.cosmological != 0.0

    def test_zero_b_kills_bf_and_cosmological_terms(self, su2_4d_pair):
        cm, a, _ = su2_4d_pair
        b0 = fm.two_form_from_expressions(SU2, {}, 4)
        dec = bf.action_decomposition(cm, a, b0, grid=bf.GridSpec(4))
        assert dec.bf_term == 0.0
        assert dec.cosmological == 0.0

    def test_grid_refinement_within_estimate(self):
        cm = hg.make_eg(U1)
        a = fm.one_form_from_expressions(
            U1, [[["i*sin(x2)"]], [["0"]], [["i*x4^2"]], [["i*x1*x3"]]], 4)
        b0 = fm.two_form_from_expressions(U1, {}, 4)
        grid = bf.GridSpec(12)
        s12 = bf.bf_action(cm, a, b0, grid=grid)
        s24 = bf.bf_action(cm, a, b0, grid=bf.GridSpec(24))
        est = bf.quadrature_error_estimate(cm, a, b0, grid=grid)
        assert abs(s24 - s12) <= est


class TestCriticality:
    def test_zero_pair_exact_zero(self):
        cm = hg.make_eg(U1)
        a = fm.zero_one_form(U1, 4)
        b0 = fm.two_form_from_expressions(U1, {}, 4)
        rep = bf.criticality_check(cm, a, b0, grid=bf.GridSpec(4), n_directions=4)
        assert rep.max_abs_derivative <= 1e-14

    def test_fake_flat_pair_is_critical(self, su2_4d_pair):
        cm, a, b = su2_4d_pair
        rep = bf.criticality_check(cm, a, b, grid=bf.GridSpec(8), n_directions=6)
        assert rep.beta_sup <= 1e-12
        assert rep.max_abs_derivative <= 1e-4

    def test_non_flat_pair_detected(self, su2_4d_pair):
        cm, a, b = su2_4d_pair
        spoiled = fm.add_two_forms(
            b,
            fm.two_form_from_expressions(
                SU2, {(0, 1): su2_matrix_table("1", "0", "0")}, 4),
            factor=0.3,
        )
        rep = bf.criticality_check(cm, a, spoiled, grid=bf.GridSpec(8),
                                   n_directions=8, seed=0)
        assert 0.2 <= rep.beta_sup <= 0.5
        assert rep.max_abs_derivative >= 1e-2

    def test_moderate_beta_still_detected(self, su2_4d_pair):
        # the characterization has no gray zone: beta around 0.1 in sup norm
        # already produces a visible derivative
        cm, a, b = su2_4d_pair
        spoiled = fm.add_two_forms(
            b,
            fm.two_form_from_expressions(
                SU2, {(0, 1): su2_matrix_table("1", "0", "0")}, 4),
            factor=0.1,
        )
        rep = bf.criticality_check(cm, a, spoiled, grid=bf.GridSpec(6),
                                   n_directions=8, seed=1)
        assert rep.beta_sup >= 0.1
        assert rep.max_abs_derivative >= 1e-2

    def test_gated_pair_is_critical(self):
        # any pair accepted by the fake-curvature gate is a critical point
        cmb = hg.make_b_abelian(U1)
        b = fm.two_form_from_expressions(U1, {(0, 1): [["i*(1 + x3)"]]}, 4)
        pair = fm.ConnectionPair(cmb, fm.zero_one_form(cmb.G, 4), b)
        rep = bf.criticality_check(pair.cm, pair.A, pair.B,
                                   grid=bf.GridSpec(4), n_directions=4)
        assert rep.max_abs_derivative <= 1e-5

    def test_report_deterministic(self, su2_4d_pair):
        cm, a, b = su2_4d_pair
        r1 = bf.criticality_check(cm, a, b, grid=bf.GridSpec(4), n_directions=2, seed=7)
        r2 = bf.criticality_check(cm, a, b, grid=bf.GridSpec(4), n_directions=2, seed=7)
        assert r1.derivatives == r2.derivatives

    @pytest.mark.parametrize("derivatives", [(0.1, float("nan")), (float("nan"), 0.1)])
    def test_nan_derivative_propagates_in_either_order(self, derivatives):
        rep = bf.CriticalityReport(derivatives, beta_sup=0.0, action=0.0, epsilon=1e-3, seed=0)
        assert np.isnan(rep.max_abs_derivative)

    def test_max_abs_derivative_is_the_largest_magnitude(self):
        derivatives = (0.1, -0.30000000000000004, 2e-17, -0.0)
        rep = bf.CriticalityReport(derivatives, beta_sup=0.0, action=0.0, epsilon=1e-3, seed=0)
        assert type(rep.max_abs_derivative) is float
        assert rep.max_abs_derivative == max(abs(d) for d in derivatives)


PLANES = [(i, j) for i in range(4) for j in range(i + 1, 4)]


class TestBetaAssembly:
    """beta is built from one evaluation of each field component, and never
    writes into an array that a field returned."""

    def test_each_component_evaluated_once_per_action(self):
        rng = np.random.default_rng(0)
        calls = Counter()

        def counted(name, mat):
            def fn(x):
                calls[name] += 1
                return x[..., 0, None, None] * mat
            return fn

        a = fm.one_form_from_callables(
            SU2, [counted(k, lc.random_algebra(SU2, rng).matrix) for k in range(4)], 4)
        b = fm.two_form_from_callables(
            SU2, {pl: counted(pl, lc.random_algebra(SU2, rng).matrix)
                  for pl in PLANES}, 4)
        bf.bf_action(hg.make_eg(SU2), a, b, grid=bf.GridSpec(4))
        # one value and three central differences (two values each) per A
        # component, one value per B component
        assert {k: calls[k] for k in range(4)} == {k: 7 for k in range(4)}
        assert {pl: calls[pl] for pl in PLANES} == {pl: 1 for pl in PLANES}

    def test_callable_may_return_one_matrix_for_any_stack(self):
        rng = np.random.default_rng(1)
        cm = hg.make_eg(SU2)
        b0 = fm.two_form_from_expressions(SU2, {}, 4)
        x0 = lc.random_algebra(SU2, rng).matrix
        same = fm.one_form_from_callables(SU2, [lambda x: x0] * 4, 4)
        assert bf.bf_action(cm, same, b0, grid=bf.GridSpec(4)) == 0.0
        # one stacked component next to three constant (d, d) ones
        mats = [lc.random_algebra(SU2, rng).matrix for _ in range(4)]
        fns = [lambda x: x[..., 1, None, None] * mats[0]]
        fns += [lambda x, m=m: m for m in mats[1:]]
        entries = [[[f"({v.real!r} + {v.imag!r}*i)" for v in row.tolist()] for row in m]
                   for m in mats]
        entries[0] = [[f"x2*{e}" for e in row] for row in entries[0]]
        mixed = fm.one_form_from_callables(SU2, fns, 4)
        symbolic = fm.one_form_from_expressions(SU2, entries, 4)
        s = bf.bf_action(cm, mixed, b0, grid=bf.GridSpec(4))
        assert s != 0.0
        assert s == pytest.approx(bf.bf_action(cm, symbolic, b0, grid=bf.GridSpec(4)),
                                  rel=1e-9)

    def test_cached_field_values_stay_unchanged(self):
        # GridSpec(4) has 256 cells, as many as the gate's default samples
        rng = np.random.default_rng(2)
        cached = {key: np.stack([lc.random_algebra(SU2, rng).matrix for _ in range(256)])
                  for key in list(range(4)) + PLANES}
        before = {key: arr.copy() for key, arr in cached.items()}
        a = fm.one_form_from_callables(SU2, [lambda x, k=k: cached[k] for k in range(4)], 4)
        b = fm.two_form_from_callables(
            SU2, {pl: (lambda x, pl=pl: cached[pl]) for pl in PLANES}, 4)
        cm = hg.make_eg(SU2)
        bf.bf_action(cm, a, b, grid=bf.GridSpec(4))
        fm.fake_curvature_residual(cm, a, b)
        for key, arr in cached.items():
            assert np.array_equal(arr, before[key])

    def test_cached_field_values_stay_unchanged_for_a_symbolic_linear_a(self):
        # the partials of a linear A are constant fields, which evaluate to
        # read-only broadcast views of one matrix each
        rng = np.random.default_rng(3)
        tables = []
        for m in range(4):
            c0, c1, c2 = (float(c) for c in rng.uniform(-0.5, 0.5, 3))
            tables.append(su2_matrix_table(f"{c0!r}*x{m + 1}", f"{c1!r}",
                                           f"{c2!r}*x{(m + 1) % 4 + 1}"))
        a = fm.one_form_from_expressions(SU2, tables, 4)
        b = fm.add_two_forms(fm.symbolic_curvature(a), bf._perturbation_two_form(rng, SU2, 4),
                             0.1)
        x0 = np.zeros(4)
        partials = [a.components[j].partial(i) for i in range(4) for j in range(4)]
        assert all(p.eval(np.zeros((3, 4))).strides[0] == 0 for p in partials)
        before = [p.eval(x0).copy() for p in partials]
        cm = hg.make_eg(SU2)
        assert bf.bf_action(cm, a, b, grid=bf.GridSpec(4)) > 0.0
        fm.fake_curvature_residual(cm, a, b)
        for p, val in zip(partials, before):
            assert np.array_equal(p.eval(x0), val)


def _polynomial_pair():
    a = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.4*x2", "0", "0"), su2_matrix_table("0", "0.3*x1", "0"),
              su2_matrix_table("0.2*x4", "0", "0.1*x3"), su2_matrix_table("0", "0", "0.15*x2")],
        4)
    spoil = fm.two_form_from_expressions(SU2, {(0, 1): su2_matrix_table("1", "0", "x3"),
                                               (2, 3): su2_matrix_table("x1", "0.5", "0")}, 4)
    return a, fm.add_two_forms(fm.symbolic_curvature(a), spoil, 0.3)


def _transcendental_pair():
    a = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.4*cos(x1)", "0", "0.1*x2*exp(x4)"),
              su2_matrix_table("0", "0.3*sin(x3)", "0"),
              su2_matrix_table("0.2*exp(x4)", "0.1*cos(x2)*sin(x1)", "0"),
              su2_matrix_table("0", "0", "0.15*x2^2")], 4)
    b = fm.two_form_from_expressions(
        SU2, {(0, 1): su2_matrix_table("0.5*sin(x3)*exp(x4)", "0.2", "cos(x1)"),
              (1, 3): su2_matrix_table("0", "0.3*x2*sin(x2)", "0.1"),
              (2, 3): su2_matrix_table("exp(x1)", "0", "0.2*x4")}, 4)
    return a, b


def _missing_planes_pair():
    # B on two of the six planes; the other four take zeros
    a, _ = _polynomial_pair()
    b = fm.two_form_from_expressions(
        SU2, {(0, 2): su2_matrix_table("0.3*x1*x4", "0", "0.1"),
              (1, 2): su2_matrix_table("0", "0.2*cos(x3)", "0")}, 4)
    return a, b


def _mixed_pair():
    # two callable components, which see the stacked points, next to two
    # expression components, which see the axes
    rng = np.random.default_rng(21)
    m0, m2 = (lc.random_algebra(SU2, rng).matrix for _ in range(2))
    exprs = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0", "0", "0"), su2_matrix_table("0.3*x4", "0.1*sin(x1)", "0"),
              su2_matrix_table("0", "0", "0"), su2_matrix_table("0", "0", "0.2*x2*x3")], 4)
    a = fm.OneFormField(SU2, [
        fm.CallableMatrixField(lambda x: np.sin(x[..., 1, None, None]) * m0, 2, 4),
        exprs.components[1],
        fm.CallableMatrixField(lambda x: (x[..., 0] * x[..., 3])[..., None, None] * m2, 2, 4),
        exprs.components[3]], 4)
    return a, _transcendental_pair()[1]


ASSEMBLY_PAIRS = {"polynomial": _polynomial_pair, "transcendental": _transcendental_pair,
                  "missing_planes": _missing_planes_pair, "mixed_callable": _mixed_pair}


class TestProductGridAssembly:
    """beta, the action, its sup norm and its decomposition on the grid's
    axes equal, bit for bit, their assembly at the n^4 stacked cell
    centers."""

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_centers_are_the_stacked_cell_centers(self, n):
        centers = bf.GridSpec(n).centers()
        axis = (np.arange(n) + 0.5) / n
        stacked = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, axis,
                                                          indexing="ij")], axis=-1)
        assert np.shape(centers) == centers.shape == stacked.shape == (n ** 4, 4)
        assert np.array_equal(centers.points, stacked)

    @pytest.mark.parametrize("n", [2, 5, 12])
    @pytest.mark.parametrize("case", sorted(ASSEMBLY_PAIRS))
    def test_equals_the_stacked_points(self, case, n):
        a, b = ASSEMBLY_PAIRS[case]()
        cm, grid, pairing = hg.make_eg(SU2), bf.GridSpec(n), bf.PairingSpec()
        f_ref, tb_ref = {}, {}
        for pl, f, tb in bf._plane_components(cm, a, b, grid.centers().points):
            f_ref[pl], tb_ref[pl] = f, tb
        beta_ref = {pl: f_ref[pl] - tb_ref[pl] for pl in f_ref}
        beta = bf._beta_components(cm, a, b, grid.centers())
        assert sorted(beta) == PLANES
        for pl in PLANES:
            assert beta[pl].shape == (n ** 4, 2, 2)
            assert np.array_equal(beta[pl], beta_ref[pl])
        vol = grid.cell_volume()
        s_ref = float(np.sum(0.5 * bf._wedge_pair_integrand(pairing, beta_ref, beta_ref)) * vol)
        assert bf.bf_action(cm, a, b, pairing, grid) == s_ref
        assert s_ref != 0.0
        assert bf.beta_sup_norm(cm, a, b, grid) == max(lc.max_frob(m) for m in beta_ref.values())
        dec = bf.action_decomposition(cm, a, b, pairing, grid)
        assert dec.yang_mills == 0.5 * float(
            np.sum(bf._wedge_pair_integrand(pairing, f_ref, f_ref)) * vol)
        assert dec.bf_term == -float(
            np.sum(bf._wedge_pair_integrand(pairing, tb_ref, f_ref)) * vol)
        assert dec.cosmological == 0.5 * float(
            np.sum(bf._wedge_pair_integrand(pairing, tb_ref, tb_ref)) * vol)


class TestWedgeIntegrand:
    @pytest.mark.parametrize("kind", ["neg_trace", "trace"])
    def test_square_pairs_three_shuffles(self, kind):
        rng = np.random.default_rng(4)
        pairing = bf.PairingSpec(kind)
        omega = {pl: np.stack([lc.random_algebra(SU2, rng).matrix for _ in range(50)])
                 for pl in PLANES}
        # an equal copy is not the same object, so it takes all six terms
        six = bf._wedge_pair_integrand(pairing, omega, dict(omega))
        three = bf._wedge_pair_integrand(pairing, omega, omega)
        assert np.max(np.abs(three - six)) <= 1e-15 * np.max(np.abs(six))
        ref = sum(sign * pairing.pair(omega[p], omega[q]) for p, q, sign in bf._SHUFFLES)
        assert np.max(np.abs(six - ref)) <= 1e-15 * np.max(np.abs(ref))
