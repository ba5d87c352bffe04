import math

import numpy as np
import pytest

from higher_holonomy import extraction as ex
from higher_holonomy import forms as fm
from higher_holonomy import geometry as geo
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy import transport as tp

from .conftest import SU2, U1, constant_group_map, one_form_from_callables, su2_matrix_table

EXTRACT_CFG = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=64, n_quad_t=64)


@pytest.fixture(scope="module")
def su2_form():
    return fm.one_form_from_expressions(
        SU2,
        [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
         su2_matrix_table("0.2", "0", "0.5*x2")],
        2,
    )


@pytest.fixture(scope="module")
def eg_pair(su2_form):
    return fm.eg_pair(su2_form)


class TestFdConfig:
    def test_step_range(self):
        with pytest.raises(ValueError):
            ex.FdConfig(step=0.5)
        with pytest.raises(ValueError):
            ex.FdConfig(step=0.0)


class TestExtractOneForm:
    def test_constant_functor_gives_zero(self):
        def const(_gamma):
            return lc.identity(SU2)

        out = ex.extract_one_form(const, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert lc.frob(out.matrix) == 0.0

    def test_zero_vector_gives_zero(self, su2_form):
        cfg = tp.IntegratorConfig(n_steps_path=32)
        out = ex.extract_one_form(
            lambda g: tp.path_transport(su2_form, g, cfg),
            np.array([0.5, 0.5]), np.zeros(2))
        assert lc.frob(out.matrix) <= 1e-12

    def test_round_trip_recovers_form(self, su2_form):
        cfg = tp.IntegratorConfig(n_steps_path=512)
        functor = lambda g: tp.path_transport(su2_form, g, cfg)
        rng = np.random.default_rng(0)
        for _ in range(4):
            x = rng.uniform(0.2, 0.8, 2)
            v = rng.standard_normal(2)
            got = ex.extract_one_form(functor, x, v)
            assert np.allclose(got.matrix, su2_form.matrices_at(x, v), atol=5e-5)

    def test_richardson_beats_plain_quotient(self, su2_form):
        cfg = tp.IntegratorConfig(n_steps_path=256)
        functor = lambda g: tp.path_transport(su2_form, g, cfg)
        x = np.array([0.4, 0.7])
        v = np.array([0.8, -0.5])
        truth = su2_form.matrices_at(x, v)
        plain = ex.extract_one_form(functor, x, v, ex.FdConfig(1e-2, richardson=False))
        rich = ex.extract_one_form(functor, x, v, ex.FdConfig(1e-2, richardson=True))
        assert lc.frob(rich.matrix - truth) < lc.frob(plain.matrix - truth) / 10


class TestExtractTwoForm:
    def test_trivial_functor_gives_zero(self):
        cm = hg.make_eg(SU2)

        def trivial(sigma):
            one = lc.identity(SU2)
            return hg.TwoMorphismValue(cm, one, one, one)

        out = ex.extract_two_form(trivial, np.zeros(2), np.eye(2)[0], np.eye(2)[1])
        assert lc.frob(out.matrix) == 0.0

    def test_plain_quotient_is_the_negated_stencil(self, eg_pair):
        functor = tp.TwoFunctor(eg_pair, EXTRACT_CFG)
        x, v1, v2 = np.array([0.5, 0.4]), np.array([1.0, 0.2]), np.array([-0.3, 1.0])
        h = 2e-3
        out = ex.extract_two_form(functor, x, v1, v2, ex.FdConfig(h, richardson=False))
        chart = geo.affine_chart(x, v1, v2)
        k = [functor.on_bigon(geo.standard_bigon(chart, a, b)).h_part.matrix
             for a, b in ((h, h), (h, -h), (-h, h), (-h, -h))]
        stencil = (k[0] - k[1] - k[2] + k[3]) / (4.0 * h * h)
        assert np.array_equal(out.matrix, -lc.project_to_algebra(SU2, stencil))

    def test_repeated_vector_vanishes(self, eg_pair):
        functor = tp.TwoFunctor(eg_pair, EXTRACT_CFG)
        v = np.array([0.7, 0.3])
        out = ex.extract_two_form(functor, np.array([0.5, 0.5]), v, v)
        assert lc.frob(out.matrix) <= 1e-6

    def test_round_trip_recovers_b(self, eg_pair):
        functor = tp.TwoFunctor(eg_pair, EXTRACT_CFG)
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.uniform(0.3, 0.7, 2)
            v1 = rng.standard_normal(2)
            v2 = rng.standard_normal(2)
            got = ex.extract_two_form(functor, x, v1, v2)
            want = eg_pair.B.matrices_at(x, v1, v2)
            assert lc.frob(got.matrix - want) <= 1e-4

    def test_bilinearity_and_antisymmetry(self, eg_pair):
        functor = tp.TwoFunctor(eg_pair, EXTRACT_CFG)
        x = np.array([0.5, 0.4])
        v1 = np.array([1.0, 0.2])
        v2 = np.array([-0.3, 1.0])
        b12 = ex.extract_two_form(functor, x, v1, v2).matrix
        b21 = ex.extract_two_form(functor, x, v2, v1).matrix
        assert lc.frob(b12 + b21) <= 1e-6
        b_scaled = ex.extract_two_form(functor, x, 2.0 * v1, v2).matrix
        assert lc.frob(b_scaled - 2.0 * b12) <= 1e-5

    def test_chart_independence_up_to_second_order(self, eg_pair):
        # extraction along a quadratically perturbed plane with the same
        # 1-jet agrees to O(step^2)
        functor = tp.TwoFunctor(eg_pair, EXTRACT_CFG)
        x = np.array([0.5, 0.5])
        v1, v2 = np.eye(2)
        straight = ex.extract_two_form(functor, x, v1, v2).matrix

        def chart_eval(a, b):
            lin = x + np.stack(np.broadcast_arrays(a, b), axis=-1)
            return lin + 0.5 * (a * b)[..., None] * np.array([1.0, -1.0])

        def d_a(a, b):
            return np.stack(np.broadcast_arrays(1.0 + 0.5 * b, -0.5 * b), axis=-1)

        def d_b(a, b):
            return np.stack(np.broadcast_arrays(0.5 * a, 1.0 - 0.5 * a), axis=-1)

        chart = geo.Bigon(chart_eval, 2, d_a, d_b)

        def curved_value(h):
            fd = ex.FdConfig(step=h, richardson=False)

            def h_value(a, b):
                return functor.on_bigon(geo.standard_bigon(chart, a, b))

            mat = (h_value(h, h).h_part.matrix - h_value(h, -h).h_part.matrix
                   - h_value(-h, h).h_part.matrix + h_value(-h, -h).h_part.matrix) / (4 * h * h)
            return -lc.project_to_algebra(SU2, mat)

        errs = [lc.frob(curved_value(h) - straight) for h in (2e-2, 1e-2)]
        assert errs[1] <= errs[0] / 3.0


def _transformation_data():
    """(A, B) with a morphism (g, phi) and the derived target (A', B')."""
    a = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
              su2_matrix_table("0.2", "0", "0.5*x2")], 2)
    cm = hg.make_eg(SU2)
    b = fm.symbolic_curvature(a)
    x0 = lc.AlgebraElement(SU2, 0.5j * np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -1.0]])
                           - 0.0j * np.eye(2))
    g_map = fm.exp_scalar_family(SU2, "0.6*x1 + 0.3*x2^2", x0, 2)
    phi = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.2*x2", "0", "0.1"),
              su2_matrix_table("0.15*x1", "0.1", "0")], 2)

    def a_prime_component(i):
        # A' = Ad_g A - g*theta - t_* phi on stacked points
        def comp(x, i=i):
            x = np.asarray(x, dtype=float)
            e = np.zeros(x.shape)
            e[..., i] = 1.0
            g = g_map.matrix(x)
            ad = g @ a.matrices_at(x, e) @ np.linalg.inv(g)
            mc = g_map.mc_pullback(x, e)
            return ad - mc - hg.t_star_matrix(cm, phi.matrices_at(x, e))
        return comp

    a_prime = fm.OneFormField(
        SU2, [fm.CallableMatrixField(a_prime_component(i), 2, 2) for i in range(2)], 2)

    def b_prime_component(x):
        e1, e2 = np.eye(2)
        g_el = g_map.element(x)
        acted = hg.alpha_g_star(cm, g_el, b(x, e1, e2)).matrix
        wedge = fm.alpha_wedge(cm, a_prime, phi, x, e1, e2).matrix
        dphi = fm.exterior_derivative_one_form(phi, x, e1, e2)
        p1 = phi.matrices_at(x, e1)
        p2 = phi.matrices_at(x, e2)
        return acted - wedge - dphi - (p1 @ p2 - p2 @ p1)

    b_prime = fm.TwoFormField(
        SU2, {(0, 1): fm.CallableMatrixField(b_prime_component, 2, 2, vectorized=False)}, 2)
    return cm, a, b, g_map, phi, a_prime, b_prime


@pytest.fixture(scope="module")
def transformation_data():
    return _transformation_data()


class TestResidualProps:
    def test_prop1_delegates_to_fake_curvature(self, eg_pair):
        # Proposition 1's residual is the sampled fake-curvature residual
        res = fm.fake_curvature_residual(eg_pair.cm, eg_pair.A, eg_pair.B, n_samples=32)
        assert res.max_residual <= 1e-10

    def test_prop2_trivial_data(self):
        cm = hg.make_eg(SU2)
        zero1 = fm.zero_one_form(SU2, 2)
        zero2 = fm.two_form_from_expressions(SU2, {}, 2)
        g_map = constant_group_map(lc.identity(SU2))
        res = ex.residual_prop2(cm, g_map, zero1, zero1, zero2, zero1, zero2,
                                [np.array([0.4, 0.6])])
        assert res.max_residual == 0.0

    def test_nan_forms_never_pass(self):
        # a NaN residual must not be dropped by the maximum
        cm = hg.make_eg(SU2)
        zero1 = fm.zero_one_form(SU2, 2)
        zero2 = fm.two_form_from_expressions(SU2, {}, 2)
        nan1 = one_form_from_callables(
            SU2, [lambda x: np.full(x.shape[:-1] + (2, 2), np.nan)] * 2, 2)
        one = constant_group_map(lc.identity(SU2))
        points = [np.array([0.4, 0.6]), np.array([0.2, 0.3])]
        r2 = ex.residual_prop2(cm, one, nan1, zero1, zero2, zero1, zero2, points)
        assert r2.connection_eq == r2.curving_eq == r2.max_residual == math.inf
        r3 = ex.residual_prop3(cm, one, one, zero1, one, nan1, zero1, points)
        assert r3.connection_eq == 0.0
        assert r3.curving_eq == r3.max_residual == math.inf

    def test_prop2_takes_every_point_at_once(self, transformation_data):
        # g is evaluated once, on the stack of all points, and the residuals
        # are the largest of the single-point ones
        cm, a, b, g_map, phi, a_prime, b_prime = transformation_data
        bad_phi = fm.add_one_forms(
            phi, fm.one_form_from_expressions(
                SU2, [su2_matrix_table("x1", "0", "0"), su2_matrix_table("0", "x2", "0")], 2),
            factor=0.1)
        points = np.array([[0.3, 0.4], [0.6, 0.55], [0.45, 0.7]])
        seen = []
        counted = fm.GroupValuedMap(
            SU2, lambda x: seen.append(x.shape) or g_map.matrix(x), g_map.mc_fn)
        whole = ex.residual_prop2(cm, counted, bad_phi, a, b, a_prime, b_prime, points)
        assert seen == [(3, 2)]
        single = [ex.residual_prop2(cm, g_map, bad_phi, a, b, a_prime, b_prime, [p])
                  for p in points]
        assert whole.connection_eq >= 0.05 and whole.curving_eq >= 0.01
        assert whole.connection_eq == pytest.approx(max(r.connection_eq for r in single),
                                                    rel=1e-12)
        assert whole.curving_eq == pytest.approx(max(r.curving_eq for r in single), rel=1e-12)

    def test_prop2_constructed_morphism(self, transformation_data):
        cm, a, b, g_map, phi, a_prime, b_prime = transformation_data
        points = [np.array([0.3, 0.4]), np.array([0.6, 0.55]), np.array([0.45, 0.7])]
        res = ex.residual_prop2(cm, g_map, phi, a, b, a_prime, b_prime, points)
        assert res.max_residual <= 1e-8

    def test_prop2_perturbed_phi_detected(self, transformation_data):
        cm, a, b, g_map, phi, a_prime, b_prime = transformation_data
        bad_phi = fm.add_one_forms(
            phi,
            fm.one_form_from_expressions(
                SU2, [su2_matrix_table("1", "0", "0"), su2_matrix_table("0", "0", "0")], 2),
            factor=0.1,
        )
        res = ex.residual_prop2(cm, g_map, bad_phi, a, b, a_prime, b_prime,
                                [np.array([0.5, 0.5])])
        assert res.max_residual >= 0.05

    def test_prop3_constructed_modification(self, transformation_data):
        cm, a, b, g_map, phi, a_prime, b_prime = transformation_data
        y0 = lc.AlgebraElement(SU2, 0.4j * np.array([[1.0, 0.5], [0.5, -1.0]]))
        a_map = fm.exp_scalar_family(SU2, "0.5*x2 + 0.2*x1", y0, 2)
        g2_map, phi2 = tp.derived_modification_target(cm, a_map, g_map, phi, a_prime)
        points = [np.array([0.35, 0.45]), np.array([0.7, 0.3])]
        res = ex.residual_prop3(cm, a_map, g_map, phi, g2_map, phi2, a_prime, points)
        assert res.max_residual <= 1e-8

    def test_prop3_perturbed_fails(self, transformation_data):
        cm, a, b, g_map, phi, a_prime, b_prime = transformation_data
        y0 = lc.AlgebraElement(SU2, 0.4j * np.array([[1.0, 0.5], [0.5, -1.0]]))
        a_map = fm.exp_scalar_family(SU2, "0.5*x2 + 0.2*x1", y0, 2)
        g2_map, phi2 = tp.derived_modification_target(cm, a_map, g_map, phi, a_prime)
        bad_phi2 = fm.add_one_forms(
            ex.one_form_from_evaluator(SU2, lambda x, v: phi2(x, v), 2),
            fm.one_form_from_expressions(
                SU2, [su2_matrix_table("1", "0", "0"), su2_matrix_table("0", "0", "0")], 2),
            factor=0.1,
        )
        res = ex.residual_prop3(cm, a_map, g_map, phi, g2_map, bad_phi2, a_prime,
                                [np.array([0.5, 0.5])])
        assert res.max_residual >= 0.05


class TestExtractTransformation:
    def test_identity_transformation(self):
        g_map = constant_group_map(lc.identity(SU2))

        def rho_h(_gamma):
            return lc.identity(SU2)

        ext = ex.extract_transformation(g_map, rho_h, SU2, 2)
        val = ext.phi(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert lc.frob(val.matrix) == 0.0

    def test_round_trip_recovers_phi(self, transformation_data):
        cm, a, b, g_map, phi, a_prime, b_prime = transformation_data
        cfg = tp.IntegratorConfig(n_steps_path=256)

        def rho_h(gamma):
            h = tp.transformation_transport(cm, g_map, phi, a_prime, gamma, cfg).h
            return lc.ginv(h)

        ext = ex.extract_transformation(g_map, rho_h, SU2, 2)
        x = np.array([0.45, 0.55])
        for v in (np.array([1.0, 0.0]), np.array([0.3, -0.8])):
            got = ext.phi(x, v)
            assert lc.frob(got.matrix - phi.matrices_at(x, v)) <= 5e-5

    def test_abelian_phase_derivative(self):
        # BU(1) with constant phi = i(0.7 dx1 + 0.2 dx2): the transformation
        # component on a path is the inverse of exp(-integral of phi), so
        # extraction recovers phi as minus the derivative of that phase
        cmb = hg.make_b_abelian(U1)

        def rho_h(gamma):
            d = gamma.end() - gamma.start()
            return lc.GroupElement(U1, [[np.exp(1j * (0.7 * d[0] + 0.2 * d[1]))]])

        g_map = constant_group_map(lc.identity(cmb.G))
        ext = ex.extract_transformation(g_map, rho_h, U1, 2)
        val = ext.phi(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert abs(val.matrix[0, 0] - 0.7j) <= 1e-8


class TestTransportOfExtraction:
    def test_polynomial_refit_reproduces_k(self):
        # rebuild an abelian pair by extraction on a coarse grid, refit the
        # single B entry to a quadratic polynomial, and re-run transport
        cmb = hg.make_b_abelian(U1)
        b = fm.two_form_from_expressions(
            U1, {(0, 1): [["i*(0.8 + 0.5*x1 - 0.3*x2^2 + 0.2*x1*x2)"]]}, 2)
        pair = fm.ConnectionPair(cmb, fm.zero_one_form(cmb.G, 2), b)
        cfg = tp.IntegratorConfig(n_steps_path=32, n_steps_surface_s=48, n_quad_t=48)
        functor = tp.TwoFunctor(pair, cfg)

        grid = [np.array([u, v]) for u in (0.25, 0.5, 0.75) for v in (0.25, 0.5, 0.75)]
        e1, e2 = np.eye(2)
        samples = np.array([
            ex.extract_two_form(functor, x, e1, e2).matrix[0, 0].imag for x in grid
        ])
        design = np.array([
            [1.0, x[0], x[1], x[0] ** 2, x[0] * x[1], x[1] ** 2] for x in grid
        ])
        coef = [float(c) for c in np.linalg.lstsq(design, samples, rcond=None)[0]]
        expr = (f"i*({coef[0]!r} + {coef[1]!r}*x1 + {coef[2]!r}*x2 + "
                f"{coef[3]!r}*x1^2 + {coef[4]!r}*x1*x2 + {coef[5]!r}*x2^2)")
        refit = fm.two_form_from_expressions(U1, {(0, 1): [[expr]]}, 2)
        pair2 = fm.ConnectionPair(cmb, fm.zero_one_form(cmb.G, 2), refit)
        functor2 = tp.TwoFunctor(pair2, cfg)

        rng = np.random.default_rng(12)
        for _ in range(8):
            lo = rng.uniform(0.0, 0.4, 2)
            hi = lo + rng.uniform(0.3, 0.6, 2)
            chart = geo.affine_chart(lo, np.array([hi[0] - lo[0], 0.0]),
                                     np.array([0.0, hi[1] - lo[1]]))
            sigma = geo.standard_bigon(chart, 1.0, 1.0)
            k1 = tp.surface_transport(pair, sigma, cfg).h_part.matrix
            k2 = tp.surface_transport(pair2, sigma, cfg).h_part.matrix
            assert lc.frob(k1 - k2) <= 1e-3


def _grad(x, dfs):
    """Stack the gradient components `dfs` (functions of x1, x2) at x."""
    return np.stack([np.broadcast_to(df(x[..., 0], x[..., 1]), x.shape[:-1]) for df in dfs],
                    axis=-1)


class TestCompositeMaps:
    """The composite maps of `compose_z2_morphisms` and
    `derived_modification_target` against the cocycle formulas
    mc(g2 g1) = mc(g2) + Ad_{g2} mc(g1) and
    mc(t(a) g) = t_*(mc(a)) + Ad_{t(a)} mc(g), for exp families whose
    pullbacks are (grad f . v) X."""

    X1 = lc.AlgebraElement(SU2, 0.5j * np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -1.0]]))
    X2 = lc.AlgebraElement(SU2, 0.4j * np.array([[0.5, 1.0], [1.0, -0.5]]))
    Y = lc.AlgebraElement(SU2, 0.3j * np.array([[1.0, -0.4j], [0.4j, -1.0]]))
    DF1 = (lambda x1, x2: 0.6, lambda x1, x2: 0.6 * x2)
    DF2 = (lambda x1, x2: 0.4 * x2, lambda x1, x2: 0.4 * x1 - 0.2)
    DFA = (lambda x1, x2: x1, lambda x1, x2: 0.3)

    @pytest.fixture(scope="class")
    def data(self):
        g1 = fm.exp_scalar_family(SU2, "0.6*x1 + 0.3*x2^2", self.X1, 2)
        g2 = fm.exp_scalar_family(SU2, "0.4*x1*x2 - 0.2*x2", self.X2, 2)
        a = fm.exp_scalar_family(SU2, "0.5*x1^2 + 0.3*x2", self.Y, 2)
        phi = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.2*x2", "0", "0.1"),
                  su2_matrix_table("0.15*x1", "0.1", "0")], 2)
        return g1, g2, a, phi

    @staticmethod
    def _vectors(rng):
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0]), rng.standard_normal((20, 2))]

    @staticmethod
    def _mc(dfs, x, v, X):
        return np.sum(_grad(x, dfs) * v, axis=-1)[..., None, None] * X.matrix

    def test_composite_pullback_is_exact(self, data):
        g1, g2, _, phi = data
        cm = hg.make_eg(SU2)
        g, _ = ex.compose_z2_morphisms((g1, phi), (g2, phi), cm)
        rng = np.random.default_rng(31)
        x = rng.uniform(0.0, 1.0, (20, 2))
        m2 = g2.matrix(x)
        for v in self._vectors(rng):
            expected = (self._mc(self.DF2, x, v, self.X2)
                        + m2 @ self._mc(self.DF1, x, v, self.X1) @ np.linalg.inv(m2))
            assert np.max(np.abs(g.mc_pullback(x, v) - expected)) <= 1e-14

    def test_derived_target_pullback_is_exact(self, data):
        g1, _, a, phi = data
        cm = hg.make_eg(SU2)
        g, _ = tp.derived_modification_target(cm, a, g1, phi, phi)
        rng = np.random.default_rng(32)
        x = rng.uniform(0.0, 1.0, (20, 2))
        ta = a.matrix(x)  # t is the identity on the inner 2-group
        for v in self._vectors(rng):
            expected = (self._mc(self.DFA, x, v, self.Y)
                        + ta @ self._mc(self.DF1, x, v, self.X1) @ np.linalg.inv(ta))
            assert np.max(np.abs(g.mc_pullback(x, v) - expected)) <= 1e-14

    def test_composite_fields_on_a_stack_match_a_per_point_loop(self, data):
        g1, g2, a, phi = data
        cm = hg.make_eg(SU2)
        _, phi_c = ex.compose_z2_morphisms((g1, phi), (g2, phi), cm)
        _, phi_d = tp.derived_modification_target(cm, a, g1, phi, phi)
        rng = np.random.default_rng(33)
        x = rng.uniform(0.0, 1.0, (3, 4, 2))
        v = rng.standard_normal((3, 4, 2))
        for field in (phi_c, phi_d):
            stacked = field.matrices_at(x, v)
            loop = [field.matrices_at(p, w) for p, w in zip(x.reshape(-1, 2), v.reshape(-1, 2))]
            assert stacked.shape == (3, 4, 2, 2)
            assert np.max(np.abs(stacked - np.reshape(loop, stacked.shape))) <= 1e-15


class TestComposeZ2:
    def test_identity_neutral(self):
        cm = hg.make_eg(SU2)
        ident = (constant_group_map(lc.identity(SU2)), fm.zero_one_form(SU2, 2))
        phi = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.3", "0", "0"), su2_matrix_table("0", "0.2", "0")], 2)
        g_map = fm.exp_scalar_family(
            SU2, "x1", lc.AlgebraElement(SU2, 0.3j * np.diag([1.0, -1.0])), 2)
        g_out, phi_out = ex.compose_z2_morphisms((g_map, phi), ident, cm)
        x = np.array([0.4, 0.2])
        assert np.allclose(g_out.matrix(x), g_map.matrix(x))
        v = np.array([1.0, 0.5])
        assert np.allclose(phi_out(x, v).matrix, phi.matrices_at(x, v))

    def test_b_abelian_phis_add(self):
        cmb = hg.make_b_abelian(U1)
        phi1 = fm.one_form_from_expressions(U1, [[["i*x1"]], [["0"]]], 2)
        phi2 = fm.one_form_from_expressions(U1, [[["i*0.5"]], [["i*x2"]]], 2)
        gm = constant_group_map(lc.identity(cmb.G))
        _, phi_out = ex.compose_z2_morphisms((gm, phi1), (gm, phi2), cmb)
        x = np.array([0.3, 0.9])
        v = np.array([1.0, 1.0])
        expected = phi1.matrices_at(x, v) + phi2.matrices_at(x, v)
        assert np.allclose(phi_out(x, v).matrix, expected)

    def test_associativity_on_eg_triple(self):
        cm = hg.make_eg(SU2)
        rng = np.random.default_rng(5)

        def rand_morphism(seed):
            x0 = lc.random_algebra(SU2, np.random.default_rng(seed), 0.6)
            g = fm.exp_scalar_family(SU2, f"{0.3 + 0.1 * seed}*x1 + 0.2*x2", x0, 2)
            phi = fm.one_form_from_expressions(
                SU2, [su2_matrix_table(f"0.{seed + 1}*x2", "0.1", "0"),
                      su2_matrix_table("0.1*x1", "0", "0.2")], 2)
            return (g, phi)

        m1, m2, m3 = rand_morphism(1), rand_morphism(2), rand_morphism(3)
        left = ex.compose_z2_morphisms(ex.compose_z2_morphisms(m1, m2, cm), m3, cm)
        right = ex.compose_z2_morphisms(m1, ex.compose_z2_morphisms(m2, m3, cm), cm)
        x = np.array([0.4, 0.6])
        v = np.array([0.7, -0.2])
        assert lc.frob(left[0].matrix(x) - right[0].matrix(x)) <= 1e-9
        assert lc.frob(left[1](x, v).matrix - right[1](x, v).matrix) <= 1e-9
