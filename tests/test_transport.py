from dataclasses import replace

import numpy as np
import pytest

from higher_holonomy import forms as fm
from higher_holonomy import geometry as geo
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy import transport as tp
from higher_holonomy.errors import MembershipError, NumericalError, TargetMatchingError

from .conftest import SU2, U1, parabola_paths, su2_matrix_table
from .oracles import (
    DenseOneForm,
    line_integral,
    ordered_product_transport,
    stagewise_rk4,
    surface_k_product_oracle,
    three_transport_whisker,
    transformation_rk4,
)

# an identity bump at the centre of the unit square; it is below 1e-15 on
# the box [0, 1] x [0, 0.2], so a pair sampled there cannot see it
_CENTRE_BUMP = "0.5*exp(-((x1 - 0.5)^2 + (x2 - 0.5)^2)/0.05^2)"
_LOW_BOX = [(0, 1), (0, 0.2)]


def _bumped_a():
    """An su(2)-valued 1-form plus the centre bump times 1 in dx1."""
    first = su2_matrix_table("0.4*x2", "0.3*x1", "0")
    first = [[f"{first[0][0]} + {_CENTRE_BUMP}", first[0][1]],
             [first[1][0], f"{first[1][1]} + {_CENTRE_BUMP}"]]
    return fm.one_form_from_expressions(
        SU2, [first, su2_matrix_table("0.2", "0", "0.5*x2")], 2)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tp.IntegratorConfig(n_steps_path=4)
        with pytest.raises(ValueError):
            tp.IntegratorConfig(n_quad_t=7)

    def test_refined(self):
        cfg = tp.IntegratorConfig(16, 8, 8).refined()
        assert (cfg.n_steps_path, cfg.n_steps_surface_s, cfg.n_quad_t) == (32, 16, 16)


class TestPathTransport:
    def test_zero_form_gives_identity(self):
        a = fm.zero_one_form(SU2, 2)
        g = tp.path_transport(a, geo.line_path([0.0, 0.0], [1.0, 1.0]))
        assert np.allclose(g.matrix, np.eye(2))

    def test_constant_pullback_closed_form(self):
        # constant a := A(gamma') along a straight line -> exp(-a)
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.3", "0.2", "0.1"), su2_matrix_table("0", "0", "0")], 2)
        gamma = geo.line_path([0.0, 0.0], [1.0, 0.0])
        got = tp.path_transport(a, gamma, tp.IntegratorConfig(n_steps_path=128))
        amat = a.matrices_at(np.zeros(2), np.array([1.0, 0.0]))
        w, v = np.linalg.eig(-amat)
        oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        assert lc.frob(got.matrix - oracle) < 1e-10

    def test_abelian_line_integral(self):
        a = fm.one_form_from_expressions(U1, [[["i*(1 + x2^2)"]], [["i*x1"]]], 2)
        gamma = geo.path_from_expressions(["t", "t^2"])
        got = tp.path_transport(a, gamma, tp.IntegratorConfig(n_steps_path=512))

        def integrand(t):
            return a.matrices_at(gamma.point(t), gamma.velocity(t))[0, 0]

        oracle = np.exp(-line_integral(integrand, 200))
        assert abs(got.matrix[0, 0] - oracle) < 1e-9

    def test_functoriality(self):
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
                  su2_matrix_table("0.2", "0", "0.5*x2")], 2)
        cfg = tp.IntegratorConfig(n_steps_path=256)
        g1 = geo.line_path([0.0, 0.0], [1.0, 0.0])
        g2 = geo.line_path([1.0, 0.0], [1.0, 1.0])
        whole = tp.path_transport(a, geo.path_compose(g1, g2), cfg)
        split = tp.path_transport(a, g2, cfg).matrix @ tp.path_transport(a, g1, cfg).matrix
        assert lc.frob(whole.matrix - split) / lc.frob(split) <= 1e-8
        ident = tp.path_transport(a, geo.constant_path([0.3, 0.3]), cfg)
        assert lc.frob(ident.matrix - np.eye(2)) <= 1e-12
        fwd = tp.path_transport(a, g1, cfg)
        bwd = tp.path_transport(a, geo.path_reverse(g1), cfg)
        assert lc.frob(bwd.matrix - np.linalg.inv(fwd.matrix)) <= 1e-8

    def test_reparameterization_invariance(self):
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
                  su2_matrix_table("0.2", "0", "0.5*x2")], 2)
        cfg = tp.IntegratorConfig(n_steps_path=256)
        gamma = geo.path_from_expressions(["t", "t*(1-t)"])
        beta = geo.SmoothingProfile(0.15)
        direct = tp.path_transport(a, gamma, cfg)
        rep = tp.path_transport(a, geo.reparameterize(gamma, beta), cfg)
        assert lc.frob(direct.matrix - rep.matrix) <= 1e-7

    def test_a_leaving_its_algebra_along_the_path_raises(self):
        gamma = geo.line_path([0.0, 0.5], [1.0, 0.5])
        with pytest.raises(MembershipError, match="^A along the path leaves"):
            tp.path_transport(_bumped_a(), gamma, tp.IntegratorConfig(n_steps_path=64))

    def test_matches_ordered_product_oracle(self):
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
                  su2_matrix_table("0.2", "0", "0.5*x2")], 2)
        gamma = geo.path_from_expressions(["t", "0.5*t"])
        got = tp.path_transport(a, gamma, tp.IntegratorConfig(n_steps_path=256))
        oracle = ordered_product_transport(
            lambda t: a.matrices_at(gamma.point(t), gamma.velocity(t)), 4000)
        assert lc.frob(got.matrix - oracle) < 1e-6


class TestSurfaceDriver:
    def test_zero_two_form(self, eg_su2_pair, fast_cfg):
        cm = hg.make_eg(SU2)
        pair_zero_b = fm.ConnectionPair(
            cm, fm.zero_one_form(SU2, 2), fm.two_form_from_expressions(SU2, {}, 2))
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        d = tp.surface_driver(pair_zero_b, sig, 0.4, fast_cfg)
        assert lc.frob(d.matrix) == 0.0

    def test_abelian_plain_quadrature(self, bu1_pair, tight_cfg):
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        s0 = 0.37
        got = tp.surface_driver(bu1_pair, sig, s0, tight_cfg).matrix[0, 0]

        def integrand(t):
            x = sig.point(s0, t)
            return bu1_pair.B.matrices_at(x, sig.ds(s0, t), sig.dt(s0, t))[0, 0]

        oracle = -line_integral(integrand, 400)
        assert abs(got - oracle) < 1e-5

    def test_degenerate_bigon_vanishes(self, eg_su2_pair, fast_cfg):
        sig = geo.identity_bigon(geo.path_from_expressions(["t", "t^2"]))
        d = tp.surface_driver(eg_su2_pair, sig, 0.6, fast_cfg)
        assert lc.frob(d.matrix) <= 1e-14


class TestSurfaceTransport:
    def test_zero_pair(self, fast_cfg):
        cm = hg.make_eg(SU2)
        pair = fm.ConnectionPair(
            cm, fm.zero_one_form(SU2, 2), fm.two_form_from_expressions(SU2, {}, 2))
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        res = tp.surface_transport(pair, sig, fast_cfg)
        assert lc.frob(res.h_part.matrix - np.eye(2)) <= 1e-12
        assert res.matching_residual() <= 1e-12

    def test_abelian_square_phase_sign(self, bu1_pair, tight_cfg):
        from .conftest import ABELIAN_SURFACE_PHASE_SIGN
        from .oracles import square_integral

        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        res = tp.surface_transport(bu1_pair, sig, tight_cfg)
        k = res.h_part.matrix[0, 0]
        assert abs(abs(k) - 1.0) <= 1e-12
        # the bigon sweeps the unit square once, so the surface integral of
        # B equals its coordinate integral; beta = 1 + x1 + x2^2 gives 11/6
        surf = square_integral(
            lambda x1, x2: bu1_pair.B.component_matrix(
                0, 1, np.array([x1, x2]))[0, 0].imag, 40)
        assert surf == pytest.approx(11.0 / 6.0, rel=1e-12)
        oracle = np.exp(1j * ABELIAN_SURFACE_PHASE_SIGN * surf)
        assert abs(k - oracle) < 1e-6

    def test_abelian_product_integration_oracle(self, bu1_pair, tight_cfg):
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        res = tp.surface_transport(bu1_pair, sig, tight_cfg)
        oracle = surface_k_product_oracle(
            "b_abelian",
            lambda x, v: bu1_pair.A.matrices_at(x, v),
            lambda x, v1, v2: bu1_pair.B.matrices_at(x, v1, v2),
            sig, 180, 180,
        )
        assert abs(res.h_part.matrix[0, 0] - oracle[0, 0]) < 2e-4

    def test_eg_product_integration_oracle(self, eg_su2_pair, mid_cfg):
        sig = geo.standard_bigon(geo.affine_chart(
            np.array([0.1, 0.1]), np.array([0.6, 0.0]), np.array([0.0, 0.6])), 1.0, 1.0)
        res = tp.surface_transport(eg_su2_pair, sig, mid_cfg)
        oracle = surface_k_product_oracle(
            "eg",
            lambda x, v: eg_su2_pair.A.matrices_at(x, v),
            lambda x, v1, v2: eg_su2_pair.B.matrices_at(x, v1, v2),
            sig, 160, 160,
        )
        assert lc.frob(res.h_part.matrix - oracle) < 5e-4

    def test_eg_target_matching(self, eg_su2_pair, tight_cfg):
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        res = tp.surface_transport(eg_su2_pair, sig, tight_cfg)
        filler = res.target.matrix @ np.linalg.inv(res.source.matrix)
        assert lc.frob(eg_su2_pair.cm.t(res.h_part.matrix) - filler) <= 1e-6
        assert res.matching_residual() <= 1e-6

    @pytest.mark.parametrize("form", ["A", "B"])
    def test_form_leaving_its_algebra_inside_the_bigon_raises(self, form, fast_cfg):
        # the inner sweep integrates A over the bigon and the outer sweep
        # the driver built from B; neither bump reaches the boundary paths
        if form == "A":
            pair = fm.eg_pair(_bumped_a(), box=_LOW_BOX)
        else:
            ident = [[_CENTRE_BUMP, "0"], ["0", _CENTRE_BUMP]]
            pair = fm.ConnectionPair(hg.make_eg(SU2), fm.zero_one_form(SU2, 2),
                                     fm.two_form_from_expressions(SU2, {(0, 1): ident}, 2),
                                     box=_LOW_BOX)
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        with pytest.raises(MembershipError, match=f"^{form} over the bigon leaves"):
            tp.surface_transport(pair, sig, fast_cfg)

    def test_hard_limit_raises_on_coarse_grid(self, eg_su2_pair):
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        coarse = tp.IntegratorConfig(n_steps_path=8, n_steps_surface_s=4, n_quad_t=4)
        with pytest.raises(TargetMatchingError):
            tp.surface_transport(eg_su2_pair, sig, coarse)


class TestTwoFunctorLaws:
    def test_identity_bigon_is_identity(self, eg_su2_pair, mid_cfg):
        gamma = geo.path_from_expressions(["t", "0.3*t*(1-t)"])
        f = tp.TwoFunctor(eg_su2_pair, mid_cfg)
        tv = f.on_bigon(geo.identity_bigon(gamma))
        assert lc.frob(tv.h_part.matrix - np.eye(2)) <= 1e-8

    def test_vertical_law(self, eg_su2_pair, mid_cfg):
        p0, p1, p2 = parabola_paths([0.0, 0.4, 0.8])
        f = tp.TwoFunctor(eg_su2_pair, mid_cfg)
        k1 = f.on_bigon(geo.bigon_between(p0, p1))
        k2 = f.on_bigon(geo.bigon_between(p1, p2))
        whole = f.on_bigon(geo.bigon_vcompose(
            geo.bigon_between(p0, p1), geo.bigon_between(p1, p2)))
        composed = hg.vcompose(k2, k1)
        assert lc.frob(whole.h_part.matrix - composed.h_part.matrix) <= 1e-6

    def test_horizontal_law(self, eg_su2_pair, mid_cfg):
        p0, p1 = parabola_paths([0.0, 0.5])
        q0, q1 = parabola_paths([0.0, 0.3], x_offset=1.0)
        f = tp.TwoFunctor(eg_su2_pair, mid_cfg)
        k1 = f.on_bigon(geo.bigon_between(p0, p1))
        k2 = f.on_bigon(geo.bigon_between(q0, q1))
        whole = f.on_bigon(geo.bigon_hcompose(
            geo.bigon_between(p0, p1), geo.bigon_between(q0, q1)))
        composed = hg.hcompose(k1, k2)
        assert lc.frob(whole.h_part.matrix - composed.h_part.matrix) <= 1e-6
        assert lc.frob(whole.source.matrix - composed.source.matrix) <= 1e-6


    def test_on_bigon_is_surface_transport_checked_once(self, eg_su2_pair, fast_cfg):
        calls = []

        def counting_t(h):
            calls.append(1)
            return eg_su2_pair.cm.t(h)

        cm = replace(eg_su2_pair.cm, t=counting_t)
        pair = fm.ConnectionPair(cm, eg_su2_pair.A, eg_su2_pair.B)
        sig = geo.bigon_between(*parabola_paths([0.0, 0.5]))
        tv = tp.TwoFunctor(pair, fast_cfg).on_bigon(sig)
        assert len(calls) == 1
        direct = tp.surface_transport(pair, sig, fast_cfg)
        assert type(direct) is hg.TwoMorphismValue
        for field in ("source", "h_part", "target"):
            assert np.array_equal(getattr(direct, field).matrix, getattr(tv, field).matrix)


class TestThinHomotopyInvariance:
    def test_bigon_reparameterizations(self, eg_su2_pair, tight_cfg):
        p0, p1 = parabola_paths([0.0, 0.6])
        sig = geo.bigon_between(p0, p1)
        f = tp.TwoFunctor(eg_su2_pair, tight_cfg)
        base = f.on_bigon(sig).h_part.matrix
        reparams = [
            (geo.SmoothingProfile(0.2), None),
            (None, geo.SmoothingProfile(0.25)),
            (geo.SmoothingProfile(0.3), geo.SmoothingProfile(0.12)),
        ]
        for bs, bt in reparams:
            other = f.on_bigon(sig.reparameterized(bs, bt)).h_part.matrix
            assert lc.frob(other - base) <= 1e-6

    def test_profile_swap(self, eg_su2_pair, tight_cfg):
        p0, p1 = parabola_paths([0.0, 0.6])
        f = tp.TwoFunctor(eg_su2_pair, tight_cfg)
        k_a = f.on_bigon(geo.bigon_between(p0, p1, geo.SmoothingProfile(0.1)))
        k_b = f.on_bigon(geo.bigon_between(p0, p1, geo.SmoothingProfile(0.2)))
        assert lc.frob(k_a.h_part.matrix - k_b.h_part.matrix) <= 1e-6

    def test_self_convergence_second_order(self, eg_su2_pair):
        p0, p1 = parabola_paths([0.0, 0.6])
        sig = geo.bigon_between(p0, p1)
        cfgs = [tp.IntegratorConfig(64 * f, 32 * f, 32 * f) for f in (1, 2, 4)]
        ks = [tp.surface_transport(eg_su2_pair, sig, c).h_part.matrix for c in cfgs]
        d1 = lc.frob(ks[0] - ks[1])
        d2 = lc.frob(ks[1] - ks[2])
        assert d2 <= d1 / 4.0  # at least second order under doubling


class TestDerivativeTwoFunctor:
    def test_zero_form_identity_filler(self, mid_cfg):
        a = fm.zero_one_form(SU2, 2)
        df = tp.DerivativeTwoFunctor(a, mid_cfg)
        p0, p1 = parabola_paths([0.0, 0.5])
        tv = df.on_bigon(geo.bigon_between(p0, p1))
        assert np.allclose(tv.h_part.matrix, np.eye(2))

    def test_contraction_bigon_gives_holonomy(self, su2_one_form, mid_cfg):
        circle = geo.loop_from_expressions(
            ["0.5 + 0.3*cos(2*pi*z)", "0.5 + 0.3*sin(2*pi*z)"])
        gamma = geo.loop_to_path(circle)
        sig = geo.contraction_bigon(gamma)
        df = tp.DerivativeTwoFunctor(su2_one_form, mid_cfg)
        tv = df.on_bigon(sig)
        hol = tp.path_transport(su2_one_form, gamma, mid_cfg)
        assert lc.frob(tv.h_part.matrix - hol.matrix) <= 1e-9

    def test_agrees_with_surface_transport_of_curvature_pair(
            self, su2_one_form, eg_su2_pair, mid_cfg):
        p0, p1 = parabola_paths([0.0, 0.7])
        sig = geo.bigon_between(p0, p1)
        df = tp.DerivativeTwoFunctor(su2_one_form, mid_cfg)
        direct = df.on_bigon(sig).h_part.matrix
        via_surface = tp.surface_transport(eg_su2_pair, sig, mid_cfg).h_part.matrix
        assert lc.frob(direct - via_surface) <= 1e-6


@pytest.fixture(scope="module")
def loop_and_contraction():
    circle = geo.loop_from_expressions(
        ["0.5 + 0.35*cos(2*pi*z)", "0.5 + 0.35*sin(2*pi*z)"])
    gamma = geo.loop_to_path(circle)
    return gamma, geo.contraction_bigon(gamma)


class TestStokes:
    def test_zero_form(self, loop_and_contraction, fast_cfg):
        _, sig = loop_and_contraction
        rep = tp.stokes_check(fm.zero_one_form(SU2, 2), sig, fast_cfg)
        assert lc.frob(rep.lhs.matrix - np.eye(2)) <= 1e-12
        assert lc.frob(rep.rhs.matrix - np.eye(2)) <= 1e-12

    def test_su2_error_and_convergence(self, loop_and_contraction):
        _, sig = loop_and_contraction
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.5*x2", "0.3*x1*x2", "0"),
                  su2_matrix_table("0.25*x1", "0", "0.4*x1")], 2)
        errs = []
        for f in (1, 2, 4):
            cfg = tp.IntegratorConfig(64 * f, 32 * f, 32 * f)
            errs.append(tp.stokes_check(a, sig, cfg).error)
        assert errs[0] <= 1e-5
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0

    def test_coarse_integration_reports_instead_of_raising(self, loop_and_contraction):
        _, sig = loop_and_contraction
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.5*x2", "0.3*x1*x2", "0"),
                  su2_matrix_table("0.25*x1", "0", "0.4*x1")], 2)
        rep = tp.stokes_check(a, sig, tp.IntegratorConfig(8, 1, 2))
        assert np.isfinite(rep.error)

    def test_pole_outside_the_bigon(self):
        # A is singular on x1 = 0.5, which the bigon (x1 in [0.1, 0.4]) avoids;
        # evaluating A there would raise under this errstate
        circle = geo.loop_from_expressions(
            ["0.25 + 0.15*cos(2*pi*z)", "0.5 + 0.15*sin(2*pi*z)"])
        sig = geo.contraction_bigon(geo.loop_to_path(circle))
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.5*x2", "0", "0.1/(x1 - 0.5)"),
                  su2_matrix_table("0.25*x1", "0.2*x2", "0")], 2)
        with np.errstate(divide="raise", invalid="raise"):
            rep = tp.stokes_check(a, sig, tp.IntegratorConfig(64, 32, 32))
        assert rep.error <= 1e-6

    def test_abelian_matches_surface_integral(self, loop_and_contraction):
        from .oracles import leggauss_nodes

        gamma, sig = loop_and_contraction
        a = fm.one_form_from_expressions(
            U1, [[["i*(0.3*x2 + 0.2*x2^2)"]], [["i*0.15*x1^2"]]], 2)
        rep = tp.stokes_check(a, sig, tp.IntegratorConfig(512, 128, 128))
        # quadrature over the unprofiled radial sweep of the raw circle
        circle = geo.loop_from_expressions(
            ["0.5 + 0.35*cos(2*pi*z)", "0.5 + 0.35*sin(2*pi*z)"])
        x0 = gamma.point(0.0)
        nodes, weights = leggauss_nodes(80)
        total = 0.0 + 0.0j
        for wi, w_ in zip(nodes, weights):
            base = circle.point(nodes)
            vel = circle.velocity(nodes)
            xs = x0 + wi * (base - x0)
            k = fm.curvature_matrices_at(
                a, xs, np.broadcast_to(base - x0, xs.shape), wi * vel)[..., 0, 0]
            total += w_ * np.dot(weights, k)
        oracle = np.exp(-total)
        assert abs(rep.lhs.matrix[0, 0] - oracle) <= 1e-7
        assert abs(rep.rhs.matrix[0, 0] - oracle) <= 1e-7


@pytest.fixture(scope="module")
def morphism_data():
    from .test_extraction import _transformation_data

    return _transformation_data()


def _transformation_forms(kind):
    """(crossed module, phi, A', action derivative) for the stage-wise
    transformation oracle; the action derivative is the closed form of
    g -> alpha(g, h) at g = 1, [x, h] for conjugation and 0 when trivial."""
    if kind == "b_u1":
        cm = hg.make_b_abelian(U1)
        phi = fm.one_form_from_expressions(U1, [[["i*(1 + x2)"]], [["i*x1^2"]]], 2)
        a_prime = fm.one_form_from_expressions(cm.G, [[["0.3*x1"]], [["0.5"]]], 2)
        return cm, phi, a_prime, lambda x, h: np.zeros_like(h)
    cm = hg.make_eg(SU2) if kind == "eg" else hg.make_aut_inner(SU2)
    phi = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.5*x2", "0.3", "0.2*x1"),
              su2_matrix_table("0.4", "0.6*x1", "0")], 2)
    a_prime = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.7", "0.2*x2", "0.5"),
              su2_matrix_table("0.3*x1", "0", "0.8")], 2)
    return cm, phi, a_prime, lambda x, h: x @ h - h @ x


class TestTransformationTransport:
    @pytest.mark.parametrize("kind", ["eg", "aut_inner", "b_u1"])
    def test_matches_stagewise_oracle(self, kind):
        # two 4th-order schemes for one ODE: their gap shrinks by about 16
        # per step doubling (on b_u1 the action is trivial, both are the
        # same scheme and the gap is rounding), and so does the self-gap
        cm, phi, a_prime, act = _transformation_forms(kind)
        g_map = fm.constant_group_map(lc.identity(cm.G), 2)
        gamma = geo.path_from_expressions(["t", "0.5*t + t^2"])
        hs, gaps = [], []
        for n in (32, 64, 128):
            h = tp.transformation_transport(cm, g_map, phi, a_prime, gamma,
                                            tp.IntegratorConfig(n_steps_path=n)).h.matrix
            tt = np.linspace(0.0, 1.0, 2 * n + 1)
            x, v = gamma.point(tt), gamma.velocity(tt)
            want = transformation_rk4(phi.matrices_at(x, v), a_prime.matrices_at(x, v),
                                      act, n, lambda u: lc.retract(cm.H, u))
            hs.append(h)
            gaps.append(lc.frob(h - want))
        assert gaps[0] <= 1e-3
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= max(coarse / 12.0, 1e-14)
        assert lc.frob(hs[0] - hs[1]) >= 12.0 * lc.frob(hs[1] - hs[2])

    def test_phi_outside_the_algebra_raises(self, mid_cfg):
        # phi = 1 dx1 is not su(2)-valued; the retraction would return h = 1
        cm = hg.make_eg(SU2)
        g_map = fm.constant_group_map(lc.identity(SU2), 2)
        phi = fm.one_form_from_expressions(SU2, [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]], 2)
        gamma = geo.path_from_expressions(["t", "0.2*t"])
        with pytest.raises(MembershipError, match="^phi along the path leaves"):
            tp.transformation_transport(cm, g_map, phi, fm.zero_one_form(SU2, 2), gamma,
                                        mid_cfg)

    def test_a_prime_outside_the_algebra_of_b_u1_raises(self, mid_cfg):
        # s_* is 0 on b_u1, so A' = i dx1 never reaches H: only the check of
        # A' in the algebra of G (real GL(1)) sees it
        cm = hg.make_b_abelian(U1)
        g_map = fm.constant_group_map(lc.identity(cm.G), 2)
        a_prime = fm.one_form_from_expressions(cm.G, [[["i"]], [["0"]]], 2)
        gamma = geo.path_from_expressions(["t", "0.2*t"])
        with pytest.raises(MembershipError, match="^A' along the path leaves"):
            tp.transformation_transport(cm, g_map, fm.zero_one_form(U1, 2), a_prime, gamma,
                                        mid_cfg)

    def test_g_map_outside_the_group_raises(self, mid_cfg):
        cm = hg.make_eg(SU2)
        g_map = fm.GroupValuedMap(SU2, lambda x: np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2)),
                                  lambda i, x: np.zeros(x.shape[:-1] + (2, 2)))
        zero = fm.zero_one_form(SU2, 2)
        gamma = geo.path_from_expressions(["t", "0.2*t"])
        with pytest.raises(MembershipError):
            tp.transformation_transport(cm, g_map, zero, zero, gamma, mid_cfg)

    def test_trivial_data_gives_identity(self, mid_cfg):
        cm = hg.make_eg(SU2)
        g_map = fm.constant_group_map(lc.identity(SU2), 2)
        zero = fm.zero_one_form(SU2, 2)
        gamma = geo.path_from_expressions(["t", "0.2*t"])
        res = tp.transformation_transport(cm, g_map, zero, zero, gamma, mid_cfg)
        assert lc.frob(res.h.matrix - np.eye(2)) <= 1e-12

    def test_b_abelian_quadrature_oracle(self):
        # trivial action: h(gamma) = exp(-integral of phi along gamma)
        cmb = hg.make_b_abelian(U1)
        phi = fm.one_form_from_expressions(U1, [[["i*(1 + x2)"]], [["i*x1^2"]]], 2)
        a_prime = fm.zero_one_form(cmb.G, 2)
        g_map = fm.constant_group_map(lc.identity(cmb.G), 2)
        gamma = geo.path_from_expressions(["t", "t*(1-t)"])
        res = tp.transformation_transport(
            cmb, g_map, phi, a_prime, gamma, tp.IntegratorConfig(n_steps_path=512))

        def integrand(t):
            return phi.matrices_at(gamma.point(t), gamma.velocity(t))[0, 0]

        oracle = np.exp(-line_integral(integrand, 200))
        assert abs(res.h.matrix[0, 0] - oracle) <= 1e-9

    def test_coordinate_line_never_evaluates_the_unused_component(self, mid_cfg):
        # along x2 = const the velocity is exactly 0 in x2, so the per-point
        # A'_2 is never called; a dense contraction of the same callables
        # calls it at every point and gives h to rounding
        cm, phi, a_sym, _ = _transformation_forms("eg")
        g_map = fm.constant_group_map(lc.identity(cm.G), 2)
        gamma = geo.path_from_expressions(["0.2 + 0.6*t", "0.4"])
        calls = {}

        def per_point(cls):
            def comp(k):
                def fn(x):
                    calls[cls, k] = calls.get((cls, k), 0) + 1
                    return a_sym.components[k].eval(x)
                return fm.CallableMatrixField(fn, 2, 2, vectorized=False)
            return cls(SU2, [comp(0), comp(1)], 2)

        h = tp.transformation_transport(cm, g_map, phi, per_point(fm.OneFormField), gamma,
                                        mid_cfg).h.matrix
        dense = tp.transformation_transport(cm, g_map, phi, per_point(DenseOneForm), gamma,
                                            mid_cfg).h.matrix
        points = 2 * mid_cfg.n_steps_path + 1
        assert calls == {(fm.OneFormField, 0): points, (DenseOneForm, 0): points,
                         (DenseOneForm, 1): points}
        assert lc.frob(h - dense) <= 1e-14

    def test_constructed_morphism_target_matches(self, morphism_data, mid_cfg):
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        gamma = geo.path_from_expressions(["0.2 + 0.6*t", "0.3 + 0.4*t"])
        res = tp.transformation_transport(cm, g_map, phi, a_prime, gamma, mid_cfg,
                                          a_source=a)
        assert res.matching_residual is not None and res.matching_residual <= 1e-6

    def test_inconsistent_forms_raise(self, morphism_data, mid_cfg):
        # swapping in an unrelated A' breaks the matching equation
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        wrong = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("1", "0", "0"), su2_matrix_table("0", "1", "0")], 2)
        gamma = geo.path_from_expressions(["0.2 + 0.6*t", "0.3 + 0.4*t"])
        with pytest.raises(TargetMatchingError):
            tp.transformation_transport(cm, g_map, phi, wrong, gamma, mid_cfg,
                                        a_source=a)


class TestModificationWhisker:
    def test_trivial_component_has_zero_defect(self, morphism_data, mid_cfg):
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        a_map = fm.constant_group_map(lc.identity(SU2), 2)
        gamma = geo.path_from_expressions(["0.2 + 0.5*t", "0.4 + 0.2*t"])
        defect = tp.modification_whisker(cm, a_map, a_prime, g_map, phi, gamma,
                                         mid_cfg, g2_map=g_map, phi2=phi)
        assert defect <= 1e-10

    def test_b_abelian_phase_component(self):
        # BU(1): alpha trivial and t trivial, the axiom cancels for any a
        cmb = hg.make_b_abelian(U1)
        phi = fm.one_form_from_expressions(U1, [[["i*x2"]], [["i*0.5"]]], 2)
        a_prime = fm.zero_one_form(cmb.G, 2)
        g_map = fm.constant_group_map(lc.identity(cmb.G), 2)
        x0 = lc.AlgebraElement(U1, [[1j]])
        a_map = fm.exp_scalar_family(U1, "0.7*x1 + 0.2*x2", x0, 2)
        gamma = geo.path_from_expressions(["0.1 + 0.6*t", "0.3*t"])
        g2, phi2 = tp.derived_modification_target(cmb, a_map, g_map, phi, a_prime)
        defect = tp.modification_whisker(cmb, a_map, a_prime, g_map, phi, gamma,
                                         tp.IntegratorConfig(n_steps_path=128),
                                         g2_map=g2, phi2=phi2)
        assert defect <= 1e-8

    def test_derived_target_intertwines(self, morphism_data, mid_cfg):
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        x0 = lc.AlgebraElement(SU2, 0.4j * np.array([[1.0, 0.5], [0.5, -1.0]]))
        a_map = fm.exp_scalar_family(SU2, "0.5*x2 + 0.2*x1", x0, 2)
        gamma = geo.path_from_expressions(["0.25 + 0.5*t", "0.35 + 0.3*t*(1-t)"])
        defect = tp.modification_whisker(cm, a_map, a_prime, g_map, phi, gamma,
                                         mid_cfg)
        assert defect <= 1e-6

    def test_random_component_fails(self, morphism_data, mid_cfg):
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        x0 = lc.AlgebraElement(SU2, 0.4j * np.array([[1.0, 0.5], [0.5, -1.0]]))
        a_map = fm.exp_scalar_family(SU2, "0.5*x2 + 0.2*x1", x0, 2)
        gamma = geo.path_from_expressions(["0.25 + 0.5*t", "0.35 + 0.3*t*(1-t)"])
        # keep (g2, phi2) = (g, phi): a generic nontrivial `a` violates the axiom
        defect = tp.modification_whisker(cm, a_map, a_prime, g_map, phi, gamma,
                                         mid_cfg, g2_map=g_map, phi2=phi)
        assert defect > 0.01

    @pytest.mark.parametrize("derived", [True, False])
    def test_one_sweep_equals_three_transports(self, morphism_data, mid_cfg, derived):
        # the lines of one sweep are independent, so sampling A' once and
        # sweeping h, h' and F'(gamma) together changes no bit
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        x0 = lc.AlgebraElement(SU2, 0.4j * np.array([[1.0, 0.5], [0.5, -1.0]]))
        a_map = fm.exp_scalar_family(SU2, "0.5*x2 + 0.2*x1", x0, 2)
        gamma = geo.path_from_expressions(["0.25 + 0.5*t", "0.35 + 0.3*t*(1-t)"])
        if derived:
            g2, phi2 = tp.derived_modification_target(cm, a_map, g_map, phi, a_prime)
        else:
            g2, phi2 = g_map, phi
        got = tp.modification_whisker(cm, a_map, a_prime, g_map, phi, gamma, mid_cfg,
                                      g2_map=g2, phi2=phi2)
        want = three_transport_whisker(cm, a_map, a_prime, g_map, phi, gamma, mid_cfg,
                                       g2, phi2)
        assert got == want

    def test_b_abelian_equals_three_transports(self):
        cmb = hg.make_b_abelian(U1)
        phi = fm.one_form_from_expressions(U1, [[["i*x2"]], [["i*0.5"]]], 2)
        a_prime = fm.one_form_from_expressions(cmb.G, [[["0.3*x1"]], [["0.5"]]], 2)
        g_map = fm.constant_group_map(lc.identity(cmb.G), 2)
        a_map = fm.exp_scalar_family(U1, "0.7*x1 + 0.2*x2", lc.AlgebraElement(U1, [[1j]]), 2)
        gamma = geo.path_from_expressions(["0.1 + 0.6*t", "0.3*t"])
        cfg = tp.IntegratorConfig(n_steps_path=64)
        g2, phi2 = tp.derived_modification_target(cmb, a_map, g_map, phi, a_prime)
        got = tp.modification_whisker(cmb, a_map, a_prime, g_map, phi, gamma, cfg,
                                      g2_map=g2, phi2=phi2)
        assert got == three_transport_whisker(cmb, a_map, a_prime, g_map, phi, gamma, cfg,
                                              g2, phi2)

    def test_a_prime_is_sampled_and_swept_once(self, morphism_data, mid_cfg, monkeypatch):
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        a_map = fm.constant_group_map(lc.identity(SU2), 2)
        gamma = geo.path_from_expressions(["0.2 + 0.5*t", "0.4 + 0.2*t"])
        sweeps = []
        sweep = tp._rk4_sweep
        monkeypatch.setattr(tp, "_rk4_sweep",
                            lambda a, *args, **kw: sweeps.append(len(a)) or sweep(a, *args, **kw))
        samples = []
        counted = fm.OneFormField(a_prime.descriptor, a_prime.components, 2)
        matrices_at = counted.matrices_at
        counted.matrices_at = lambda x, v: samples.append(1) or matrices_at(x, v)
        tp.modification_whisker(cm, a_map, counted, g_map, phi, gamma, mid_cfg,
                                g2_map=g_map, phi2=phi)
        # one 3-line sweep for h, h' and U_{s_* A'}, one line for F'(gamma)
        assert sorted(sweeps) == [1, 3]
        assert len(samples) == 1

    def test_second_phi_outside_the_algebra_raises(self, morphism_data, mid_cfg):
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        a_map = fm.constant_group_map(lc.identity(SU2), 2)
        bad = fm.one_form_from_expressions(SU2, [[["1", "0"], ["0", "1"]],
                                                 [["0", "0"], ["0", "0"]]], 2)
        gamma = geo.path_from_expressions(["0.2 + 0.5*t", "0.4 + 0.2*t"])
        with pytest.raises(MembershipError):
            tp.modification_whisker(cm, a_map, a_prime, g_map, phi, gamma, mid_cfg,
                                    g2_map=g_map, phi2=bad)

    def test_second_map_outside_the_group_raises(self, morphism_data, mid_cfg):
        cm, a, b, g_map, phi, a_prime, b_prime = morphism_data
        a_map = fm.constant_group_map(lc.identity(SU2), 2)
        bad = fm.GroupValuedMap(SU2, lambda x: np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2)),
                                lambda i, x: np.zeros(x.shape[:-1] + (2, 2)))
        gamma = geo.path_from_expressions(["0.2 + 0.5*t", "0.4 + 0.2*t"])
        with pytest.raises(MembershipError):
            tp.modification_whisker(cm, a_map, a_prime, g_map, phi, gamma, mid_cfg,
                                    g2_map=bad, phi2=phi)


class TestSelfConvergenceOfK:
    def test_three_level_refinement(self, eg_su2_pair):
        sig = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        cfgs = [tp.IntegratorConfig(64, 32, 32),
                tp.IntegratorConfig(128, 64, 64),
                tp.IntegratorConfig(256, 128, 128)]
        ks = [tp.surface_transport(eg_su2_pair, sig, c).h_part.matrix for c in cfgs]
        d1 = lc.frob(ks[0] - ks[1])
        d2 = lc.frob(ks[1] - ks[2])
        assert d2 <= d1 / 4.0


class TestConcurrency:
    def test_parallel_transports_match_serial(self, eg_su2_pair, fast_cfg):
        # everything is pure and immutable; hammer the same pair from a
        # thread pool and compare against serial results
        from concurrent.futures import ThreadPoolExecutor

        paths = [geo.path_from_expressions(["t", f"{h}*t*(1-t)"])
                 for h in (0.0, 0.2, 0.4, 0.6)]
        serial = [tp.path_transport(eg_su2_pair.A, p, fast_cfg).matrix for p in paths]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda p: tp.path_transport(eg_su2_pair.A, p, fast_cfg).matrix,
                paths * 3))
        for i, mat in enumerate(parallel):
            assert np.array_equal(mat, serial[i % 4])


_SWEEP_GROUPS = [lc.u1(), lc.su(2), lc.su(3), lc.so(3), lc.gl(2, "complex"), lc.unipotent(3)]
_SWEEP_IDS = ["U1", "SU2", "SU3", "SO3", "GL2C", "UT3"]


def _coefficient_lines(desc, m, n, seed=0):
    """Seeded algebra-valued coefficients a on m lines of 2n+1 half-steps."""
    rng = np.random.default_rng(seed)
    d = desc.matrix_dim
    raw = rng.standard_normal((m, 2 * n + 1, d, d)) + 1j * rng.standard_normal((m, 2 * n + 1, d, d))
    return lc.project_to_algebra(desc, raw)


class TestPropagatorSweep:
    """`_rk4_sweep` builds every step's RK4 transport first; the stage-wise
    RK4 oracle on the same right-hand side is its reference."""

    @pytest.mark.parametrize("keep_nodes", [True, False])
    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("desc", _SWEEP_GROUPS, ids=_SWEEP_IDS)
    def test_matches_stagewise_rk4(self, desc, m, keep_nodes):
        n = 16
        h = 1.0 / n
        a = _coefficient_lines(desc, m, n)
        a_before = a.copy()
        got = tp._rk4_sweep(a, desc, "a", "")
        assert np.array_equal(a, a_before)
        if not keep_nodes:  # the final values, which most callers read
            got = got[:, -1]
        d = desc.matrix_dim
        u0 = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d)).copy()
        want = stagewise_rk4(lambda i, u: -(a[:, i] @ u), u0, n, h,
                             lambda u: lc.retract(desc, u), keep_nodes)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("desc", _SWEEP_GROUPS, ids=_SWEEP_IDS)
    def test_retracted_inverse_inverts_the_nodes(self, desc):
        u = tp._rk4_sweep(_coefficient_lines(desc, 3, 8), desc, "a", "")
        eye = np.eye(desc.matrix_dim)
        assert np.max(np.abs(lc.retracted_inverse(desc, u) @ u - eye)) <= 1e-13

    def test_one_retraction_per_step(self, monkeypatch):
        calls = []
        real = lc.retract

        def counting(desc, m):
            calls.append(m.shape)
            return real(desc, m)

        monkeypatch.setattr(lc, "retract", counting)
        n = 12
        for m in (1, 2, 5):  # one and two lines are the holonomy and morphism sweeps
            calls.clear()
            tp._rk4_sweep(_coefficient_lines(lc.su(2), m, n), lc.su(2), "a", "")
            assert calls == [(m, 2, 2)] * n

    @pytest.mark.parametrize("desc", _SWEEP_GROUPS, ids=_SWEEP_IDS)
    def test_nan_coefficient_raises(self, desc):
        # a non-finite line is outside every algebra: no step is taken
        a = _coefficient_lines(desc, 2, 8)
        a[1, 5, 0, 0] = np.nan
        with pytest.raises(MembershipError, match="^a on line 2 is not finite$"):
            tp._rk4_sweep(a, desc, "a", " on line 2")

    @pytest.mark.parametrize("desc", _SWEEP_GROUPS, ids=_SWEEP_IDS)
    def test_overflow_raises(self, desc):
        # constant lines of 1e200 times an exact algebra element, so that
        # the gate passes them and the transport overflows: whether the
        # final value is non-finite or a polar retraction fails first, the
        # error names the form, and no RuntimeWarning escapes
        d = desc.matrix_dim
        gen = lc.project_to_algebra(desc, np.triu(np.ones((d, d)), 1)
                                    + 1j * np.diag(np.arange(1.0, d + 1)))
        a = np.broadcast_to(1e200 * gen, (2, 17, d, d))
        with pytest.raises(NumericalError, match="^a on line 2") as err:
            tp._rk4_sweep(a, desc, "a", " on line 2")
        assert err.value.form == "a"
