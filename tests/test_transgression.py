import numpy as np
import pytest

from higher_holonomy import errors as er
from higher_holonomy import forms as fm
from higher_holonomy import geometry as geo
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy import transgression as tg
from higher_holonomy import transport as tp

from .conftest import SU2, U1, su2_matrix_table
from .oracles import eg_phi_by_arcs, leggauss_nodes, line_integral, per_loop_phi


@pytest.fixture(scope="module")
def abelian_pair_3d():
    cm = hg.make_b_abelian(U1)
    b = fm.two_form_from_expressions(
        U1,
        {(0, 1): [["i*(0.5 + 0.3*x3)"]], (0, 2): [["i*0.2*x2"]], (1, 2): [["i*0.1*x1"]]},
        3,
    )
    return fm.ConnectionPair(cm, fm.zero_one_form(cm.G, 3), b,
                             box=[(-1, 1), (-1, 1), (0, 1)])


@pytest.fixture(scope="module")
def eg_pair_3d():
    a = fm.one_form_from_expressions(
        SU2,
        [su2_matrix_table("0.4*x2", "0.2*x3", "0"),
         su2_matrix_table("0.3*x3", "0", "0.1*x1"),
         su2_matrix_table("0.2*x1", "0", "0")],
        3,
    )
    return fm.eg_pair(a, box=[(-1, 1), (-1, 1), (0, 1)])


@pytest.fixture(scope="module")
def circle_loop():
    return geo.loop_from_expressions(["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "0.2"])


@pytest.fixture(scope="module")
def cylinder_loop_path():
    return geo.loop_path_from_expressions(["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "t"])


def radial_variation(scale=0.1, lift=0.0):
    def field(z):
        z = np.asarray(z, dtype=float)
        return np.stack([scale * np.cos(2 * np.pi * z),
                         scale * np.sin(2 * np.pi * z),
                         np.full_like(z, lift)], axis=-1)
    return field


class TestLoopHolonomy:
    def test_constant_loop(self, eg_pair_3d, mid_cfg):
        loop = geo.Loop(lambda z: np.broadcast_to([0.1, 0.1, 0.1], np.shape(z) + (3,)).copy(), 3,
                        lambda z: np.zeros(np.shape(z) + (3,)))
        hol = tg.loop_holonomy(eg_pair_3d, loop, mid_cfg)
        assert lc.frob(hol.matrix - np.eye(2)) <= 1e-12

    def test_abelian_matches_quadrature(self, mid_cfg):
        cm = hg.make_eg(U1)
        a = fm.one_form_from_expressions(U1, [[["i*x2"]], [["0"]], [["0"]]], 3)
        b = fm.symbolic_curvature(a)
        pair = fm.ConnectionPair(cm, a, b, box=[(-1, 1), (-1, 1), (0, 1)])
        loop = geo.loop_from_expressions(
            ["0.5*cos(2*pi*z)", "0.5*sin(2*pi*z)", "0"])
        hol = tg.loop_holonomy(pair, loop, tp.IntegratorConfig(n_steps_path=512))

        def integrand(z):
            return a.matrices_at(loop.point(z), loop.velocity(z))[0, 0]

        oracle = np.exp(-line_integral(integrand, 240))
        assert abs(hol.matrix[0, 0] - oracle) <= 1e-9

    def test_profile_independence(self, eg_pair_3d, circle_loop, tight_cfg):
        h1 = tg.loop_holonomy(eg_pair_3d, circle_loop, tight_cfg, geo.SmoothingProfile(0.1))
        h2 = tg.loop_holonomy(eg_pair_3d, circle_loop, tight_cfg, geo.SmoothingProfile(0.2))
        assert lc.frob(h1.matrix - h2.matrix) <= 1e-7

    def test_rotation_invariance_of_trace(self, eg_pair_3d, circle_loop, tight_cfg):
        rotated = geo.Loop(lambda z: circle_loop.point(z + 0.3), 3,
                           lambda z: circle_loop.velocity(z + 0.3))
        t1 = np.trace(tg.loop_holonomy(eg_pair_3d, circle_loop, tight_cfg).matrix)
        t2 = np.trace(tg.loop_holonomy(eg_pair_3d, rotated, tight_cfg).matrix)
        assert abs(t1 - t2) <= 1e-6


class TestTransgressedA:
    def test_variation_vanishing_at_base_point(self, eg_pair_3d, circle_loop):
        tangent = tg.LoopTangent(circle_loop, lambda z: np.stack(
            [np.sin(np.pi * np.asarray(z)) ** 2, np.zeros(np.shape(z)),
             np.zeros(np.shape(z))], axis=-1))
        out = tg.transgressed_A(eg_pair_3d, tangent)
        assert lc.frob(out.matrix) <= 1e-12

    def test_equals_base_point_evaluation(self, eg_pair_3d, circle_loop):
        tangent = tg.LoopTangent(circle_loop, radial_variation(0.2, 0.5))
        out = tg.transgressed_A(eg_pair_3d, tangent)
        expected = eg_pair_3d.A.matrices_at(circle_loop.base_point(),
                                            tangent.vector(0.0))
        assert np.allclose(out.matrix, expected)


class TestTransgressedPhi:
    def test_zero_b(self, mid_cfg):
        cm = hg.make_b_abelian(U1)
        pair = fm.ConnectionPair(cm, fm.zero_one_form(cm.G, 3),
                                 fm.two_form_from_expressions(U1, {}, 3))
        loop = geo.loop_from_expressions(["0.4*cos(2*pi*z)", "0.4*sin(2*pi*z)", "0"])
        tangent = tg.LoopTangent(loop, radial_variation())
        val = tg.transgressed_phi(pair, tangent, mid_cfg)
        assert lc.frob(val.matrix) == 0.0

    def test_abelian_fiber_quadrature(self, abelian_pair_3d, circle_loop, tight_cfg):
        tangent = tg.LoopTangent(circle_loop, radial_variation(0.1, 0.3))
        got = tg.transgressed_phi(abelian_pair_3d, tangent, tight_cfg).matrix[0, 0]

        def integrand(z):
            return abelian_pair_3d.B.matrices_at(
                circle_loop.point(z), tangent.vector(z), circle_loop.velocity(z))[0, 0]

        oracle = line_integral(integrand, 200)
        assert abs(got - oracle) <= 1e-6

    def test_linear_in_variation(self, abelian_pair_3d, circle_loop, mid_cfg):
        t1 = tg.LoopTangent(circle_loop, radial_variation(0.1))
        t2 = tg.LoopTangent(circle_loop, radial_variation(0.2))
        v1 = tg.transgressed_phi(abelian_pair_3d, t1, mid_cfg).matrix
        v2 = tg.transgressed_phi(abelian_pair_3d, t2, mid_cfg).matrix
        assert np.allclose(v2, 2.0 * v1)

    def test_eg_matches_arc_by_arc_quadrature(self, eg_pair_3d, circle_loop, tight_cfg):
        # refinement study on this loop and variation (|phi_F| = 0.335):
        # the error against the oracle is 4.9e-7, 3.1e-8, 1.9e-9 and 1.2e-10
        # at n_quad_t = 32, 64, 128 and 256, fourth order; the oracle's
        # own error, against 120 nodes of 512 steps, is 3.3e-12.  The
        # bound is five times the error at n_quad_t = 128; an arc W(z)
        # running back to 0 instead of on to 1 moves phi_F by 0.087
        tangent = tg.LoopTangent(circle_loop, radial_variation(0.15, 0.4))
        got = tg.transgressed_phi(eg_pair_3d, tangent, tight_cfg).matrix
        oracle = eg_phi_by_arcs(eg_pair_3d, tangent, 120, tp.IntegratorConfig(n_steps_path=256))
        assert lc.frob(got - oracle) <= 1e-8

    def test_eg_self_convergence(self, eg_pair_3d, circle_loop):
        tangent = tg.LoopTangent(circle_loop, radial_variation(0.15, 0.4))
        vals = []
        for n in (32, 64, 128):
            cfg = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=8, n_quad_t=n)
            vals.append(tg.transgressed_phi(eg_pair_3d, tangent, cfg).matrix)
        d1 = lc.frob(vals[0] - vals[1])
        d2 = lc.frob(vals[1] - vals[2])
        assert d1 / max(d2, 1e-16) >= 3.5


class TestLoopPathTwoMorphism:
    def test_constant_loop_path_is_identity(self, eg_pair_3d, mid_cfg):
        lp = geo.loop_path_from_expressions(["0.5*cos(2*pi*z)", "0.5*sin(2*pi*z)", "0"])
        tv = tg.loop_path_two_morphism(eg_pair_3d, lp, mid_cfg)
        assert lc.frob(tv.h_part.matrix - np.eye(2)) <= 1e-7

    def test_loop_path_without_partials_is_refused(self, cylinder_loop_path):
        with pytest.raises(TypeError, match="required positional argument"):
            geo.Bigon(cylinder_loop_path.point, 3)
        with pytest.raises(TypeError, match="exact partials"):
            tg.loop_path_bigon(cylinder_loop_path.point)

    def test_target_matching(self, eg_pair_3d, cylinder_loop_path, tight_cfg):
        tv = tg.loop_path_two_morphism(eg_pair_3d, cylinder_loop_path, tight_cfg)
        assert tv.matching_residual() <= 1e-6

    def test_abelian_cylinder_phase(self, abelian_pair_3d, cylinder_loop_path, tight_cfg):
        # h-part phase is the cylinder integral of B
        tv = tg.loop_path_two_morphism(abelian_pair_3d, cylinder_loop_path, tight_cfg)
        nodes, weights = leggauss_nodes(80)
        total = 0.0
        for ti, wi in zip(nodes, weights):
            zs = nodes
            x = cylinder_loop_path.point(zs, np.full_like(zs, ti))
            vz = cylinder_loop_path.ds(zs, np.full_like(zs, ti))
            vt = cylinder_loop_path.dt(zs, np.full_like(zs, ti))
            vals = abelian_pair_3d.B.matrices_at(x, vz, vt)[..., 0, 0].imag
            total += wi * np.dot(weights, vals)
        oracle = np.exp(-1j * total)
        assert abs(tv.h_part.matrix[0, 0] - oracle) <= 1e-6


class TestConsistency:
    def test_trivial_pair(self, mid_cfg):
        cm = hg.make_b_abelian(U1)
        pair = fm.ConnectionPair(cm, fm.zero_one_form(cm.G, 3),
                                 fm.two_form_from_expressions(U1, {}, 3))
        lp = geo.loop_path_from_expressions(
            ["0.4*cos(2*pi*z)", "0.4*sin(2*pi*z)", "0.5*t"])
        rep = tg.transgression_consistency(pair, lp, mid_cfg)
        assert lc.frob(rep.route_functor - np.eye(1)) <= 1e-12
        assert lc.frob(rep.route_forms - np.eye(1)) <= 1e-12

    def test_abelian_cylinder_defect_and_order(self, abelian_pair_3d, cylinder_loop_path):
        defects = []
        for n in (32, 64):
            cfg = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=n, n_quad_t=n)
            defects.append(
                tg.transgression_consistency(abelian_pair_3d, cylinder_loop_path, cfg).defect)
        assert defects[0] <= 1e-3
        assert defects[1] <= 1e-4
        assert defects[0] / defects[1] >= 4.0  # order >= 2 under refinement

    def test_eg_routes_agree(self, eg_pair_3d, cylinder_loop_path):
        cfg = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=64, n_quad_t=64)
        rep = tg.transgression_consistency(eg_pair_3d, cylinder_loop_path, cfg)
        assert rep.defect <= 1e-4


class TestStackedPhi:
    """phi_F at every time of a loop path from one stacked sweep."""

    cfg = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=32, n_quad_t=32)

    def times(self):
        return np.linspace(0.0, 1.0, 2 * self.cfg.n_steps_surface_s + 1)

    def test_matches_per_loop_route_bitwise_on_b_u1(self, abelian_pair_3d,
                                                    cylinder_loop_path):
        got = tg._phi_values(abelian_pair_3d, cylinder_loop_path, self.times(),
                             self.cfg.n_quad_t)
        want = per_loop_phi(abelian_pair_3d, cylinder_loop_path, self.times(), self.cfg)
        assert np.array_equal(got, want)

    def test_matches_per_loop_route_on_eg(self, eg_pair_3d, cylinder_loop_path):
        # 65 lines, so the stacked step loop multiplies by small_matmul and
        # the one-line sweeps by @
        got = tg._phi_values(eg_pair_3d, cylinder_loop_path, self.times(), self.cfg.n_quad_t)
        want = per_loop_phi(eg_pair_3d, cylinder_loop_path, self.times(), self.cfg)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_sweep_count_does_not_grow_with_the_loop_count(self, abelian_pair_3d,
                                                           cylinder_loop_path,
                                                           monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        sweep = tp._rk4_sweep
        monkeypatch.setattr(tp, "_rk4_sweep", counting)
        counts = []
        for ns in (32, 64):
            cfg = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=ns, n_quad_t=32)
            calls.clear()
            tg.transgression_consistency(abelian_pair_3d, cylinder_loop_path, cfg)
            counts.append(len(calls))
        # surface transport's inner, outer and two boundary sweeps, the
        # stacked loop sweep and the loop-space ODE
        assert counts[0] == counts[1] <= 6

    def test_a_leaving_its_algebra_along_the_loops_raises(self, cylinder_loop_path):
        # an identity bump on the loop path, above the box the pair samples
        bump = "0.5*exp(-(x1^2 + (x2 + 0.6)^2 + (x3 - 0.5)^2)/0.03^2)"
        first = su2_matrix_table("0.4*x2", "0.2*x3", "0")
        first = [[f"{first[0][0]} + {bump}", first[0][1]],
                 [first[1][0], f"{first[1][1]} + {bump}"]]
        a = fm.one_form_from_expressions(
            SU2, [first, su2_matrix_table("0.3*x3", "0", "0.1*x1"),
                  su2_matrix_table("0.2*x1", "0", "0")], 3)
        pair = fm.eg_pair(a, box=[(-1, 1), (-1, 1), (0, 0.3)])
        cfg = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=64, n_quad_t=64)
        with pytest.raises(er.MembershipError, match="along the loops"):
            tg.transgression_consistency(pair, cylinder_loop_path, cfg)

    def test_a_leaving_its_algebra_along_the_base_path_raises(self, cylinder_loop_path):
        # an identity bump in dx3 on the base path (0.6, 0, t): the loops
        # run in the x1x2-plane and never read dx3, the loop-space ODE does
        bump = "0.5*exp(-((x1 - 0.6)^2 + x2^2 + (x3 - 0.5)^2)/0.03^2)"
        third = su2_matrix_table("0.2*x1", "0", "0")
        third = [[f"{third[0][0]} + {bump}", third[0][1]],
                 [third[1][0], f"{third[1][1]} + {bump}"]]
        a = fm.one_form_from_expressions(
            SU2, [su2_matrix_table("0.4*x2", "0.2*x3", "0"),
                  su2_matrix_table("0.3*x3", "0", "0.1*x1"), third], 3)
        pair = fm.eg_pair(a, box=[(-1, 1), (-1, 1), (0, 0.3)])
        with pytest.raises(er.MembershipError, match="^A along the loop path leaves"):
            tg.transgression_consistency(pair, cylinder_loop_path, self.cfg)
