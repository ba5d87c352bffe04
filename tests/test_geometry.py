import numpy as np
import pytest

from higher_holonomy import geometry as geo
from higher_holonomy.errors import CompositionError, DomainError
from higher_holonomy.transgression import LoopPath


class TestSmoothingProfile:
    def test_flat_ends_exactly(self):
        p = geo.SmoothingProfile(0.1)
        u = np.array([0.0, 0.05, 0.1])
        assert np.all(p(u) == 0.0)
        assert np.all(p(1.0 - u) == 1.0)
        assert np.all(p.derivative(u) == 0.0)

    def test_increasing_inside(self):
        p = geo.SmoothingProfile(0.1)
        # strictly increasing mathematically; floats saturate at the very
        # edges of the transition, so check monotonicity plus strictness
        # away from the saturated tails
        u = np.linspace(0.11, 0.89, 200)
        assert np.all(np.diff(p(u)) >= 0)
        bulk = np.linspace(0.15, 0.85, 100)
        assert np.all(np.diff(p(bulk)) > 0)

    def test_symmetric_midpoint(self):
        p = geo.SmoothingProfile(0.1)
        assert p(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_derivative_matches_fd(self):
        p = geo.SmoothingProfile(0.1)
        for u in (0.2, 0.5, 0.73):
            fd = (p(u + 1e-6) - p(u - 1e-6)) / 2e-6
            assert p.derivative(u) == pytest.approx(fd, rel=1e-6)

    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            geo.SmoothingProfile(0.6)


class TestPaths:
    def test_constant_compose(self):
        c = geo.constant_path([1.0, 2.0])
        cc = geo.path_compose(c, c)
        assert np.allclose(cc.point(0.37), [1.0, 2.0])

    def test_line_then_line(self):
        a, b, c = np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 1.0])
        p = geo.path_compose(geo.line_path(a, b), geo.line_path(b, c))
        assert np.allclose(p.start(), a)
        assert np.allclose(p.end(), c)
        assert np.allclose(p.point(0.5), b)

    def test_compose_requires_matching_endpoints(self):
        with pytest.raises(CompositionError):
            geo.path_compose(geo.line_path([0.0], [1.0]), geo.line_path([2.0], [3.0]))
        # a NaN end matches nothing, although NaN > tol is false
        with pytest.raises(CompositionError):
            geo.path_compose(geo.line_path([0.0], [np.nan]), geo.line_path([1.0], [2.0]))
        with pytest.raises(CompositionError):
            geo.bigon_between(geo.line_path([0.0], [1.0]), geo.line_path([0.0], [np.nan]))

    def test_reverse(self):
        p = geo.line_path([0.0, 0.0], [1.0, 2.0])
        r = geo.path_reverse(p)
        assert np.allclose(r.point(0.25), p.point(0.75))
        rr = geo.path_reverse(r)
        t = np.linspace(0, 1, 33)
        assert np.allclose(rr.point(t), p.point(t))
        assert np.allclose(geo.path_reverse(geo.constant_path([3.0])).point(0.5), [3.0])

    def test_composition_associates_after_reparameterization(self):
        g1 = geo.line_path([0.0, 0.0], [1.0, 0.0])
        g2 = geo.line_path([1.0, 0.0], [1.0, 1.0])
        g3 = geo.line_path([1.0, 1.0], [2.0, 1.0])
        left = geo.path_compose(geo.path_compose(g1, g2), g3)
        right = geo.path_compose(g1, geo.path_compose(g2, g3))

        # explicit piecewise-linear reparameterization mapping right onto left
        def remap(t):
            t = np.asarray(t, dtype=float)
            return np.where(t < 0.5, 0.5 * t,
                            np.where(t < 0.75, t - 0.25, 2.0 * t - 1.0))

        remapped = geo.Path(lambda t: left.point(remap(t)), 2)
        assert geo.sup_distance(remapped, right) <= 1e-9

    def test_sitting_defect_zero_for_lines(self):
        p = geo.line_path([0.0], [2.0])
        assert geo.path_sitting_defect(p) == 0.0

    def test_velocity_exact_vs_fd(self):
        p = geo.path_from_expressions(["t^2", "sin(t)"])
        t = 0.43
        h = 1e-6
        fd = (p.point(t + h) - p.point(t - h)) / (2 * h)
        assert np.allclose(p.velocity(t), fd, atol=1e-8)

    def test_reparameterize_identity_and_profile(self):
        p = geo.path_from_expressions(["t", "t*(1-t)"])
        same = geo.reparameterize(p, lambda t: t)
        t = np.linspace(0, 1, 17)
        assert np.allclose(same.point(t), p.point(t))
        prof = geo.SmoothingProfile(0.15)
        rep = geo.reparameterize(p, prof)
        # same image set: endpoints and a midpoint hit
        assert np.allclose(rep.point(0.0), p.point(0.0))
        assert np.allclose(rep.point(1.0), p.point(1.0))
        assert np.allclose(rep.point(0.5), p.point(0.5))


class TestBigons:
    def test_identity_bigon_is_s_independent(self):
        g = geo.path_from_expressions(["t", "t^2"])
        b = geo.identity_bigon(g)
        s = np.array([0.1, 0.9])
        assert np.allclose(b.point(s, np.full(2, 0.3))[0], b.point(s, np.full(2, 0.3))[1])
        assert np.allclose(b.ds(0.5, 0.3), 0.0)

    def test_vcompose_formula(self):
        g0, g1, g2 = (geo.path_from_expressions(["t", f"{h}*t*(1-t)"])
                      for h in (0.0, 0.5, 1.0))
        s1 = geo.bigon_between(g0, g1)
        s2 = geo.bigon_between(g1, g2)
        comp = geo.bigon_vcompose(s1, s2)
        # evaluation at s=0.25 equals the lower bigon at s=0.5
        t = np.linspace(0, 1, 9)
        assert np.allclose(comp.point(np.full(9, 0.25), t), s1.point(np.full(9, 0.5), t))
        src = comp.source_path()
        tgt = comp.target_path()
        assert geo.sup_distance(src, g0) <= 1e-12
        assert geo.sup_distance(tgt, g2) <= 1e-12

    def test_vcompose_mismatch_raises(self):
        g0, g1, g2 = (geo.path_from_expressions(["t", f"{h}*t*(1-t)"])
                      for h in (0.0, 0.5, 1.0))
        with pytest.raises(CompositionError):
            geo.bigon_vcompose(geo.bigon_between(g0, g1), geo.bigon_between(g0, g2))
        nan_end = geo.line_path([0.0, 0.0], [np.nan, 0.0])
        with pytest.raises(CompositionError):
            geo.bigon_vcompose(geo.identity_bigon(g0), geo.identity_bigon(nan_end))

    def test_stacked_rectangles_match_explicit_map(self):
        prof = geo.DEFAULT_PROFILE

        def rect(y0, y1):
            return geo.Bigon(
                lambda s, t: np.stack(
                    [np.broadcast_to(prof(t), np.broadcast_shapes(np.shape(s), np.shape(t))),
                     np.broadcast_to(y0 + prof(s) * (y1 - y0),
                                     np.broadcast_shapes(np.shape(s), np.shape(t)))],
                    axis=-1),
                2, sitting=prof)

        stacked = geo.bigon_vcompose(rect(0.0, 0.5), rect(0.5, 1.0))

        def remap(s):
            s = np.asarray(s, dtype=float)
            return np.where(s < 0.5, 0.5 * prof(2 * s), 0.5 + 0.5 * prof(2 * s - 1))

        doubled = geo.Bigon(
            lambda s, t: np.stack(
                [np.broadcast_to(prof(t), np.broadcast_shapes(np.shape(s), np.shape(t))),
                 np.broadcast_to(remap(s), np.broadcast_shapes(np.shape(s), np.shape(t)))],
                axis=-1),
            2)
        ss, tt = np.meshgrid(np.linspace(0, 1, 13), np.linspace(0, 1, 13), indexing="ij")
        assert np.allclose(stacked.point(ss, tt), doubled.point(ss, tt), atol=1e-12)

    def test_hcompose_formula(self):
        g0 = geo.path_from_expressions(["t", "0"])
        g1 = geo.path_from_expressions(["t", "t*(1-t)"])
        q0 = geo.path_from_expressions(["1+t", "0"])
        q1 = geo.path_from_expressions(["1+t", "0.5*t*(1-t)"])
        s1 = geo.bigon_between(g0, g1)
        s2 = geo.bigon_between(q0, q1)
        comp = geo.bigon_hcompose(s1, s2)
        s = np.linspace(0, 1, 7)
        assert np.allclose(comp.point(s, np.full(7, 0.25)), s1.point(s, np.full(7, 0.5)))
        assert np.allclose(comp.point(s, np.full(7, 0.75)), s2.point(s, np.full(7, 0.5)))

    def test_hcompose_mismatch_raises(self):
        g0 = geo.path_from_expressions(["t", "0"])
        g1 = geo.path_from_expressions(["t", "t*(1-t)"])
        far0 = geo.path_from_expressions(["5+t", "0"])
        far1 = geo.path_from_expressions(["5+t", "t*(1-t)"])
        with pytest.raises(CompositionError):
            geo.bigon_hcompose(geo.bigon_between(g0, g1), geo.bigon_between(far0, far1))
        nan_end = geo.line_path([0.0, 0.0], [np.nan, 0.0])
        with pytest.raises(CompositionError):
            geo.bigon_hcompose(geo.identity_bigon(nan_end), geo.identity_bigon(g0))

    def test_boundary_conditions_of_compositions(self):
        g0, g1, g2 = (geo.path_from_expressions(["t", f"{h}*t*(1-t)"])
                      for h in (0.0, 0.4, 0.8))
        comp = geo.bigon_vcompose(geo.bigon_between(g0, g1), geo.bigon_between(g1, g2))
        assert geo.bigon_boundary_defect(comp) <= 1e-12


class TestReparameterizedBigon:
    # a slot left None is not moved, so its partial stays the exact one
    def _chart_bigon(self):
        ch = geo.chart_from_expressions(["3*s + 0.2*s*t", "5*t - 0.1*s^2 + 2*t^2"])
        return geo.standard_bigon(ch, 0.8, 0.9)

    def test_unmoved_t_slot_keeps_the_exact_dt(self):
        sig, prof = self._chart_bigon(), geo.SmoothingProfile(0.2)
        s, t = np.linspace(0.0, 1.0, 13), np.linspace(0.0, 1.0, 13)[::-1]
        assert np.array_equal(sig.reparameterized(prof, None).dt(s, t), sig.dt(prof(s), t))

    def test_unmoved_s_slot_keeps_the_exact_ds(self):
        sig, prof = self._chart_bigon(), geo.SmoothingProfile(0.2)
        s, t = np.linspace(0.0, 1.0, 13), np.linspace(0.0, 1.0, 13)[::-1]
        assert np.array_equal(sig.reparameterized(None, prof).ds(s, t), sig.ds(s, prof(t)))


def _two_slot_map(exprs, variables):
    """An expression map of two parameters with its exact partials, read
    off a chart: (point, d_first, d_second)."""
    ch = geo.chart_from_expressions(exprs, variables)
    return ch.point, ch.ds, ch.dt


# Nodes with both ends of each clipped slot, where the quotient is one-sided,
# and z = 0 of the periodic slot, where it wraps.  The second derivatives of
# the maps below vanish at the ends of every clipped slot, so the one-sided
# quotients are second-order accurate there too.
_S = np.array([0.0, 0.0, 0.37, 0.8, 1.0, 1.0])
_T = np.array([0.0, 1.0, 0.52, 0.0, 0.25, 1.0])
_Z = np.array([0.0, 0.25, 0.6, 0.0, 1.0 - 1e-9, 0.5])


def _path_partials():
    ev, d, _ = _two_slot_map(["2*t - 1", "sin(pi*t)", "t + 0.3*sin(2*pi*t)"], ("t", "r"))
    return [(geo.Path(lambda t: ev(t, 0.0), 3).velocity(_T), d(_T, 0.0))]


def _loop_partials():
    ev, d, _ = _two_slot_map(["cos(2*pi*z)", "sin(2*pi*z) + 0.3*sin(4*pi*z)"], ("z", "r"))
    return [(geo.Loop(lambda z: ev(z, 0.0), 2).velocity(_Z), d(_Z, 0.0))]


def _bigon_partials():
    ev, ds, dt = _two_slot_map(["s + sin(pi*s)*sin(pi*t)", "t + s*t", "sin(pi*t)*(1 + s)"],
                               ("s", "t"))
    sig = geo.Bigon(ev, 3)
    return [(sig.ds(_S, _T), ds(_S, _T)), (sig.dt(_S, _T), dt(_S, _T))]


def _loop_path_partials():
    ev, dt, dz = _two_slot_map(["(1 + 0.5*t)*cos(2*pi*z)", "(1 + 0.5*t)*sin(2*pi*z)",
                                "sin(pi*t) + 0.2*cos(2*pi*z)"], ("t", "z"))
    lp = LoopPath(ev, 3)
    return [(lp.dt(_T, _Z), dt(_T, _Z)), (lp.dz(_T, _Z), dz(_T, _Z))]


@pytest.mark.parametrize("partials", [_path_partials, _loop_partials, _bigon_partials,
                                      _loop_path_partials],
                         ids=["Path", "Loop", "Bigon", "LoopPath"])
def test_difference_quotient_matches_exact_partials(partials):
    for fallback, exact in partials():
        assert np.max(np.abs(fallback - exact)) <= 1e-8


class TestStandardBigon:
    def test_degenerate_is_thin(self):
        sb = geo.standard_bigon(geo.identity_chart(), 0.0, 0.7)
        s = np.linspace(0, 1, 9)
        pts = sb.point(s, np.full(9, 0.5))
        assert np.allclose(pts[:, 0], 0.0)  # stays on the t-axis

    def test_orientation_source_t_leg_first(self):
        sb = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        src = sb.source_path()
        tgt = sb.target_path()
        # source passes through (0, t): the second coordinate moves first
        assert np.allclose(src.point(0.5), [0.0, 1.0], atol=1e-12)
        # target passes through (s, 0): the first coordinate moves first
        assert np.allclose(tgt.point(0.5), [1.0, 0.0], atol=1e-12)
        assert np.allclose(src.point(1.0), [1.0, 1.0])
        assert np.allclose(tgt.point(1.0), [1.0, 1.0])

    def test_corners_hit(self):
        x = np.array([0.3, -0.2])
        v1 = np.array([1.0, 0.5])
        v2 = np.array([-0.25, 1.0])
        ch = geo.affine_chart(x, v1, v2)
        s, t = 0.6, 0.8
        sb = geo.standard_bigon(ch, s, t)
        assert np.allclose(sb.point(0.0, 0.0), x)
        assert np.allclose(sb.point(0.0, 1.0), x + s * v1 + t * v2)
        assert np.allclose(sb.source_path().point(0.5), x + t * v2)
        assert np.allclose(sb.target_path().point(0.5), x + s * v1)

    def test_affine_midpoint_bilinearity(self):
        x = np.zeros(2)
        sb = geo.standard_bigon(geo.affine_chart(x, np.eye(2)[0], np.eye(2)[1]), 1.0, 1.0)
        center = sb.point(0.5, 0.5)
        assert np.allclose(center, [0.5, 0.5], atol=1e-12)

    def test_partials_match_fd(self):
        ch = geo.chart_from_expressions(["s + 0.2*s*t", "t - 0.1*s^2"])
        sb = geo.standard_bigon(ch, 0.8, 0.9)
        h = 1e-6
        for (s0, t0) in [(0.3, 0.4), (0.62, 0.55)]:
            fd_s = (sb.point(s0 + h, t0) - sb.point(s0 - h, t0)) / (2 * h)
            fd_t = (sb.point(s0, t0 + h) - sb.point(s0, t0 - h)) / (2 * h)
            assert np.allclose(sb.ds(s0, t0), fd_s, atol=1e-7)
            assert np.allclose(sb.dt(s0, t0), fd_t, atol=1e-7)

    def test_boundary_defect(self):
        sb = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        assert geo.bigon_boundary_defect(sb) <= 1e-12

    def test_charts_are_two_slot_maps_with_exact_partials(self):
        a, b = np.linspace(-0.5, 1.5, 7), np.linspace(1.5, -0.5, 7)
        x, v1, v2 = np.array([0.3, -0.2, 1.0]), np.array([1.0, 0.5, 0.0]), np.array([-0.25, 1, 2])
        expr = geo.chart_from_expressions(["s + 0.2*s*t", "t - 0.1*s^2"])
        for ch in (geo.affine_chart(x, v1, v2), geo.identity_chart(), expr):
            assert isinstance(ch, geo.Bigon) and ch.sitting is None
            assert ch.ds_fn is not None and ch.dt_fn is not None
        ch = geo.affine_chart(x, v1, v2)
        assert np.allclose(ch.point(a, b), x + a[:, None] * v1 + b[:, None] * v2,
                           rtol=0, atol=1e-15)
        assert np.array_equal(ch.ds(a, b), np.broadcast_to(v1, (7, 3)))
        assert np.array_equal(ch.dt(a, b), np.broadcast_to(v2, (7, 3)))
        assert np.array_equal(geo.identity_chart().dt(a, b), np.broadcast_to([0.0, 1.0], (7, 2)))
        assert np.allclose(expr.ds(a, b), np.stack([1 + 0.2 * b, -0.2 * a], -1), rtol=0, atol=1e-15)
        assert np.allclose(expr.dt(a, b), np.stack([0.2 * a, np.ones(7)], -1), rtol=0, atol=1e-15)

    def test_refuses_a_chart_without_exact_partials(self):
        ch = geo.identity_chart()
        for bad in (geo.Bigon(ch.point, 2), geo.Bigon(ch.point, 2, ch.ds_fn),
                    geo.Bigon(ch.point, 2, None, ch.dt_fn), ch.point,
                    geo.line_path(np.zeros(2), np.ones(2))):
            with pytest.raises(TypeError, match="exact partials"):
                geo.standard_bigon(bad, 0.1, -0.1)


class TestLoops:
    def test_constant_loop_to_path(self):
        loop = geo.Loop(lambda z: np.broadcast_to([1.0, 2.0], np.shape(z) + (2,)).copy(), 2)
        p = geo.loop_to_path(loop)
        assert np.allclose(p.point(0.3), [1.0, 2.0])

    def test_base_point_preserved(self):
        loop = geo.loop_from_expressions(["cos(2*pi*z)", "sin(2*pi*z)"])
        p = geo.loop_to_path(loop)
        assert np.allclose(p.start(), loop.base_point())
        assert np.allclose(p.end(), loop.base_point())

    def test_wraps_modulo_one(self):
        loop = geo.loop_from_expressions(["cos(2*pi*z)", "sin(2*pi*z)"])
        assert np.allclose(loop.point(1.25), loop.point(0.25))

    def test_velocity(self):
        loop = geo.loop_from_expressions(["cos(2*pi*z)", "sin(2*pi*z)"])
        v = loop.velocity(0.25)
        assert np.allclose(v, [-2 * np.pi, 0.0], atol=1e-12)


class TestContraction:
    def test_requires_closed_loop(self):
        with pytest.raises(CompositionError):
            geo.contraction_bigon(geo.line_path([0.0, 0.0], [1.0, 0.0]))
        with pytest.raises(CompositionError):
            geo.contraction_bigon(geo.line_path([0.0, 0.0], [np.nan, 0.0]))

    def test_sweeps_from_base_to_loop(self):
        loop = geo.loop_from_expressions(["0.5 + 0.3*cos(2*pi*z)", "0.5 + 0.3*sin(2*pi*z)"])
        p = geo.loop_to_path(loop)
        sig = geo.contraction_bigon(p)
        t = np.linspace(0, 1, 9)
        assert np.allclose(sig.point(np.zeros(9), t), p.start())
        assert np.allclose(sig.point(np.ones(9), t), p.point(t))
