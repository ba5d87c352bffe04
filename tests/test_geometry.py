import warnings

import numpy as np
import pytest

from higher_holonomy import geometry as geo
from higher_holonomy.errors import CompositionError, DomainError


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

        def remap_deriv(t):
            t = np.asarray(t, dtype=float)
            return np.where(t < 0.5, 0.5, np.where(t < 0.75, 1.0, 2.0))

        remapped = geo.reparameterize(left, remap, remap_deriv)
        assert geo.sup_distance(remapped, right) <= 1e-9

    def test_sitting_defect_zero_for_lines(self):
        # the profile sits on strips of its epsilon, a composite on half
        p = geo.line_path([0.0], [2.0])
        assert geo.path_sitting_defect(p, 0.1) == 0.0
        assert geo.path_sitting_defect(p, 0.2) > 0.0
        pp = geo.path_compose(p, geo.line_path([2.0], [3.0]))
        assert geo.path_sitting_defect(pp, 0.05) == 0.0
        assert geo.path_sitting_defect(pp, 0.1) > 0.0

    def test_reparameterize_identity_and_profile(self):
        p = geo.path_from_expressions(["t", "t*(1-t)"])
        same = geo.reparameterize(p, lambda t: t, np.ones_like)
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
            # (s, t) -> (prof(t), y0 + prof(s) (y1 - y0))
            return geo.affine_chart([0.0, y0], [0.0, y1 - y0], [1.0, 0.0]).reparameterized(
                prof, prof)

        stacked = geo.bigon_vcompose(rect(0.0, 0.5), rect(0.5, 1.0))

        def remap(s):
            s = np.asarray(s, dtype=float)
            return np.where(s < 0.5, 0.5 * prof(2 * s), 0.5 + 0.5 * prof(2 * s - 1))

        ss, tt = np.meshgrid(np.linspace(0, 1, 13), np.linspace(0, 1, 13), indexing="ij")
        doubled = np.stack([prof(tt), remap(ss)], axis=-1)
        assert np.allclose(stacked.point(ss, tt), doubled, atol=1e-12)

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
        assert geo.bigon_boundary_defect(comp, 0.05) <= 1e-12
        assert geo.bigon_boundary_defect(comp, 0.1) > 0.0


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


# Nodes away from the seams at 1/2 of the composites, and an ordering of
# them for the second slot of a two-slot map.
_U = np.array([0.13, 0.31, 0.44, 0.58, 0.71, 0.9])
_V = np.array([0.9, 0.58, 0.13, 0.71, 0.31, 0.44])
_H = 1e-6


def _expr_paths(*tables):
    return [geo.path_from_expressions(t) for t in tables]


def _circle():
    return geo.loop_from_expressions(["0.5 + 0.3*cos(2*pi*z)",
                                      "0.5 + 0.3*sin(2*pi*z) + 0.1*sin(4*pi*z)"])


def _family():
    return _expr_paths(*(["t", f"{h}*t*(1-t)"] for h in (0.0, 0.5, 1.0)))


_CONSTRUCTORS = {
    "line_path": lambda: geo.line_path([0.2, -1.0], [1.5, 0.7]),
    "path_from_expressions": lambda: geo.path_from_expressions(["t^2", "sin(t)"]),
    "path_compose": lambda: geo.path_compose(*_expr_paths(["t", "t^2"], ["1 + sin(t)", "1 - t"])),
    "path_reverse": lambda: geo.path_reverse(geo.path_from_expressions(["t^3", "cos(2*t)"])),
    "constant_path": lambda: geo.constant_path([1.0, 2.0]),
    "loop_from_expressions": _circle,
    "loop_to_path": lambda: geo.loop_to_path(_circle()),
    "reparameterize_profile": lambda: geo.reparameterize(
        geo.path_from_expressions(["t", "t*(1-t)"]), geo.SmoothingProfile(0.15)),
    "reparameterize_callable": lambda: geo.reparameterize(
        geo.path_from_expressions(["t", "t*(1-t)"]), lambda t: t * t, lambda t: 2.0 * t),
    "identity_bigon": lambda: geo.identity_bigon(geo.path_from_expressions(["t", "t^2"])),
    "bigon_between": lambda: geo.bigon_between(*_family()[:2]),
    "bigon_vcompose": lambda: geo.bigon_vcompose(geo.bigon_between(*_family()[:2]),
                                                 geo.bigon_between(*_family()[1:])),
    "bigon_hcompose": lambda: geo.bigon_hcompose(
        geo.bigon_between(*_expr_paths(["t", "0"], ["t", "t*(1-t)"])),
        geo.bigon_between(*_expr_paths(["1+t", "0"], ["1+t", "0.5*t*(1-t)"]))),
    "contraction_bigon": lambda: geo.contraction_bigon(geo.loop_to_path(_circle())),
    "standard_bigon": lambda: geo.standard_bigon(
        geo.chart_from_expressions(["s + 0.2*s*t", "t - 0.1*s^2"]), 0.8, 0.9),
    "loop_path_from_expressions": lambda: geo.loop_path_from_expressions(
        ["(0.5 + 0.1*t)*cos(2*pi*z)", "(0.5 + 0.1*t)*sin(2*pi*z)", "t"]),
    "reparameterized": lambda: geo.bigon_between(*_family()[:2]).reparameterized(
        geo.SmoothingProfile(0.2), geo.SmoothingProfile(0.15)),
}


def _central(fn, u):
    return (fn(u + _H) - fn(u - _H)) / (2.0 * _H)


@pytest.mark.parametrize("build", list(_CONSTRUCTORS.values()), ids=list(_CONSTRUCTORS))
def test_exact_partials_match_a_central_difference(build):
    m = build()
    if isinstance(m, geo.Bigon):
        pairs = [(m.ds(_U, _V), _central(lambda u: m.point(u, _V), _U)),
                 (m.dt(_U, _V), _central(lambda u: m.point(_U, u), _V))]
    else:
        pairs = [(m.velocity(_U), _central(m.point, _U))]
    for exact, fd in pairs:
        assert exact.shape == fd.shape
        assert np.max(np.abs(exact - fd)) <= 1e-7 * max(1.0, np.max(np.abs(exact)))


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

    def test_boundary_defect(self):
        # the edge paths are composites of profiled lines: strips of 0.05
        sb = geo.standard_bigon(geo.identity_chart(), 1.0, 1.0)
        assert geo.bigon_boundary_defect(sb, 0.05) <= 1e-12

    def test_charts_are_two_slot_maps_with_exact_partials(self):
        a, b = np.linspace(-0.5, 1.5, 7), np.linspace(1.5, -0.5, 7)
        x, v1, v2 = np.array([0.3, -0.2, 1.0]), np.array([1.0, 0.5, 0.0]), np.array([-0.25, 1, 2])
        expr = geo.chart_from_expressions(["s + 0.2*s*t", "t - 0.1*s^2"])
        for ch in (geo.affine_chart(x, v1, v2), geo.identity_chart(), expr):
            assert isinstance(ch, geo.Bigon)
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
        line = geo.line_path(np.zeros(2), np.ones(2))
        for bad in (ch.point, line):
            with pytest.raises(TypeError, match="exact partials"):
                geo.standard_bigon(bad, 0.1, -0.1)
        # no map is built without its partials
        for build in (lambda: geo.Bigon(ch.point, 2), lambda: geo.Bigon(ch.point, 2, ch.ds_fn),
                      lambda: geo.Path(line.point, 2), lambda: geo.Loop(line.point, 2)):
            with pytest.raises(TypeError, match="required positional argument"):
                build()
        # a reparameterization brings its derivative
        with pytest.raises(TypeError, match="needs beta_deriv"):
            geo.reparameterize(line, lambda t: t)
        prof = geo.SmoothingProfile(0.2)
        for slots in ((lambda u: u, None), (None, lambda u: u), (prof, lambda u: u * u)):
            with pytest.raises(TypeError, match="SmoothingProfile or None"):
                ch.reparameterized(*slots)


class TestLoops:
    def test_constant_loop_to_path(self):
        loop = geo.Loop(lambda z: np.broadcast_to([1.0, 2.0], np.shape(z) + (2,)).copy(), 2,
                        lambda z: np.zeros(np.shape(z) + (2,)))
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

    def test_open_loop_is_refused(self):
        with pytest.raises(CompositionError,
                           match="^loop does not close: z = 0 and z = 1 differ by 3.000e-01$"):
            geo.loop_from_expressions(["cos(2*pi*z)", "sin(2*pi*z) + 0.3*z"])

    def test_pole_at_the_seam_is_an_open_loop(self):
        # z = 1 is never evaluated once the map wraps; the check meets the
        # pole there, and numpy's division warning must not escape
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CompositionError, match="differ by inf"):
                geo.loop_from_expressions(["cos(2*pi*z)", "z/(1 - z)"])

    def test_pole_inside_the_loop_does_not_excuse_an_open_seam(self):
        # the bound scales with the largest finite value on the loop
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CompositionError, match="differ by 4.000e-01"):
                geo.loop_from_expressions(["cos(2*pi*z) + 0.3*z", "0.1/(z - 0.5)"])

    def test_kinked_loop_is_refused(self):
        # the values close; the z-partial of the x2 entry reads 1.5*pi at
        # z = 0 and 0.9*pi at z = 1
        with pytest.raises(CompositionError,
                           match="^loop does not close smoothly: its z-partials at z = 0 and "
                                 "z = 1 differ by 1.885e\\+00$"):
            geo.loop_from_expressions(["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z) + 0.3*sin(pi*z)"])

    def test_smooth_seam_gap_is_relative_to_the_partials(self):
        # the z-partials of the x1 entry, about 6.0e5, differ by 1.2e-10
        # between z = 0 and z = 1 by rounding alone
        loop = geo.loop_from_expressions(["1e5*sin(2*pi*z + 0.3)", "cos(2*pi*z)"])
        assert loop.velocity(0.0)[0] == pytest.approx(2e5 * np.pi * np.cos(0.3), rel=1e-15)

    @pytest.mark.parametrize("entries", [["1e6*cos(2*pi*z)", "1e6*sin(2*pi*z)"],
                                         ["1e6*cos(2*pi*z)", "sin(2*pi*z)"]])
    def test_closure_is_relative_to_the_size_of_the_loop(self, entries):
        # sin(2*pi) rounds to -2.4e-16: a value gap of 2.4e-10 and a z-partial
        # gap of 1.5e-9, each far below 1e-10 of the largest such value
        loop = geo.loop_from_expressions(entries)
        assert np.allclose(loop.point(1.0), loop.base_point(), rtol=0.0, atol=1e-9)


class TestExpressionMaps:
    """A map built from expressions is a real table over its own variables."""

    @pytest.mark.parametrize("build, entries", [
        (geo.path_from_expressions, ["t", "s"]),
        (geo.loop_from_expressions, ["cos(2*pi*z)", "t"]),
        (geo.chart_from_expressions, ["s", "z"]),
        (geo.loop_path_from_expressions, ["cos(2*pi*z)", "s*t"]),
    ])
    def test_builders_take_only_their_own_variables(self, build, entries):
        with pytest.raises(DomainError, match="free variables"):
            build(entries)

    @pytest.mark.parametrize("build, entries", [
        (geo.path_from_expressions, ["t", "t + 0.5*i"]),
        (geo.loop_from_expressions, ["cos(2*pi*z)", "i*sin(2*pi*z)"]),
        (geo.chart_from_expressions, ["s", "t*i*i"]),
        (geo.loop_path_from_expressions, ["cos(2*pi*z)", "t + i"]),
    ])
    def test_builders_are_real(self, build, entries):
        with pytest.raises(DomainError, match="imaginary unit"):
            build(entries)


class TestLoopPaths:
    """A loop path is the two-slot map (angle z, time t) -> R^n."""

    def test_wraps_modulo_one_bit_for_bit(self):
        lp = geo.loop_path_from_expressions(["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "t"])
        t = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(lp.point(np.ones(7), t), lp.point(np.zeros(7), t))

    def test_source_edge_is_the_base_path_and_it_does_not_sit(self):
        lp = geo.loop_path_from_expressions(["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "t"])
        t = np.linspace(0.0, 1.0, 7)
        prof = geo.DEFAULT_PROFILE
        base = np.stack([np.full(7, 0.6), np.zeros(7), prof(t)], axis=-1)
        assert np.array_equal(lp.source_path().point(t), base)

    def test_time_slot_carries_the_profile(self):
        lp = geo.loop_path_from_expressions(["cos(2*pi*z)", "0", "t"])
        z, t = np.full(7, 0.25), np.linspace(0.0, 1.0, 7)
        assert np.array_equal(lp.dt(z, t)[:, 2], geo.DEFAULT_PROFILE.derivative(t))
        assert np.allclose(lp.ds(z, t)[:, 0], -2.0 * np.pi, rtol=0.0, atol=1e-12)

    def test_open_loop_path_is_refused(self):
        # closed at t = 0, open by t at later times: every time node counts
        with pytest.raises(CompositionError,
                           match="^loop does not close: z = 0 and z = 1 differ by 1.000e\\+00$"):
            geo.loop_path_from_expressions(["cos(2*pi*z)", "sin(2*pi*z) + t*z", "t"])

    def test_kinked_loop_path_is_refused(self):
        # smooth at t = 0, kinked by t at later times: every time node counts
        with pytest.raises(CompositionError,
                           match="^loop does not close smoothly: its z-partials at z = 0 and "
                                 "z = 1 differ by 1.885e\\+00$"):
            geo.loop_path_from_expressions(
                ["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z) + 0.3*t*sin(pi*z)", "t"])


class TestContraction:
    def test_requires_closed_loop(self):
        with pytest.raises(CompositionError):
            geo.contraction_bigon(geo.line_path([0.0, 0.0], [1.0, 0.0]))
        with pytest.raises(CompositionError):
            geo.contraction_bigon(geo.line_path([0.0, 0.0], [np.nan, 0.0]))

    def test_closure_is_relative_to_the_size_of_the_loop(self):
        # its ends differ by 2.4e-10, by the rounding of 1e6*sin(2*pi)
        p = geo.path_from_expressions(["0.5 + 1e6*sin(2*pi*t)", "0.5 + 1e6*cos(2*pi*t)"])
        sig = geo.contraction_bigon(p)
        assert np.array_equal(sig.point(0.0, 0.5), p.start())

    def test_sweeps_from_base_to_loop(self):
        loop = geo.loop_from_expressions(["0.5 + 0.3*cos(2*pi*z)", "0.5 + 0.3*sin(2*pi*z)"])
        p = geo.loop_to_path(loop)
        sig = geo.contraction_bigon(p)
        t = np.linspace(0, 1, 9)
        assert np.allclose(sig.point(np.zeros(9), t), p.start())
        assert np.allclose(sig.point(np.ones(9), t), p.point(t))
