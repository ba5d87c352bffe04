"""Shared fixtures: reference connections, crossed modules, builders of
test fields, paths and maps, and the frozen orientation constants pinned by
the independent oracles."""

import numpy as np
import pytest

from higher_holonomy import forms as fm
from higher_holonomy import geometry as geo
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy import transport as tp

# Sign of the phase of abelian surface transport relative to the surface
# integral of B: k = exp(SIGN * i * integral), pinned once against the
# Riemann product-integration oracle and frozen here.
ABELIAN_SURFACE_PHASE_SIGN = -1.0

# Orientation of the transgressed fiber integral: the variation field fills
# the first slot of B and the loop direction the last, pinned against the
# abelian route comparison (see test_transgression).
TRANSGRESSION_SLOT_ORDER = "variation_first"


SU2 = lc.su(2)
U1 = lc.u1()


def su2_matrix_table(a, b, c):
    """su(2) entry table [[i a, b + i c], [-b + i c, -i a]] from scalar
    expression strings."""
    return [
        [f"i*({a})", f"({b}) + i*({c})"],
        [f"-({b}) + i*({c})", f"-i*({a})"],
    ]


@pytest.fixture(scope="session")
def su2_one_form():
    return fm.one_form_from_expressions(
        SU2,
        [
            su2_matrix_table("0.4*x2", "0.3*x1", "0"),
            su2_matrix_table("0.2", "0", "0.5*x2"),
        ],
        2,
    )


@pytest.fixture(scope="session")
def eg_su2_pair(su2_one_form):
    return fm.eg_pair(su2_one_form)


@pytest.fixture(scope="session")
def bu1_pair():
    cm = hg.make_b_abelian(U1)
    b = fm.two_form_from_expressions(U1, {(0, 1): [["i*(1 + x1 + x2^2)"]]}, 2)
    return fm.ConnectionPair(cm, fm.zero_one_form(cm.G, 2), b)


@pytest.fixture(scope="session")
def fast_cfg():
    return tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=32, n_quad_t=32)


@pytest.fixture(scope="session")
def mid_cfg():
    return tp.IntegratorConfig(n_steps_path=128, n_steps_surface_s=64, n_quad_t=64)


@pytest.fixture(scope="session")
def tight_cfg():
    return tp.IntegratorConfig(n_steps_path=256, n_steps_surface_s=128, n_quad_t=128)


def parabola_paths(heights, x_offset=0.0):
    """Family of paths sharing endpoints (x_offset,0) -> (x_offset+1,0);
    convenient for building composable bigons."""
    return [
        geo.path_from_expressions([f"{x_offset} + t", f"{h}*t*(1-t)"])
        for h in heights
    ]


def random_su2_algebra(rng, scale=1.0):
    return lc.random_algebra(SU2, rng, scale)


def one_form_from_callables(descriptor, fns, ambient_dim, **options):
    """The one-form whose component i is the `CallableMatrixField` of
    fns[i]; `options` (vectorized, fd_step) go to every component."""
    d = descriptor.matrix_dim
    return fm.OneFormField(descriptor, [fm.CallableMatrixField(f, d, ambient_dim, **options)
                                        for f in fns], ambient_dim)


def two_form_from_callables(descriptor, fns, ambient_dim, **options):
    """The two-form whose component (i, j) is the `CallableMatrixField` of
    fns[(i, j)]; `options` as for `one_form_from_callables`."""
    d = descriptor.matrix_dim
    return fm.TwoFormField(descriptor, {key: fm.CallableMatrixField(f, d, ambient_dim, **options)
                                        for key, f in fns.items()}, ambient_dim)


def constant_group_map(g):
    """The constant map x -> g; its Maurer-Cartan pullback is 0."""
    def ev(x):
        return np.broadcast_to(g.matrix, x.shape[:-1] + g.matrix.shape).copy()

    def mc(i, x):
        return np.zeros(x.shape[:-1] + g.matrix.shape, dtype=complex)

    return fm.GroupValuedMap(g.descriptor, ev, mc)


def constant_path(x):
    """The path that sits at the point x for all time."""
    x = np.asarray(x, dtype=float)

    def ev(t):
        return np.broadcast_to(x, np.shape(t) + x.shape).copy()

    def dv(t):
        return np.zeros(np.shape(t) + x.shape)

    return geo.Path(ev, x.shape[-1], dv)


def path_reverse(gamma):
    """The path t -> gamma(1 - t)."""
    return geo.Path(lambda t: gamma.point(1.0 - np.asarray(t, dtype=float)), gamma.ambient_dim,
                    lambda t: -gamma.velocity(1.0 - np.asarray(t, dtype=float)))


def identity_chart():
    """The chart (s, t) -> (s, t) of the plane."""
    return geo.affine_chart(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
