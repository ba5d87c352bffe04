"""Transgression of surface transport to the free loop space: holonomy,
the pulled-back 1-form A_F, the fiber-integrated 1-form phi_F, and the
loop-path bigon with its consistency check.

Loops are parameterized by angle fraction z in [0, 1).  A loop path, a
path in the free loop space, is a `Bigon` on (angle, time), as
`geometry.loop_path_from_expressions` builds it: z -> lp(z, t) is the loop
at time t, and its source edge t -> lp(0, t) is the base path.  The
standard bigon of the full (angle, time) rectangle, pushed through it, is
the loop-path bigon.

The partial arc entering phi_F runs from angle z to angle 1
counterclockwise; its orientation, and the slot order of the fiber
contraction, are fixed once against the abelian route comparison
(`transgression_consistency` on a trivial-action module) and recorded
here:

* fiber contraction: the variation enters the first slot of B and the
  loop direction the last, phi_F = oint (alpha_{W(z)})_* B(dtau(z), tau'(z)) dz,
  where W(z) transports along the remaining arc z -> 1;
* with this convention the loop-space transport ODE driven by (A_F, phi_F)
  reproduces the inverse H-part of surface transport over the swept
  cylinder bigon.

phi_F is the fiber integral of surface transport (`transport._fiber_integral`)
over the loop path with its two slots swapped, so that its lines are the
loops, and with the arc running on to angle 1.  The loop-space ODE needs
phi_F at every time of the loop path: all those loops are evaluated on
one (time, angle) grid, and their partial arcs come from one stacked RK4
sweep around the loop, one line per loop: the arc from z to 1 is
W(z) = u(1) u(z)^{-1}, with u the transport from angle 0.  A single loop,
as `transgressed_phi` takes it, is the one-line case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie_core as lc
from .forms import ConnectionPair
from .geometry import (
    DEFAULT_PROFILE,
    Bigon,
    Loop,
    SmoothingProfile,
    loop_to_path,
    standard_bigon,
)
from .higher_group import TwoMorphismValue
from .lie_core import AlgebraElement, GroupElement
from .transport import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    _fiber_integral,
    _semidirect_transports,
    half_step_grid,
    path_transport,
    surface_transport,
)


@dataclass(frozen=True)
class LoopTangent:
    """A tangent vector to the loop space: a base loop together with the
    variation field along it."""

    base: Loop
    field: object  # callable z -> (..., n), broadcasting, z taken mod 1

    def vector(self, z):
        return self.field(np.asarray(z, dtype=float) % 1.0)


def loop_holonomy(pair: ConnectionPair, tau: Loop,
                  cfg: IntegratorConfig = DEFAULT_CONFIG,
                  profile: SmoothingProfile = DEFAULT_PROFILE) -> GroupElement:
    """Group holonomy of the underlying connection around the loop."""
    return path_transport(pair.A, loop_to_path(tau, profile), cfg)


def transgressed_A(pair: ConnectionPair, tangent: LoopTangent) -> AlgebraElement:
    """The loop-space 1-form pulled back from the base point: A evaluated
    at the loop's base point on the base component of the variation."""
    tau = tangent.base
    return pair.A(tau.base_point(), tangent.vector(0.0))


def _phi_values(pair: ConnectionPair, lp: Bigon, times: np.ndarray,
                nq: int) -> np.ndarray:
    """phi_F at the loops lp(., t) in the variations d_t lp(., t), for every
    t of `times`: shape (m, dh, dh) for m times, by one fiber integral
    over the slot-swapped loop path (see the module docstring)."""
    swapped = Bigon(lambda t, z: lp.point(z, t), lp.ambient_dim,
                    lambda t, z: lp.dt(z, t), lambda t, z: lp.ds(z, t))
    return _fiber_integral(pair.cm, pair.A, pair.B.matrices_at, swapped,
                           np.asarray(times, dtype=float), nq, to_end=True)


def transgressed_phi(pair: ConnectionPair, tangent: LoopTangent,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> AlgebraElement:
    """Fiber-integrated h-valued loop-space 1-form

        phi_F(tau, dtau) = oint (alpha_{W(z)})_* B(dtau(z), tau'(z)) dz

    with W(z) the transport along the remaining arc from z to 1: the
    one-loop case of `_phi_values`.
    """
    tau = tangent.base
    lp = Bigon(lambda z, t: tau.point(z), tau.ambient_dim,
               lambda z, t: tau.velocity(z), lambda z, t: tangent.vector(z))
    val = _phi_values(pair, lp, np.zeros(1), cfg.n_quad_t)[0]
    return AlgebraElement(pair.cm.H, val, validate=False)


def loop_path_bigon(lp: Bigon, profile: SmoothingProfile = DEFAULT_PROFILE) -> Bigon:
    """The bigon swept by a loop path: the standard bigon over the full
    (angle, time) rectangle pushed through the loop path."""
    return standard_bigon(lp, 1.0, 1.0, profile)


def loop_path_two_morphism(pair: ConnectionPair, lp: Bigon,
                           cfg: IntegratorConfig = DEFAULT_CONFIG) -> TwoMorphismValue:
    """Surface transport over the loop-path bigon, packaged as a
    2-morphism; the G-parts transport along base-point and loop edges."""
    return surface_transport(pair, loop_path_bigon(lp), cfg)


@dataclass(frozen=True)
class ConsistencyReport:
    route_functor: np.ndarray
    route_forms: np.ndarray
    defect: float


def transgression_consistency(pair: ConnectionPair, lp: Bigon,
                              cfg: IntegratorConfig = DEFAULT_CONFIG) -> ConsistencyReport:
    """Compare the two routes from a surface transport to loop-space data:

    * the functor route: the inverse H-part of the loop-path bigon's
      surface transport;
    * the differential-form route: the loop-space ODE driven by (A_F,
      phi_F) sampled along the loop path.

    Both converge to the same element; the defect is their distance.  The
    form route runs first, so an A leaving its algebra along the loops is
    reported there; phi_F is built from B and is checked under its name.
    """
    tt = half_step_grid(cfg.n_steps_surface_s)
    base = lp.source_path()
    a_vals = pair.A.matrices_at(base.point(tt), base.velocity(tt))
    phi_vals = _phi_values(pair, lp, tt, cfg.n_quad_t)
    h_mat = _semidirect_transports(pair.cm, phi_vals[None], a_vals, ("B", "A"),
                                   " along the loop path")[0]

    tv = loop_path_two_morphism(pair, lp, cfg)
    route_functor = np.linalg.inv(tv.h_part.matrix)

    defect = lc.frob(route_functor - h_mat)
    return ConsistencyReport(route_functor, h_mat, defect)
