"""Transgression of surface transport to the free loop space: holonomy,
the pulled-back 1-form A_F, the fiber-integrated 1-form phi_F, and the
loop-path bigon with its consistency check.

Loops are parameterized by angle fraction z in [0, 1).  The partial arc
entering phi_F runs from angle z to angle 1 counterclockwise; its
orientation, and the slot order of the fiber contraction, are fixed once
against the abelian route comparison (`transgression_consistency` on a
trivial-action module) and recorded here:

* fiber contraction: the variation enters the first slot of B and the
  loop direction the last, phi_F = oint (alpha_{W(z)})_* B(dtau(z), tau'(z)) dz,
  where W(z) transports along the remaining arc z -> 1;
* with this convention the loop-space transport ODE driven by (A_F, phi_F)
  reproduces the inverse H-part of surface transport over the swept
  cylinder bigon.

The loop-space ODE needs phi_F at every time of the loop path.  All those
loops are evaluated on one (time, angle) grid, and their partial arcs come
from one stacked RK4 sweep around the loop, one line per loop: the arc
from z to 1 is W(z) = u(1) u(z)^{-1}, with u the transport from angle 0.
A single loop, as `transgressed_phi` takes it, is the one-line case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import higher_group as hg
from . import lie_core as lc
from .forms import ConnectionPair
from .geometry import (
    DEFAULT_PROFILE,
    Bigon,
    Loop,
    Path,
    SmoothingProfile,
    _difference,
    _expression_map,
    _profiled,
    loop_to_path,
    standard_bigon,
)
from .higher_group import TwoMorphismValue
from .lie_core import AlgebraElement, GroupElement
from .transport import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    _rk4_sweep,
    _semidirect_transports,
    _simpson_weights,
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


class LoopPath:
    """Smooth family of loops: a map [0,1] x S^1 -> R^n with sitting
    instants in the time slot."""

    def __init__(self, eval_fn, ambient_dim: int, dt_fn=None, dz_fn=None):
        self.eval_fn = eval_fn
        self.ambient_dim = int(ambient_dim)
        self.dt_fn = dt_fn
        self.dz_fn = dz_fn

    def point(self, t, z):
        return self.eval_fn(np.asarray(t, dtype=float), np.asarray(z, dtype=float) % 1.0)

    def dt(self, t, z):
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float) % 1.0
        if self.dt_fn is not None:
            return self.dt_fn(t, z)
        return _difference(lambda u: self.eval_fn(u, z), t)

    def dz(self, t, z):
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float) % 1.0
        if self.dz_fn is not None:
            return self.dz_fn(t, z)
        return _difference(lambda u: self.eval_fn(t, u), z, periodic=True)

    def base_path(self) -> Path:
        return _cylinder_map(self).source_path()


def loop_path_from_expressions(component_exprs, profile: SmoothingProfile = DEFAULT_PROFILE,
                               time_var: str = "t", angle_var: str = "z") -> LoopPath:
    """Loop path from expressions in the time and angle variables; the time
    slot is reparameterized by the sitting profile.  The (time, angle) map
    is a two-slot core, so the profile meets it in its first slot."""
    slots = (time_var, angle_var)
    n, ev, (dt, dz) = _expression_map(component_exprs, slots)
    swept = _profiled(Bigon(ev, n, dt, dz), profile)
    return LoopPath(swept.point, n, swept.ds, swept.dt)


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


def _phi_values(pair: ConnectionPair, lp: LoopPath, times: np.ndarray,
                nq: int) -> np.ndarray:
    """phi_F at the loops lp(t, .) in the variations d_t lp(t, .), for every
    t of `times`: shape (m, dh, dh) for m times.  The loop path is evaluated
    on the whole (t, z) grid at once, and the arc transports of all m loops
    come from one stacked sweep of m lines around the loop."""
    desc = pair.A.descriptor
    t, z = np.meshgrid(np.asarray(times, dtype=float), np.linspace(0.0, 1.0, 2 * nq + 1),
                       indexing="ij")
    x = lp.point(t, z)
    v = lp.dz(t, z)
    amats = pair.A.matrices_at(x, v)
    u = _rk4_sweep(amats, 1.0 / nq, desc, "A", " along the loops")
    arcs = u[:, -1:] @ lc.retracted_inverse(desc, u)
    bvals = pair.B.matrices_at(x[:, ::2], lp.dt(t[:, ::2], z[:, ::2]), v[:, ::2])
    integrand = hg.alpha_g_star_matrices(pair.cm, arcs, bvals)
    return np.einsum("t,mtij->mij", _simpson_weights(nq), integrand)


def transgressed_phi(pair: ConnectionPair, tangent: LoopTangent,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> AlgebraElement:
    """Fiber-integrated h-valued loop-space 1-form

        phi_F(tau, dtau) = oint (alpha_{W(z)})_* B(dtau(z), tau'(z)) dz

    with W(z) the transport along the remaining arc from z to 1.  This is
    the one-loop case of the stacked computation that
    `transgression_consistency` runs at every time of a loop path: the
    partial arcs come from one accumulating sweep around the loop.
    """
    tau = tangent.base
    lp = LoopPath(lambda t, z: tau.point(z), tau.ambient_dim,
                  lambda t, z: tangent.vector(z), lambda t, z: tau.velocity(z))
    val = _phi_values(pair, lp, np.zeros(1), cfg.n_quad_t)[0]
    return AlgebraElement(pair.cm.H, val, validate=False)


def _cylinder_map(lp: LoopPath) -> Bigon:
    """The loop path as a chart (angle, time) -> lp(time, angle): a
    two-slot map that does not sit, with the loop path's angle and time
    partials as its exact partials.  Its source edge is the base path, and
    `standard_bigon` sweeps the loop-path bigon through it."""
    return Bigon(lambda a, t: lp.point(t, a), lp.ambient_dim,
                 lambda a, t: lp.dz(t, a), lambda a, t: lp.dt(t, a))


def loop_path_bigon(lp: LoopPath, profile: SmoothingProfile = DEFAULT_PROFILE) -> Bigon:
    """The bigon swept by a loop path: the standard bigon over the full
    (angle, time) rectangle pushed through the cylinder map."""
    return standard_bigon(_cylinder_map(lp), 1.0, 1.0, profile)


def loop_path_two_morphism(pair: ConnectionPair, lp: LoopPath,
                           cfg: IntegratorConfig = DEFAULT_CONFIG) -> TwoMorphismValue:
    """Surface transport over the loop-path bigon, packaged as a
    2-morphism; the G-parts transport along base-point and loop edges."""
    return surface_transport(pair, loop_path_bigon(lp), cfg)


@dataclass(frozen=True)
class ConsistencyReport:
    route_functor: np.ndarray
    route_forms: np.ndarray
    defect: float


def transgression_consistency(pair: ConnectionPair, lp: LoopPath,
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
    n = cfg.n_steps_surface_s
    tt = np.linspace(0.0, 1.0, 2 * n + 1)
    base = lp.base_path()
    xb = base.point(tt)
    vb = base.velocity(tt)
    a_vals = pair.A.matrices_at(xb, vb)
    phi_vals = _phi_values(pair, lp, tt, cfg.n_quad_t)
    h_mat = _semidirect_transports(pair.cm, phi_vals[None], a_vals, n, ("B", "A"),
                                   " along the loop path")[0]

    tv = loop_path_two_morphism(pair, lp, cfg)
    route_functor = np.linalg.inv(tv.h_part.matrix)

    defect = lc.frob(route_functor - h_mat)
    return ConsistencyReport(route_functor, h_mat, defect)
