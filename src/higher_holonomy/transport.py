"""Reconstruction of transport from differential forms: path transport,
surface transport, pseudonatural-transformation transport, derivative
2-functors, and the holonomy/curvature consistency check.

Path transport solves the right-invariant initial value problem

    du/dt = -A_{gamma(t)}(gamma'(t)) u(t),    u(0) = 1,

with the classical 4th-order one-step scheme and a retraction to the group
after each step (prevents drift over long integrations).  Every ODE in the
package -- path, surface and transformation transport and the loop-space
transport -- is solved by the one step loop `_step_loop`.  For the
left-product equations u' = -a(t) u (path, surface and loop-space
transport) one RK4 step is u_{k+1} = P_k u_k with P_k the RK4 transport
along the k-th piece of the path, so `_rk4_sweep` builds every P_k in a
few batched passes before the loop and takes their ordered product;
`_rk4` takes the RK4 stages one step at a time, for the transformation
ODE, whose right-hand side is not a left product.

Surface transport of a bigon Sigma under a pair (A, B) integrates the
h-valued driver

    D(s) = - integral_0^1 (alpha_{F_A(gamma_{s,t})^{-1}})_* B(d_s Sigma, d_t Sigma) dt,

where gamma_{s,t} is the t-leg of Sigma at parameter s, by composite
Simpson quadrature; the outer group ODE df/ds = -D(s) f(s) then gives

    k(Sigma) = alpha(F_A(source path), f(1)^{-1}),

which satisfies the target-matching condition t(k) F_A(source) = F_A(target).
For each outer node the whole family of inner transports is produced by a
single ODE sweep in t, so total work is O(n_s * n_t).  The driver is
evaluated at the genuine half-step s-values the scheme requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import higher_group as hg
from . import lie_core as lc
from .errors import NumericalError, TargetMatchingError
from .forms import ConnectionPair, GroupValuedMap, OneFormField
from .geometry import Bigon, Path
from .higher_group import CrossedModule, TwoMorphismValue
from .lie_core import AlgebraElement, GroupDescriptor, GroupElement


@dataclass(frozen=True)
class IntegratorConfig:
    n_steps_path: int = 256
    n_steps_surface_s: int = 128
    n_quad_t: int = 128

    def __post_init__(self):
        if self.n_steps_path < 8:
            raise ValueError("n_steps_path must be at least 8")
        if self.n_steps_surface_s < 1 or self.n_quad_t < 2:
            raise ValueError("surface step counts must be positive")
        if self.n_quad_t % 2:
            raise ValueError("n_quad_t must be even (composite Simpson)")

    def refined(self, factor: int = 2) -> "IntegratorConfig":
        return IntegratorConfig(
            self.n_steps_path * factor,
            self.n_steps_surface_s * factor,
            self.n_quad_t * factor,
        )


DEFAULT_CONFIG = IntegratorConfig()

# Largest relative target-matching residual that surface and transformation
# transport accept before raising TargetMatchingError.
MATCHING_HARD_LIMIT = 1e-3


def _step_loop(step, u0: np.ndarray, n: int, desc: GroupDescriptor,
               keep_nodes: bool) -> np.ndarray:
    """u_{k+1} = retract(step(k, u_k)) onto the group of `desc` for k < n,
    from u0 (one matrix or a stack (..., d, d)).  Returns the solution at
    the n+1 nodes, shape (..., n+1, d, d), or only the final value when
    keep_nodes is false; a non-finite final value raises NumericalError."""
    u = u0
    out = None
    if keep_nodes:
        out = np.empty(u.shape[:-2] + (n + 1,) + u.shape[-2:], dtype=complex)
        out[..., 0, :, :] = u
    for k in range(n):
        u = lc.retract(desc, step(k, u))
        if keep_nodes:
            out[..., k + 1, :, :] = u
    if not np.all(np.isfinite(u)):
        raise NumericalError("transport ODE produced non-finite values")
    return out if keep_nodes else u


def _rk4(rhs, u0: np.ndarray, n: int, h: float, desc: GroupDescriptor,
         keep_nodes: bool) -> np.ndarray:
    """Integrate u' = rhs(i, u) over n classical RK4 steps of size h from
    u0, retracting onto the group of `desc` after every step.

    `rhs(i, u)` is the right-hand side at half-step index i in 0..2n (step k
    uses i = 2k, 2k+1, 2k+2).  `u0` is one matrix or a stack (..., d, d).
    Returns the solution at the n+1 nodes, shape (..., n+1, d, d), or only
    the final value when keep_nodes is false.
    """
    def step(k, u):
        i = 2 * k
        k1 = rhs(i, u)
        k2 = rhs(i + 1, u + (0.5 * h) * k1)
        k3 = rhs(i + 1, u + (0.5 * h) * k2)
        k4 = rhs(i + 2, u + h * k3)
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _step_loop(step, u0, n, desc, keep_nodes)


def _rk4_propagators(a: np.ndarray, h: float) -> np.ndarray:
    """The RK4 transports P_k of u' = -a(t) u along every step of every line:
    u_{k+1} = P_k u_k is one classical RK4 step, with

        P_k = 1 - (h/6)(a0 + 2 K2 + 2 K3 + K4),
        K2 = am (1 - (h/2) a0),  K3 = am (1 - (h/2) K2),  K4 = a1 (1 - h K3),

    and a0, am, a1 the values of a at half-step indices 2k, 2k+1, 2k+2.
    `a` has shape (m, 2n+1, d, d); the result has shape (n, m, d, d), so
    that each step reads one contiguous stack.  Built in place with one
    scratch stack besides the result; `a` is not modified."""
    a = a.swapaxes(0, 1)
    a0, am, a1 = a[:-1:2], a[1::2], a[2::2]
    p = a0.copy()
    kk = a0.copy()
    diag = np.einsum("...ii->...i", kk)
    for x, c, weight in ((am, 0.5 * h, 2), (am, 0.5 * h, 2), (a1, h, 1)):
        kk *= -c
        diag += 1.0
        lc.small_matmul(x, kk, out=kk)  # kk <- x (1 - c kk): K2, K3, then K4
        for _ in range(weight):
            p += kk
    p *= -h / 6.0
    np.einsum("...ii->...i", p)[...] += 1.0
    return p


def _rk4_sweep(a, h: float, desc: GroupDescriptor, keep_nodes: bool = True):
    """Integrate u' = -a(t) u, u(0) = 1, across a stack of coefficient lines
    by classical RK4 with a retraction after every step.

    `a` has shape (m, 2n+1, d, d) with values at step endpoints and
    midpoints.  The transport along the path is the ordered product of the
    transports of its steps, so every step's RK4 transport P_k is built
    first, in a few batched passes over all lines (`_rk4_propagators`),
    and the step loop only forms u_{k+1} = retract(P_k u_k).  Returns u at
    the n+1 nodes, shape (m, n+1, d, d), or the final values (m, d, d)
    when keep_nodes is false.
    """
    p = _rk4_propagators(np.asarray(a, dtype=complex), h)
    n, m, d, _ = p.shape
    u0 = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d))
    return _step_loop(lambda k, u: p[k] @ u, u0, n, desc, keep_nodes)


def _transformation_ode(cm: CrossedModule, phis: np.ndarray, a_vals: np.ndarray,
                        n: int) -> np.ndarray:
    """Solve dh = -phi h - (alpha_h)_*(A), h(0) = 1, over n steps from the
    values of phi and A on the half-step grid (2n+1 values each); returns
    h(1)."""
    def rhs(i, hm):
        return -(phis[i] @ hm) - hg.alpha_action_diff(cm, a_vals[i], hm)

    h0 = np.eye(cm.H.matrix_dim, dtype=complex)
    return _rk4(rhs, h0, n, 1.0 / n, cm.H, keep_nodes=False)


def transport_nodes(a_form: OneFormField, gamma: Path, n_steps: int) -> np.ndarray:
    """Transport along gamma, returning the solution at the n_steps+1
    uniform nodes (used for partial-arc transports).  Raises
    MembershipError when A(gamma') leaves the Lie algebra, which the
    per-step retraction would otherwise hide."""
    tt = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    x = gamma.point(tt)
    v = gamma.velocity(tt)
    a = a_form.matrices_at(x, v)[None]
    lc.require_algebra(a_form.descriptor, a, "A", " along the path")
    return _rk4_sweep(a, 1.0 / n_steps, a_form.descriptor)[0]


def path_transport(a_form: OneFormField, gamma: Path,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> GroupElement:
    """Path-ordered exponential of -A along gamma."""
    nodes = transport_nodes(a_form, gamma, cfg.n_steps_path)
    return GroupElement(a_form.descriptor, nodes[-1], validate=False)


def _inner_transports(a_form: OneFormField, sigma: Bigon, s_values: np.ndarray,
                      nt: int):
    """One ODE sweep in t per s-line, batched: returns positions, t-velocities
    and transports F_A(gamma_{s,t}) at the nt+1 Simpson nodes."""
    tt = np.linspace(0.0, 1.0, 2 * nt + 1)
    s_grid = s_values[:, None]
    t_grid = tt[None, :]
    x = sigma.point(s_grid, t_grid)
    vt = sigma.dt(s_grid, t_grid)
    amats = a_form.matrices_at(x, vt)
    u = _rk4_sweep(amats, 1.0 / nt, a_form.descriptor)
    return x[:, ::2], vt[:, ::2], u


def _simpson_weights(nt: int) -> np.ndarray:
    w = np.ones(nt + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * nt)


def _surface_driver_values(cm: CrossedModule, a_form: OneFormField, b_at, sigma: Bigon,
                           s_values: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Driver values D(s) at `s_values`; `b_at(x, v1, v2)` evaluates the
    h-valued 2-form on stacked points."""
    nt = cfg.n_quad_t
    x, vt, u = _inner_transports(a_form, sigma, s_values, nt)
    tt_nodes = np.linspace(0.0, 1.0, nt + 1)
    vs = sigma.ds(s_values[:, None], tt_nodes[None, :])
    bmats = b_at(x, vs, vt)
    integrand = hg.alpha_g_star_matrices(cm, lc.retracted_inverse(a_form.descriptor, u), bmats)
    w = _simpson_weights(nt)
    return -np.einsum("t,mtij->mij", w, integrand)


def surface_driver(pair: ConnectionPair, sigma: Bigon, s: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> AlgebraElement:
    """The h-valued driver 1-form of the outer surface ODE, evaluated at s."""
    val = _surface_driver_values(pair.cm, pair.A, pair.B.matrices_at, sigma,
                                 np.asarray([float(s)]), cfg)[0]
    return AlgebraElement(pair.cm.H, val, validate=False)


@dataclass(frozen=True)
class SurfaceTransportResult:
    """Surface transport output with its target-matching witness."""

    k: GroupElement
    g_source: GroupElement
    g_target: GroupElement
    matching_residual: float


def _surface(cm: CrossedModule, a_form: OneFormField, b_at, sigma: Bigon,
             cfg: IntegratorConfig, hard_limit: float) -> SurfaceTransportResult:
    """Surface transport of sigma under (A, B) in `cm`, with B given by its
    evaluator `b_at(x, v1, v2)`."""
    ns = cfg.n_steps_surface_s
    s_values = np.linspace(0.0, 1.0, 2 * ns + 1)
    drivers = _surface_driver_values(cm, a_form, b_at, sigma, s_values, cfg)
    # outer ODE f' = -D(s) f on the half-step grid of driver values
    f_end = _rk4_sweep(drivers[None], 1.0 / ns, cm.H, keep_nodes=False)[0]

    g_source = path_transport(a_form, sigma.source_path(), cfg)
    g_target = path_transport(a_form, sigma.target_path(), cfg)
    f_el = GroupElement(cm.H, np.linalg.inv(f_end), validate=False)
    k = cm.alpha(g_source, f_el)

    lhs = cm.t(k).matrix @ g_source.matrix
    residual = lc.frob(lhs - g_target.matrix) / max(1.0, lc.frob(g_target.matrix))
    if residual > hard_limit:
        raise TargetMatchingError(
            f"matching residual {residual:.3e} exceeds hard limit {hard_limit:.1e}"
        )
    return SurfaceTransportResult(k, g_source, g_target, residual)


def surface_transport(pair: ConnectionPair, sigma: Bigon,
                      cfg: IntegratorConfig = DEFAULT_CONFIG) -> SurfaceTransportResult:
    """Transport of a bigon under (A, B); raises TargetMatchingError when
    the target-matching residual exceeds MATCHING_HARD_LIMIT (integration
    too coarse, or the pair is invalid)."""
    return _surface(pair.cm, pair.A, pair.B.matrices_at, sigma, cfg, MATCHING_HARD_LIMIT)


class TwoFunctor:
    """Evaluator bundling path transport on boundary paths with the
    surface-transport h-part; values are 2-morphisms in the 2-group."""

    def __init__(self, pair: ConnectionPair, cfg: IntegratorConfig = DEFAULT_CONFIG):
        self.pair = pair
        self.cfg = cfg

    def on_path(self, gamma: Path) -> GroupElement:
        return path_transport(self.pair.A, gamma, self.cfg)

    def on_bigon(self, sigma: Bigon) -> TwoMorphismValue:
        res = surface_transport(self.pair, sigma, self.cfg)
        return TwoMorphismValue(
            self.pair.cm, res.g_source, res.k, res.g_target,
            match_tolerance=1e-3,
        )

    __call__ = on_bigon


def two_functor(pair: ConnectionPair, cfg: IntegratorConfig = DEFAULT_CONFIG) -> TwoFunctor:
    return TwoFunctor(pair, cfg)


class DerivativeTwoFunctor:
    """The canonical lift of path transport to the inner 2-group: the value
    on a bigon is the unique filler h = F(target) F(source)^{-1}."""

    def __init__(self, a_form: OneFormField, cfg: IntegratorConfig = DEFAULT_CONFIG):
        self.a_form = a_form
        self.cfg = cfg
        self.cm = hg.make_eg(a_form.descriptor)

    def on_path(self, gamma: Path) -> GroupElement:
        return path_transport(self.a_form, gamma, self.cfg)

    def on_bigon(self, sigma: Bigon) -> TwoMorphismValue:
        f0 = self.on_path(sigma.source_path())
        f1 = self.on_path(sigma.target_path())
        h = GroupElement(self.cm.H, f1.matrix @ np.linalg.inv(f0.matrix), validate=False)
        return TwoMorphismValue(self.cm, f0, h, f1, match_tolerance=1e-6)

    __call__ = on_bigon


def derivative_2functor(a_form: OneFormField,
                        cfg: IntegratorConfig = DEFAULT_CONFIG) -> DerivativeTwoFunctor:
    return DerivativeTwoFunctor(a_form, cfg)


@dataclass(frozen=True)
class TransformationTransportResult:
    h: GroupElement
    g_start: GroupElement
    g_end: GroupElement
    matching_residual: float | None


def transformation_transport(cm: CrossedModule, g_map: GroupValuedMap,
                             phi: OneFormField, a_prime: OneFormField,
                             gamma: Path, cfg: IntegratorConfig = DEFAULT_CONFIG,
                             a_source: OneFormField | None = None) -> TransformationTransportResult:
    """Transport the h-component of a pseudonatural transformation along
    gamma: dh/dt = -phi(gamma') h - (alpha_h)_*(A'(gamma')), h(0) = 1.

    When the source 1-form A is supplied the target-matching residual of
    F'(gamma) g(x) = t(h^{-1}) g(y) F(gamma) is computed and checked.
    """
    n = cfg.n_steps_path
    tt = np.linspace(0.0, 1.0, 2 * n + 1)
    x = gamma.point(tt)
    v = gamma.velocity(tt)
    h_mat = _transformation_ode(cm, phi.matrices_at(x, v), a_prime.matrices_at(x, v), n)

    h_el = GroupElement(cm.H, h_mat, validate=False)
    g_start = g_map.element(gamma.start())
    g_end = g_map.element(gamma.end())
    residual = None
    if a_source is not None:
        f_src = path_transport(a_source, gamma, cfg)
        f_tgt = path_transport(a_prime, gamma, cfg)
        lhs = f_tgt.matrix @ g_start.matrix
        rhs_m = cm.t(lc.ginv(h_el)).matrix @ g_end.matrix @ f_src.matrix
        residual = lc.frob(lhs - rhs_m) / max(1.0, lc.frob(rhs_m))
        if residual > MATCHING_HARD_LIMIT:
            raise TargetMatchingError(
                f"transformation matching residual {residual:.3e}"
            )
    return TransformationTransportResult(h_el, g_start, g_end, residual)


def modification_whisker(cm: CrossedModule, a_map, a_prime: OneFormField,
                         g_map: GroupValuedMap, phi: OneFormField,
                         gamma: Path, cfg: IntegratorConfig = DEFAULT_CONFIG,
                         g2_map: GroupValuedMap | None = None,
                         phi2: OneFormField | None = None) -> float:
    """Defect of the modification axiom
    alpha(F'(gamma), a(x)) h(gamma)^{-1} = h'(gamma)^{-1} a(y)
    for a candidate component map a: X -> H.

    When (g2, phi2) are omitted they are derived from (g, phi, a) by the
    2-morphism equations, so the defect measures only whether `a`
    intertwines the two transformation transports.
    """
    if phi2 is None or g2_map is None:
        g2_map, phi2 = derived_modification_target(cm, a_map, g_map, phi, a_prime)

    h1 = transformation_transport(cm, g_map, phi, a_prime, gamma, cfg).h
    h2 = transformation_transport(cm, g2_map, phi2, a_prime, gamma, cfg).h
    f_prime = path_transport(a_prime, gamma, cfg)

    a_x = a_map.element(gamma.start())
    a_y = a_map.element(gamma.end())
    lhs = cm.alpha(f_prime, a_x).matrix @ np.linalg.inv(h1.matrix)
    rhs = np.linalg.inv(h2.matrix) @ a_y.matrix
    return lc.frob(lhs - rhs) / max(1.0, lc.frob(rhs))


def derived_modification_target(cm: CrossedModule, a_map: GroupValuedMap,
                                g_map: GroupValuedMap, phi: OneFormField,
                                a_prime: OneFormField):
    """(g2, phi2) obtained from (g, phi) by whiskering with a: X -> H:
    g2 = (t o a) g and phi2 = Ad_a(phi) - a* theta - (r_a^{-1} o alpha_a)_*(A').

    t is a homomorphism, so the Maurer-Cartan pullback of g2 is
    t_*(mc(a)) + Ad_{t(a)} mc(g).  t acts on `GroupElement`s, so t(a) is
    taken one point at a time; everything else is evaluated on stacks."""

    def t_of_a(x):
        base = x.shape[:-1]
        pts = x.reshape(-1, x.shape[-1])
        ta = np.stack([cm.t(a_map.element(p)).matrix for p in pts])
        return ta.reshape(base + ta.shape[-2:])

    def g2_eval(x):
        return t_of_a(x) @ g_map.matrix(x)

    def g2_mc(i, x):
        ta = t_of_a(x)
        return cm.t_star(a_map.mc_fn(i, x)) + ta @ g_map.mc_fn(i, x) @ np.linalg.inv(ta)

    def component(i):
        def comp(x):
            a = a_map.matrix(x)
            ad = a @ phi.components[i].eval(x) @ np.linalg.inv(a)
            conj = hg.alpha_conjugate_star(cm, a, a_prime.components[i].eval(x))
            return ad - a_map.mc_fn(i, x) - conj
        return comp

    n = phi.ambient_dim
    comps = [fm.CallableMatrixField(component(i), cm.H.matrix_dim, n) for i in range(n)]
    return GroupValuedMap(cm.G, g2_eval, g2_mc), OneFormField(cm.H, comps, n)


@dataclass(frozen=True)
class StokesReport:
    lhs: GroupElement
    rhs: GroupElement
    error: float


def stokes_check(a_form: OneFormField, sigma: Bigon,
                 cfg: IntegratorConfig = DEFAULT_CONFIG) -> StokesReport:
    """Compare the holonomy of the boundary loop of a contraction bigon
    (source = constant path) against surface transport of the inner-2-group
    pair (A, K_A) over it.

    lhs = F_A(target path); rhs = k, the H-part of surface transport, which
    for this pair is alpha(F_A(source), f(1)^{-1}) with f driven by
    D(s) = -int_0^1 Ad^{-1}_{F_A(gamma_{s,t})} K(d_s, d_t) dt.  The matching
    limit is lifted so a coarse integration still returns its error.  K_A
    is evaluated only where the surface driver needs it, so no
    fake-curvature check is sampled (B = K_A holds by construction).
    """
    def k_a(x, v1, v2):
        return fm.curvature_matrices_at(a_form, x, v1, v2)

    res = _surface(hg.make_eg(a_form.descriptor), a_form, k_a, sigma, cfg, math.inf)
    error = lc.frob(res.g_target.matrix - res.k.matrix)
    return StokesReport(res.g_target, res.k, error)
