"""Reconstruction of transport from differential forms: path transport,
surface transport, pseudonatural-transformation transport, derivative
2-functors, and the holonomy/curvature consistency check.

Path transport solves the right-invariant initial value problem

    du/dt = -A_{gamma(t)}(gamma'(t)) u(t),    u(0) = 1,

with the classical 4th-order one-step scheme and a retraction to the group
after each step (prevents drift over long integrations).  Every ODE in the
package is of this left-product form and is solved by `_rk4_sweep`: one
RK4 step is u_{k+1} = P_k u_k with P_k the RK4 transport along the k-th
piece of the path, so the sweep builds every P_k in a few batched passes
and then takes their ordered product.  The retraction returns a group
element whatever the coefficients are, so `_rk4_sweep`, not its callers,
checks that every line it integrates lies in the Lie algebra.

Transformation transport dh = -phi(gamma') h - (alpha_h)_*(A'(gamma')) is
the H-part of path transport of (phi, A') in the semidirect product
H x| G.  Every crossed module acts through a homomorphism
s: G -> H, alpha_g = Ad_{s(g)}, so (h, g) -> (h s(g), s(g)) embeds H x| G
in H x H and

    h = U_{phi + s_* A'} U_{s_* A'}^{-1},

where U_X is the path transport of X: two lines of one sweep in H.

Surface transport of a bigon Sigma under a pair (A, B) integrates the
h-valued driver

    D(s) = - integral_0^1 (alpha_{F_A(gamma_{s,t})^{-1}})_* B(d_s Sigma, d_t Sigma) dt,

where gamma_{s,t} is the t-leg of Sigma at parameter s, by composite
Simpson quadrature; the outer group ODE df/ds = -D(s) f(s) then gives

    k(Sigma) = alpha(F_A(source path), f(1)^{-1}),

and the value on Sigma is the 2-morphism (F_A(source), k, F_A(target)), a
`TwoMorphismValue` whose construction is the one check of target matching
t(k) F_A(source) = F_A(target).
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


# Width from which a sweep of 2x2 lines forms u_{k+1} = P_k u_k with
# `lc.small_matmul` instead of `@`: on one core of a Xeon host `@` costs
# about 18 us on 64 lines and 33 us on 129, `small_matmul` about 14 us on
# either; on one line `@` is about eight times faster.
_SMALL_MATMUL_MIN_LINES = 64


def _rk4_sweep(a, h: float, desc: GroupDescriptor, form: str, where: str):
    """Integrate u' = -a(t) u, u(0) = 1, across a stack of coefficient lines
    by classical RK4 with a retraction onto the group of `desc` after every
    step.

    Every line is checked against the algebra of `desc` first; the
    MembershipError names `form`, whose values the lines are, and `where`.

    `a` has shape (m, 2n+1, d, d) with values at step endpoints and
    midpoints.  The transport along the path is the ordered product of the
    transports of its steps, so every step's RK4 transport P_k is built
    first, in a few batched passes over all lines (`_rk4_propagators`),
    and the step loop only forms u_{k+1} = retract(P_k u_k), by
    `small_matmul` on wide stacks of 2x2 lines.  Returns u at
    the n+1 nodes, shape (m, n+1, d, d); a non-finite final value raises
    NumericalError.
    """
    lc.require_algebra(desc, a, form, where)
    p = _rk4_propagators(np.asarray(a, dtype=complex), h)
    n, m, d, _ = p.shape
    wide = d == 2 and m >= _SMALL_MATMUL_MIN_LINES
    u = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d))
    out = np.empty((m, n + 1, d, d), dtype=complex)
    out[:, 0] = u
    for k in range(n):
        u = lc.retract(desc, lc.small_matmul(p[k], u) if wide else p[k] @ u)
        out[:, k + 1] = u
    if not np.all(np.isfinite(u)):
        raise NumericalError("transport ODE produced non-finite values")
    return out


def _semidirect_transports(cm: CrossedModule, phis: np.ndarray, a_vals: np.ndarray,
                           n: int, forms: tuple[str, str], where: str) -> np.ndarray:
    """h(1) for dh = -phi h - (alpha_h)_*(A'), h(0) = 1, for every line of
    phi values `phis` (m, 2n+1, d, d) against one line of A' values on the
    same half-step grid, as U_{phi + s_* A'} U_{s_* A'}^{-1} (see the
    module docstring): m + 1 lines of one sweep in H.  Returns (m, d, d).

    `forms` names (phi, A').  A' enters H only through s_*, which may be 0
    (b_u1), so A' is checked in the algebra of G here; s_* A' then lies in
    h, and the sweep's check of the summed lines is the check of phi."""
    phi_form, a_form = forms
    lc.require_algebra(cm.G, a_vals, a_form, where)
    sa = cm.s_star(a_vals)
    lines = np.concatenate([phis + sa, sa[None]])
    u = _rk4_sweep(lines, 1.0 / n, cm.H, phi_form, where)[:, -1]
    return u[:-1] @ lc.retracted_inverse(cm.H, u[-1])


def transport_nodes(a_form: OneFormField, gamma: Path, n_steps: int) -> np.ndarray:
    """Transport along gamma, returning the solution at the n_steps+1
    uniform nodes (used for partial-arc transports)."""
    tt = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    x = gamma.point(tt)
    v = gamma.velocity(tt)
    a = a_form.matrices_at(x, v)[None]
    return _rk4_sweep(a, 1.0 / n_steps, a_form.descriptor, "A", " along the path")[0]


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
    u = _rk4_sweep(amats, 1.0 / nt, a_form.descriptor, "A", " over the bigon")
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


def _surface(cm: CrossedModule, a_form: OneFormField, b_at, sigma: Bigon,
             cfg: IntegratorConfig, hard_limit: float) -> TwoMorphismValue:
    """Surface transport of sigma under (A, B) in `cm`, with B given by its
    evaluator `b_at(x, v1, v2)`, as the 2-morphism (F_A(source), k,
    F_A(target)) checked to match within `hard_limit`."""
    ns = cfg.n_steps_surface_s
    s_values = np.linspace(0.0, 1.0, 2 * ns + 1)
    drivers = _surface_driver_values(cm, a_form, b_at, sigma, s_values, cfg)
    # outer ODE f' = -D(s) f on the half-step grid of driver values
    f_end = _rk4_sweep(drivers[None], 1.0 / ns, cm.H, "B", " over the bigon")[0, -1]

    g_source = path_transport(a_form, sigma.source_path(), cfg)
    g_target = path_transport(a_form, sigma.target_path(), cfg)
    k = cm.alpha(g_source.matrix, np.linalg.inv(f_end))
    return TwoMorphismValue(cm, g_source, GroupElement(cm.H, k, validate=False), g_target,
                            match_tolerance=hard_limit)


def surface_transport(pair: ConnectionPair, sigma: Bigon,
                      cfg: IntegratorConfig = DEFAULT_CONFIG) -> TwoMorphismValue:
    """Transport of a bigon under (A, B), the 2-morphism (F_A(source), k,
    F_A(target)); raises TargetMatchingError when the target-matching
    residual exceeds MATCHING_HARD_LIMIT (integration too coarse, or the
    pair is invalid)."""
    return _surface(pair.cm, pair.A, pair.B.matrices_at, sigma, cfg, MATCHING_HARD_LIMIT)


class TwoFunctor:
    """The 2-functor of a pair: path transport on paths and surface
    transport on bigons, whose values are 2-morphisms in the 2-group."""

    def __init__(self, pair: ConnectionPair, cfg: IntegratorConfig = DEFAULT_CONFIG):
        self.pair = pair
        self.cfg = cfg

    def on_path(self, gamma: Path) -> GroupElement:
        return path_transport(self.pair.A, gamma, self.cfg)

    def on_bigon(self, sigma: Bigon) -> TwoMorphismValue:
        return surface_transport(self.pair, sigma, self.cfg)

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


def _transformation_lines(cm: CrossedModule, maps, a_prime: OneFormField, gamma: Path,
                          n: int):
    """h(gamma) for every (g, phi) of `maps`, from one sample of gamma on the
    half-step grid of an n-step sweep and one semidirect sweep.  Returns
    A'(gamma') there, the h matrices (m, d, d) and (g(x), g(y)) per map.
    Raises MembershipError when a g(x), g(y) leaves the group G."""
    tt = np.linspace(0.0, 1.0, 2 * n + 1)
    x = gamma.point(tt)
    v = gamma.velocity(tt)
    phis = np.stack([phi.matrices_at(x, v) for _, phi in maps])
    a_vals = a_prime.matrices_at(x, v)
    h = _semidirect_transports(cm, phis, a_vals, n, ("phi", "A'"), " along the path")
    ends = [tuple(GroupElement(g_map.descriptor, g_map.matrix(p))
                  for p in (gamma.start(), gamma.end())) for g_map, _ in maps]
    return a_vals, h, ends


def transformation_transport(cm: CrossedModule, g_map: GroupValuedMap,
                             phi: OneFormField, a_prime: OneFormField,
                             gamma: Path, cfg: IntegratorConfig = DEFAULT_CONFIG,
                             a_source: OneFormField | None = None) -> TransformationTransportResult:
    """Transport the h-component of a pseudonatural transformation along
    gamma: dh/dt = -phi(gamma') h - (alpha_h)_*(A'(gamma')), h(0) = 1.

    When the source 1-form A is supplied the target-matching residual of
    F'(gamma) g(x) = t(h^{-1}) g(y) F(gamma) is computed and checked.
    Raises MembershipError when g(x) or g(y) leaves the group G.
    """
    n = cfg.n_steps_path
    a_vals, h, [(g_start, g_end)] = _transformation_lines(cm, [(g_map, phi)], a_prime,
                                                           gamma, n)
    residual = None
    if a_source is not None:
        f_src = path_transport(a_source, gamma, cfg)
        f_tgt = _rk4_sweep(a_vals[None], 1.0 / n, cm.G, "A'", " along the path")[0, -1]
        lhs = f_tgt @ g_start.matrix
        rhs_m = cm.t(np.linalg.inv(h[0])) @ g_end.matrix @ f_src.matrix
        residual = lc.frob(lhs - rhs_m) / max(1.0, lc.frob(rhs_m))
        if not residual <= MATCHING_HARD_LIMIT:
            raise TargetMatchingError(
                f"transformation matching residual {residual:.3e}"
            )
    return TransformationTransportResult(GroupElement(cm.H, h[0], validate=False), g_start,
                                         g_end, residual)


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

    # A' is sampled once: h(gamma) and h'(gamma) come from one semidirect
    # sweep, and F'(gamma) is swept from the same values
    n = cfg.n_steps_path
    a_vals, (h1, h2), _ = _transformation_lines(cm, [(g_map, phi), (g2_map, phi2)],
                                                a_prime, gamma, n)
    f_prime = _rk4_sweep(a_vals[None], 1.0 / n, cm.G, "A'", " along the path")[0, -1]

    lhs = cm.alpha(f_prime, a_map.matrix(gamma.start())) @ np.linalg.inv(h1)
    rhs = np.linalg.inv(h2) @ a_map.matrix(gamma.end())
    return lc.frob(lhs - rhs) / max(1.0, lc.frob(rhs))


def derived_modification_target(cm: CrossedModule, a_map: GroupValuedMap,
                                g_map: GroupValuedMap, phi: OneFormField,
                                a_prime: OneFormField):
    """(g2, phi2) obtained from (g, phi) by whiskering with a: X -> H:
    g2 = (t o a) g and phi2 = Ad_a(phi) - a* theta - (r_a^{-1} o alpha_a)_*(A').

    t is a homomorphism, so the Maurer-Cartan pullback of g2 is
    t_*(mc(a)) + Ad_{t(a)} mc(g).  Everything is evaluated on stacks."""

    def g2_eval(x):
        return cm.t(a_map.matrix(x)) @ g_map.matrix(x)

    def g2_mc(i, x):
        ta = cm.t(a_map.matrix(x))
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
    error = lc.frob(res.target.matrix - res.h_part.matrix)
    return StokesReport(res.target, res.h_part, error)
