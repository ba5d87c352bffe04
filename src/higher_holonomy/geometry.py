"""Paths, bigons, and loops in open subsets of R^n.

A `Bigon` is the one two-slot map: a bigon when it sits, and otherwise a
chart or a core.  A chart carries exact partials, and `standard_bigon`
pushes the standard bigon of a coordinate rectangle through them.

All evaluators are closures over closed-form data and broadcast over numpy
parameter arrays; discretization happens only in the transport and
quadrature routines.  Sitting instants are realized by a mollifier-based
profile that is genuinely flat near the parameter boundary, so compositions
stay smooth.  Polynomial smoothsteps are only finitely flat and are not
offered.

Every constructor that uses the profile builds a core map and hands it to
`_profiled`, the one place where the profile is applied; the chain rules
behind it also serve `reparameterize` and `Bigon.reparameterized`.
"""

from __future__ import annotations

import numpy as np

from . import expressions as xp
from .errors import CompositionError, DomainError

_FD_STEP = 1e-6


class SmoothingProfile:
    """C-infinity reparameterization of [0,1] that is exactly 0 on
    [0, epsilon] and exactly 1 on [1-epsilon, 1], built from the standard
    mollifier exp(-1/u)."""

    def __init__(self, epsilon: float = 0.1):
        if not 0.0 < epsilon < 0.5:
            raise DomainError("epsilon must lie in (0, 1/2)")
        self.epsilon = float(epsilon)

    @staticmethod
    def _bump(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        pos = v > 0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[pos] = np.exp(-1.0 / v[pos])
        return out

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        eps = self.epsilon
        v = np.clip((u - eps) / (1.0 - 2.0 * eps), 0.0, 1.0)
        b1 = self._bump(v)
        b2 = self._bump(1.0 - v)
        out = b1 / (b1 + b2)
        return out if out.shape else float(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        eps = self.epsilon
        raw = (u - eps) / (1.0 - 2.0 * eps)
        v = np.clip(raw, 0.0, 1.0)
        b1 = self._bump(v)
        b2 = self._bump(1.0 - v)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            db1 = np.where(v > 0, b1 / np.maximum(v, 1e-300) ** 2, 0.0)
            db2 = np.where(v < 1, b2 / np.maximum(1.0 - v, 1e-300) ** 2, 0.0)
        denom = (b1 + b2) ** 2
        dpsi = (db1 * b2 + b1 * db2) / denom
        inside = (raw > 0.0) & (raw < 1.0)
        out = np.where(inside, dpsi / (1.0 - 2.0 * eps), 0.0)
        return out if out.shape else float(out)


DEFAULT_PROFILE = SmoothingProfile(0.1)


def _difference(fn, u, periodic=False):
    """Difference quotient of `fn` at `u` with step _FD_STEP: central and
    wrapped mod 1 in a periodic slot, otherwise clipped to [0, 1], so that
    it turns one-sided at the ends."""
    u = np.asarray(u, dtype=float)
    if periodic:
        return (fn((u + _FD_STEP) % 1.0) - fn((u - _FD_STEP) % 1.0)) / (2.0 * _FD_STEP)
    up, um = np.minimum(u + _FD_STEP, 1.0), np.maximum(u - _FD_STEP, 0.0)
    return (fn(up) - fn(um)) / (up - um)[..., None]


def _halves(u, first, second):
    """Concatenation at u = 1/2: `first` on [0, 1/2) and `second` on
    [1/2, 1], each run over its own [0, 1] at double speed."""
    u = np.asarray(u, dtype=float)
    return np.where((u < 0.5)[..., None], first(np.clip(2.0 * u, 0.0, 1.0)),
                    second(np.clip(2.0 * u - 1.0, 0.0, 1.0)))


def _expression_map(component_exprs, variables):
    """Evaluators of one real expression per coordinate, taking the
    `variables` positionally and broadcasting: (n, map, [partial in each
    variable])."""
    exprs = [xp.parse(e) for e in component_exprs]

    def evaluator(items):
        def ev(*args):
            args = [np.asarray(a, dtype=float) for a in args]
            shape = np.broadcast_shapes(*(a.shape for a in args))
            env = dict(zip(variables, args))
            return np.stack([np.broadcast_to(np.real(e.evaluate(env)), shape)
                             for e in items], axis=-1).astype(float)
        return ev

    return len(exprs), evaluator(exprs), [
        evaluator([xp.derivative(e, v) for e in exprs]) for v in variables]


class Path:
    """Smooth map [0,1] -> R^n.  `eval_fn` must broadcast over parameter
    arrays and return shape (..., n); `deriv_fn` is the exact velocity when
    available, otherwise a central difference is used."""

    def __init__(self, eval_fn, ambient_dim: int, deriv_fn=None, sitting=None):
        self.eval_fn = eval_fn
        self.ambient_dim = int(ambient_dim)
        self.deriv_fn = deriv_fn
        self.sitting = sitting

    def point(self, t):
        return self.eval_fn(t)

    __call__ = point

    def velocity(self, t):
        if self.deriv_fn is not None:
            return self.deriv_fn(t)
        return _difference(self.eval_fn, t)

    def start(self):
        return self.point(0.0)

    def end(self):
        return self.point(1.0)


def constant_path(x, ambient_dim=None) -> Path:
    x = np.asarray(x, dtype=float)
    n = ambient_dim or x.shape[-1]

    def ev(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(x, t.shape + (n,)).copy()

    def dv(t):
        t = np.asarray(t, dtype=float)
        return np.zeros(t.shape + (n,))

    return Path(ev, n, dv, sitting=DEFAULT_PROFILE)


def line_path(a, b, profile: SmoothingProfile = DEFAULT_PROFILE) -> Path:
    """Straight segment from a to b with sitting instants."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    core = Path(lambda u: a + np.asarray(u, dtype=float)[..., None] * d, a.shape[-1],
                lambda u: np.broadcast_to(d, np.shape(u) + d.shape))
    return _profiled(core, profile)


def path_from_expressions(component_exprs, profile: SmoothingProfile = DEFAULT_PROFILE,
                          var: str = "t") -> Path:
    """Path from one expression per coordinate in the variable `var`,
    reparameterized by the sitting profile."""
    n, ev, (dv,) = _expression_map(component_exprs, (var,))
    return _profiled(Path(ev, n, dv), profile)


def path_compose(gamma1: Path, gamma2: Path, tol: float = 1e-10) -> Path:
    """Concatenation at parameter 1/2; endpoints must agree within tol."""
    gap = float(np.max(np.abs(gamma1.end() - gamma2.start())))
    if not gap <= tol:
        raise CompositionError(f"endpoint mismatch {gap:.3e} exceeds {tol:.1e}")

    sitting = None
    if gamma1.sitting is not None and gamma2.sitting is not None:
        sitting = SmoothingProfile(
            min(gamma1.sitting.epsilon, gamma2.sitting.epsilon) / 2.0
        )
    return Path(lambda t: _halves(t, gamma1.point, gamma2.point), gamma1.ambient_dim,
                lambda t: 2.0 * _halves(t, gamma1.velocity, gamma2.velocity), sitting=sitting)


def path_reverse(gamma: Path) -> Path:
    def ev(t):
        return gamma.point(1.0 - np.asarray(t, dtype=float))

    def dv(t):
        return -gamma.velocity(1.0 - np.asarray(t, dtype=float))

    return Path(ev, gamma.ambient_dim, dv, sitting=gamma.sitting)


def reparameterize(gamma: Path, beta, beta_deriv=None) -> Path:
    """Precompose with an orientation-preserving diffeomorphism of [0,1].

    `beta` may be a SmoothingProfile (derivative known exactly) or a plain
    callable (derivative by finite differences unless given)."""
    return _path_chain(gamma, beta, beta_deriv)


def sup_distance(p: Path, q: Path, n_nodes: int = 64) -> float:
    """Sampled sup-distance at Chebyshev-like nodes including endpoints."""
    k = np.arange(n_nodes)
    t = 0.5 * (1.0 - np.cos(np.pi * k / (n_nodes - 1)))
    return float(np.max(np.abs(p.point(t) - q.point(t))))


def path_sitting_defect(gamma: Path, n_nodes: int = 16) -> float:
    """Sampled violation of constancy on the sitting strips."""
    if gamma.sitting is None:
        return 0.0
    eps = gamma.sitting.epsilon
    lo = np.linspace(0.0, eps * 0.999, n_nodes)
    hi = np.linspace(1.0 - eps * 0.999, 1.0, n_nodes)
    d0 = np.max(np.abs(gamma.point(lo) - gamma.start()))
    d1 = np.max(np.abs(gamma.point(hi) - gamma.end()))
    return float(max(d0, d1))


class Loop:
    """Smooth map S^1 -> R^n parameterized by angle fraction z in [0,1);
    evaluation wraps z modulo 1."""

    def __init__(self, eval_fn, ambient_dim: int, deriv_fn=None):
        self.eval_fn = eval_fn
        self.ambient_dim = int(ambient_dim)
        self.deriv_fn = deriv_fn

    def point(self, z):
        return self.eval_fn(np.asarray(z, dtype=float) % 1.0)

    __call__ = point

    def velocity(self, z):
        z = np.asarray(z, dtype=float) % 1.0
        if self.deriv_fn is not None:
            return self.deriv_fn(z)
        return _difference(self.eval_fn, z, periodic=True)

    def base_point(self):
        return self.point(0.0)


def loop_from_expressions(component_exprs, var: str = "z") -> Loop:
    n, ev, (dv,) = _expression_map(component_exprs, (var,))
    return Loop(ev, n, dv)


def loop_to_path(tau: Loop, profile: SmoothingProfile = DEFAULT_PROFILE) -> Path:
    """Based path t -> tau(beta(t)) traversing the loop once from its base
    point, with sitting instants supplied by the profile."""
    return _profiled(tau, profile)


class Bigon:
    """Smooth two-slot map (s, t) -> R^n.  `eval_fn(s, t)` broadcasts over
    parameter arrays; `ds_fn`/`dt_fn` are exact partials when available.
    It is a bigon when it sits: on [0,1]^2, between two paths with common
    endpoints, and constant on the boundary strips of width
    `sitting.epsilon`.  Charts and the cores that `_profiled` takes do not
    sit (`sitting=None`)."""

    def __init__(self, eval_fn, ambient_dim: int, ds_fn=None, dt_fn=None, sitting=None):
        self.eval_fn = eval_fn
        self.ambient_dim = int(ambient_dim)
        self.ds_fn = ds_fn
        self.dt_fn = dt_fn
        self.sitting = sitting

    def point(self, s, t):
        return self.eval_fn(np.asarray(s, dtype=float), np.asarray(t, dtype=float))

    __call__ = point

    def ds(self, s, t):
        if self.ds_fn is not None:
            return self.ds_fn(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        return _difference(lambda u: self.point(u, t), s)

    def dt(self, s, t):
        if self.dt_fn is not None:
            return self.dt_fn(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        return _difference(lambda u: self.point(s, u), t)

    def _edge(self, s: float) -> Path:
        """The path t -> self(s, t), sitting as the map does."""
        return Path(lambda t: self.point(np.full(np.shape(t), s), t), self.ambient_dim,
                    lambda t: self.dt(np.full(np.shape(t), s), t), sitting=self.sitting)

    def source_path(self) -> Path:
        return self._edge(0.0)

    def target_path(self) -> Path:
        return self._edge(1.0)

    def reparameterized(self, beta_s=None, beta_t=None) -> "Bigon":
        """Precompose both parameters with diffeomorphisms of [0,1]; a slot
        left None stays as it is, with its partial exact."""
        return _bigon_chain(self, beta_s, beta_t)


def affine_chart(x, v1, v2) -> Bigon:
    """(a, b) -> x + a v1 + b v2, with partials v1 and v2."""
    x = np.asarray(x, dtype=float)
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    j = np.stack([v1, v2], axis=-1)

    def ev(a, b):
        return x + np.stack(np.broadcast_arrays(a, b), -1) @ j.T

    def constant(v):
        return lambda a, b: np.broadcast_to(v, np.broadcast_shapes(a.shape, b.shape) + v.shape)

    return Bigon(ev, x.shape[-1], constant(v1), constant(v2))


def identity_chart() -> Bigon:
    return affine_chart(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def chart_from_expressions(component_exprs, vars=("s", "t")) -> Bigon:
    n, ev, partials = _expression_map(component_exprs, vars)
    return Bigon(ev, n, *partials)


def identity_bigon(gamma: Path) -> Bigon:
    def ev(s, t):
        s = np.asarray(s, dtype=float)
        p = gamma.point(t)
        return np.broadcast_to(p, np.broadcast_shapes(s.shape, p.shape[:-1]) + p.shape[-1:]).copy()

    def dsf(s, t):
        return np.zeros(np.broadcast_shapes(np.shape(s), np.shape(t)) + (gamma.ambient_dim,))

    def dtf(s, t):
        v = gamma.velocity(t)
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(v, np.broadcast_shapes(s.shape, v.shape[:-1]) + v.shape[-1:]).copy()

    return Bigon(ev, gamma.ambient_dim, dsf, dtf, sitting=gamma.sitting or DEFAULT_PROFILE)


def bigon_between(p0: Path, p1: Path, profile: SmoothingProfile = DEFAULT_PROFILE,
                  tol: float = 1e-10) -> Bigon:
    """Linear homotopy bigon p0 => p1 between paths sharing endpoints.
    Valid whenever the ambient region between the paths is contained in the
    domain of interest (e.g. convex domains)."""
    if not (float(np.max(np.abs(p0.start() - p1.start()))) <= tol
            and float(np.max(np.abs(p0.end() - p1.end()))) <= tol):
        raise CompositionError("paths do not share endpoints")
    eps = profile.epsilon
    for p in (p0, p1):
        if p.sitting is not None:
            eps = min(eps, p.sitting.epsilon)

    def ev(u, t):
        return (1.0 - u[..., None]) * p0.point(t) + u[..., None] * p1.point(t)

    def dtf(u, t):
        return (1.0 - u[..., None]) * p0.velocity(t) + u[..., None] * p1.velocity(t)

    core = Bigon(ev, p0.ambient_dim, lambda u, t: p1.point(t) - p0.point(t), dtf)
    return _profiled(core, profile, SmoothingProfile(eps))


def bigon_vcompose(sigma: Bigon, sigma_prime: Bigon, tol: float = 1e-8) -> Bigon:
    """Vertical stacking: sigma for s < 1/2, sigma_prime above; the target
    path of sigma must equal the source path of sigma_prime."""
    gap = sup_distance(sigma.target_path(), sigma_prime.source_path())
    if not gap <= tol:
        raise CompositionError(f"target/source paths differ by {gap:.3e}")

    def ev(s, t):
        return _halves(s, lambda u: sigma.point(u, t), lambda u: sigma_prime.point(u, t))

    def dsf(s, t):
        return 2.0 * _halves(s, lambda u: sigma.ds(u, t), lambda u: sigma_prime.ds(u, t))

    def dtf(s, t):
        return _halves(s, lambda u: sigma.dt(u, t), lambda u: sigma_prime.dt(u, t))

    return Bigon(ev, sigma.ambient_dim, dsf, dtf, sitting=None)


def bigon_hcompose(sigma1: Bigon, sigma2: Bigon, tol: float = 1e-8) -> Bigon:
    """Horizontal pasting: sigma1 for t < 1/2, sigma2 after; requires the
    end of sigma1's path family to match the start of sigma2's."""
    s_probe = np.linspace(0.0, 1.0, 9)
    gap = float(np.max(np.abs(sigma1.point(s_probe, np.ones(9)) -
                              sigma2.point(s_probe, np.zeros(9)))))
    if not gap <= tol:
        raise CompositionError(f"path families do not meet (gap {gap:.3e})")

    def ev(s, t):
        return _halves(t, lambda u: sigma1.point(s, u), lambda u: sigma2.point(s, u))

    def dsf(s, t):
        return _halves(t, lambda u: sigma1.ds(s, u), lambda u: sigma2.ds(s, u))

    def dtf(s, t):
        return 2.0 * _halves(t, lambda u: sigma1.dt(s, u), lambda u: sigma2.dt(s, u))

    return Bigon(ev, sigma1.ambient_dim, dsf, dtf, sitting=None)


def standard_bigon(chart, s: float, t: float,
                   profile: SmoothingProfile = DEFAULT_PROFILE) -> Bigon:
    """The canonical bigon sweeping the coordinate rectangle spanned by
    (0,0) and (s,t), pushed forward by `chart`: a two-slot map with exact
    partials, whose Jacobian at a point has the columns (ds, dt).

    Its source path runs (0,0) -> (0,t) -> (s,t) (second coordinate first)
    and its target path runs (0,0) -> (s,0) -> (s,t); the sweep is the
    straight-line homotopy between the two edge paths.  Orientation fixed
    so that the mixed derivative of surface transport at (s,t)=(0,0)
    recovers the driving 2-form values (see transport module).
    """
    if not (isinstance(chart, Bigon) and chart.ds_fn and chart.dt_fn):
        raise TypeError("standard_bigon expects a Bigon chart with exact partials")
    origin = np.zeros(2)
    corner_s = np.array([float(s), 0.0])
    corner_t = np.array([0.0, float(t)])
    corner_st = np.array([float(s), float(t)])

    src = path_compose(line_path(origin, corner_t, profile),
                       line_path(corner_t, corner_st, profile))
    tgt = path_compose(line_path(origin, corner_s, profile),
                       line_path(corner_s, corner_st, profile))
    plane = bigon_between(src, tgt, profile)

    def at(ss, tt):
        p = plane.point(ss, tt)
        return p[..., 0], p[..., 1]

    def pushed(partial):
        def fn(ss, tt):
            a, b = at(ss, tt)
            jac = np.stack([chart.ds(a, b), chart.dt(a, b)], -1)
            return np.einsum("...nk,...k->...n", jac, partial(ss, tt))
        return fn

    return Bigon(lambda ss, tt: chart.point(*at(ss, tt)), chart.ambient_dim,
                 pushed(plane.ds), pushed(plane.dt), sitting=plane.sitting)


def contraction_bigon(gamma: Path, profile: SmoothingProfile = DEFAULT_PROFILE) -> Bigon:
    """Radial contraction of a closed loop to its base point: the bigon
    (s, t) -> x0 + beta(s) (gamma(t) - x0) from the constant path to gamma.
    The loop must be star-shaped about its base point within the field's
    domain for the sweep to stay inside."""
    x0 = np.asarray(gamma.start(), dtype=float)
    if not float(np.max(np.abs(gamma.end() - x0))) <= 1e-10:
        raise CompositionError("contraction_bigon needs a closed loop")
    core = Bigon(lambda u, t: x0 + u[..., None] * (gamma.point(t) - x0), gamma.ambient_dim,
                 lambda u, t: gamma.point(t) - x0, lambda u, t: u[..., None] * gamma.velocity(t))
    return _profiled(core, profile)


def bigon_boundary_defect(sigma: Bigon, n_nodes: int = 12) -> float:
    """Sampled violation of the boundary-strip conditions of a bigon."""
    eps = (sigma.sitting.epsilon if sigma.sitting else 0.05) * 0.98
    s = np.linspace(0.0, 1.0, n_nodes)
    x = sigma.point(0.0, 0.0)
    y = sigma.point(0.0, 1.0)
    strip0 = np.linspace(0.0, eps, n_nodes)
    strip1 = np.linspace(1.0 - eps, 1.0, n_nodes)
    d = 0.0
    for tt in strip0:
        d = max(d, float(np.max(np.abs(sigma.point(s, np.full(n_nodes, tt)) - x))))
    for tt in strip1:
        d = max(d, float(np.max(np.abs(sigma.point(s, np.full(n_nodes, tt)) - y))))
    src = sigma.source_path()
    tgt = sigma.target_path()
    t = np.linspace(0.0, 1.0, n_nodes)
    for ss in strip0:
        d = max(d, float(np.max(np.abs(sigma.point(np.full(n_nodes, ss), t) - src.point(t)))))
    for ss in strip1:
        d = max(d, float(np.max(np.abs(sigma.point(np.full(n_nodes, ss), t) - tgt.point(t)))))
    return d


def _path_chain(core, beta, beta_deriv=None, sitting=None) -> Path:
    """The path t -> core(beta(t)) of a path or loop core, with velocity
    core'(beta(t)) beta'(t).  A SmoothingProfile supplies its own beta';
    without one the velocity falls back to the difference quotient."""
    if isinstance(beta, SmoothingProfile):
        beta_deriv = beta.derivative
    dv = None
    if beta_deriv is not None:
        def dv(t):
            t = np.asarray(t, dtype=float)
            return core.velocity(beta(t)) * np.asarray(beta_deriv(t))[..., None]
    return Path(lambda t: core.point(beta(np.asarray(t, dtype=float))), core.ambient_dim, dv,
                sitting=sitting)


def _bigon_chain(core: Bigon, beta_s=None, beta_t=None, sitting=None) -> Bigon:
    """The bigon (s, t) -> core(beta_s(s), beta_t(t)); a slot left None is
    not moved and passes its partial through exactly.  A SmoothingProfile
    supplies its own derivative; the partial along a slot moved by any
    other callable falls back to the difference quotient."""
    bs = (lambda u: u) if beta_s is None else beta_s
    bt = (lambda u: u) if beta_t is None else beta_t

    def chain(partial, beta, slot):
        if beta is None:
            return lambda s, t: partial(bs(s), bt(t))
        if isinstance(beta, SmoothingProfile):
            return lambda s, t: (partial(bs(s), bt(t))
                                 * np.asarray(beta.derivative((s, t)[slot]))[..., None])
        return None

    return Bigon(lambda s, t: core.point(bs(s), bt(t)), core.ambient_dim,
                 chain(core.ds, beta_s, 0), chain(core.dt, beta_t, 1), sitting=sitting)


def _profiled(core, profile: SmoothingProfile, sitting=None):
    """Run a core map through the sitting profile: a path or loop core in
    its parameter, a bigon core in its first slot.  The result sits as
    `sitting`, by default as the profile itself."""
    sitting = profile if sitting is None else sitting
    if isinstance(core, Bigon):
        return _bigon_chain(core, profile, None, sitting)
    return _path_chain(core, profile, sitting=sitting)
