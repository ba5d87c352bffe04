"""Paths, bigons, and loops in open subsets of R^n.

A `Bigon` is the one two-slot map: a bigon, a chart, a core or a loop
path, the map (angle, time) -> R^n.  `standard_bigon` pushes the standard
bigon of a coordinate rectangle through a chart's partials.

All evaluators are closures over closed-form data and broadcast over numpy
parameter arrays; discretization happens only in the transport and
quadrature routines.  Every `Path`, `Loop` and `Bigon` takes its exact
partials as required arguments, and every constructor here supplies them by
the chain rule; nothing falls back to a difference quotient.  Sitting
instants are realized by a mollifier-based profile that is genuinely flat
near the parameter boundary, so compositions stay smooth.  Polynomial
smoothsteps are only finitely flat and are not offered.  A map built
from expressions is a real `xp.Table` in t (a path), z (a loop), (s, t) (a
chart) or (z, t) (a loop path).

Every constructor that uses the profile builds a core map and hands it to
`_profiled`, the one place where the profile is applied: to a path or loop
in its parameter, to a bigon core in its first slot and to a loop path in
its time slot, by the chain rules of `reparameterize` and
`Bigon.reparameterized`.
"""

from __future__ import annotations

import numpy as np

from . import expressions as xp
from .errors import CompositionError, DomainError


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


def _halves(u, first, second):
    """Concatenation at u = 1/2: `first` on [0, 1/2) and `second` on
    [1/2, 1], each run over its own [0, 1] at double speed."""
    u = np.asarray(u, dtype=float)
    return np.where((u < 0.5)[..., None], first(np.clip(2.0 * u, 0.0, 1.0)),
                    second(np.clip(2.0 * u - 1.0, 0.0, 1.0)))


class Path:
    """Smooth map [0,1] -> R^n.  `eval_fn` must broadcast over parameter
    arrays and return shape (..., n); `deriv_fn`, required, is its exact
    velocity, in the same shape."""

    def __init__(self, eval_fn, ambient_dim: int, deriv_fn):
        self.eval_fn = eval_fn
        self.ambient_dim = int(ambient_dim)
        self.deriv_fn = deriv_fn

    def point(self, t):
        return self.eval_fn(t)

    __call__ = point

    def velocity(self, t):
        return self.deriv_fn(t)

    def start(self):
        return self.point(0.0)

    def end(self):
        return self.point(1.0)


def line_path(a, b, profile: SmoothingProfile = DEFAULT_PROFILE) -> Path:
    """Straight segment from a to b with sitting instants."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    core = Path(lambda u: a + np.asarray(u, dtype=float)[..., None] * d, a.shape[-1],
                lambda u: np.broadcast_to(d, np.shape(u) + d.shape))
    return _profiled(core, profile)


def path_from_expressions(component_exprs, profile: SmoothingProfile = DEFAULT_PROFILE) -> Path:
    """Path from one expression per coordinate in t, reparameterized by the
    sitting profile."""
    table = xp.Table(component_exprs, ("t",), real=True)
    return _profiled(Path(table.eval, len(table.entries), table.partial("t").eval), profile)


def path_compose(gamma1: Path, gamma2: Path, tol: float = 1e-10) -> Path:
    """Concatenation at parameter 1/2; endpoints must agree within tol."""
    gap = float(np.max(np.abs(gamma1.end() - gamma2.start())))
    if not gap <= tol:
        raise CompositionError(f"endpoint mismatch {gap:.3e} exceeds {tol:.1e}")
    return Path(lambda t: _halves(t, gamma1.point, gamma2.point), gamma1.ambient_dim,
                lambda t: 2.0 * _halves(t, gamma1.velocity, gamma2.velocity))


def reparameterize(gamma, beta, beta_deriv=None) -> Path:
    """The path t -> gamma(beta(t)) of a path or loop gamma, with velocity
    gamma'(beta(t)) beta'(t), for an orientation-preserving diffeomorphism
    beta of [0,1]: a SmoothingProfile, which supplies its own derivative,
    or a plain callable together with its derivative `beta_deriv`."""
    if isinstance(beta, SmoothingProfile):
        beta_deriv = beta.derivative
    elif beta_deriv is None:
        raise TypeError("a reparameterization other than a SmoothingProfile needs beta_deriv")

    def dv(t):
        t = np.asarray(t, dtype=float)
        return gamma.velocity(beta(t)) * np.asarray(beta_deriv(t))[..., None]
    return Path(lambda t: gamma.point(beta(np.asarray(t, dtype=float))), gamma.ambient_dim, dv)


def sup_distance(p: Path, q: Path, n_nodes: int = 64) -> float:
    """Sampled sup-distance at Chebyshev-like nodes including endpoints."""
    k = np.arange(n_nodes)
    t = 0.5 * (1.0 - np.cos(np.pi * k / (n_nodes - 1)))
    return float(np.max(np.abs(p.point(t) - q.point(t))))


class Loop:
    """Smooth map S^1 -> R^n parameterized by angle fraction z in [0,1),
    with its exact velocity `deriv_fn`, required; evaluation wraps z
    modulo 1."""

    def __init__(self, eval_fn, ambient_dim: int, deriv_fn):
        self.eval_fn = eval_fn
        self.ambient_dim = int(ambient_dim)
        self.deriv_fn = deriv_fn

    def point(self, z):
        return self.eval_fn(np.asarray(z, dtype=float) % 1.0)

    __call__ = point

    def velocity(self, z):
        return self.deriv_fn(np.asarray(z, dtype=float) % 1.0)

    def base_point(self):
        return self.point(0.0)


# the fixed sample of a loop, or of a path, on which closure is judged
_SEAM_SAMPLE = np.linspace(0.0, 1.0, 17)


def _seam_gap(values):
    """(gap, closes) for `values`, a map sampled on `_SEAM_SAMPLE` along
    the first axis: the largest |difference| between its values at 0 and
    1, and whether it is within 1e-10 of the largest finite |value| on the
    sample (at least 1; a pole inside must not make any gap small).  A NaN
    or a pole at either end does not close."""
    gap = float(np.max(np.abs(values[0] - values[-1])))
    scale = float(np.max(np.abs(values), initial=1.0, where=np.isfinite(values)))
    return gap, gap <= 1e-10 * scale


def _check_closed(ev, dz, *times):
    """Raise unless the unwrapped map `ev`, and its exact z-partial `dz`,
    each close by the rule of `_seam_gap`, at each of `times` in a time
    slot."""
    zs = np.reshape(_SEAM_SAMPLE, _SEAM_SAMPLE.shape + (1,) * len(times))
    with np.errstate(all="ignore"):
        gap, closes = _seam_gap(ev(zs, *times))
        if not closes:
            raise CompositionError(f"loop does not close: z = 0 and z = 1 differ by {gap:.3e}")
        gap, closes = _seam_gap(dz(zs, *times))
    if not closes:
        raise CompositionError(f"loop does not close smoothly: its z-partials at z = 0 and "
                               f"z = 1 differ by {gap:.3e}")


def loop_from_expressions(component_exprs) -> Loop:
    table = xp.Table(component_exprs, ("z",), real=True)
    dz = table.partial("z").eval
    _check_closed(table.eval, dz)
    return Loop(table.eval, len(table.entries), dz)


def loop_to_path(tau: Loop, profile: SmoothingProfile = DEFAULT_PROFILE) -> Path:
    """Based path t -> tau(beta(t)) traversing the loop once from its base
    point, with sitting instants supplied by the profile."""
    return _profiled(tau, profile)


class Bigon:
    """Smooth two-slot map (s, t) -> R^n.  `eval_fn(s, t)` broadcasts over
    parameter arrays; `ds_fn` and `dt_fn`, required, are its exact
    partials.  It is a bigon when, on [0,1]^2, it runs between two paths
    with common endpoints and is constant on boundary strips; charts and
    the cores that `_profiled` takes are not."""

    def __init__(self, eval_fn, ambient_dim: int, ds_fn, dt_fn):
        self.eval_fn = eval_fn
        self.ambient_dim = int(ambient_dim)
        self.ds_fn = ds_fn
        self.dt_fn = dt_fn

    def point(self, s, t):
        return self.eval_fn(np.asarray(s, dtype=float), np.asarray(t, dtype=float))

    __call__ = point

    def ds(self, s, t):
        return self.ds_fn(np.asarray(s, dtype=float), np.asarray(t, dtype=float))

    def dt(self, s, t):
        return self.dt_fn(np.asarray(s, dtype=float), np.asarray(t, dtype=float))

    def _edge(self, s: float) -> Path:
        """The path t -> self(s, t)."""
        return Path(lambda t: self.point(np.full(np.shape(t), s), t), self.ambient_dim,
                    lambda t: self.dt(np.full(np.shape(t), s), t))

    def source_path(self) -> Path:
        return self._edge(0.0)

    def target_path(self) -> Path:
        return self._edge(1.0)

    def reparameterized(self, beta_s=None, beta_t=None) -> "Bigon":
        """The bigon (s, t) -> self(beta_s(s), beta_t(t)), each beta a
        SmoothingProfile, which supplies its own derivative; a slot left
        None is not moved and passes its partial through exactly."""
        bs = (lambda u: u) if beta_s is None else beta_s
        bt = (lambda u: u) if beta_t is None else beta_t

        def chain(partial, beta, slot):
            if beta is None:
                return lambda s, t: partial(bs(s), bt(t))
            if not isinstance(beta, SmoothingProfile):
                raise TypeError("a bigon is reparameterized by a SmoothingProfile or None per slot")
            return lambda s, t: (partial(bs(s), bt(t))
                                 * np.asarray(beta.derivative((s, t)[slot]))[..., None])

        return Bigon(lambda s, t: self.point(bs(s), bt(t)), self.ambient_dim,
                     chain(self.ds, beta_s, 0), chain(self.dt, beta_t, 1))


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


def chart_from_expressions(component_exprs) -> Bigon:
    table = xp.Table(component_exprs, ("s", "t"), real=True)
    return Bigon(table.eval, len(table.entries), table.partial("s").eval, table.partial("t").eval)


def loop_path_from_expressions(component_exprs,
                               profile: SmoothingProfile = DEFAULT_PROFILE) -> Bigon:
    """Loop path from expressions in the angle z and the time t: the
    two-slot map (z, t) -> R^n, taking z modulo 1, with the sitting profile
    in its time slot.  Its source edge t -> (0, t) is the base path; like a
    chart, it is not constant on boundary strips."""
    table = xp.Table(component_exprs, ("z", "t"), real=True)
    ev, dz, dt = table.eval, table.partial("z").eval, table.partial("t").eval
    _check_closed(ev, dz, np.linspace(0.0, 1.0, 9))

    def wrapped(fn):
        return lambda z, t: fn(z % 1.0, t)

    return _profiled(Bigon(wrapped(ev), len(table.entries), wrapped(dz), wrapped(dt)), profile,
                     slot=1)


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

    return Bigon(ev, gamma.ambient_dim, dsf, dtf)


def bigon_between(p0: Path, p1: Path, profile: SmoothingProfile = DEFAULT_PROFILE,
                  tol: float = 1e-10) -> Bigon:
    """Linear homotopy bigon p0 => p1 between paths sharing endpoints.
    Valid whenever the ambient region between the paths is contained in the
    domain of interest (e.g. convex domains)."""
    if not (float(np.max(np.abs(p0.start() - p1.start()))) <= tol
            and float(np.max(np.abs(p0.end() - p1.end()))) <= tol):
        raise CompositionError("paths do not share endpoints")

    def ev(u, t):
        return (1.0 - u[..., None]) * p0.point(t) + u[..., None] * p1.point(t)

    def dtf(u, t):
        return (1.0 - u[..., None]) * p0.velocity(t) + u[..., None] * p1.velocity(t)

    core = Bigon(ev, p0.ambient_dim, lambda u, t: p1.point(t) - p0.point(t), dtf)
    return _profiled(core, profile)


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

    return Bigon(ev, sigma.ambient_dim, dsf, dtf)


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

    return Bigon(ev, sigma1.ambient_dim, dsf, dtf)


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
    if not isinstance(chart, Bigon):
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
                 pushed(plane.ds), pushed(plane.dt))


def contraction_bigon(gamma: Path, profile: SmoothingProfile = DEFAULT_PROFILE) -> Bigon:
    """Radial contraction of a closed loop to its base point: the bigon
    (s, t) -> x0 + beta(s) (gamma(t) - x0) from the constant path to gamma.
    gamma must close by the rule of `_seam_gap`, and be star-shaped about
    its base point within the field's domain for the sweep to stay
    inside."""
    with np.errstate(all="ignore"):
        closes = _seam_gap(gamma.point(_SEAM_SAMPLE))[1]
    if not closes:
        raise CompositionError("contraction_bigon needs a closed loop")
    x0 = np.asarray(gamma.start(), dtype=float)
    core = Bigon(lambda u, t: x0 + u[..., None] * (gamma.point(t) - x0), gamma.ambient_dim,
                 lambda u, t: gamma.point(t) - x0, lambda u, t: u[..., None] * gamma.velocity(t))
    return _profiled(core, profile)


def _profiled(core, profile: SmoothingProfile, slot: int = 0):
    """Run a core map through the sitting profile: a path or loop core in
    its parameter, a bigon core in its slot `slot`."""
    if isinstance(core, Bigon):
        if slot:
            return core.reparameterized(None, profile)
        return core.reparameterized(profile, None)
    return reparameterize(core, profile)
