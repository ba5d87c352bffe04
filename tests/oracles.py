"""Independent numerical oracles used by the test suite.

Everything here is deliberately decoupled from the package's integrators:
quadrature is Gauss-Legendre (numpy.polynomial), matrix exponentials are a
plain Taylor sum, and the surface oracle is a first-principles ordered
Riemann product.  Oracles share only the defining formulas with the code
under test, never its discretizations.  The one exception is
`stagewise_rk4`: it takes the classical RK4 stages one step at a time on
an arbitrary right-hand side, as the reference for the package's batched
propagator sweep and for transformation transport through it.
`per_loop_phi` is not independent at all: it runs the package's one-loop
transgression once per time, as the reference for its stacked sweep over
all the loops of a loop path.  Nor is `three_transport_whisker`: it
composes the modification-axiom defect from two transformation
transports and one path transport, as the reference for the one sweep of
`transport.modification_whisker`.  The dense frame contractions
(`dense_one_form`, `dense_pair_contraction`, `DenseOneForm`) evaluate every
component and sum by one einsum, as the reference for the contraction in
`forms`, which skips a component whose coefficient is identically zero.
`su_algebra_defect` restates the SU(n) algebra defect for every n, as the
reference for the closed form that `lie_core` takes on 2x2 stacks.
`per_sample_axioms` is the crossed-module axiom check with its samples
drawn one matrix at a time (`per_sample_draw`, each exponentiated and
gated alone), as the reference for the one stacked draw of
`higher_group.verify_axioms`; `sample_g` and `sample_h` draw single
elements the same way for the composition-law tests.
"""

import math

import numpy as np

from higher_holonomy import forms as fm
from higher_holonomy import geometry as geo
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy import transgression as tg
from higher_holonomy import transport as tp
from higher_holonomy.errors import MembershipError


def su_algebra_defect(m):
    """The largest over the stack (..., n, n) of max(|m + m^H|_F, |tr m|),
    0 for an empty stack, inf when an entry is not finite."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        return math.inf
    herm = np.linalg.norm(m + np.swapaxes(m.conj(), -2, -1), axis=(-2, -1))
    tr = np.abs(np.trace(m, axis1=-2, axis2=-1))
    return float(np.max(np.maximum(herm, tr), initial=0.0))


def leggauss_nodes(n, a=0.0, b=1.0):
    x, w = np.polynomial.legendre.leggauss(n)
    return a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w


def line_integral(f, n=120):
    """Gauss-Legendre integral of a scalar/matrix-valued f over [0,1]."""
    x, w = leggauss_nodes(n)
    vals = np.stack([np.asarray(f(t)) for t in x])
    return np.tensordot(w, vals, axes=(0, 0))


def square_integral(f, n=60):
    """Gauss-Legendre integral of f(s, t) over the unit square."""
    x, w = leggauss_nodes(n)
    total = None
    for si, wi in zip(x, w):
        row = np.stack([np.asarray(f(si, tj)) for tj in x])
        term = wi * np.tensordot(w, row, axes=(0, 0))
        total = term if total is None else total + term
    return total


def taylor_expm(m, order=24):
    """Plain Taylor-series exponential for small-norm matrices (stacks ok)."""
    m = np.asarray(m, dtype=complex)
    eye = np.broadcast_to(np.eye(m.shape[-1]), m.shape).astype(complex)
    out = eye.copy()
    term = eye.copy()
    for k in range(1, order + 1):
        term = term @ m / k
        out = out + term
    return out


def stagewise_rk4(rhs, u0, n, h, retract, keep_nodes=False):
    """Integrate u' = rhs(i, u) over n classical RK4 steps of size h from
    u0 (one matrix or a stack), with `retract` applied after every step.
    `rhs(i, u)` is the right-hand side at half-step index i in 0..2n (step
    k uses i = 2k, 2k+1, 2k+2).  Returns the final value, or the n+1 nodes
    stacked on the axis before the matrix axes when keep_nodes is true."""
    u = np.asarray(u0, dtype=complex)
    nodes = [u]
    for k in range(n):
        i = 2 * k
        k1 = rhs(i, u)
        k2 = rhs(i + 1, u + (0.5 * h) * k1)
        k3 = rhs(i + 1, u + (0.5 * h) * k2)
        k4 = rhs(i + 2, u + h * k3)
        u = retract(u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        nodes.append(u)
    return np.stack(nodes, axis=-3) if keep_nodes else u


def transformation_rk4(phis, a_vals, act, n, retract):
    """h(1) for dh = -phi h - act(A', h), h(0) = 1, by stage-wise RK4 on
    the 2n+1 half-step values of phi and A', with `retract` after every
    step; `act(x, h)` is the derivative of g -> alpha(g, h) at g = 1 in
    direction x."""
    d = phis.shape[-1]
    return stagewise_rk4(lambda i, h: -(phis[i] @ h) - act(a_vals[i], h),
                         np.eye(d), n, 1.0 / n, retract)


def ordered_product_transport(a_of_t, n):
    """First-principles path-ordered product for u' = -a(t) u: the ordered
    midpoint product of exp(-a dt), later factors on the left."""
    dt = 1.0 / n
    u = None
    for k in range(n):
        t = (k + 0.5) * dt
        step = taylor_expm(-dt * np.asarray(a_of_t(t), dtype=complex))
        u = step if u is None else step @ u
    return u


def surface_k_product_oracle(cm_kind, a_eval, b_eval, sigma, ns, nt):
    """Surface transport by ordered Riemann products, straight from the
    defining construction: inner midpoint transports along the t-legs, a
    midpoint fiber sum for the driver, the ordered product for the outer
    equation, and the final conjugation by the source transport.

    a_eval(x, v) and b_eval(x, v1, v2) return raw algebra matrices;
    cm_kind is 'eg' (conjugation action) or 'b_abelian' (trivial action).
    """
    ds = 1.0 / ns
    dt = 1.0 / nt
    t_mid = (np.arange(nt) + 0.5) * dt
    f = None
    for i in range(ns):
        # one array call per s-row for the field values and half steps;
        # the ordered products and the fiber sum stay sequential in t
        s = np.full(nt, (i + 0.5) * ds)
        x = sigma.point(s, t_mid)
        vt = sigma.dt(s, t_mid)
        vs = sigma.ds(s, t_mid)
        a_here = np.asarray(a_eval(x, vt), dtype=complex)
        b_here = np.asarray(b_eval(x, vs, vt), dtype=complex)
        halves = taylor_expm(-0.5 * dt * a_here)
        u_boundary = np.eye(a_here.shape[-1], dtype=complex)
        u_mids = np.empty_like(halves)
        for j in range(nt):
            u_mids[j] = halves[j] @ u_boundary
            u_boundary = halves[j] @ u_mids[j]
        if cm_kind == "eg":
            acted = np.linalg.inv(u_mids) @ b_here @ u_mids
        elif cm_kind == "b_abelian":
            acted = b_here
        else:
            raise ValueError(cm_kind)
        driver = acted[0] * dt
        for j in range(1, nt):
            driver = driver + acted[j] * dt
        # outer ordered product for f' = -A f with A = -driver
        step = taylor_expm(ds * driver)
        f = step @ f if f is not None else step
    src = sigma.source_path()
    u_src = ordered_product_transport(
        lambda t: a_eval(src.point(t), src.velocity(t)), max(512, 2 * nt)
    )
    f_inv = np.linalg.inv(f)
    if cm_kind == "eg":
        return u_src @ f_inv @ np.linalg.inv(u_src)
    return f_inv


def per_loop_phi(pair, lp, times, cfg):
    """phi_F at each loop lp(., t) in the variation d_t lp(., t), one
    `transgressed_phi` per time t, each on a loop and variation built from
    `lp.point`, `lp.ds` and `lp.dt` at that t."""
    def at(fn, t):
        return lambda z: fn(z, np.full(np.shape(z), t))

    out = []
    for t in np.asarray(times, dtype=float):
        loop = geo.Loop(at(lp.point, t), lp.ambient_dim, at(lp.ds, t))
        out.append(tg.transgressed_phi(pair, tg.LoopTangent(loop, at(lp.dt, t)), cfg).matrix)
    return np.stack(out)


def three_transport_whisker(cm, a_map, a_prime, g_map, phi, gamma, cfg, g2_map, phi2):
    """The defect of the modification axiom
    alpha(F'(gamma), a(x)) h(gamma)^{-1} = h'(gamma)^{-1} a(y), with h and
    h' from one `transformation_transport` each and F'(gamma) from
    `path_transport`: A' is sampled and swept three times."""
    h1 = tp.transformation_transport(cm, g_map, phi, a_prime, gamma, cfg).h
    h2 = tp.transformation_transport(cm, g2_map, phi2, a_prime, gamma, cfg).h
    f_prime = tp.path_transport(a_prime, gamma, cfg)
    lhs = cm.alpha(f_prime.matrix, a_map.matrix(gamma.start())) @ np.linalg.inv(h1.matrix)
    rhs = np.linalg.inv(h2.matrix) @ a_map.matrix(gamma.end())
    return lc.frob(lhs - rhs) / max(1.0, lc.frob(rhs))


def dense_one_form(a, x, v):
    """sum_i A_i(x) v_i with every component of A evaluated."""
    comps = np.stack([c.eval(np.asarray(x, dtype=float)) for c in a.components])
    return np.einsum("i...rc,...i->...rc", comps, np.asarray(v, dtype=float))


def dense_pair_contraction(planes, n, v1, v2):
    """sum over all i, j of T_ij v1_i v2_j, where T is the antisymmetric
    table with T_ij = planes[(i, j)] for i < j and 0 on missing planes."""
    shape = np.shape(next(iter(planes.values())))
    t = np.zeros((n, n) + shape, dtype=complex)
    for (i, j), m in planes.items():
        t[i, j], t[j, i] = m, -m
    return np.einsum("ij...rc,...i,...j->...rc", t, np.asarray(v1, dtype=float),
                     np.asarray(v2, dtype=float))


class DenseOneForm(fm.OneFormField):
    """A one-form whose `matrices_at` is `dense_one_form`."""

    def matrices_at(self, x, v):
        return dense_one_form(self, x, v)


def per_sample_draw(desc, rng, scale=0.7):
    """One random group element: a d x d standard normal real part, then
    an imaginary part, projected onto the algebra, scaled, exponentiated
    on its own and required to lie within 10x the membership tolerance of
    the group."""
    n = desc.matrix_dim
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = lc.expm(scale * lc.project_to_algebra(desc, raw))
    if not lc.group_defect(desc, m) <= 10 * desc.membership_tolerance:
        raise MembershipError(f"sample left {desc}")
    return lc.GroupElement(desc, m, validate=False)


def sample_g(cm, rng):
    """A G-element of `cm`: 1 without a draw for a trivial G."""
    return lc.identity(cm.G) if cm.trivial_g else per_sample_draw(cm.G, rng)


def sample_h(cm, rng):
    return per_sample_draw(cm.H, rng)


def per_sample_axioms(cm, n_samples, tol, seed):
    """`AxiomReport.as_dict()` of the six crossed-module axioms on samples
    g, g2, h1, h2, x drawn one element at a time, in that order per
    sample, then stacked."""
    rng = np.random.default_rng(seed)
    draws = [(sample_g(cm, rng), sample_g(cm, rng), sample_h(cm, rng), sample_h(cm, rng),
              sample_h(cm, rng)) for _ in range(n_samples)]
    g, g2, h1, h2, x = (np.stack([d[k].matrix for d in draws]) for k in range(5))
    t_h1 = cm.t(h1)
    a_h1 = cm.alpha(g, h1)
    sides = {
        "t_homomorphism": (cm.t(h1 @ h2), t_h1 @ cm.t(h2)),
        "action_identity": (cm.alpha(lc.identity(cm.G).matrix, h1), h1),
        "action_homomorphism": (cm.alpha(g, h1 @ h2), a_h1 @ cm.alpha(g, h2)),
        "action_composition": (cm.alpha(g @ g2, h1), cm.alpha(g, cm.alpha(g2, h1))),
        "equivariance": (cm.t(a_h1), g @ t_h1 @ np.linalg.inv(g)),
        "peiffer": (cm.alpha(t_h1, x), h1 @ x @ np.linalg.inv(h1)),
    }
    res = {name: lc.max_frob(lhs - rhs) for name, (lhs, rhs) in sides.items()}
    return hg.AxiomReport(**res, n_samples=n_samples, seed=seed, tol=tol).as_dict()
