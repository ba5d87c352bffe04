"""Smooth crossed modules (G, H, t, alpha), their induced algebra maps,
and the 2-group composition laws.

A `CrossedModule` carries t, alpha, their induced maps (t_*, alpha_*,
(alpha_g)_* and s_*) and its G sampler as fields; all but the sampler act
on stacks of raw matrices.  Every shipped module acts through a
homomorphism s: G -> H, alpha_g = Ad_{s(g)}, and carries its differential
s_* as `s_star`; the action derivative and transformation transport are
built from it.  Builders:

* ``make_b_abelian`` -- G trivial (the one-element subgroup of GL(1)), H
  abelian, t collapsing to 1 and the action trivial (s = 1); closed forms.
* ``make_eg`` -- H = G, t the identity, alpha conjugation (s = id); closed
  forms.  Between any two 1-morphisms there is a unique 2-morphism filler
  h = g' g^{-1}.
* ``make_aut_inner`` -- the automorphism 2-group of H restricted to its
  inner image (the full automorphism group as matrices is out of scope).
  On this image it is ``make_eg`` under the ``aut_inner`` label.
* ``custom_crossed_module`` -- black-box t and alpha on `GroupElement`s,
  lifted to stacks, with central difference quotients for t_*, alpha_* and
  (alpha_g)_* and the axioms verified on construction.  Its action need
  not come from a homomorphism s, so it has no `s_star`: the action
  derivative, transformation transport and the derived modification
  target raise CompositionError on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import lie_core as lc
from .errors import CompositionError
from .lie_core import AlgebraElement, GroupDescriptor, GroupElement

# Central-difference steps for the induced maps of a custom crossed module:
# first differences, and the mixed second difference of alpha_*.
_FD_STEP = 1e-5
_FD_STEP_MIXED = 1e-4


@dataclass(frozen=True, eq=False)
class CrossedModule:
    """The tuple (G, H, t, alpha) of a smooth crossed module with its
    induced maps, all on stacks (..., d, d) of raw matrices whose leading
    shapes broadcast:

    * t(h): the homomorphism t: H -> G;
    * alpha(g, h): the action of g on h;
    * t_star(y): the differential of t at 1;
    * alpha_star(x, y): the mixed differential of alpha at (1, 1);
    * alpha_g_star(g, y): the differential of alpha_g: H -> H at 1;
    * s_star(x): the differential of the homomorphism s: G -> H with
      alpha_g = Ad_{s(g)}, or None when the action is not of that form.

    `sample_g(rng, scale=0.7)` draws the G-elements that `verify_axioms`
    samples.
    """

    G: GroupDescriptor
    H: GroupDescriptor
    t: Callable
    alpha: Callable
    t_star: Callable
    alpha_star: Callable
    alpha_g_star: Callable
    s_star: Callable | None
    sample_g: Callable
    kind: str = "custom"

    def sample_h(self, rng, scale: float = 0.7) -> GroupElement:
        return lc.random_group(self.H, rng, scale)


def make_b_abelian(abelian_desc: GroupDescriptor) -> CrossedModule:
    """Crossed module with trivial G over an abelian H."""
    g_desc = lc.gl(1, "real")
    dh = abelian_desc.matrix_dim

    return CrossedModule(
        g_desc, abelian_desc,
        t=lambda h: np.ones(np.shape(h)[:-2] + (1, 1), dtype=complex),
        alpha=lambda g, h: h,
        t_star=lambda y: np.zeros(np.shape(y)[:-2] + (1, 1), dtype=complex),
        alpha_star=lambda x, y: np.zeros_like(np.asarray(y, dtype=complex)),
        alpha_g_star=lambda g, y: np.asarray(y, dtype=complex),
        s_star=lambda x: np.zeros(np.shape(x)[:-2] + (dh, dh), dtype=complex),
        sample_g=lambda rng, scale=0.7: lc.identity(g_desc),
        kind="b_abelian",
    )


def make_eg(group_desc: GroupDescriptor) -> CrossedModule:
    """H = G with t the identity and alpha conjugation."""
    identity = partial(np.asarray, dtype=complex)
    return CrossedModule(
        group_desc, group_desc, t=identity, alpha=lc.conjugate, t_star=identity,
        alpha_star=lambda x, y: x @ y - y @ x, alpha_g_star=lc.conjugate, s_star=identity,
        sample_g=partial(lc.random_group, group_desc), kind="eg",
    )


def make_aut_inner(h_desc: GroupDescriptor) -> CrossedModule:
    """Inner-automorphism image of AUT(H): G-elements are conjugation
    representatives (H-matrices modulo center).  On this image t and alpha
    coincide with the inner 2-group's, so only the kind label differs."""
    return replace(make_eg(h_desc), kind="aut_inner")


def _one_at_a_time(fn):
    """Lift `fn` on single matrices to stacks whose leading shapes
    broadcast."""
    def lifted(*stacks):
        stacks = [np.asarray(s, dtype=complex) for s in stacks]
        lead = np.broadcast_shapes(*(s.shape[:-2] for s in stacks))
        flat = [np.broadcast_to(s, lead + s.shape[-2:]).reshape((-1,) + s.shape[-2:])
                for s in stacks]
        out = np.stack([fn(*ms) for ms in zip(*flat)])
        return out.reshape(lead + out.shape[-2:])
    return lifted


def custom_crossed_module(G: GroupDescriptor, H: GroupDescriptor, t,
                          alpha) -> CrossedModule:
    """Crossed module from black-box evaluators t(h) and alpha(g, h) on
    `GroupElement`s, lifted to stacks one matrix at a time.  Its induced
    maps are central difference quotients of the lifts, with steps
    `_FD_STEP` and `_FD_STEP_MIXED`; it has no `s_star` (see the module
    docstring).

    The axioms are checked on construction by `verify_axioms` with its
    defaults; a module that fails them raises CompositionError carrying
    the `AxiomReport` as `report`.
    """
    t_lift = _one_at_a_time(lambda h: t(GroupElement(H, h, validate=False)).matrix)
    alpha_lift = _one_at_a_time(lambda g, h: alpha(GroupElement(G, g, validate=False),
                                                   GroupElement(H, h, validate=False)).matrix)

    def central(f, step):
        return (f(step) - f(-step)) / (2.0 * step)

    def t_star(y):
        return lc.project_to_algebra(G, central(lambda s: t_lift(lc.expm(s * y)), _FD_STEP))

    def alpha_star(x, y):
        h = _FD_STEP_MIXED

        def a(sx, uy):
            return alpha_lift(lc.expm(sx * x), lc.expm(uy * y))

        stencil = (a(h, h) - a(h, -h) - a(-h, h) + a(-h, -h)) / (4.0 * h * h)
        return lc.project_to_algebra(H, stencil)

    def alpha_g_star(g, y):
        return lc.project_to_algebra(
            H, central(lambda s: alpha_lift(g, lc.expm(s * y)), _FD_STEP))

    cm = CrossedModule(G, H, t_lift, alpha_lift, t_star, alpha_star, alpha_g_star,
                       s_star=None, sample_g=partial(lc.random_group, G))
    report = verify_axioms(cm)
    if not report.passed:
        raise CompositionError(
            f"crossed-module axioms fail: max residual {report.max_residual:.3e} "
            f"exceeds {report.tol:.1e}", report=report)
    return cm


def t_star(cm: CrossedModule, y: AlgebraElement) -> AlgebraElement:
    """Differential of t at the identity applied to y."""
    return AlgebraElement(cm.G, cm.t_star(y.matrix), validate=False)


def t_star_matrix(cm: CrossedModule, y_mats: np.ndarray) -> np.ndarray:
    """t_star on a stack of raw algebra matrices."""
    return cm.t_star(y_mats)


def alpha_star(cm: CrossedModule, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Mixed differential of alpha at (1,1): d^2/ds du alpha(exp(sX), exp(uY))."""
    return AlgebraElement(cm.H, cm.alpha_star(x.matrix, y.matrix), validate=False)


def alpha_g_star(cm: CrossedModule, g: GroupElement, y: AlgebraElement) -> AlgebraElement:
    """Differential of alpha_g: H -> H at the identity applied to y."""
    return AlgebraElement(cm.H, cm.alpha_g_star(g.matrix, y.matrix), validate=False)


def alpha_g_star_matrices(cm: CrossedModule, g_mats: np.ndarray, y_mats: np.ndarray) -> np.ndarray:
    """(alpha_g)_* on stacks of raw matrices."""
    return cm.alpha_g_star(g_mats, y_mats)


def s_star_matrix(cm: CrossedModule, x_mats: np.ndarray) -> np.ndarray:
    """s_* on a stack of raw G-algebra matrices, for alpha_g = Ad_{s(g)};
    raises CompositionError on a module without `s_star`."""
    if cm.s_star is None:
        raise CompositionError(
            "this crossed module's action is not given as Ad_{s(g)} for a "
            "homomorphism s: G -> H, so it has no s_*")
    return cm.s_star(x_mats)


def alpha_action_diff(cm: CrossedModule, x_mat: np.ndarray, h_mat: np.ndarray) -> np.ndarray:
    """Derivative of g -> alpha(g, h) at g = 1 in direction X (at h):
    s_*(X) h - h s_*(X)."""
    s = s_star_matrix(cm, x_mat)
    return s @ h_mat - h_mat @ s


def alpha_conjugate_star(cm: CrossedModule, a_mats: np.ndarray, x_mats: np.ndarray) -> np.ndarray:
    """(r_a^{-1} o alpha_a)_* : the differential at 1 of g -> alpha(g, a) a^{-1},
    landing in the algebra of H, on stacks of raw matrices."""
    d = alpha_action_diff(cm, x_mats, a_mats) @ np.linalg.inv(a_mats)
    return lc.project_to_algebra(cm.H, d)


@dataclass(frozen=True, eq=False)
class TwoMorphismValue:
    """A 2-morphism value (g, h, g') with the target-matching witness
    g' = t(h) g checked on construction."""

    cm: CrossedModule
    source: GroupElement
    h_part: GroupElement
    target: GroupElement
    match_tolerance: float = field(default=1e-8, repr=False)

    def __post_init__(self):
        r = self.matching_residual()
        if not r <= self.match_tolerance:
            raise CompositionError(f"target-matching residual {r:.3e}")

    def matching_residual(self) -> float:
        lhs = self.cm.t(self.h_part.matrix) @ self.source.matrix
        return lc.frob(lhs - self.target.matrix) / max(1.0, lc.frob(self.target.matrix))


def two_morphism(cm: CrossedModule, source: GroupElement, h_part: GroupElement) -> TwoMorphismValue:
    """Build a 2-morphism with its target computed from the witness."""
    target = GroupElement(cm.G, cm.t(h_part.matrix) @ source.matrix, validate=False)
    return TwoMorphismValue(cm, source, h_part, target)


def identity_two_morphism(cm: CrossedModule, g: GroupElement) -> TwoMorphismValue:
    return TwoMorphismValue(cm, g, lc.identity(cm.H), g)


def vcompose(a: TwoMorphismValue, b: TwoMorphismValue, tol: float = 1e-6) -> TwoMorphismValue:
    """Vertical composite a after b: requires b.target = a.source; the
    h-parts multiply as h_a h_b over b's source."""
    gap = lc.frob(b.target.matrix - a.source.matrix) / max(1.0, lc.frob(a.source.matrix))
    if gap > tol:
        raise CompositionError(f"vertical composition mismatch {gap:.3e}")
    return TwoMorphismValue(
        a.cm, b.source, lc.gmul(a.h_part, b.h_part), a.target,
        match_tolerance=max(a.match_tolerance, 10 * tol),
    )


def hcompose(a: TwoMorphismValue, b: TwoMorphismValue) -> TwoMorphismValue:
    """Horizontal composite of a (applied first) with b: source g_b g_a,
    h-part h_b alpha(g_b, h_a)."""
    cm = a.cm
    h = b.h_part.matrix @ cm.alpha(b.source.matrix, a.h_part.matrix)
    return TwoMorphismValue(
        cm,
        lc.gmul(b.source, a.source),
        GroupElement(cm.H, h, validate=False),
        lc.gmul(b.target, a.target),
        match_tolerance=max(a.match_tolerance, b.match_tolerance, 1e-6),
    )


_AXIOMS = ("t_homomorphism", "action_identity", "action_homomorphism",
           "action_composition", "equivariance", "peiffer")


@dataclass(frozen=True)
class AxiomReport:
    """Max residual per crossed-module axiom over seeded random samples."""

    t_homomorphism: float
    action_identity: float
    action_homomorphism: float
    action_composition: float
    equivariance: float
    peiffer: float
    n_samples: int
    seed: int
    tol: float

    @property
    def max_residual(self) -> float:
        return max(getattr(self, name) for name in _AXIOMS)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def as_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in _AXIOMS},
            "max_residual": self.max_residual,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "tol": self.tol,
            "pass": self.passed,
        }


def verify_axioms(cm: CrossedModule, n_samples: int = 100, tol: float = 1e-9,
                  seed: int = 0) -> AxiomReport:
    """Check all crossed-module axioms on pseudo-random samples.

    The evaluators are black boxes, so verification is sampling-based; the
    seed is recorded in the report for reproducibility.  Each sample draws
    g, g2, h1, h2 and x in that order; every axiom is then evaluated once
    on the stacks of all samples.  A non-finite residual is reported as
    inf, so it fails the check.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    draws = [(cm.sample_g(rng), cm.sample_g(rng), cm.sample_h(rng), cm.sample_h(rng),
              cm.sample_h(rng)) for _ in range(n_samples)]
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
    return AxiomReport(**res, n_samples=n_samples, seed=seed, tol=tol)
