"""Smooth crossed modules (G, H, t, alpha), their induced algebra maps,
and the 2-group composition laws.

A `CrossedModule` carries its induced maps (t_*, alpha_*, (alpha_g)_* and
the action derivative) as fields on stacks of raw matrices; the
module-level functions of the same names delegate to them.  Builders:

* ``make_b_abelian`` -- G trivial (the one-element subgroup of GL(1)), H
  abelian, t collapsing to 1 and the action trivial; closed forms.
* ``make_eg`` -- H = G, t the identity, alpha conjugation; closed forms.
  Between any two 1-morphisms there is a unique 2-morphism filler
  h = g' g^{-1}.
* ``make_aut_inner`` -- the automorphism 2-group of H restricted to its
  inner image (the full automorphism group as matrices is out of scope).
  On this image it is ``make_eg`` under the ``aut_inner`` label.
* ``custom_crossed_module`` -- black-box t and alpha, with central
  difference quotients for the induced maps and the axioms verified on
  construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """The tuple (G, H, t, alpha) of a smooth crossed module, t and alpha
    acting on `GroupElement`s, with its induced maps on stacks (..., d, d)
    of raw matrices:

    * t_star(y): the differential of t at 1;
    * alpha_star(x, y): the mixed differential of alpha at (1, 1);
    * alpha_g_star(g, y): the differential of alpha_g: H -> H at 1;
    * action_diff(x, h): the derivative of g -> alpha(g, h) at g = 1 in
      direction x, a tangent matrix at h (not at the identity).
    """

    G: GroupDescriptor
    H: GroupDescriptor
    t: Callable
    alpha: Callable
    t_star: Callable
    alpha_star: Callable
    alpha_g_star: Callable
    action_diff: Callable
    kind: str = "custom"

    def sample_g(self, rng, scale: float = 0.7) -> GroupElement:
        if self.kind == "b_abelian":
            return lc.identity(self.G)
        return lc.random_group(self.G, rng, scale)

    def sample_h(self, rng, scale: float = 0.7) -> GroupElement:
        return lc.random_group(self.H, rng, scale)


def make_b_abelian(abelian_desc: GroupDescriptor) -> CrossedModule:
    """Crossed module with trivial G over an abelian H."""
    g_desc = lc.gl(1, "real")

    def zero_h(x, y):
        return np.zeros_like(np.asarray(y, dtype=complex))

    return CrossedModule(
        g_desc, abelian_desc, lambda h: lc.identity(g_desc), lambda g, h: h,
        t_star=lambda y: np.zeros(np.shape(y)[:-2] + (1, 1), dtype=complex),
        alpha_star=zero_h,
        alpha_g_star=lambda g, y: np.asarray(y, dtype=complex),
        action_diff=zero_h,
        kind="b_abelian",
    )


def make_eg(group_desc: GroupDescriptor) -> CrossedModule:
    """H = G with t the identity and alpha conjugation."""

    def alpha(g, h):
        return GroupElement(
            group_desc, g.matrix @ h.matrix @ np.linalg.inv(g.matrix), validate=False
        )

    def bracket(x, y):
        return x @ y - y @ x

    return CrossedModule(
        group_desc, group_desc,
        lambda h: GroupElement(group_desc, h.matrix, validate=False), alpha,
        t_star=lambda y: np.asarray(y, dtype=complex),
        alpha_star=bracket,
        alpha_g_star=lc.conjugate,
        action_diff=bracket,
        kind="eg",
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
    `GroupElement`s.  Its induced maps are central difference quotients
    with steps `_FD_STEP` and `_FD_STEP_MIXED`, taken one matrix at a time.

    The axioms are checked on construction by `verify_axioms` with its
    defaults; a module that fails them raises CompositionError carrying
    the `AxiomReport` as `report`.
    """
    def exp_g(m):
        return lc.exp_map(AlgebraElement(G, m, validate=False))

    def exp_h(m):
        return lc.exp_map(AlgebraElement(H, m, validate=False))

    def central(f, step):
        return (f(step).matrix - f(-step).matrix) / (2.0 * step)

    def t_star(y):
        return lc.project_to_algebra(G, central(lambda s: t(exp_h(s * y)), _FD_STEP))

    def alpha_star(x, y):
        h = _FD_STEP_MIXED

        def a(sx, uy):
            return alpha(exp_g(sx * x), exp_h(uy * y)).matrix

        stencil = (a(h, h) - a(h, -h) - a(-h, h) + a(-h, -h)) / (4.0 * h * h)
        return lc.project_to_algebra(H, stencil)

    def alpha_g_star(g, y):
        g_el = GroupElement(G, g, validate=False)
        return lc.project_to_algebra(
            H, central(lambda s: alpha(g_el, exp_h(s * y)), _FD_STEP))

    def action_diff(x, h):
        h_el = GroupElement(H, h, validate=False)
        return central(lambda s: alpha(exp_g(s * x), h_el), _FD_STEP)

    cm = CrossedModule(G, H, t, alpha, _one_at_a_time(t_star),
                       _one_at_a_time(alpha_star), _one_at_a_time(alpha_g_star),
                       _one_at_a_time(action_diff))
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


def alpha_action_diff(cm: CrossedModule, x_mat: np.ndarray, h_mat: np.ndarray) -> np.ndarray:
    """Derivative of g -> alpha(g, h) at g = 1 in direction X (at h)."""
    return cm.action_diff(x_mat, h_mat)


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
        lhs = self.cm.t(self.h_part).matrix @ self.source.matrix
        return lc.frob(lhs - self.target.matrix) / max(1.0, lc.frob(self.target.matrix))


def two_morphism(cm: CrossedModule, source: GroupElement, h_part: GroupElement) -> TwoMorphismValue:
    """Build a 2-morphism with its target computed from the witness."""
    target = lc.gmul(cm.t(h_part), source)
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
    h = lc.gmul(b.h_part, cm.alpha(b.source, a.h_part))
    return TwoMorphismValue(
        cm,
        lc.gmul(b.source, a.source),
        h,
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
    seed is recorded in the report for reproducibility.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    res = dict.fromkeys(_AXIOMS, 0.0)
    for _ in range(n_samples):
        g = cm.sample_g(rng)
        g2 = cm.sample_g(rng)
        h1 = cm.sample_h(rng)
        h2 = cm.sample_h(rng)
        x = cm.sample_h(rng)
        sides = {
            "t_homomorphism": (cm.t(lc.gmul(h1, h2)).matrix,
                               cm.t(h1).matrix @ cm.t(h2).matrix),
            "action_identity": (cm.alpha(lc.identity(cm.G), h1).matrix, h1.matrix),
            "action_homomorphism": (cm.alpha(g, lc.gmul(h1, h2)).matrix,
                                    cm.alpha(g, h1).matrix @ cm.alpha(g, h2).matrix),
            "action_composition": (cm.alpha(lc.gmul(g, g2), h1).matrix,
                                   cm.alpha(g, cm.alpha(g2, h1)).matrix),
            "equivariance": (cm.t(cm.alpha(g, h1)).matrix,
                             g.matrix @ cm.t(h1).matrix @ np.linalg.inv(g.matrix)),
            "peiffer": (cm.alpha(cm.t(h1), x).matrix,
                        h1.matrix @ x.matrix @ np.linalg.inv(h1.matrix)),
        }
        for name, (lhs, rhs) in sides.items():
            res[name] = max(res[name], lc.frob(lhs - rhs))
    return AxiomReport(**res, n_samples=n_samples, seed=seed, tol=tol)
