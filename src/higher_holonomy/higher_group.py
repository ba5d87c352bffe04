"""Smooth crossed modules (G, H, t, alpha), their induced algebra maps,
and the 2-group composition laws.

Three built-in kinds are provided:

* ``b_abelian`` -- G trivial, H an abelian group; t collapses to 1 and the
  action is trivial.  G is realized as the one-element subgroup of GL(1).
* ``eg`` -- H = G, t the identity, alpha conjugation.  Between any two
  1-morphisms there is a unique 2-morphism filler h = g' g^{-1}.
* ``aut_inner`` -- the automorphism 2-group of H restricted to its inner
  image: G-elements are matrices of H acting by conjugation and t sends h
  to the representative of conjugation by h.  (Representing the full
  automorphism group as matrices is out of scope; this restriction is
  intentional and documented.)

Induced maps t_*, alpha_* and (alpha_g)_* use closed forms for the
built-in kinds and central difference quotients for user-supplied
evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import lie_core as lc
from .errors import CompositionError
from .lie_core import AlgebraElement, GroupDescriptor, GroupElement

B_ABELIAN = "b_abelian"
EG = "eg"
AUT_INNER = "aut_inner"
CUSTOM = "custom"

# Central-difference steps for the induced maps of a `custom` crossed
# module (the built-in kinds use closed forms): first differences, and the
# mixed second difference of alpha_*.
_FD_STEP = 1e-5
_FD_STEP_MIXED = 1e-4


@dataclass(frozen=True, eq=False)
class CrossedModule:
    """The tuple (G, H, t, alpha) of a smooth crossed module."""

    G: GroupDescriptor
    H: GroupDescriptor
    t_eval: object
    alpha_eval: object
    kind: str = CUSTOM

    def t(self, h: GroupElement) -> GroupElement:
        return self.t_eval(h)

    def alpha(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self.alpha_eval(g, h)

    def sample_g(self, rng, scale: float = 0.7) -> GroupElement:
        if self.kind == B_ABELIAN:
            return lc.identity(self.G)
        return lc.random_group(self.G, rng, scale)

    def sample_h(self, rng, scale: float = 0.7) -> GroupElement:
        return lc.random_group(self.H, rng, scale)


def make_b_abelian(abelian_desc: GroupDescriptor) -> CrossedModule:
    """Crossed module with trivial G over an abelian H."""
    g_desc = lc.gl(1, "real")

    def t_eval(h):
        return lc.identity(g_desc)

    def alpha_eval(g, h):
        return h

    return CrossedModule(g_desc, abelian_desc, t_eval, alpha_eval, kind=B_ABELIAN)


def make_eg(group_desc: GroupDescriptor) -> CrossedModule:
    """H = G with t the identity and alpha conjugation."""

    def t_eval(h):
        return GroupElement(group_desc, h.matrix, validate=False)

    def alpha_eval(g, h):
        return GroupElement(
            group_desc, g.matrix @ h.matrix @ np.linalg.inv(g.matrix), validate=False
        )

    return CrossedModule(group_desc, group_desc, t_eval, alpha_eval, kind=EG)


def make_aut_inner(h_desc: GroupDescriptor) -> CrossedModule:
    """Inner-automorphism image of AUT(H): G-elements are conjugation
    representatives (H-matrices modulo center).  On this image t and alpha
    coincide with the inner 2-group's, so only the kind tag differs."""
    return replace(make_eg(h_desc), kind=AUT_INNER)


def t_star(cm: CrossedModule, y: AlgebraElement) -> AlgebraElement:
    """Differential of t at the identity applied to y."""
    if cm.kind == B_ABELIAN:
        return lc.zero(cm.G)
    if cm.kind in (EG, AUT_INNER):
        return AlgebraElement(cm.G, y.matrix, validate=False)
    gp = cm.t(lc.exp_map(AlgebraElement(y.descriptor, _FD_STEP * y.matrix, validate=False)))
    gm = cm.t(lc.exp_map(AlgebraElement(y.descriptor, -_FD_STEP * y.matrix, validate=False)))
    der = (gp.matrix - gm.matrix) / (2.0 * _FD_STEP)
    return AlgebraElement(cm.G, lc.project_to_algebra(cm.G, der), validate=False)


def t_star_matrix(cm: CrossedModule, y_mats: np.ndarray) -> np.ndarray:
    """t_star on a stack of raw algebra matrices."""
    if cm.kind == B_ABELIAN:
        return np.zeros(y_mats.shape[:-2] + (cm.G.matrix_dim, cm.G.matrix_dim), dtype=complex)
    if cm.kind in (EG, AUT_INNER):
        return np.asarray(y_mats, dtype=complex)
    flat = y_mats.reshape((-1,) + y_mats.shape[-2:])
    out = np.stack([
        t_star(cm, AlgebraElement(cm.H, m, validate=False)).matrix for m in flat
    ])
    return out.reshape(y_mats.shape[:-2] + out.shape[-2:])


def alpha_star(cm: CrossedModule, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Mixed differential of alpha at (1,1): the bilinear map
    (X, Y) -> d^2/ds du alpha(exp(sX), exp(uY)) at 0."""
    if cm.kind == B_ABELIAN:
        return lc.zero(cm.H)
    if cm.kind in (EG, AUT_INNER):
        return AlgebraElement(cm.H, x.matrix @ y.matrix - y.matrix @ x.matrix, validate=False)
    h = _FD_STEP_MIXED

    def a(sx, uy):
        gx = lc.exp_map(AlgebraElement(cm.G, sx * x.matrix, validate=False))
        hy = lc.exp_map(AlgebraElement(cm.H, uy * y.matrix, validate=False))
        return cm.alpha(gx, hy).matrix

    stencil = (a(h, h) - a(h, -h) - a(-h, h) + a(-h, -h)) / (4.0 * h * h)
    return AlgebraElement(cm.H, lc.project_to_algebra(cm.H, stencil), validate=False)


def alpha_g_star(cm: CrossedModule, g: GroupElement, y: AlgebraElement) -> AlgebraElement:
    """Differential of alpha_g: H -> H at the identity applied to y."""
    if cm.kind == B_ABELIAN:
        return AlgebraElement(cm.H, y.matrix, validate=False)
    if cm.kind in (EG, AUT_INNER):
        return AlgebraElement(
            cm.H, g.matrix @ y.matrix @ np.linalg.inv(g.matrix), validate=False
        )
    hp = cm.alpha(g, lc.exp_map(AlgebraElement(cm.H, _FD_STEP * y.matrix, validate=False)))
    hm = cm.alpha(g, lc.exp_map(AlgebraElement(cm.H, -_FD_STEP * y.matrix, validate=False)))
    der = (hp.matrix - hm.matrix) / (2.0 * _FD_STEP)
    return AlgebraElement(cm.H, lc.project_to_algebra(cm.H, der), validate=False)


def alpha_g_star_matrices(cm: CrossedModule, g_mats: np.ndarray, y_mats: np.ndarray) -> np.ndarray:
    """(alpha_g)_* on stacks of raw matrices; closed form for built-ins."""
    if cm.kind == B_ABELIAN:
        return np.asarray(y_mats, dtype=complex)
    if cm.kind in (EG, AUT_INNER):
        return g_mats @ y_mats @ np.linalg.inv(g_mats)
    flat_g = g_mats.reshape((-1,) + g_mats.shape[-2:])
    flat_y = y_mats.reshape((-1,) + y_mats.shape[-2:])
    out = np.stack([
        alpha_g_star(cm, GroupElement(cm.G, gm, validate=False),
                     AlgebraElement(cm.H, ym, validate=False)).matrix
        for gm, ym in zip(flat_g, flat_y)
    ])
    return out.reshape(y_mats.shape[:-2] + out.shape[-2:])


def alpha_action_diff(cm: CrossedModule, x_mat: np.ndarray, h_mat: np.ndarray) -> np.ndarray:
    """Derivative of g -> alpha(g, h) at g = 1 in direction X, a tangent
    matrix at h (not at the identity)."""
    if cm.kind == B_ABELIAN:
        return np.zeros_like(np.asarray(h_mat, dtype=complex))
    if cm.kind in (EG, AUT_INNER):
        return x_mat @ h_mat - h_mat @ x_mat
    gp = lc.exp_map(AlgebraElement(cm.G, _FD_STEP * x_mat, validate=False))
    gm = lc.exp_map(AlgebraElement(cm.G, -_FD_STEP * x_mat, validate=False))
    h_el = GroupElement(cm.H, h_mat, validate=False)
    return (cm.alpha(gp, h_el).matrix - cm.alpha(gm, h_el).matrix) / (2.0 * _FD_STEP)


def alpha_conjugate_star(cm: CrossedModule, a: GroupElement, x: AlgebraElement) -> AlgebraElement:
    """(r_a^{-1} o alpha_a)_* : the differential at 1 of g -> alpha(g, a) a^{-1},
    landing in the algebra of H."""
    d = alpha_action_diff(cm, x.matrix, a.matrix) @ np.linalg.inv(a.matrix)
    return AlgebraElement(cm.H, lc.project_to_algebra(cm.H, d), validate=False)


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
        return max(
            self.t_homomorphism,
            self.action_identity,
            self.action_homomorphism,
            self.action_composition,
            self.equivariance,
            self.peiffer,
        )

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def as_dict(self) -> dict:
        return {
            "t_homomorphism": self.t_homomorphism,
            "action_identity": self.action_identity,
            "action_homomorphism": self.action_homomorphism,
            "action_composition": self.action_composition,
            "equivariance": self.equivariance,
            "peiffer": self.peiffer,
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
    res = dict.fromkeys(
        ["t_hom", "act_id", "act_hom", "act_comp", "equiv", "peiffer"], 0.0
    )
    for _ in range(n_samples):
        g = cm.sample_g(rng)
        g2 = cm.sample_g(rng)
        h1 = cm.sample_h(rng)
        h2 = cm.sample_h(rng)
        x = cm.sample_h(rng)

        lhs = cm.t(lc.gmul(h1, h2)).matrix
        rhs = cm.t(h1).matrix @ cm.t(h2).matrix
        res["t_hom"] = max(res["t_hom"], lc.frob(lhs - rhs))

        res["act_id"] = max(
            res["act_id"], lc.frob(cm.alpha(lc.identity(cm.G), h1).matrix - h1.matrix)
        )

        lhs = cm.alpha(g, lc.gmul(h1, h2)).matrix
        rhs = cm.alpha(g, h1).matrix @ cm.alpha(g, h2).matrix
        res["act_hom"] = max(res["act_hom"], lc.frob(lhs - rhs))

        lhs = cm.alpha(lc.gmul(g, g2), h1).matrix
        rhs = cm.alpha(g, cm.alpha(g2, h1)).matrix
        res["act_comp"] = max(res["act_comp"], lc.frob(lhs - rhs))

        lhs = cm.t(cm.alpha(g, h1)).matrix
        rhs = g.matrix @ cm.t(h1).matrix @ np.linalg.inv(g.matrix)
        res["equiv"] = max(res["equiv"], lc.frob(lhs - rhs))

        lhs = cm.alpha(cm.t(h1), x).matrix
        rhs = h1.matrix @ x.matrix @ np.linalg.inv(h1.matrix)
        res["peiffer"] = max(res["peiffer"], lc.frob(lhs - rhs))

    return AxiomReport(
        t_homomorphism=res["t_hom"],
        action_identity=res["act_id"],
        action_homomorphism=res["act_hom"],
        action_composition=res["act_comp"],
        equivariance=res["equiv"],
        peiffer=res["peiffer"],
        n_samples=n_samples,
        seed=seed,
        tol=tol,
    )
