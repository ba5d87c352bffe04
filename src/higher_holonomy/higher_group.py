"""Smooth crossed modules (G, H, t, alpha), their induced algebra maps,
and the 2-group composition laws.

Every crossed module here acts through a homomorphism s: G -> H,
alpha_g = Ad_{s(g)}.  A `CrossedModule` is therefore (G, H, t, s) with the
differentials t_* and s_* and a flag for a trivial G; alpha, (alpha_g)_*,
alpha_*, the action derivative and transformation transport are all
derived from s and s_*.  Every map acts on stacks of raw matrices.  Builders:

* ``make_b_abelian`` -- G trivial (the one-element subgroup of GL(1)), H
  = U(1) or another 1x1 group, t collapsing to 1 and s = 1.
* ``make_eg`` -- H = G, t the identity and s = id, so alpha is conjugation.
  Between any two 1-morphisms there is a unique 2-morphism filler
  h = g' g^{-1}.
* ``make_aut_inner`` -- the automorphism 2-group of H restricted to its
  inner image (the full automorphism group as matrices is out of scope).
  On this image it is ``make_eg`` under the ``aut_inner`` label.

Any other (t, s) pair on stacks makes a module through the constructor;
`verify_axioms` checks it by sampling (the Peiffer axiom asks that s(t(h))
act as Ad_h).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import lie_core as lc
from .errors import CompositionError, TargetMatchingError
from .lie_core import AlgebraElement, GroupDescriptor, GroupElement


@dataclass(frozen=True, eq=False)
class CrossedModule:
    """The crossed module (G, H, t, alpha) with alpha_g = Ad_{s(g)}, given
    by maps on stacks (..., d, d) of raw matrices whose leading shapes
    broadcast:

    * t(h): the homomorphism t: H -> G;
    * s(g): the homomorphism s: G -> H;
    * t_star(y), s_star(x): their differentials at 1.

    `trivial_g` says that G is the one-element group, so that
    `verify_axioms` takes every G-sample to be 1 and draws nothing for it;
    otherwise it draws G-samples as it draws H-samples (see there).  The
    action and its induced maps are methods derived from s and s_*.
    """

    G: GroupDescriptor
    H: GroupDescriptor
    t: Callable
    s: Callable
    t_star: Callable
    s_star: Callable
    kind: str = "custom"
    trivial_g: bool = False

    def alpha(self, g, h):
        """The action alpha(g, h) = s(g) h s(g)^-1."""
        return lc.conjugate(self.s(g), h)

    # alpha_g is linear conjugation, so its differential at 1 is itself.
    alpha_g_star = alpha

    def alpha_star(self, x, y):
        """The mixed differential of alpha at (1, 1): [s_* x, y]."""
        sx = self.s_star(x)
        return sx @ y - y @ sx


_ONE = np.ones((1, 1), dtype=complex)


def make_b_abelian(abelian_desc: GroupDescriptor) -> CrossedModule:
    """Crossed module with trivial G over an abelian H of 1x1 matrices;
    raises CompositionError for larger H."""
    if abelian_desc.matrix_dim != 1:
        raise CompositionError(
            f"b_abelian needs an H of 1x1 matrices, not {abelian_desc.matrix_dim}x"
            f"{abelian_desc.matrix_dim}")
    g_desc = lc.gl(1, "real")

    def one(m):
        return np.broadcast_to(_ONE, np.shape(m)[:-2] + (1, 1))

    return CrossedModule(
        g_desc, abelian_desc,
        t=one,
        s=one,
        t_star=lambda y: np.zeros(np.shape(y)[:-2] + (1, 1), dtype=complex),
        s_star=lambda x: np.zeros(np.shape(x)[:-2] + (1, 1), dtype=complex),
        kind="b_abelian",
        trivial_g=True,
    )


def make_eg(group_desc: GroupDescriptor) -> CrossedModule:
    """H = G with t and s the identity, so alpha is conjugation."""
    identity = partial(np.asarray, dtype=complex)
    return CrossedModule(
        group_desc, group_desc, t=identity, s=identity, t_star=identity, s_star=identity,
        kind="eg",
    )


def make_aut_inner(h_desc: GroupDescriptor) -> CrossedModule:
    """Inner-automorphism image of AUT(H): G-elements are conjugation
    representatives (H-matrices modulo center).  On this image t and alpha
    coincide with the inner 2-group's, so only the kind label differs."""
    return replace(make_eg(h_desc), kind="aut_inner")


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
    """Derivative of g -> alpha(g, h) at g = 1 in direction X (at h):
    s_*(X) h - h s_*(X), which is `CrossedModule.alpha_star`."""
    return cm.alpha_star(x_mat, h_mat)


def alpha_conjugate_star(cm: CrossedModule, a_mats: np.ndarray, x_mats: np.ndarray) -> np.ndarray:
    """(r_a^{-1} o alpha_a)_* : the differential at 1 of g -> alpha(g, a) a^{-1},
    landing in the algebra of H, on stacks of raw matrices."""
    d = alpha_action_diff(cm, x_mats, a_mats) @ np.linalg.inv(a_mats)
    return lc.project_to_algebra(cm.H, d)


@dataclass(frozen=True, eq=False)
class TwoMorphismValue:
    """A 2-morphism value (g, h, g') with the target-matching witness
    g' = t(h) g checked on construction: a relative residual above
    `match_tolerance`, or a NaN one, raises TargetMatchingError.  Surface
    transport returns its value on a bigon in this form."""

    cm: CrossedModule
    source: GroupElement
    h_part: GroupElement
    target: GroupElement
    match_tolerance: float = field(default=1e-8, repr=False)

    def __post_init__(self):
        r = self.matching_residual()
        if not r <= self.match_tolerance:
            raise TargetMatchingError(
                f"target-matching residual {r:.3e} exceeds {self.match_tolerance:.1e}")

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
    if not gap <= tol:
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
    seed is recorded in the report for reproducibility.  Sample k is
    g, g2 in G and h1, h2, x in H, each exp(0.7 P(Z_re + i Z_im)) for its own
    standard normal d x d matrices Z_re, Z_im and P the projection onto the
    algebra.  All of them come from one draw, laid out as
    (n_samples, 5, 2, d, d) when G and H are d x d; for a trivial G
    (`trivial_g`, as in b_abelian) g = g2 = 1 and the layout is
    (n_samples, 3, 2, d, d).  That is the order in which one-at-a-time
    draws (`lc.random_group`) would consume the stream, and every matrix
    is computed as it would be alone, so the report is bit-identical to
    theirs.  Each stack is exponentiated and gated onto its group
    (`lc.group_from_normals`) at once, and every axiom is then evaluated
    once on the stacks of all samples.  A non-finite residual is reported
    as inf, so it fails the check.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    dg, dh = cm.G.matrix_dim, cm.H.matrix_dim
    cut = 0 if cm.trivial_g else 4 * dg * dg  # the normals of g and g2
    z = rng.standard_normal((n_samples, cut + 6 * dh * dh))
    if cm.trivial_g:
        g = g2 = np.broadcast_to(lc.identity(cm.G).matrix, (n_samples, dg, dg))
    else:
        gs = lc.group_from_normals(cm.G, z[:, :cut].reshape(n_samples, 2, 2, dg, dg))
        g, g2 = gs[:, 0], gs[:, 1]
    hs = lc.group_from_normals(cm.H, z[:, cut:].reshape(n_samples, 3, 2, dh, dh))
    h1, h2, x = hs[:, 0], hs[:, 1], hs[:, 2]
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
