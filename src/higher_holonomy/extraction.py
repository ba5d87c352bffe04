"""Differentiation of black-box transport evaluators back into
differential forms, and the residual checks for the morphism calculus.

The one-form of a path evaluator F is read off from straight-line probes:

    A_x(v) = - d/dh F(segment x -> x + h v) |_{h=0},

by a central difference (Richardson-extrapolated by default).  The
two-form of a bigon evaluator uses the 4-point stencil

    (F(h,h) - F(h,-h) - F(-h,h) + F(-h,-h)) / (4 h^2)

applied to the H-projection of the values on standard bigons over the
plane x + s v1 + t v2.  Because the evaluator is the identity along both
axes, the group-element differences are already first-order small, so the
stencil acts on matrices directly and the result is projected to the
algebra; no logarithm is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import higher_group as hg
from . import lie_core as lc
from .forms import GroupValuedMap, OneFormField, TwoFormField
from .geometry import affine_chart, line_path, standard_bigon
from .higher_group import CrossedModule
from .lie_core import AlgebraElement


@dataclass(frozen=True)
class FdConfig:
    step: float = 1e-3
    richardson: bool = True

    def __post_init__(self):
        if not 0.0 < self.step < 0.1:
            raise ValueError("fd step must lie in (0, 0.1)")


DEFAULT_FD = FdConfig()


def _derivative(stencil, fd: FdConfig) -> AlgebraElement:
    """Minus the algebra part of an O(h^2) difference quotient
    `stencil(h) -> (matrix, descriptor)` at fd.step, Richardson-extrapolated
    with the quotient at fd.step / 2 when fd.richardson is set."""
    der, desc = stencil(fd.step)
    if fd.richardson:
        fine, _ = stencil(fd.step / 2.0)
        der = (4.0 * fine - der) / 3.0
    return AlgebraElement(desc, -lc.project_to_algebra(desc, der), validate=False)


def extract_one_form(evaluator, x, v, fd: FdConfig = DEFAULT_FD) -> AlgebraElement:
    """Recover A_x(v) from a path evaluator (Path -> GroupElement)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)

    def quotient(h):
        gp = evaluator(line_path(x, x + h * v))
        gm = evaluator(line_path(x, x - h * v))
        return (gp.matrix - gm.matrix) / (2.0 * h), gp.descriptor

    return _derivative(quotient, fd)


def extract_two_form(evaluator, x, v1, v2, fd: FdConfig = DEFAULT_FD) -> AlgebraElement:
    """Recover B_x(v1, v2) from a bigon evaluator (Bigon -> TwoMorphismValue)."""
    chart = affine_chart(np.asarray(x, dtype=float),
                         np.asarray(v1, dtype=float), np.asarray(v2, dtype=float))

    def h_value(a, b):
        return evaluator(standard_bigon(chart, a, b))

    def stencil(h):
        vpp = h_value(h, h)
        vpm = h_value(h, -h)
        vmp = h_value(-h, h)
        vmm = h_value(-h, -h)
        mat = (vpp.h_part.matrix - vpm.h_part.matrix
               - vmp.h_part.matrix + vmm.h_part.matrix) / (4.0 * h * h)
        return mat, vpp.h_part.descriptor

    return _derivative(stencil, fd)


def one_form_from_evaluator(descriptor, fn, ambient_dim: int) -> OneFormField:
    """Wrap a pointwise evaluator (x, v) -> AlgebraElement as a one-form
    field (components sampled on the coordinate basis)."""
    def component(i):
        def comp(x, i=i):
            e = np.zeros(ambient_dim)
            e[i] = 1.0
            return fn(x, e).matrix
        return comp

    comps = [
        fm.CallableMatrixField(component(i), descriptor.matrix_dim, ambient_dim,
                               vectorized=False)
        for i in range(ambient_dim)
    ]
    return OneFormField(descriptor, comps, ambient_dim)


@dataclass(frozen=True)
class ExtractedTransformation:
    g_map: GroupValuedMap
    phi: OneFormField


def extract_transformation(g_map: GroupValuedMap, rho_h, h_descriptor,
                           ambient_dim: int, fd: FdConfig = DEFAULT_FD) -> ExtractedTransformation:
    """Recover (g, phi) from a pseudonatural transformation given by its
    object components g and its H-component on paths.  The functorial
    repackaging inverts the H-part, so phi is extracted from
    gamma -> rho_H(gamma)^{-1}."""

    def inv_eval(gamma):
        return lc.ginv(rho_h(gamma))

    def phi_eval(x, v):
        return extract_one_form(inv_eval, x, v, fd)

    return ExtractedTransformation(
        g_map, one_form_from_evaluator(h_descriptor, phi_eval, ambient_dim)
    )


def residual_prop1(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                   box=None, n_samples: int = 64, seed: int = 0) -> float:
    """Max sampled defect of dA + [A ^ A] = t_* B."""
    return fm.fake_curvature_residual(cm, a, b, box, n_samples, seed).max_residual


@dataclass(frozen=True)
class MorphismResiduals:
    connection_eq: float
    curving_eq: float

    @property
    def max_residual(self) -> float:
        return max(self.connection_eq, self.curving_eq)


def residual_prop2(cm: CrossedModule, g_map: GroupValuedMap, phi: OneFormField,
                   a: OneFormField, b: TwoFormField,
                   a_prime: OneFormField, b_prime: TwoFormField,
                   points) -> MorphismResiduals:
    """Max sampled defect of the two equations tying a morphism (g, phi)
    to its source and target pairs, on the coordinate vectors and planes
    at every point of `points` at once:

        A' + t_* phi = Ad_g(A) - g* theta
        B' + alpha_*(A' ^ phi) + d phi + [phi ^ phi] = (alpha_g)_* B

    A non-finite defect is reported as inf.
    """
    n = a.ambient_dim
    xs = np.asarray(points, dtype=float).reshape(-1, n)
    g = g_map.matrix(xs)
    inv_g = np.linalg.inv(g)
    ap = [c.eval(xs) for c in a_prime.components]
    ph = [c.eval(xs) for c in phi.components]
    connection = [ap[i] + cm.t_star(ph[i])
                  - (g @ a.components[i].eval(xs) @ inv_g - g_map.mc_fn(i, xs))
                  for i in range(n)]
    curving = [b_prime.component_matrix(i, j, xs)
               + (cm.alpha_star(ap[i], ph[j]) - cm.alpha_star(ap[j], ph[i])) + k
               - cm.alpha_g_star(g, b.component_matrix(i, j, xs))
               for (i, j), k in fm.coordinate_curvatures(phi, xs)]
    return MorphismResiduals(lc.max_frob(np.stack(connection)),
                             lc.max_frob(np.stack(curving)) if curving else 0.0)


def residual_prop3(cm: CrossedModule, a_map: GroupValuedMap,
                   g1_map: GroupValuedMap, phi1: OneFormField,
                   g2_map: GroupValuedMap, phi2: OneFormField,
                   a_prime: OneFormField, points) -> MorphismResiduals:
    """Max sampled defect of the 2-morphism equations for a: X -> H, on
    the coordinate vectors at every point of `points` at once:

        g2 = (t o a) g1
        phi2 + (r_a^{-1} o alpha_a)_*(A') = Ad_a(phi1) - a* theta

    A non-finite defect is reported as inf.
    """
    n = a_prime.ambient_dim
    xs = np.asarray(points, dtype=float).reshape(-1, n)
    a = a_map.matrix(xs)
    inv_a = np.linalg.inv(a)
    res_g = lc.max_frob(g2_map.matrix(xs) - cm.t(a) @ g1_map.matrix(xs))
    res_phi = [phi2.components[i].eval(xs)
               + hg.alpha_conjugate_star(cm, a, a_prime.components[i].eval(xs))
               - (a @ phi1.components[i].eval(xs) @ inv_a - a_map.mc_fn(i, xs))
               for i in range(n)]
    return MorphismResiduals(res_g, lc.max_frob(np.stack(res_phi)))


def compose_z2_morphisms(m1, m2, cm: CrossedModule):
    """Composite of two morphisms (g1, phi1) then (g2, phi2):
    (g2 g1, (alpha_{g2})_* phi1 + phi2).  The Maurer-Cartan pullback of the
    composite map is mc(g2) + Ad_{g2} mc(g1), so it stays exact."""
    g1_map, phi1 = m1
    g2_map, phi2 = m2

    def g_eval(x):
        return g2_map.matrix(x) @ g1_map.matrix(x)

    def g_mc(i, x):
        g2 = g2_map.matrix(x)
        return g2_map.mc_fn(i, x) + g2 @ g1_map.mc_fn(i, x) @ np.linalg.inv(g2)

    def component(i):
        def comp(x):
            acted = hg.alpha_g_star_matrices(cm, g2_map.matrix(x), phi1.components[i].eval(x))
            return acted + phi2.components[i].eval(x)
        return comp

    n = phi1.ambient_dim
    comps = [fm.CallableMatrixField(component(i), cm.H.matrix_dim, n) for i in range(n)]
    return GroupValuedMap(cm.G, g_eval, g_mc), OneFormField(cm.H, comps, n)
