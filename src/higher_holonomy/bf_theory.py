"""BF action on the unit 4-cube, its decomposition, and the criticality
characterization of fake-flat pairs.

The field strength mismatch beta = F_A - t_* B drives the action

    S(A, B) = 1/2 integral <beta ^ beta>,

evaluated by a midpoint rule on a uniform grid over [0,1]^4 (the cube
stands in for a compact oriented 4-manifold; no boundary terms are
considered).  The 4-form <beta ^ beta> is expanded in coordinate 2-plane
components with the standard shuffle signs.  Grid-point evaluations are
independent; the reduction is numpy's deterministic pairwise sum.

Beta is assembled on the axes of the grid, a `sampling.ProductGrid`, each
term only along the coordinates it depends on (see `forms`); each plane's
beta is then spread once over all n^4 cells, in the C order of the stacked
cell centers, so the pairing and the sum see the values they would there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import higher_group as hg
from . import lie_core as lc
from .errors import DomainError
from .forms import OneFormField, TwoFormField, add_one_forms, add_two_forms
from .higher_group import CrossedModule
from .lie_core import AlgebraElement
from .sampling import ProductGrid

# step of the central difference along each perturbation direction
_CRITICALITY_EPSILON = 1e-3

# shuffle decomposition of a 4-form from two 2-forms: pairs of complementary
# planes with their permutation signs
_SHUFFLES = (((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0), ((0, 3), (1, 2), 1.0),
             ((1, 2), (0, 3), 1.0), ((1, 3), (0, 2), -1.0), ((2, 3), (0, 1), 1.0))


@dataclass(frozen=True)
class PairingSpec:
    """Ad-invariant symmetric bilinear form on the algebra of G:
    -trace(XY) for compact real forms (positive definite there),
    trace(XY) otherwise."""

    kind: str = "neg_trace"

    def __post_init__(self):
        if self.kind not in ("neg_trace", "trace"):
            raise ValueError("pairing kind must be 'neg_trace' or 'trace'")

    def pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        tr = np.einsum("...ij,...ji->...", x, y)
        val = -tr if self.kind == "neg_trace" else tr
        return val.real


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n^4 cells over the unit 4-cube."""

    n: int = 12

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid must have at least 2 cells per axis")

    def centers(self) -> ProductGrid:
        """The n^4 cell centers, n per axis."""
        axis = (np.arange(self.n) + 0.5) / self.n
        return ProductGrid((axis,) * 4)

    def cell_volume(self) -> float:
        r = 1.0 / self.n
        return r * r * r * r

    def coarser(self) -> "GridSpec":
        return GridSpec(max(2, self.n // 2))


def _plane_components(cm: CrossedModule, a: OneFormField, b: TwoFormField, xs):
    """Yield ((i, j), F_A, t_* B) for every coordinate 2-plane, i < j, at
    stacked points or on a `ProductGrid`, one plane at a time."""
    for (i, j), f in fm.coordinate_curvatures(a, xs):
        yield (i, j), f, hg.t_star_matrix(cm, b.component_matrix(i, j, xs))


def _beta_components(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                     grid: ProductGrid) -> dict:
    """beta = F_A - t_* B on all coordinate 2-planes, each a stack over
    every point of the grid."""
    return {pl: grid.flat(f - tb) for pl, f, tb in _plane_components(cm, a, b, grid)}


def beta_field(cm: CrossedModule, a: OneFormField, b: TwoFormField, x,
               planes=None) -> dict:
    """Pointwise beta = F_A - t_* B per coordinate 2-plane.  The input pair
    need not be fake-flat; this is the quantity whose vanishing
    characterizes critical points."""
    x = np.asarray(x, dtype=float)
    comps = {pl: f - tb for pl, f, tb in _plane_components(cm, a, b, x[None])}
    wanted = planes if planes is not None else sorted(comps)
    return {
        pl: AlgebraElement(cm.G, comps[pl][0], validate=False) for pl in wanted
    }


def _wedge_pair_integrand(pairing: PairingSpec, omega: dict, eta: dict) -> np.ndarray:
    """<omega ^ eta>(e1, e2, e3, e4) from 2-plane components, the sum of the
    six shuffle terms.  The last three shuffles are the first three with
    their planes swapped and the same signs, and the pairing is symmetric,
    so <omega ^ omega> is twice the sum of the first three."""
    square = omega is eta
    total = None
    for (p, q, sign) in (_SHUFFLES[:3] if square else _SHUFFLES):
        term = sign * pairing.pair(omega[p], eta[q])
        total = term if total is None else total + term
    return 2.0 * total if square else total


def bf_action(cm: CrossedModule, a: OneFormField, b: TwoFormField,
              pairing: PairingSpec = PairingSpec(), grid: GridSpec = GridSpec()) -> float:
    """S(A, B) = 1/2 integral <beta ^ beta> by the midpoint rule."""
    if a.ambient_dim != 4:
        raise DomainError("BF action requires ambient dimension 4")
    beta = _beta_components(cm, a, b, grid.centers())
    integrand = 0.5 * _wedge_pair_integrand(pairing, beta, beta)
    return float(np.sum(integrand) * grid.cell_volume())


def beta_sup_norm(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                  grid: GridSpec = GridSpec()) -> float:
    """Largest Frobenius norm of beta over the grid's cell centers and the
    coordinate planes; inf when a value is not finite."""
    beta = _beta_components(cm, a, b, grid.centers())
    return max((lc.max_frob(mat) for mat in beta.values()), default=0.0)


@dataclass(frozen=True)
class ActionDecomposition:
    yang_mills: float
    bf_term: float
    cosmological: float

    @property
    def total(self) -> float:
        return self.yang_mills + self.bf_term + self.cosmological


def action_decomposition(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                         pairing: PairingSpec = PairingSpec(),
                         grid: GridSpec = GridSpec()) -> ActionDecomposition:
    """Split S into the topological Yang-Mills term, the BF cross term and
    the cosmological term; the three sum to S on the same grid exactly up
    to floating point."""
    f_comp, tb_comp = {}, {}
    centers = grid.centers()
    for pl, f, tb in _plane_components(cm, a, b, centers):
        f_comp[pl], tb_comp[pl] = centers.flat(f), centers.flat(tb)
    vol = grid.cell_volume()
    ym = 0.5 * float(np.sum(_wedge_pair_integrand(pairing, f_comp, f_comp)) * vol)
    cross = -float(np.sum(_wedge_pair_integrand(pairing, tb_comp, f_comp)) * vol)
    cosmo = 0.5 * float(np.sum(_wedge_pair_integrand(pairing, tb_comp, tb_comp)) * vol)
    return ActionDecomposition(ym, cross, cosmo)


def quadrature_error_estimate(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                              pairing: PairingSpec = PairingSpec(),
                              grid: GridSpec = GridSpec()) -> float:
    """|S(n) - S(n/2)|: an upper bound on the change under one further
    refinement for the second-order midpoint rule."""
    s_fine = bf_action(cm, a, b, pairing, grid)
    s_coarse = bf_action(cm, a, b, pairing, grid.coarser())
    return abs(s_fine - s_coarse)


def _random_polynomial_form_entries(rng, descriptor, ambient_dim):
    """One matrix of affine-coefficient expressions with unit sup-norm on
    the unit box, used as a perturbation direction."""
    x0 = lc.random_algebra(descriptor, rng, 1.0).matrix
    axis = int(rng.integers(0, ambient_dim))
    c0 = float(rng.uniform(-1.0, 1.0))
    c1 = float(rng.uniform(-1.0, 1.0))
    scale = max(abs(c0) + abs(c1), 1e-9) * max(float(np.max(np.abs(x0))), 1e-9)
    d = descriptor.matrix_dim
    rows = []
    for r in range(d):
        row = []
        for c in range(d):
            zre = complex(x0[r, c])
            row.append(f"({zre.real!r} + {zre.imag!r}*i)*({c0!r} + {c1!r}*x{axis + 1})"
                       f"/({scale!r})")
        rows.append(row)
    return rows


def _perturbation_one_form(rng, descriptor, ambient_dim) -> OneFormField:
    tables = [_random_polynomial_form_entries(rng, descriptor, ambient_dim)
              for _ in range(ambient_dim)]
    return fm.one_form_from_expressions(descriptor, tables, ambient_dim)


def _perturbation_two_form(rng, descriptor, ambient_dim) -> TwoFormField:
    tables = {}
    for i in range(ambient_dim):
        for j in range(i + 1, ambient_dim):
            tables[(i, j)] = _random_polynomial_form_entries(rng, descriptor, ambient_dim)
    return fm.two_form_from_expressions(descriptor, tables, ambient_dim)


@dataclass(frozen=True)
class CriticalityReport:
    derivatives: tuple
    beta_sup: float
    action: float
    epsilon: float
    seed: int

    @property
    def max_abs_derivative(self) -> float:
        # np.max keeps a NaN wherever it stands; Python max drops a later one
        return float(np.max(np.abs(self.derivatives)))

    def as_dict(self) -> dict:
        return {
            "directional_derivatives": list(self.derivatives),
            "max_abs_derivative": self.max_abs_derivative,
            "beta_sup": self.beta_sup,
            "action": self.action,
            "epsilon": self.epsilon,
            "seed": self.seed,
        }


def criticality_check(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                      pairing: PairingSpec = PairingSpec(),
                      grid: GridSpec = GridSpec(), n_directions: int = 8,
                      seed: int = 0) -> CriticalityReport:
    """Central-difference directional derivatives of S along random smooth
    polynomial perturbations of A and of B (alternating), each with unit
    sup-norm.  Critical pairs are exactly those with beta = 0, so all
    derivatives vanish there up to the O(eps^2) bias of the difference.
    """
    eps = _CRITICALITY_EPSILON
    rng = np.random.default_rng(seed)
    derivs = []
    for k in range(n_directions):
        if k % 2 == 0:
            delta = _perturbation_one_form(rng, a.descriptor, a.ambient_dim)
            s_plus = bf_action(cm, add_one_forms(a, delta, eps), b, pairing, grid)
            s_minus = bf_action(cm, add_one_forms(a, delta, -eps), b, pairing, grid)
        else:
            delta = _perturbation_two_form(rng, b.descriptor, b.ambient_dim)
            s_plus = bf_action(cm, a, add_two_forms(b, delta, eps), pairing, grid)
            s_minus = bf_action(cm, a, add_two_forms(b, delta, -eps), pairing, grid)
        derivs.append((s_plus - s_minus) / (2.0 * eps))
    return CriticalityReport(
        derivatives=tuple(derivs),
        beta_sup=beta_sup_norm(cm, a, b, grid),
        action=bf_action(cm, a, b, pairing, grid),
        epsilon=eps,
        seed=seed,
    )
