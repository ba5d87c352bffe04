"""Lie-algebra-valued differential forms on open subsets of R^n, their
curvatures, and the fake-curvature gate.

Forms are tables of matrix-valued component fields.  Components backed by
scalar expressions are differentiated symbolically; components backed by
plain callables fall back to central finite differences with the field's
own step (`CallableMatrixField.fd_step`, default 1e-4), which every
consumer -- curvature, the fake-curvature gate, BF theory -- uses.  All
evaluators broadcast over stacked sample points.  A field whose expression
entries are all numbers (such as every partial of a linear field)
evaluates to a read-only broadcast view of one matrix, so no consumer may
write into a field's values.

A field's `eval`, `component_matrix` and `coordinate_curvatures` also take
a `sampling.ProductGrid`: an expression field binds only its free variables
to their axes, so its values have the broadcast shape of the axes it uses,
and a callable gets the grid's flat points, its values viewed on the grid's
shape.  Curvatures and brackets take the broadcast shape of their operands.
Each value is the one the same arithmetic gives at the stacked points.
The bracket of a curvature is `lie_core.add_commutator`: this module picks
no kernel by matrix size.

Every evaluator on vectors is one frame contraction (`_frame_sum`) with one
rule: a component or plane whose frame coefficient is identically zero is
not evaluated, so a pole or NaN there is not seen.  The gates of
`ConnectionPair` still evaluate every component on their samples.

Wedge-bracket normalization used throughout the package:

    [A ^ A](v1, v2) := [A(v1), A(v2)]          (no factor 1/2)
    alpha_*(A ^ phi)(v1, v2) := alpha_*(A(v1), phi(v2)) - alpha_*(A(v2), phi(v1))

This choice is validated numerically by the requirement that the 2-form of
a derivative 2-functor equals dA + [A ^ A] (see the transport tests).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expressions as xp
from . import higher_group as hg
from . import lie_core as lc
from .errors import FakeCurvatureError
from .higher_group import CrossedModule
from .lie_core import AlgebraElement, GroupDescriptor, GroupElement
from .sampling import ProductGrid, halton_box

_DEFAULT_FD = 1e-4


class ExpressionMatrixField:
    """Matrix-valued function of position: a (d, d) complex `xp.Table`
    over x1..xn, given as `entries` or built from them."""

    is_symbolic = True

    def __init__(self, entries, dim: int, ambient_dim: int):
        self.dim = int(dim)
        self.ambient_dim = int(ambient_dim)
        self.table = (entries if isinstance(entries, xp.Table)
                      else xp.Table(entries, _coordinates(ambient_dim)))
        self.entries = self.table.entries
        if self.entries.shape != (dim, dim):
            raise ValueError("entry table is not square of the declared dim")
        self._partials = {}

    def eval(self, x) -> np.ndarray:
        """Values at stacked points x (..., n), shape (..., d, d), or on a
        `ProductGrid`, at the broadcast shape of the axes the entries use;
        a field of numbers returns a read-only broadcast view of its one
        matrix."""
        return _at(self.table, x)

    def partial(self, axis: int) -> "ExpressionMatrixField":
        # exact; cached per axis
        if axis not in self._partials:
            self._partials[axis] = ExpressionMatrixField(
                self.table.partial(f"x{axis + 1}"), self.dim, self.ambient_dim)
        return self._partials[axis]


def _coordinates(ambient_dim: int) -> list:
    return [f"x{k + 1}" for k in range(ambient_dim)]


def _at(table: xp.Table, x) -> np.ndarray:
    """`table`, over x1..xn, at stacked points x (..., n) or on a
    `ProductGrid`, whose axes bind the table's free variables."""
    if isinstance(x, ProductGrid):
        free = table.free_variables
        return table.eval(*[axis if v in free else x.unit
                            for v, axis in zip(table.variables, x.axes)])
    x = np.asarray(x, dtype=float)
    return table.eval(*[x[..., k] for k in range(len(table.variables))])


def _as_points(x):
    """A `ProductGrid` as it is; anything else as a float array of stacked
    points."""
    return x if isinstance(x, ProductGrid) else np.asarray(x, dtype=float)


def _lead_shape(x) -> tuple:
    """The leading shape every value at x broadcasts with: that of stacked
    points, and size 1 per axis on a `ProductGrid`."""
    return x.unit.shape if isinstance(x, ProductGrid) else x.shape[:-1]


class CallableMatrixField:
    """Matrix-valued function given as a black-box callable.

    `fn` receives a stacked array of points (..., n) and must return
    (..., d, d), or one (d, d) matrix for any stack; set vectorized=False
    to have points looped one at a time.  On a `ProductGrid` it receives
    the grid's flat points, and a stack it returns is viewed on the grid's
    shape.
    """

    is_symbolic = False

    def __init__(self, fn, dim: int, ambient_dim: int, vectorized: bool = True,
                 fd_step: float = _DEFAULT_FD):
        self.fn = fn
        self.dim = int(dim)
        self.ambient_dim = int(ambient_dim)
        self.vectorized = vectorized
        self.fd_step = fd_step

    def eval(self, x) -> np.ndarray:
        grid = x if isinstance(x, ProductGrid) else None
        x = grid.points if grid is not None else np.asarray(x, dtype=float)
        if self.vectorized:
            out = np.asarray(self.fn(x), dtype=complex)
        else:
            flat = x.reshape(-1, x.shape[-1])
            out = np.stack([np.asarray(self.fn(p), dtype=complex) for p in flat])
            out = out.reshape(x.shape[:-1] + (self.dim, self.dim))
        if grid is not None and out.ndim > 2:
            out = out.reshape(grid.grid_shape + out.shape[-2:])
        return out

    def partial(self, axis: int) -> "CallableMatrixField":
        h = self.fd_step

        def dfn(x):
            x = np.asarray(x, dtype=float)
            e = np.zeros(x.shape[-1])
            e[axis] = h
            return (self.eval(x + e) - self.eval(x - e)) / (2.0 * h)

        return CallableMatrixField(dfn, self.dim, self.ambient_dim, vectorized=True,
                                   fd_step=h)


def _frame_sum(terms, shapes, d: int) -> np.ndarray:
    """Sum of value() * coef[..., None, None] over (coef, value) pairs, in
    order, skipping a pair whose coefficient stack is identically zero
    without calling its value (a NaN is not zero; `np.count_nonzero` tests
    a small stack in a quarter of the time of `.any()`).  When every pair
    is skipped: complex zeros of the leading `shapes` (of the points and
    the frames) broadcast with the coefficients."""
    out, skipped = None, []
    for coef, value in terms:
        if np.count_nonzero(coef):
            term = value() * coef[..., None, None]
            out = term if out is None else out + term
        else:
            skipped.append(coef.shape)
    if out is None:
        return np.zeros(np.broadcast_shapes(*shapes, *skipped) + (d, d), dtype=complex)
    return out


def _sym_scale(field: ExpressionMatrixField, factor) -> ExpressionMatrixField:
    rows = [[xp.simplify(xp.Bin("*", xp.Num(factor), e)) for e in row] for row in field.entries]
    return ExpressionMatrixField(rows, field.dim, field.ambient_dim)


def _sym_entrywise(op: str, a: ExpressionMatrixField,
                   b: ExpressionMatrixField) -> ExpressionMatrixField:
    """a op b entry by entry, for op "+" or "-"."""
    rows = [
        [xp.simplify(xp.Bin(op, ea, eb)) for ea, eb in zip(ra, rb)]
        for ra, rb in zip(a.entries, b.entries)
    ]
    return ExpressionMatrixField(rows, a.dim, a.ambient_dim)


def _sym_matmul(a: ExpressionMatrixField, b: ExpressionMatrixField) -> ExpressionMatrixField:
    d = a.dim
    rows = []
    for r in range(d):
        row = []
        for c in range(d):
            acc = xp.Num(0.0)
            for k in range(d):
                acc = xp.Bin("+", acc, xp.Bin("*", a.entries[r][k], b.entries[k][c]))
            row.append(xp.simplify(acc))
        rows.append(row)
    return ExpressionMatrixField(rows, d, a.ambient_dim)


class OneFormField:
    """A one-form with values in the tangent algebra of `descriptor`:
    one matrix-valued component per ambient coordinate."""

    def __init__(self, descriptor: GroupDescriptor, components, ambient_dim: int):
        self.descriptor = descriptor
        self.components = list(components)
        self.ambient_dim = int(ambient_dim)
        if len(self.components) != ambient_dim:
            raise ValueError("need one component per ambient coordinate")

    @property
    def is_symbolic(self) -> bool:
        return all(c.is_symbolic for c in self.components)

    def component_matrix(self, i: int, x) -> np.ndarray:
        return self.components[i].eval(x)

    def matrices_at(self, x, v) -> np.ndarray:
        """Sum_i A_i(x) v_i over stacked points x (..., n) and vectors v.
        A component whose coefficient v_i is zero at every point is not
        evaluated, so a pole or NaN there is not seen."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return _frame_sum(((v[..., i], lambda c=c: c.eval(x))
                           for i, c in enumerate(self.components)),
                          (x.shape[:-1], v.shape[:-1]), self.descriptor.matrix_dim)

    def __call__(self, x, v) -> AlgebraElement:
        return AlgebraElement(self.descriptor, self.matrices_at(x, v), validate=False)


class TwoFormField:
    """A two-form with values in the tangent algebra of `descriptor`:
    components B_ij stored for i < j, extended antisymmetrically."""

    def __init__(self, descriptor: GroupDescriptor, components: dict, ambient_dim: int):
        self.descriptor = descriptor
        self.ambient_dim = int(ambient_dim)
        self.components = {}
        for (i, j), fld in components.items():
            if not 0 <= i < j < ambient_dim:
                raise ValueError(f"two-form index pair {(i, j)} must satisfy 0 <= i < j < n")
            self.components[(i, j)] = fld

    @property
    def is_symbolic(self) -> bool:
        return all(c.is_symbolic for c in self.components.values())

    def component_matrix(self, i: int, j: int, x) -> np.ndarray:
        x = _as_points(x)
        fld = self.components.get((min(i, j), max(i, j)))  # (i, i) is never stored
        if fld is None:
            d = self.descriptor.matrix_dim
            return np.zeros(_lead_shape(x) + (d, d), dtype=complex)
        return fld.eval(x) if i < j else -fld.eval(x)

    def matrices_at(self, x, v1, v2) -> np.ndarray:
        """Sum over stored i < j of B_ij(x) (v1_i v2_j - v1_j v2_i); a plane
        whose coefficient is zero at every point is not evaluated."""
        x = np.asarray(x, dtype=float)
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        return _frame_sum(((v1[..., i] * v2[..., j] - v1[..., j] * v2[..., i],
                            lambda fld=fld: fld.eval(x))
                           for (i, j), fld in self.components.items()),
                          (x.shape[:-1], v1.shape[:-1], v2.shape[:-1]), self.descriptor.matrix_dim)

    def __call__(self, x, v1, v2) -> AlgebraElement:
        return AlgebraElement(self.descriptor, self.matrices_at(x, v1, v2), validate=False)


def one_form_from_expressions(descriptor: GroupDescriptor, tables, ambient_dim: int) -> OneFormField:
    """tables: one d x d matrix of expression strings per coordinate."""
    d = descriptor.matrix_dim
    comps = [ExpressionMatrixField(t, d, ambient_dim) for t in tables]
    return OneFormField(descriptor, comps, ambient_dim)


def zero_one_form(descriptor: GroupDescriptor, ambient_dim: int) -> OneFormField:
    d = descriptor.matrix_dim
    return one_form_from_expressions(descriptor, [np.zeros((d, d))] * ambient_dim, ambient_dim)


def two_form_from_expressions(descriptor: GroupDescriptor, tables: dict, ambient_dim: int) -> TwoFormField:
    """tables: {(i, j): d x d matrix of expression strings} with 0-based i < j."""
    d = descriptor.matrix_dim
    comps = {
        key: ExpressionMatrixField(t, d, ambient_dim)
        for key, t in tables.items()
    }
    return TwoFormField(descriptor, comps, ambient_dim)


def one_form_from_callables(descriptor: GroupDescriptor, fns, ambient_dim: int,
                            vectorized: bool = True, fd_step: float = _DEFAULT_FD) -> OneFormField:
    d = descriptor.matrix_dim
    comps = [CallableMatrixField(f, d, ambient_dim, vectorized, fd_step) for f in fns]
    return OneFormField(descriptor, comps, ambient_dim)


def two_form_from_callables(descriptor: GroupDescriptor, fns: dict, ambient_dim: int,
                            vectorized: bool = True, fd_step: float = _DEFAULT_FD) -> TwoFormField:
    d = descriptor.matrix_dim
    comps = {k: CallableMatrixField(f, d, ambient_dim, vectorized, fd_step)
             for k, f in fns.items()}
    return TwoFormField(descriptor, comps, ambient_dim)


def _add_fields(ca, cb, factor: float):
    """ca + factor * cb, symbolic when both are."""
    if ca.is_symbolic and cb.is_symbolic:
        return _sym_entrywise("+", ca, _sym_scale(cb, factor))
    return CallableMatrixField(lambda x: ca.eval(x) + factor * cb.eval(x),
                               ca.dim, ca.ambient_dim, vectorized=True)


def add_one_forms(a: OneFormField, b: OneFormField, factor: float = 1.0) -> OneFormField:
    """a + factor * b, symbolic when both sides are."""
    comps = [_add_fields(ca, cb, factor) for ca, cb in zip(a.components, b.components)]
    return OneFormField(a.descriptor, comps, a.ambient_dim)


def add_two_forms(a: TwoFormField, b: TwoFormField, factor: float = 1.0) -> TwoFormField:
    d = a.descriptor.matrix_dim
    zero = ExpressionMatrixField(np.zeros((d, d)), d, a.ambient_dim)
    comps = {key: _add_fields(a.components.get(key, zero), b.components.get(key, zero), factor)
             for key in set(a.components) | set(b.components)}
    return TwoFormField(a.descriptor, comps, a.ambient_dim)


def exterior_derivative_one_form(a: OneFormField, x, v1, v2) -> np.ndarray:
    """dA(v1, v2) for constant frames on stacked points."""
    x = np.asarray(x, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n = a.ambient_dim
    return _frame_sum(((v1[..., i] * v2[..., j] - v2[..., i] * v1[..., j],
                        lambda i=i, j=j: a.components[j].partial(i).eval(x))
                       for j in range(n) for i in range(n)),
                      (x.shape[:-1], v1.shape[:-1], v2.shape[:-1]), a.descriptor.matrix_dim)


def _plane_curvature(a: OneFormField, xs, i: int, j: int,
                     a_i: np.ndarray, a_j: np.ndarray) -> np.ndarray:
    """K_ij = d_i A_j - d_j A_i + [A_i, A_j] at stacked points or on a
    `ProductGrid` xs, the curvature on the unit frame (e_i, e_j), from the
    values a_i, a_j of A_i and A_j there; a fresh array of the broadcast
    shape of xs (`_lead_shape`) and the four operands, so a constant
    partial costs no full-size evaluation."""
    d = a.descriptor.matrix_dim
    di_aj = a.components[j].partial(i).eval(xs)
    dj_ai = a.components[i].partial(j).eval(xs)
    k = np.empty(np.broadcast_shapes(_lead_shape(xs), di_aj.shape[:-2], dj_ai.shape[:-2],
                                     a_i.shape[:-2], a_j.shape[:-2]) + (d, d), dtype=complex)
    np.subtract(di_aj, dj_ai, out=k)
    lc.add_commutator(k, a_i, a_j)
    return k


def coordinate_curvatures(a: OneFormField, xs):
    """Yield ((i, j), K_ij) for every coordinate plane i < j at stacked
    points xs (..., n) or on a `ProductGrid`.  Each component of A, and
    each partial d_i A_j (i != j), is evaluated once per call."""
    xs = _as_points(xs)
    comps = [c.eval(xs) for c in a.components]
    for i in range(a.ambient_dim):
        for j in range(i + 1, a.ambient_dim):
            yield (i, j), _plane_curvature(a, xs, i, j, comps[i], comps[j])


def curvature_matrices_at(a: OneFormField, x, v1, v2) -> np.ndarray:
    """K(v1, v2) = dA(v1, v2) + [A(v1), A(v2)] on stacked points, as the
    frame contraction sum over i < j of (v1_i v2_j - v1_j v2_i) K_ij.
    Planes whose coefficient is identically zero are skipped, and only the
    components of A the other planes need are evaluated, each once."""
    x = np.asarray(x, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    comp = functools.cache(lambda m: a.components[m].eval(x))
    n = a.ambient_dim
    return _frame_sum(((v1[..., i] * v2[..., j] - v1[..., j] * v2[..., i],
                        lambda i=i, j=j: _plane_curvature(a, x, i, j, comp(i), comp(j)))
                       for i in range(n) for j in range(i + 1, n)),
                      (x.shape[:-1], v1.shape[:-1], v2.shape[:-1]), a.descriptor.matrix_dim)


def curvature_two_form(a: OneFormField, x, v1, v2) -> AlgebraElement:
    return AlgebraElement(a.descriptor, curvature_matrices_at(a, x, v1, v2), validate=False)


def symbolic_curvature(a: OneFormField) -> TwoFormField:
    """Exact curvature two-form of a symbolic one-form; component (i,j) is
    dA_ij + [A_i, A_j]."""
    if not a.is_symbolic:
        raise ValueError("symbolic_curvature needs expression-backed components")
    comps = {}
    n = a.ambient_dim
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = _sym_entrywise("-", a.components[j].partial(i), a.components[i].partial(j))
            br = _sym_entrywise("-", _sym_matmul(a.components[i], a.components[j]),
                                _sym_matmul(a.components[j], a.components[i]))
            comps[(i, j)] = _sym_entrywise("+", d_ij, br)
    return TwoFormField(a.descriptor, comps, n)


def exterior_derivative_two_form(b: TwoFormField, x, v1, v2, v3) -> np.ndarray:
    """dB(v1, v2, v3) for constant frames: the cyclic sum of directional
    derivatives of the contracted components."""
    x = np.asarray(x, dtype=float)
    vs = [np.asarray(v, dtype=float) for v in (v1, v2, v3)]
    d = b.descriptor.matrix_dim

    def directional(fld, va):
        return _frame_sum(((va[..., k], lambda k=k: fld.partial(k).eval(x))
                           for k in range(b.ambient_dim)), (x.shape[:-1], va.shape[:-1]), d)

    return _frame_sum(((vb[..., i] * vc[..., j] - vb[..., j] * vc[..., i],
                        lambda fld=fld, va=va: directional(fld, va))
                       for va, vb, vc in (vs[c:] + vs[:c] for c in range(3))
                       for (i, j), fld in b.components.items()),
                      [x.shape[:-1]] + [v.shape[:-1] for v in vs], d)


def _algebra_value(descriptor: GroupDescriptor, m: np.ndarray):
    """An AlgebraElement at one point; the raw (..., d, d) stack otherwise."""
    return AlgebraElement(descriptor, m, validate=False) if m.ndim == 2 else m


def curvature_three_form(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                         x, v1, v2, v3):
    """dB + alpha_*(A ^ B) evaluated on a triple of vectors, at one point or
    on stacked points (see `_algebra_value`)."""
    total = exterior_derivative_two_form(b, x, v1, v2, v3)
    vs = [np.asarray(v, dtype=float) for v in (v1, v2, v3)]
    for c in range(3):
        va, vb_, vc = vs[c], vs[(c + 1) % 3], vs[(c + 2) % 3]
        total = total + cm.alpha_star(a.matrices_at(x, va), b.matrices_at(x, vb_, vc))
    return _algebra_value(b.descriptor, total)


def alpha_wedge(cm: CrossedModule, a_prime: OneFormField, phi: OneFormField, x, v1, v2):
    """alpha_*(A' ^ phi)(v1, v2), at one point or on stacked points (see
    `_algebra_value`)."""
    t1 = cm.alpha_star(a_prime.matrices_at(x, v1), phi.matrices_at(x, v2))
    t2 = cm.alpha_star(a_prime.matrices_at(x, v2), phi.matrices_at(x, v1))
    return _algebra_value(phi.descriptor, t1 - t2)


class GroupValuedMap:
    """Smooth map g from the base space into a matrix group, carried by its
    value and the pullback of the right Maurer-Cartan form.

    Both callables take stacked points (..., n): `eval_fn(x)` returns g(x)
    as (..., d, d), and `mc_fn(i, x)` returns (d_i g)(x) g(x)^{-1}, an
    algebra-valued stack of the same shape."""

    def __init__(self, descriptor: GroupDescriptor, eval_fn, mc_fn):
        self.descriptor = descriptor
        self.eval_fn = eval_fn
        self.mc_fn = mc_fn

    def matrix(self, x) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(x, dtype=float)), dtype=complex)

    def element(self, x) -> GroupElement:
        return GroupElement(self.descriptor, self.matrix(x), validate=False)

    def mc_pullback(self, x, v) -> np.ndarray:
        """Pullback of the right-invariant Maurer-Cartan form:
        (D_v g)(x) g(x)^{-1} = sum_i v_i (d_i g)(x) g(x)^{-1}."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return _frame_sum(((v[..., i], lambda i=i: np.asarray(self.mc_fn(i, x), dtype=complex))
                           for i in range(x.shape[-1])),
                          (x.shape[:-1], v.shape[:-1]), self.descriptor.matrix_dim)


def constant_group_map(g: GroupElement, ambient_dim: int) -> GroupValuedMap:
    """The constant map x -> g; its Maurer-Cartan pullback is 0."""
    def ev(x):
        return np.broadcast_to(g.matrix, x.shape[:-1] + g.matrix.shape).copy()

    def mc(i, x):
        return np.zeros(x.shape[:-1] + g.matrix.shape, dtype=complex)

    return GroupValuedMap(g.descriptor, ev, mc)


def exp_scalar_family(descriptor: GroupDescriptor, scalar_expr, direction: AlgebraElement,
                      ambient_dim: int) -> GroupValuedMap:
    """g(x) = exp(f(x) X0) for a real scalar expression f.  The exponent
    family commutes with itself, so the Maurer-Cartan pullback is exactly
    (d_i f)(x) X0, with no exponential and no inverse."""
    f = xp.Table(scalar_expr, _coordinates(ambient_dim), real=True)
    partials = [f.partial(v) for v in f.variables]
    x0 = direction.matrix

    def ev(x):
        return lc.expm(_at(f, x)[..., None, None] * x0)

    def mc(i, x):
        return _at(partials[i], x)[..., None, None] * x0

    return GroupValuedMap(descriptor, ev, mc)


@dataclass(frozen=True)
class FakeCurvatureReport:
    max_residual: float
    argmax_point: np.ndarray
    argmax_plane: tuple
    n_samples: int
    seed: int

    def as_dict(self) -> dict:
        # a non-finite residual (inf) has no JSON number; it reads null
        return {
            "max_residual": self.max_residual if math.isfinite(self.max_residual) else None,
            "argmax_point": [float(c) for c in np.atleast_1d(self.argmax_point)],
            "argmax_plane": list(self.argmax_plane),
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def default_box(ambient_dim: int):
    return tuple((0.0, 1.0) for _ in range(ambient_dim))


def default_fc_tolerance(a: OneFormField) -> float:
    """Fake-curvature tolerance for A: 1e-5 when its exterior derivative is
    symbolic, 1e-3 when it is a finite difference."""
    return 1e-5 if a.is_symbolic else 1e-3


def fake_curvature_residual(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                            box=None, n_samples: int = 256,
                            seed: int = 0) -> FakeCurvatureReport:
    """Max over sampled points and coordinate 2-planes of
    || dA + [A ^ A] - t_* B ||.  A non-finite residual is reported as inf
    at the first sample where it occurs."""
    xs = halton_box(box if box is not None else default_box(a.ambient_dim), n_samples, seed)
    return _fc_scan(cm, a, xs, _plane_samples(b, xs), seed)


def _plane_samples(b: TwoFormField, xs) -> dict:
    """B on every coordinate plane i < j at the samples `xs`; each stored
    component is evaluated once."""
    n = xs.shape[-1]
    return {(i, j): b.component_matrix(i, j, xs) for i in range(n) for j in range(i + 1, n)}


def _fc_scan(cm: CrossedModule, a: OneFormField, xs, b_planes: dict,
             seed: int) -> FakeCurvatureReport:
    """The fake-curvature residual on the samples `xs`, given B there by
    `_plane_samples`."""
    n_samples, n = xs.shape
    best = (0.0, xs[0], (0, 1) if n > 1 else ())
    for (i, j), k in coordinate_curvatures(a, xs):
        tb = hg.t_star_matrix(cm, b_planes[(i, j)])
        res = lc.frobs(k - tb)
        bad = ~np.isfinite(res)
        if bad.any():
            return FakeCurvatureReport(math.inf, xs[int(np.argmax(bad))], (i, j),
                                       n_samples, seed)
        arg = int(np.argmax(res))
        if res[arg] > best[0]:
            best = (float(res[arg]), xs[arg], (i, j))
    return FakeCurvatureReport(best[0], best[1], best[2], n_samples, seed)


class ConnectionPair:
    """A pair (A, B) of a g-valued 1-form and an h-valued 2-form satisfying
    the fake-curvature condition dA + [A ^ A] = t_* B within fc_tolerance.

    Construction fails with FakeCurvatureError when the sampled residual
    exceeds the tolerance (default_fc_tolerance(a) when none is given), and
    then with MembershipError when A or B leaves its Lie algebra on the same
    samples.
    """

    def __init__(self, cm: CrossedModule, a: OneFormField, b: TwoFormField,
                 fc_tolerance: float | None = None, box=None,
                 n_samples: int = 256, seed: int = 0):
        if a.ambient_dim != b.ambient_dim:
            raise ValueError("A and B live on different ambient dimensions")
        self.cm = cm
        self.A = a
        self.B = b
        self.box = tuple(tuple(map(float, iv)) for iv in
                         (box if box is not None else default_box(a.ambient_dim)))
        self.fc_tolerance = float(default_fc_tolerance(a) if fc_tolerance is None
                                  else fc_tolerance)
        # B is evaluated once on the samples and feeds both gates
        xs = halton_box(self.box, n_samples, seed)
        b_planes = _plane_samples(b, xs)
        self.fc_report = _fc_scan(cm, a, xs, b_planes, seed)
        if not self.fc_report.max_residual <= self.fc_tolerance:
            raise FakeCurvatureError(
                f"fake-curvature residual {self.fc_report.max_residual:.3e} exceeds "
                f"{self.fc_tolerance:.1e}",
                report=self.fc_report,
            )
        lc.require_algebra(cm.G, np.stack([c.eval(xs) for c in a.components]), "A")
        if b.components:
            lc.require_algebra(cm.H, np.stack([b_planes[ij] for ij in b.components]), "B")

    @property
    def ambient_dim(self) -> int:
        return self.A.ambient_dim


def eg_pair(a: OneFormField, box=None, **kwargs) -> ConnectionPair:
    """The canonical fake-flat pair (A, K_A) in the inner 2-group of A's
    group.  B is `symbolic_curvature(a)` for an expression-backed A, and
    otherwise one callable field per coordinate plane over the curvature
    kernel `_plane_curvature`."""
    cm = hg.make_eg(a.descriptor)
    if a.is_symbolic:
        b = symbolic_curvature(a)
    else:
        n = a.ambient_dim
        b = two_form_from_callables(a.descriptor, {
            (i, j): (lambda x, i=i, j=j: _plane_curvature(
                a, x, i, j, a.components[i].eval(x), a.components[j].eval(x)))
            for i in range(n) for j in range(i + 1, n)}, n)
    return ConnectionPair(cm, a, b, box=box, **kwargs)
