"""Lie-algebra-valued differential forms on open subsets of R^n, their
curvatures, and the fake-curvature gate.

Forms are tables of matrix-valued component fields.  Components backed by
scalar expressions are differentiated symbolically; components backed by
plain callables fall back to central finite differences with the field's
own step (`CallableMatrixField.fd_step`, default 1e-4), which every
consumer -- curvature, the fake-curvature gate, BF theory -- uses.  All
evaluators broadcast over stacked sample points.

Wedge-bracket normalization used throughout the package:

    [A ^ A](v1, v2) := [A(v1), A(v2)]          (no factor 1/2)
    alpha_*(A ^ phi)(v1, v2) := alpha_*(A(v1), phi(v2)) - alpha_*(A(v2), phi(v1))

This choice is validated numerically by the requirement that the 2-form of
a derivative 2-functor equals dA + [A ^ A] (see the transport tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as xp
from . import higher_group as hg
from . import lie_core as lc
from .errors import DomainError, FakeCurvatureError
from .higher_group import CrossedModule
from .lie_core import AlgebraElement, GroupDescriptor, GroupElement
from .sampling import halton_box

_DEFAULT_FD = 1e-4


class ExpressionMatrixField:
    """Matrix-valued function of position with scalar-expression entries."""

    is_symbolic = True

    def __init__(self, entries, dim: int, ambient_dim: int):
        self.entries = tuple(tuple(xp.parse(e) for e in row) for row in entries)
        self.dim = int(dim)
        self.ambient_dim = int(ambient_dim)
        if len(self.entries) != dim or any(len(r) != dim for r in self.entries):
            raise ValueError("entry table is not square of the declared dim")
        names = {f"x{k + 1}" for k in range(ambient_dim)}
        for row in self.entries:
            for e in row:
                extra = e.free_vars() - names
                if extra:
                    raise DomainError(f"free variables {sorted(extra)} outside ambient x1..x{ambient_dim}")

    def _env(self, x):
        x = np.asarray(x, dtype=float)
        return {f"x{k + 1}": x[..., k] for k in range(self.ambient_dim)}, x.shape[:-1]

    def eval(self, x) -> np.ndarray:
        env, base = self._env(x)
        out = np.empty(base + (self.dim, self.dim), dtype=complex)
        for r in range(self.dim):
            for c in range(self.dim):
                out[..., r, c] = self.entries[r][c].evaluate(env)
        return out

    def partial(self, axis: int) -> "ExpressionMatrixField":
        # exact; cached per axis
        cache = getattr(self, "_partials", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_partials", cache)
        if axis not in cache:
            var = f"x{axis + 1}"
            rows = [[xp.derivative(e, var) for e in row] for row in self.entries]
            cache[axis] = ExpressionMatrixField(rows, self.dim, self.ambient_dim)
        return cache[axis]


class CallableMatrixField:
    """Matrix-valued function given as a black-box callable.

    `fn` receives a stacked array of points (..., n) and must return
    (..., d, d); set vectorized=False to have points looped one at a time.
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
        x = np.asarray(x, dtype=float)
        if self.vectorized:
            return np.asarray(self.fn(x), dtype=complex)
        base = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        out = np.stack([np.asarray(self.fn(p), dtype=complex) for p in flat])
        return out.reshape(base + (self.dim, self.dim))

    def partial(self, axis: int) -> "CallableMatrixField":
        h = self.fd_step

        def dfn(x):
            x = np.asarray(x, dtype=float)
            e = np.zeros(x.shape[-1])
            e[axis] = h
            return (self.eval(x + e) - self.eval(x - e)) / (2.0 * h)

        return CallableMatrixField(dfn, self.dim, self.ambient_dim, vectorized=True,
                                   fd_step=h)


def _zero_field(dim: int, ambient_dim: int) -> ExpressionMatrixField:
    zeros = [[0.0] * dim for _ in range(dim)]
    return ExpressionMatrixField(zeros, dim, ambient_dim)


def _sym_scale(field: ExpressionMatrixField, factor) -> ExpressionMatrixField:
    rows = [[xp.simplify(xp.Bin("*", xp.Num(factor), e)) for e in row] for row in field.entries]
    return ExpressionMatrixField(rows, field.dim, field.ambient_dim)


def _sym_add(a: ExpressionMatrixField, b: ExpressionMatrixField) -> ExpressionMatrixField:
    rows = [
        [xp.simplify(xp.Bin("+", ea, eb)) for ea, eb in zip(ra, rb)]
        for ra, rb in zip(a.entries, b.entries)
    ]
    return ExpressionMatrixField(rows, a.dim, a.ambient_dim)


def _sym_sub(a: ExpressionMatrixField, b: ExpressionMatrixField) -> ExpressionMatrixField:
    rows = [
        [xp.simplify(xp.Bin("-", ea, eb)) for ea, eb in zip(ra, rb)]
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
        """Sum_i A_i(x) v_i over stacked points x (..., n) and vectors v."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        out = None
        for i in range(self.ambient_dim):
            term = self.components[i].eval(x) * v[..., i, None, None]
            out = term if out is None else out + term
        return out

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
        x = np.asarray(x, dtype=float)
        if i == j:
            d = self.descriptor.matrix_dim
            return np.zeros(x.shape[:-1] + (d, d), dtype=complex)
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        fld = self.components.get((i, j))
        if fld is None:
            d = self.descriptor.matrix_dim
            return np.zeros(x.shape[:-1] + (d, d), dtype=complex)
        return sign * fld.eval(x)

    def matrices_at(self, x, v1, v2) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        d = self.descriptor.matrix_dim
        out = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
        for (i, j), fld in self.components.items():
            coef = v1[..., i] * v2[..., j] - v1[..., j] * v2[..., i]
            out = out + fld.eval(x) * coef[..., None, None]
        return out

    def __call__(self, x, v1, v2) -> AlgebraElement:
        return AlgebraElement(self.descriptor, self.matrices_at(x, v1, v2), validate=False)


def _as_entry_table(matrix_table):
    return [[e for e in row] for row in matrix_table]


def one_form_from_expressions(descriptor: GroupDescriptor, tables, ambient_dim: int) -> OneFormField:
    """tables: one d x d matrix of expression strings per coordinate."""
    d = descriptor.matrix_dim
    comps = [ExpressionMatrixField(_as_entry_table(t), d, ambient_dim) for t in tables]
    return OneFormField(descriptor, comps, ambient_dim)


def zero_one_form(descriptor: GroupDescriptor, ambient_dim: int) -> OneFormField:
    d = descriptor.matrix_dim
    return OneFormField(descriptor, [_zero_field(d, ambient_dim) for _ in range(ambient_dim)],
                        ambient_dim)


def two_form_from_expressions(descriptor: GroupDescriptor, tables: dict, ambient_dim: int) -> TwoFormField:
    """tables: {(i, j): d x d matrix of expression strings} with 0-based i < j."""
    d = descriptor.matrix_dim
    comps = {
        key: ExpressionMatrixField(_as_entry_table(t), d, ambient_dim)
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


def add_one_forms(a: OneFormField, b: OneFormField, factor: float = 1.0) -> OneFormField:
    """a + factor * b, symbolic when both sides are."""
    comps = []
    for ca, cb in zip(a.components, b.components):
        if ca.is_symbolic and cb.is_symbolic:
            comps.append(_sym_add(ca, _sym_scale(cb, factor)))
        else:
            comps.append(CallableMatrixField(
                lambda x, ca=ca, cb=cb: ca.eval(x) + factor * cb.eval(x),
                a.descriptor.matrix_dim, a.ambient_dim, vectorized=True))
    return OneFormField(a.descriptor, comps, a.ambient_dim)


def add_two_forms(a: TwoFormField, b: TwoFormField, factor: float = 1.0) -> TwoFormField:
    comps = {}
    keys = set(a.components) | set(b.components)
    d = a.descriptor.matrix_dim
    for key in keys:
        ca = a.components.get(key)
        cb = b.components.get(key)
        if ca is None:
            ca = _zero_field(d, a.ambient_dim)
        if cb is None:
            cb = _zero_field(d, a.ambient_dim)
        if ca.is_symbolic and cb.is_symbolic:
            comps[key] = _sym_add(ca, _sym_scale(cb, factor))
        else:
            comps[key] = CallableMatrixField(
                lambda x, ca=ca, cb=cb: ca.eval(x) + factor * cb.eval(x),
                d, a.ambient_dim, vectorized=True)
    return TwoFormField(a.descriptor, comps, a.ambient_dim)


def exterior_derivative_one_form(a: OneFormField, x, v1, v2) -> np.ndarray:
    """dA(v1, v2) for constant frames on stacked points."""
    x = np.asarray(x, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    d = a.descriptor.matrix_dim
    da = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    for j in range(a.ambient_dim):
        for i in range(a.ambient_dim):
            coef = v1[..., i] * v2[..., j] - v2[..., i] * v1[..., j]
            if np.all(coef == 0.0):
                continue
            da = da + a.components[j].partial(i).eval(x) * coef[..., None, None]
    return da


def curvature_matrices_at(a: OneFormField, x, v1, v2) -> np.ndarray:
    """K(v1, v2) = dA(v1, v2) + [A(v1), A(v2)] on stacked points."""
    da = exterior_derivative_one_form(a, x, v1, v2)
    a1 = a.matrices_at(x, v1)
    a2 = a.matrices_at(x, v2)
    return da + a1 @ a2 - a2 @ a1


def _add_commutator(out: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """out += x y - y x in place over stacks of small square matrices, entry
    by entry.  On a stack of 20,736 2x2 complex matrices (one core of a
    Xeon host) this costs about 150 ns per matrix, against about 1 us for
    `out += x @ y; out -= y @ x`.  Each entry adds the row-column sum of
    x y, then subtracts that of y x, as that pair of statements does."""
    d = out.shape[-1]
    for r in range(d):
        for c in range(d):
            xy = x[..., r, 0] * y[..., 0, c]
            yx = y[..., r, 0] * x[..., 0, c]
            for k in range(1, d):
                xy += x[..., r, k] * y[..., k, c]
                yx += y[..., r, k] * x[..., k, c]
            entry = out[..., r, c]
            entry += xy
            entry -= yx


def coordinate_curvatures(a: OneFormField, xs):
    """Yield ((i, j), K_ij) for every coordinate plane i < j at stacked
    points xs (..., n), where K_ij = d_i A_j - d_j A_i + [A_i, A_j] is the
    curvature on the unit frame (e_i, e_j).  Each component of A, and each
    partial d_i A_j (i != j), is evaluated once per call; each K_ij is a
    fresh array of the full stacked shape."""
    xs = np.asarray(xs, dtype=float)
    d = a.descriptor.matrix_dim
    comps = [c.eval(xs) for c in a.components]
    for i in range(a.ambient_dim):
        for j in range(i + 1, a.ambient_dim):
            # (0 - d_j A_i) + d_i A_j rounds as curvature_matrices_at does
            k = np.zeros(xs.shape[:-1] + (d, d), dtype=complex)
            k -= a.components[i].partial(j).eval(xs)
            k += a.components[j].partial(i).eval(xs)
            _add_commutator(k, comps[i], comps[j])
            yield (i, j), k


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
            d_ij = _sym_sub(a.components[j].partial(i), a.components[i].partial(j))
            br = _sym_sub(_sym_matmul(a.components[i], a.components[j]),
                          _sym_matmul(a.components[j], a.components[i]))
            comps[(i, j)] = _sym_add(d_ij, br)
    return TwoFormField(a.descriptor, comps, n)


def exterior_derivative_two_form(b: TwoFormField, x, v1, v2, v3) -> np.ndarray:
    """dB(v1, v2, v3) for constant frames: the cyclic sum of directional
    derivatives of the contracted components."""
    x = np.asarray(x, dtype=float)
    vs = [np.asarray(v, dtype=float) for v in (v1, v2, v3)]
    d = b.descriptor.matrix_dim
    out = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    for c in range(3):
        va, vb, vc = vs[c], vs[(c + 1) % 3], vs[(c + 2) % 3]
        for (i, j), fld in b.components.items():
            coef = vb[..., i] * vc[..., j] - vb[..., j] * vc[..., i]
            if np.all(coef == 0.0):
                continue
            acc = np.zeros_like(out)
            for k in range(b.ambient_dim):
                vk = va[..., k]
                if np.all(vk == 0.0):
                    continue
                acc = acc + fld.partial(k).eval(x) * vk[..., None, None]
            out = out + acc * coef[..., None, None]
    return out


def curvature_three_form(cm: CrossedModule, a: OneFormField, b: TwoFormField,
                         x, v1, v2, v3) -> AlgebraElement:
    """dB + alpha_*(A ^ B) evaluated on a triple of vectors."""
    db = exterior_derivative_two_form(b, x, v1, v2, v3)
    total = db
    vs = [np.asarray(v, dtype=float) for v in (v1, v2, v3)]
    for c in range(3):
        va, vb_, vc = vs[c], vs[(c + 1) % 3], vs[(c + 2) % 3]
        total = total + hg.alpha_star(cm, a(x, va), b(x, vb_, vc)).matrix
    return AlgebraElement(b.descriptor, total, validate=False)


def alpha_wedge(cm: CrossedModule, a_prime: OneFormField, phi: OneFormField,
                x, v1, v2) -> AlgebraElement:
    """alpha_*(A' ^ phi)(v1, v2)."""
    t1 = hg.alpha_star(cm, a_prime(x, v1), phi(x, v2)).matrix
    t2 = hg.alpha_star(cm, a_prime(x, v2), phi(x, v1)).matrix
    return AlgebraElement(phi.descriptor, t1 - t2, validate=False)


class GroupValuedMap:
    """Smooth map from the base space into a matrix group, with exact
    coordinate partials when available (finite differences otherwise)."""

    def __init__(self, descriptor: GroupDescriptor, eval_fn, partial_fn=None,
                 fd_step: float = 1e-6):
        self.descriptor = descriptor
        self.eval_fn = eval_fn
        self.partial_fn = partial_fn
        self.fd_step = fd_step

    def matrix(self, x) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(x, dtype=float)), dtype=complex)

    def element(self, x) -> GroupElement:
        return GroupElement(self.descriptor, self.matrix(x), validate=False)

    def partial_matrix(self, i: int, x) -> np.ndarray:
        if self.partial_fn is not None:
            return np.asarray(self.partial_fn(i, np.asarray(x, dtype=float)), dtype=complex)
        h = self.fd_step
        x = np.asarray(x, dtype=float)
        e = np.zeros(x.shape[-1])
        e[i] = h
        return (self.matrix(x + e) - self.matrix(x - e)) / (2.0 * h)

    def mc_pullback(self, x, v) -> np.ndarray:
        """Pullback of the right-invariant Maurer-Cartan form:
        (D_v g)(x) g(x)^{-1}."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        d = None
        for i in range(x.shape[-1]):
            if np.all(v[..., i] == 0.0):
                continue
            term = self.partial_matrix(i, x) * v[..., i, None, None]
            d = term if d is None else d + term
        if d is None:
            n = self.descriptor.matrix_dim
            return np.zeros(x.shape[:-1] + (n, n), dtype=complex)
        return d @ np.linalg.inv(self.matrix(x))


def constant_group_map(g: GroupElement, ambient_dim: int) -> GroupValuedMap:
    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(g.matrix, x.shape[:-1] + g.matrix.shape).copy()

    def par(i, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + g.matrix.shape, dtype=complex)

    return GroupValuedMap(g.descriptor, ev, par)


def exp_scalar_family(descriptor: GroupDescriptor, scalar_expr, direction: AlgebraElement,
                      ambient_dim: int) -> GroupValuedMap:
    """g(x) = exp(f(x) X0) for a scalar expression f; partials are exact
    because the exponent family commutes with itself."""
    f = xp.parse(scalar_expr)
    partials = [xp.derivative(f, f"x{k + 1}") for k in range(ambient_dim)]
    x0 = direction.matrix

    def _vals(expr, x):
        env = {f"x{k + 1}": x[..., k] for k in range(ambient_dim)}
        return np.asarray(expr.evaluate(env))

    def ev(x):
        x = np.asarray(x, dtype=float)
        vals = _vals(f, x)
        return lc.expm(vals[..., None, None] * x0)

    def par(i, x):
        x = np.asarray(x, dtype=float)
        dvals = np.broadcast_to(_vals(partials[i], x), x.shape[:-1])
        return dvals[..., None, None] * (x0 @ ev(x))

    return GroupValuedMap(descriptor, ev, par)


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
    n = a.ambient_dim
    box = np.asarray(box if box is not None else default_box(n), dtype=float)
    xs = halton_box(box, n_samples, seed)
    best = (0.0, xs[0], (0, 1) if n > 1 else ())
    for (i, j), k in coordinate_curvatures(a, xs):
        tb = hg.t_star_matrix(cm, b.component_matrix(i, j, xs))
        res = np.sqrt(np.sum(np.abs(k - tb) ** 2, axis=(-2, -1)))
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
        self.fc_report = fake_curvature_residual(cm, a, b, self.box, n_samples, seed)
        if not self.fc_report.max_residual <= self.fc_tolerance:
            raise FakeCurvatureError(
                f"fake-curvature residual {self.fc_report.max_residual:.3e} exceeds "
                f"{self.fc_tolerance:.1e}",
                report=self.fc_report,
            )
        xs = halton_box(self.box, n_samples, seed)
        lc.require_algebra(cm.G, np.stack([c.eval(xs) for c in a.components]), "A")
        if b.components:
            lc.require_algebra(cm.H, np.stack([c.eval(xs) for c in b.components.values()]), "B")

    @property
    def ambient_dim(self) -> int:
        return self.A.ambient_dim


def eg_pair(a: OneFormField, box=None, **kwargs) -> ConnectionPair:
    """The canonical fake-flat pair (A, K_A) in the inner 2-group of A's
    group, with B built symbolically when possible."""
    cm = hg.make_eg(a.descriptor)
    b = symbolic_curvature(a) if a.is_symbolic else _fd_curvature_two_form(a)
    return ConnectionPair(cm, a, b, box=box, **kwargs)


def _fd_curvature_two_form(a: OneFormField) -> TwoFormField:
    n = a.ambient_dim
    eye = np.eye(n)
    fns = {}
    for i in range(n):
        for j in range(i + 1, n):
            def comp(x, i=i, j=j):
                x = np.asarray(x, dtype=float)
                v1 = np.broadcast_to(eye[i], x.shape)
                v2 = np.broadcast_to(eye[j], x.shape)
                return curvature_matrices_at(a, x, v1, v2)

            fns[(i, j)] = comp
    return two_form_from_callables(a.descriptor, fns, n)
