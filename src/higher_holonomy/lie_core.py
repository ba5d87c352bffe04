"""Matrix Lie groups and algebras: the numerical substrate for every
group-valued computation.

Supported families are U(1), SU(n), SO(n), GL(n) and the unipotent group
of upper triangular matrices with unit diagonal.  Elements are immutable
value objects; every operation here is a pure function, so concurrent use
is safe.

No matrix logarithm is used anywhere: reconstruction is done by ODEs and
extraction by difference quotients, which avoids branch-cut ambiguity
entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MembershipError, NumericalError

U1 = "U1"
SU = "SU"
SO = "SO"
GL = "GL"
UT = "UT"  # upper triangular unipotent

_FAMILIES = (U1, SU, SO, GL, UT)
_EXPM_ORDER = 16  # terms of the truncated exponential series

@dataclass(frozen=True)
class GroupDescriptor:
    """Names a matrix group family together with its size and base field."""

    family: str
    matrix_dim: int
    field: str = "complex"
    membership_tolerance: float = 1e-9

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown group family {self.family!r}")
        if self.matrix_dim < 1:
            raise ValueError("matrix_dim must be positive")
        if self.membership_tolerance <= 0:
            raise ValueError("membership_tolerance must be positive")
        if self.family == U1 and (self.matrix_dim != 1 or self.field != "complex"):
            raise ValueError("U1 is 1x1 complex")
        if self.family == SU and self.field != "complex":
            raise ValueError("SU(n) is complex")
        if self.family == SO and self.field != "real":
            raise ValueError("SO(n) is real")

    def __str__(self):
        if self.family == U1:
            return "U(1)"
        return f"{self.family}({self.matrix_dim})"


def u1() -> GroupDescriptor:
    return GroupDescriptor(U1, 1, "complex")


def su(n: int) -> GroupDescriptor:
    return GroupDescriptor(SU, n, "complex")


def so(n: int) -> GroupDescriptor:
    return GroupDescriptor(SO, n, "real")


def gl(n: int, field: str = "real") -> GroupDescriptor:
    return GroupDescriptor(GL, n, field)


def unipotent(n: int, field: str = "real") -> GroupDescriptor:
    return GroupDescriptor(UT, n, field)


def frob(m) -> float:
    """Frobenius norm, tolerant of scalars and stacks."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2)))


def _as_matrix(desc: GroupDescriptor, matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape != (desc.matrix_dim, desc.matrix_dim):
        raise MembershipError(
            f"expected {desc.matrix_dim}x{desc.matrix_dim} matrix, got {m.shape}"
        )
    m.setflags(write=False)
    return m


def group_defect(desc: GroupDescriptor, m: np.ndarray) -> float:
    """Distance-like residual of the membership predicate; 0 on the group."""
    if not np.all(np.isfinite(m)):
        return math.inf
    n = desc.matrix_dim
    eye = np.eye(n)
    if desc.family == U1:
        return abs(abs(m[0, 0]) - 1.0)
    if desc.family == SU:
        return max(frob(m.conj().T @ m - eye), abs(np.linalg.det(m) - 1.0))
    if desc.family == SO:
        return max(
            frob(m.conj().T @ m - eye),
            abs(np.linalg.det(m) - 1.0),
            frob(m.imag),
        )
    if desc.family == UT:
        lower = np.tril(m, -1)
        diag = np.diagonal(m) - 1.0
        d = max(frob(lower), frob(diag))
        if desc.field == "real":
            d = max(d, frob(m.imag))
        return d
    # GL: invertible with finite entries
    if abs(np.linalg.det(m)) < 1e-12:
        return math.inf
    return frob(m.imag) if desc.field == "real" else 0.0


def _frobs(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n)."""
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def algebra_defect(desc: GroupDescriptor, m: np.ndarray) -> float:
    """Distance-like residual of the algebra membership predicate; 0 on the
    algebra.  For a stack (..., n, n) it is the largest over the stack."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        return math.inf
    if desc.family == U1:
        d = np.abs(m[..., 0, 0].real)
    elif desc.family == SU:
        tr = np.trace(m, axis1=-2, axis2=-1)
        d = np.maximum(_frobs(m + np.swapaxes(m.conj(), -2, -1)), np.hypot(tr.real, tr.imag))
    elif desc.family == SO:
        d = np.maximum(_frobs(m + np.swapaxes(m.conj(), -2, -1)), _frobs(m.imag))
    elif desc.family == UT:
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        d = np.maximum(_frobs(np.tril(m, -1)), np.sqrt(np.sum(np.abs(diag) ** 2, axis=-1)))
        if desc.field == "real":
            d = np.maximum(d, _frobs(m.imag))
    elif desc.field == "real":
        d = _frobs(m.imag)
    else:
        d = np.zeros(m.shape[:-2])
    return float(np.max(d, initial=0.0))


def require_algebra(desc: GroupDescriptor, m: np.ndarray, form: str, where: str = "") -> None:
    """Raise MembershipError for `form` (the name of the form whose values
    `m` are) unless every matrix of the stack `m` lies in the algebra of
    `desc` within membership_tolerance * max(1, largest |entry|)."""
    m = np.asarray(m)
    d = algebra_defect(desc, m)
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0))) if math.isfinite(d) else 1.0
    if not d <= desc.membership_tolerance * scale:
        raise MembershipError(f"{form}{where} leaves the algebra of {desc} (defect {d:.3e})",
                              form=form)


def project_to_algebra(desc: GroupDescriptor, m: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an arbitrary matrix (or stack) onto the
    tangent algebra."""
    m = np.asarray(m, dtype=complex)
    if desc.family == U1:
        return 1j * m.imag
    if desc.family == SU:
        a = 0.5 * (m - m.conj().swapaxes(-2, -1))
        tr = np.trace(a, axis1=-2, axis2=-1) / desc.matrix_dim
        return a - tr[..., None, None] * np.eye(desc.matrix_dim)
    if desc.family == SO:
        return 0.5 * (m.real - m.real.swapaxes(-2, -1)).astype(complex)
    if desc.family == UT:
        a = np.triu(m, 1)
        return a.real.astype(complex) if desc.field == "real" else a
    return m.real.astype(complex) if desc.field == "real" else m


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A group-valued quantity: square matrix tagged with its descriptor."""

    descriptor: GroupDescriptor
    matrix: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.descriptor, self.matrix))
        if self.validate:
            d = group_defect(self.descriptor, self.matrix)
            if not d <= self.descriptor.membership_tolerance:
                raise MembershipError(
                    f"matrix not in {self.descriptor} (defect {d:.3e})"
                )

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.descriptor == other.descriptor
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A Lie-algebra-valued quantity tagged with its group descriptor."""

    descriptor: GroupDescriptor
    matrix: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.descriptor, self.matrix))
        if self.validate:
            d = algebra_defect(self.descriptor, self.matrix)
            if not d <= self.descriptor.membership_tolerance:
                raise MembershipError(
                    f"matrix not in algebra of {self.descriptor} (defect {d:.3e})"
                )

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.descriptor == other.descriptor
            and np.array_equal(self.matrix, other.matrix)
        )


def identity(desc: GroupDescriptor) -> GroupElement:
    return GroupElement(desc, np.eye(desc.matrix_dim), validate=False)


def zero(desc: GroupDescriptor) -> AlgebraElement:
    return AlgebraElement(desc, np.zeros((desc.matrix_dim, desc.matrix_dim)), validate=False)


def _expm2(m: np.ndarray) -> np.ndarray:
    """exp of a stack of 2x2 matrices by Cayley-Hamilton.  With tau = tr/2
    and N = m - tau 1, N^2 = s^2 1 for s^2 = d^2 + m01 m10, d = (m00 - m11)/2,
    so exp(m) = e^tau (cosh s 1 + (sinh s / s) N).  Both coefficients are
    even in s; where |s^2| < 1e-2 they are summed as series in s^2 (the
    first omitted term is below 3e-17), which keeps nilpotent N exact."""
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    tau = 0.5 * (m00 + m11)
    d = 0.5 * (m00 - m11)
    s2 = d * d + m01 * m10
    small = np.abs(s2) < 1e-2
    s = np.sqrt(np.where(small, 1.0, s2))
    ch = np.where(small, 1.0 + s2 * (1 / 2 + s2 * (1 / 24 + s2 * (1 / 720 + s2 / 40320))),
                  np.cosh(s))
    sh = np.where(small, 1.0 + s2 * (1 / 6 + s2 * (1 / 120 + s2 * (1 / 5040 + s2 / 362880))),
                  np.sinh(s) / s)
    e = np.exp(tau)
    ch = e * ch
    sh = e * sh
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = ch + sh * d
    out[..., 0, 1] = sh * m01
    out[..., 1, 0] = sh * m10
    out[..., 1, 1] = ch - sh * d
    return out


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a single matrix or a stack (..., n, n).

    Closed forms for n = 1 (`np.exp`) and n = 2 (Cayley-Hamilton, see
    `_expm2`); scaling-and-squaring with a truncated series for n >= 3.
    Non-finite entries raise NumericalError.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise NumericalError("non-finite entries in exponential argument")
    if m.shape[-1] == 1:
        return np.exp(m)
    if m.shape[-1] == 2:
        return _expm2(m)
    norm = np.max(np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))) if m.size else 0.0
    if not np.isfinite(norm):
        raise NumericalError("non-finite entries in exponential argument")
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    a = m / (2.0**squarings)
    eye = np.broadcast_to(np.eye(m.shape[-1]), m.shape).astype(complex)
    result = eye.copy()
    term = eye.copy()
    for k in range(1, _EXPM_ORDER + 1):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def exp_map(x: AlgebraElement) -> GroupElement:
    """Exponential of an algebra element; lands on the group within
    10x the membership tolerance."""
    m = expm(x.matrix)
    if not np.all(np.isfinite(m)):
        raise NumericalError("exponential produced non-finite entries")
    d = x.descriptor
    g = GroupElement(d, m, validate=False)
    if group_defect(d, m) > 10 * d.membership_tolerance:
        raise MembershipError(f"exp_map left {d} (defect {group_defect(d, m):.3e})")
    return g


def ginv(g: GroupElement) -> GroupElement:
    try:
        inv = np.linalg.inv(g.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular group element") from exc
    return GroupElement(g.descriptor, inv, validate=False)


def gmul(a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement(a.descriptor, a.matrix @ b.matrix, validate=False)


def adjoint(g: GroupElement, x: AlgebraElement) -> AlgebraElement:
    """Adjoint action g x g^{-1}."""
    try:
        inv = np.linalg.inv(g.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular group element in adjoint") from exc
    return AlgebraElement(x.descriptor, g.matrix @ x.matrix @ inv, validate=False)


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Commutator [x, y] = xy - yx."""
    return AlgebraElement(
        x.descriptor, x.matrix @ y.matrix - y.matrix @ x.matrix, validate=False
    )


def right_translate_diff(g: GroupElement, x: AlgebraElement) -> np.ndarray:
    """Matrix of dr_g|_1(x): the tangent x pushed to the fiber over g."""
    return x.matrix @ g.matrix


def maurer_cartan_right(curve, t: float, fd_step: float = 1e-5) -> AlgebraElement:
    """Right-logarithmic derivative (dg/dt) g(t)^{-1} of a group-valued
    curve on [0, 1], estimated by a central difference and projected to
    the algebra.
    """
    if t - fd_step < 0.0 or t + fd_step > 1.0:
        raise DomainError(f"t={t} within fd_step of the curve boundary")
    gp = curve(t + fd_step)
    gm = curve(t - fd_step)
    g0 = curve(t)
    der = (gp.matrix - gm.matrix) / (2.0 * fd_step)
    val = der @ np.linalg.inv(g0.matrix)
    return AlgebraElement(g0.descriptor, project_to_algebra(g0.descriptor, val), validate=False)


def small_matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ y over stacks of small square matrices whose leading shapes
    broadcast, entry by entry, in the manner of `forms._add_commutator`.  On
    a stack of 32,896 2x2 complex matrices (one core of a Xeon host) this
    costs about 60 ns per matrix, against about 350 ns for `x @ y`.  Each
    column of the product is formed before it is written, so `out` may be
    `y` itself (an in-place left multiplication) when `y` has the full
    broadcast shape."""
    d = x.shape[-1]
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y))
    for c in range(d):
        col = []
        for r in range(d):
            entry = x[..., r, 0] * y[..., 0, c]
            for k in range(1, d):
                entry += x[..., r, k] * y[..., k, c]
            col.append(entry)
        for r in range(d):
            out[..., r, c] = col[r]
    return out


def conjugate(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g y g^-1 on stacks of square matrices whose leading shapes broadcast.
    For 2x2 both products are entrywise (`small_matmul`) and g^-1 is the
    adjugate over the determinant; other sizes use `np.linalg.inv`.  A
    singular g raises LinAlgError, as `np.linalg.inv` does."""
    g = np.asarray(g, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if g.shape[-1] != 2:
        return g @ y @ np.linalg.inv(g)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if np.any(det == 0):
        raise np.linalg.LinAlgError("Singular matrix")
    adj = np.empty(g.shape, dtype=complex)
    adj[..., 0, 0] = g[..., 1, 1]
    adj[..., 0, 1] = -g[..., 0, 1]
    adj[..., 1, 0] = -g[..., 1, 0]
    adj[..., 1, 1] = g[..., 0, 0]
    out = small_matmul(small_matmul(g, y), adj)
    out /= det[..., None, None]
    return out


def polar_retract(m: np.ndarray) -> np.ndarray:
    """Nearest-unitary factor of a stack of near-unitary matrices."""
    h = np.swapaxes(m.conj(), -2, -1) @ m
    w, v = np.linalg.eigh(h)
    w = np.maximum(w.real, 1e-30)
    inv_sqrt = (v * (w ** -0.5)[..., None, :]) @ np.swapaxes(v.conj(), -2, -1)
    return m @ inv_sqrt


def _su2_retract(m: np.ndarray) -> np.ndarray:
    """Nearest SU(2) matrix, in the Frobenius norm, to each matrix of a 2x2
    stack: the quaternion part a = (m00 + conj m11)/2, b = (m01 - conj m10)/2
    (the orthogonal projection onto real multiples of SU(2)), scaled to
    |a|^2 + |b|^2 = 1 and written as [[a, b], [-conj b, conj a]] entry by
    entry.  A zero quaternion part (e.g. diag(1, -1)) gives NaN."""
    a = 0.5 * (m[..., 0, 0] + m[..., 1, 1].conj())
    b = 0.5 * (m[..., 0, 1] - m[..., 1, 0].conj())
    scale = 1.0 / np.sqrt(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2)
    a = a * scale
    b = b * scale
    q = np.empty(m.shape, dtype=complex)
    q[..., 0, 0] = a
    q[..., 0, 1] = b
    q[..., 1, 0] = -b.conj()
    q[..., 1, 1] = a.conj()
    return q


def retract(desc: GroupDescriptor, m: np.ndarray) -> np.ndarray:
    """Pull a near-group matrix (or stack) back onto the group manifold.

    Modulus normalization for U(1); the closed-form quaternion projection
    for SU(2); polar retraction followed by determinant renormalization
    for SU(n > 2) and SO(n); diagonal normalization for the unipotent
    family; nothing for GL.  Used after each ODE step to prevent drift
    over long integrations.  For SU(n > 2) and SO(n) a polar factor whose
    determinant has real part below 1/2 is far off the group, and raises
    NumericalError instead of being renormalized onto it; so does an
    eigendecomposition that fails (as on non-finite input).
    """
    m = np.asarray(m, dtype=complex)
    if desc.family == U1:
        mod = np.abs(m)
        return m / np.where(mod > 0, mod, 1.0)
    if desc.family == SU and desc.matrix_dim == 2:
        return _su2_retract(m)
    if desc.family in (SU, SO):
        try:
            q = polar_retract(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"retraction onto {desc} failed: {exc}") from exc
        det = np.linalg.det(q)
        if np.any(det.real < 0.5):
            raise NumericalError(f"retraction onto {desc} hit a determinant far from 1")
        scale = np.exp(-np.log(det) / desc.matrix_dim)
        q = q * scale[..., None, None]
        return q.real.astype(complex) if desc.family == SO else q
    if desc.family == UT:
        q = np.triu(m, 1) + np.broadcast_to(np.eye(desc.matrix_dim), m.shape)
        return q.real.astype(complex) if desc.field == "real" else q
    return m


def retracted_inverse(desc: GroupDescriptor, u: np.ndarray) -> np.ndarray:
    """Inverse of a stack of matrices that `retract` has put on the group of
    `desc`: the conjugate transpose for U(1), SU(n) and SO(n), whose
    retractions are unitary, and `np.linalg.inv` for GL and UT."""
    if desc.family in (U1, SU, SO):
        return np.swapaxes(u.conj(), -2, -1)
    return np.linalg.inv(u)


def random_algebra(desc: GroupDescriptor, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Seeded random algebra element, used by axiom and residual samplers."""
    n = desc.matrix_dim
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return AlgebraElement(desc, scale * project_to_algebra(desc, raw), validate=False)


def random_group(desc: GroupDescriptor, rng: np.random.Generator, scale: float = 0.7) -> GroupElement:
    return exp_map(random_algebra(desc, rng, scale))
