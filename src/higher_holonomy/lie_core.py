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

from .errors import MembershipError, NumericalError

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
    """Frobenius norm of all entries together, tolerant of scalars and
    stacks; finite entries read inf only past the largest float (`_norm`)."""
    return float(_norm(np.asarray(m), None))


def _as_matrix(desc: GroupDescriptor, matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape != (desc.matrix_dim, desc.matrix_dim):
        raise MembershipError(
            f"expected {desc.matrix_dim}x{desc.matrix_dim} matrix, got {m.shape}"
        )
    m.setflags(write=False)
    return m


def group_defect(desc: GroupDescriptor, m: np.ndarray) -> float:
    """Distance-like residual of the membership predicate; 0 on the group.
    For a stack (..., n, n) it is the largest over the stack; inf when any
    entry is not finite, and for GL when any matrix is singular."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        return math.inf
    if desc.family == U1:
        d = np.abs(_modulus(m[..., 0, 0]) - 1.0)
    elif desc.family in (SU, SO):
        unitary = np.swapaxes(m.conj(), -2, -1) @ m - np.eye(desc.matrix_dim)
        d = np.maximum(frobs(unitary), _modulus(np.linalg.det(m) - 1.0))
        if desc.family == SO:
            d = np.maximum(d, frobs(m.imag))
    elif desc.family == UT:
        diag = np.diagonal(m, axis1=-2, axis2=-1) - 1.0
        d = np.maximum(frobs(np.tril(m, -1)), np.sqrt(np.sum(np.abs(diag) ** 2, axis=-1)))
        if desc.field == "real":
            d = np.maximum(d, frobs(m.imag))
    elif np.any(np.abs(np.linalg.det(m)) < 1e-12):  # GL: invertible
        return math.inf
    else:
        d = frobs(m.imag) if desc.field == "real" else np.zeros(m.shape[:-2])
    return float(np.max(d, initial=0.0))


def _modulus(z):
    """|z| entrywise by `np.hypot`, which rounds as the modulus of one
    complex scalar does (`np.abs` on a complex array may differ by an ulp)."""
    return np.hypot(np.real(z), np.imag(z))


def _norm(m: np.ndarray, axis):
    """sqrt(sum |m|^2) over `axis`.  Where that overflows to inf on finite
    entries (they are squared), it is measured again on m / max|m| over
    `axis` and scaled back, so it reads inf only past the largest float.
    Every value that does not overflow is computed as it stands, and the
    entries are looked at again only when the sum of all values is not
    finite (`np.any` would cost twice as much on a small stack)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.sqrt(np.sum(np.abs(m) ** 2, axis=axis))
        if math.isfinite(r.sum()):
            return r
        big = np.max(np.abs(m), axis=axis, keepdims=True)
        again = np.sqrt(np.sum(np.abs(m / big) ** 2, axis=axis)) * np.squeeze(big, axis)
    return np.where((r == math.inf) & ~np.isnan(again), again, r)[()]


def frobs(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n); a finite
    matrix reads inf only past the largest float (`_norm`), and one with a
    NaN entry reads NaN."""
    return _norm(m, (-2, -1))


def max_frob(m: np.ndarray) -> float:
    """Largest Frobenius norm over a stack (..., n, n), 0 for an empty one;
    inf when any entry is not finite, so that no check passes on NaN."""
    r = float(np.max(frobs(m), initial=0.0))
    return r if math.isfinite(r) else math.inf


def algebra_defect(desc: GroupDescriptor, m: np.ndarray) -> float:
    """Distance-like residual of the algebra membership predicate; 0 on the
    algebra.  For a stack (..., n, n) it is the largest over the stack; inf
    when an entry is not finite.  A finite stack whose defect overflows to
    inf (its entries are squared) is measured again on m / max|m|, and that
    defect is scaled back; every defect that does not overflow is computed
    as it stands."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        return math.inf
    with np.errstate(over="ignore"):
        d = _finite_algebra_defect(desc, m)
    if d == math.inf:
        big = float(np.max(np.abs(m)))
        d = _finite_algebra_defect(desc, m / big) * big
    return d


def _finite_algebra_defect(desc: GroupDescriptor, m: np.ndarray) -> float:
    """`algebra_defect` of a finite stack, as it stands."""
    if desc.family == U1:
        d = np.abs(m[..., 0, 0].real)
    elif desc.family == SU and desc.matrix_dim == 2:
        # the SU branch below from the four entries, with one square root
        m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        herm = 4.0 * (m00.real ** 2 + m11.real ** 2) + 2.0 * np.abs(m01 + m10.conj()) ** 2
        d2 = np.maximum(herm, np.abs(m00 + m11) ** 2)
        return math.sqrt(float(np.max(d2, initial=0.0)))
    elif desc.family == SU:
        tr = np.trace(m, axis1=-2, axis2=-1)
        d = np.maximum(frobs(m + np.swapaxes(m.conj(), -2, -1)), np.hypot(tr.real, tr.imag))
    elif desc.family == SO:
        d = np.maximum(frobs(m + np.swapaxes(m.conj(), -2, -1)), frobs(m.imag))
    elif desc.family == UT:
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        d = np.maximum(frobs(np.tril(m, -1)), np.sqrt(np.sum(np.abs(diag) ** 2, axis=-1)))
        if desc.field == "real":
            d = np.maximum(d, frobs(m.imag))
    elif desc.field == "real":
        d = frobs(m.imag)
    else:
        d = np.zeros(m.shape[:-2])
    return float(np.max(d, initial=0.0))


def require_algebra(desc: GroupDescriptor, m: np.ndarray, form: str, where: str = "") -> None:
    """Raise MembershipError for `form` (the name of the form whose values
    `m` are) unless every matrix of the stack `m` lies in the algebra of
    `desc` within membership_tolerance * max(1, largest |entry|).  The
    message says that `form` is not finite when an entry is NaN or inf,
    and gives the defect otherwise."""
    m = np.asarray(m)
    d = algebra_defect(desc, m)
    if d <= desc.membership_tolerance:  # the scale is at least 1
        return
    if d == math.inf and not np.all(np.isfinite(m)):
        raise MembershipError(f"{form}{where} is not finite", form=form)
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
    `_expm2`); scaling-and-squaring with a truncated series for n >= 3,
    each matrix halved the fewest times that bring its Frobenius norm to
    at most 1/2, so every matrix of a stack is exponentiated exactly as it
    would be alone.  Non-finite entries raise NumericalError, and so do
    squarings that overflow.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise NumericalError("non-finite entries in exponential argument")
    if m.shape[-1] == 1:
        return np.exp(m)
    if m.shape[-1] == 2:
        return _expm2(m)
    twice_norm = 2.0 * frobs(m)
    if not np.all(np.isfinite(twice_norm)):
        raise NumericalError("non-finite entries in exponential argument")
    # 2 norm = f 2^e with 1/2 <= f < 1, so norm / 2^s <= 1/2 from s = e, or
    # from s = e - 1 when f = 1/2
    frac, exp2 = np.frexp(twice_norm)
    squarings = np.maximum(exp2 - (frac == 0.5), 0)
    a = m / np.ldexp(1.0, squarings)[..., None, None]
    eye = np.broadcast_to(np.eye(m.shape[-1]), m.shape).astype(complex)
    result = eye.copy()
    term = eye.copy()
    for k in range(1, _EXPM_ORDER + 1):
        term = term @ a / k
        result = result + term
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(np.max(squarings, initial=0))):
            more = squarings > k
            result[more] = result[more] @ result[more]
    if not np.all(np.isfinite(result)):
        raise NumericalError("exponential overflowed in its squarings")
    return result


def _exp_on_group(desc: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """expm of an algebra stack, gated: non-finite output raises
    NumericalError, and output more than 10x the membership tolerance off
    the group (`group_defect` over the stack) raises MembershipError."""
    m = expm(x)
    if not np.all(np.isfinite(m)):
        raise NumericalError("exponential produced non-finite entries")
    defect = group_defect(desc, m)
    if defect > 10 * desc.membership_tolerance:
        raise MembershipError(f"exp_map left {desc} (defect {defect:.3e})")
    return m


def exp_map(x: AlgebraElement) -> GroupElement:
    """Exponential of an algebra element; lands on the group within
    10x the membership tolerance."""
    return GroupElement(x.descriptor, _exp_on_group(x.descriptor, x.matrix), validate=False)


def ginv(g: GroupElement) -> GroupElement:
    try:
        inv = np.linalg.inv(g.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular group element") from exc
    return GroupElement(g.descriptor, inv, validate=False)


def gmul(a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement(a.descriptor, a.matrix @ b.matrix, validate=False)


def small_matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ y over stacks of small square matrices whose leading shapes
    broadcast, entry by entry, each a row-column sum in order of k.  On a
    stack of 32,896 2x2 complex matrices (one core of a Xeon host) this
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


def line_product(lines: int, d: int):
    """The product for a stack of `lines` d x d matrices times another,
    chosen once for a sweep's step loop: `small_matmul` from
    `_SMALL_MATMUL_MIN_LINES` lines of 2x2, `np.matmul` (which `@` calls)
    otherwise."""
    return small_matmul if d == 2 and lines >= _SMALL_MATMUL_MIN_LINES else np.matmul


def add_commutator(out: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """out += x y - y x in place over stacks of small square matrices whose
    leading shapes broadcast to that of `out`.  2x2 matrices take the
    closed form

        [x, y]_00 = x_01 y_10 - y_01 x_10 = -[x, y]_11,
        [x, y]_01 = (x_00 - x_11) y_01 - (y_00 - y_11) x_01,
        [x, y]_10 = (y_00 - y_11) x_10 - (x_00 - x_11) y_10,

    whose operand order makes [x, x] exactly 0.  On a stack of 20,736 2x2
    complex matrices (one core of a Xeon host) it costs about 65 ns per
    matrix, against about 120 ns by `small_matmul`, which other sizes
    take, and about 1 us for `out += x @ y; out -= y @ x`."""
    if out.shape[-1] != 2:
        out += small_matmul(x, y)
        out -= small_matmul(y, x)
        return
    dx = x[..., 0, 0] - x[..., 1, 1]
    dy = y[..., 0, 0] - y[..., 1, 1]
    c = x[..., 0, 1] * y[..., 1, 0]
    c -= y[..., 0, 1] * x[..., 1, 0]
    out[..., 0, 0] += c
    out[..., 1, 1] -= c
    c = dx * y[..., 0, 1]
    c -= dy * x[..., 0, 1]
    out[..., 0, 1] += c
    c = dy * x[..., 1, 0]
    c -= dx * y[..., 1, 0]
    out[..., 1, 0] += c


def conjugate(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g y g^-1 on stacks of square matrices whose leading shapes broadcast.
    Scalars commute, so for 1x1 it is y, as a read-only view broadcast with
    g.  For 2x2 both products are entrywise (`small_matmul`) and g^-1 is the
    adjugate over the determinant; other sizes use `np.linalg.inv`.  A
    singular g raises LinAlgError, and a non-finite g gives NaN without a
    warning, as `np.linalg.inv` does."""
    g = np.asarray(g, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if g.shape[-1] == 1:
        if np.any(g == 0):
            raise np.linalg.LinAlgError("Singular matrix")
        if not np.all(np.isfinite(g)):
            return np.where(np.isfinite(g), y, np.nan)
        return np.broadcast_to(y, np.broadcast_shapes(g.shape, y.shape))
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
    with np.errstate(invalid="ignore"):  # only a non-finite g or y signals here
        out /= det[..., None, None]
    return out


def polar_retract(m: np.ndarray) -> np.ndarray:
    """Nearest-unitary factor of a stack of near-unitary matrices."""
    h = np.swapaxes(m.conj(), -2, -1) @ m
    w, v = np.linalg.eigh(h)
    w = np.maximum(w.real, 1e-30)
    inv_sqrt = (v * (w ** -0.5)[..., None, :]) @ np.swapaxes(v.conj(), -2, -1)
    return m @ inv_sqrt


# Stacks of fewer 2x2 matrices than this are retracted onto SU(2) in Python
# complex arithmetic (`_su2_retract_short`): on one core of a Xeon host one
# matrix costs about 2.3 us that way against 12 us by the entrywise numpy
# formula, two 3.4 us, eight 10 us, and the two break even at about 10.
_SU2_STACKED_MIN_MATRICES = 10

# Width from which `line_product` multiplies stacks of 2x2 lines by
# `small_matmul` instead of `@`: on one core of a Xeon host `@` costs about
# 18 us on 64 lines and 33 us on 129, `small_matmul` about 14 us on either;
# on one line `@` is about eight times faster.
_SMALL_MATMUL_MIN_LINES = 64


def _su2_retract(m: np.ndarray) -> np.ndarray:
    """Nearest SU(2) matrix, in the Frobenius norm, to each matrix of a
    complex 2x2 stack: the quaternion part a = (m00 + conj m11)/2,
    b = (m01 - conj m10)/2 (the orthogonal projection onto real multiples
    of SU(2)), scaled to |a|^2 + |b|^2 = 1 and written as
    [[a, b], [-conj b, conj a]].  A zero quaternion part (e.g. diag(1, -1))
    gives NaN.

    A stack of fewer than `_SU2_STACKED_MIN_MATRICES` matrices takes
    `_su2_retract_short`, wider ones `_su2_retract_stacked`.  Both do the
    same IEEE operations in the same order (numpy multiplies a complex by
    a real as by a complex with zero imaginary part, as CPython does up to
    3.13, and squares an array by one multiplication), so the result is
    the same to the bit, signed zeros included.  A single (2, 2) matrix is
    retracted as the one-matrix stack (1, 2, 2) is; the numpy formula
    alone would square its entries as numpy scalars, by `pow`, which can
    round differently.  Where the scale is not finite, the short path
    hands the stack to the stacked formula, whose NaNs and RuntimeWarnings
    are kept."""
    if m.size < 4 * _SU2_STACKED_MIN_MATRICES:
        q = _su2_retract_short(m)
        if q is not None:
            return q
    return _su2_retract_stacked(m.reshape(-1, 2, 2)).reshape(m.shape)


def _su2_retract_short(m: np.ndarray) -> np.ndarray | None:
    """`_su2_retract_stacked` on the entries of `m` as Python complex
    numbers, one matrix at a time; None when some matrix's squared norm
    |a|^2 + |b|^2 is 0 or not finite (before any division, so nothing is
    signalled here)."""
    out = []
    for m00, m01, m10, m11 in m.reshape(-1, 4).tolist():
        a = 0.5 * (m00 + m11.conjugate())
        b = 0.5 * (m01 - m10.conjugate())
        norm2 = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
        if not 0.0 < norm2 < math.inf:
            return None
        scale = 1.0 / math.sqrt(norm2)
        a = a * scale
        b = b * scale
        out.append((a, b, -b.conjugate(), a.conjugate()))
    return np.array(out, dtype=complex).reshape(m.shape)


def _su2_retract_stacked(m: np.ndarray) -> np.ndarray:
    """`_su2_retract` entrywise on the whole stack, by numpy."""
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
    for SU(2), in Python complex arithmetic on a stack of fewer than
    `_SU2_STACKED_MIN_MATRICES` matrices (the one-line sweep steps) and by
    numpy on wider ones, with the same bits either way (see
    `_su2_retract`); polar retraction followed by determinant renormalization
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
    retractions are unitary, and `np.linalg.inv` for GL and UT, except that
    1x1 stacks are inverted as 1 / u (a zero raises LinAlgError, as
    `np.linalg.inv` does)."""
    if desc.family in (U1, SU, SO):
        return np.swapaxes(u.conj(), -2, -1)
    if u.shape[-1] == 1:
        if not np.all(u):
            raise np.linalg.LinAlgError("Singular matrix")
        return 1.0 / u
    return np.linalg.inv(u)


def algebra_from_normals(desc: GroupDescriptor, z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale times the algebra projection of z[..., 0, :, :] + i z[..., 1, :, :]
    for a stack z (..., 2, n, n) of standard normal draws: a stack of random
    algebra matrices."""
    return scale * project_to_algebra(desc, z[..., 0, :, :] + 1j * z[..., 1, :, :])


def group_from_normals(desc: GroupDescriptor, z: np.ndarray, scale: float = 0.7) -> np.ndarray:
    """The exponential of `algebra_from_normals(desc, z, scale)`, gated
    onto the group as `exp_map` is: a stack of random group matrices."""
    return _exp_on_group(desc, algebra_from_normals(desc, z, scale))


def _normals(desc: GroupDescriptor, rng: np.random.Generator) -> np.ndarray:
    n = desc.matrix_dim
    return rng.standard_normal((2, n, n))


def random_algebra(desc: GroupDescriptor, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Seeded random algebra element, used by axiom and residual samplers:
    the one-sample case of `algebra_from_normals`, so it draws the real
    part of its matrix, then the imaginary part."""
    return AlgebraElement(desc, algebra_from_normals(desc, _normals(desc, rng), scale),
                          validate=False)


def random_group(desc: GroupDescriptor, rng: np.random.Generator, scale: float = 0.7) -> GroupElement:
    """The one-sample case of `group_from_normals`."""
    return GroupElement(desc, group_from_normals(desc, _normals(desc, rng), scale),
                        validate=False)
