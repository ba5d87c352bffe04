"""Deterministic low-discrepancy sampling for residual reports, and the
tensor-product grids on which fields are evaluated axis by axis."""

from __future__ import annotations

import functools
import math

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
# Halton sampling covers at most this many coordinates, one prime each.
MAX_DIM = len(_PRIMES)


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(indices.shape, dtype=float)
    denom = 1.0
    idx = indices.copy()
    while np.any(idx > 0):
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


def halton_points(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """First n Halton points in [0,1)^dim, offset deterministically by seed."""
    if dim > MAX_DIM:
        raise ValueError(f"halton supports up to {MAX_DIM} dimensions")
    indices = np.arange(1 + seed, n + 1 + seed)
    return np.stack([_radical_inverse(indices, _PRIMES[k]) for k in range(dim)], axis=-1)


def halton_box(box, n: int, seed: int = 0) -> np.ndarray:
    """Halton points scaled into the product of intervals `box`."""
    box = np.asarray(box, dtype=float)
    pts = halton_points(n, box.shape[0], seed)
    return box[:, 0] + pts * (box[:, 1] - box[:, 0])


class ProductGrid:
    """The tensor product of k coordinate axes.  `axes[m]` holds coordinate
    m along dimension m of `grid_shape` and has size 1 on the others, so a
    function of some coordinates, evaluated elementwise on their axes,
    takes each value it takes on the grid once; `unit` is a size-1 array of
    k dimensions.  `shape` is that of the stacked points, (number of
    points, k), and `points` holds them in C order."""

    def __init__(self, axes):
        k = len(axes)
        self.axes = tuple(np.asarray(a, dtype=float).reshape((1,) * m + (-1,) + (1,) * (k - 1 - m))
                          for m, a in enumerate(axes))
        self.grid_shape = tuple(a.size for a in self.axes)
        self.shape = (math.prod(self.grid_shape), k)
        self.unit = np.zeros((1,) * k)

    @functools.cached_property
    def points(self) -> np.ndarray:
        return np.stack([np.broadcast_to(a, self.grid_shape).ravel() for a in self.axes], axis=-1)

    def flat(self, matrices: np.ndarray) -> np.ndarray:
        """A stack of matrices whose leading shape broadcasts to
        `grid_shape`, as one stack over the points in their order; it may
        be a view of `matrices`, so it is only read."""
        mat_shape = matrices.shape[-2:]
        return np.broadcast_to(matrices, self.grid_shape + mat_shape).reshape(
            self.shape[:1] + mat_shape)
