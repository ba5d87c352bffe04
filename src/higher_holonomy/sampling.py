"""Deterministic low-discrepancy sampling for residual reports."""

from __future__ import annotations

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
