"""Vectorized scatter-accumulation kernels for the force loops.

``np.add.at`` is the obvious way to scatter per-pair forces onto atoms,
but it dispatches through the slow buffered-ufunc path; ``np.bincount``
with weights does the same reduction ~5x faster (a standard NumPy
hot-path trick — see the HPC-Python guides on vectorizing the inner
loop).  All force kernels route through these helpers so the whole
engine benefits and the accumulation order is consistent everywhere
(bit-identical results between the serial reference and every parallel
path require *one* summation strategy).
"""

from __future__ import annotations

import numpy as np


def scatter_signed(
    out: np.ndarray, idx: np.ndarray, weights: np.ndarray, sign: int
) -> None:
    """``out[idx] += sign * weights`` for a 1-D ``out``, bincount-accelerated.

    The one signed reduction every force kernel and the communication
    unpack path share; ``out`` may be a column view of an (N, 3) array,
    which is how the per-axis kernels scatter.  ``sign`` must be ``+1``
    or ``-1``.  The add and subtract branches are kept literal (``+=`` /
    ``-=``) so results stay bit-identical to accumulating the un-negated
    weights directly.
    """
    if idx.size == 0:
        return
    if sign >= 0:
        out += np.bincount(idx, weights=weights, minlength=out.shape[0])
    else:
        out -= np.bincount(idx, weights=weights, minlength=out.shape[0])


def scatter_signed_vec(
    out: np.ndarray, idx: np.ndarray, vec: np.ndarray, sign: int
) -> None:
    """``out[idx] += sign * vec`` for (N, 3) arrays, one column at a time."""
    for k in range(out.shape[1]):
        scatter_signed(out[:, k], idx, vec[:, k], sign)


def scatter_add_vec(out: np.ndarray, idx: np.ndarray, vec: np.ndarray) -> None:
    """``out[idx] += vec`` for (N, 3) arrays, bincount-accelerated."""
    scatter_signed_vec(out, idx, vec, 1)


def scatter_sub_vec(out: np.ndarray, idx: np.ndarray, vec: np.ndarray) -> None:
    """``out[idx] -= vec`` for (N, 3) arrays."""
    scatter_signed_vec(out, idx, vec, -1)


def scatter_add_scalar(out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``out[idx] += values`` for 1-D arrays (EAM density accumulation)."""
    scatter_signed(out, idx, values, 1)
