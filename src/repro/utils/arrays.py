"""Array helpers shared across layers."""

from __future__ import annotations

import numpy as np


def narrowest_copy(arr: np.ndarray) -> np.ndarray:
    """A copy of an integer or bool array in the least memory that holds
    its values exactly: a constant array becomes one value broadcast to
    the shape (a read-only view), any other integer array takes the
    narrowest integer dtype; other arrays are copied unchanged.

    Replay-memo records keep snapshots and FIM-op columns for hundreds
    of batches; narrowing them cuts the memo's footprint several-fold.
    Restoring is a widening copy (``np.copyto`` / ``np.ascontiguousarray``
    with the wide dtype), so the values come back bit for bit.
    """
    if arr.size == 0 or arr.dtype.kind not in "iub":
        return arr.copy()
    lo, hi = int(arr.min()), int(arr.max())
    if lo == hi:
        return np.broadcast_to(arr.reshape(-1)[:1].copy(), arr.shape)
    if arr.dtype.kind == "b":
        return arr.copy()
    if lo >= 0:
        dtype = np.min_scalar_type(hi)
    else:  # a signed type holding both ends
        dtype = np.promote_types(
            np.min_scalar_type(lo), np.min_scalar_type(-hi - 1)
        )
    if dtype.itemsize >= arr.dtype.itemsize:
        return arr.copy()
    return arr.astype(dtype)
