"""The one float reduction used for every total that reaches an output."""

from __future__ import annotations

import numpy as np

__all__ = ["sequential_sum"]


def sequential_sum(values):
    """Sum floats left to right from 0.0 along the first axis.

    Built-in sum() of floats is compensated from Python 3.12 on and numpy's
    sum() is pairwise, so either can differ from a running sum in the last
    bit. np.add.accumulate adds in order, from x0 rather than 0.0. The two
    running sums differ only while all terms so far are -0.0, where the sum
    from x0 stays -0.0. A running sum from 0.0 is never -0.0, so the final
    + 0.0 (which changes only -0.0) makes them equal. Rows are summed a
    column at a time, each a strided accumulate into one column-sized
    array. Returns a float, or for rows a list of per-column floats.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not len(arr):
        return np.zeros(arr.shape[1:]).tolist()
    if arr.ndim == 1:
        return float(np.add.accumulate(arr)[-1] + 0.0)
    return [float(np.add.accumulate(column)[-1] + 0.0) for column in arr.T]
