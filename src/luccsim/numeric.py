"""The one float reduction used for every total that reaches an output."""

from __future__ import annotations

import numpy as np

__all__ = ["sequential_sum"]


def sequential_sum(values):
    """Sum floats left to right from 0.0 along the first axis.

    Built-in sum() of floats is compensated from Python 3.12 on and numpy's
    sum() is pairwise, so either can differ from a running sum in the last
    bit. np.cumsum accumulates in order; a leading 0.0 row makes it exactly
    the running sum from 0.0. Returns a float for a sequence of numbers and
    a list of per-column floats for a sequence of rows.
    """
    arr = np.asarray(values, dtype=np.float64)
    start = np.zeros((1,) + arr.shape[1:])
    return np.cumsum(np.concatenate((start, arr)), axis=0)[-1].tolist()
