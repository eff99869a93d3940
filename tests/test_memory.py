"""Peak traced memory of the whole-grid steps, bounded by what they build.

numpy reports its array allocations to tracemalloc, so a peak counts every
temporary array as well as Python objects. Each step is run once on a tiny
grid first, so a first call's imports and caches are not counted.
"""

import tracemalloc
import numpy as np
import pytest

from luccsim import SplitMix64, initialize, preset, run_simulation
from luccsim.cli import _summary_dict
from luccsim.config import with_settings
from luccsim.numeric import sequential_sum

ROWS, COLS = 160, 150  # non-square, so a rows/cols mix-up shows


def _peak(call):
    """(result, peak traced bytes) of call()."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _config(rows, cols):
    return with_settings(preset("longterm", seed=1), {
        "grid_rows": rows, "grid_cols": cols, "cycles": 5, "climate": "random",
        "owner_share_pct": 50.0})


def test_initialize_peaks_within_two_and_a_half_landscapes(tables):
    initialize(_config(2, 3), tables, SplitMix64(1))
    scape, peak = _peak(lambda: initialize(_config(ROWS, COLS), tables, SplitMix64(1)))
    held = sum(a.nbytes for a in vars(scape).values() if isinstance(a, np.ndarray))
    assert peak <= 2.5 * held


# rows are summed a column at a time, so their peak is one column's running sum
@pytest.mark.parametrize("shape, bound", [((ROWS * COLS, 3), 0.5), ((ROWS * COLS,), 1.25)])
def test_sequential_sum_peaks_near_its_input(shape, bound):
    values = SplitMix64(2).random_array(int(np.prod(shape))).reshape(shape)
    sequential_sum(values[:2])
    _, peak = _peak(lambda: sequential_sum(values))
    assert peak <= bound * values.nbytes


def test_run_peaks_within_130_bytes_per_agent(tables):
    run_simulation(_config(2, 3), tables)
    _, peak = _peak(lambda: run_simulation(_config(ROWS, COLS), tables))
    assert peak <= 130 * ROWS * COLS


def test_summary_peaks_within_130_bytes_per_agent_with_the_result_held(tables):
    # the result holds the landscape and four per-agent float arrays; the
    # summary adds one array's copy at a time
    _summary_dict(run_simulation(_config(2, 3), tables))
    n = ROWS * COLS
    tracemalloc.start()
    try:
        result = run_simulation(_config(ROWS, COLS), tables)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _summary_dict(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 1.25 * 8 * n
    assert peak <= 130 * n
