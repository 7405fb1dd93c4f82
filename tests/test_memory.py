"""Traced peaks of the grid routes at 2^20 nodes, per node.

Each bound counts the arrays over the nodes that the function holds at
once, 8 bytes per node for each float array and 16 for each complex
one, plus a stated allowance; the data passed in is not counted.
"""

import tracemalloc

import numpy as np
import pytest

from circlecomb.classify import comb_from_coefficients
from circlecomb.formats import write_grid
from circlecomb.realfilter import kernel_filter_grid
from circlecomb.spectrum import CoefficientSequence, GridFunction, grid_nodes

N = 1 << 20


@pytest.fixture(scope="module")
def grid():
    defined = np.arange(N) % 7 != 0
    return GridFunction(np.where(defined, np.cos(3.0 * grid_nodes(N)), np.nan),
                        defined)


def peak_per_node(run):
    """Peak traced bytes per node allocated while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / N
    finally:
        tracemalloc.stop()


def test_write_grid_holds_the_nodes_and_one_chunk(grid, tmp_path):
    # The thetas (8 B/node), and one chunk of 8192 rows with its cell
    # slots, text and temporaries, about 3 MB at any grid size: under
    # 4 MB, 4 B/node here.
    path = tmp_path / "g.csv"
    peak = peak_per_node(lambda: write_grid(path, grid))
    assert peak < 12.0, f"write_grid traced peak {peak:.1f} B/node"


def test_kernel_filter_grid_holds_four_float_arrays(grid):
    # The wrapped values, the prefix F and its error E, and one
    # temporary of the TwoSum term or the span (32 B/node), the
    # undefined-window mask (1 B/node), and 3 B/node for the extension
    # past each end and numpy's own scratch.
    peak = peak_per_node(lambda: kernel_filter_grid(grid, 0.01))
    assert peak < 36.0, f"kernel_filter_grid traced peak {peak:.1f} B/node"


def test_comb_from_coefficients_holds_one_sum_and_one_transform():
    # The full sum (8 B/node) while the half one is made: its folded bins
    # and their inverse FFT, complex (32 B/node); 2 B/node for the
    # 512-term series and numpy's scratch.
    rng = np.random.default_rng(5)
    seq = CoefficientSequence(0.5, rng.standard_normal(512),
                              rng.standard_normal(512))
    peak = peak_per_node(lambda: comb_from_coefficients(seq, N))
    assert peak < 42.0, f"comb_from_coefficients traced peak {peak:.1f} B/node"
