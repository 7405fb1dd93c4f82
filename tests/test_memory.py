"""Traced peaks of the grid routes at 2^20 nodes, per node, and of the
schedule routes at 65536 nodes x 32 entries, per entry and node.

Each bound counts the arrays over the nodes that the function holds at
once, 8 bytes per node for each float array and 16 for each complex
one, plus a stated allowance; the data passed in is not counted.
"""

import tracemalloc

import numpy as np
import pytest

from circlecomb.classify import (classify_pointwise, comb_by_filter_limit,
                                 comb_from_coefficients)
from circlecomb.disk import boundary_value_grid
from circlecomb.formats import write_grid
from circlecomb.realfilter import grid_evaluator, kernel_filter_grid
from circlecomb.spectrum import CoefficientSequence, GridFunction, grid_nodes

N = 1 << 20
# The schedule routes: NODES x ENTRIES schedule entries.
NODES, ENTRIES = 1 << 16, 32
WIDTHS = tuple(0.2 * 0.9 ** j for j in range(ENTRIES))


@pytest.fixture(scope="module")
def grid():
    defined = np.arange(N) % 7 != 0
    return GridFunction(np.where(defined, np.cos(3.0 * grid_nodes(N)), np.nan),
                        defined)


def peak_per_node(run, units=N):
    """Peak traced bytes per node (or per any `units`) allocated while
    `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / units
    finally:
        tracemalloc.stop()


def test_grid_function_checks_its_values_without_a_gathered_copy(grid):
    # Its own copies of the values (8 B/node) and of the mask (1 B/node),
    # and the finiteness check's three masks (3 B/node).
    peak = peak_per_node(lambda: GridFunction(grid.values, grid.defined))
    assert peak < 12.0, f"GridFunction traced peak {peak:.1f} B/node"


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


@pytest.fixture(scope="module")
def rough():
    """Jumps at the declared 0 and -pi, so the nodes near them shrink
    their schedules, under noise that sends most nodes to the
    concentrated-mass test."""
    th = grid_nodes(NODES)
    noise = np.random.default_rng(7).standard_normal(NODES)
    return grid_evaluator(GridFunction(np.sign(np.sin(th)) + 0.1 * noise,
                                       np.ones(NODES, bool),
                                       singular_points=(0.0, -np.pi)))



def test_comb_by_filter_limit_holds_four_arrays_per_entry(rough):
    # The schedule, the window averages, the squared schedule and the
    # Neville copy (32 B per entry and node).  Over the nodes: the
    # thetas, the even model's value, correction and growth flag, and
    # the Neville step's temporaries, under 64 B/node (2 B per entry and
    # node at 32 entries).  The window evaluation holds less: the
    # schedule, the averages and the widths in cells (24 B) and one
    # row's temporaries.
    peak = peak_per_node(lambda: comb_by_filter_limit(rough, NODES, WIDTHS),
                         NODES * ENTRIES)
    assert peak < 34.0, f"comb_by_filter_limit traced peak {peak:.1f} B"


def test_classify_pointwise_holds_four_arrays_per_entry(rough):
    # As comb_by_filter_limit, with f at the nodes and the live nodes'
    # index (16 B/node more, 3 B per entry and node in all).  The node
    # reports, about 140 B/node, come after the limits and hold less.
    peak = peak_per_node(lambda: classify_pointwise(rough, NODES, WIDTHS),
                         NODES * ENTRIES)
    assert peak < 35.0, f"classify_pointwise traced peak {peak:.1f} B"


def test_boundary_value_grid_holds_three_arrays_per_entry():
    # The rings, their magnitudes, and the magnitudes scaled for the
    # growth test or the Neville copy (24 B per entry and node), the
    # growth mask (1 B), and one ring's transform and the results over
    # the nodes, under 32 B/node (1 B per entry and node).
    k = np.arange(1, 65)
    seq = CoefficientSequence(0.5, 0.5 ** k, 0.3 * 0.5 ** k)
    deltas = tuple(0.5 * 0.8 ** j for j in range(ENTRIES))
    peak = peak_per_node(lambda: boundary_value_grid(seq, NODES, deltas),
                         NODES * ENTRIES)
    assert peak < 26.0, f"boundary_value_grid traced peak {peak:.1f} B"
