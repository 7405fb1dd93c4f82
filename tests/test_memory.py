"""Traced peaks of the grid routes and of `grid_sum` at 2^20 nodes, per
node, of the schedule routes at 65536 nodes x 32 entries, per entry and
node, and of the coefficient JSON reader and writer and the report
writer at 65536 terms or nodes.

Each bound counts the arrays over the nodes that the function holds at
once, 8 bytes per node for each float array and 16 for each complex
one, plus a stated allowance; the data passed in is not counted.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from circlecomb import classify, cli
from circlecomb.classify import (RECOVERED, SPIKE_MISMATCH,
                                 ClassificationReport, classify_pointwise,
                                 comb_by_filter_limit, comb_from_coefficients)
from circlecomb.disk import boundary_value_grid
from circlecomb.formats import load_coefficients, save_coefficients, write_grid
from circlecomb.realfilter import grid_evaluator, kernel_filter_grid
from circlecomb.spectrum import (CoefficientSequence, GridFunction, grid_nodes,
                                grid_sum)

N = 1 << 20
TERMS = 1 << 16
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


def test_grid_evaluator_holds_two_float_arrays(grid):
    # The values with their holes zeroed and the nodes as quadrature
    # pins (16 B/node).  The pins as a tuple of Python floats held
    # 48 B/node.
    peak = peak_per_node(lambda: grid_evaluator(grid))
    assert peak < 17.0, f"grid_evaluator traced peak {peak:.1f} B/node"


def test_grid_function_checks_its_values_without_a_gathered_copy(grid):
    # Its own copies of the values (8 B/node) and of the mask (1 B/node),
    # and the finiteness check's three masks (3 B/node).
    peak = peak_per_node(lambda: GridFunction(grid.values, grid.defined))
    assert peak < 12.0, f"GridFunction traced peak {peak:.1f} B/node"


def test_write_grid_holds_one_chunk(grid, tmp_path):
    # One chunk of 8192 rows, its thetas made from the node indices, with
    # its cell slots, text and temporaries, about 3 MB at any grid size:
    # under 4 MB, 4 B/node here.  The whole grid's thetas held 8 B/node
    # more.
    path = tmp_path / "g.csv"
    peak = peak_per_node(lambda: write_grid(path, grid))
    assert peak < 4.0, f"write_grid traced peak {peak:.1f} B/node"


@pytest.mark.parametrize("nodes, rows, part, bound", [
    (N, 3, 5, 52.0), (1 << 16, 16, 3, 56.0)])
def test_grid_sum_folds_into_the_bins(nodes, rows, part, bound):
    # While a row folds: the N bins and the row's weighted terms, complex
    # (32 B/node), and the row's weights and the `arange` of their
    # exponents (16 B/node); then the bins and their inverse FFT
    # (32 B/node).
    # Padding the terms to whole rows and summing them down by one
    # reshape held 104 B/node at 3 rows; weights for every term made
    # before the fold held 56 B/node there and 256 B/node at 16 rows.
    rng = np.random.default_rng(3)
    n = rows * nodes + part
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    peak = peak_per_node(lambda: grid_sum(0.5, c, nodes, 0.5), nodes)
    assert peak < bound, f"grid_sum traced peak {peak:.1f} B/node"


def test_kernel_filter_grid_holds_four_float_arrays(grid):
    # The wrapped values, the prefix F and its error E, and one
    # temporary of the TwoSum term or the span (32 B/node), the
    # undefined-window mask (1 B/node), and 3 B/node for the extension
    # past each end and numpy's own scratch.
    peak = peak_per_node(lambda: kernel_filter_grid(grid, 0.01))
    assert peak < 36.0, f"kernel_filter_grid traced peak {peak:.1f} B/node"


def test_kernel_filter_grid_masks_the_seam_in_the_same_arrays(grid):
    # On interval data the seam mask tries the nodes within reach of
    # the seam only; over the whole grid its thetas and their distances
    # held 16 B/node more.
    interval = replace(grid, domain=(0.0, 1.0))
    peak = peak_per_node(lambda: kernel_filter_grid(interval, 0.01))
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
    # records, 32 B/node, come after the limits and hold less.
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


@pytest.fixture(scope="module")
def coefficient_file(tmp_path_factory):
    rng = np.random.default_rng(11)
    seq = CoefficientSequence(0.5, rng.standard_normal(TERMS),
                              rng.standard_normal(TERMS),
                              generator={"name": "step",
                                         "params": {"theta0": 0.5}})
    path = tmp_path_factory.mktemp("coefficients") / "c.json"
    save_coefficients(path, seq)
    return seq, path


def test_load_coefficients_holds_the_text_and_two_columns(coefficient_file):
    # The decoded text (1 B per byte of file), and beyond it the two
    # `array('d')` columns with their growth slack and the parsed
    # `terms` list of one reference per term (25 B/term); after the text
    # is freed, those and the sequence's own copies of the columns
    # (42 B/term).  The whole-document parse held about 290 B/term.
    _, path = coefficient_file
    peak = peak_per_node(lambda: load_coefficients(path), TERMS)
    beyond = peak - path.stat().st_size / TERMS
    assert beyond <= 40.0, f"load_coefficients traced {beyond:.1f} B/term " \
        "beyond the file"


def test_save_coefficients_holds_one_chunk(coefficient_file, tmp_path):
    # One chunk of 4096 terms at a time: its cells as Python floats and
    # ints, their flat tuple, the format string, the text and its bytes,
    # under 320 B per term of the chunk at any length; the head and the
    # tail are a few dozen bytes.  Writing the document whole held about
    # 200 B per term of the sequence.
    seq, _ = coefficient_file
    peak = peak_per_node(lambda: save_coefficients(tmp_path / "c.json", seq),
                         4096)
    assert peak <= 320.0, f"save_coefficients traced {peak:.1f} B per " \
        "chunk term"


def test_classify_writes_its_report_one_chunk_at_a_time(
        tmp_path, monkeypatch):
    # `classify --output` as the CLI runs it, on a prebuilt report of
    # 65536 nodes, so the trace holds the write alone: the column checks
    # (a mask of 1 B per node of the report at a time), then one chunk
    # of 4096 nodes at a time, that is the cells as Python floats and
    # their text, their flat tuple, the format string, the chunk's text
    # and its bytes, under 480 B per node of the chunk.  Writing the
    # report whole held about 4900 B per chunk node here, 306 B per node
    # of the report.
    # Every third node is undefined, with a null value and residual.
    nodes = classify._node_records(grid_nodes(TERMS))
    values = np.random.default_rng(13).standard_normal(TERMS)
    nodes.verdict[0::3] = RECOVERED
    nodes.verdict[2::3] = SPIKE_MISMATCH
    nodes.value[0::3], nodes.value[2::3] = values[0::3], values[2::3]
    nodes.residual = np.abs(nodes.value)
    report = ClassificationReport("ragged", {"method": "pointwise",
                                             "tol": 1e-6}, nodes)
    monkeypatch.setattr(classify, "classify_pointwise",
                        lambda *args, **kwargs: report)
    grid = tmp_path / "g.csv"
    write_grid(grid, GridFunction(np.zeros(16), np.ones(16, bool)))
    out = tmp_path / "r.json"
    argv = ["classify", "--input", str(grid), "--output", str(out)]
    assert cli.main(argv) == 0      # loads the modules the route needs
    peak = peak_per_node(lambda: cli.main(argv), 4096)
    assert peak <= 480.0, f"classify --output traced {peak:.1f} B per " \
        "chunk node"
