"""The shrinking-window limit machinery: the Neville tableau and the
batched concentrated-mass test."""

import numpy as np
import pytest

from circlecomb import classify
from circlecomb._extrap import mass_signatures, neville_to_zero
from circlecomb.catalog import make
from circlecomb.realfilter import DEFAULT_EPS_SCHEDULE, grid_evaluator
from circlecomb.spectrum import grid_nodes


def tableau_changes(xs, values):
    """Every level's change of the running extrapolant at 0, from a
    scalar Neville tableau written out here."""
    p = [float(v) for v in values]
    changes = []
    for lev in range(1, len(xs)):
        prev = p[-1]
        p = [p[i + 1] + (p[i + 1] - p[i]) * xs[i + lev] / (xs[i] - xs[i + lev])
             for i in range(len(p) - 1)]
        changes.append(abs(p[-1] - prev))
    return p[-1], changes


@pytest.mark.parametrize("m", [3, 4, 6])
def test_neville_returns_the_last_change_and_whether_the_changes_grew(rng, m):
    # Closely spaced samples: the tableau amplifies noise, so the
    # changes of many random columns grow.
    xs = 0.2 * 0.9 ** np.arange(m)
    cols = np.column_stack([1.0 + xs - xs ** 2, 2.0 / xs, np.cos(7.0 / xs)]
                           + [rng.standard_normal(m) for _ in range(20)])
    value, last, grew = neville_to_zero(xs, cols)
    grown = 0
    for j in range(cols.shape[1]):
        ref, changes = tableau_changes(xs, cols[:, j])
        assert value[j] == ref and last[j] == changes[-1]
        assert grew[j] == all(b > a for a, b in zip(changes, changes[1:]))
        grown += grew[j]
    assert 0 < grown < cols.shape[1]


def mixed_columns(rng, m, k):
    """Schedules of m entries, a few shared ones shrunk per column (the
    fit cannot tell those apart) or decaying at their own rate, and
    random, concentrated-mass, smooth, kinked and zero columns."""
    eps = rng.choice([0.2, 0.1, 0.025], size=k) \
        * rng.choice([0.8, 0.6, 0.3], size=k) ** np.arange(m)[:, None]
    level, amp = rng.uniform(-2.0, 2.0, k), rng.uniform(-1.0, 1.0, k)
    kind = np.arange(k) % 5
    samples = np.select(
        [kind[None] == 0, kind[None] == 1, kind[None] == 2, kind[None] == 3],
        [rng.standard_normal((m, k)),
         level + amp * 1e-3 / eps + 1e-9 * rng.standard_normal((m, k)),
         level + amp * eps ** 2,
         level + amp * eps],
        0.0)
    return eps, samples, rng.choice([1e-9, 1e-6, 1e-3], size=k)


@pytest.mark.parametrize("m", [4, 8, 32])
def test_a_batch_flags_each_column_as_it_flags_alone(rng, m):
    # Only the flags are compared: a fit over many columns may round its
    # coefficients differently from a fit of one.
    eps, samples, tol = mixed_columns(rng, m, 500)
    flags = mass_signatures(eps, samples, tol)
    alone = [mass_signatures(eps[:, [j]], samples[:, [j]], tol[j])[0]
             for j in range(eps.shape[1])]
    assert flags.tolist() == alone
    assert flags[1::5].any() and not flags[4::5].any()
    assert not flags.all()


def test_fewer_than_four_samples_never_flag(rng):
    eps, samples, tol = mixed_columns(rng, 3, 100)
    assert not mass_signatures(eps, samples, tol).any()


def test_a_column_with_an_infinite_tol_is_neither_fitted_nor_flagged(
        rng, monkeypatch):
    eps, samples, _ = mixed_columns(rng, 8, 100)
    fits = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: fits.append(1) or lstsq(*a, **k))
    tol = np.full(100, np.inf)
    tol[1] = 0.0
    flags = mass_signatures(eps, samples, tol)
    assert flags.tolist() == [j == 1 for j in range(100)] and len(fits) == 1


def test_classify_fits_once_per_distinct_schedule(monkeypatch):
    # A 64-harmonic square wave: its Gibbs ripples send almost every node
    # to the mass test, and the nodes near its jumps shrink their
    # schedules, one distinct schedule each.
    n = 4096
    grid = classify.comb_from_coefficients(
        make("square_wave").coefficients(64), n).grid
    f = grid_evaluator(grid)
    sched = classify._window_limits(f, grid_nodes(n),
                                    np.array(DEFAULT_EPS_SCHEDULE))[0]
    distinct = np.unique(sched, axis=1).shape[1]
    fits = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: fits.append(1) or lstsq(*a, **k))
    report = classify.classify_pointwise(f, n)
    assert report.overall == classify.RAGGED
    assert 0 < len(fits) <= distinct < n // 4
