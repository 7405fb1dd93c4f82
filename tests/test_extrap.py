"""The shrinking-window limit machinery: the Neville tableau and the
batched concentrated-mass test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlecomb import _extrap, classify
from circlecomb._extrap import mass_signatures, neville_to_zero
from circlecomb.catalog import make
from circlecomb.realfilter import grid_evaluator
from conftest import reference_mass_signatures


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


@pytest.fixture
def fits(monkeypatch):
    """Every `np.linalg.lstsq` call from here on, one entry each."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    return calls


def base_schedule(rng, m):
    """m half-widths at one of three first widths and rates."""
    return rng.choice([0.2, 0.1, 0.025]) \
        * rng.choice([0.8, 0.6, 0.3]) ** np.arange(m)


def mixed_columns(rng, es, k):
    """A scale per column in [1e-3, 1], one column in seven unscaled, and
    random, concentrated-mass, smooth, kinked and zero columns at the
    half-widths es[:, None] * scale."""
    scale = 10.0 ** rng.uniform(-3.0, 0.0, k)
    scale[::7] = 1.0
    eps = es[:, None] * scale
    level, amp = rng.uniform(-2.0, 2.0, k), rng.uniform(-1.0, 1.0, k)
    kind = np.arange(k) % 5
    samples = np.select(
        [kind[None] == 0, kind[None] == 1, kind[None] == 2, kind[None] == 3],
        [rng.standard_normal(eps.shape),
         level + amp * 1e-3 / eps + 1e-9 * rng.standard_normal(eps.shape),
         level + amp * eps ** 2,
         level + amp * eps],
        0.0)
    return scale, samples, rng.choice([1e-9, 1e-6, 1e-3], size=k)


@pytest.mark.parametrize("m", [4, 8, 32])
def test_a_batch_flags_each_column_as_it_flags_alone(rng, monkeypatch, fits,
                                                     m):
    # Blocks of 64 columns, so the 500 columns take eight fits.  Only the
    # flags are compared: a fit over many columns may round its
    # coefficients differently from a fit of one.
    monkeypatch.setattr(_extrap, "_BLOCK", 64)
    es = base_schedule(rng, m)
    _, samples, tol = mixed_columns(rng, es, 500)
    flags = mass_signatures(es, samples, tol)
    assert len(fits) == 8
    alone = [mass_signatures(es, samples[:, [j]], tol[j])[0]
             for j in range(500)]
    assert flags.tolist() == alone
    assert flags[1::5].any() and not flags[4::5].any()
    assert not flags.all()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(4, 32), first=st.floats(0.2, np.pi),
       span=st.floats(0.03, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_one_fit_on_the_base_schedule_flags_as_one_per_schedule(
        m, first, span, seed):
    # Base schedules from 0.2 or wider down to no less than 3 % of their
    # first entry (the default runs 0.2 to 0.025), and scales of 1e-3 and
    # above: the reference's basis on eps = es * scale then stays within
    # a few times the condition number it has on the default schedule at
    # scale 1e-3, about 2e12.  Narrower windows make 1/eps dwarf eps^2,
    # and the reference's fit, not the base one, loses the eps^2 column:
    # its rank drops to 2 at scales below about 1e-4 on the default.
    rng = np.random.default_rng(seed)
    es = first * span ** (np.arange(m) / (m - 1))
    scale, samples, tol = mixed_columns(rng, es, 200)
    assert mass_signatures(es, samples, tol).tolist() == \
        reference_mass_signatures(es[:, None] * scale, samples, tol).tolist()


def test_fewer_than_four_samples_never_flag(rng, fits):
    es = base_schedule(rng, 3)
    _, samples, tol = mixed_columns(rng, es, 100)
    assert not mass_signatures(es, samples, tol).any() and not fits


def test_a_column_with_an_infinite_tol_is_neither_fitted_nor_flagged(
        rng, fits):
    es = base_schedule(rng, 8)
    _, samples, _ = mixed_columns(rng, es, 100)
    assert not mass_signatures(es, samples, np.inf).any() and not fits
    tol = np.full(100, np.inf)
    tol[1] = 0.0
    flags = mass_signatures(es, samples, tol)
    assert flags.tolist() == [j == 1 for j in range(100)] and len(fits) == 1


def test_classify_fits_a_block_of_nodes_at_a_time(fits):
    # A 64-harmonic square wave: its Gibbs ripples send almost every node
    # to the mass test, and the nodes near its jumps shrink their
    # schedules.  Each of the two mass tests fits a block of nodes at a
    # time; one fit per distinct schedule took 552 fits here.
    n = 4096
    grid = classify.comb_from_coefficients(
        make("square_wave").coefficients(64), n).grid
    report = classify.classify_pointwise(grid_evaluator(grid), n)
    assert report.overall == classify.RAGGED
    assert 0 < len(fits) <= 2 * -(-n // _extrap._BLOCK)
