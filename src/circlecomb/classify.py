"""Deciding whether a function equals its own vanishing-window limit.

A function is *combed* when the shrinking-window averages recover its
pointwise value wherever it has one, with jump points carrying the
midpoint of their lateral limits.  Anything that breaks this (a
finite-height spike, a jump assigned a non-midpoint value) is *ragged*.
Raggedness is removable: the limit function itself is combed, and three
independent routes compute it (direct shrinking-window limits, series
reconstruction from coefficients, radial limits from inside the disk).

Verdicts are per grid node; grid density is an explicit parameter of
the report, not a claim about all points.  All nodes run in one array
pass, one column per node; grid data's averages come in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._extrap import (check_eps_schedule, extrapolated_limits,
                      mass_signatures, neville_to_zero)
from .errors import CircleCombError, DomainError
from .realfilter import DEFAULT_EPS_SCHEDULE, window_averages
from .spectrum import (CoefficientSequence, EvaluatorFunction, GridFunction,
                       circle_distance, grid_nodes, partial_sum_grid, sinc,
                       wrap_angle)

COMBED = "combed"
RAGGED = "ragged"

RECOVERED = "recovered"
SPIKE_MISMATCH = "spike_mismatch"
JUMP_MIDPOINT_MISMATCH = "jump_midpoint_mismatch"
UNDEFINED = "undefined"
VERDICTS = (RECOVERED, SPIKE_MISMATCH, JUMP_MIDPOINT_MISMATCH, UNDEFINED)

DEFAULT_TOL = 1e-6

# Nodes closer than this to a declared singular point sit on it: their
# windows straddle the point symmetrically instead of shrinking away.
_SNAP = 1e-9


@dataclass(frozen=True)
class ClassificationReport:
    overall: str
    params: dict
    nodes: np.recarray


def _node_records(thetas) -> np.recarray:
    """Undefined records at `thetas`; a NaN value or residual is null."""
    nodes = np.recarray(len(thetas), [("theta", float), ("verdict", object),
                                      ("value", float), ("residual", float)])
    nodes.theta, nodes.verdict = thetas, UNDEFINED
    nodes.value = nodes.residual = np.nan
    return nodes


@dataclass(frozen=True)
class CoefficientCertificate:
    """Always-combed verdict for coefficient data, with the spot check
    that the filter multiplier returns to 1 as the window shrinks."""

    verdict: str
    checked_k: tuple
    eps_values: tuple
    multipliers: tuple
    max_final_gap: float


def _window_limits(f: EvaluatorFunction, thetas: np.ndarray, es: np.ndarray):
    """Shrinking-window limits at every node in one pass.

    Each node's schedule is `es`, shrunk as a whole so its windows clear
    the nearest declared singular point (at the point itself, and far
    from any, the symmetric base).  Returns the schedules and window
    averages (m, N), then `extrapolated_limits` of them.
    """
    sched = np.repeat(es[:, None], thetas.size, axis=1)
    if f.singular_points:
        dist = np.min([circle_distance(thetas, s.theta)
                       for s in f.singular_points], axis=0)
        shrink = (dist > _SNAP) & (dist < 2.0 * es[0])
        sched[:, shrink] = es[:, None] * (dist[shrink] / (2.0 * es[0]))
    samples = window_averages(f, thetas, sched)
    return (sched, samples) + extrapolated_limits(sched, samples)


def classify_pointwise(f: EvaluatorFunction, n_grid: int = 256,
                       eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
                       tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Per-node comparison of f against its shrinking-window limit.

    A node is `recovered` when |f(theta) - limit| <= tol, a mismatch
    otherwise (`jump_midpoint_mismatch` when lateral-limit estimates
    differ by more than tol, `spike_mismatch` when they agree), and
    `undefined` when f has no value there, the window is inadmissible,
    or the limit itself is numerically inconclusive (extrapolation
    correction above tol/4).  Undefined nodes never make the function
    ragged: the comparison only applies where f is defined.

    When f has a finite value at a node but the window averages diverge
    as the window shrinks (concentrated mass right at the node, e.g. an
    outlier sample in interpolated grid data), the value is not
    recoverable and the node is a mismatch, split by the same
    lateral-limit probe.  Declared singular points are exempt: windows
    near them shrink with the distance, so genuine jumps and kinks do
    not trip this.

    The lateral probes extrapolate samples at theta +- {2h, h, h/2} to
    one-sided values; their summed last corrections (times 4) widen tol,
    so their truncation error is never mistaken for a genuine jump.
    """
    if n_grid < 16:
        raise DomainError(f"classification grid needs >= 16 nodes, "
                          f"got {n_grid}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance tol must be positive and finite, "
                          f"got {tol}")
    es = check_eps_schedule(eps_schedule)
    h_lateral = 2.0 * (2.0 * math.pi / n_grid)

    thetas = grid_nodes(n_grid)
    f_vals = f.sample(thetas)
    live = np.flatnonzero(np.isfinite(f_vals))
    sched, samples, limits, corr, settled = _window_limits(
        f, thetas[live], es)
    residuals = np.abs(f_vals[live] - limits)
    trusted = settled & (corr <= 0.25 * tol)
    missed = trusted & (residuals > tol)
    # Averages that do not settle on concentrated mass: the node value
    # rides on mass the vanishing window can never keep, so recovery
    # fails outright.
    massive = mass_signatures(sched, samples, np.where(
        ~trusted & ~np.isnan(samples[0]), tol, np.inf))

    probed = live[missed | massive]
    offs = np.array([2.0 * h_lateral, h_lateral, 0.5 * h_lateral])
    at = thetas[probed]
    lp, cp, _ = neville_to_zero(offs, f.sample(wrap_angle(at + offs[:, None])))
    lm, cm, _ = neville_to_zero(offs, f.sample(wrap_angle(at - offs[:, None])))
    jumps = np.isfinite(lp) & np.isfinite(lm) \
        & (np.abs(lp - lm) > tol + 4.0 * (cp + cm))

    nodes = _node_records(thetas)
    nodes.verdict[probed] = SPIKE_MISMATCH
    nodes.verdict[probed[jumps]] = JUMP_MIDPOINT_MISMATCH
    nodes.verdict[live[trusted & ~missed]] = RECOVERED
    nodes.value[live[trusted]] = limits[trusted]
    nodes.residual[live[trusted]] = residuals[trusted]
    ragged = np.any((nodes.verdict == SPIKE_MISMATCH)
                    | (nodes.verdict == JUMP_MIDPOINT_MISMATCH))
    params = {"method": "pointwise", "n_grid": int(n_grid),
              "eps_schedule": [float(e) for e in es], "tol": float(tol)}
    return ClassificationReport(overall=RAGGED if ragged else COMBED,
                                params=params, nodes=nodes)


DEFAULT_CERT_EPS = (0.1, 0.05, 0.025, 0.0125)


def classify_coefficients(seq: CoefficientSequence) -> CoefficientCertificate:
    """Coefficient data is combed unconditionally: its partial sums are
    trigonometric polynomials and the window average acts term-wise.
    The certificate records the multiplier sin(k eps)/(k eps) returning
    to 1 at a low, a middle and the top harmonic, at the half-widths
    `DEFAULT_CERT_EPS`."""
    if seq.n >= 1:
        ks = sorted({1, max(1, seq.n // 2), seq.n})
    else:
        ks = []
    mults = tuple(tuple(float(sinc(k * e)) for e in DEFAULT_CERT_EPS)
                  for k in ks)
    gap = max((abs(1.0 - row[-1]) for row in mults), default=0.0)
    return CoefficientCertificate(verdict=COMBED, checked_k=tuple(ks),
                                  eps_values=DEFAULT_CERT_EPS,
                                  multipliers=mults, max_final_gap=gap)


def certificate_report(cert: CoefficientCertificate) -> ClassificationReport:
    """Report form of the coefficient verdict, for serialization."""
    params = {"method": "coefficients",
              "checked_k": list(cert.checked_k),
              "eps_values": list(cert.eps_values),
              "multipliers": [list(row) for row in cert.multipliers],
              "max_final_gap": cert.max_final_gap}
    return ClassificationReport(overall=cert.verdict, params=params,
                                nodes=_node_records(()))


# ----------------------------------------------------------------- combing

def comb_by_filter_limit(f: EvaluatorFunction, n_grid: int = 256,
                         eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE
                         ) -> GridFunction:
    """The limit function itself at every node; nodes without a settled
    limit become mask holes instead of errors."""
    _, _, values, _, settled = _window_limits(
        f, grid_nodes(n_grid), check_eps_schedule(eps_schedule))
    return GridFunction(
        values=values, defined=settled,
        singular_points=tuple(s.theta for s in f.singular_points),
        note="combed by shrinking-window limits")


@dataclass(frozen=True)
class FourierCombResult:
    """Reconstruction grid plus its own convergence diagnostic."""

    grid: GridFunction
    sup_change: float
    non_convergent: bool


def _generator_singulars(seq: CoefficientSequence) -> tuple:
    """Singular points of the function a tagged sequence came from.

    Combing removes spikes but keeps jumps and kinks, so a combed grid
    inherits the generator's singular points; they let classification
    keep its windows clear of the steep interpolated stretches there.
    Untagged sequences get no declarations.
    """
    if seq.generator is None:
        return ()
    from .catalog import make
    try:
        entry = make(seq.generator["name"], **seq.generator["params"])
    except (CircleCombError, KeyError, TypeError):
        return ()
    if entry.evaluator is None:
        return ()
    return tuple(s.theta for s in entry.evaluator.singular_points)


def comb_from_coefficients(seq: CoefficientSequence, n_grid: int = 256,
                           singular_points=None) -> FourierCombResult:
    """Partial-sum reconstruction at the grid nodes.

    The diagnostic is the sup-norm change between the half and full
    truncations; a value above DEFAULT_TOL flags a series still in motion
    at this order (non-convergent or just too short a truncation).
    `singular_points` defaults to whatever the generator tag implies.
    """
    if singular_points is None:
        singular_points = _generator_singulars(seq)
    full = partial_sum_grid(seq, n_grid)
    half = partial_sum_grid(seq, n_grid, m=seq.n // 2)
    np.subtract(full, half, out=half)
    sup = float(np.max(np.abs(half, out=half))) if seq.n else 0.0
    grid = GridFunction(
        values=full, defined=np.ones(n_grid, dtype=bool),
        singular_points=tuple(singular_points),
        note=f"series reconstruction at n={seq.n}")
    return FourierCombResult(grid=grid, sup_change=sup,
                             non_convergent=sup > DEFAULT_TOL)


def comb_by_disk(seq: CoefficientSequence, n_grid: int = 256,
                 delta_schedule: Optional[Sequence[float]] = None,
                 singular_points=None) -> GridFunction:
    """Comb through the disk route: radial boundary values at the nodes.

    Nodes whose ring values blow up (boundary singular points) are left
    undefined in the mask; no schedule means disk.DEFAULT_DELTA_SCHEDULE.
    `singular_points` defaults to whatever the generator tag implies.
    """
    from .disk import DEFAULT_DELTA_SCHEDULE, boundary_value_grid
    if delta_schedule is None:
        delta_schedule = DEFAULT_DELTA_SCHEDULE
    if singular_points is None:
        singular_points = _generator_singulars(seq)
    values, _, defined = boundary_value_grid(seq, n_grid, delta_schedule)
    return GridFunction(values=values, defined=defined,
                        singular_points=tuple(singular_points),
                        note=f"radial boundary values at n={seq.n}")
