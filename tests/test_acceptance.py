"""Acceptance suite: nine end-to-end checks across the whole package.

One test per criterion.  Every test prints a single line

    criterion N: PASS/FAIL - <measured numbers vs their bounds>

so a plain ``pytest -v tests/test_acceptance.py`` run reads as a
checklist (add ``-s`` or read the captured output for the numbers).
Tolerances are pinned as constants next to each test, or derived in
closed form from pinned sizes (criteria 1 and 9, below), and are never
taken from the code under test; expected values come from closed
forms or from constructions independent of the library internals.

Criteria 1 and 9 read a series on the ring of radius rho < 1.  That
reading is the Poisson extension of the boundary function, not the
function itself, so both are checked against the extension in closed
form (``poisson_arc_indicator`` and ``poisson_square_wave`` in
conftest).  Their comparison with the boundary function is bounded by
the near-boundary smoothing floor, whatever the truncation order: a
jump of height H at angular distance r from the node contributes

    H * M(r),   M(r) = (1/pi) arctan(((1 - rho)/(1 + rho)) cot(r/2)),

the Poisson kernel's mass beyond r on one side, about
(H/pi) (1 - rho)/r.  M is decreasing and convex, so at nodes that
clear every jump by at least d the floors are

- criterion 1, pulse of height h and width 2 eps:
  h (M(d) + M(2 eps - d));
- criterion 9, square wave with jumps of height 2 at 0 and pi:
  2 (M(d) + M(pi - d)) = (2/pi) arctan((1 - rho^2)/(2 rho sin d)).

Both are derived from the pinned rho and clearance d, never pinned
themselves.
"""

import itertools
import math

import numpy as np

from circlecomb.catalog import make
from circlecomb.classify import (
    classify_coefficients,
    classify_pointwise,
    comb_by_disk,
    comb_by_filter_limit,
    comb_from_coefficients,
)
from circlecomb.disk import (
    DiskPoint,
    InnerAnalyticFunction,
    arc_filter_eval,
    complex_filter,
    eval_ring,
    evaluate,
    from_coefficients,
    log_derivative,
    log_primitive,
)
from circlecomb.realfilter import (
    filter_limit,
    filtered_derivative_limit,
    grid_evaluator,
    kernel_filter_eval,
    multiplier_filter,
)
from circlecomb.rescale import IntervalMap, pullback, transport_filter
from circlecomb.spectrum import (
    CoefficientSequence,
    EvaluatorFunction,
    SingularPoint,
    circle_distance,
    grid_nodes,
    partial_sum_eval,
)

from conftest import (
    poisson_arc_indicator,
    poisson_square_wave,
    random_trig_poly,
)

SEED = 20260816


def _line(num, ok, detail):
    """The one pass/fail line per criterion; returns ok for the assert."""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -------------------------------------------------- 1: pulse recovery

PULSE_CENTER = 0.7
PULSE_EPS = 0.1                 # filter half-width = pulse half-width
PULSE_RHO = 1.0 - 1e-4
PULSE_NODES = 2048
PULSE_ORDER = 32768             # truncation tail: see _pulse_tail_bound
PULSE_EDGE_CLEARANCE = 0.02
PULSE_MASS_TOL = 1e-12          # roundoff only


def _poisson_mass_beyond(rho, r):
    """M(r): the Poisson kernel's mass beyond angular distance r on one
    side, (1/pi) arctan(((1 - rho)/(1 + rho)) cot(r/2))."""
    return math.atan((1.0 - rho) / (1.0 + rho) / math.tan(r / 2.0)) / math.pi


def _pulse_tail_bound(thetas):
    """Per-node bound on the truncation tail of the filtered point mass.

    With psi+- = theta - center +- eps the tail is
    sum_{k>n} rho^k (sin k psi+ - sin k psi-) / (2 pi eps k).  Since
    rho^k/k falls to 0 and every run of sin k psi sums to at most
    1/|sin(psi/2)|, summation by parts bounds it by

        rho^(n+1)/(2 pi eps (n+1)) (1/|sin(psi+/2)| + 1/|sin(psi-/2)|).
    """
    n1 = PULSE_ORDER + 1
    psi = thetas - PULSE_CENTER
    return (PULSE_RHO ** n1 / (2.0 * math.pi * PULSE_EPS * n1)
            * (1.0 / np.abs(np.sin((psi + PULSE_EPS) / 2.0))
               + 1.0 / np.abs(np.sin((psi - PULSE_EPS) / 2.0))))


def test_criterion_1_pulse_recovery_from_filtered_point_mass():
    """Window-averaging a unit point mass must reproduce the rectangular
    pulse of height 1/(2 eps) and width 2 eps when the filtered series
    is read off just inside the boundary circle: node by node it is the
    pulse's Poisson extension up to the truncation tail, and away from
    the edges it stays within the smoothing floor of the pulse."""
    seq = make("delta", theta0=PULSE_CENTER).coefficients(PULSE_ORDER)
    filtered = multiplier_filter(seq, PULSE_EPS)
    thetas = grid_nodes(PULSE_NODES)
    values = filtered.a0 + eval_ring(from_coefficients(filtered),
                                     PULSE_RHO, thetas).real

    height = 1.0 / (2.0 * PULSE_EPS)
    width = 2.0 * PULSE_EPS
    # Unit mass: the cell sum of the values is 1 plus the harmonics
    # m N that alias onto the grid mean, e^{i m N theta_j} = (-1)^{m N}.
    m_n = PULSE_NODES * np.arange(1, PULSE_ORDER // PULSE_NODES + 1)
    aliased = 2.0 * float(np.sum(
        (-1.0) ** m_n * np.cos(m_n * PULSE_CENTER)
        * np.sin(m_n * PULSE_EPS) / (m_n * PULSE_EPS) * PULSE_RHO ** m_n))
    cell_sum = 2.0 * math.pi / PULSE_NODES * float(np.sum(values))
    integral_gap = abs(cell_sum - 1.0 - aliased)

    exact = height * poisson_arc_indicator(PULSE_RHO, thetas,
                                           PULSE_CENTER, PULSE_EPS)
    tail = _pulse_tail_bound(thetas)
    oracle_gap = np.abs(values - exact)
    tail_share = float(np.max(oracle_gap / tail))

    pulse = np.where(circle_distance(thetas, PULSE_CENTER) < PULSE_EPS,
                     height, 0.0)
    edge_dist = np.minimum(
        circle_distance(thetas, PULSE_CENTER - PULSE_EPS),
        circle_distance(thetas, PULSE_CENTER + PULSE_EPS))
    far = edge_dist >= PULSE_EDGE_CLEARANCE
    floor = height * (
        _poisson_mass_beyond(PULSE_RHO, PULSE_EDGE_CLEARANCE)
        + _poisson_mass_beyond(PULSE_RHO, width - PULSE_EDGE_CLEARANCE))
    far_gap = np.abs(values[far] - pulse[far])
    margin = float(np.min(floor + tail[far] - far_gap))

    ok = (tail_share <= 1.0 and margin >= 0.0
          and integral_gap <= PULSE_MASS_TOL)
    assert _line(1, ok,
                 f"ring rho = {PULSE_RHO} vs the pulse's Poisson "
                 f"extension: max gap {float(np.max(oracle_gap)):.3e}, "
                 f"at most {tail_share:.2f} of the per-node tail bound; "
                 f"vs the pulse at nodes >= {PULSE_EDGE_CLEARANCE} from "
                 f"the edges: sup gap {float(np.max(far_gap)):.3e} vs "
                 f"floor {floor:.3e} + tail bound <= "
                 f"{float(np.max(tail[far])):.1e}, margin {margin:.1e} "
                 f"(height {height:g}, width {width:g}, cell sum "
                 f"{cell_sum:.9f} = 1 + aliasing {aliased:.9f} up to "
                 f"{integral_gap:.1e} vs {PULSE_MASS_TOL:.0e})"), (
        "the filtered point mass read on the ring must match the pulse's "
        "Poisson extension within the truncation tail bound and the "
        "pulse within floor h (M(d) + M(2 eps - d)) plus that bound")


# -------------------------------------------- 2: three forms, one filter

FORMS_N_POLYS = 16
FORMS_MAX_DEGREE = 64
FORMS_N_POINTS = 64             # (theta, eps) draws, spread over the polys
FORMS_TOL = 1e-9


def test_criterion_2_three_filter_forms_agree():
    """Kernel quadrature, coefficient multiplier and boundary-arc
    difference are the same operator; on trigonometric polynomials all
    three are exact up to roundoff and must agree pairwise."""
    rng = np.random.default_rng(SEED)
    per_poly = FORMS_N_POINTS // FORMS_N_POLYS
    worst = 0.0
    for _ in range(FORMS_N_POLYS):
        degree = int(rng.integers(1, FORMS_MAX_DEGREE + 1))
        a0, a, b, fn = random_trig_poly(rng, degree)
        seq = CoefficientSequence(a0=a0, a=a, b=b)
        ev = EvaluatorFunction(rule=fn, name="random trig poly")
        w = from_coefficients(seq)
        for _ in range(per_poly):
            theta = float(rng.uniform(-math.pi, math.pi))
            eps = float(rng.uniform(0.01, math.pi))
            kernel = kernel_filter_eval(ev, theta, eps)
            mult = partial_sum_eval(multiplier_filter(seq, eps), theta)
            arc = seq.a0 + arc_filter_eval(w, theta, eps, rho=1.0).real
            gap = max(abs(kernel - mult), abs(kernel - arc),
                      abs(mult - arc))
            worst = max(worst, gap)
    assert _line(2, worst <= FORMS_TOL,
                 f"{FORMS_N_POLYS} polynomials (degree <= "
                 f"{FORMS_MAX_DEGREE}), {FORMS_N_POINTS} (theta, eps) "
                 f"draws: worst pairwise gap {worst:.3e} vs "
                 f"{FORMS_TOL:.0e}")


# ------------------------------------- 3: second-order return to identity

ORDER_EPS = (0.2, 0.1, 0.05, 0.025)
ORDER_TARGET = 2.0
ORDER_TOL = 0.1
ORDER_THETA = 0.7
ORDER_W_RHO = 0.9
ORDER_W_TRUNC = 64


def test_criterion_3_window_shrinks_at_second_order():
    """As the window half-width shrinks, averages return to the point
    value at second order, on the circle and inside the disk alike."""
    cos_ev = make("cosine", k=1).evaluator
    errs_f = np.array([abs(kernel_filter_eval(cos_ev, ORDER_THETA, e)
                           - math.cos(ORDER_THETA)) for e in ORDER_EPS])
    orders_f = np.log2(errs_f[:-1] / errs_f[1:])

    # geometric-coefficient truncation (the disk analogue of 1/(2 - z)
    # style data), measured on an interior ring
    c = 0.5 ** np.arange(1, ORDER_W_TRUNC + 1)
    w = InnerAnalyticFunction(c)
    p = DiskPoint(ORDER_W_RHO, ORDER_THETA)
    exact = evaluate(w, p)
    errs_w = np.array([abs(evaluate(complex_filter(w, e), p) - exact)
                       for e in ORDER_EPS])
    orders_w = np.log2(errs_w[:-1] / errs_w[1:])

    gap_f = float(np.max(np.abs(orders_f - ORDER_TARGET)))
    gap_w = float(np.max(np.abs(orders_w - ORDER_TARGET)))
    ok = gap_f <= ORDER_TOL and gap_w <= ORDER_TOL
    assert _line(3, ok,
                 f"orders on the circle {np.round(orders_f, 4).tolist()}, "
                 f"on the ring {np.round(orders_w, 4).tolist()}; "
                 f"target {ORDER_TARGET} +/- {ORDER_TOL}")


# ------------------------------------------------ 4: jump and kink limits

JUMP_TOL = 1e-6
KINK_TOL = 1e-6


def test_criterion_4_jump_and_kink_averages():
    """Shrinking window averages land on the jump midpoint, and the
    averaged derivative vanishes at an even kink."""
    step = make("step", theta0=0.0, l_minus=0.0, l_plus=1.0)
    mid, _ = filter_limit(step.evaluator, 0.0)
    jump_gap = abs(mid - 0.5)

    tri = make("triangle_wave")
    slope, _ = filtered_derivative_limit(tri.evaluator, 0.0)
    kink_gap = abs(slope)

    ok = jump_gap <= JUMP_TOL and kink_gap <= KINK_TOL
    assert _line(4, ok,
                 f"step limit at the jump {mid!r} (gap {jump_gap:.1e} vs "
                 f"{JUMP_TOL:.0e}); kink derivative limit {slope!r} "
                 f"(gap {kink_gap:.1e} vs {KINK_TOL:.0e})")


# --------------------------------------------- 5: classification verdicts

TRUTH_N_GRID = 64
TRUTH_COEFF_ORDER = 128


def test_criterion_5_classification_truth_table():
    """Six canonical inputs and the verdicts they must receive."""
    nodes = grid_nodes(TRUTH_N_GRID)
    spike_at = float(nodes[48])     # a grid node, so the spike is seen

    def wrong_step_rule(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > 0, 1.0, 0.0)
        out = np.where(t == 0.0, 1.0, out)             # midpoint is 0.5
        out = np.where(np.abs(t) == math.pi, 1.0, out)  # midpoint is 0.5
        return out

    wrong_step = EvaluatorFunction(
        rule=wrong_step_rule, name="wrong-valued step",
        singular_points=(SingularPoint(-math.pi), SingularPoint(0.0)))

    got = {
        "cos": classify_pointwise(
            make("cosine", k=1).evaluator, n_grid=TRUTH_N_GRID).overall,
        "spiked cos": classify_pointwise(
            make("spiked", base="cosine", base_params={"k": 1},
                 point=spike_at, value=3.0).evaluator,
            n_grid=TRUTH_N_GRID).overall,
        "midpoint step": classify_pointwise(
            make("step", theta0=0.0, l_minus=0.0, l_plus=1.0).evaluator,
            n_grid=TRUTH_N_GRID).overall,
        "wrong-value step": classify_pointwise(
            wrong_step, n_grid=TRUTH_N_GRID).overall,
        "point mass coefficients": classify_coefficients(
            make("delta", theta0=0.7)
            .coefficients(TRUTH_COEFF_ORDER)).verdict,
        "second-derivative point mass coefficients": classify_coefficients(
            make("delta_derivative", theta0=0.7, order=2)
            .coefficients(TRUTH_COEFF_ORDER)).verdict,
    }
    want = {
        "cos": "combed",
        "spiked cos": "ragged",
        "midpoint step": "combed",
        "wrong-value step": "ragged",
        "point mass coefficients": "combed",
        "second-derivative point mass coefficients": "combed",
    }
    wrong = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    assert _line(5, not wrong,
                 "all six verdicts as required" if not wrong
                 else f"mismatches (got, want): {wrong}"), wrong


# ----------------------------------------- 6: three combs, one square wave

COMB_N_GRID = 256
COMB_FOURIER_ORDER = 2 ** 20
COMB_DISK_ORDER = 32768
COMB_JUMP_CLEARANCE = 0.1
COMB_AGREE_TOL = 1e-5


def test_criterion_6_combing_methods_agree_on_square_wave():
    """Shrinking-window limits, series reconstruction and radial boundary
    values all comb the square wave to the same grid function, and each
    output classifies as combed."""
    sq = make("square_wave")
    outs = {
        "filter-limit": comb_by_filter_limit(sq.evaluator,
                                             n_grid=COMB_N_GRID),
        "fourier": comb_from_coefficients(
            sq.coefficients(COMB_FOURIER_ORDER), n_grid=COMB_N_GRID).grid,
        "disk": comb_by_disk(sq.coefficients(COMB_DISK_ORDER),
                             n_grid=COMB_N_GRID),
    }
    thetas = grid_nodes(COMB_N_GRID)
    far = ((np.abs(thetas) >= COMB_JUMP_CLEARANCE)
           & (np.abs(np.abs(thetas) - math.pi) >= COMB_JUMP_CLEARANCE))

    holes = {name: int(np.sum(~g.defined[far])) for name, g in outs.items()}
    sup = 0.0
    for (_, ga), (_, gb) in itertools.combinations(outs.items(), 2):
        both = ga.defined & gb.defined & far
        sup = max(sup, float(np.max(np.abs(ga.values[both]
                                           - gb.values[both]))))

    verdicts = {name: classify_pointwise(grid_evaluator(g),
                                         n_grid=COMB_N_GRID,
                                         tol=COMB_AGREE_TOL).overall
                for name, g in outs.items()}

    ok = (all(h == 0 for h in holes.values())
          and sup <= COMB_AGREE_TOL
          and all(v == "combed" for v in verdicts.values()))
    assert _line(6, ok,
                 f"pairwise sup {sup:.3e} vs {COMB_AGREE_TOL:.0e} at nodes "
                 f">= {COMB_JUMP_CLEARANCE} from jumps; verdicts "
                 f"{verdicts}; undefined far nodes {holes}")


# -------------------------------------- 7: filtering commutes with rescale

TRANSPORT_INTERVAL = (0.0, 10.0)
TRANSPORT_N_DRAWS = 32
TRANSPORT_TOL = 1e-9


def test_criterion_7_interval_transport_commutes():
    """Filtering on a physical interval equals pulling back to the circle,
    filtering there with the rescaled half-width, and reading the value
    at the mapped angle."""
    a, b = TRANSPORT_INTERVAL
    m = IntervalMap(a, b)
    g = EvaluatorFunction(rule=lambda x: np.cos(x), domain=(a, b),
                          name="cosine on the interval")
    pulled = pullback(g)

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(TRANSPORT_N_DRAWS):
        eps = float(rng.uniform(0.01, 0.5))
        x = float(rng.uniform(a + eps, b - eps))
        direct = transport_filter(g, x, eps)
        via_circle = kernel_filter_eval(pulled, m.to_canonical(x),
                                        m.epsilon_to_canonical(eps))
        worst = max(worst, abs(direct - via_circle))
    assert _line(7, worst <= TRANSPORT_TOL,
                 f"interval [{a:g}, {b:g}], {TRANSPORT_N_DRAWS} random "
                 f"(x, eps): worst route gap {worst:.3e} vs "
                 f"{TRANSPORT_TOL:.0e}")


# ------------------------------- 8: exact inverses and origin pinning

INVERSE_N_VECTORS = 10 ** 4
INVERSE_MAX_LEN = 32
ORIGIN_N_DRAWS = 100


def test_criterion_8_inverse_operators_and_origin_pinning():
    """Termwise primitive and derivative undo each other bitwise in both
    orders, and every filtered disk function still vanishes at the
    origin exactly."""
    rng = np.random.default_rng(SEED)
    bad_round_trips = 0
    for _ in range(INVERSE_N_VECTORS):
        c = rng.standard_normal(int(rng.integers(1, INVERSE_MAX_LEN + 1)))
        w = InnerAnalyticFunction(c)
        ab = log_derivative(log_primitive(w))
        ba = log_primitive(log_derivative(w))
        for back in (ab, ba):
            if not (np.array_equal(back.c, w.c)
                    and back.log_power == w.log_power
                    and np.array_equal(back.materialize(),
                                       w.materialize())):
                bad_round_trips += 1

    bad_origins = 0
    for _ in range(ORIGIN_N_DRAWS):
        c = rng.standard_normal(int(rng.integers(1, INVERSE_MAX_LEN + 1)))
        eps = float(rng.uniform(0.01, math.pi))
        w = InnerAnalyticFunction(c)
        at_origin = evaluate(complex_filter(w, eps), DiskPoint(0.0, 0.0))
        arc_at_origin = arc_filter_eval(w, 0.3, eps, rho=0.0)
        if at_origin != 0.0 or arc_at_origin != 0.0:
            bad_origins += 1

    ok = bad_round_trips == 0 and bad_origins == 0
    assert _line(8, ok,
                 f"{INVERSE_N_VECTORS} coefficient vectors round-trip "
                 f"bitwise both ways ({bad_round_trips} failures); "
                 f"filtered value at the origin exactly 0 for "
                 f"{ORIGIN_N_DRAWS} draws ({bad_origins} failures)")


# ---------------------------- 9: smooth ring restriction of the square wave

RING_RHO = 1.0 - 1e-3
RING_ORDER = 32768              # tail at this radius is ~e^{-32}, negligible
RING_N_GRID = 256
RING_JUMP_CLEARANCE = 0.1
RING_ORACLE_TOL = 1e-12         # roundoff only, the tail being negligible


def test_criterion_9_smooth_ring_restriction_tracks_combed_square():
    """The square wave's disk representation restricted to an interior
    ring is a trigonometric polynomial in the angle - smooth everywhere
    by construction.  It must equal the square wave's Poisson extension
    and track the combed square wave away from the jumps, within the
    smoothing floor."""
    sq = make("square_wave")
    seq = sq.coefficients(RING_ORDER)
    thetas = grid_nodes(RING_N_GRID)
    ring = seq.a0 + eval_ring(from_coefficients(seq), RING_RHO, thetas).real
    assert np.all(np.isfinite(ring)), "ring restriction must be smooth"

    oracle_gap = float(np.max(np.abs(
        ring - poisson_square_wave(RING_RHO, thetas))))

    combed = np.sign(thetas)     # midpoint values sit at the excluded jumps
    far = ((np.abs(thetas) >= RING_JUMP_CLEARANCE)
           & (np.abs(np.abs(thetas) - math.pi) >= RING_JUMP_CLEARANCE))
    sup = float(np.max(np.abs(ring[far] - combed[far])))
    floor = (2.0 / math.pi) * math.atan(
        (1.0 - RING_RHO) * (1.0 + RING_RHO)
        / (2.0 * RING_RHO * math.sin(RING_JUMP_CLEARANCE)))

    ok = oracle_gap <= RING_ORACLE_TOL and sup <= floor
    assert _line(9, ok,
                 f"ring rho = {RING_RHO} vs the square wave's Poisson "
                 f"extension: gap {oracle_gap:.1e} vs "
                 f"{RING_ORACLE_TOL:.0e}; vs combed square wave: sup "
                 f"{sup:.3e} vs floor {floor:.3e} (margin "
                 f"{floor - sup:.1e}) at nodes >= {RING_JUMP_CLEARANCE} "
                 f"from jumps"), (
        "the ring restriction must match the square wave's Poisson "
        "extension and the combed square wave within the floor "
        "(2/pi) arctan((1 - rho^2)/(2 rho sin d))")
