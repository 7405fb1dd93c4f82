"""Window averages on the circle: kernel, multiplier and grid routes."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlecomb.catalog import exact_filtered, make
from circlecomb.disk import arc_filter_eval, complex_filter, from_coefficients
from circlecomb.errors import (DomainError, EpsilonBelowResolution,
                               NoConvergence, UndefinedHere)
from circlecomb._extrap import extrapolated_limit
from circlecomb.realfilter import (
    DEFAULT_EPS_SCHEDULE,
    GridFunction,
    filter_limit,
    filtered_derivative_limit,
    grid_evaluator,
    kernel_filter_eval,
    kernel_filter_grid,
    multiplier_filter,
    window_averages,
)
from circlecomb.rescale import IntervalMap
from circlecomb.spectrum import (CoefficientSequence, EvaluatorFunction,
                                 SingularPoint, circle_distance,
                                 compute_coefficients, grid_coefficients,
                                 grid_nodes, partial_sum_grid)

from conftest import delta_coefficients

PI = math.pi

# Window average of cos at the origin with half-width 0.1, closed form
# sin(0.1)/0.1 evaluated independently.
COS_AVERAGE_TENTH = 0.9983341664682815

SIGN_EVALUATOR = EvaluatorFunction(
    rule=np.sign,
    singular_points=(SingularPoint(0.0), SingularPoint(-PI)))


# ----------------------------------------------------------- kernel route

def test_kernel_filter_fixes_constants():
    f = EvaluatorFunction(rule=lambda th: np.full_like(th, 4.25))
    for eps in (0.05, 1.0, PI):
        assert kernel_filter_eval(f, 0.3, eps) == pytest.approx(4.25,
                                                                abs=1e-12)


@pytest.mark.parametrize("theta", [3.0, 1.0, -2.5])
def test_kernel_filter_divides_by_the_computed_width(theta):
    # theta +- 1e-9 spans 2e-9 only to an ulp of theta, which is 8e-8
    # of the window at theta = 3: the average must use hi - lo.
    f = EvaluatorFunction(rule=np.ones_like)
    got = kernel_filter_eval(f, theta, 1e-9)
    assert abs(got - 1.0) <= 4 * np.spacing(1.0)


def test_kernel_filter_of_cosine_matches_closed_form():
    f = EvaluatorFunction(rule=np.cos)
    assert kernel_filter_eval(f, 0.0, 0.1) == pytest.approx(
        COS_AVERAGE_TENTH, abs=1e-12)


def test_kernel_filter_window_crosses_the_seam():
    f = EvaluatorFunction(rule=np.cos)
    theta = -PI + 0.02
    got = kernel_filter_eval(f, theta, 0.1)
    assert got == pytest.approx(math.cos(theta) * math.sin(0.1) / 0.1,
                                abs=1e-12)


def test_kernel_filter_of_odd_jump_at_centre_is_zero():
    assert kernel_filter_eval(SIGN_EVALUATOR, 0.0, 0.3) == pytest.approx(
        0.0, abs=1e-12)


def test_kernel_filter_refuses_non_integrable_windows():
    f = EvaluatorFunction(
        rule=lambda th: 1.0 / np.abs(th - 0.5),
        singular_points=(SingularPoint(0.5, integrable=False),))
    with pytest.raises(UndefinedHere):
        kernel_filter_eval(f, 0.45, 0.2)
    # The window boundary counts as inside: 0.25 + 0.25 lands exactly on it.
    with pytest.raises(UndefinedHere):
        kernel_filter_eval(f, 0.25, 0.25)
    # A window clear of the point works.
    assert np.isfinite(kernel_filter_eval(f, -2.0, 0.2))


def test_kernel_filter_validates_width():
    f = EvaluatorFunction(rule=np.cos)
    for eps in (0.0, -1.0, PI + 1e-9):
        with pytest.raises(DomainError):
            kernel_filter_eval(f, 0.0, eps)


_SEQ = CoefficientSequence(0.5, [1.0, -0.5], [0.25, 0.0])
HALF_WIDTH_ENTRY_POINTS = {
    "kernel_filter_eval": lambda e: kernel_filter_eval(
        EvaluatorFunction(rule=np.cos), 0.0, e),
    "multiplier_filter": lambda e: multiplier_filter(_SEQ, e),
    "kernel_filter_grid": lambda e: kernel_filter_grid(
        GridFunction(np.cos(grid_nodes(16)), np.ones(16, bool)), e),
    "window_averages": lambda e: window_averages(
        grid_evaluator(GridFunction(np.cos(grid_nodes(16)),
                                    np.ones(16, bool))),
        np.zeros(2), np.full((1, 2), e)),
    "complex_filter": lambda e: complex_filter(from_coefficients(_SEQ), e),
    "arc_filter_eval": lambda e: arc_filter_eval(from_coefficients(_SEQ),
                                                 0.0, e),
    "exact_filtered": lambda e: exact_filtered(make("cosine", k=1), e),
    "epsilon_map": lambda e: IntervalMap(0.0, 10.0).epsilon_map(e),
}


@pytest.mark.parametrize("eps", [0.0, PI + 1e-9, math.nan],
                         ids=["zero", "past-pi", "nan"])
@pytest.mark.parametrize("entry", sorted(HALF_WIDTH_ENTRY_POINTS))
def test_every_window_refuses_the_same_half_widths(entry, eps):
    message = re.escape(f"window half-width {eps} outside (0, pi]")
    with pytest.raises(DomainError, match=f"^{message}$"):
        HALF_WIDTH_ENTRY_POINTS[entry](eps)


# ------------------------------------------------------- multiplier route

def test_multiplier_scales_each_harmonic():
    seq = CoefficientSequence(7.0, np.array([0.0, 1.0]), np.array([3.0, 0.0]))
    out = multiplier_filter(seq, PI / 2)
    assert out.a0 == 7.0
    # sin(pi)/pi annihilates the second harmonic.
    assert abs(out.a[1]) <= 1e-16
    assert out.b[0] == pytest.approx(3.0 * 2.0 / PI, rel=1e-15)
    with pytest.raises(DomainError):
        multiplier_filter(seq, 4.0)


def test_multiplier_on_point_mass_matches_pulse_quadrature():
    # Averaging the unit mass at theta0 over half-width eps gives the
    # normalized indicator of [theta0 - eps, theta0 + eps]; project that
    # pulse directly and compare coefficient by coefficient.
    theta0, eps = 0.7, 0.1
    filtered = multiplier_filter(delta_coefficients(theta0, 16), eps)
    assert filtered.a[0] == pytest.approx(0.2430512710328417, abs=1e-15)

    def pulse(th):
        return np.where(np.abs(th - theta0) <= eps, 1.0 / (2 * eps), 0.0)

    direct = compute_coefficients(
        EvaluatorFunction(rule=pulse,
                          singular_points=(SingularPoint(theta0 - eps),
                                           SingularPoint(theta0 + eps))),
        n=16)
    assert filtered.a0 == pytest.approx(direct.a0, abs=1e-9)
    assert filtered.a == pytest.approx(direct.a, abs=1e-8)
    assert filtered.b == pytest.approx(direct.b, abs=1e-8)


# ------------------------------------------------------------- grid route

def test_grid_filter_fixes_constants():
    g = GridFunction(values=np.full(64, 2.5), defined=np.ones(64, bool))
    out = kernel_filter_grid(g, 0.5)
    assert out.values == pytest.approx(np.full(64, 2.5), abs=1e-14)
    assert out.defined.all()


def test_grid_filter_of_cosine_matches_multiplier():
    nodes = grid_nodes(4096)
    g = GridFunction(values=np.cos(nodes), defined=np.ones(4096, bool))
    out = kernel_filter_grid(g, 0.1)
    assert out.values == pytest.approx(COS_AVERAGE_TENTH * np.cos(nodes),
                                       abs=1e-5)


def _jumps_and_spikes(rng, n_nodes):
    """Grid values of a few random levels between random jumps, plus a
    cosine and up to two spiked nodes."""
    nodes = grid_nodes(n_nodes)
    jumps = np.sort(rng.uniform(-PI, PI, rng.integers(1, 4)))
    levels = rng.uniform(-2.0, 2.0, jumps.size + 1)
    v = levels[np.searchsorted(jumps, nodes)] \
        + rng.uniform(-1.0, 1.0) * np.cos(rng.integers(1, 5) * nodes)
    v[rng.integers(0, n_nodes, rng.integers(0, 3))] += rng.uniform(-3.0, 3.0)
    return v


def _alias_tail_bound(v, n, eps):
    """Bound on sum_{k > n} |sinc(k eps) c_k| for the coefficients c_k of
    `grid_coefficients(v, n)`, n a multiple of N = v.size and eps at
    least one cell.  |c_k| = (2/N) |F_r| sin^2(pi r/N) (N/(pi k))^2 with
    F = fft(v) and r = k mod N, and |sinc(k eps)| <= 1/(k eps), so each
    residue class r sums 1/k^3 over k = k0 + mN, m >= 0, k0 = n + r,
    which is at most 1/k0^3 + 1/(2 N k0^2)."""
    n_nodes = v.size
    r = np.arange(n_nodes)
    k0 = (n + np.where(r == 0, n_nodes, r)).astype(float)
    per_class = (2.0 / n_nodes) * np.abs(np.fft.fft(v)) \
        * np.sin(PI * r / n_nodes) ** 2 \
        * (1.0 / k0 ** 3 + 1.0 / (2 * n_nodes * k0 ** 2))
    return np.sum(per_class) * (n_nodes / PI) ** 2 / eps


def _routes_rounding(v, seq):
    """Rounding of the kernel and the multiplier routes on grid values
    `v` and the interpolant's coefficients `seq`: a few u per stage of
    the FFTs (log2 of their length) on the sum of |c_k|, and the
    compensated windows' few u on max|v|."""
    u = np.finfo(float).eps / 2
    return u * (2 * math.log2(seq.n) + 8) \
        * (abs(seq.a0) + np.sum(np.hypot(seq.a, seq.b))) \
        + 8 * u * np.max(np.abs(v))


def _one_cell_to_pi(n_nodes, cells):
    """A window half-width from one cell (cells = 0) up to pi."""
    return min(2 * PI / n_nodes * (n_nodes / 2) ** cells, PI)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_nodes=st.integers(16, 2048),
       ratio=st.integers(1, 16), cells=st.floats(0.0, 1.0))
def test_grid_filter_matches_the_multiplier_on_the_interpolant(
        seed, n_nodes, ratio, cells):
    # The kernel route averages the interpolant exactly; the multiplier
    # route truncates its series at n = ratio * N.  They differ by the
    # series' tail past n, plus the rounding of both.
    rng = np.random.default_rng(seed)
    v = _jumps_and_spikes(rng, n_nodes)
    eps = _one_cell_to_pi(n_nodes, cells)
    n = ratio * n_nodes
    kernel = kernel_filter_grid(
        GridFunction(values=v, defined=np.ones(n_nodes, bool)), eps)
    seq = grid_coefficients(v, n)
    multiplier = partial_sum_grid(multiplier_filter(seq, eps), n_nodes)
    gap = np.max(np.abs(kernel.values - multiplier))
    assert gap <= _alias_tail_bound(v, n, eps) + _routes_rounding(v, seq)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_nodes=st.integers(16, 128),
       ratio=st.integers(1, 8), cells=st.floats(0.0, 1.0))
def test_arc_route_matches_the_kernel_and_multiplier_on_the_interpolant(
        seed, n_nodes, ratio, cells):
    # The arc route sums the same truncated series as the multiplier
    # route, so the two differ by rounding alone, and the arc route
    # differs from the kernel route by the tail past n and rounding.
    # Its own rounding: Horner's over the n primitive coefficients
    # c_k / k on |z| = 1, at most 4u per step (a complex multiply and
    # add), in each of two evaluations; the endpoints z = e^{i(theta +-
    # eps)} off by (2 pi + 2)u in angle, which moves the primitive by
    # that much times sum |c_k|; and the difference divided by 2 eps.
    rng = np.random.default_rng(seed)
    v = _jumps_and_spikes(rng, n_nodes)
    eps = _one_cell_to_pi(n_nodes, cells)
    n = ratio * n_nodes
    kernel = kernel_filter_grid(
        GridFunction(values=v, defined=np.ones(n_nodes, bool)), eps).values
    seq = grid_coefficients(v, n)
    multiplier = partial_sum_grid(multiplier_filter(seq, eps), n_nodes)
    w = from_coefficients(seq)
    arc = seq.a0 + np.array([arc_filter_eval(w, t, eps, rho=1.0).real
                             for t in grid_nodes(n_nodes)])
    u = np.finfo(float).eps / 2
    size = np.hypot(seq.a, seq.b)
    arc_rounding = u / eps * (
        (4 * n + 8) * np.sum(size / np.arange(1, n + 1))
        + (2 * PI + 2) * np.sum(size)) + 2 * u * abs(seq.a0)
    rounding = _routes_rounding(v, seq) + arc_rounding
    assert np.max(np.abs(arc - multiplier)) <= rounding
    assert np.max(np.abs(arc - kernel)) <= \
        _alias_tail_bound(v, n, eps) + rounding


def test_grid_filter_spreads_undefined_nodes():
    n = 16
    defined = np.ones(n, bool)
    defined[5] = False
    g = GridFunction(values=np.zeros(n), defined=defined)
    h = 2 * PI / n
    out = kernel_filter_grid(g, 1.5 * h)
    bad = np.where(~out.defined)[0]
    assert list(bad) == [3, 4, 5, 6, 7]


@pytest.mark.parametrize("q", [2.5, 2.0])
def test_grid_filter_mask_reaches_floor_q_plus_one_nodes(q):
    # At integer q the outermost nodes carry no weight but still count.
    n = 32
    defined = np.ones(n, bool)
    holes = np.array([5, 6, 20])
    defined[holes] = False
    g = GridFunction(values=np.where(defined, 1.0, np.nan), defined=defined)
    out = kernel_filter_grid(g, q * 2 * PI / n)
    i = np.arange(n)[:, None]
    gap = np.abs(i - holes[None, :])
    near = np.minimum(gap, n - gap).min(axis=1) <= math.floor(q) + 1
    assert np.array_equal(out.defined, ~near)
    assert np.all(out.values[out.defined] == pytest.approx(1.0, abs=1e-15))


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("q", [1.5, 7.25, 40.5, 300.5])
def test_grid_filter_keeps_full_precision_on_large_grids(q, offset):
    # Away from its two jumps the average of a +-1.1 square wave is the
    # wave itself.  The running sum under it reaches 3.6e4, whose
    # uncompensated rounding alone would cost ~1e-12; without the mean
    # taken out, the offset would cost two of its ulps.
    n = 2 ** 16
    i = np.arange(n)
    v = offset + np.where(i < n // 2, 1.1, -1.1)
    out = kernel_filter_grid(GridFunction(v, np.ones(n, bool)),
                             q * 2 * PI / n).values
    far = np.minimum(np.abs(i - n // 2), np.minimum(i, n - i)) > q + 1
    bound = 4 * np.finfo(float).eps * 1.1 + np.spacing(offset + 1.1)
    assert np.max(np.abs(out[far] - v[far])) <= bound


@pytest.mark.parametrize("n_nodes", [16, 128, 384])
def test_grid_filter_matches_interpolant_quadrature(rng, n_nodes):
    v = 3.0 * rng.standard_normal(n_nodes) + rng.uniform(-5.0, 5.0)
    g = GridFunction(values=v, defined=np.ones(n_nodes, bool))
    f = grid_evaluator(g)
    h = 2 * PI / n_nodes
    bound = 1e-12 * (1.0 + np.max(np.abs(v)))
    # Fractional widths across [1, N/2] cells, and the whole circle.
    for eps in [*(rng.uniform(1.0, n_nodes / 2, 3) * h), PI]:
        got = kernel_filter_grid(g, eps).values
        ref = np.array([kernel_filter_eval(f, t, eps) for t in g.thetas()])
        assert np.max(np.abs(got - ref)) <= bound, eps


@pytest.mark.parametrize("domain", [None, (0.0, 10.0)],
                         ids=["plain", "domain-tagged"])
@pytest.mark.parametrize("n_nodes", [16, 128, 384])
def test_grid_windows_match_interpolant_quadrature(rng, n_nodes, domain):
    # One window per centre, narrower than a cell, over data with holes.
    v = 3.0 * rng.standard_normal(n_nodes) + rng.uniform(-5.0, 5.0)
    defined = rng.uniform(size=n_nodes) > 0.1
    f = grid_evaluator(GridFunction(values=np.where(defined, v, np.nan),
                                    defined=defined, domain=domain))
    h = 2 * PI / n_nodes
    # Centres anywhere, and within a cell of the seam on both sides.
    thetas = np.concatenate([rng.uniform(-PI, PI, 150),
                             -PI + rng.uniform(0.0, h, 10),
                             PI - rng.uniform(0.0, h, 10)])
    eps = rng.uniform(0.01, 1.0, (1, thetas.size)) * h
    got = window_averages(f, thetas, eps)[0]
    ref = window_averages(replace(f, window_average=None), thetas, eps)[0]

    # A window has no average when any node in ceil(c - q) - 1 ..
    # floor(c + q) + 1 is undefined, c and q in cells; the seam of
    # interval data adds the windows that reach it.
    c, q = (thetas + PI) / h, eps[0] / h
    reads = [np.arange(math.ceil(a) - 1, math.floor(b) + 2) % n_nodes
             for a, b in zip(c - q, c + q)]
    undefined = np.array([not defined[r].all() for r in reads])
    if domain is not None:
        undefined |= (thetas - eps[0] <= -PI) | (thetas + eps[0] >= PI)
    assert np.array_equal(np.isnan(got), undefined)
    assert not np.isnan(ref[~undefined]).any()
    bound = 1e-12 * (1.0 + np.max(np.abs(v)))
    assert np.max(np.abs(got - ref)[~undefined]) <= bound


def test_grid_filter_masks_the_seam_by_the_whole_grid_rule(rng):
    # The seam mask of interval data tries only the nodes next to the
    # seam; it must mask exactly the nodes of the rule over the whole
    # grid, circle_distance(theta, pi) <= eps + h.  Half the reaches are
    # put exactly on a node's distance or one ulp short of it.
    on_node = 0
    for trial in range(400):
        n = int(rng.integers(2, 3000))
        h = 2 * PI / n
        dist = circle_distance(grid_nodes(n), PI)
        eps = rng.uniform(h, PI)
        if trial % 2:
            reach = dist[int(rng.integers(0, n))]
            near = [e for e in (reach - h, np.nextafter(reach - h, 0.0),
                                np.nextafter(reach - h, PI))
                    if e + h == reach and h < e <= PI]
            if not near:
                continue
            on_node += 1
            eps = near[0] if trial % 4 == 1 else np.nextafter(near[0], 0.0)
        grid = GridFunction(np.ones(n), np.ones(n, bool), domain=(0.0, 1.0))
        got = np.isnan(kernel_filter_grid(grid, eps).values)
        assert np.array_equal(got, dist <= eps + h), (n, eps)
    assert on_node >= 50


def _exact_interpolant_average(v, c, q):
    """Average of the periodic interpolant through v over the index
    window [c - q, c + q], in exact rational arithmetic."""
    n = v.size
    lo, hi = Fraction(c) - Fraction(q), Fraction(c) + Fraction(q)

    def at(x):
        i = math.floor(x)
        return Fraction(v[i % n]) * (1 - (x - i)) \
            + Fraction(v[(i + 1) % n]) * (x - i)

    ends = [lo, *range(math.floor(lo) + 1, math.ceil(hi)), hi]
    return sum((b - a) * (at(a) + at(b)) / 2
               for a, b in zip(ends[:-1], ends[1:])) / (2 * Fraction(q))


@pytest.mark.parametrize("n_nodes", [16, 384])
def test_narrow_grid_windows_are_exact(rng, n_nodes):
    # Windows down to 1e-8 cells, also centred within 1e-9 cells of a
    # node on either side, where a window inside one cell and one across
    # a node meet.  Quadrature is no reference here: its window's width
    # rounds by an ulp of the centre, which is 1e-8 of such a width.
    v = 3.0 * rng.standard_normal(n_nodes) + rng.uniform(-5.0, 5.0)
    defined = rng.uniform(size=n_nodes) > 0.1
    g = GridFunction(values=np.where(defined, v, np.nan), defined=defined)
    h = 2 * PI / n_nodes
    nodes = g.thetas()[rng.integers(0, n_nodes, 80)]
    thetas = np.concatenate([rng.uniform(-PI, PI, 40),
                             nodes + rng.uniform(-1e-9, 1e-9, 80) * h])
    eps = 10.0 ** rng.uniform(-8.0, 0.0, (1, thetas.size)) * h
    got = window_averages(grid_evaluator(g), thetas, eps)[0]

    c, q = (thetas + PI) / h, eps[0] / h
    reads = [np.arange(math.ceil(a) - 1, math.floor(b) + 2) % n_nodes
             for a, b in zip(c - q, c + q)]
    undefined = np.array([not defined[r].all() for r in reads])
    assert np.array_equal(np.isnan(got), undefined)
    ref = np.array([float(_exact_interpolant_average(v, a, b))
                    for a, b in zip(c[~undefined], q[~undefined])])
    bound = 1e-12 * (1.0 + np.max(np.abs(v)))
    assert np.max(np.abs(got[~undefined] - ref)) <= bound


def test_grid_filter_keeps_declarations_and_notes():
    g = GridFunction(values=np.zeros(8), defined=np.ones(8, bool),
                     singular_points=(0.25,), note="raw")
    out = kernel_filter_grid(g, 1.0)
    assert out.singular_points == (0.25,)
    assert "raw" in out.note and "filtered" in out.note


def test_grid_filter_needs_one_cell_of_width():
    g = GridFunction(values=np.zeros(8), defined=np.ones(8, bool))
    with pytest.raises(EpsilonBelowResolution):
        kernel_filter_grid(g, 0.1)


def test_grid_container_validation():
    with pytest.raises(DomainError):
        GridFunction(values=np.array([1.0]), defined=np.array([True]))
    with pytest.raises(DomainError):
        GridFunction(values=np.array([1.0, np.nan]),
                     defined=np.array([True, True]))
    g = GridFunction(values=np.array([1.0, np.inf]),
                     defined=np.array([True, False]))
    assert np.isnan(g.values[1])


# ------------------------------------------------------- grid interpolant

def test_grid_interpolant_is_exact_at_nodes_and_linear_between():
    nodes = grid_nodes(8)
    vals = np.arange(8.0)
    f = grid_evaluator(GridFunction(values=vals, defined=np.ones(8, bool)))
    assert f.sample(nodes) == pytest.approx(vals, abs=0.0)
    mid = nodes[2] + (nodes[3] - nodes[2]) / 2.0
    assert f(mid) == pytest.approx(2.5, abs=1e-12)


def test_grid_interpolant_wraps_and_masks():
    defined = np.array([True, True, False, True])
    f = grid_evaluator(GridFunction(values=np.array([1.0, 2.0, 9.0, 4.0]),
                                    defined=defined))
    assert math.isnan(f(grid_nodes(4)[2]))
    assert math.isnan(f(grid_nodes(4)[1] + 0.1))
    # theta = pi wraps onto the seam node.
    assert f(PI) == 1.0
    assert set(f.quadrature_pins) == set(grid_nodes(4))


# ----------------------------------------------------- shrinking windows

def test_extrapolation_picks_the_even_model_at_smooth_points():
    es = np.array([0.2, 0.1, 0.05, 0.025])
    value, corr = extrapolated_limit(es, 1.0 - es ** 2 / 6.0)
    assert value == pytest.approx(1.0, abs=1e-14)
    assert corr < 1e-12


def test_extrapolation_picks_the_odd_model_at_kinks():
    es = np.array([0.2, 0.1, 0.05, 0.025])
    value, _ = extrapolated_limit(es, 3.0 + es / 2.0)
    assert value == pytest.approx(3.0, abs=1e-13)


def test_extrapolation_raises_on_blowup():
    es = np.array([0.2, 0.1, 0.05, 0.025])
    with pytest.raises(NoConvergence):
        extrapolated_limit(es, 1.0 / es)


def test_filter_limit_recovers_smooth_values():
    f = EvaluatorFunction(rule=np.cos)
    value, residual = filter_limit(f, 0.0, eps_schedule=(0.2, 0.1, 0.05))
    assert value == pytest.approx(1.0, abs=1e-8)
    assert residual < 1e-6


def test_filter_limit_ignores_a_single_point_spike():
    def rule(th):
        return np.where(th == 0.5, 99.0, np.cos(th))

    f = EvaluatorFunction(rule=rule, quadrature_pins=(0.5,))
    value, _ = filter_limit(f, 0.5)
    assert value == pytest.approx(math.cos(0.5), abs=1e-8)


def test_filter_limit_at_jump_gives_the_midpoint():
    value, _ = filter_limit(SIGN_EVALUATOR, 0.0)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_filter_limit_validates_schedule():
    f = EvaluatorFunction(rule=np.cos)
    for bad in [(0.2, 0.1), (0.2, 0.2, 0.1), (0.2, 0.1, -0.05),
                (4.0, 0.2, 0.1), (np.nan, 0.1, 0.05), (0.2, np.nan, 0.05),
                (0.2, 0.1, np.nan)]:
        with pytest.raises(DomainError, match="shrinking-window schedule"):
            filter_limit(f, 0.0, eps_schedule=bad)


def test_filter_limit_names_a_non_integrable_point_in_its_window():
    # The pole at 0.15 lies inside only the widest window (0.2): the
    # failure keeps its reason instead of becoming a NoConvergence.
    f = EvaluatorFunction(rule=lambda th: 1.0 / (th - 0.15),
                          singular_points=(SingularPoint(0.15, False),))
    with pytest.raises(UndefinedHere, match="non-integrable singular point"):
        filter_limit(f, 0.0)


# ------------------------------------------------- derivative of averages

def test_derivative_limit_of_even_kink_is_zero():
    f = EvaluatorFunction(rule=np.abs, singular_points=(SingularPoint(0.0),))
    value, _ = filtered_derivative_limit(f, 0.0)
    assert value == 0.0


def test_derivative_limit_of_cosine():
    f = EvaluatorFunction(rule=np.cos)
    value, _ = filtered_derivative_limit(f, PI / 2)
    assert value == pytest.approx(-1.0, abs=1e-8)


def test_derivative_limit_of_sawtooth_inside_a_tooth():
    f = EvaluatorFunction(rule=lambda th: th,
                          singular_points=(SingularPoint(-PI),))
    value, _ = filtered_derivative_limit(f, 0.0)
    assert value == 1.0


def test_derivative_limit_blows_up_at_a_jump():
    with pytest.raises(NoConvergence):
        filtered_derivative_limit(SIGN_EVALUATOR, 0.0)


def test_derivative_limit_refuses_singular_window_endpoints():
    f = EvaluatorFunction(rule=np.cos, singular_points=(SingularPoint(0.0),))
    with pytest.raises(UndefinedHere):
        filtered_derivative_limit(f, 0.1, eps_schedule=(0.2, 0.1, 0.05))


def test_derivative_limit_refuses_valueless_window_endpoints():
    def rule(th):
        return np.where(np.abs(th) > 1.0, np.nan, th)

    f = EvaluatorFunction(rule=rule)
    with pytest.raises(UndefinedHere):
        filtered_derivative_limit(f, 0.9, eps_schedule=(0.2, 0.1, 0.05))
    assert filtered_derivative_limit(f, 0.0)[0] == 1.0


def test_kernel_filter_eval_refuses_an_interval_evaluator():
    f = EvaluatorFunction(rule=np.cos, domain=(0.0, 10.0))
    with pytest.raises(DomainError, match="needs a full-circle evaluator"):
        kernel_filter_eval(f, 1.0, 0.1)
