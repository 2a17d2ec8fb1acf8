"""The band objective's value and gradient in one integration, and the
chain rule that carries it to the search's genes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rodeo_sched import BandModel, rsn_closed_form_batch
from rodeo_sched import spectral
from rodeo_sched.optimize import _CountingObjective

BAND = BandModel(0.1, 1.0)
T0 = math.pi / BAND.delta_min
# Central-difference step of the closed-form oracle. Measured before
# this tolerance was set: over 900 random schedules (N <= 8, totals of
# 0.5 to 3 T0, a third with a zero time), the gradient and the central
# differences at h = 1e-5 differed by at most 5.0e-11 (1e-3: 2.3e-8;
# 1e-4: 1.7e-10). The integrator closes each column at 1e-10 absolute.
STEP = 1e-5
GRAD_ATOL = 1e-9
# genes of the chain-rule test on the band: squares summing to 15.21
GENES = np.array([2.0, 1.2, 3.1, 0.4])

schedules = st.tuples(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda s: sum(s) > 0),
    st.floats(0.5, 3.0))


def _times(shares, multiple):
    shares = np.array(shares)
    return multiple * T0 * shares / shares.sum()


def _central_differences(times):
    steps = STEP * np.eye(len(times))
    up = rsn_closed_form_batch(BAND, times[:, None] + steps)
    down = rsn_closed_form_batch(BAND, times[:, None] - steps)
    return (up - down) / (2.0 * STEP)


@settings(max_examples=60, deadline=None)
@given(schedules)
def test_gradient_matches_central_differences_of_the_closed_form(schedule):
    times = _times(*schedule)
    value, grad = BAND.objective().value_and_grad(times)
    assert grad.shape == times.shape
    np.testing.assert_allclose(grad, _central_differences(times), rtol=0, atol=GRAD_ATOL)
    np.testing.assert_allclose(value, rsn_closed_form_batch(BAND, times[:, None])[0],
                               rtol=1e-8)


@settings(max_examples=60, deadline=None)
@given(schedules)
def test_value_column_is_the_one_column_objective_call(schedule):
    times = _times(*schedule)
    objective = BAND.objective()
    value, _ = objective.value_and_grad(times)
    assert value == objective(times[:, None])[0]


def test_zero_times_have_a_zero_gradient():
    times = np.array([0.0, 12.0, 0.0, 7.5])
    _, grad = BAND.objective().value_and_grad(times)
    assert np.all(np.isfinite(grad))
    assert grad[0] == 0.0 and grad[2] == 0.0
    np.testing.assert_allclose(grad, _central_differences(times), rtol=0, atol=GRAD_ATOL)


def _integrand(monkeypatch, times):
    """The integrand ``func(points, cols)`` that rsn_quadrature_value_and_grad
    hands the integrator for ``times`` on the band's twin (target 0)."""
    seen = {}

    def capture(func, lo, hi, rates, abs_tol):
        seen["func"] = func
        return np.zeros(len(rates)), np.zeros(len(rates))

    monkeypatch.setattr(spectral, "_integrate_columns", capture)
    spectral.rsn_quadrature_value_and_grad(BAND.quadrature_twin(), 0.0, times)
    return seen["func"]


def test_integrand_is_finite_at_float_zeros_of_cos(monkeypatch):
    # Fifteen cycles whose phases all sit at the float nearest pi/2 at one
    # level: each cos**2 is about 4e-33, and the full product underflows
    # to 0. Dividing it by one cycle's cos**2 would be 0/0 there; the
    # gradient multiplies it by -d tan x instead, and tan of a double is
    # finite (about 1.6e16 at the float nearest pi/2), so it reads 0.
    level = 0.5
    func = _integrand(monkeypatch, np.full(15, math.pi / level))
    points = np.array([level, np.nextafter(level, 1.0), 0.25])
    vals = func(points, np.arange(16))
    assert vals.shape == (3, 16)
    assert np.all(np.isfinite(vals))
    assert np.all(vals[:2] == 0.0)
    # one column alone, as a refining column is evaluated, gives its bits
    np.testing.assert_array_equal(func(points, np.array([5]))[:, 0], vals[:, 5])


def _phase_points(t):
    """Levels of the band at which phase (level / 2) t is the double next to
    k pi or (k + 1/2) pi, with their two float neighbours on each side."""
    points = []
    for m in np.arange(1, 2.0 * t / math.pi) / 2:  # multiples of pi/2
        level = 2.0 * m * math.pi / t
        if BAND.delta_min <= level <= BAND.delta_max:
            below, above = np.nextafter(level, 0.0), np.nextafter(level, 2.0)
            points += [np.nextafter(below, 0.0), below, level, above, np.nextafter(above, 2.0)]
    return points


def test_gradient_integrand_matches_mpmath_next_to_zeros_of_sin_and_cos(monkeypatch):
    # Each gradient entry against -density d sin x_n cos x_n
    # prod_{m != n} cos**2 x_m at 40 digits, with x_m the double phase
    # (d / 2) t_m the kernel rounds to. Random schedules, some with zero
    # times, at levels that put one cycle next to a zero of sin or of cos.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(8):
        times = rng.uniform(0.0, 40.0, rng.integers(2, 11))
        times[rng.random(len(times)) < 0.25] = 0.0
        func = _integrand(monkeypatch, times)
        points = np.array([p for t in times[times > 0] for p in _phase_points(t)])
        grad = func(points, np.arange(1, len(times) + 1))
        density = BAND.quadrature_twin().density_values(points)
        with mpmath.workdps(40):
            for row, d in enumerate(points):
                phases = [mpmath.mpf(float(x)) for x in 0.5 * d * times]
                squares = [mpmath.cos(x) ** 2 for x in phases]
                for n, x in enumerate(phases):
                    rest = mpmath.fprod(squares[:n] + squares[n + 1:])
                    exact = -density[row] * d * mpmath.sin(x) * mpmath.cos(x) * rest
                    assert abs(grad[row, n] - exact) <= 1e-13 * abs(exact), (times, d, n)
                    checked += 1
    assert checked > 500


class _Smooth:
    """A smooth stand-in objective with an exact gradient, to test the
    chain rule alone."""

    weights = np.array([0.3, -1.1, 0.7, 0.2])

    def __call__(self, tm):
        return self.weights @ np.sin(tm) + 0.01 * tm.sum(axis=0) ** 2

    def value_and_grad(self, t):
        return (float(self(t[:, None])[0]),
                self.weights * np.cos(t) + 0.02 * t.sum())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.05, 3.0), min_size=4, max_size=4), st.floats(0.5, 40.0))
def test_chain_rule_matches_differences_of_the_gene_objective(genes, t_limit):
    # covers schedules under the budget and over it (rescaled onto it),
    # away from the budget's kink
    genes = np.array(genes)
    assume(abs(genes @ genes - t_limit) > 1e-3 * t_limit)
    counter = _CountingObjective(_Smooth(), t_limit)
    value, grad = counter.value_and_grad(genes)
    h = 1e-6
    steps = h * np.eye(len(genes))
    fd = (counter(genes[:, None] + steps) - counter(genes[:, None] - steps)) / (2 * h)
    assert value == counter(genes[:, None])[0]
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("t_limit", [4.0, 400.0])
def test_chain_rule_on_the_band_objective(t_limit):
    # against the gene objective's differences on the closed form, over
    # the budget and under it
    _, grad = _CountingObjective(BAND.objective(), t_limit).value_and_grad(GENES)
    closed = _CountingObjective(lambda tm: rsn_closed_form_batch(BAND, tm), t_limit)
    steps = STEP * np.eye(len(GENES))
    fd = (closed(GENES[:, None] + steps) - closed(GENES[:, None] - steps)) / (2 * STEP)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=GRAD_ATOL)

