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


def test_integrand_is_finite_at_float_zeros_of_cos(monkeypatch):
    # Fifteen cycles whose phases all sit at the float nearest pi/2 at one
    # level: each cos**2 is about 4e-33, and the product of the others
    # underflows to 0. A gradient formed as the full product over one
    # factor (tan, or division by cos**2) would be 0/0 there.
    seen = {}

    def capture(func, lo, hi, rates, abs_tol):
        seen["func"] = func
        return np.zeros(len(rates)), np.zeros(len(rates))

    monkeypatch.setattr(spectral, "_integrate_columns", capture)
    level = 0.5
    times = np.full(15, math.pi / level)
    spectral.rsn_quadrature_value_and_grad(BAND.quadrature_twin(), 0.0, times)
    points = np.array([level, np.nextafter(level, 1.0), 0.25])
    vals = seen["func"](points, np.arange(16))
    assert vals.shape == (3, 16)
    assert np.all(np.isfinite(vals))
    assert np.all(vals[:2] == 0.0)
    # one column alone, as a refining column is evaluated, gives its bits
    np.testing.assert_array_equal(seen["func"](points, np.array([5]))[:, 0], vals[:, 5])


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

