import math
import random
import re

import numpy as np
import pytest

from rstkit.core import RstError
from rstkit.dwa import (
    DEFAULT_TEMPERATURE,
    DEFAULT_WINDOW,
    DwaScheduler,
    simulate,
)

# High-precision reference for the b=1, Temp=1 example with histories
# L(i-1) = (4, 2, 1) and L(i-2) = (8, 2, 1): rates are (0.5, 1, 1) and
# lambda = 3 * exp(rate) / (exp(0.5) + 2e).  Frozen from a 50-digit
# mpmath evaluation.
LAMBDA_1 = 0.6980896128566958
LAMBDA_23 = 1.150955193571652


class TestUpdate:
    def test_constant_losses_give_exactly_uniform_weights(self):
        for b, temp, k in [(1, 1.0, 3), (4, 2.0, 3), (2, 0.5, 5)]:
            scheduler = DwaScheduler(num_tasks=k, window=b, temperature=temp)
            for _ in range(5 * b):
                weights = scheduler.update([3.0] * k)
            assert list(weights) == [1.0] * k

    def test_hand_evaluated_two_step_ratio(self):
        scheduler = DwaScheduler(num_tasks=3, window=1, temperature=1.0)
        assert list(scheduler.update([8.0, 2.0, 1.0])) == [1.0, 1.0, 1.0]
        assert list(scheduler.update([4.0, 2.0, 1.0])) == [1.0, 1.0, 1.0]
        weights = scheduler.update([1.0, 1.0, 1.0])
        assert weights[0] == pytest.approx(LAMBDA_1, abs=1e-12)
        assert weights[1] == pytest.approx(LAMBDA_23, abs=1e-12)
        assert weights[2] == pytest.approx(LAMBDA_23, abs=1e-12)
        # verify against an independent mpmath evaluation as well
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        denom = mpmath.e ** mpmath.mpf("0.5") + 2 * mpmath.e
        assert weights[0] == pytest.approx(
            float(3 * mpmath.e ** mpmath.mpf("0.5") / denom), abs=1e-15
        )

    def test_window_one_reproduces_two_batch_ratio_bit_exactly(self):
        rng = random.Random(3)
        stream = [[rng.uniform(0.1, 5.0) for _ in range(3)] for _ in range(40)]
        scheduler = DwaScheduler(num_tasks=3, window=1, temperature=DEFAULT_TEMPERATURE)
        for i, losses in enumerate(stream):
            weights = scheduler.update(losses)
            if i >= 2:
                rates = np.array(
                    [stream[i - 1][k] / stream[i - 2][k] for k in range(3)]
                )
                scaled = rates / DEFAULT_TEMPERATURE
                exp = np.exp(scaled - np.max(scaled))
                expected = (3 * exp) / np.sum(exp)
                assert np.array_equal(weights, expected)

    def test_weights_sum_to_task_count(self):
        rng = random.Random(9)
        for k in (2, 3, 7):
            scheduler = DwaScheduler(num_tasks=k, window=3, temperature=1.7)
            for _ in range(30):
                weights = scheduler.update([rng.uniform(0.01, 9.0) for _ in range(k)])
                assert abs(float(np.sum(weights)) - k) < 1e-12

    def test_high_temperature_flattens_weights(self):
        rng = random.Random(4)
        scheduler = DwaScheduler(num_tasks=3, window=2, temperature=1e6)
        for _ in range(20):
            weights = scheduler.update([rng.uniform(0.5, 4.0) for _ in range(3)])
        assert np.max(np.abs(weights - 1.0)) < 1e-5

    def test_per_task_scaling_leaves_weights_unchanged(self):
        rng = random.Random(5)
        stream = [[rng.uniform(0.1, 2.0) for _ in range(3)] for _ in range(30)]
        factors = [0.25, 3.0, 17.5]
        a = DwaScheduler(3, window=4, temperature=2.0)
        b = DwaScheduler(3, window=4, temperature=2.0)
        for losses in stream:
            wa = a.update(losses)
            wb = b.update([f * l for f, l in zip(factors, losses)])
            assert np.allclose(wa, wb, atol=1e-12)

    def test_warm_up_is_uniform_until_2b_observations(self):
        b = 3
        scheduler = DwaScheduler(num_tasks=2, window=b, temperature=1.0)
        rng = random.Random(6)
        for step in range(2 * b):
            weights = scheduler.update([rng.uniform(0.5, 2.0) for _ in range(2)])
            assert list(weights) == [1.0, 1.0], f"step {step} should be warm-up"
        assert [len(h) for h in scheduler.history] == [2 * b, 2 * b]
        weights = scheduler.update([1.0, 1.0])
        assert list(weights) != [1.0, 1.0]  # the weighted phase begins

    def test_windowing_reduces_weight_variance_on_noisy_stream(self):
        # Multiplicative i.i.d. noise around slowly moving loss levels.
        rng = random.Random(42)
        steps = 400
        stream = []
        for i in range(steps):
            base = [2.0 * math.exp(-i / 300), 1.0, 0.5 * math.exp(-i / 600)]
            stream.append([b * rng.lognormvariate(0.0, 0.3) for b in base])
        track = {}
        for b in (1, 12):
            scheduler = DwaScheduler(num_tasks=3, window=b, temperature=2.0)
            series = [float(scheduler.update(row)[0]) for row in stream]
            track[b] = np.var(series[24:])  # past both warm-ups
        assert track[12] < track[1]


class TestValidation:
    def test_non_positive_loss(self):
        scheduler = DwaScheduler(3)
        with pytest.raises(RstError, match=re.escape("task 1 loss must be > 0, got 0.0")):
            scheduler.update([1.0, 0.0, 2.0])
        with pytest.raises(RstError, match=re.escape("task 1 loss must be > 0, got -3.0")):
            scheduler.update([1.0, -3.0, 2.0])

    def test_nan_and_inf_losses(self):
        scheduler = DwaScheduler(3)
        with pytest.raises(RstError, match="task 1 loss is not finite: nan"):
            scheduler.update([1.0, float("nan"), 2.0])
        with pytest.raises(RstError, match="task 1 loss is not finite: inf"):
            scheduler.update([1.0, float("inf"), 2.0])

    def test_wrong_task_count(self):
        scheduler = DwaScheduler(3)
        with pytest.raises(RstError, match="expected 3 losses, got 2"):
            scheduler.update([1.0, 2.0])

    def test_constructor_validation(self):
        with pytest.raises(RstError, match="need at least two tasks"):
            DwaScheduler(num_tasks=1)
        with pytest.raises(Exception):
            DwaScheduler(window=0)
        with pytest.raises(Exception):
            DwaScheduler(temperature=0.0)

    def test_defaults_match_shipped_configuration(self):
        assert DEFAULT_WINDOW == 12
        assert DEFAULT_TEMPERATURE == 2.0


class TestTotalLoss:
    def test_weights_from_derived_update_sum_to_k(self):
        # the weighted total loss of equal unit losses is the task count
        scheduler = DwaScheduler(num_tasks=3, window=1, temperature=1.0)
        scheduler.update([8.0, 2.0, 1.0])
        scheduler.update([4.0, 2.0, 1.0])
        weights = scheduler.update([1.0, 1.0, 1.0])
        assert float(sum(weights)) == pytest.approx(3.0, abs=1e-12)


class TestSimulate:
    def test_trajectory_shape_and_warm_up(self):
        rows = [[1.0, 2.0, 3.0]] * 10
        trajectory = simulate(rows, num_tasks=3, window=2, temperature=1.0)
        assert len(trajectory) == 10
        assert trajectory[0] == [1.0, 1.0, 1.0]
        assert trajectory[-1] == [1.0, 1.0, 1.0]  # constant stream stays uniform
