"""Windowed dynamic-weight-average loss scheduling for multi-task training.

Task weights follow the softmaxed ratio of recent loss descent rates: with
window size b, the rate of task k at iteration i is

    w_k = sum_{j=1..b} L_k(i-j) / sum_{j=b+1..2b} L_k(i-j)

and the weights are lambda_k = softmax(w_k / Temp) * K, so they always sum
to the task count K.  b = 1 reduces to the plain two-batch ratio
L_k(i-1) / L_k(i-2); larger windows smooth out local trends from batches of
uneven tree size.  Until 2b losses per task have been observed the weights
stay uniform (warm-up).

One scheduler instance belongs to one training loop (single writer);
reading the current weights is safe from anywhere.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .core import DimensionMismatch, RstError

__all__ = [
    "DwaScheduler",
    "NonPositiveLoss",
    "NaNLoss",
    "DimensionMismatch",
    "total_loss",
    "simulate",
    "DEFAULT_WINDOW",
    "DEFAULT_TEMPERATURE",
]

# Defaults for tree-batched parser training: 12 steps of history per side
# of the ratio (24 suits corpora trained with larger batches of small
# trees) and a softening temperature of 2.
DEFAULT_WINDOW = 12
DEFAULT_TEMPERATURE = 2.0


class NonPositiveLoss(RstError):
    """Losses must be strictly positive to form descent-rate ratios."""


class NaNLoss(RstError):
    """A loss value is NaN or infinite."""


class DwaScheduler:
    """Tracks per-task loss history and produces the current task weights.

    ``update`` consumes the losses of one optimizer step and returns the
    weights to apply to that step's total loss; history units are optimizer
    steps, so the window is measured in steps.
    """

    def __init__(
        self,
        num_tasks: int = 3,
        window: int = DEFAULT_WINDOW,
        temperature: float = DEFAULT_TEMPERATURE,
    ) -> None:
        if num_tasks < 2:
            raise DimensionMismatch("need at least two tasks")
        if window < 1:
            raise RstError("window size must be >= 1")
        if not temperature > 0.0:
            raise RstError("temperature must be > 0")
        self.num_tasks = num_tasks
        self.window = window
        self.temperature = temperature
        # history[k][0] is the most recent loss of task k; length <= 2b.
        self.history: list[deque[float]] = [
            deque(maxlen=2 * window) for _ in range(num_tasks)
        ]
        self.iteration = 0

    def _validate(self, losses: Sequence[float]) -> list[float]:
        if len(losses) != self.num_tasks:
            raise DimensionMismatch(
                f"expected {self.num_tasks} losses, got {len(losses)}"
            )
        values = [float(x) for x in losses]
        for k, value in enumerate(values):
            if math.isnan(value) or math.isinf(value):
                raise NaNLoss(f"task {k} loss is not finite: {value}")
            if value <= 0.0:
                raise NonPositiveLoss(f"task {k} loss must be > 0, got {value}")
        return values

    def weights(self) -> np.ndarray:
        """Current weights from the stored history (uniform during warm-up)."""
        b = self.window
        if any(len(h) < 2 * b for h in self.history):
            return np.ones(self.num_tasks)
        rates = np.array(
            [
                sum(list(h)[0:b]) / sum(list(h)[b : 2 * b])
                for h in self.history
            ]
        )
        scaled = rates / self.temperature
        exp = np.exp(scaled - np.max(scaled))
        return (self.num_tasks * exp) / np.sum(exp)

    def update(self, losses: Sequence[float]) -> np.ndarray:
        """Weights for the current iteration; advances the history."""
        values = self._validate(losses)
        weights = self.weights()
        for k, value in enumerate(values):
            self.history[k].appendleft(value)
        self.iteration += 1
        return weights


def total_loss(losses: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted sum of task losses."""
    if len(losses) != len(weights):
        raise DimensionMismatch(
            f"{len(losses)} losses vs {len(weights)} weights"
        )
    return float(sum(w * l for w, l in zip(weights, losses)))


def simulate(
    loss_rows: Iterable[Sequence[float]],
    num_tasks: int = 3,
    window: int = DEFAULT_WINDOW,
    temperature: float = DEFAULT_TEMPERATURE,
) -> list[list[float]]:
    """Replay a loss log and return the weight trajectory, row per step."""
    scheduler = DwaScheduler(num_tasks, window, temperature)
    return [list(scheduler.update(row)) for row in loss_rows]
