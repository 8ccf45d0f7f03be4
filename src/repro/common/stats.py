"""Statistics helpers shared by the evaluation harness and the paper figures.

The paper reports three families of numbers, all implemented here:

* **Pearson correlation** between predicted cost and actual runtime;
* **median / 95th-percentile error** of predictions, in percent, defined as
  ``|predicted - actual| / actual * 100`` (the relative-error convention used
  throughout the paper's tables);
* **CDFs of the estimated/actual ratio** (Figures 1, 11-13, 15), where the
  ideal curve is a step at ratio 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


def pearson(x: np.ndarray | list[float], y: np.ndarray | list[float]) -> float:
    """Pearson correlation coefficient; 0.0 when either side is constant."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        return 0.0
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    denom = float(np.sqrt((xd * xd).sum() * (yd * yd).sum()))
    if denom < _EPS:
        return 0.0
    return float((xd * yd).sum() / denom)


def error_ratio(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Per-sample ratio ``predicted / actual``, guarding against zero actuals."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    return (predicted + _EPS) / (actual + _EPS)


def relative_error_pct(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Per-sample relative error ``|p - a| / a`` in percent."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    return np.abs(predicted - actual) / (np.abs(actual) + _EPS) * 100.0


def median_error_pct(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Median relative error in percent (the paper's "median error")."""
    errors = relative_error_pct(predicted, actual)
    if errors.size == 0:
        return float("nan")
    return float(np.median(errors))


def percentile_error_pct(predicted: np.ndarray, actual: np.ndarray, q: float) -> float:
    """q-th percentile of relative error in percent (e.g. q=95)."""
    errors = relative_error_pct(predicted, actual)
    if errors.size == 0:
        return float("nan")
    return float(np.percentile(errors, q))


def percentile(values: np.ndarray | list[float], q: float) -> float:
    """Plain percentile with NaN for empty input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class Cdf:
    """Empirical CDF of a sample, evaluated on a fixed grid.

    Attributes:
        grid: x-axis values (sorted ascending).
        fractions: fraction of samples ``<= grid[i]``.
    """

    grid: tuple[float, ...]
    fractions: tuple[float, ...]

    @classmethod
    def of(cls, values: np.ndarray | list[float], grid: np.ndarray | None = None) -> "Cdf":
        """Build a CDF; by default the grid is log-spaced from 1e-3 to 1e3.

        That default matches the x-axis of the paper's estimated/actual ratio
        plots (Figures 1 and 11-13).
        """
        arr = np.sort(np.asarray(values, dtype=float))
        if grid is None:
            grid = np.logspace(-3, 3, 61)
        grid = np.asarray(grid, dtype=float)
        if arr.size == 0:
            fractions = np.zeros_like(grid)
        else:
            fractions = np.searchsorted(arr, grid, side="right") / arr.size
        return cls(tuple(float(g) for g in grid), tuple(float(f) for f in fractions))

    def at(self, x: float) -> float:
        """Fraction of samples <= x (interpolated on the grid)."""
        return float(np.interp(x, self.grid, self.fractions))

    def central_mass(self, low: float = 0.5, high: float = 2.0) -> float:
        """Fraction of samples whose ratio lies within [low, high].

        A scalar summary of "how close to the ideal vertical line" a ratio
        CDF is; used by tests to compare models without plotting.
        """
        return self.at(high) - self.at(low)


def geometric_partition_samples(max_value: int, skip_coefficient: float) -> list[int]:
    """The paper's geometric partition-count sampler (Section 5.3).

    Samples follow ``x_{i+1} = ceil(x_i + x_i / s)`` with ``x_0 = 1`` and
    ``x_1 = 2``; a larger ``s`` yields a denser (more expensive) sweep.
    """
    if max_value < 1:
        raise ValueError("max_value must be >= 1")
    if skip_coefficient <= 0:
        raise ValueError("skip_coefficient must be positive")
    samples = [1]
    if max_value >= 2:
        samples.append(2)
    while samples[-1] < max_value:
        nxt = int(np.ceil(samples[-1] + samples[-1] / skip_coefficient))
        if nxt <= samples[-1]:
            nxt = samples[-1] + 1
        samples.append(min(nxt, max_value))
        if samples[-1] == max_value:
            break
    return samples
