"""The 1-D k-NN KL estimate and its fresh numpy target samples.

Criterion 08 scores the bias grid's encoded batches with this estimate
against fresh PCG64 draws of the target, as the grid once did, so its
figures stay those it was set with. The harness itself scores a batch
with ``reckit.bench.pit_kl``, which needs no fresh samples.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from reckit.distributions import Distribution1D
from reckit.errors import DomainError


def _kth_distance(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Distance from each query to its k-th nearest of the sorted ``points``.

    In one dimension the k nearest lie within k slots of the query's
    insertion point, so a window of k + 1 slots on either side holds them.
    """
    pos = np.searchsorted(points, queries)
    idx = pos[:, None] + np.arange(-(k + 1), k + 2)
    dist = np.abs(points[np.clip(idx, 0, len(points) - 1)] - queries[:, None])
    dist[(idx < 0) | (idx >= len(points))] = np.inf
    return np.sort(dist, axis=1)[:, k - 1]


def knn_kl_estimate(
    samples_p: Sequence[float], samples_q: Sequence[float], k: int = 1
) -> float:
    """1-D k-nearest-neighbour estimate of KL(P-hat || Q-hat) in nats.

    (1/n) sum log(nu_k / rho_k) + log(m / (n - 1)), with rho_k the k-NN
    distance within samples_p (self excluded) and nu_k the k-NN distance
    into samples_q. The estimate is not sign-constrained. Duplicate
    values would produce zero distances; they are perturbed by
    index-proportional 1e-12 offsets (with a warning) before querying.
    """
    x = np.asarray(samples_p, dtype=float)
    y = np.asarray(samples_q, dtype=float)
    n, m = len(x), len(y)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < k + 2:
        raise DomainError(
            f"samples_p needs at least k+2 = {k + 2} points for a self-excluded "
            f"k-th neighbour, got {n}"
        )
    if m < k + 1:
        raise DomainError(f"samples_q needs at least k+1 = {k + 1} points, got {m}")
    if len(np.unique(np.concatenate([x, y]))) < n + m:
        warnings.warn(
            "duplicate sample values; applying index-proportional 1e-12 jitter",
            stacklevel=2,
        )
        x = x + 1e-12 * np.arange(n)
        y = y + 1e-12 * math.sqrt(2.0) * np.arange(m)
    rho = _kth_distance(np.sort(x), x, k + 1)  # the nearest is the point itself
    nu = _kth_distance(np.sort(y), x, k)
    return float(np.mean(np.log(nu / rho)) + math.log(m / (n - 1)))


def fresh_target_samples(target: Distribution1D, seed: int, count: int) -> list[float]:
    """``count`` samples of ``target`` by inversion of numpy PCG64 uniforms."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [target.inv_cdf(u) for u in rng.random(count)]
