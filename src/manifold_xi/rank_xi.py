"""Ranks, the graph-based correlation coefficient, and its moment oracle.

For predictors ``x_1..x_n`` (any dimension) and responses ``y_1..y_n``,
let ``R_i = #{j : y_j <= y_i}`` and let ``N(i)`` index the nearest
neighbor of ``x_i``.  The coefficient is

    xi_n = 6 / (n^2 - 1) * sum_i min(R_i, R_N(i))  -  (2n + 1) / (n - 1).

Under independence it is centered near zero; when ``y`` is a function of
``x`` it approaches one.  The rank sum is accumulated in exact integer
arithmetic; a single floating-point division produces the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, TieError, check_int
from .nn_graph import PointCloud, as_point_cloud, build_nn_graph
from .rngs import substream


@dataclass(frozen=True)
class XiStatistic:
    value: float
    n: int


@dataclass(frozen=True)
class KernelMoments:
    """Monte-Carlo moments of the centered minimum kernel ``6*min(U, V) - 2``
    on independent uniforms: its mean, second moment, and the cross moment
    of two kernels sharing one argument."""

    mean: float
    second_moment: float
    cross_moment: float
    samples: int


def _validate_response(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InvalidInputError(f"response must be 1-D, got ndim={y.ndim}")
    check_int("number of responses", y.shape[0], 2)
    if not np.isfinite(y).all():
        raise InvalidInputError("response contains non-finite values")
    return y


def _validate_pair(x, y, min_n: int) -> tuple[PointCloud, np.ndarray]:
    """Validate paired predictors and responses of equal length ``n >= min_n``."""
    cloud = as_point_cloud(x)
    y = _validate_response(y)
    if y.shape[0] != cloud.n:
        raise InvalidInputError(f"length mismatch: {cloud.n} points vs {y.shape[0]} responses")
    check_int("n", cloud.n, min_n)
    return cloud, y


def compute_ranks(y) -> np.ndarray:
    """Counting ranks ``R_i = #{j : y_j <= y_i}`` (values in ``1..n``).

    Tied responses all receive the maximal shared rank, which is the
    graceful degradation of the counting definition.

    >>> compute_ranks([10.0, -3.0, 5.5]).tolist()
    [3, 1, 2]
    """
    y = _validate_response(y)
    order = np.sort(y)
    return np.searchsorted(order, y, side="right").astype(np.int64)


def _xi_from_ranks(ranks: np.ndarray, nn: np.ndarray) -> tuple[int, float]:
    """Exact rank sum ``sum_i min(R_i, R_N(i))`` and the coefficient it gives."""
    n = ranks.shape[0]
    rank_sum = int(np.minimum(ranks, ranks[nn]).sum())
    return rank_sum, 6.0 * rank_sum / (n * n - 1.0) - (2.0 * n + 1.0) / (n - 1.0)


def xi_n(x, y, strict: bool = False) -> XiStatistic:
    """Evaluate the coefficient on predictors ``x`` and responses ``y``.

    Parameters
    ----------
    x : (n, d) array_like or PointCloud
        Predictor rows; a 1-D array is treated as a single column.
    y : (n,) array_like
        Responses, same length.
    strict : bool
        Raise :class:`DuplicatePointsError` on duplicate predictor rows and
        :class:`TieError` on tied responses instead of resolving the ties.

    Notes
    -----
    Requires ``n >= 3``.  The graph is the exact kd-tree one of
    :func:`build_nn_graph` for every ``n`` and ``d``; distance ties break
    toward the smallest index, so the value is deterministic on any input.
    """
    cloud, y = _validate_pair(x, y, min_n=3)
    if strict:
        cloud.require_distinct()
        if np.unique(y).shape[0] < y.shape[0]:
            raise TieError("response contains exact ties")
    graph = build_nn_graph(cloud)
    _, value = _xi_from_ranks(compute_ranks(y), graph.nn_index)
    return XiStatistic(value=value, n=cloud.n)


def min_kernel_moments(samples: int, seed: int = 0) -> KernelMoments:
    """Estimate the minimum-kernel moments from independent uniform triples.

    Draws ``(U_i, U_j, U_k)`` i.i.d. uniform, forms ``A = 6*min(U_i,U_j)-2``
    and ``A' = 6*min(U_i,U_k)-2``, and returns the sample mean of ``A``,
    of ``A^2``, and of ``A*A'``.  The exact values are 0, 2, and 4/5.
    """
    check_int("samples", samples, 10**4)
    rng = substream(seed)
    u_i = rng.random(samples)
    u_j = rng.random(samples)
    u_k = rng.random(samples)
    a_ij = 6.0 * np.minimum(u_i, u_j) - 2.0
    a_ik = 6.0 * np.minimum(u_i, u_k) - 2.0
    return KernelMoments(
        mean=float(a_ij.mean()),
        second_moment=float((a_ij * a_ij).mean()),
        cross_moment=float((a_ij * a_ik).mean()),
        samples=samples,
    )
