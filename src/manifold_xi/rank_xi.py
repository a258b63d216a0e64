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

from .errors import InvalidInputError, TieError
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
    if y.shape[0] < 2:
        raise InvalidInputError(f"need at least 2 responses, got {y.shape[0]}")
    if not np.isfinite(y).all():
        raise InvalidInputError("response contains non-finite values")
    return y


def _validate_pair(x, y, min_n: int, strict: bool = False) -> tuple[PointCloud, np.ndarray]:
    """Validate paired predictors and responses of equal length ``n >= min_n``."""
    cloud = as_point_cloud(x, strict=strict)
    y = _validate_response(y)
    n = cloud.n
    if y.shape[0] != n:
        raise InvalidInputError(f"length mismatch: {n} points vs {y.shape[0]} responses")
    if n < min_n:
        raise InvalidInputError(f"need n >= {min_n}, got {n}")
    return cloud, y


def compute_ranks(y, strict: bool = False) -> np.ndarray:
    """Counting ranks ``R_i = #{j : y_j <= y_i}`` (values in ``1..n``).

    Tied responses all receive the maximal shared rank, which is the
    graceful degradation of the counting definition.  With ``strict=True``
    exact ties raise :class:`TieError` instead.

    >>> compute_ranks([10.0, -3.0, 5.5]).tolist()
    [3, 1, 2]
    """
    y = _validate_response(y)
    order = np.sort(y)
    ranks = np.searchsorted(order, y, side="right").astype(np.int64)
    if strict and np.unique(y).shape[0] < y.shape[0]:
        raise TieError("response contains exact ties")
    return ranks


def xi_n(x, y, method: str = "auto", strict: bool = False) -> XiStatistic:
    """Evaluate the coefficient on predictors ``x`` and responses ``y``.

    Parameters
    ----------
    x : (n, d) array_like or PointCloud
        Predictor rows; a 1-D array is treated as a single column.
    y : (n,) array_like
        Responses, same length.
    method : {"auto", "brute", "tree"}
        Nearest-neighbor construction, see :func:`build_nn_graph`.
    strict : bool
        Reject duplicate predictor rows and tied responses.

    Notes
    -----
    Requires ``n >= 3``.  Distance ties break toward the smallest index,
    so the value is deterministic on any input.
    """
    cloud, y = _validate_pair(x, y, min_n=3, strict=strict)
    n = cloud.n
    graph = build_nn_graph(cloud, method=method, strict=strict)
    ranks = compute_ranks(y, strict=strict)
    rank_sum = int(np.minimum(ranks, ranks[graph.nn_index]).sum())
    value = 6.0 * rank_sum / (n * n - 1.0) - (2.0 * n + 1.0) / (n - 1.0)
    return XiStatistic(value=value, n=n)


def min_kernel_moments(samples: int, seed: int = 0) -> KernelMoments:
    """Estimate the minimum-kernel moments from independent uniform triples.

    Draws ``(U_i, U_j, U_k)`` i.i.d. uniform, forms ``A = 6*min(U_i,U_j)-2``
    and ``A' = 6*min(U_i,U_k)-2``, and returns the sample mean of ``A``,
    of ``A^2``, and of ``A*A'``.  The exact values are 0, 2, and 4/5.
    """
    if samples < 10**4:
        raise InvalidInputError(f"samples must be >= 1e4, got {samples}")
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
