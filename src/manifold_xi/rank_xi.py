"""Ranks, the graph-based correlation coefficient, and its moment oracle.

For predictors ``x_1..x_n`` (any dimension) and responses ``y_1..y_n``,
let ``R_i = #{j : y_j <= y_i}``, ``L_i = #{j : y_j >= y_i}`` and let
``N(i)`` index the nearest neighbor of ``x_i``.  With the exact integer
``S = sum_i min(R_i, R_N(i))``, the coefficient is the tie-robust form of
Chatterjee (2021) and Azadkia & Chatterjee (2021),

    T_n = (n * S - sum_i L_i^2) / sum_i L_i (n - L_i),

which without ties is computed as ``xi_n = 6 S / (n^2 - 1) - (2n + 1) /
(n - 1)``, the same value in exact arithmetic.  Under independence it is
centered near zero; when ``y`` is a function of ``x`` it approaches one.
A constant ``y`` makes it undefined and is refused.  Only this module
assembles it (sample, NN graph, rank sum), for :func:`xi_n` and for the
tests of :mod:`manifold_xi.dep_tests`, on one sample per replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, TieError, as_real_array, check_int
from .nn_graph import PointCloud, as_point_cloud, build_nn_graph
from .nn_graph import _nn_argmin, _pairwise_sqdist, _prescaled
from .rngs import substream


@dataclass(frozen=True)
class XiStatistic:
    """The coefficient ``value`` of a sample of ``n`` pairs (see :func:`xi_n`)."""

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


def compute_ranks(y) -> np.ndarray:
    """Counting ranks ``R_i = #{j : y_j <= y_i}`` (values in ``1..n``).

    This is the one check of a response: it must be 1-D, hold at least two
    values and be real and finite.  Tied responses share their largest
    rank, so ``np.bincount(ranks)[ranks]`` is the size of each response's
    tie group.  The ranks are found on the sorted values, where each binary
    search starts near the last, and scattered back through one ``argsort``.

    >>> compute_ranks([10.0, -3.0, 5.5]).tolist()
    [3, 1, 2]
    """
    y = as_real_array("response", y)
    if y.ndim != 1:
        raise InvalidInputError(f"response must be 1-D, got ndim={y.ndim}")
    check_int("number of responses", y.shape[0], 2)
    if not np.isfinite(y).all():
        raise InvalidInputError("response contains non-finite values")
    order = np.argsort(y)
    ordered = y[order]
    ranks = np.empty(y.shape[0], dtype=np.int64)
    ranks[order] = np.searchsorted(ordered, ordered, side="right")
    return ranks


@dataclass
class _Sample:
    """A validated pair, its ranks and tie-group sizes, for every test on it;
    ``sqdist`` (read-only) is the :func:`_pairwise_sqdist` of the cloud."""

    cloud: PointCloud
    y: np.ndarray
    ranks: np.ndarray
    sizes: np.ndarray
    sqdist: np.ndarray | None = None
    nn: np.ndarray | None = None


def _xi_sample(x, y, xi: bool = True, dcor: bool = False) -> _Sample:
    """Validate a pair of equal length for the coefficient if ``xi`` (``n >=
    3``, a constant response refused) and for dcor if ``dcor`` (``n >= 4``);
    for both, the sample carries the distance matrix they share."""
    cloud = as_point_cloud(x)
    y = as_real_array("response", y)
    ranks = compute_ranks(y)  # takes the float array without a copy
    if y.shape[0] != cloud.n:
        raise InvalidInputError(f"length mismatch: {cloud.n} points vs {y.shape[0]} responses")
    check_int("n", cloud.n, 4 if dcor else 3)
    sizes = np.bincount(ranks)[ranks]
    if xi and sizes[0] == sizes.shape[0]:
        raise DegenerateInputError("constant response: the coefficient is undefined")
    sqdist = _pairwise_sqdist(_prescaled(cloud.points)[0]) if xi and dcor else None
    return _Sample(cloud, y, ranks, sizes, sqdist)


def _xi_statistic(sample: _Sample) -> tuple[np.ndarray, int, float]:
    """The NN index of a sample, built once (the kd-tree graph, or bit for bit
    the :func:`_nn_argmin` of its matrix), the rank sum ``S = sum_i min(R_i,
    R_N(i))`` and the coefficient: ``xi_n`` without ties, ``T_n`` with them."""
    if sample.nn is None:
        sample.nn = (build_nn_graph(sample.cloud).nn_index if sample.sqdist is None
                     else _nn_argmin(sample.sqdist))
    ranks, sizes, nn = sample.ranks, sample.sizes, sample.nn
    n = ranks.shape[0]
    rank_sum = int(np.minimum(ranks, ranks[nn]).sum())
    if sizes.max() == 1:
        return nn, rank_sum, 6.0 * rank_sum / (n * n - 1.0) - (2.0 * n + 1.0) / (n - 1.0)
    upper = (n - ranks + sizes).astype(float)  # L_i = #{j : y_j >= y_i}
    return nn, rank_sum, float((n * rank_sum - upper @ upper) / (upper @ (n - upper)))


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
    Requires ``n >= 3`` and a response that is not constant
    (:class:`DegenerateInputError`).  Tied responses give the tie-robust
    ``T_n`` of the module docstring.  The graph is the exact kd-tree one of
    :func:`build_nn_graph` for every ``n`` and ``d``; distance ties break
    toward the smallest index, so the value is deterministic on any input.
    """
    sample = _xi_sample(x, y)
    if strict:
        sample.cloud.require_distinct()
        if sample.sizes.max() > 1:
            raise TieError("response contains exact ties")
    return XiStatistic(value=_xi_statistic(sample)[2], n=sample.cloud.n)


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
