"""Independence tests: asymptotic and permutation versions of the
rank/NN coefficient test, plus a distance-correlation permutation baseline.

The asymptotic test standardizes ``sqrt(n) * xi_n`` by the null standard
deviation for the known intrinsic dimension ``m`` and rejects in the right
tail: the coefficient's population value is zero exactly under
independence and positive under dependence, so all the power lives on the
right.  The permutation variants are exact-level fallbacks that need no
dimension at all.  Both xi tests take the coefficient, and the NN graph
under it, from :mod:`manifold_xi.rank_xi`, which alone assembles it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    InvalidInputError,
    TieError,
    check_choice,
    check_int,
    check_real,
)
from .nn_graph import _pairwise_sqdist, _prescaled
from .null_constants import NullConstants, default_null_constants
from .rank_xi import _validate_pair, _xi_sample, _xi_statistic
from .rngs import check_seed, substream

METHODS = ("xi_asymptotic", "xi_permutation", "dcor_permutation")
TAILS = ("right", "two_sided")  # rejection tails of the asymptotic test

DEFAULT_PERMUTATIONS = 199
MIN_PERMUTATIONS = 19  # the permutation tests' floor on B

_DCOR_BLOCK_ENTRIES = 2**17  # bound on (permutations x n x n) dcor scratch


@dataclass(frozen=True)
class TestResult:
    """Outcome of one independence test at level ``alpha``.

    ``z_score`` and ``m_used`` are set only by the asymptotic test;
    ``B`` and ``seed`` only by the permutation tests.  ``reject`` is
    exactly ``p_value <= alpha``.
    """

    method: str
    statistic: float
    p_value: float
    reject: bool
    alpha: float
    z_score: float | None = None
    m_used: int | None = None
    B: int | None = None
    seed: int | tuple | None = None


@dataclass(frozen=True)
class DistanceCorrelation:
    dcor2: float
    dcov2: float
    dvar_x: float
    dvar_y: float
    degenerate: bool


def _check_alpha(alpha: float) -> None:
    if not 0.0 < check_real("alpha", alpha, 0.0) < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")


def xi_test_asymptotic(x, y, m: int, alpha: float = 0.05,
                       constants: NullConstants | None = None,
                       tail: str = "right") -> TestResult:
    """Asymptotic test of independence for known intrinsic dimension ``m``.

    Computes ``z = sqrt(n) * xi_n / sigma(m)``.  The default is
    right-tailed (``p = Phi(-z)``): the population coefficient is zero
    exactly under independence and positive under dependence, so that is
    where the power lives.  ``tail="two_sided"`` (``p = 2 Phi(-|z|)``)
    instead rejects for large ``|z|``; use it to reproduce power studies
    whose thresholds were the two-sided normal critical values.
    ``constants`` defaults to the Monte-Carlo constants for ``m``
    (:func:`default_null_constants`): stored for ``m <= 10``, sampled
    once per process for a larger ``m``, which must be below 342.

    Raises
    ------
    InvalidInputError
        If ``x`` or ``y`` is malformed (checked before the constants) or
        ``constants`` are for another ``m``.
    DegenerateInputError
        If ``y`` is constant; the statistic is meaningless there.
    TieError
        If two responses are equal: ``sigma^2(m)`` assumes a continuous ``y``.
    """
    _check_alpha(alpha)
    check_int("m", m, 1)
    check_choice("tail", tail, TAILS)
    cloud, ranks, sizes = _xi_sample(x, y)
    if sizes.max() > 1:
        raise TieError("tied responses: sigma^2(m) needs a continuous y; use xi_permutation")
    if constants is None:
        constants = default_null_constants(m)
    elif constants.m != m:
        raise InvalidInputError(f"constants are for m={constants.m}, not m={m}")
    _, _, value = _xi_statistic(cloud, ranks, sizes)
    z = math.sqrt(cloud.n) * value / math.sqrt(constants.sigma2)
    # Phi(-z), not 1 - Phi(z): the difference cancels to 0 beyond z ~ 8.3.
    if tail == "right":
        p = float(special.ndtr(-z))
    else:
        p = 2.0 * float(special.ndtr(-abs(z)))
    return TestResult(method="xi_asymptotic", statistic=value, p_value=p,
                      reject=p <= alpha, alpha=alpha, z_score=z, m_used=m)


def xi_test_permutation(x, y, alpha: float = 0.05,
                        B: int = DEFAULT_PERMUTATIONS, seed=0, *,
                        _stop_at_decision: bool = False) -> TestResult:
    """Permutation test on the coefficient, graph built once.

    The NN graph depends only on ``x``, so each of the ``B`` permutations
    just shuffles a copy of the rank vector in one reused buffer
    (``rng.shuffle``, the same values as ``rng.permuted(ranks)`` and
    ``ranks[rng.permutation(n)]``).  The comparison runs on the exact
    integer rank sums, and ``p = (1 + #{b : xi_b >= xi_obs}) / (B + 1)``,
    so p-values live on the lattice ``{1/(B+1), ..., 1}``.  On tied
    responses the statistic is ``T_n`` (see :mod:`manifold_xi.rank_xi`),
    which is increasing in the rank sum, so the p-value is the same.  A
    constant response raises :class:`DegenerateInputError`.

    Every call draws all ``B`` permutations and returns the exact p-value.
    Only the simulation harness, which reads nothing but ``reject``, asks
    (through a private argument) to stop once the decision not to reject is
    fixed; it then gets ``reject=False`` and a lower bound above ``alpha``
    as the p-value, so its rejection counts are the full-``B`` ones.
    """
    _check_alpha(alpha)
    check_int("B", B, MIN_PERMUTATIONS)
    rng = substream(seed)
    cloud, ranks, sizes = _xi_sample(x, y)
    nn, observed, value = _xi_statistic(cloud, ranks, sizes)
    exceed, shuffled = 0, np.empty_like(ranks)
    for _ in range(B):
        if _stop_at_decision and (1.0 + exceed) / (B + 1.0) > alpha:
            break
        np.copyto(shuffled, ranks)
        rng.shuffle(shuffled)
        exceed += int(np.minimum(shuffled, shuffled[nn]).sum()) >= observed
    p = (1.0 + exceed) / (B + 1.0)
    return TestResult(method="xi_permutation", statistic=value, p_value=p,
                      reject=p <= alpha, alpha=alpha, B=B, seed=seed)


def _centred_distances(a: np.ndarray) -> np.ndarray:
    """Double-centred Euclidean distance matrix of the rows of ``a``.

    The squared distances come from the row-blocked
    :func:`_pairwise_sqdist`, which adds the squared coordinate differences
    in numpy's pairwise-summation order (a tier-1 test pins it to
    numpy's), so the matrix equals the broadcast
    ``sqrt((diff * diff).sum(-1))`` bit for bit.  The square root and the
    centring ``((D - row means) - column means) + grand mean`` run in place
    on that one ``(n, n)`` matrix; ``a`` is :func:`_prescaled` first.
    """
    if a.ndim == 1:
        a = a[:, None]
    d = _pairwise_sqdist(a)
    np.sqrt(d, out=d)
    row_mean, col_mean = d.mean(axis=1, keepdims=True), d.mean(axis=0, keepdims=True)
    grand_mean = d.mean()
    d -= row_mean
    d -= col_mean
    d += grand_mean
    return d


def _dcor_parts(points: np.ndarray, y: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, float, float, float, float]:
    """Centred distance matrices ``a`` and ``b`` of a validated pair, the
    cross product ``mean(a * b)``, the distance variances of ``x`` and
    ``y``, and their geometric mean (the normaliser).  The three products
    are formed in one reused ``(n, n)`` buffer."""
    a = _centred_distances(points)
    b = _centred_distances(y)
    product = np.multiply(a, a)
    dvar_x = float(product.mean())
    dvar_y = float(np.multiply(b, b, out=product).mean())
    cross = float(np.multiply(a, b, out=product).mean())
    return a, b, cross, dvar_x, dvar_y, math.sqrt(dvar_x * dvar_y)


def dcor_stats(x, y) -> DistanceCorrelation:
    """Squared sample distance correlation with its building blocks.

    Double-centers the Euclidean distance matrices of ``x`` and ``y``,
    averages elementwise products (V-statistic convention), and normalizes
    by the geometric mean of the two self-products.  A constant ``x`` or
    ``y`` makes the normalizer zero; that degenerate case reports 0.  The
    :func:`_prescaled` samples give ``dcov2`` and ``dvar_*`` scaled back
    exactly: ``inf`` above the float range, ``0`` below it.
    """
    cloud, y, _ = _validate_pair(x, y, min_n=4)
    (points, ex), (y, ey) = map(_prescaled, (cloud.points, y))
    _, _, cross, dvar_x, dvar_y, norm = _dcor_parts(points, y)
    dcov2 = max(cross, 0.0)
    dcor2 = min(max(dcov2 / norm, 0.0), 1.0) if norm > 0.0 else 0.0
    with np.errstate(over="ignore", under="ignore"):
        dcov2, dvar_x, dvar_y = np.ldexp([dcov2, dvar_x, dvar_y],
                                         [ex + ey, 2 * ex, 2 * ey]).tolist()
    return DistanceCorrelation(dcor2, dcov2, dvar_x, dvar_y, degenerate=norm <= 0.0)


def _permuted_cross(a: np.ndarray, b: np.ndarray, perm: np.ndarray) -> float:
    """Mean of ``a * b`` after relabelling ``b``'s rows and columns by ``perm``."""
    return float((a * b[perm][:, perm]).mean())


def _dcor_slack(a: np.ndarray, y: np.ndarray) -> float:
    """Bound on ``|sum(a * |z_i - z_j|) - n^2 * _permuted_cross(a, b, p)|``
    over all permutations ``p`` (``z = y[p]``), plus the rounding of
    ``n^2 * observed``.

    Write ``P = ptp(y)``, ``A = sum|a|``, ``N = n^2`` and ``u`` for the unit
    roundoff.  ``b = D - r - c + mean(D)`` with row and column means
    ``r``, ``c`` of the distance matrix ``D``, all in ``[0, P]``, so
    ``sum_ij a_ij b[p_i, p_j] = sum_ij a_ij D[p_i, p_j] - sum_i r[p_i] rs_i
    - sum_j c[p_j] cs_j + mean(D) sum(a)``.  The row sums ``rs`` and column
    sums ``cs`` of ``a`` vanish only in exact arithmetic; the centring terms
    add at most ``P * R`` with the measured ``R = sum|rs| + sum|cs| +
    |sum(a)|``.  First-order rounding, in units of ``u * A * P``:

    * ``R`` itself: ``2n + N``;
    * the fast side, distances and the length-``N`` dot product: ``1 + N``;
    * ``b``: its distances ``3`` and its three centring operations ``5``;
    * the exact mean (``|b| <= 2P``): products, sum and division
      ``2(N + 2)``; ``n^2 * observed``: ``2``.

    The total, ``4N + 2n + 15``, is below ``4k`` with ``k = N + n + 4``, so
    the bound is ``2 P (R + 4 g A)`` with ``g = k u / (1 - k u)``.  The
    factor 2 covers second-order terms and the rounding of the bound
    itself.
    """
    n2 = a.size
    k = n2 + a.shape[0] + 4
    u = np.finfo(float).eps / 2.0
    g = k * u / (1.0 - k * u)
    residual = (np.abs(a.sum(axis=1)).sum() + np.abs(a.sum(axis=0)).sum()
                + abs(a.sum()))
    return 2.0 * float(np.ptp(y)) * float(residual + 4.0 * g * np.abs(a).sum())


def dcor_test_permutation(x, y, alpha: float = 0.05,
                          B: int = DEFAULT_PERMUTATIONS, seed=0, *,
                          _stop_at_decision: bool = False) -> TestResult:
    """Permutation test on the squared distance correlation.

    The centred distance matrix ``a`` of ``x`` is computed once; permuting
    the sample relabels rows and columns of the centred ``y`` matrix ``b``,
    which leaves both normalisers invariant, so only the cross product
    ``mean(a * b[p][:, p])`` changes.  The p-value is ``(1 + k) / (B + 1)``
    with ``k`` the number of permutations whose cross product is at least
    the observed one, all on the :func:`_prescaled` samples.

    No permuted copy of ``b`` is built.  Because ``a`` is double-centred,
    ``sum(a * b[p][:, p]) = sum_ij a_ij |y[p_i] - y[p_j]|`` in exact
    arithmetic, so each permutation costs one fill of ``|z_i - z_j|`` and
    one BLAS dot product.  That fast value decides a permutation only when
    it clears ``n^2 * observed`` by a worst-case bound on its rounding and
    on the centring terms that vanish only in exact arithmetic (see
    :func:`_dcor_slack`); any permutation inside the bound is re-decided
    with the exact cross product, so the p-value is the one the direct
    loop gives.  Permutations are the ``B`` successive
    ``substream(seed).permutation(n)`` draws, drawn block by block with
    ``rng.permuted`` (the same stream as one ``(B, n)`` call), and each block
    of fast values fills at most ``_DCOR_BLOCK_ENTRIES`` scratch entries.

    Every call draws all ``B`` permutations and returns the exact p-value.
    Only the simulation harness, which reads nothing but ``reject``, asks
    (through a private argument) to stop after the first block at which the
    decision not to reject is fixed; it then gets ``reject=False`` and a
    lower bound above ``alpha`` as the p-value, so its rejection counts are
    the full-``B`` ones.
    """
    _check_alpha(alpha)
    check_int("B", B, MIN_PERMUTATIONS)
    rng = substream(seed)
    cloud, y, _ = _validate_pair(x, y, min_n=4)
    (points, _), (y, _) = map(_prescaled, (cloud.points, y))
    a, b, observed, _, _, norm = _dcor_parts(points, y)
    n = cloud.n
    if norm <= 0.0:
        # Degenerate input: every permuted statistic equals the observed 0.
        return TestResult(method="dcor_permutation", statistic=0.0, p_value=1.0,
                          reject=1.0 <= alpha, alpha=alpha, B=B, seed=seed)
    slack = _dcor_slack(a, y)  # before the permutation scratch exists
    block = max(1, min(B, _DCOR_BLOCK_ENTRIES // (n * n)))
    identities = np.tile(np.arange(n), (block, 1))
    # |z_i - z_j| comes from the rank-2 product [z 1] @ [1 -z]: both products
    # are exact, so each entry is the rounded z_i - z_j, and BLAS fills it
    # several times faster than a broadcast subtraction.
    lhs = np.ones((block, n, 2))
    rhs = np.ones((block, 2, n))
    scratch = np.empty((block, n, n))
    a_flat = a.ravel()
    exceed = 0
    for start in range(0, B, block):
        if _stop_at_decision and (1.0 + exceed) / (B + 1.0) > alpha:
            break
        perms = rng.permuted(identities[:B - start], axis=1)
        z = y[perms]
        m = len(z)
        lhs[:m, :, 0] = z
        np.negative(z, out=rhs[:m, 1])
        dist = np.matmul(lhs[:m], rhs[:m], out=scratch[:m])
        np.abs(dist, out=dist)
        gap = dist.reshape(m, -1) @ a_flat - n * n * observed
        above = gap > slack
        exceed += int(above.sum())
        for i in np.flatnonzero(~(above | (gap < -slack))):
            exceed += _permuted_cross(a, b, perms[i]) >= observed
    p = (1.0 + exceed) / (B + 1.0)
    stat = min(max(observed, 0.0) / norm, 1.0)
    return TestResult(method="dcor_permutation", statistic=stat, p_value=p,
                      reject=p <= alpha, alpha=alpha, B=B, seed=seed)


def run_test(method: str, x, y, alpha: float = 0.05, m: int | None = None,
             tail: str = "right", B: int = DEFAULT_PERMUTATIONS,
             seed=0, *, _stop_at_decision: bool = False) -> TestResult:
    """Run the independence test named ``method`` (one of :data:`METHODS`).

    ``m`` and ``tail`` go to the asymptotic test, which requires ``m`` and
    uses the cached :func:`default_null_constants`; ``B`` and ``seed`` go
    to the permutation tests.  Every argument is checked for every method
    (``m`` may be ``None``), so a bad value is refused even where the
    method ignores it.  The permutation tests draw all ``B`` permutations;
    the private ``_stop_at_decision`` is the simulation harness's request to
    stop each one once its decision is fixed (see the two tests), forwarded
    unchanged.
    """
    check_choice("method", method, METHODS)
    if m is not None:
        check_int("m", m, 1)
    check_choice("tail", tail, TAILS)
    check_int("B", B, MIN_PERMUTATIONS)
    check_seed(seed)
    if method == "xi_asymptotic":
        if m is None:
            raise InvalidInputError("xi_asymptotic requires the intrinsic dimension m")
        return xi_test_asymptotic(x, y, m, alpha, tail=tail)
    if method == "xi_permutation":
        return xi_test_permutation(x, y, alpha, B=B, seed=seed,
                                   _stop_at_decision=_stop_at_decision)
    return dcor_test_permutation(x, y, alpha, B=B, seed=seed,
                                 _stop_at_decision=_stop_at_decision)


def result_as_dict(result: TestResult, m: int | None = None) -> dict:
    """JSON record with the wire field names used by the CLI."""
    return {
        "method": result.method,
        "statistic": result.statistic,
        "z": result.z_score,
        "p": result.p_value,
        "reject": result.reject,
        "alpha": result.alpha,
        "m": result.m_used if result.m_used is not None else m,
        "B": result.B,
        "seed": list(result.seed) if isinstance(result.seed, tuple) else result.seed,
    }
