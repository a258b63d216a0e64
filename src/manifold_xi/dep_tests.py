"""Independence tests: asymptotic and permutation versions of the
rank/NN coefficient test, plus a distance-correlation permutation baseline.

The asymptotic test standardizes ``sqrt(n) * xi_n`` by the null standard
deviation for the known intrinsic dimension ``m`` and rejects in the right
tail: the coefficient's population value is zero exactly under
independence and positive under dependence, so all the power lives on the
right.  The permutation variants are exact-level fallbacks that need no
dimension at all.  Every test runs on a sample, and both xi tests take
the coefficient on it, from :mod:`manifold_xi.rank_xi`, which alone assembles it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (DuplicatePointsError, InvalidInputError, TieError, check_choice,
                     check_int, check_real)
from .nn_graph import _pairwise_sqdist, _prescaled, _smallest_equal_index
from .null_constants import NullConstants, default_null_constants
from .rank_xi import _Sample, _xi_sample, _xi_statistic
from .rngs import check_seed, substream

TAILS = ("right", "two_sided")  # rejection tails of the asymptotic test

DEFAULT_PERMUTATIONS = 199
MIN_PERMUTATIONS = 19  # the permutation tests' floor on B

_PERMUTATION_BLOCK_ENTRIES = 2**17  # bound on (permutations x n x n) per block
_DCOR_ROW_BLOCKS = 4  # row blocks of the packed pairs: 62.5% of the n^2 entries


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
        ``constants`` are not :class:`NullConstants` for this ``m`` with a
        positive finite ``sigma2``.
    DegenerateInputError
        If ``y`` is constant; the statistic is meaningless there.
    TieError
        If two responses are equal: ``sigma^2(m)`` assumes a continuous ``y``.
    DuplicatePointsError
        If two predictor rows are equal: ``sigma^2(m)`` assumes distinct rows.
    """
    _check_arguments("xi_asymptotic", alpha, m, tail)
    return _xi_asymptotic(_xi_sample(x, y), alpha, m=m, tail=tail, constants=constants)


def _xi_asymptotic(sample: _Sample, alpha: float, *, m: int, tail: str,
                   constants=None) -> TestResult:
    if sample.sizes.max() > 1:
        raise TieError("tied responses: sigma^2(m) needs a continuous y; use xi_permutation")
    if (_smallest_equal_index(sample.cloud.points) != np.arange(sample.cloud.n)).any():
        raise DuplicatePointsError("duplicate x: sigma^2(m) needs distinct x; use xi_permutation")
    if constants is None:
        constants = default_null_constants(m)
    elif not isinstance(constants, NullConstants):
        raise InvalidInputError(f"constants must be NullConstants, got {type(constants).__name__}")
    elif constants.m != m:
        raise InvalidInputError(f"constants are for m={constants.m}, not m={m}")
    elif not check_real("constants.sigma2", constants.sigma2, 0.0) > 0.0:
        raise InvalidInputError(f"constants.sigma2 must be > 0, got {constants.sigma2}")
    _, _, value = _xi_statistic(sample)
    z = math.sqrt(sample.cloud.n) * value / math.sqrt(constants.sigma2)
    # Phi(-z), not 1 - Phi(z): the difference cancels to 0 beyond z ~ 8.3.
    if tail == "right":
        p = float(special.ndtr(-z))
    else:
        p = 2.0 * float(special.ndtr(-abs(z)))
    return TestResult(method="xi_asymptotic", statistic=value, p_value=p,
                      reject=p <= alpha, alpha=alpha, z_score=z, m_used=m)


def _block_rows(n: int, B: int) -> int:
    """Draws per block: at most ``_PERMUTATION_BLOCK_ENTRIES`` (n, n) entries, at least one."""
    return max(1, min(B, _PERMUTATION_BLOCK_ENTRIES // (n * n)))


def _permuted_p(method: str, statistic: float, values: np.ndarray, exceedances,
                alpha: float, B: int, seed, stop: bool) -> TestResult:
    """The permutation loop of both permutation tests.

    ``exceedances(z)`` counts the rows of a block ``z`` of relabelled
    ``values`` whose statistic reaches the observed one.  The rows are the
    ``B`` successive ``substream(seed).permutation(n)`` draws (the stream
    of one ``(B, n)`` call), permuted in place in one reused buffer, and
    ``p = (1 + k) / (B + 1)`` with ``k`` the total count.  Only the
    simulation harness, which reads nothing but ``reject``, sets ``stop``:
    the loop then ends after the first block at which the decision not to
    reject is fixed, and the p-value is a lower bound above ``alpha``.
    """
    rng = substream(seed)
    z = np.empty((_block_rows(values.shape[0], B), values.shape[0]), values.dtype)
    exceed = 0
    for start in range(0, B, len(z)):
        if stop and (1.0 + exceed) / (B + 1.0) > alpha:
            break
        block = z[:B - start]
        block[...] = values
        rng.permuted(block, axis=1, out=block)
        exceed += exceedances(block)
    p = (1.0 + exceed) / (B + 1.0)
    return TestResult(method=method, statistic=statistic, p_value=p,
                      reject=p <= alpha, alpha=alpha, B=B, seed=seed)


def xi_test_permutation(x, y, alpha: float = 0.05,
                        B: int = DEFAULT_PERMUTATIONS, seed=0) -> TestResult:
    """Permutation test on the coefficient, graph built once.

    The NN graph depends only on ``x``, so each permutation of
    :func:`_permuted_p` just relabels the ranks, and a block of them is
    compared at once on the exact integer rank sums.  On tied responses the
    statistic is ``T_n`` (see :mod:`manifold_xi.rank_xi`), which is
    increasing in the rank sum, so the p-value is the same.  A constant
    response raises :class:`DegenerateInputError`.
    """
    return run_test("xi_permutation", x, y, alpha, B=B, seed=seed)


def _xi_permutation(sample: _Sample, alpha: float, *, B: int, seed,
                    _stop_at_decision: bool = False) -> TestResult:
    nn, observed, value = _xi_statistic(sample)
    return _permuted_p(
        "xi_permutation", value, sample.ranks,
        lambda z: int((np.minimum(z, z.take(nn, axis=1)).sum(axis=1) >= observed).sum()),
        alpha, B, seed, _stop_at_decision)


def _centred_distances(a: np.ndarray, sqdist: np.ndarray | None = None) -> np.ndarray:
    """Double-centred Euclidean distance matrix of the rows of ``a``.

    The squared distances are ``sqdist`` (shared: never modified) or come
    from :func:`_pairwise_sqdist`, which adds the squared coordinate
    differences in one running sum over the coordinates (a tier-1 test pins
    it to an explicit ``+=`` loop).  The square root of a matrix computed
    here and the centring ``((D - row means) - column means) + grand mean``
    run in place; ``a`` is :func:`_prescaled` first.
    """
    own = sqdist is None
    d = _pairwise_sqdist(a[:, None] if a.ndim == 1 else a) if own else sqdist
    d = np.sqrt(d, out=d if own else None)
    row_mean, col_mean = d.mean(axis=1, keepdims=True), d.mean(axis=0, keepdims=True)
    grand_mean = d.mean()
    d -= row_mean
    d -= col_mean
    d += grand_mean
    return d


def _dcor_parts(points: np.ndarray, y: np.ndarray, sqdist: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, float, float, float, float]:
    """Centred distance matrices ``a`` (from ``sqdist`` if given) and ``b`` of
    a validated pair, the cross product ``mean(a * b)``, the distance
    variances of ``x`` and ``y``, and their geometric mean (the normaliser).
    The three products are formed in one reused ``(n, n)`` buffer."""
    a = _centred_distances(points, sqdist)
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
    sample = _xi_sample(x, y, xi=False, dcor=True)
    (points, ex), (y, ey) = map(_prescaled, (sample.cloud.points, sample.y))
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
    """Bound on ``|pair_sums(z) - n^2 * _permuted_cross(a, b, p)|`` over all
    permutations ``p`` (``z = y[p]``, ``pair_sums`` from :func:`_pair_sums`),
    plus the rounding of ``n^2 * observed``.

    Write ``P = ptp(y)``, ``A = sum|a|``, ``N = n^2`` and ``u`` for the unit
    roundoff.  ``b = D - r - c + mean(D)`` with row and column means
    ``r``, ``c`` of the distance matrix ``D``, all in ``[0, P]``, so
    ``sum_ij a_ij b[p_i, p_j] = sum_ij a_ij D[p_i, p_j] - sum_i r[p_i] rs_i
    - sum_j c[p_j] cs_j + mean(D) sum(a)``.  The row sums ``rs`` and column
    sums ``cs`` of ``a`` vanish only in exact arithmetic; the centring terms
    add at most ``P * R`` with the measured ``R = sum|rs| + sum|cs| +
    |sum(a)|``.  First-order rounding, in units of ``u * A * P``:

    * ``R`` itself: ``2n + N``;
    * the fast side, distances ``1``, the packed weights ``fl(a_ij + a_ji)``
      ``1`` and their dot product of fewer than ``N`` terms ``N``;
    * ``b``: its distances ``3`` and its three centring operations ``5``;
    * the exact mean (``|b| <= 2P``): products, sum and division
      ``2(N + 2)``; ``n^2 * observed``: ``2``.

    The total, ``4N + 2n + 16``, is below ``4k`` with ``k = N + n + 4``, so
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


def _pair_sums(a: np.ndarray, block: int):
    """``sums(z)``: ``sum_ij a_ij |z_i - z_j|`` for each of up to ``block``
    rows of ``z``, each unordered pair taken once.

    Row block ``[s, e)`` of ``_DCOR_ROW_BLOCKS`` against columns ``[s, n)``
    holds each unordered pair once: weight ``a_ij`` on the diagonal square,
    which holds both orders, and ``fl(a_ij + a_ji)`` beside it, written
    once into one packed array.  A call fills each block's differences
    ``z_i - z_k`` into one packed scratch, allocated here, as the BLAS
    product of the factors ``[z_i 1]`` and ``[1 -z_k]``, and takes one
    ``abs`` and one BLAS product with the weights: 62.5% of the ``n^2``
    entries when four blocks divide ``n``.
    """
    n = a.shape[0]
    rows = -(-n // _DCOR_ROW_BLOCKS)
    blocks, size = [], 0
    for s in range(0, n, rows):
        e = min(s + rows, n)
        blocks.append((s, e, slice(size, size + (e - s) * (n - s))))
        size += (e - s) * (n - s)
    weights = np.empty(size)
    for s, e, packed in blocks:
        w = weights[packed].reshape(e - s, n - s)
        w[:, :e - s] = a[s:e, s:e]
        np.add(a[s:e, e:], a[e:, s:e].T, out=w[:, e - s:])
    lhs, rhs = np.ones((block, n, 2)), np.ones((block, 2, n))
    scratch = np.empty((block, size))
    fills = [(s, e, scratch[:, packed].reshape(block, e - s, n - s)) for s, e, packed in blocks]

    def sums(z: np.ndarray) -> np.ndarray:
        m = len(z)
        # both products of [z_i 1] . [1 -z_k] are exact, so each entry is
        # the once-rounded z_i - z_k (up to the sign of a zero, which abs
        # drops), at a fraction of a broadcast subtraction's cost
        lhs[:m, :, 0] = z
        np.negative(z, out=rhs[:m, 1])
        for s, e, fill in fills:
            np.matmul(lhs[:m, s:e], rhs[:m, :, s:], out=fill[:m])
        dist = np.abs(scratch[:m], out=scratch[:m])
        return dist @ weights

    return sums


def dcor_test_permutation(x, y, alpha: float = 0.05,
                          B: int = DEFAULT_PERMUTATIONS, seed=0) -> TestResult:
    """Permutation test on the squared distance correlation.

    The centred distance matrix ``a`` of ``x`` is computed once; permuting
    the sample relabels rows and columns of the centred ``y`` matrix ``b``,
    which leaves both normalisers invariant, so only the cross product
    ``mean(a * b[p][:, p])`` changes; a permutation counts when it reaches
    the observed one, all on the :func:`_prescaled` samples.

    No permuted copy of ``b`` is built.  Because ``a`` is double-centred,
    ``sum(a * b[p][:, p]) = sum_ij a_ij |y[p_i] - y[p_j]|`` in exact
    arithmetic, so each permutation costs one fill of ``|z_i - z_j|`` for
    each unordered pair once, by a rank-2 BLAS product, and one BLAS dot
    product with the symmetrised weights (see :func:`_pair_sums`).  That
    fast value decides a permutation only when it clears ``n^2 * observed``
    by a worst-case bound on its rounding and on the centring terms that
    vanish only in exact arithmetic (see :func:`_dcor_slack`); any
    permutation inside the bound is re-decided with the exact cross
    product, so the p-value is the one the direct loop gives.  The
    permutations, the p-value and the harness's stop rule are those of
    :func:`_permuted_p`; the packed weights and the fill scratch of one
    block are allocated once per test.
    """
    return run_test("dcor_permutation", x, y, alpha, B=B, seed=seed)


def _dcor_permutation(sample: _Sample, alpha: float, *, B: int, seed,
                      _stop_at_decision: bool = False) -> TestResult:
    (points, _), (y, _) = map(_prescaled, (sample.cloud.points, sample.y))
    a, b, observed, _, _, norm = _dcor_parts(points, y, sample.sqdist)
    n = y.shape[0]
    if norm <= 0.0:
        # Degenerate input: every permuted statistic equals the observed 0.
        return TestResult(method="dcor_permutation", statistic=0.0, p_value=1.0,
                          reject=1.0 <= alpha, alpha=alpha, B=B, seed=seed)
    slack = _dcor_slack(a, y)  # before the permutation scratch exists
    pair_sums = _pair_sums(a, _block_rows(n, B))

    def exceedances(perms: np.ndarray) -> int:
        gap = pair_sums(y[perms]) - n * n * observed
        above = gap > slack
        return int(above.sum()) + sum(_permuted_cross(a, b, perms[i]) >= observed
                                      for i in np.flatnonzero(~(above | (gap < -slack))))

    return _permuted_p("dcor_permutation", min(max(observed, 0.0) / norm, 1.0),
                       np.arange(n), exceedances, alpha, B, seed, _stop_at_decision)


# The one list of the tests: each test's private form, run on a prepared sample
# and alpha with the arguments its entry reads (one that reads B also gets the
# harness's stop), and whether it takes the coefficient (its sample then refuses
# a constant y; dcor centres x's distances).
_Test = namedtuple("_Test", "run reads xi")
_TESTS = {
    "xi_asymptotic": _Test(_xi_asymptotic, ("m", "tail"), xi=True),
    "xi_permutation": _Test(_xi_permutation, ("B", "seed"), xi=True),
    "dcor_permutation": _Test(_dcor_permutation, ("B", "seed"), xi=False),
}
METHODS = tuple(_TESTS)


def _check_arguments(method: str, alpha: float, m: int | None, tail: str,
                     B: int = DEFAULT_PERMUTATIONS, seed=0) -> None:
    """The one check of a test's arguments, as :func:`run_test` describes it."""
    check_choice("method", method, METHODS)
    if m is not None:
        check_int("m", m, 1)
    check_choice("tail", tail, TAILS)
    check_int("B", B, MIN_PERMUTATIONS)
    check_seed(seed)
    if m is None and "m" in _TESTS[method].reads:
        raise InvalidInputError(f"{method} requires the intrinsic dimension m")
    _check_alpha(alpha)


def run_test(method: str, x, y, alpha: float = 0.05, m: int | None = None,
             tail: str = "right", B: int = DEFAULT_PERMUTATIONS,
             seed=0) -> TestResult:
    """Run the independence test named ``method`` (one of :data:`METHODS`).

    ``m`` and ``tail`` go to the asymptotic test, which requires ``m`` and
    uses the cached :func:`default_null_constants`; ``B`` and ``seed`` go
    to the permutation tests, which draw all ``B`` permutations.  Every
    argument is checked for every method (``m`` may be ``None``), so a bad
    value is refused even where the method ignores it.
    """
    _check_arguments(method, alpha, m, tail, B, seed)
    return _run_tests((method,), x, y, (seed,), alpha, m, tail, B)[0]


def _run_tests(methods: tuple, x, y, seeds, alpha: float, m: int | None, tail: str,
               B: int, *, _stop_at_decision: bool = False) -> list[TestResult]:
    """:func:`run_test` of each of ``methods`` (with its seed) on one sample and
    checked arguments: each registry form gets the arguments its entry reads,
    and a test that draws ``B`` permutations the stop, which only the harness
    sets."""
    tests = [_TESTS[method] for method in methods]
    sample = _xi_sample(x, y, xi=any(t.xi for t in tests), dcor=not all(t.xi for t in tests))
    given = [dict(m=m, tail=tail, B=B, seed=seed) for seed in seeds]
    stop = dict(_stop_at_decision=_stop_at_decision)
    return [test.run(sample, alpha, **{name: args[name] for name in test.reads},
                     **(stop if "B" in test.reads else {})) for test, args in zip(tests, given)]


def _warm_constants(methods: tuple, m_grid: tuple) -> None:
    """Compute each ``m``'s null constants once if one of ``methods`` reads ``m``."""
    if any("m" in _TESTS[method].reads for method in methods):
        for m in sorted(set(m_grid)):
            default_null_constants(m)


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
