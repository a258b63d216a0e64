"""Dimension-dependent null-variance constants.

Under independence, the scaled coefficient ``sqrt(n) * xi_n`` is
asymptotically centered normal with variance

    sigma^2(m) = 2/5 + (2/5) * q(m) + (4/5) * o(m),

where ``m`` is the intrinsic (manifold) dimension of the predictors and

* ``q(m)`` is the limiting mutual-pair frequency of the NN graph,
  available in closed form through the regularized incomplete beta
  function:  ``q(m) = 1 / (2 - I_{3/4}((m+1)/2, 1/2))``.  Geometrically it
  equals ``V_m / U_m``, the unit-ball volume over the volume of two unit
  balls with centers a unit distance apart.
* ``o(m)`` is the limiting shared-parent-triple frequency, a 2m-dimensional
  integral of ``exp(-vol(union of two balls))`` over the exclusion region
  where each center is farther from the other than from the origin.  It has
  a closed form only for ``m = 1`` (exactly 1/2) and is otherwise estimated
  by importance sampling with reported standard error.

The module also ships a reference table of rounded constants for
``m = 1..10`` as a named dataset (``source="table"``), so downstream
results can be pinned against the published numbers independently of any
Monte-Carlo seed.  Note the table is a low-precision tabulation: its
``m = 1`` triple entry (0.49) differs from the exact 1/2, and its
``m = 9, 10`` entries (0.98, 1.00) exceed the high-precision value of the
integral (0.902, 0.917) by far more than this sampler's standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import InvalidInputError
from .rngs import parallel_map, substream

# Rounded reference constants for m = 1..10 (named dataset, source="table").
REFERENCE_PAIR_LIMITS = {
    1: 0.67, 2: 0.62, 3: 0.59, 4: 0.57, 5: 0.56,
    6: 0.55, 7: 0.54, 8: 0.53, 9: 0.53, 10: 0.52,
}
REFERENCE_TRIPLE_LIMITS = {
    1: 0.49, 2: 0.63, 3: 0.71, 4: 0.76, 5: 0.79,
    6: 0.84, 7: 0.86, 8: 0.90, 9: 0.98, 10: 1.00,
}

# Exact 1-D triple limit: the exclusion region forces opposite signs and the
# two "empty" intervals are disjoint, so the integral evaluates to 1/2.
TRIPLE_LIMIT_1D = 0.5

DEFAULT_TRIPLE_SAMPLES = 10**6
DEFAULT_SEED = 20260808

_MC_BLOCK = 2**19


@dataclass(frozen=True)
class NullConstants:
    """Null-variance constants for intrinsic dimension ``m``.

    ``source`` records how the triple constant was obtained:
    ``closed_form`` (m = 1 only), ``monte_carlo``, or ``table``.
    """

    m: int
    pair_limit: float
    triple_limit: float
    sigma2: float
    triple_stderr: float
    source: str


@dataclass(frozen=True)
class BallGeometry:
    """Unit-ball volume and unit-configuration union volume in dimension m."""

    m: int
    unit_ball_volume: float
    unit_union_volume: float


def reg_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``.

    A domain-checked scalar front end to :func:`scipy.special.betainc`;
    ``I_0 = 0`` and ``I_1 = 1`` exactly.

    >>> reg_incomplete_beta(0.25, 1.0, 1.0)
    0.25
    """
    if not (0.0 <= x <= 1.0):
        raise InvalidInputError(f"x must lie in [0, 1], got {x}")
    if a <= 0.0 or b <= 0.0:
        raise InvalidInputError(f"a and b must be positive, got a={a}, b={b}")
    return float(special.betainc(a, b, x))


def ball_volume(m: int, r: float = 1.0) -> float:
    """Volume of the radius-``r`` ball in ``R^m``: ``pi^{m/2}/Gamma(m/2+1) r^m``."""
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if r < 0:
        raise InvalidInputError(f"radius must be >= 0, got {r}")
    return float(math.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0) * r**m)


def _cap_fractions(m: int, c_over_r: np.ndarray) -> np.ndarray:
    """Fraction of an m-ball's volume beyond a plane at distance ``c`` from
    the center (signed: negative ``c`` means the plane is past the center,
    giving a cap larger than a hemisphere)."""
    x = 1.0 - c_over_r * c_over_r
    np.clip(x, 0.0, 1.0, out=x)
    minor = 0.5 * special.betainc((m + 1) / 2.0, 0.5, x)
    return np.where(c_over_r >= 0.0, minor, 1.0 - minor)


def _union_volumes(m: int, r1: np.ndarray, r2: np.ndarray,
                   dist: np.ndarray) -> np.ndarray:
    """Vectorized volume of the union of two balls, all configurations."""
    vm = ball_volume(m)
    v1 = vm * r1**m
    v2 = vm * r2**m
    rmin = np.minimum(r1, r2)
    rmax = np.maximum(r1, r2)
    disjoint = dist >= r1 + r2
    contained = dist + rmin <= rmax
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
        c2 = dist - c1
        lens = v1 * _cap_fractions(m, c1 / r1) + v2 * _cap_fractions(m, c2 / r2)
    inter = np.where(contained, vm * rmin**m, np.where(disjoint, 0.0, lens))
    return v1 + v2 - inter


def union_volume(m: int, r1: float, r2: float, dist: float) -> float:
    """Volume of ``B(w1, r1) union B(w2, r2)`` with ``|w1 - w2| = dist``.

    The intersection is assembled from two spherical caps whose volumes go
    through the regularized incomplete beta; containment and disjointness
    are handled exactly.

    >>> round(union_volume(1, 1.0, 1.0, 1.0), 12)   # [-1,1] union [0,2]
    3.0
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if r1 <= 0 or r2 <= 0:
        raise InvalidInputError(f"radii must be positive, got {r1}, {r2}")
    if dist < 0:
        raise InvalidInputError(f"distance must be >= 0, got {dist}")
    return float(_union_volumes(m, np.atleast_1d(float(r1)), np.atleast_1d(float(r2)),
                                np.atleast_1d(float(dist)))[0])


def nn_pair_limit(m: int) -> float:
    """Limiting mutual-pair frequency ``q(m) = 1 / (2 - I_{3/4}((m+1)/2, 1/2))``.

    Strictly decreasing in ``m``, from ``q(1) = 2/3`` toward ``1/2``.
    Agrees with the geometric ratio of :func:`ball_geometry` to 1e-10.
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    return 1.0 / (2.0 - reg_incomplete_beta(0.75, (m + 1) / 2.0, 0.5))


def ball_geometry(m: int) -> BallGeometry:
    """Unit-ball volume and unit-configuration union volume in dimension m."""
    return BallGeometry(
        m=m,
        unit_ball_volume=ball_volume(m),
        unit_union_volume=union_volume(m, 1.0, 1.0, 1.0),
    )


def nn_triple_limit_mc(m: int, samples: int = DEFAULT_TRIPLE_SAMPLES,
                       seed: int = DEFAULT_SEED,
                       threads: int | None = None) -> tuple[float, float]:
    """Importance-sampling estimate of the triple frequency limit ``o(m)``.

    The integrand lives on pairs ``(w1, w2)`` in the exclusion region
    ``max(|w1|, |w2|) < |w1 - w2|``.  Both points are drawn from the
    density ``exp(-V_m |w|^m)`` (radius via ``V_m r^m ~ Exp(1)``, direction
    uniform), which integrates to one because the unit-sphere surface
    measure is ``m V_m``.  Each admissible pair contributes

        exp(V_m |w1|^m + V_m |w2|^m - vol(union of the two balls)),

    a weight that is >= 1 because the union is at most the sum of the two
    ball volumes; pairs outside the region contribute zero.  Sampling is
    blocked, with one substream per block fanned out by
    :func:`~manifold_xi.rngs.parallel_map`, so the result is deterministic
    for a given seed regardless of thread count.

    Returns
    -------
    (estimate, stderr) : tuple of float
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if samples < 10**5:
        raise InvalidInputError(f"samples must be >= 1e5, got {samples}")
    vm = ball_volume(m)
    n_blocks = (samples + _MC_BLOCK - 1) // _MC_BLOCK

    def run_block(block: int) -> tuple[float, float, int]:
        size = min(_MC_BLOCK, samples - block * _MC_BLOCK)
        rng = substream(seed, block)
        radius = (rng.exponential(size=(2, size)) / vm) ** (1.0 / m)
        direction = rng.standard_normal((2, size, m))
        direction /= np.linalg.norm(direction, axis=2, keepdims=True)
        w = direction * radius[:, :, None]
        gap = np.linalg.norm(w[0] - w[1], axis=1)
        r1, r2 = radius
        admissible = np.maximum(r1, r2) < gap
        weights = np.zeros(size)
        if admissible.any():
            union = _union_volumes(m, r1[admissible], r2[admissible], gap[admissible])
            log_w = vm * r1[admissible] ** m + vm * r2[admissible] ** m - union
            if log_w.min() < -1e-9:
                raise AssertionError("importance weight below 1 on the exclusion region")
            weights[admissible] = np.exp(log_w)
        return weights.sum(), (weights * weights).sum(), size

    sums, sq_sums, counts = np.array(parallel_map(run_block, range(n_blocks), threads)).T
    total = counts.sum()
    mean = sums.sum() / total
    var = max(sq_sums.sum() / total - mean * mean, 0.0) * total / (total - 1)
    return float(mean), float(math.sqrt(var / total))


def null_variance(m: int, o_samples: int = DEFAULT_TRIPLE_SAMPLES,
                  seed: int = DEFAULT_SEED,
                  source: str = "monte_carlo") -> NullConstants:
    """Assemble the null-variance constants for intrinsic dimension ``m``.

    ``sigma2 = 2/5 + (2/5) * pair_limit + (4/5) * triple_limit`` exactly.

    Parameters
    ----------
    source : {"monte_carlo", "table", "closed_form"}
        Where the constants come from.  ``monte_carlo`` (default) pairs
        the closed-form pair limit with an ``o_samples``-sample estimate of
        the triple limit.  ``table`` uses the shipped rounded reference
        rows (both constants, ``m <= 10`` only).  ``closed_form`` is exact
        and available only for ``m = 1``.
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if source == "monte_carlo":
        pair = nn_pair_limit(m)
        triple, stderr = nn_triple_limit_mc(m, samples=o_samples, seed=seed)
    elif source == "table":
        if m not in REFERENCE_PAIR_LIMITS:
            raise InvalidInputError(f"reference table covers m=1..10, got m={m}")
        pair = REFERENCE_PAIR_LIMITS[m]
        triple = REFERENCE_TRIPLE_LIMITS[m]
        stderr = 0.0
    elif source == "closed_form":
        if m != 1:
            raise InvalidInputError("closed-form triple limit is only known for m=1")
        pair = nn_pair_limit(1)
        triple = TRIPLE_LIMIT_1D
        stderr = 0.0
    else:
        raise InvalidInputError(f"unknown source {source!r}")
    sigma2 = 2.0 / 5.0 + (2.0 / 5.0) * pair + (4.0 / 5.0) * triple
    return NullConstants(m=m, pair_limit=pair, triple_limit=triple,
                         sigma2=sigma2, triple_stderr=stderr, source=source)


@lru_cache(maxsize=None)
def default_null_constants(m: int) -> NullConstants:
    """Monte-Carlo constants at the default sample size, cached per ``m``."""
    return null_variance(m)


def constants_as_dict(c: NullConstants) -> dict:
    """Exportable row with the wire field names used by the CLI."""
    return {
        "m": c.m,
        "q_m": c.pair_limit,
        "o_m": c.triple_limit,
        "sigma2": c.sigma2,
        "o_m_stderr": c.triple_stderr,
        "source": c.source,
    }


def write_constants_csv(rows: list[NullConstants], stream) -> None:
    stream.write("m,q_m,o_m,sigma2,o_m_stderr,source\n")
    for c in rows:
        stream.write(f"{c.m},{c.pair_limit:.10g},{c.triple_limit:.10g},"
                     f"{c.sigma2:.10g},{c.triple_stderr:.4g},{c.source}\n")
