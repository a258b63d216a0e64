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
  by importance sampling with reported standard error.  The sampler needs
  no special functions: it takes the distance between the two centers
  from their radii and the cosine of the angle between them, and the
  volumes of the two caps that make up the lens from an elementary
  recurrence.

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

from .errors import InvalidInputError, check_choice, check_int, check_real
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


def ball_volume(m: int, r: float = 1.0) -> float:
    """Volume of the radius-``r`` ball in ``R^m``: ``pi^{m/2}/Gamma(m/2+1) r^m``."""
    check_int("m", m, 1)
    check_real("r", r, 0.0)
    return float(math.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0) * r**m)


def _cap_fractions(m: int, c_over_r: np.ndarray) -> np.ndarray:
    """Fraction of an m-ball's volume beyond a plane at distance ``c`` from
    the center (signed: negative ``c`` means the plane is past the center,
    giving a cap larger than a hemisphere).

    With ``h = |c| / r`` and ``J_k(h) = int_h^1 (1 - t^2)^{k/2} dt``, the
    minor cap is ``J_{m-1}(h) / (2 J_{m-1}(0))``.  ``J_k`` follows from
    ``J_0 = 1 - h`` or ``J_{-1} = arccos h`` by the exact recurrence
    ``(k + 1) J_k = k J_{k-2} - h (1 - h^2)^{k/2}``, about ``m/2`` steps.
    """
    h = np.minimum(np.abs(c_over_r), 1.0)
    s2 = 1.0 - h * h
    if m % 2:  # from J_0; half is J_k(0)
        start, cap, half, step = 2, 1.0 - h, 1.0, h * s2
    else:  # from J_{-1}
        start, cap, half, step = 1, np.arccos(h), math.pi / 2.0, h * np.sqrt(s2)
    for k in range(start, m, 2):  # step holds h (1 - h^2)^{k/2}
        cap *= k
        cap -= step
        cap /= k + 1
        half *= k / (k + 1)
        step *= s2
    cap /= 2.0 * half
    return np.where(c_over_r >= 0.0, cap, 1.0 - cap)


def union_volume(m: int, r1: float, r2: float, dist: float) -> float:
    """Volume of ``B(w1, r1) union B(w2, r2)`` with ``|w1 - w2| = dist``.

    The intersection is assembled from two spherical caps, each from the
    elementary recurrence of ``_cap_fractions``; containment and
    disjointness are handled exactly.

    >>> round(union_volume(1, 1.0, 1.0, 1.0), 12)   # [-1,1] union [0,2]
    3.0
    """
    check_int("m", m, 1)
    if not (check_real("r1", r1, 0.0) > 0 and check_real("r2", r2, 0.0) > 0):
        raise InvalidInputError(f"radii must be positive, got {r1}, {r2}")
    check_real("dist", dist, 0.0)
    vm = ball_volume(m)
    v1 = vm * r1**m
    v2 = vm * r2**m
    if dist + min(r1, r2) <= max(r1, r2):
        inter = vm * min(r1, r2) ** m
    elif dist >= r1 + r2:
        inter = 0.0
    else:
        c1 = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
        caps = _cap_fractions(m, np.array([c1 / r1, (dist - c1) / r2]))
        inter = v1 * caps[0] + v2 * caps[1]
    return float(v1 + v2 - inter)


def nn_pair_limit(m: int) -> float:
    """Limiting mutual-pair frequency ``q(m) = 1 / (2 - I_{3/4}((m+1)/2, 1/2))``.

    Strictly decreasing in ``m``, from ``q(1) = 2/3`` toward ``1/2``.
    Agrees with the geometric ratio of :func:`ball_geometry` to 1e-10.

    >>> nn_pair_limit(1)
    0.6666666666666666
    """
    check_int("m", m, 1)
    return 1.0 / (2.0 - float(special.betainc((m + 1) / 2.0, 0.5, 0.75)))


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
    ball volumes; pairs outside the region contribute zero.  The exponent
    is the lens volume ``V_m (r1^m F_m(h1) + r2^m F_m(h2))``, two minor caps
    with plane offsets ``h1 = (r1 - r2 cos) / gap`` and
    ``h2 = (r2 - r1 cos) / gap``, where ``cos`` is the cosine between the
    two raw normal direction draws and ``gap^2 = r1^2 + r2^2 - 2 r1 r2 cos``
    (on the region ``gap > max(r1, r2)``, so neither offset is negative).
    The cap fraction ``F_m`` comes from the recurrence in
    ``_cap_fractions``; the points themselves are never formed.  Sampling is
    blocked, with one substream per block fanned out by
    :func:`~manifold_xi.rngs.parallel_map`, so the result is deterministic
    for a given seed regardless of thread count.

    Returns
    -------
    (estimate, stderr) : tuple of float
    """
    check_int("m", m, 1)
    check_int("samples", samples, 10**5)
    vm = ball_volume(m)
    n_blocks = (samples + _MC_BLOCK - 1) // _MC_BLOCK

    def run_block(block: int) -> tuple[float, float, int]:
        size = min(_MC_BLOCK, samples - block * _MC_BLOCK)
        rng = substream(seed, block)
        mass = rng.exponential(size=(2, size))  # V_m r^m ~ Exp(1)
        radius = (mass / vm) ** (1.0 / m)
        g = rng.standard_normal((2, size, m))
        cos = np.einsum("jk,jk->j", g[0], g[1])
        cos /= np.sqrt(np.prod(np.einsum("ijk,ijk->ij", g, g), axis=0))
        r1, r2 = radius
        gap = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * cos
        np.sqrt(np.maximum(gap, 0.0, out=gap), out=gap)
        admissible = np.maximum(r1, r2) < gap
        radius, mass = radius[:, admissible], mass[:, admissible]
        cos, gap = cos[admissible], gap[admissible]
        # gap > max(r1, r2) makes both plane offsets (r1 - r2 cos) / gap and
        # (r2 - r1 cos) / gap non-negative: the lens is two minor caps.
        caps = _cap_fractions(m, (radius - radius[::-1] * cos) / gap)
        log_w = (mass * caps).sum(axis=0)
        if log_w.size and log_w.min() < -1e-9:
            raise AssertionError("importance weight below 1 on the exclusion region")
        weights = np.exp(log_w)
        return weights.sum(), weights @ weights, size

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
    check_int("m", m, 1)
    check_choice("source", source, ("monte_carlo", "table", "closed_form"))
    if source == "monte_carlo":
        pair = nn_pair_limit(m)
        triple, stderr = nn_triple_limit_mc(m, samples=o_samples, seed=seed)
    elif source == "table":
        if m not in REFERENCE_PAIR_LIMITS:
            raise InvalidInputError(f"reference table covers m=1..10, got m={m}")
        pair = REFERENCE_PAIR_LIMITS[m]
        triple = REFERENCE_TRIPLE_LIMITS[m]
        stderr = 0.0
    else:
        if m != 1:
            raise InvalidInputError("closed-form triple limit is only known for m=1")
        pair = nn_pair_limit(1)
        triple = TRIPLE_LIMIT_1D
        stderr = 0.0
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
