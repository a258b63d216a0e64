"""Dimension-dependent null-variance constants.

Under independence, the scaled coefficient ``sqrt(n) * xi_n`` is
asymptotically centered normal with variance

    sigma^2(m) = 2/5 + (2/5) * q(m) + (4/5) * o(m),

where ``m`` is the intrinsic (manifold) dimension of the predictors and

* ``q(m)`` is the limiting mutual-pair frequency of the NN graph,
  available in closed form through the regularized incomplete beta
  function:  ``q(m) = 1 / (2 - I_{3/4}((m+1)/2, 1/2))``.  Geometrically it
  equals ``V_m / U_m``, the unit-ball volume over the volume of two unit
  balls with centers a unit distance apart (:func:`ball_geometry`).
* ``o(m)`` is the limiting shared-parent-triple frequency, a 2m-dimensional
  integral of ``exp(-vol(union of two balls))`` over the exclusion region
  where each center is farther from the other than from the origin.  It has
  a closed form only for ``m = 1`` (exactly 1/2) and is otherwise estimated
  by importance sampling with reported standard error.  The sampler needs
  no special functions.  Rotations leave three variables, the radii
  ``r1``, ``r2`` and the cosine ``c`` between the centers, and everything
  but the ball volumes ``V_m r^m`` is scale-free: in units of ``r1``, with
  ``lam = r2 / r1``, the centers are ``g = sqrt(1 + lam (lam - 2c))``
  apart, ``V_m`` cancels from ``lam = (V_m r2^m / V_m r1^m)^(1/m)``, and
  the exclusion region ``max(1, lam) < g`` is exactly
  ``c < min(lam, 1/lam) / 2``.  The lens of the two balls is two minor
  caps, beyond planes at ``h1 = (1 - lam c) / g`` and ``h2 = (lam - c) / g``
  radii from the centers, whose volumes come from an elementary
  recurrence, which also gives the caps that ``U_m`` lacks.

The default estimate (``DEFAULT_TRIPLE_SAMPLES`` samples at
``DEFAULT_SEED``) is stored for ``m = 1..10`` as the sampler's own floats,
so :func:`null_variance` serves those rows without sampling; the test
suite regenerates every stored row with the sampler.  Any other sample
size, seed or dimension is sampled on the call.

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

from .errors import InvalidInputError, check_choice, check_int
from .rngs import check_seed, parallel_map, substream

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
MIN_TRIPLE_SAMPLES = 10**5  # the sampler's floor, for samples and o_samples alike
DEFAULT_SEED = 20260808
SOURCES = ("monte_carlo", "table", "closed_form")  # of null_variance

# nn_triple_limit_mc(m) at the default samples and seed, as (estimate,
# stderr) for m = 1..10; null_variance serves these rows without sampling.
_DEFAULT_TRIPLE_ROWS = {
    1: (0.500427, 0.0005000000676710631),
    2: (0.6333021092098782, 0.0005356382082533277),
    3: (0.708881785736494, 0.0005078424007278138),
    4: (0.7629502009171988, 0.00047224447326016866),
    5: (0.8034065458291988, 0.00043716425964187135),
    6: (0.8361224279176596, 0.00040327564686978856),
    7: (0.8627541728546015, 0.00037178099585979507),
    8: (0.8850708422344746, 0.000341942306417336),
    9: (0.9025690231381989, 0.0003155208664780083),
    10: (0.9174772438099361, 0.0002909357195407749),
}

_MC_BLOCK = 2**19
_MC_CHUNK = 2**14  # rows of the second direction draw held at once


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


def ball_volume(m: int) -> float:
    """Volume of the unit ball in ``R^m``: ``pi^{m/2} / Gamma(m/2 + 1)``.

    Refuses ``m >= 342``, where it is not a positive finite float
    (``Gamma(m/2 + 1)`` overflows, and so, from ``m = 1241``, does
    ``pi^{m/2}``).
    """
    check_int("m", m, 1)
    try:
        unit = math.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0)
    except OverflowError:
        unit = math.inf
    if not 0.0 < unit < math.inf:
        raise InvalidInputError(
            f"the unit-ball volume for m={m} is not a positive finite float; "
            "m must be below 342")
    return float(unit)


def _cap_fractions(m: int, h: np.ndarray) -> np.ndarray:
    """Fraction ``F_m(h)`` of an m-ball's volume beyond a plane at distance
    ``h >= 0`` radii from the center: a minor cap, at most a half ball.

    With ``J_k(h) = int_h^1 (1 - t^2)^{k/2} dt``, ``F_m(h) = J_{m-1}(h) /
    (2 J_{m-1}(0))``.  ``J_k`` follows from ``J_0 = 1 - h`` or
    ``J_{-1} = arccos h`` by the exact recurrence
    ``(k + 1) J_k = k J_{k-2} - h (1 - h^2)^{k/2}``, about ``m/2`` steps.
    An offset that rounding carries a hair past the rim counts as 1.
    """
    h = np.minimum(h, 1.0)
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
    return cap


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
    """``V_m`` and the volume ``U_m`` of two unit balls a unit distance apart,
    each short of the cap ``V_m F_m(1/2)`` beyond the midplane, taken from
    the cap recurrence, not the ``betainc`` of :func:`nn_pair_limit`.

    >>> round(ball_geometry(1).unit_union_volume, 12)   # [-1,1] union [0,2]
    3.0
    """
    vm = ball_volume(m)
    cap = vm * _cap_fractions(m, 0.5)
    return BallGeometry(m=m, unit_ball_volume=vm,
                        unit_union_volume=float(vm + vm - (cap + cap)))


def _log_weights(m: int, mass: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """Log importance weights ``mass1 F_m(h1) + mass2 F_m(h2)`` of the
    admissible pairs among the masses ``mass`` (shape ``(2, k)``) and
    cosines ``cos``, in the ratio form of :func:`nn_triple_limit_mc`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = mass[1] / mass[0]
        lam **= 1.0 / m
        g2 = lam - 2.0 * cos
        g2 *= lam
        g2 += 1.0
        top = np.maximum(lam, 1.0)
        top *= top
    keep = np.flatnonzero(top < g2)
    lam, cos, g = lam[keep], cos[keep], np.sqrt(g2[keep])
    h = np.stack([1.0 - lam * cos, lam - cos])
    h /= g
    caps = _cap_fractions(m, h)
    return mass[0][keep] * caps[0] + mass[1][keep] * caps[1]


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
    with plane offsets ``(r1 - r2 c) / gap`` and ``(r2 - r1 c) / gap``,
    where ``c`` is the cosine between the two raw normal direction draws
    and ``gap^2 = r1^2 + r2^2 - 2 r1 r2 c``.

    Only the masses ``mass_i = V_m r_i^m`` carry a scale, so the sampler
    works in units of ``r1``.  With ``lam = r2 / r1 = (mass2 /
    mass1)^(1/m)``, in which ``V_m`` cancels, ``gap = r1 g`` with
    ``g^2 = 1 + lam (lam - 2c)``.  The region ``max(1, lam)^2 < g^2``
    reads ``c < lam / 2`` for ``lam <= 1`` and ``c < 1 / (2 lam)`` for
    ``lam >= 1``, so it is exactly ``c < min(lam, 1/lam) / 2``; a zero
    radius (``lam`` zero, infinite or undefined) lies outside it.  The
    offsets become ``h1 = (1 - lam c) / g`` and ``h2 = (lam - c) / g``,
    both positive on the region, so the lens is two minor caps, and the
    log weight is ``mass1 F_m(h1) + mass2 F_m(h2)``.  The cap fraction
    ``F_m`` comes from the recurrence in ``_cap_fractions``; the points
    themselves are never formed, and the second direction is drawn
    ``_MC_CHUNK`` rows at a time, each chunk adding to running sums of
    ``w`` and ``w^2``.  Sampling is blocked, with one substream per block
    fanned out by :func:`~manifold_xi.rngs.parallel_map`, so the result is
    deterministic for a given seed regardless of thread count.

    Returns
    -------
    (estimate, stderr) : tuple of float
    """
    check_int("m", m, 1)
    check_int("samples", samples, MIN_TRIPLE_SAMPLES)
    ball_volume(m)  # refuses m >= 342 before any draw
    n_blocks = (samples + _MC_BLOCK - 1) // _MC_BLOCK

    def run_block(block: int) -> tuple[float, float, int]:
        size = min(_MC_BLOCK, samples - block * _MC_BLOCK)
        rng = substream(seed, block)
        mass = rng.exponential(size=(2, size))  # V_m r^m ~ Exp(1)
        g0 = rng.standard_normal((size, m))
        # The second direction is drawn in chunks into one buffer: the same
        # stream as a single (size, m) draw, at a fraction of the scratch.
        buf = np.empty((min(size, _MC_CHUNK), m))
        total = square = 0.0
        least = math.inf
        for lo in range(0, size, _MC_CHUNK):
            hi = min(lo + _MC_CHUNK, size)
            a, b = g0[lo:hi], rng.standard_normal(out=buf[:hi - lo])
            cos = np.einsum("jk,jk->j", a, b)
            cos /= np.sqrt(np.einsum("jk,jk->j", a, a) * np.einsum("jk,jk->j", b, b))
            log_w = _log_weights(m, mass[:, lo:hi], cos)
            least = min(least, log_w.min(initial=math.inf))
            w = np.exp(log_w, out=log_w)
            total += w.sum()
            square += w @ w
        if least < -1e-9:
            raise AssertionError("importance weight below 1 on the exclusion region")
        return total, square, size

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
        the triple limit (``o_samples >= MIN_TRIPLE_SAMPLES``); at the
        default ``o_samples`` and ``seed`` and for ``m <= 10`` that estimate
        is the stored output of :func:`nn_triple_limit_mc`, not a new draw.
        ``table`` uses the shipped rounded reference rows (both constants,
        ``m <= 10`` only).
        ``closed_form`` is exact and available only for ``m = 1``.

    ``o_samples`` and ``seed`` are checked for every source, so a bad value
    is refused even where the source ignores it.
    """
    check_int("m", m, 1)
    check_choice("source", source, SOURCES)
    check_int("o_samples", o_samples, MIN_TRIPLE_SAMPLES)
    check_seed(seed)
    if source == "monte_carlo":
        pair = nn_pair_limit(m)
        if ((o_samples, seed) == (DEFAULT_TRIPLE_SAMPLES, DEFAULT_SEED)
                and m in _DEFAULT_TRIPLE_ROWS):
            triple, stderr = _DEFAULT_TRIPLE_ROWS[m]
        else:
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
    """Monte-Carlo constants at the default sample size and seed, cached per
    ``m``: the stored rows for ``m <= 10``, one sampler call per larger ``m``."""
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
