"""Directed nearest-neighbor graphs and their motif counts.

Each point gets exactly one outgoing edge, to its Euclidean nearest
neighbor (distance ties broken by smallest index), found by one exact
kd-tree kernel for every sample size and ambient dimension.  The kernel
queries the tree in the tree's own leaf order and asks for a short list of
three candidates per point; exact squared distances and the smallest-index
rule pick among them.  The few points that list cannot settle are resolved
by cause: exact copies by grouping equal rows, near-ties (lattices) by a
second query with eight candidates, and anything left by an exact scan of
that point's row.  Rows small enough in some coordinate for a squared
difference to underflow to zero are never grouped, so the graph equals the
all-pairs scan on every finite input.

Two structural motifs of this graph drive the null variance of the rank
correlation coefficient:

* mutual pairs  — ordered ``(i, j)`` with ``i -> j`` and ``j -> i``;
* shared-parent triples — ordered distinct ``(i, j, k)`` with ``i -> k``
  and ``j -> k``, equivalently ``sum_k deg(k) * (deg(k) - 1)`` over
  in-degrees.

As the sample grows, ``pairs / n`` and ``triples / n`` converge to
dimension-dependent constants (see :mod:`manifold_xi.null_constants`);
:func:`estimate_constants_empirical` measures both frequencies by direct
simulation on the unit cube or the flat torus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DuplicatePointsError, InvalidInputError, check_choice, check_int
from .rngs import parallel_map, substream

# Relative slack used when deciding whether the tree's candidate list
# provably contains the exact nearest neighbor.  Squared distances carry a
# relative rounding error of a few ulps; 1e-9 is orders of magnitude wider.
_TIE_RTOL = 1e-9

_BRUTE_BLOCK_ENTRIES = 2**23  # bound on (rows x columns x d) distance scratch per block


@dataclass(frozen=True)
class PointCloud:
    """An ``n x d`` matrix of finite real coordinates, ``n >= 2``."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise InvalidInputError(f"points must be a 2-D array, got ndim={pts.ndim}")
        check_int("number of points", pts.shape[0], 2)
        check_int("number of coordinates", pts.shape[1], 1)
        if not np.isfinite(pts).all():
            raise InvalidInputError("points contain non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def require_distinct(self) -> "PointCloud":
        """Raise :class:`DuplicatePointsError` if two rows coincide."""
        if np.unique(self.points, axis=0).shape[0] < self.n:
            raise DuplicatePointsError("point cloud contains duplicate rows")
        return self


def as_point_cloud(x) -> PointCloud:
    """Coerce an array (or pass through a :class:`PointCloud`) with validation."""
    return x if isinstance(x, PointCloud) else PointCloud(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class NnGraph:
    """Nearest-neighbor index plus derived in-degrees.

    ``nn_index[i] = j`` means point ``j`` is the nearest neighbor of point
    ``i`` (0-based, ``j != i``).  Out-degree is identically one, so
    ``in_degree.sum() == n``.
    """

    nn_index: np.ndarray
    in_degree: np.ndarray

    @property
    def n(self) -> int:
        return self.nn_index.shape[0]


@dataclass(frozen=True)
class MotifCounts:
    """Ordered mutual-pair and shared-parent-triple counts of an NN graph."""

    pair_count: int
    triple_count: int
    n: int


@dataclass(frozen=True)
class EmpiricalConstants:
    """Monte-Carlo estimates of the limiting pair and triple frequencies."""

    pair_rate: float
    triple_rate: float
    pair_stderr: float
    triple_stderr: float
    m: int
    n: int
    reps: int
    geometry: str


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance, reduced over the last axis.

    Both the brute-force scan and the tree verification pass go through
    this helper so that candidate distances are bitwise comparable and the
    smallest-index tie rule is applied to identical floating-point values.
    """
    diff = a - b
    return (diff * diff).sum(axis=-1)


def _pairwise_sqdist(pts: np.ndarray) -> np.ndarray:
    """Exact ``(n, n)`` squared distances between the rows of ``pts``,
    filled by :func:`_sqdist` in row blocks of ``(rows, n, d)`` scratch
    within ``_BRUTE_BLOCK_ENTRIES``; the block size changes no value."""
    n, d = pts.shape
    out = np.empty((n, n))
    block = max(1, _BRUTE_BLOCK_ENTRIES // (n * d))
    for start in range(0, n, block):
        out[start:start + block] = _sqdist(pts[start:start + block, None, :], pts)
    return out


def _nn_brute(pts: np.ndarray) -> np.ndarray:
    """All-pairs nearest neighbors, the reference :func:`_nn_tree` must equal."""
    d2 = _pairwise_sqdist(pts)
    np.fill_diagonal(d2, np.inf)
    # np.argmin returns the first minimum, i.e. the smallest index.
    return d2.argmin(axis=1)


def _nn_brute_row(pts: np.ndarray, i: int) -> int:
    d2 = _sqdist(pts, pts[i])
    d2[i] = np.inf
    return int(d2.argmin())


def _verified_candidates(tree: cKDTree, pts: np.ndarray, rows: np.ndarray, k: int):
    """Nearest neighbors of ``pts[rows]`` proposed by the tree's ``k`` nearest.

    The candidates' exact squared distances are recomputed with
    :func:`_sqdist` (in row blocks of ``(rows, k, d)`` scratch within
    ``_BRUTE_BLOCK_ENTRIES``) and the smallest-index tie rule applied.
    Returns the chosen indices, their exact squared distances and a mask of
    the rows whose list cannot provably contain the exact nearest neighbor.
    """
    dist, cand = tree.query(pts[rows], k=k)
    d = pts.shape[1]
    d2 = np.empty(cand.shape)
    block = max(1, _BRUTE_BLOCK_ENTRIES // (k * d))
    for start in range(0, len(rows), block):
        blk = slice(start, start + block)
        d2[blk] = _sqdist(pts[cand[blk]], pts[rows[blk], None, :])
    d2[cand == rows[:, None]] = np.inf  # mask self wherever it appears
    best = d2.min(axis=1)
    nn = np.where(d2 <= best[:, None], cand, len(pts)).min(axis=1)
    if k == len(pts):
        return nn, best, np.zeros(len(rows), dtype=bool)
    # Points outside the candidate list are at least as far (by the tree's
    # arithmetic) as the k-th candidate, so the exact minimum is provably
    # inside the list when it beats that bound with slack.
    return nn, best, ~(best < dist[:, -1] ** 2 * (1.0 - _TIE_RTOL))


def _copy_groups_nn(pts: np.ndarray) -> np.ndarray:
    """For rows that each have an exact copy among them, the smallest index
    of another copy (indices into ``pts``)."""
    _, group, size = np.unique(pts, axis=0, return_inverse=True, return_counts=True)
    group = group.ravel()
    by_group = np.argsort(group, kind="stable")  # each group's rows, by index
    start = np.cumsum(size) - size
    first, second = by_group[start][group], by_group[start + 1][group]
    return np.where(first == np.arange(len(pts)), second, first)


def _nn_tree(pts: np.ndarray) -> np.ndarray:
    """Exact kd-tree nearest neighbors, identical to :func:`_nn_brute`.

    The tree is queried in its own leaf order (``tree.indices``), so
    consecutive queries walk the same nodes, and the answers are scattered
    back to row order.  Every row first gets a short list of ``k = 3``
    candidates, verified by :func:`_verified_candidates`.  The rows that
    list cannot settle are resolved by cause:

    * exact copies (an exact best distance of zero) are grouped with
      ``np.unique``; each gets the smallest index of another copy, which is
      the all-pairs answer.  Squared distance zero means equal rows unless
      a difference below about ``2**-537`` squares to zero, which needs
      both values below ``2**-485`` in magnitude.  So a row that small in a
      coordinate where some row holds a nonzero value that small is not
      grouped (``2**-480`` leaves a margin);
    * every other unsettled row (near-ties, such as lattices) is queried
      again, in leaf order, with ``k = 8`` candidates and the same proof;
    * rows still unsettled get an exact brute scan of their own.
    """
    n = len(pts)
    tree = cKDTree(pts)
    order = tree.indices
    nn, best, unsure = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=bool)
    nn[order], best[order], unsure[order] = _verified_candidates(tree, pts, order, min(n, 3))
    # Exact copies share their tree answers and exact distances, so every
    # copy of an unsettled zero-distance row is itself one of those rows.
    copies = unsure & (best == 0.0)
    if copies.any():
        small = np.abs(pts) < 2.0**-480
        copies &= ~small[:, (small & (pts != 0.0)).any(axis=0)].any(axis=1)
        rows = np.flatnonzero(copies)
        nn[rows] = rows[_copy_groups_nn(pts[rows])]
        unsure &= ~copies
    if unsure.any():
        rows = order[unsure[order]]
        nn[rows], _, still = _verified_candidates(tree, pts, rows, min(n, 8))
        for i in rows[still]:
            nn[i] = _nn_brute_row(pts, i)
    return nn


def build_nn_graph(cloud) -> NnGraph:
    """Build the directed Euclidean nearest-neighbor graph.

    The kd-tree kernel :func:`_nn_tree` runs for every ``n`` and ``d``:
    a leaf-ordered query for three candidates per point, re-verified with
    exact distances and the smallest-index tie rule, so the graph equals
    the all-pairs scan on any input.  Duplicate rows are zero-distance
    ties: each copy points to the smallest-index other copy, found by
    grouping equal rows rather than by scanning.  Near-ties are re-queried
    with eight candidates; only a point with more near-ties than that (or
    coordinates so small that squared differences underflow) gets a scan of
    its own row.

    Parameters
    ----------
    cloud : PointCloud or (n, d) array_like
        At least two points with finite coordinates.

    Returns
    -------
    NnGraph
    """
    cloud = as_point_cloud(cloud)
    nn = _nn_tree(cloud.points)
    return NnGraph(nn_index=nn, in_degree=np.bincount(nn, minlength=cloud.n))


def count_motifs(graph: NnGraph) -> MotifCounts:
    """Count ordered mutual pairs and shared-parent triples.

    ``pair_count`` counts ordered pairs, so it is even; ``triple_count``
    equals ``sum_k deg(k) * (deg(k) - 1)`` over in-degrees.
    """
    nn = graph.nn_index
    pair = int((nn[nn] == np.arange(graph.n)).sum())
    deg = graph.in_degree
    triple = int((deg * (deg - 1)).sum())
    return MotifCounts(pair_count=pair, triple_count=triple, n=graph.n)


def _nn_uniform_sample(m: int, n: int, geometry: str, rng) -> np.ndarray:
    """NN index of n uniform points on [0,1)^m under the chosen metric (a
    k=2 query: the verified :func:`_nn_tree` pass is slower on such points)."""
    pts = rng.random((n, m))
    tree = cKDTree(pts, boxsize=1.0) if geometry == "torus" else cKDTree(pts)
    rows = tree.indices  # leaf order: consecutive queries walk the same nodes
    _, idx = tree.query(pts[rows], k=2)
    nn = np.empty(n, dtype=np.int64)
    # zero-distance ties can displace self from the first column
    nn[rows] = np.where(idx[:, 0] != rows, idx[:, 0], idx[:, 1])
    return nn


def estimate_constants_empirical(m: int, n: int, reps: int,
                                 geometry: str = "torus", seed: int = 0,
                                 threads: int | None = None) -> EmpiricalConstants:
    """Estimate the limiting pair and triple frequencies by simulation.

    Draws ``reps`` independent samples of ``n`` points uniform on
    ``[0,1]^m`` and averages ``pair_count / n`` and ``triple_count / n``
    over the replicates.  With ``geometry="torus"`` distances wrap around,
    which removes boundary effects and converges noticeably faster to the
    interior-dominated limits; ``"cube"`` uses the plain Euclidean metric.

    Replicates run on a thread pool, each with its own stream derived from
    ``(seed, replicate)``, so the result does not depend on ``threads``.

    Returns
    -------
    EmpiricalConstants
        Means and standard errors of both frequencies.
    """
    check_int("m", m, 1)
    check_int("n", n, 100)
    check_int("reps", reps, 1)
    check_choice("geometry", geometry, ("cube", "torus"))

    def one(rep: int) -> tuple[float, float]:
        nn = _nn_uniform_sample(m, n, geometry, substream(seed, rep))
        mc = count_motifs(NnGraph(nn, np.bincount(nn, minlength=n)))
        return mc.pair_count / n, mc.triple_count / n

    pair, triple = np.array(parallel_map(one, range(reps), threads)).T

    def se(a: np.ndarray) -> float:
        return float(a.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0

    return EmpiricalConstants(
        pair_rate=float(pair.mean()), triple_rate=float(triple.mean()),
        pair_stderr=se(pair), triple_stderr=se(triple),
        m=m, n=n, reps=reps, geometry=geometry,
    )
