"""Directed nearest-neighbor graphs and their motif counts.

Each point gets exactly one outgoing edge, to its Euclidean nearest
neighbor (distance ties broken by smallest index), found by one exact
kd-tree kernel for every sample size and ambient dimension.  Two
structural motifs of this graph drive the null variance of the rank
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

from .errors import DuplicatePointsError, InvalidInputError
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
        if pts.shape[0] < 2:
            raise InvalidInputError(f"need at least 2 points, got {pts.shape[0]}")
        if pts.shape[1] < 1:
            raise InvalidInputError("points must have at least one coordinate")
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


def _nn_tree(pts: np.ndarray) -> np.ndarray:
    """Exact kd-tree nearest neighbors, identical to :func:`_nn_brute`.

    For any ``n`` and ``d``, the tree proposes up to ``k = 8`` candidates
    per point; their exact squared distances are recomputed with
    :func:`_sqdist` (in row blocks of ``(rows, k, d)`` scratch within
    ``_BRUTE_BLOCK_ENTRIES``) and the smallest-index tie rule applied.  A
    row falls back to a brute scan whenever its candidate list cannot
    provably contain the exact nearest neighbor (more near-ties than
    candidates).
    """
    n, d = pts.shape
    k = min(n, 8)
    dist, cand = cKDTree(pts).query(pts, k=k)
    d2 = np.empty((n, k))
    block = max(1, _BRUTE_BLOCK_ENTRIES // (k * d))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        d2[rows] = _sqdist(pts[cand[rows]], pts[rows, None, :])
    d2[cand == np.arange(n)[:, None]] = np.inf  # mask self wherever it appears
    best = d2.min(axis=1)
    nn = np.where(d2 <= best[:, None], cand, n).min(axis=1)
    if k < n:
        # Points outside the candidate list are at least as far (by the
        # tree's arithmetic) as the k-th candidate, so the exact minimum is
        # provably inside the list when it beats that bound with slack.
        tree_last = dist[:, -1] ** 2
        unsure = ~(best < tree_last * (1.0 - _TIE_RTOL))
        for i in np.nonzero(unsure)[0]:
            nn[i] = _nn_brute_row(pts, i)
    return nn


def build_nn_graph(cloud) -> NnGraph:
    """Build the directed Euclidean nearest-neighbor graph.

    The kd-tree kernel :func:`_nn_tree` runs for every ``n`` and ``d``.
    It re-verifies its candidates with exact distances and breaks ties by
    smallest index, so the graph equals the all-pairs scan on any input.
    Duplicate rows are zero-distance ties: each copy points to the
    smallest-index other copy.

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
    """NN index of n uniform points on [0,1)^m under the chosen metric."""
    pts = rng.random((n, m))
    tree = cKDTree(pts, boxsize=1.0) if geometry == "torus" else cKDTree(pts)
    _, idx = tree.query(pts, k=2)
    nn = idx[:, 1].astype(np.int64)
    rows = np.arange(n)
    swapped = idx[:, 0] != rows  # zero-distance ties can displace self
    nn[swapped] = idx[swapped, 0]
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
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if n < 100:
        raise InvalidInputError(f"n must be >= 100, got {n}")
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    if geometry not in ("cube", "torus"):
        raise InvalidInputError(f"unknown geometry {geometry!r}")

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
