"""Directed nearest-neighbor graphs and their motif counts.

Each point gets exactly one outgoing edge, to its Euclidean nearest
neighbor (distance ties broken by smallest index).  Two structural motifs
of this graph drive the null variance of the rank correlation coefficient:

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

# Above this ambient dimension an axis-aligned tree degrades to a linear
# scan anyway, so the tree method silently falls back to brute force.
TREE_DIMENSION_LIMIT = 20

# Relative slack used when deciding whether the tree's candidate list
# provably contains the exact nearest neighbor.  Squared distances carry a
# relative rounding error of a few ulps; 1e-9 is orders of magnitude wider.
_TIE_RTOL = 1e-9

_BRUTE_BLOCK_ENTRIES = 2**23  # bound on (rows x n x d) scratch per brute block


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


def as_point_cloud(x, strict: bool = False) -> PointCloud:
    """Coerce an array (or pass through a :class:`PointCloud`) with validation."""
    cloud = x if isinstance(x, PointCloud) else PointCloud(np.asarray(x, dtype=float))
    if strict:
        cloud.require_distinct()
    return cloud


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


def _torus_sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared wrap-around distance on the unit torus (coordinates in [0,1))."""
    diff = np.abs(a - b)
    diff = np.minimum(diff, 1.0 - diff)
    return (diff * diff).sum(axis=-1)


def _nn_brute(pts: np.ndarray) -> np.ndarray:
    n = pts.shape[0]
    nn = np.empty(n, dtype=np.int64)
    block = max(1, _BRUTE_BLOCK_ENTRIES // (n * pts.shape[1]))
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = _sqdist(pts[start:stop, None, :], pts[None, :, :])
        rows = np.arange(stop - start)
        d2[rows, start + rows] = np.inf
        # np.argmin returns the first minimum, i.e. the smallest index.
        nn[start:stop] = d2.argmin(axis=1)
    return nn


def _nn_brute_row(pts: np.ndarray, i: int) -> int:
    d2 = _sqdist(pts, pts[i])
    d2[i] = np.inf
    return int(d2.argmin())


def _nn_tree(pts: np.ndarray, workers: int = 1) -> np.ndarray:
    """Tree-accelerated nearest neighbors, identical to :func:`_nn_brute`.

    The tree proposes up to ``k`` candidates per point; exact squared
    distances are recomputed with :func:`_sqdist` and the smallest-index
    tie rule applied.  A row falls back to a brute scan whenever its
    candidate list cannot provably contain the exact nearest neighbor
    (more near-ties than candidates).
    """
    n = pts.shape[0]
    k = min(n, 8)
    tree = cKDTree(pts)
    dist, idx = tree.query(pts, k=k, workers=workers)
    cand = idx.astype(np.int64)
    d2 = _sqdist(pts[cand], pts[:, None, :])
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


def build_nn_graph(cloud, method: str = "auto", strict: bool = False,
                   workers: int = 1) -> NnGraph:
    """Build the directed Euclidean nearest-neighbor graph.

    Parameters
    ----------
    cloud : PointCloud or (n, d) array_like
        At least two points with finite coordinates.
    method : {"auto", "brute", "tree"}
        ``brute`` scans all pairs; ``tree`` uses a kd-tree with exact
        re-verification.  Both produce identical output on any input
        (ties broken by smallest index); ``auto`` picks by problem size.
        For ambient dimension above ``TREE_DIMENSION_LIMIT`` the tree
        method silently falls back to brute force.
    strict : bool
        If true, duplicate rows raise :class:`DuplicatePointsError`
        instead of being resolved as zero-distance ties.
    workers : int
        Worker threads for the tree query (brute force ignores it).

    Returns
    -------
    NnGraph
    """
    cloud = as_point_cloud(cloud, strict=strict)
    pts = cloud.points
    if method not in ("auto", "brute", "tree"):
        raise InvalidInputError(f"unknown method {method!r}")
    use_tree = method == "tree" or (method == "auto" and cloud.n > 600)
    if cloud.d > TREE_DIMENSION_LIMIT:
        use_tree = False
    nn = _nn_tree(pts, workers=workers) if use_tree else _nn_brute(pts)
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
        deg = np.bincount(nn, minlength=n)
        return (nn[nn] == np.arange(n)).sum() / n, (deg * (deg - 1)).sum() / n

    pair, triple = np.array(parallel_map(one, range(reps), threads)).T

    def se(a: np.ndarray) -> float:
        return float(a.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0

    return EmpiricalConstants(
        pair_rate=float(pair.mean()), triple_rate=float(triple.mean()),
        pair_stderr=se(pair), triple_stderr=se(triple),
        m=m, n=n, reps=reps, geometry=geometry,
    )
