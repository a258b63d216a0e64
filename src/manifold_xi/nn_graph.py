"""Directed nearest-neighbor graphs and their motif counts.

Each point gets exactly one outgoing edge, to its Euclidean nearest
neighbor (distance ties broken by smallest index), found by one exact
kd-tree kernel for every sample size and ambient dimension, on the cloud
:func:`_prescaled` gives, where no squared distance overflows:

1. Exact copies are merged first: each row maps to the smallest index of
   its equal rows, found by one sort of column 0 when that column alone
   proves the rows distinct, and by ``np.unique`` otherwise.
2. The kd-tree is built on the rows that are their own smallest index, in
   index order, and queried in its own leaf order for three candidates
   per row; exact squared distances and the smallest-index rule pick
   among them.  The rows go in blocks, spread over the usable CPUs once a
   round has ``_PARALLEL_ROWS`` rows (the queries and distance kernels
   release the GIL); the split changes no result.
3. Rows that list cannot provably settle (near-ties, as on lattices) are
   queried again with ``k <- 4k - 4`` candidates while ``k**2 <= n``, and
   any row left is compared with all rows.
4. A copy points to the smallest index among its other copies and any row
   at a distance that underflows to zero from it, which is the all-pairs
   answer; every other row already points to a group's smallest index.

Every exact squared distance adds its squared coordinate differences in
one order, coordinate by coordinate in a running sum, so the tree and the
all-pairs scan compare the same floats.  The tree's candidate check,
:func:`_sqdist`, subtracts coordinates and adds by numpy's ``sum(axis=0)``
over a leading coordinate axis (see :func:`_sum_squares`).  The all-pairs
matrix, :func:`_pairwise_sqdist` (the reference, whose argmin is the graph
of a harness replicate that runs dcor, and the dcor baseline's distance
matrices), is scipy's ``cdist(..., "sqeuclidean")``, which adds in the
same order; a tier-1 test pins both to an explicit running sum.

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
from scipy.spatial import cKDTree, distance

from .errors import DuplicatePointsError, InvalidInputError, as_real_array, check_choice, check_int
from .rngs import parallel_map, substream, worker_count

# Relative slack used when deciding whether the tree's candidate list
# provably contains the exact nearest neighbor.  Squared distances carry a
# relative rounding error of a few ulps; 1e-9 is orders of magnitude wider.
_TIE_RTOL = 1e-9

_SQDIST_BLOCK_ENTRIES = 2**16  # rows x k x d squares held at once by a tree round
_PARALLEL_ROWS = 10_000  # rounds this long split over the workers (measured crossover, d=3)
_SCALE_EXPONENT = 256  # clouds whose largest coordinate lies in 2**±this are not rescaled
GEOMETRIES = ("cube", "torus")  # metrics of estimate_constants_empirical


@dataclass(frozen=True)
class PointCloud:
    """An ``n x d`` matrix of finite real coordinates, ``n >= 2``."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_real_array("x", self.points)
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
        if (_smallest_equal_index(self.points) != np.arange(self.n)).any():
            raise DuplicatePointsError("point cloud contains duplicate rows")
        return self


def as_point_cloud(x) -> PointCloud:
    """Coerce an array (or pass through a :class:`PointCloud`) with validation."""
    return x if isinstance(x, PointCloud) else PointCloud(x)


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


def _sum_squares(diff: np.ndarray) -> np.ndarray:
    """``sum_j diff[j]**2`` over the leading coordinate axis of a fresh
    difference array, squared in place and added by numpy's ``sum(axis=0)``.

    When the trailing axes hold two pairs or more, numpy adds the
    coordinates in order, one running sum (the ``+=`` loop the tier-1
    tests write out); over a single pair it adds them in its pairwise order
    from ``d = 8``.  Every tree round covers two pairs or more, so it
    compares the floats of the all-pairs reference; only the copies'
    ``== 0.0`` check may cover one, and a sum of squares is zero in any
    order exactly when each square is.  At ``d = 1`` the square is
    returned as is: numpy's one-term reduce takes three to four times as
    long as a copy.
    """
    np.multiply(diff, diff, out=diff)
    return diff[0] if len(diff) == 1 else diff.sum(axis=0)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances between coordinate-major points.

    ``a[j]`` and ``b[j]`` hold coordinate ``j`` and broadcast together; the
    result is :func:`_sum_squares` of ``a - b``, with their broadcast
    shape.  The tree's candidate check and the copies' tie check use it, so
    candidates are compared, and the smallest-index tie rule applied, on
    the floats of the all-pairs reference.
    """
    return _sum_squares(np.subtract(a, b))


def _pairwise_sqdist(pts: np.ndarray) -> np.ndarray:
    """Exact ``(n, n)`` squared distances between the rows of ``pts``:
    scipy's ``cdist(pts, pts, "sqeuclidean")``, which adds each pair's
    squared differences in :func:`_sum_squares`'s running order, so the
    argmin is the tree's graph."""
    return distance.cdist(pts, pts, "sqeuclidean")


def _nn_argmin(d2: np.ndarray) -> np.ndarray:
    """Nearest other rows by the exact :func:`_pairwise_sqdist` matrix ``d2``
    (left unchanged): each row's first minimum off the diagonal."""
    d2 = d2.copy()
    np.fill_diagonal(d2, np.inf)
    return d2.argmin(axis=1)


def _nn_brute(pts: np.ndarray) -> np.ndarray:
    """All-pairs nearest neighbors, the reference :func:`_nn_tree` must equal."""
    return _nn_argmin(_pairwise_sqdist(pts))


def _prescaled(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """``(pts * 2**-e, e)`` with ``e`` the ``np.frexp`` exponent of the
    largest absolute coordinate if beyond ``±_SCALE_EXPONENT``, else
    ``(pts, 0)``.  The scale is exact and changes neither the graph nor a
    dcor ratio; every squared distance stays below ``4 d 2**512``."""
    e = int(np.frexp(max(pts.max(), -pts.min()))[1])
    return (pts, 0) if abs(e) <= _SCALE_EXPONENT else (np.ldexp(pts, -e), e)


def _smallest_equal_index(pts: np.ndarray) -> np.ndarray:
    """Each row's smallest equal index: ``np.arange(n)`` when one sort of
    column 0 proves the rows distinct, else from ``np.unique(axis=0)``."""
    col = np.sort(pts[:, 0])
    if (col[1:] != col[:-1]).all():
        return np.arange(len(pts))
    _, first, group = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    return first[group.ravel()]


def _verified_candidates(tree: cKDTree, pts: np.ndarray, cols: np.ndarray,
                         rows: np.ndarray, k: int):
    """Nearest neighbors of ``pts[rows]`` proposed by the tree's ``k`` nearest.

    In row blocks of ``(d, rows, k)``, the tree is queried, the candidates'
    exact squared distances recomputed with :func:`_sqdist` from
    ``cols = pts.T`` and the smallest-index tie rule applied.  A round of
    at least ``_PARALLEL_ROWS`` rows is split into at least one block per
    worker and the blocks run through :func:`parallel_map`, each writing its
    own slice; those running at once hold at most ``_SQDIST_BLOCK_ENTRIES``
    squared differences together, and no result depends on the split.
    At ``k = n`` every row is a candidate, in index order: no query, nothing
    to prove.  Returns the chosen indices and a mask of the rows whose list
    cannot provably contain the exact nearest neighbor.
    """
    n, d = pts.shape
    nn, unsure = np.empty(len(rows), dtype=np.intp), np.zeros(len(rows), dtype=bool)
    workers = worker_count(None) if len(rows) >= _PARALLEL_ROWS else 1
    block = max(1, min(_SQDIST_BLOCK_ENTRIES // (k * d * workers), -(-len(rows) // workers)))

    def one(start: int) -> None:
        blk = slice(start, start + block)
        if k < n:
            dist, cand = tree.query(pts[rows[blk]], k=k)
            other = np.take(cols, cand, axis=1)
        else:
            cand, other = np.arange(n), cols[:, None, :]
        d2 = _sqdist(other, np.take(cols, rows[blk], axis=1)[:, :, None])
        d2[cand == rows[blk, None]] = np.inf  # self, wherever it appears
        if k == n:  # np.argmin returns the first minimum, i.e. the smallest index
            nn[blk] = d2.argmin(axis=1)
        else:
            best = d2.min(axis=1)
            nn[blk] = np.where(d2 <= best[:, None], cand, n).min(axis=1)
            # rows outside the list are at least as far (by the tree's
            # arithmetic) as the k-th candidate: beating that bound with
            # slack proves the exact minimum is inside the list
            unsure[blk] = ~(best < dist[:, -1] ** 2 * (1.0 - _TIE_RTOL))

    parallel_map(one, range(0, len(rows), block), workers)
    return nn, unsure


def _nn_distinct(pts: np.ndarray) -> np.ndarray:
    """Exact nearest neighbors of rows no two of which are merged copies.

    Unsettled rows are queried again with ``k <- 4k - 4`` (3, 8, 28, 108,
    ...) while ``k**2 <= n``, then compared with all ``n`` rows.  Each
    round costs about four times the last, so the tree spends at most about
    ``sqrt(n)`` candidates on a row, far below the ``n`` of the last round,
    which only a row tied with more than ``sqrt(n)`` rows reaches (a
    lattice row ties with ``2d``).
    """
    n = len(pts)
    tree = cKDTree(pts)
    cols = np.ascontiguousarray(pts.T)
    rows = tree.indices  # leaf order: consecutive queries walk the same nodes
    nn, k = np.empty(n, dtype=np.intp), min(n, 3)
    while len(rows):
        nn[rows], unsure = _verified_candidates(tree, pts, cols, rows, k)
        rows, k = rows[unsure], (4 * k - 4 if (4 * k - 4) ** 2 <= n else n)
    return nn


def _nn_tree(pts: np.ndarray) -> np.ndarray:
    """Exact kd-tree nearest neighbors, identical to :func:`_nn_brute`.

    The kernel runs on the rows that are their own smallest equal index,
    gathered only when some row is a copy; a distinct cloud is passed
    as is.  Equal rows lie at equal distances from every row, so the rows
    at zero distance from a copy are its group and, when the group's
    kernel neighbor is at zero, that neighbor and rows of larger index.
    """
    n = len(pts)
    rep = _smallest_equal_index(pts)
    own = rep == np.arange(n)
    keep, copy = np.flatnonzero(own), np.flatnonzero(~own)
    nn = rep.copy()
    if len(keep) > 1:  # a neighbor's index is already its group's smallest
        nn[keep] = keep[_nn_distinct(pts[keep] if len(copy) else pts)]
    if len(copy):
        owner, first_copy = np.unique(rep[copy], return_index=True)
        near = nn[owner]  # the owner itself when it is the only distinct row
        tied = (near != owner) & (_sqdist(pts[owner].T, pts[near].T) == 0.0)
        near = np.where(tied, near, n)
        nn[owner] = np.minimum(copy[first_copy], near)
        rep[owner] = np.minimum(owner, near)  # what each group's copies point to
        nn[copy] = rep[rep[copy]]
    return nn


def build_nn_graph(cloud) -> NnGraph:
    """Build the directed Euclidean nearest-neighbor graph.

    Each row points to the smallest index among its nearest other rows, by
    exact squared distances of the :func:`_prescaled` cloud, so the graph
    equals that cloud's all-pairs scan on any input.  A duplicate row points
    to the smallest index among its other copies and any row whose distance
    to it underflows to zero; copies cost linear time on every input.

    Parameters
    ----------
    cloud : PointCloud or (n, d) array_like
        At least two points with finite coordinates.

    Returns
    -------
    NnGraph
    """
    cloud = as_point_cloud(cloud)
    nn = _nn_tree(_prescaled(cloud.points)[0])
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
    k=2 query: the verified :func:`_nn_tree` pass is slower on such points).

    The tree splits at the midpoint of each cell's spread
    (``balanced_tree=False``) and keeps the cells' full bounds
    (``compact_nodes=False``): on uniform points the cells stay balanced
    anyway, so the medians and shrunken bounds of the default build cost
    time without making the queries cheaper.  The flags change the tree,
    not the neighbors it finds.
    """
    pts = rng.random((n, m))
    tree = cKDTree(pts, balanced_tree=False, compact_nodes=False,
                   boxsize=1.0 if geometry == "torus" else None)
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
    check_choice("geometry", geometry, GEOMETRIES)

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
