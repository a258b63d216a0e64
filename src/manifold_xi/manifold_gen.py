"""Synthetic data generators: latent models and manifold embeddings.

A scenario draws a latent pair ``(y, z)`` with ``z`` in ``R^m`` and then
maps ``z`` into ``R^{5m}`` either linearly (``z -> R z`` for a fixed
Gaussian matrix ``R``) or through a fixed smooth embedding whose five
blocks are ``z, z^2, sin(8 pi z), cos(4 pi z), exp(z)``.  Either way the
predictors live on an m-dimensional manifold inside a 5m-dimensional
ambient space, while the dependence between ``y`` and the manifold
position is controlled by ``rho`` (``rho = 0`` is exact independence).

Latent models
-------------
gaussian   ``(y, z)`` jointly normal, unit variances, correlation ``rho``
           between ``y`` and every coordinate of ``z`` (coordinates
           mutually independent); requires ``m * rho^2 < 1``.
additive   ``z_j`` i.i.d. uniform on [-1, 1] and
           ``y = rho * sum_j f(z_j) + C * eps`` with standard normal
           noise; the link ``f`` and noise scale ``C`` per case:

           ==========  ==============================  =====
           case        f(x)                            C
           ==========  ==============================  =====
           linear      x                               0.2
           quadratic   x^2                             0.1
           cosine      cos(8 pi x)                     0.1
           wshape      |x+0.5| if x<0 else |x-0.5|     0.025
           ==========  ==============================  =====
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DatasetFormatError,
    InvalidInputError,
    as_real_array,
    check_choice,
    check_int,
    check_real,
)
from .rngs import substream

CASES = ("gaussian", "linear", "quadratic", "cosine", "wshape")
TRANSFORMS = ("identity", "linear_embed", "manifold_embed")

ADDITIVE_NOISE = {"linear": 0.2, "quadratic": 0.1, "cosine": 0.1, "wshape": 0.025}


def wshape(x):
    """W-shaped link: ``|x + 0.5|`` left of zero, ``|x - 0.5|`` from zero on."""
    x = as_real_array("x", x)
    return np.where(x < 0, np.abs(x + 0.5), np.abs(x - 0.5))


ADDITIVE_LINKS = {
    "linear": lambda x: x,
    "quadratic": lambda x: x**2,
    "cosine": lambda x: np.cos(8.0 * np.pi * x),
    "wshape": wshape,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one synthetic scenario.

    ``seed`` drives the data draw and may be an int or a tuple key (see
    :func:`manifold_xi.rngs.substream`); ``r_seed`` drives only the linear
    embedding matrix, so replicates that share ``r_seed`` share ``R``.
    """

    case: str
    transform: str
    m: int
    rho: float
    n: int
    seed: int | tuple = 0
    r_seed: int = 0

    def __post_init__(self):
        check_choice("case", self.case, CASES)
        check_choice("transform", self.transform, TRANSFORMS)
        check_int("m", self.m, 1)
        check_int("n", self.n, 1)
        check_real("rho", self.rho, 0.0)
        if reason := _infeasibility(self.case, self.m, self.rho):
            raise InvalidInputError(reason)


def _infeasibility(case: str, m: int, rho: float) -> str | None:
    """Why the scenario has no sample (gaussian needs ``m * rho^2 < 1``), or ``None``."""
    if case == "gaussian" and m * rho**2 >= 1.0:
        return f"gaussian correlation infeasible: m*rho^2={m * rho**2:g} >= 1"
    return None


@dataclass(frozen=True)
class GeneratedData:
    """Embedded predictors, responses, and the latent coordinates."""

    x: np.ndarray
    y: np.ndarray
    latent_z: np.ndarray


def gen_latent(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw the latent sample ``(z, y)`` for a scenario.

    The gaussian case uses the explicit factorization
    ``y = rho * sum_j z_j + sqrt(1 - m rho^2) * eps`` with ``z`` standard
    normal, whose joint covariance matches the equi-correlation target
    exactly.  Additive cases draw ``z`` uniform on [-1, 1] and apply the
    case link.  Draw order (z first, then noise) is fixed, so output is
    bit-reproducible for a given seed.
    """
    rng = substream(spec.seed)
    if spec.case == "gaussian":
        z = rng.standard_normal((spec.n, spec.m))
        eps = rng.standard_normal(spec.n)
        y = spec.rho * z.sum(axis=1) + np.sqrt(1.0 - spec.m * spec.rho**2) * eps
    else:
        z = rng.uniform(-1.0, 1.0, size=(spec.n, spec.m))
        eps = rng.standard_normal(spec.n)
        link = ADDITIVE_LINKS[spec.case]
        y = spec.rho * link(z).sum(axis=1) + ADDITIVE_NOISE[spec.case] * eps
    return z, y


def linear_embedding_matrix(m: int, r_seed: int = 0) -> np.ndarray:
    """The fixed ``5m x m`` standard-normal embedding matrix for ``r_seed``.

    Deterministic in ``(r_seed, m)``: replicates that share ``r_seed`` see
    the same matrix, which is what makes linear-embedding power numbers a
    function of the realized matrix (hash it via :func:`matrix_hash`).
    """
    check_int("m", m, 1)
    return substream(r_seed, m).standard_normal((5 * m, m))


def _as_rows(name: str, value) -> np.ndarray:
    """``value`` as a 2-D float array of rows, a 1-D array as one column."""
    rows = as_real_array(name, value)
    if rows.ndim not in (1, 2):
        raise InvalidInputError(f"{name} must be a 1-D or 2-D array, got ndim={rows.ndim}")
    return rows[:, None] if rows.ndim == 1 else rows


def embed_linear(z: np.ndarray, r_seed: int = 0) -> np.ndarray:
    """Map latent rows through the fixed linear embedding: ``x_i = R z_i``."""
    z = _as_rows("z", z)
    r = linear_embedding_matrix(z.shape[1], r_seed)
    return z @ r.T


def embed_manifold(z: np.ndarray) -> np.ndarray:
    """Map latent rows through the fixed nonlinear embedding.

    Output columns are the five m-blocks ``[z, z^2, sin(8 pi z),
    cos(4 pi z), exp(z)]``; block 1 is the identity, so the map is
    injective and the output rank equals the latent dimension.
    """
    z = _as_rows("z", z)
    return np.hstack([
        z,
        z**2,
        np.sin(8.0 * np.pi * z),
        np.cos(4.0 * np.pi * z),
        np.exp(z),
    ])


def generate(spec: ScenarioSpec) -> GeneratedData:
    """Draw a scenario and apply its transform."""
    z, y = gen_latent(spec)
    if spec.transform == "identity":
        x = z
    elif spec.transform == "linear_embed":
        x = embed_linear(z, spec.r_seed)
    else:
        x = embed_manifold(z)
    return GeneratedData(x=x, y=y, latent_z=z)


def matrix_hash(a: np.ndarray) -> str:
    """Short content hash of an array (exact float bytes, shape-sensitive)."""
    a = np.ascontiguousarray(a)
    digest = hashlib.sha256()
    digest.update(str(a.shape).encode())
    digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def write_dataset_csv(stream, x: np.ndarray, y: np.ndarray) -> None:
    """Write a dataset as CSV with header ``y,x1..xD`` at full precision.
    ``x`` and ``y`` must be real and ``y`` 1-D, or ``InvalidInputError`` names them."""
    x, y = _as_rows("x", x), as_real_array("y", y)
    if y.ndim != 1:
        raise InvalidInputError(f"y must be 1-D, got ndim={y.ndim}")
    if x.shape[0] != y.shape[0]:
        raise InvalidInputError("x and y row counts differ")
    stream.write("y," + ",".join(f"x{j + 1}" for j in range(x.shape[1])) + "\n")
    for i in range(x.shape[0]):
        stream.write(repr(float(y[i])) + ","
                     + ",".join(repr(float(v)) for v in x[i]) + "\n")


def read_dataset_csv(stream) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``y,x1..xD`` CSV; malformed rows name their line number.

    numpy's C reader parses the body.  When it refuses the body, or finds
    fewer than two rows or the wrong width, a scan line by line decides:
    it names the offending line, skips blank lines, and reads the rare
    spellings ``float`` takes and numpy does not (such as ``1_000``).
    Either way the arrays are the same, bit for bit.
    """
    header = stream.readline()
    if not header:
        raise DatasetFormatError("line 1: empty file")
    cols = [c.strip() for c in header.strip().split(",")]
    if not cols or cols[0] != "y" or len(cols) < 2:
        raise DatasetFormatError("line 1: header must be y,x1,...,xD")
    width = len(cols)
    lines = stream.readlines()
    body = "".join(lines)
    # numpy warns on an empty body instead of refusing it, and it takes the
    # separators \x1c-\x1f for whitespace inside a field where float does not
    if body.strip() and not any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is not None and data.shape[0] >= 2 and data.shape[1] == width:
            return np.ascontiguousarray(data[:, 1:]), data[:, 0].copy()
    ys, xs = [], []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetFormatError(
                f"line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}") from None
        ys.append(row[0])
        xs.append(row[1:])
    if len(ys) < 2:
        raise DatasetFormatError(f"line {len(ys) + 1}: need at least 2 data rows")
    return np.asarray(xs), np.asarray(ys)


def scenario_metadata(spec: ScenarioSpec) -> dict:
    """JSON-ready sidecar: the scenario's fields, plus the R hash for ``linear_embed``."""
    meta = asdict(spec)
    if isinstance(spec.seed, tuple):
        meta["seed"] = list(spec.seed)
    if spec.transform == "linear_embed":
        meta["r_matrix_hash"] = matrix_hash(linear_embedding_matrix(spec.m, spec.r_seed))
    return meta
