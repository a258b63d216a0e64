import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_xi import (
    DatasetFormatError,
    InvalidInputError,
    ScenarioSpec,
    embed_linear,
    embed_manifold,
    gen_latent,
    generate,
    linear_embedding_matrix,
    matrix_hash,
    wshape,
)
from manifold_xi.manifold_gen import (
    read_dataset_csv,
    scenario_metadata,
    write_dataset_csv,
)


class TestWshape:
    def test_pinned_values(self):
        assert wshape(-0.5) == 0.0
        assert wshape(0.5) == 0.0
        assert wshape(0.0) == 0.5
        assert wshape(-1.0) == 0.5
        assert wshape(1.0) == 0.5

    def test_vectorized(self):
        np.testing.assert_allclose(wshape([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                   [0.5, 0.0, 0.5, 0.0, 0.5])


class TestScenarioSpec:
    def test_accepts_paper_grid(self):
        for m in (1, 2, 3, 5, 10):
            for rho in (0.0, 0.05, 0.1, 0.15, 0.2):
                ScenarioSpec("gaussian", "linear_embed", m=m, rho=rho, n=100)

    def test_rejects_infeasible_gaussian(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec("gaussian", "identity", m=30, rho=0.2, n=100)
        with pytest.raises(InvalidInputError, match="infeasible: m\\*rho\\^2=1 >= 1"):
            ScenarioSpec("gaussian", "identity", m=4, rho=0.5, n=100)  # exactly 1

    def test_rejects_unknown_enums(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec("sine", "identity", m=1, rho=0.0, n=10)
        with pytest.raises(InvalidInputError):
            ScenarioSpec("linear", "pca", m=1, rho=0.0, n=10)
        with pytest.raises(InvalidInputError):
            ScenarioSpec("linear", "identity", m=1, rho=-0.5, n=10)

    @pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan,
                                     pytest.param(10**400, id="int-beyond-float")])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(InvalidInputError, match="rho must be finite"):
            ScenarioSpec("linear", "identity", m=1, rho=rho, n=10)


class TestLatentModels:
    def test_bit_reproducible(self):
        spec = ScenarioSpec("quadratic", "identity", m=3, rho=0.1, n=50, seed=9)
        z1, y1 = gen_latent(spec)
        z2, y2 = gen_latent(spec)
        assert (z1 == z2).all() and (y1 == y2).all()

    def test_gaussian_null_is_independent(self):
        spec = ScenarioSpec("gaussian", "identity", m=2, rho=0.0, n=100_000, seed=1)
        z, y = gen_latent(spec)
        for j in range(2):
            assert abs(np.corrcoef(y, z[:, j])[0, 1]) < 0.01

    def test_gaussian_covariance_matches_target(self):
        m, rho = 3, 0.15
        spec = ScenarioSpec("gaussian", "identity", m=m, rho=rho, n=200_000, seed=2)
        z, y = gen_latent(spec)
        assert y.var() == pytest.approx(1.0, abs=0.02)
        for j in range(m):
            assert z[:, j].var() == pytest.approx(1.0, abs=0.02)
            assert np.cov(y, z[:, j])[0, 1] == pytest.approx(rho, abs=0.01)
        # latent coordinates mutually independent
        assert abs(np.cov(z[:, 0], z[:, 1])[0, 1]) < 0.01

    def test_linear_case_variance_arithmetic(self):
        # var(y) = rho^2 * var(z) + C^2 = 0.04/3 + 0.04 for rho=0.2, m=1
        spec = ScenarioSpec("linear", "identity", m=1, rho=0.2, n=100_000, seed=3)
        _, y = gen_latent(spec)
        expected = 0.04 / 3.0 + 0.04
        assert y.var() == pytest.approx(expected, rel=0.05)

    def test_additive_latents_are_uniform(self):
        spec = ScenarioSpec("cosine", "identity", m=2, rho=0.1, n=100_000, seed=4)
        z, _ = gen_latent(spec)
        assert z.min() >= -1.0 and z.max() <= 1.0
        assert z.mean() == pytest.approx(0.0, abs=0.01)
        assert z.var() == pytest.approx(1.0 / 3.0, rel=0.02)


class TestEmbeddings:
    def test_manifold_blocks_at_zero(self):
        x = embed_manifold(np.zeros((1, 2)))
        np.testing.assert_allclose(x, [[0, 0, 0, 0, 0, 0, 1, 1, 1, 1]], atol=1e-15)

    def test_manifold_blocks_at_quarter(self):
        x = embed_manifold(np.array([[0.25]]))
        expected = [0.25, 0.0625, math.sin(2 * math.pi), math.cos(math.pi),
                    math.exp(0.25)]
        np.testing.assert_allclose(x[0], expected, atol=1e-15)

    def test_first_block_is_identity(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-1, 1, size=(40, 3))
        x = embed_manifold(z)
        assert x.shape == (40, 15)
        assert (x[:, :3] == z).all()

    def test_linear_embedding_matrix_on_basis_rows(self):
        # basis row e_j maps to the j-th column of the embedding matrix
        r = linear_embedding_matrix(3, r_seed=8)
        x = embed_linear(np.eye(3), r_seed=8)
        np.testing.assert_allclose(x, r.T, atol=0)

    def test_linear_embedding_rank_bounded_by_latent_dim(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((60, 2))
        x = embed_linear(z, r_seed=1)
        assert x.shape == (60, 10)
        assert np.linalg.matrix_rank(x) <= 2

    def test_same_r_seed_shares_matrix_across_data_seeds(self):
        h1 = matrix_hash(linear_embedding_matrix(2, r_seed=5))
        h2 = matrix_hash(linear_embedding_matrix(2, r_seed=5))
        h3 = matrix_hash(linear_embedding_matrix(2, r_seed=6))
        assert h1 == h2 != h3

    @pytest.mark.parametrize("embed", [embed_linear, embed_manifold])
    def test_one_dimensional_latent_is_one_column(self, embed):
        z = [0.0, 0.25, -1.0]
        out = embed(z)
        assert out.shape == (3, 5)
        assert np.array_equal(out, embed(np.array(z)[:, None]))

    @pytest.mark.parametrize("embed", [embed_linear, embed_manifold])
    @pytest.mark.parametrize("z", [1.5, np.zeros((2, 3, 1))], ids=["scalar", "3-D"])
    def test_latent_of_another_ndim_refused(self, embed, z):
        with pytest.raises(InvalidInputError, match="ndim"):
            embed(z)

    def test_generate_dispatches_transforms(self):
        for transform, width in (("identity", 2), ("linear_embed", 10),
                                 ("manifold_embed", 10)):
            spec = ScenarioSpec("linear", transform, m=2, rho=0.1, n=30, seed=7)
            data = generate(spec)
            assert data.x.shape == (30, width)
            assert data.latent_z.shape == (30, 2)
            assert data.y.shape == (30,)

    def test_embedded_clouds_have_no_duplicates_at_paper_scale(self):
        spec = ScenarioSpec("gaussian", "manifold_embed", m=2, rho=0.0, n=100, seed=8)
        data = generate(spec)
        assert np.unique(data.x, axis=0).shape[0] == 100


def read_dataset_csv_by_lines(stream):
    """The line-by-line reader ``read_dataset_csv`` replaced, kept as its
    oracle: every body it accepts must give the same arrays bit for bit,
    and every body it refuses the same message."""
    header = stream.readline()
    if not header:
        raise DatasetFormatError("line 1: empty file")
    cols = [c.strip() for c in header.strip().split(",")]
    if not cols or cols[0] != "y" or len(cols) < 2:
        raise DatasetFormatError("line 1: header must be y,x1,...,xD")
    width = len(cols)
    ys, xs = [], []
    for lineno, line in enumerate(stream, start=2):
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


def parse_outcome(reader, text):
    """``("ok", shapes, bits)`` or ``("error", message)`` for one reader;
    NaN payloads and the sign of zero count."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, y = reader(io.StringIO(text))
    except DatasetFormatError as exc:
        return ("error", str(exc))
    assert x.dtype == y.dtype == np.float64 and x.flags.c_contiguous
    return ("ok", x.shape, y.shape, x.view(np.int64).tolist(), y.view(np.int64).tolist())


SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028"]
FIELDS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False, width=32).map(str),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-nan", "+NaN", "inf", "-Infinity", "+inf", "-0", "0.",
                     ".5", "1e400", "-1e-400", "1E5", "1_000", "\u0661", "", "zebra",
                     "1 2", "0x1p3", "1e", "--1", "\x00", '"1"', "nan(1)"]),
)
PADDED = st.tuples(st.sampled_from(["", ""] + SPACES), FIELDS,
                   st.sampled_from(["", ""] + SPACES)).map("".join)
ROWS = st.one_of(
    st.integers(1, 4).flatmap(lambda w: st.lists(PADDED, min_size=w, max_size=w)).map(",".join),
    st.lists(st.sampled_from(SPACES), max_size=2).map("".join),  # blank lines
)
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def csv_bodies(draw):
    """A header of 2-4 columns and a body of mostly well-formed rows."""
    width = draw(st.integers(2, 4))
    well_formed = st.lists(st.floats(allow_nan=False).map(repr), min_size=width,
                           max_size=width).map(",".join)
    rows = draw(st.lists(st.one_of(well_formed, well_formed, ROWS), max_size=6))
    ends = draw(st.lists(ENDINGS, min_size=len(rows), max_size=len(rows)))
    last = draw(st.sampled_from(["", "\n"]))
    header = "y," + ",".join(f"x{j + 1}" for j in range(width - 1)) + "\n"
    return header + "".join(r + e for r, e in zip(rows, ends)) + last


class TestDatasetCsv:
    @given(csv_bodies())
    @settings(max_examples=400, deadline=None)
    def test_reader_matches_the_line_by_line_oracle(self, text):
        assert (parse_outcome(read_dataset_csv, text)
                == parse_outcome(read_dataset_csv_by_lines, text))

    @pytest.mark.parametrize("text", [
        "y,x1\n1,2\n\n  \n\t\n3,4\n",  # blank and whitespace lines
        "y,x1\r\n1,2\r\n3,4\r\n",  # CRLF
        "y,x1\n1,2\n3,4,5\n", "y,x1,x2\n1,2\n3,4\n",  # wrong widths
        "y,x1\n1,2\n3,zebra\n", "y,x1\n1_0,2\n3,4\n",  # a bad float; one float takes
        "y,x1\nnan,inf\n-nan,-Infinity\n",
        "y,x1\n1,2\n", "y,x1\n", "y,x1\n\n\n", "y,x1\n \n",  # one row, empty bodies
        "y,x1\n1,2\r3,4\n",  # a lone carriage return is not a line break
        "y,x1\n1,2\x1c\n3,4\n", "y,x1\n1\x1c,2\n3,4\n",  # whitespace to numpy only
    ])
    def test_reader_matches_the_oracle_on_named_cases(self, text):
        assert (parse_outcome(read_dataset_csv, text)
                == parse_outcome(read_dataset_csv_by_lines, text))

    def test_parse_holds_no_copy_of_the_body(self):
        # the lines read take about 1.7 bytes per character of this body and
        # the arrays 0.4; the joined text the guards scan (1) is freed before
        # numpy starts, and a StringIO copy of the body would take 4 alone
        rng = np.random.default_rng(12)
        x, y = rng.random((200_000, 3)), rng.random(200_000)
        body = "".join(",".join(map(repr, row)) + "\n" for row in np.c_[y, x].tolist())
        stream = io.StringIO("y,x1,x2,x3\n" + body)
        tracemalloc.start()
        try:
            parsed = read_dataset_csv(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(parsed[0], x) and np.array_equal(parsed[1], y)
        assert peak < 4 * len(body)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        buf = io.StringIO()
        write_dataset_csv(buf, x, y)
        buf.seek(0)
        x2, y2 = read_dataset_csv(buf)
        assert (x2 == x).all() and (y2 == y).all()

    def test_header_layout(self):
        buf = io.StringIO()
        write_dataset_csv(buf, np.zeros((2, 2)), np.zeros(2))
        assert buf.getvalue().splitlines()[0] == "y,x1,x2"

    def test_parse_errors_name_line_numbers(self):
        bad_field_count = "y,x1\n1.0,2.0\n3.0\n"
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset_csv(io.StringIO(bad_field_count))
        bad_float = "y,x1\n1.0,2.0\n1.0,zebra\n"
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset_csv(io.StringIO(bad_float))
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset_csv(io.StringIO("a,b\n1,2\n"))
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset_csv(io.StringIO(""))

    def test_predictors_must_be_one_or_two_dimensional(self):
        with pytest.raises(InvalidInputError, match="x must be a 1-D or 2-D array"):
            write_dataset_csv(io.StringIO(), np.zeros((2, 2, 2)), [1.0, 2.0])
        buf = io.StringIO()
        write_dataset_csv(buf, [0.5, 1.5], [1.0, 2.0])  # one column
        assert buf.getvalue() == "y,x1\n1.0,0.5\n2.0,1.5\n"

    def test_response_must_be_one_dimensional(self):
        buf = io.StringIO()
        with pytest.raises(InvalidInputError, match="y must be 1-D"):
            write_dataset_csv(buf, np.zeros((3, 1)), np.zeros((3, 1)))
        assert buf.getvalue() == ""

    def test_sidecar_metadata_includes_r_hash_for_linear(self):
        spec = ScenarioSpec("linear", "linear_embed", m=2, rho=0.1, n=10,
                            seed=12, r_seed=3)
        meta = scenario_metadata(spec)
        assert meta["case"] == "linear"
        assert meta["r_matrix_hash"] == matrix_hash(linear_embedding_matrix(2, 3))
        json.dumps(meta)  # serializable
        meta_id = scenario_metadata(ScenarioSpec("linear", "identity", m=2,
                                                 rho=0.1, n=10))
        assert "r_matrix_hash" not in meta_id


class TestNonRealInput:
    """Array arguments that are not real numbers are refused, never cast."""

    @pytest.mark.parametrize("bad", [np.array([[1 + 1j], [2], [3]]), [["a"], ["b"], ["c"]],
                                     [[1.0], [2.0, 3.0], [4.0]]],
                             ids=["complex", "text", "ragged"])
    @pytest.mark.parametrize("call, name", [
        (wshape, "x"),
        (embed_linear, "z"),
        (embed_manifold, "z"),
        (lambda v: write_dataset_csv(io.StringIO(), v, [1.0, 2.0, 3.0]), "x"),
        (lambda v: write_dataset_csv(io.StringIO(), [[1.0], [2.0], [3.0]], v), "y"),
    ], ids=["wshape", "embed_linear", "embed_manifold", "csv_x", "csv_y"])
    def test_each_array_argument_refuses(self, call, name, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(InvalidInputError, match=f"^{name} must hold real numbers"):
                call(bad)
