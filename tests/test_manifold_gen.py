import io
import json
import math

import numpy as np
import pytest

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
    sample_uniform_manifold,
    wshape,
)
from manifold_xi.manifold_gen import (
    read_dataset_csv,
    scenario_metadata,
    write_dataset_csv,
)
from manifold_xi.nn_graph import build_nn_graph


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

    def test_rejects_unknown_enums(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec("sine", "identity", m=1, rho=0.0, n=10)
        with pytest.raises(InvalidInputError):
            ScenarioSpec("linear", "pca", m=1, rho=0.0, n=10)
        with pytest.raises(InvalidInputError):
            ScenarioSpec("linear", "identity", m=1, rho=-0.5, n=10)


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
        build_nn_graph(data.x, strict=True)  # must not raise


class TestUniformManifoldSampler:
    def test_in_unit_cube_with_matching_moments(self):
        cloud = sample_uniform_manifold(1, 100_000, seed=9)
        pts = cloud.points
        assert pts.min() >= 0.0 and pts.max() < 1.0
        assert pts.mean() == pytest.approx(0.5, abs=0.005)
        assert pts.var() == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_deterministic(self):
        a = sample_uniform_manifold(2, 1000, seed=10)
        b = sample_uniform_manifold(2, 1000, seed=10)
        assert (a.points == b.points).all()

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sample_uniform_manifold(0, 10)


class TestDatasetCsv:
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
