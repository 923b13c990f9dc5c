"""Unit tests for ternary holographic projection and concatenation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypervector import cosine, random_bipolar
from repro.core.projection import (
    PROJECT_BLOCK_ROWS,
    TernaryProjection,
    concatenate_hypervectors,
)
from repro.utils.rng import derive_rng


class TestConcatenate:
    def test_1d_parts(self):
        a = np.ones(4)
        b = -np.ones(6)
        out = concatenate_hypervectors([a, b])
        assert out.shape == (10,)
        assert np.all(out[:4] == 1) and np.all(out[4:] == -1)

    def test_2d_parts(self):
        a = np.ones((3, 4))
        b = np.zeros((3, 2))
        out = concatenate_hypervectors([a, b])
        assert out.shape == (3, 6)

    def test_unequal_rows_raises(self):
        with pytest.raises(ValueError):
            concatenate_hypervectors([np.ones((3, 4)), np.ones((2, 4))])

    def test_mixed_ndim_raises(self):
        with pytest.raises(ValueError):
            concatenate_hypervectors([np.ones(4), np.ones((2, 4))])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            concatenate_hypervectors([])


class TestTernaryProjection:
    def test_matrix_values(self):
        proj = TernaryProjection(100, 80, seed=1)
        assert set(np.unique(proj.matrix)) <= {-1, 0, 1}
        assert proj.matrix.shape == (80, 100)

    def test_zero_fraction_respected(self):
        proj = TernaryProjection(1000, 500, zero_fraction=0.5, seed=2)
        zero_rate = np.mean(proj.matrix == 0)
        assert abs(zero_rate - 0.5) < 0.05

    def test_binarized_output(self):
        proj = TernaryProjection(64, 64, seed=3)
        out = proj.project(random_bipolar(64, seed=4).astype(float))
        assert out.shape == (64,)
        assert set(np.unique(out)) <= {-1, 1}

    def test_batch_projection(self):
        proj = TernaryProjection(32, 48, seed=5)
        out = proj.project(np.ones((7, 32)))
        assert out.shape == (7, 48)

    def test_deterministic(self):
        a = TernaryProjection(64, 64, seed=6).matrix
        b = TernaryProjection(64, 64, seed=6).matrix
        assert np.array_equal(a, b)

    def test_variance_preserving(self):
        """Non-binarized projection keeps per-element variance ~input's."""
        proj = TernaryProjection(2000, 2000, seed=7, binarize=False)
        inputs = random_bipolar(2000, count=50, seed=8).astype(float)
        out = proj.project(inputs)
        assert abs(out.std() - 1.0) < 0.15

    def test_similarity_preserved(self):
        """Similar inputs stay similar after projection (JL-style)."""
        proj = TernaryProjection(4000, 4000, seed=9, binarize=False)
        base = random_bipolar(4000, seed=10).astype(float)
        noisy = base.copy()
        flip = np.random.default_rng(11).choice(4000, 200, replace=False)
        noisy[flip] *= -1
        assert cosine(proj.project(base), proj.project(noisy)) > 0.8

    def test_dissimilarity_preserved(self):
        proj = TernaryProjection(4000, 4000, seed=12, binarize=False)
        a = random_bipolar(4000, seed=13).astype(float)
        b = random_bipolar(4000, seed=14).astype(float)
        assert abs(cosine(proj.project(a), proj.project(b))) < 0.1

    def test_holographic_spread(self):
        """Every output element mixes many input elements.

        Zeroing one input block must perturb (almost) all outputs a
        little instead of wiping a contiguous region — the property the
        Fig. 12 robustness relies on.
        """
        proj = TernaryProjection(1000, 1000, seed=15, binarize=False)
        x = random_bipolar(1000, seed=16).astype(float)
        damaged = x.copy()
        damaged[:500] = 0.0
        full = proj.project(x)
        partial = proj.project(damaged)
        # The surviving half keeps substantial global similarity.
        assert cosine(full, partial) > 0.5
        changed = np.mean(np.abs(full - partial) > 1e-12)
        assert changed > 0.95

    def test_rectangular_projection(self):
        proj = TernaryProjection(100, 30, seed=17)
        assert proj.project(np.ones(100)).shape == (30,)

    def test_multiplies_counts_nonzeros(self):
        proj = TernaryProjection(100, 50, zero_fraction=0.4, seed=18)
        assert proj.multiplies_per_vector() == np.count_nonzero(proj.matrix)

    def test_wrong_input_dimension(self):
        proj = TernaryProjection(10, 10, seed=19)
        with pytest.raises(ValueError):
            proj.project(np.ones(11))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TernaryProjection(0, 10)
        with pytest.raises(ValueError):
            TernaryProjection(10, 0)
        with pytest.raises(ValueError):
            TernaryProjection(10, 10, zero_fraction=1.0)
        with pytest.raises(ValueError):
            TernaryProjection(10, 10, zero_fraction=-0.1)

    def test_matrix_is_read_only(self):
        proj = TernaryProjection(20, 10, seed=20)
        with pytest.raises(ValueError):
            proj.matrix[0, 0] = 1
        with pytest.raises(AttributeError):
            proj.matrix = np.zeros((10, 20), dtype=np.int8)


class TestSparseKernel:
    """The CSR kernel against the historical dense draw and product."""

    @settings(max_examples=25, deadline=None)
    @given(
        in_dim=st.integers(1, 300),
        out_dim=st.integers(1, 300),
        zero_fraction=st.sampled_from([0.0, 1.0 / 3.0, 0.5, 0.9, 1 - 64 / 300]),
        batch=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(
        self, in_dim, out_dim, zero_fraction, batch, seed
    ):
        proj = TernaryProjection(
            in_dim, out_dim, zero_fraction=zero_fraction, seed=seed,
            binarize=False,
        )
        nonzero = (1.0 - zero_fraction) / 2.0
        reference = derive_rng(seed, "ternary-projection").choice(
            np.array([-1, 0, 1], dtype=np.int8),
            size=(out_dim, in_dim),
            p=[nonzero, zero_fraction, nonzero],
        )
        assert np.array_equal(proj.matrix, reference)
        assert proj.multiplies_per_vector() == np.count_nonzero(reference)

        dense_t = reference.T.astype(np.float64)
        rng = np.random.default_rng(seed)
        bipolar = random_bipolar(in_dim, count=batch, seed=seed)
        integers = rng.integers(-3, 4, size=(batch, in_dim))
        for exact in (bipolar, integers):
            expected = (exact.astype(np.float64) @ dense_t) * proj._scale
            assert np.array_equal(proj.project(exact), expected)
        real = rng.standard_normal((batch, in_dim))
        projected = proj.project(real)
        np.testing.assert_allclose(
            projected, (real @ dense_t) * proj._scale, rtol=1e-12, atol=1e-12
        )
        # Per-row determinism: a row's projection ignores its batch.
        for i in sorted({0, batch // 2, batch - 1, PROJECT_BLOCK_ROWS}):
            if 0 <= i < batch:
                assert np.array_equal(projected[i], proj.project(real[i]))
                assert np.array_equal(
                    projected[i], proj.project(real[i:i + 1])[0]
                )

    def test_keeps_no_dense_operand(self):
        """Building and using a bench-scale root projection stays small.

        The dense int8 matrix alone would be 15 MiB, its float64
        transpose 122 MiB.
        """
        queries = random_bipolar(3999, count=32, seed=21).astype(np.float64)
        tracemalloc.start()
        try:
            proj = TernaryProjection(
                3999, 3999, zero_fraction=1 - 64 / 3999, seed=22
            )
            proj.project(queries)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert retained < 8 * 2**20
