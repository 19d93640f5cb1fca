import math

import numpy as np
import pytest

from cheaptalk.errors import DimensionMismatchError
from cheaptalk.geometry import decoder_cost, encoder_cost
from cheaptalk.transforms import (
    LinearTransform,
    bias_aligning_transform,
    helmert_transform,
    pair_transform_2d,
    permutation_transform,
)


class TestPairTransform:
    def test_unit_diagonal_bias(self):
        t = pair_transform_2d([1.0, 1.0])
        assert np.array_equal(t.forward, [[-1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(t.transformed_bias, [0.0, 2.0])
        assert t.scale == 2.0

    def test_axis_bias(self):
        t = pair_transform_2d([0.0, 1.0])
        assert np.array_equal(t.forward, [[-1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(t.transformed_bias, [0.0, 1.0])

    def test_three_four_bias(self):
        t = pair_transform_2d([3.0, 4.0])
        assert np.allclose(t.transformed_bias, [0.0, 25.0])
        assert np.allclose(t.inverse, t.forward / 25.0)
        assert np.allclose(t.forward @ t.inverse, np.eye(2), atol=1e-14)

    def test_zero_bias_rejected(self):
        with pytest.raises(ValueError):
            pair_transform_2d([0.0, 0.0])

    def test_inverse_transpose_product(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = rng.normal(size=2)
            if not np.any(b):
                continue
            t = pair_transform_2d(b)
            b_tilde = float(b @ b)
            assert np.allclose(t.inverse.T @ t.inverse, np.eye(2) / b_tilde, atol=1e-10)

    def test_cost_decoupling(self):
        # scale * encoder_cost = (x1-y1)^2 + (x2-y2-b_tilde)^2, and the same
        # without the shift for the decoder cost
        rng = np.random.default_rng(1)
        for _ in range(300):
            b = rng.normal(size=2)
            if float(b @ b) < 1e-3:
                continue
            t = pair_transform_2d(b)
            b_tilde = float(b @ b)
            m, u = rng.normal(size=(2, 2), scale=3.0)
            x, y = t.apply(m), t.apply(u)
            lhs_e = encoder_cost(m, u, b) * t.scale
            rhs_e = (x[0] - y[0]) ** 2 + (x[1] - y[1] - b_tilde) ** 2
            assert lhs_e == pytest.approx(rhs_e, rel=1e-10, abs=1e-10)
            lhs_d = decoder_cost(m, u) * t.scale
            rhs_d = (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2
            assert lhs_d == pytest.approx(rhs_d, rel=1e-10, abs=1e-10)


class TestHelmert:
    def test_n2_matrix(self):
        t = helmert_transform(2)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(t.forward, [[s, -s], [s, s]], atol=1e-15)

    def test_n3_second_row(self):
        t = helmert_transform(3)
        assert np.allclose(t.forward[1], [1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6)])

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    def test_orthonormal_rows(self, n):
        t = helmert_transform(n)
        assert np.allclose(t.forward @ t.forward.T, np.eye(n), atol=1e-12)
        assert t.is_orthonormal

    @pytest.mark.parametrize("n,c", [(2, 1.0), (4, -0.7), (9, 2.5)])
    def test_equal_bias_image(self, n, c):
        t = helmert_transform(n, bias=c)
        expected = np.zeros(n)
        expected[-1] = math.sqrt(n) * c
        assert np.allclose(t.transformed_bias, expected, atol=1e-12)
        assert np.allclose(t.forward @ np.full(n, c), expected, atol=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            helmert_transform(1)


class TestBiasAligning:
    def test_already_aligned(self):
        t = bias_aligning_transform([0.0, 0.0, 2.0])
        assert np.allclose(t.forward[2], [0.0, 0.0, 1.0])
        assert np.allclose(t.transformed_bias, [0.0, 0.0, 2.0])

    def test_zero_bias_rejected(self):
        with pytest.raises(ValueError):
            bias_aligning_transform([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 33])
    def test_orthonormal_and_aligned(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            b = rng.normal(size=n)
            t = bias_aligning_transform(b)
            norm = np.linalg.norm(b)
            assert np.allclose(t.forward @ t.forward.T, np.eye(n), atol=1e-12)
            assert np.allclose(t.forward[-1], b / norm, atol=1e-12)
            expected = np.zeros(n)
            expected[-1] = norm
            assert np.allclose(t.transformed_bias, expected, atol=1e-12 * max(1, norm))

    @pytest.mark.parametrize("b", [
        [0.7, 0.7], [0.3, -0.3], [1.0, 1.0], [0.9, -0.8, 0.7],
        [0.9, -0.8, 0.7, -0.6, 0.5, -0.4, 0.3, -0.2],  # Householder in 8-D
    ])
    def test_revealed_entries_of_the_bias_image_are_exact_zeros(self, b):
        t = bias_aligning_transform(b)
        assert np.all(t.transformed_bias[:-1] == 0.0)
        assert t.transformed_bias[-1] == (t.forward @ np.asarray(b))[-1]
        assert t.transformed_bias[-1] == pytest.approx(np.linalg.norm(b), rel=1e-15)

    def test_distance_preservation(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=5)
        t = bias_aligning_transform(b)
        for _ in range(50):
            p, q = rng.normal(size=(2, 5))
            d0 = float(np.sum((p - q) ** 2))
            d1 = float(np.sum((t.apply(p) - t.apply(q)) ** 2))
            assert d1 == pytest.approx(d0, rel=1e-12)


class TestApply:
    def test_identity(self):
        t = permutation_transform(range(3))
        p = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(t.apply(p), p)
        assert np.array_equal(t.apply(p, "inverse"), p)

    def test_pair_forward_example(self):
        t = pair_transform_2d([1.0, 1.0])
        assert np.allclose(t.apply([1.0, 0.0]), [-1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        t = pair_transform_2d([0.3, -1.7])
        for _ in range(100):
            p = rng.normal(size=2, scale=10.0)
            assert np.allclose(t.apply(t.apply(p), "inverse"), p, atol=1e-10)

    def test_batch_apply(self):
        t = helmert_transform(4)
        pts = np.random.default_rng(10).normal(size=(17, 4))
        batch = t.apply(pts)
        rows = np.stack([t.apply(p) for p in pts])
        assert np.allclose(batch, rows, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_a_lone_row_rounds_as_in_any_batch(self, n):
        from cheaptalk.transforms import _apply_batch

        t = bias_aligning_transform(np.linspace(0.9, -0.2, n))
        pts = np.random.default_rng(n).normal(size=(200, n))
        batch = t.apply(pts)
        for i in range(pts.shape[0]):
            assert np.array_equal(t.apply(pts[i : i + 1])[0], batch[i]), i
        out = np.empty((n, 1))
        got = _apply_batch(t.forward, pts[:1], out=out)
        assert np.shares_memory(got, out) and np.array_equal(got[0], batch[0])

    def test_bad_direction_and_dim(self):
        t = permutation_transform(range(2))
        with pytest.raises(ValueError):
            t.apply([1.0, 2.0], "sideways")
        with pytest.raises(DimensionMismatchError):
            t.apply([1.0, 2.0, 3.0])


class TestConstruction:
    def test_mismatched_inverse_rejected(self):
        with pytest.raises(ValueError):
            LinearTransform(
                forward=np.eye(2), inverse=2 * np.eye(2),
                transformed_bias=np.zeros(2), scale=1.0,
            )

    def test_permutation(self):
        t = permutation_transform([2, 0, 1], bias=[1.0, 2.0, 3.0])
        assert np.allclose(t.apply([10.0, 20.0, 30.0]), [30.0, 10.0, 20.0])
        assert np.allclose(t.transformed_bias, [3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            permutation_transform([0, 0, 1])
