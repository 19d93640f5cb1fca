import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheaptalk.errors import DimensionMismatchError
from cheaptalk.geometry import (
    Hyperplane,
    _assign_targets,
    assign_action,
    assign_actions_batch,
    decoder_cost,
    encoder_cost,
    g_slack_transformed,
    geo_slack,
    h_value,
    indifference_hyperplane,
    lambda_bar,
)
from cheaptalk.transforms import pair_transform_2d

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def vec(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(np.array)


class TestCosts:
    def test_encoder_cost_examples(self):
        assert encoder_cost([0, 0], [0, 0], [0, 0]) == 0.0
        assert encoder_cost([1.5, 0], [0, 0], [0.5, 0]) == 1.0
        assert encoder_cost([1, 1], [1, 1], [1, 1]) == 2.0

    def test_decoder_cost_examples(self):
        assert decoder_cost([1, 2], [1, 2]) == 0.0
        assert decoder_cost([1, 0], [0, 0]) == 1.0
        assert decoder_cost([1, 2], [-1, 0]) == 8.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            encoder_cost([1, 2], [1], [0, 0])
        with pytest.raises(DimensionMismatchError):
            decoder_cost([1, 2, 3], [1, 2])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            encoder_cost([np.nan, 0], [0, 0], [0, 0])


class TestIndifference:
    def test_h_value_examples(self):
        u1, u2, b = [0, 0], [2, 0], [0.5, 0]
        assert h_value([1.5, 7], u1, u2, b) == 0.0
        assert h_value([2, 0], u1, u2, b) == -1.0
        assert h_value([0, 0], u1, u2, b) == 3.0

    def test_identical_actions_rejected(self):
        with pytest.raises(ValueError):
            h_value([0, 0], [1, 1], [1, 1], [0, 0])

    def test_hyperplane_matches_h_value(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u1, u2, b, m = rng.normal(size=(4, 3))
            plane = indifference_hyperplane(u1, u2, b)
            assert plane.value(m) == pytest.approx(h_value(m, u1, u2, b), abs=1e-12)

    @given(vec(2), vec(2), vec(2), vec(2))
    @settings(max_examples=200)
    def test_sign_coherence(self, m, u1, u2, b):
        # positive h exactly when the encoder strictly prefers the first action
        if np.array_equal(u1, u2):
            return
        h = h_value(m, u1, u2, b)
        diff = encoder_cost(m, u2, b) - encoder_cost(m, u1, b)
        scale = max(1.0, abs(h), abs(diff))
        if abs(h) > 1e-9 * scale:
            assert (h > 0) == (diff > 0)
        assert diff == pytest.approx(2.0 * h, rel=1e-9, abs=1e-9 * scale)

    @given(vec(3), vec(3), vec(3), vec(3))
    @settings(max_examples=200)
    def test_antisymmetry(self, m, u1, u2, b):
        if np.array_equal(u1, u2):
            return
        a = h_value(m, u1, u2, b)
        c = h_value(m, u2, u1, b)
        assert a + c == pytest.approx(0.0, abs=1e-9 * max(1.0, abs(a)))


class TestSeparationSlack:
    def test_examples(self):
        assert geo_slack([0, 0], [0, 2], [1, 0]) == 4.0  # orthogonal pair always passes
        assert geo_slack([0, 0], [1, 0], [1, 0]) == -1.0
        assert geo_slack([1, 1], [1, 1], [5, 5]) == 0.0

    def test_symmetry_and_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ua, ub, b, t = rng.normal(size=(4, 3))
            s = geo_slack(ua, ub, b)
            assert s == pytest.approx(geo_slack(ub, ua, b), rel=1e-12, abs=1e-12)
            assert s == pytest.approx(geo_slack(ua + t, ub + t, b), rel=1e-9, abs=1e-9)

    def test_lambda_bar_examples(self):
        assert lambda_bar([0, 0], [0, 2], [1, 0]) == 0.5
        assert lambda_bar([0, 0], [2, 0], [1, 0]) == 1.0
        assert lambda_bar([0, 0], [4, 0], [1, 0]) == 0.75

    def test_lambda_bar_coincident_rejected(self):
        with pytest.raises(ValueError):
            lambda_bar([1, 2], [1, 2], [0, 1])

    def test_lambda_in_unit_interval_iff_slack_nonnegative(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(500):
            ua, ub, b = rng.normal(size=(3, 2))
            s = geo_slack(ua, ub, b)
            if abs(s) < 1e-12:
                continue
            lam = lambda_bar(ua, ub, b)
            assert (0.0 <= lam <= 1.0) == (s >= 0.0)
            checked += 1
        assert checked > 400

    def test_boundary_case(self):
        # slack exactly zero puts the crossing at an endpoint
        assert geo_slack([0, 0], [2, 0], [1, 0]) == 0.0
        assert lambda_bar([0, 0], [2, 0], [1, 0]) == 1.0


class TestTransformedSlack:
    def test_examples(self):
        assert g_slack_transformed([0, 0], [0, 0], 1.0) == 0.0
        assert g_slack_transformed([3, 5], [7, 5], 2.0) == 16.0  # equal second coordinates
        assert g_slack_transformed([0, 0], [0, 1], 2.0) == -3.0

    def test_requires_2d_and_positive_scale(self):
        with pytest.raises(DimensionMismatchError):
            g_slack_transformed([0, 0, 0], [1, 1, 1], 1.0)
        with pytest.raises(ValueError):
            g_slack_transformed([0, 0], [1, 1], 0.0)

    def test_consistency_with_source_units(self):
        # b_tilde * geo_slack(u_a, u_b, b) equals the transformed slack of T u
        rng = np.random.default_rng(3)
        for _ in range(200):
            ua, ub = rng.normal(size=(2, 2))
            b = rng.normal(size=2)
            if not np.any(b):
                continue
            t = pair_transform_2d(b)
            b_tilde = float(b @ b)
            lhs = b_tilde * geo_slack(ua, ub, b)
            rhs = g_slack_transformed(t.apply(ua), t.apply(ub), b_tilde)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestAssignment:
    def test_examples(self):
        actions = [[0, 0], [2, 0]]
        b = [0.5, 0]
        assert assign_action([1.5, 0], actions, b) == 0  # tie breaks to the lowest index
        assert assign_action([1.6, 0], actions, b) == 1
        assert assign_action([5, 5], [[3, 3]], [0, 0]) == 0

    def test_empty_action_set_rejected(self):
        with pytest.raises(ValueError):
            assign_action([0.0], np.empty((0, 1)), [0.0])

    def test_matches_argmin_of_encoder_cost(self):
        rng = np.random.default_rng(4)
        actions = rng.normal(size=(6, 2))
        b = rng.normal(size=2)
        for m in rng.normal(size=(100, 2)):
            costs = [encoder_cost(m, u, b) for u in actions]
            assert assign_action(m, actions, b) == int(np.argmin(costs))

    def test_regions_are_convex(self):
        rng = np.random.default_rng(5)
        actions = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        pts = rng.normal(size=(2000, 3), scale=2.0)
        idx = assign_actions_batch(pts, actions, b)
        thetas = rng.random(1000)
        p = pts[:1000]
        q = pts[1000:]
        same = idx[:1000] == idx[1000:]
        mix = p[same] * thetas[same, None] + q[same] * (1.0 - thetas[same, None])
        assert np.array_equal(
            assign_actions_batch(mix, actions, b), idx[:1000][same]
        )


def argmin_oracle(pts, acts, b):
    """The assignment as one argmin over an (N, K) score matrix."""
    pts = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    acts = np.asarray(acts, dtype=float).reshape(len(acts), -1)
    return np.argmin((-2.0 * (pts - b)) @ acts.T + np.sum(acts * acts, 1), axis=1)


class TestAssignmentExactness:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_action_sets(self, dim):
        rng = np.random.default_rng(10 + dim)
        for k in range(1, 9):
            acts = rng.normal(size=(k, dim))
            b = rng.normal(scale=0.5, size=dim)
            pts = rng.normal(scale=1.5, size=(20_000, dim))
            assert np.array_equal(assign_actions_batch(pts, acts, b), argmin_oracle(pts, acts, b))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_single_point_matches_its_batch(self, dim):
        # half the points lie on the indifference plane of actions 0 and 1,
        # where the last bit of each score decides the action
        rng = np.random.default_rng(20 + dim)
        for k in range(2, 8):
            acts = rng.normal(size=(k, dim))
            b = rng.normal(scale=0.5, size=dim)
            normal = acts[1] - acts[0]
            w = rng.normal(size=(40, dim))
            w -= np.outer(w @ normal / (normal @ normal), normal)
            pts = np.concatenate([b + (acts[0] + acts[1]) / 2 + w, rng.normal(size=(40, dim))])
            batch = assign_actions_batch(pts, acts, b)
            assert [assign_action(p, acts, b) for p in pts] == batch.tolist()

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_a_lone_target_scores_as_in_its_batch(self, dim, k):
        # on caller-owned buffers, as the certificate's chunks score: a lone
        # column would go to gemv, which rounds differently from gemm
        rng = np.random.default_rng(100 * dim + k)
        acts = rng.normal(size=(k, dim))
        t = np.ascontiguousarray(-2.0 * rng.normal(size=(dim, 300)))

        def scored(cols):
            m = cols.shape[1]
            best, second = np.empty(m), np.empty(m)
            idx = _assign_targets(cols, acts, np.empty((k, m)), best, np.empty(m, dtype=bool),
                                  np.empty(m, dtype=np.intp), second)
            return idx, best, second

        batch = scored(t)
        for j in range(t.shape[1]):
            lone = scored(np.ascontiguousarray(t[:, j : j + 1]))
            assert all(a[0] == b[j] for a, b in zip(lone, batch)), j

    def test_single_action(self):
        pts = np.random.default_rng(3).normal(size=(1000, 2))
        idx = assign_actions_batch(pts, [[0.3, -0.2]], [1.0, 0.5])
        assert idx.shape == (1000,) and not np.any(idx)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]])
    def test_ties_on_indifference_planes_go_to_the_lowest_index(self, order):
        # dyadic actions, bias and grid keep every score exact, so points on
        # the planes x = 1.5 and y = 1.25 tie two actions and (1.5, 1.25) all four
        acts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])[order]
        b = np.array([0.5, 0.25])
        g = np.arange(-2.0, 4.0, 0.25)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        scores = (-2.0 * (pts - b)) @ acts.T + np.sum(acts * acts, 1)
        tied = np.sum(scores == scores.min(axis=1, keepdims=True), axis=1)
        assert np.count_nonzero(tied == 2) > 0 and np.count_nonzero(tied == 4) == 1
        idx = assign_actions_batch(pts, acts, b)
        assert np.array_equal(idx, argmin_oracle(pts, acts, b))
        corner = np.flatnonzero((pts[:, 0] == 1.5) & (pts[:, 1] == 1.25))
        assert idx[corner[0]] == 0


class TestHyperplane:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane(normal=[0.0, 0.0], anchor=[1.0, 1.0])

    def test_membership_exact_on_anchor(self):
        plane = Hyperplane(normal=[1.0, -2.0], anchor=[3.0, 4.0])
        assert plane.value([3.0, 4.0]) == 0.0
