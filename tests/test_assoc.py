import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.assoc import (
    Assignment,
    apply_gate,
    build_cost_matrix,
    candidate_pairs,
    hungarian_solve,
    match_with_threshold,
    pair_costs,
)
from trackforge.core import cosine_distance, normalize
from trackforge.errors import DimensionError

from oracles import assignment_brute_force


def assert_partition(assignment: Assignment, n_rows: int, n_cols: int):
    rows = [r for r, _, _ in assignment.matches] + list(assignment.unmatched_tracks)
    cols = [c for _, c, _ in assignment.matches] + list(assignment.unmatched_detections)
    assert sorted(rows) == list(range(n_rows))
    assert sorted(cols) == list(range(n_cols))


class TestBuildCostMatrix:
    def test_identical_single_embeddings(self):
        e = normalize(np.array([1.0, 2.0, 3.0]))
        cost = build_cost_matrix([e], [e])
        assert cost.shape == (1, 1)
        assert cost[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_empty_tracks(self):
        e = normalize(np.array([1.0, 0.0]))
        assert build_cost_matrix([], [e, e, e]).shape == (0, 3)
        assert build_cost_matrix([e], []).shape == (1, 0)

    def test_matches_elementwise_recomputation(self):
        rng = np.random.default_rng(11)
        tracks = [normalize(rng.standard_normal(32)) for _ in range(3)]
        dets = [normalize(rng.standard_normal(32)) for _ in range(4)]
        cost = build_cost_matrix(tracks, dets)
        for i in range(3):
            for j in range(4):
                assert cost[i, j] == pytest.approx(cosine_distance(tracks[i], dets[j]), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_cost_matrix([normalize(np.ones(4))], [normalize(np.ones(5))])

    def test_arrays_equal_lists(self):
        rng = np.random.default_rng(12)
        tracks = normalize(rng.standard_normal((3, 32)))
        dets = normalize(rng.standard_normal((5, 32)))
        np.testing.assert_array_equal(
            build_cost_matrix(tracks, dets), build_cost_matrix(list(tracks), list(dets))
        )
        assert build_cost_matrix(np.zeros((0, 32)), dets).shape == (0, 5)
        assert build_cost_matrix(tracks, np.zeros((0, 32), dtype=np.float32)).shape == (3, 0)

    def test_mixed_shapes_in_one_list(self):
        with pytest.raises(DimensionError):
            build_cost_matrix([normalize(np.ones(4)), normalize(np.ones(5))], [normalize(np.ones(4))])
        with pytest.raises(DimensionError):
            build_cost_matrix(np.ones((2, 4)), np.ones((3, 5)))


class TestPairCosts:
    def test_matches_cost_matrix_entries(self):
        rng = np.random.default_rng(13)
        tracks = normalize(rng.standard_normal((6, 64)))
        dets = normalize(rng.standard_normal((5, 64)))
        rows, cols = rng.integers(0, 6, 20), rng.integers(0, 5, 20)
        costs = pair_costs(tracks[rows], dets[cols])
        assert costs.shape == (20,) and costs.dtype == np.float64
        np.testing.assert_allclose(costs, build_cost_matrix(tracks, dets)[rows, cols],
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(pair_costs(tracks[:1], tracks[:1]) >= 0.0, [True])

    def test_pair_cost_does_not_depend_on_neighbours(self):
        rng = np.random.default_rng(14)
        tracks = normalize(rng.standard_normal((40, 512)))
        dets = normalize(rng.standard_normal((40, 512)))
        costs = pair_costs(tracks, dets)
        alone = [pair_costs(tracks[k:k + 1], dets[k:k + 1])[0] for k in range(40)]
        np.testing.assert_array_equal(costs, alone)
        np.testing.assert_array_equal(costs[7:], pair_costs(tracks[7:], dets[7:]))
        # float32 rows cost what their float64 casts cost
        np.testing.assert_array_equal(
            costs, pair_costs(tracks.astype(np.float64), dets.astype(np.float64))
        )

    def test_empty_and_mismatched(self):
        assert pair_costs(np.zeros((0, 8)), np.zeros((0, 8))).shape == (0,)
        with pytest.raises(DimensionError):
            pair_costs(np.ones((2, 4)), np.ones((3, 4)))
        with pytest.raises(DimensionError):
            pair_costs(np.ones((2, 4)), np.ones((2, 5)))


def _dense_candidates(tracks, dets, radius2):
    delta = tracks[:, None, :] - dets[None, :, :]
    centre2 = delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1]
    rows, cols = np.nonzero(centre2 <= radius2[:, None])
    return rows, cols, centre2[rows, cols]


class TestCandidatePairs:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 12),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e3, 1e6]),
        st.sampled_from(["random", "zero", "on", "below", "above"]),
    )
    def test_same_pairs_and_bits_as_dense(self, n_tracks, n_dets, seed, scale, radius):
        rng = np.random.default_rng(seed)
        tracks = rng.uniform(-1, 1, (n_tracks, 2)) * scale
        dets = rng.uniform(-1, 1, (n_dets, 2)) * scale
        if n_tracks and n_dets:  # shared and repeated centres
            dets[rng.random(n_dets) < 0.3] = tracks[rng.integers(0, n_tracks)]
            dets[rng.random(n_dets) < 0.3, 0] = dets[0, 0]
        radius2 = rng.uniform(0, 0.5, n_tracks) * scale**2
        if radius == "zero":
            radius2[:] = 0.0
        elif radius != "random" and n_dets:
            # Each track's radius lands on its distance to one detection, or one ulp off it.
            _, _, exact = _dense_candidates(tracks, dets, np.full(n_tracks, np.inf))
            radius2 = exact.reshape(n_tracks, n_dets)[np.arange(n_tracks),
                                                      rng.integers(0, n_dets, n_tracks)]
            if radius != "on":
                radius2 = np.nextafter(radius2, 0.0 if radius == "below" else np.inf)
        rows, cols, centre2 = candidate_pairs(tracks, dets, radius2)
        order = np.lexsort((cols, rows))
        expected = _dense_candidates(tracks, dets, radius2)
        for got, want in zip((rows[order], cols[order], centre2[order]), expected):
            np.testing.assert_array_equal(got, want)


class TestApplyGate:
    def test_all_pass(self):
        cost = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = apply_gate(cost, np.zeros((2, 2)), 9.4877)
        np.testing.assert_array_equal(out, cost)

    def test_all_blocked(self):
        out = apply_gate(np.ones((2, 2)), np.full((2, 2), 100.0), 9.4877)
        assert np.all(np.isinf(out))

    def test_mixed_case(self):
        cost = np.array([[0.1, 0.2], [0.3, 0.4]])
        gate = np.array([[1.0, 20.0], [20.0, 1.0]])
        out = apply_gate(cost, gate, 9.4877)
        assert out[0, 0] == 0.1 and out[1, 1] == 0.4
        assert np.isinf(out[0, 1]) and np.isinf(out[1, 0])

    def test_never_decreases_entries(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(0, 2, (4, 5))
        gate = rng.uniform(0, 20, (4, 5))
        out = apply_gate(cost, gate, 9.4877)
        assert np.all(out >= cost)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            apply_gate(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)


class TestHungarianSolve:
    def test_diagonal_optimum(self):
        result = hungarian_solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sorted((r, c) for r, c, _ in result.matches) == [(0, 0), (1, 1)]
        assert sum(v for _, _, v in result.matches) == 0.0

    def test_antidiagonal_beats_greedy(self):
        result = hungarian_solve(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sorted((r, c) for r, c, _ in result.matches) == [(0, 1), (1, 0)]
        assert sum(v for _, _, v in result.matches) == 4.0

    def test_infeasible_row_left_unmatched(self):
        result = hungarian_solve(np.array([[np.inf, np.inf], [0.2, 0.9]]))
        assert result.unmatched_tracks == [0]
        assert [(r, c) for r, c, _ in result.matches] == [(1, 0)]

    def test_all_infinite(self):
        result = hungarian_solve(np.full((2, 3), np.inf))
        assert result.matches == []
        assert result.unmatched_tracks == [0, 1]
        assert result.unmatched_detections == [0, 1, 2]

    def test_empty_matrix(self):
        result = hungarian_solve(np.zeros((0, 3)))
        assert result.matches == [] and result.unmatched_detections == [0, 1, 2]

    def test_result_holds_python_numbers_in_order(self):
        cost = np.array([[np.inf, 0.5, np.inf], [0.25, np.inf, np.inf],
                         [np.inf, np.inf, np.inf], [np.inf, 0.1, np.inf]])
        result = hungarian_solve(cost)
        assert result.matches == [(1, 0, 0.25), (3, 1, 0.1)]
        assert result.unmatched_tracks == [0, 2]
        assert result.unmatched_detections == [2]
        for value in (*result.matches[0], *result.unmatched_tracks):
            assert type(value) in (int, float)

    def test_random_square_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cost = rng.uniform(0, 10, (5, 5))
            result = hungarian_solve(cost)
            card, total = assignment_brute_force(cost)
            assert len(result.matches) == card
            assert sum(v for _, _, v in result.matches) == pytest.approx(total, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.6),
    )
    def test_rectangular_with_inf_matches_brute_force(self, n_rows, n_cols, seed, inf_rate):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 10, (n_rows, n_cols))
        cost[rng.random((n_rows, n_cols)) < inf_rate] = np.inf
        result = hungarian_solve(cost)
        assert_partition(result, n_rows, n_cols)
        card, total = assignment_brute_force(cost)
        assert len(result.matches) == card
        assert sum(v for _, _, v in result.matches) == pytest.approx(total, abs=1e-9)


class TestMatchWithThreshold:
    def _solve(self, cost):
        return hungarian_solve(cost), np.asarray(cost)

    def test_max_cosine_keeps_everything(self):
        assignment, cost = self._solve(np.array([[0.5, 1.9], [1.9, 0.5]]))
        out = match_with_threshold(assignment, cost, 2.0)
        assert len(out.matches) == 2

    def test_zero_threshold_keeps_only_free_matches(self):
        assignment, cost = self._solve(np.array([[0.0, 1.0], [1.0, 0.5]]))
        out = match_with_threshold(assignment, cost, 0.0)
        assert [(r, c) for r, c, _ in out.matches] == [(0, 0)]
        assert out.unmatched_tracks == [1]
        assert out.unmatched_detections == [1]

    def test_single_match_dissolved(self):
        assignment, cost = self._solve(np.array([[0.7]]))
        out = match_with_threshold(assignment, cost, 0.5)
        assert out.matches == []
        assert out.unmatched_tracks == [0]
        assert out.unmatched_detections == [0]

    def test_partition_invariant_random(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n_rows, n_cols = rng.integers(0, 6, 2)
            cost = rng.uniform(0, 2, (n_rows, n_cols))
            out = match_with_threshold(hungarian_solve(cost), cost, float(rng.uniform(0, 2)))
            assert_partition(out, n_rows, n_cols)
