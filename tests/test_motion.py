import numpy as np
import pytest
import scipy.stats

from trackforge.errors import InvalidMeasurementError, NumericError
from trackforge.motion import CHI2_GATE_95_4DOF, KalmanFilter, KalmanState

from oracles import KalmanOracle


@pytest.fixture
def kf():
    return KalmanFilter()


def random_measurement(rng):
    return np.array(
        [rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(0.3, 3.0), rng.uniform(10, 300)]
    )


def assert_psd(cov, tol=1e-9):
    np.testing.assert_allclose(cov, cov.T, atol=tol)
    assert np.min(np.linalg.eigvalsh(cov)) >= -tol


class TestInitiate:
    def test_mean_has_zero_velocity(self, kf):
        state = kf.initiate(np.array([1.0, 1.0, 1.0, 2.0]))
        np.testing.assert_array_equal(state.mean, [1, 1, 1, 2, 0, 0, 0, 0])

    def test_covariance_symmetric_psd(self, kf):
        state = kf.initiate(np.array([10.0, 20.0, 0.5, 40.0]))
        assert_psd(state.covariance)

    def test_deterministic(self, kf):
        z = np.array([3.0, 4.0, 1.5, 22.0])
        a, b = kf.initiate(z), kf.initiate(z)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_non_positive_height_rejected(self, kf):
        with pytest.raises(InvalidMeasurementError):
            kf.initiate(np.array([0.0, 0.0, 1.0, 0.0]))


class TestPredict:
    def test_zero_velocity_keeps_position(self, kf):
        state = kf.initiate(np.array([5.0, 6.0, 1.0, 10.0]))
        predicted = kf.predict(state)
        np.testing.assert_array_equal(predicted.mean[:4], state.mean[:4])

    def test_one_euler_step(self, kf):
        state = KalmanState(
            mean=np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0]),
            covariance=np.eye(8),
        )
        np.testing.assert_array_equal(kf.predict(state).mean[:4], [3, 4, 1, 2])

    def test_trace_non_decreasing(self, kf):
        rng = np.random.default_rng(0)
        state = kf.initiate(random_measurement(rng))
        for _ in range(10):
            predicted = kf.predict(state)
            assert np.trace(predicted.covariance) >= np.trace(state.covariance)
            state = predicted


class TestUpdate:
    def test_zero_innovation_keeps_position(self, kf):
        state = kf.predict(kf.initiate(np.array([10.0, 20.0, 1.0, 40.0])))
        updated = kf.update(state, state.mean[:4].copy())
        np.testing.assert_allclose(updated.mean[:4], state.mean[:4], atol=1e-9)

    def test_update_shrinks_position_variance(self, kf):
        state = kf.predict(kf.initiate(np.array([10.0, 20.0, 1.0, 40.0])))
        updated = kf.update(state, np.array([11.0, 21.0, 1.0, 41.0]))
        assert updated.covariance[0, 0] < state.covariance[0, 0]
        assert updated.covariance[1, 1] < state.covariance[1, 1]


class TestOracleEquivalence:
    def test_random_sequences_match_reference(self, kf):
        oracle = KalmanOracle()
        rng = np.random.default_rng(42)
        for _ in range(100):
            z0 = random_measurement(rng)
            state = kf.initiate(z0)
            mean, cov = oracle.initiate(z0)
            np.testing.assert_allclose(state.mean, mean, atol=1e-9)
            np.testing.assert_allclose(state.covariance, cov, atol=1e-9)
            for _ in range(rng.integers(1, 8)):
                state = kf.predict(state)
                mean, cov = oracle.predict(mean, cov)
                np.testing.assert_allclose(state.mean, mean, atol=1e-9)
                np.testing.assert_allclose(state.covariance, cov, atol=1e-9)
                assert_psd(state.covariance)
                if rng.random() < 0.7:
                    z = state.mean[:4] + np.array(
                        [rng.normal(0, 2), rng.normal(0, 2), rng.normal(0, 0.05), rng.normal(0, 2)]
                    )
                    z[3] = max(z[3], 1.0)
                    state = kf.update(state, z)
                    mean, cov = oracle.update(mean, cov, z)
                    np.testing.assert_allclose(state.mean, mean, atol=1e-9)
                    np.testing.assert_allclose(state.covariance, cov, atol=1e-9)
                    assert_psd(state.covariance)


class TestGatingDistance:
    def test_zero_at_projected_mean(self, kf):
        state = kf.predict(kf.initiate(np.array([10.0, 20.0, 1.0, 40.0])))
        dist = kf.gating_distance(state, state.mean[:4][None, :])
        assert dist[0] == pytest.approx(0.0, abs=1e-9)

    def test_elementwise_reorder_invariance(self, kf):
        rng = np.random.default_rng(7)
        state = kf.predict(kf.initiate(random_measurement(rng)))
        zs = np.stack([random_measurement(rng) for _ in range(5)])
        forward = kf.gating_distance(state, zs)
        reversed_ = kf.gating_distance(state, zs[::-1])
        np.testing.assert_allclose(forward, reversed_[::-1], atol=1e-12)

    def test_scalar_case(self, kf):
        # Choose covariance so the projected innovation covariance is 4 * I:
        # with h = 20, R = diag((1, 1, 1e-2, 1)), so P's position diagonal is 4 - R.
        cov = np.zeros((8, 8))
        cov[:4, :4] = np.diag([3.0, 3.0, 4.0 - 1e-2, 3.0])
        state = KalmanState(mean=np.array([0.0, 0.0, 1.0, 20.0, 0, 0, 0, 0]), covariance=cov)
        dist = kf.gating_distance(state, np.array([[2.0, 0.0, 1.0, 20.0]]))
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference(self, kf):
        oracle = KalmanOracle()
        rng = np.random.default_rng(3)
        z0 = random_measurement(rng)
        state = kf.predict(kf.initiate(z0))
        mean, cov = oracle.predict(*oracle.initiate(z0))
        zs = np.stack([random_measurement(rng) for _ in range(6)])
        np.testing.assert_allclose(
            kf.gating_distance(state, zs), oracle.gating(mean, cov, zs), atol=1e-9
        )


class TestGateConstant:
    def test_matches_chi_square_quantile(self):
        assert abs(CHI2_GATE_95_4DOF - scipy.stats.chi2.ppf(0.95, df=4)) < 1e-3


class TestConvergence:
    def test_noiseless_constant_velocity(self, kf):
        velocity = np.array([4.0, -2.0, 0.0, 0.0])
        start = np.array([100.0, 200.0, 0.8, 50.0])
        state = kf.initiate(start)
        errors = []
        for frame in range(1, 21):
            truth = start + velocity * frame
            state = kf.predict(state)
            state = kf.update(state, truth)
            errors.append(np.linalg.norm(state.mean[:2] - truth[:2]))
        assert errors[19] < errors[2]


def random_states(kf, rng, count):
    """``count`` single-track states, each a few random predict/update cycles old."""
    states = []
    for _ in range(count):
        state = kf.initiate(random_measurement(rng))
        for _ in range(rng.integers(1, 5)):
            state = kf.predict(state)
            z = state.mean[:4] + rng.normal(0, 2, 4)
            z[3] = max(z[3], 1.0)
            state = kf.update(state, z)
        states.append(state)
    return states


def stack(states):
    return KalmanState(
        mean=np.array([s.mean for s in states]).reshape(-1, 8),
        covariance=np.array([s.covariance for s in states]).reshape(-1, 8, 8),
    )


class TestBatched:
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_predict_matches_slices_and_oracle(self, kf, count):
        oracle = KalmanOracle()
        states = random_states(kf, np.random.default_rng(count), count)
        batched = kf.predict(stack(states))
        assert batched.mean.shape == (count, 8)
        assert batched.covariance.shape == (count, 8, 8)
        for i, state in enumerate(states):
            single = kf.predict(state)
            mean, cov = oracle.predict(state.mean, state.covariance)
            np.testing.assert_allclose(batched.mean[i], single.mean, atol=1e-9)
            np.testing.assert_allclose(batched.covariance[i], single.covariance, atol=1e-9)
            np.testing.assert_allclose(batched.mean[i], mean, atol=1e-9)
            np.testing.assert_allclose(batched.covariance[i], cov, atol=1e-9)

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_update_matches_slices_and_oracle(self, kf, count):
        oracle = KalmanOracle()
        rng = np.random.default_rng(10 + count)
        states = [kf.predict(s) for s in random_states(kf, rng, count)]
        zs = np.array([s.mean[:4] + rng.normal(0, 2, 4) for s in states]).reshape(-1, 4)
        batched = kf.update(stack(states), zs)
        assert batched.mean.shape == (count, 8)
        for i, (state, z) in enumerate(zip(states, zs)):
            single = kf.update(state, z)
            mean, cov = oracle.update(state.mean, state.covariance, z)
            np.testing.assert_allclose(batched.mean[i], single.mean, atol=1e-9)
            np.testing.assert_allclose(batched.covariance[i], single.covariance, atol=1e-9)
            np.testing.assert_allclose(batched.mean[i], mean, atol=1e-9)
            np.testing.assert_allclose(batched.covariance[i], cov, atol=1e-9)

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_gating_matches_slices_and_oracle(self, kf, count):
        oracle = KalmanOracle()
        rng = np.random.default_rng(20 + count)
        states = [kf.predict(s) for s in random_states(kf, rng, count)]
        zs = np.stack([random_measurement(rng) for _ in range(5)])
        batched = kf.gating_distance(stack(states), zs)
        assert batched.shape == (count, 5)
        for i, state in enumerate(states):
            np.testing.assert_allclose(batched[i], kf.gating_distance(state, zs), atol=1e-9)
            np.testing.assert_allclose(
                batched[i], oracle.gating(state.mean, state.covariance, zs), atol=1e-9
            )

    @pytest.mark.parametrize("bad", ["nan", "singular"])
    def test_one_bad_row_raises_numeric_error(self, kf, bad):
        rng = np.random.default_rng(30)
        states = stack([kf.predict(s) for s in random_states(kf, rng, 4)])
        mean, cov = states.mean.copy(), states.covariance.copy()
        if bad == "nan":
            cov[2, 1, 1] = np.nan
        else:
            # Zero height removes the measurement noise; a zero covariance leaves
            # the innovation covariance all zeros.
            mean[2, 3] = 0.0
            cov[2] = 0.0
        broken = KalmanState(mean=mean, covariance=cov)
        zs = np.stack([random_measurement(rng) for _ in range(3)])
        with pytest.raises(NumericError):
            kf.gating_distance(broken, zs)
        with pytest.raises(NumericError):
            kf.update(broken, zs[[0, 1, 2, 0]])


class TestProjection:
    def test_update_with_shared_projection_is_bit_identical(self, kf):
        rng = np.random.default_rng(40)
        states = stack([kf.predict(s) for s in random_states(kf, rng, 6)])
        zs = states.mean[:, :4] + rng.normal(0, 2, (6, 4))
        rows = [4, 1, 3]
        own = kf.update(KalmanState(states.mean[rows], states.covariance[rows]), zs[rows])
        shared = kf.update(
            KalmanState(states.mean[rows], states.covariance[rows]), zs[rows],
            kf.factor(states).take(rows),
        )
        np.testing.assert_array_equal(shared.mean, own.mean)
        np.testing.assert_array_equal(shared.covariance, own.covariance)

    def test_gathered_pairs_equal_dense_distances(self, kf):
        rng = np.random.default_rng(41)
        states = stack([kf.predict(s) for s in random_states(kf, rng, 5)])
        zs = np.stack([random_measurement(rng) for _ in range(7)])
        dense = kf.gating_distance(states, zs)
        rows, cols = np.nonzero(np.ones(dense.shape, dtype=bool))
        pairs = kf.factor(states).take(rows).distance(zs[cols, None])
        assert pairs.shape == (35, 1)
        np.testing.assert_array_equal(pairs[:, 0], dense[rows, cols])

    @pytest.mark.parametrize("threshold", [1.0, CHI2_GATE_95_4DOF, 100.0])
    def test_gate_radius_holds_every_pair_inside_the_gate(self, kf, threshold):
        rng = np.random.default_rng(42)
        states = stack([kf.predict(s) for s in random_states(kf, rng, 30)])
        zs = states.mean[rng.integers(0, 30, 200), :4] + rng.normal(0, 6, (200, 4))
        zs[:, 2:] = np.abs(zs[:, 2:]) + 0.1
        projection = kf.factor(states)
        dense = projection.distance(zs)
        delta = states.mean[:, None, :2] - zs[None, :, :2]
        centre2 = np.sum(delta * delta, axis=2)
        inside = dense <= threshold
        radius2 = np.broadcast_to(projection.gate_radius2(threshold)[:, None], dense.shape)
        assert inside.any() and np.all(centre2[inside] <= radius2[inside])
