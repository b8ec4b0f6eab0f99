from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackforge.assoc as assoc_module
import trackforge.tracker as tracker_module
from trackforge.assoc import apply_gate, build_cost_matrix, hungarian_solve, match_with_threshold
from trackforge.core import (
    BoundingBox,
    DetectionBatch,
    box_to_measurement,
    cosine_distance,
    normalize,
)
from trackforge.detgen import NoiseParams, make_scenario, generate_frame, scenario_ground_truth
from trackforge.errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionError,
    InvalidBoxError,
    NumericError,
    OrderingError,
    TrackforgeError,
)
from trackforge.moteval import evaluate, outputs_to_frames
from trackforge.motion import CHI2_GATE_95_4DOF, KalmanFilter, KalmanState
from trackforge.postproc import parse_output
from trackforge.tracker import (
    GATE_METRICS,
    Tracker,
    TrackerConfig,
    Tracks,
    smooth_embedding,
)

DIM = 16


def unit(axis, dim=DIM):
    v = np.zeros(dim)
    v[axis] = 1.0
    return normalize(v)


def det(x, y, embedding, w=20.0, h=30.0, objectness=0.9):
    """One raw output row: tlwh box, objectness, class score, embedding."""
    return np.concatenate([[x, y, w, h, objectness, 1.0], embedding])


def frame_of(*rows):
    """Raw rows parsed the way the pipeline parses them; no rows is an empty frame."""
    return parse_output(np.reshape(rows, (-1, 6 + DIM)), DIM)


def config(**overrides):
    defaults = dict(embedding_dim=DIM)
    defaults.update(overrides)
    return TrackerConfig(**defaults)


def state_of(tracker):
    """Copies of every column of the tracker's table and of its other state."""
    columns = [column.copy() for column in tracker.tracks.columns()]
    return columns, tracker._next_id, set(tracker.removed_ids), tracker._last_frame


def assert_same_state(a, b):
    columns_a, *rest_a = a
    columns_b, *rest_b = b
    assert len(columns_a) == len(columns_b)
    for x, y in zip(columns_a, columns_b):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert rest_a == rest_b


class TestStepBasics:
    def test_empty_step_on_empty_tracker(self):
        tracker = Tracker(config())
        out = tracker.step(0, frame_of())
        assert out.frame_index == 0
        assert out.records == ()
        assert len(tracker.tracks) == 0

    def test_birth_then_rematch_keeps_id(self):
        tracker = Tracker(config())
        out0 = tracker.step(0, frame_of(det(100, 100, unit(0))))
        assert [r[0] for r in out0.records] == [1]
        out1 = tracker.step(1, frame_of(det(103, 101, unit(0))))
        assert [r[0] for r in out1.records] == [1]
        assert tracker.tracks.hits.tolist() == [2]

    def test_new_track_box_equals_measurement(self):
        tracker = Tracker(config())
        out = tracker.step(0, frame_of(det(100, 100, unit(0))))
        _, box, conf = out.records[0]
        assert box.x == pytest.approx(100.0, abs=1e-9)
        assert box.w == pytest.approx(20.0, abs=1e-9)
        assert conf == 0.9

    def test_unmatched_detections_spawn_fresh_ids(self):
        tracker = Tracker(config())
        tracker.step(0, frame_of(det(0, 0, unit(0)), det(200, 0, unit(1))))
        out = tracker.step(
            1, frame_of(det(0, 0, unit(0)), det(200, 0, unit(1)), det(400, 0, unit(2)))
        )
        assert [r[0] for r in out.records] == [1, 2, 3]

    def test_out_of_order_frame_rejected(self):
        tracker = Tracker(config())
        with pytest.raises(OrderingError):
            tracker.step(-1, frame_of())  # -1 marks an active track's lost_since
        tracker.step(5, frame_of())
        with pytest.raises(OrderingError):
            tracker.step(5, frame_of())
        with pytest.raises(OrderingError):
            tracker.step(3, frame_of())

    def test_rejected_frame_can_be_retried(self):
        tracker = Tracker(config())
        good = frame_of(det(100, 100, unit(0)))
        with pytest.raises(DimensionError):
            tracker.step(0, replace(good, embeddings=good.embeddings[:, :-1]))
        out = tracker.step(0, good)
        assert [r[0] for r in out.records] == [1]

    # Each box is finite with positive size, so parse_output accepts it, but its
    # measurement is not: the aspect overflows or underflows to 0, or the
    # center overflows. The last four have a finite measurement outside
    # MEASUREMENT_LIMIT, whose products in later frames would overflow.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "box",
        [
            (0, 0, 1e200, 1e-200), (0, 0, 1e-200, 1e200), (1.7e308, 0, 1e308, 1),
            (0, 0, 1e300, 1e300), (0, 0, 1e-200, 1e-200), (0, 0, 1e-320, 0.5), (-1e31, 0, 20, 30),
        ],
    )
    def test_box_without_measurement_rejected_before_any_change(self, box):
        tracker = Tracker(config())
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        before = state_of(tracker)
        x, y, w, h = box
        batch = frame_of(
            det(100, 100, unit(0)), det(x, y, unit(1), w=w, h=h), det(x, y, unit(2), w=w, h=h)
        )
        with pytest.raises(InvalidBoxError, match=r"^row 1: "):
            tracker.step(1, batch)
        assert_same_state(state_of(tracker), before)
        assert (tracker._next_id, tracker._last_frame) == (2, 0)

    # The centre bound of the gate, 1.01 * threshold * trace(S), overflows to
    # inf for a box this large: every pair is then a candidate, and the exact
    # Mahalanobis gate still decides.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gate_bound_overflow_admits_every_pair(self):
        tracker = Tracker(config(gate_threshold=1e300))
        for frame in range(3):
            out = tracker.step(frame, frame_of(det(0, 0, unit(0), w=2e10, h=3e10),
                                               det(5e10, 0, unit(1), w=2e10, h=3e10)))
            assert [r[0] for r in out.records] == [1, 2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("objectness", [0.9, 0.1])
    def test_non_finite_embedding_rejected_before_any_change(self, value, objectness):
        tracker = Tracker(config())
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        before = state_of(tracker)
        batch = frame_of(det(100, 100, unit(0)), det(300, 0, unit(1), objectness=objectness))
        batch.embeddings[1, 3] = value
        with pytest.raises(DegenerateEmbeddingError, match=r"^row 1: "):
            tracker.step(1, batch)
        assert_same_state(state_of(tracker), before)

    def test_missing_embedding_rejected(self):
        tracker = Tracker(config())
        with pytest.raises(DimensionError):
            tracker.step(0, parse_output(np.array([[0.0, 0.0, 20.0, 30.0, 0.9, 1.0]]), 0))

    def test_low_confidence_filtered_out(self):
        tracker = Tracker(config(conf_threshold=0.5))
        out = tracker.step(0, frame_of(det(0, 0, unit(0), objectness=0.4)))
        assert out.records == ()
        assert len(tracker.tracks) == 0


class TestLifecycle:
    def test_unmatched_track_lost_same_frame(self):
        tracker = Tracker(config())
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        assert tracker.tracks.lost_since.tolist() == [-1]  # active
        tracker.step(1, frame_of())
        assert tracker.tracks.lost_since.tolist() == [1]  # lost in frame 1

    def test_removed_after_max_lost_and_never_reappears(self):
        tracker = Tracker(config(max_lost=3))
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        for frame in range(1, 4):
            tracker.step(frame, frame_of())
            assert len(tracker.tracks) and tracker.tracks.lost_since[0] >= 0
        tracker.step(4, frame_of())  # lost for 4 > max_lost frames
        assert len(tracker.tracks) == 0
        assert tracker.removed_ids == {1}
        # Same appearance reappears: it must get a fresh id, not resurrect id 1.
        out = tracker.step(5, frame_of(det(100, 100, unit(0))))
        assert [r[0] for r in out.records] == [2]

    def test_lost_track_can_rematch_before_removal(self):
        tracker = Tracker(config(max_lost=5))
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        tracker.step(1, frame_of())
        tracker.step(2, frame_of())
        out = tracker.step(3, frame_of(det(100, 100, unit(0))))
        assert [r[0] for r in out.records] == [1]
        assert tracker.tracks.lost_since.tolist() == [-1]  # active again
        assert tracker.tracks.last_update.tolist() == [3]

    def test_ids_strictly_increasing_never_reused(self):
        rng = np.random.default_rng(0)
        tracker = Tracker(config(max_lost=1, max_cost=0.3))
        issued = []
        for frame in range(30):
            dets = [
                det(float(rng.uniform(0, 500)), float(rng.uniform(0, 500)),
                    normalize(rng.standard_normal(DIM)))
                for _ in range(rng.integers(0, 4))
            ]
            out = tracker.step(frame, frame_of(*dets))
            issued.extend(r[0] for r in out.records if r[0] not in issued)
            live = set(tracker.tracks.ids.tolist())
            assert not live & tracker.removed_ids
        assert issued == sorted(issued)

    def test_min_hits_delays_reporting(self):
        tracker = Tracker(config(min_hits=3))
        assert tracker.step(0, frame_of(det(0, 0, unit(0)))).records == ()
        assert tracker.step(1, frame_of(det(1, 0, unit(0)))).records == ()
        out = tracker.step(2, frame_of(det(2, 0, unit(0))))
        assert [r[0] for r in out.records] == [1]


class TestSmoothEmbedding:
    def test_alpha_one_keeps_old(self):
        old, new = unit(0), unit(1)
        np.testing.assert_allclose(smooth_embedding(old, new, 1.0), old, atol=1e-7)

    def test_alpha_zero_takes_new(self):
        old, new = unit(0), unit(1)
        np.testing.assert_allclose(smooth_embedding(old, new, 0.0), new, atol=1e-7)

    def test_orthogonal_midpoint(self):
        old, new = unit(0), unit(1)
        mixed = smooth_embedding(old, new, 0.5)
        expect = 1.0 - 1.0 / np.sqrt(2.0)
        assert cosine_distance(mixed, old) == pytest.approx(expect, abs=1e-6)
        assert cosine_distance(mixed, new) == pytest.approx(expect, abs=1e-6)

    def test_degenerate_sum_rejected(self):
        old = unit(0)
        with pytest.raises(DegenerateEmbeddingError):
            smooth_embedding(old, -old, 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            smooth_embedding(unit(0, 8), unit(0, 16), 0.5)


class TestEuclideanGate:
    def test_far_detection_not_matched(self):
        cfg = config(gate_metric="euclidean", gate_threshold=100.0)  # 10 px radius
        tracker = Tracker(cfg)
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        out = tracker.step(1, frame_of(det(500, 500, unit(0))))
        # same appearance but outside the gate: old track unmatched, new id spawned
        assert [r[0] for r in out.records] == [2]
        assert tracker.tracks.lost_since[0] == 1  # track 1 is lost


def run_tracker_on_scenario(scenario, seed, **cfg_overrides):
    tracker = Tracker(config(embedding_dim=scenario.embedding_dim, **cfg_overrides))
    outputs = []
    for frame_index in range(scenario.frames):
        raw, _ = generate_frame(scenario, frame_index, seed)
        outputs.append(tracker.step(frame_index, parse_output(raw, scenario.embedding_dim)))
    return outputs


class TestSequenceProperties:
    def test_deterministic_output_stream(self):
        scenario = make_scenario(
            8, 40, seed=2, embedding_dim=DIM,
            noise=NoiseParams(p_miss=0.1, sigma_box=0.8, sigma_emb=0.03, lambda_fp=0.5),
        )
        a = run_tracker_on_scenario(scenario, seed=5)
        b = run_tracker_on_scenario(scenario, seed=5)
        assert a == b

    def test_noiseless_scenario_is_bijective(self):
        scenario = make_scenario(10, 60, seed=4, embedding_dim=DIM)
        outputs = run_tracker_on_scenario(scenario, seed=1)
        report = evaluate(scenario_ground_truth(scenario), outputs_to_frames(outputs))
        assert report.mota == 1.0
        assert report.idf1 == 1.0
        assert report.id_switches == 0

    def test_track_count_invariant(self):
        rng = np.random.default_rng(9)
        tracker = Tracker(config(max_cost=0.4))
        known_ids: set[int] = set()
        for frame in range(20):
            dets = [
                det(float(rng.uniform(0, 800)), float(rng.uniform(0, 800)),
                    normalize(rng.standard_normal(DIM)))
                for _ in range(rng.integers(0, 5))
            ]
            before = set(tracker.tracks.ids.tolist())
            tracker.step(frame, frame_of(*dets))
            new_ids = set(tracker.tracks.ids.tolist()) - before
            known_ids |= new_ids

    def test_mild_noise_no_identity_errors(self):
        # separation margin 0.5 and small embedding noise: association stays exact
        scenario = make_scenario(
            10, 100, seed=6, embedding_dim=64, separation_margin=0.5,
            noise=NoiseParams(sigma_box=1.0, sigma_emb=0.05),
        )
        outputs = run_tracker_on_scenario(scenario, seed=8)
        report = evaluate(scenario_ground_truth(scenario), outputs_to_frames(outputs))
        assert report.id_switches == 0
        assert report.idf1 == 1.0


class TestRowBookkeeping:
    def test_removing_middle_track_keeps_survivor_rows(self):
        cfg = config(max_lost=2)
        tracker = Tracker(cfg)
        kf = KalmanFilter()
        starts = {1: 0.0, 2: 200.0, 3: 400.0}
        embeddings = {1: unit(0), 2: unit(1), 3: unit(2)}
        replay, smoothed = {}, {}
        for frame in range(6):
            # Track 2 is seen only in frame 0: lost in frame 1, removed in frame 3.
            ids = [1, 2, 3] if frame == 0 else [1, 3]
            boxes = {
                i: BoundingBox(starts[i] + 2.0 * frame, 50.0 + frame, 20.0, 30.0) for i in ids
            }
            tracker.step(frame, frame_of(*[det(b.x, b.y, embeddings[i]) for i, b in boxes.items()]))
            for i, box in boxes.items():
                z = box_to_measurement(box.as_tlwh())
                if frame == 0:
                    replay[i] = kf.initiate(z)
                    smoothed[i] = embeddings[i].copy()
                else:
                    replay[i] = kf.update(kf.predict(replay[i]), z)
                    smoothed[i] = smooth_embedding(smoothed[i], embeddings[i], cfg.smoothing_alpha)

        tracks = tracker.tracks
        assert tracker.removed_ids == {2}
        assert tracks.ids.tolist() == [1, 3]
        assert tracks.lost_since.tolist() == [-1, -1]  # both active
        assert tracks.last_update.tolist() == [5, 5]
        assert tracks.hits.tolist() == [6, 6]
        assert tracks.mean.shape == (2, 8)
        assert tracks.covariance.shape == (2, 8, 8)
        assert tracks.embeddings.shape == (2, DIM)
        for row, track_id in enumerate([1, 3]):
            np.testing.assert_allclose(tracks.mean[row], replay[track_id].mean, atol=1e-9)
            np.testing.assert_allclose(
                tracks.covariance[row], replay[track_id].covariance, atol=1e-9
            )
            np.testing.assert_array_equal(tracks.embeddings[row], smoothed[track_id])


# One frame row: (slot, score, identity). Slots share a few boxes, so rows can
# be identical boxes; scores repeat and some fall below the 0.5 threshold.
_rows = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.integers(0, 3)),
    max_size=7,
)


def _raw_frame(frame, rows, rng):
    raw = np.zeros((len(rows), 6 + DIM))
    for k, (slot, score, identity) in enumerate(rows):
        raw[k, :6] = (60.0 * (slot % 3) + 2.0 * frame, 90.0 * (slot // 3) + frame, 20.0, 30.0,
                      score, 1.0)
        raw[k, 6 + identity] = 1.0
        raw[k, 6:] += rng.normal(0.0, 0.05, DIM)
    return raw


class TestColumnarStep:
    def test_records_carry_python_floats(self):
        raw = _raw_frame(0, [(0, 0.9, 0), (4, 0.7, 1)], np.random.default_rng(1))
        out = Tracker(config()).step(0, parse_output(raw, DIM))
        assert len(out.records) == 2
        for track_id, box, score in out.records:
            assert type(track_id) is int and type(score) is float
            assert isinstance(box, BoundingBox)

    # The embedding matrix is checked whole, also when the filter or NMS drops
    # rows: here one row is below threshold. Each case spoils the matrix.
    @pytest.mark.parametrize(
        "low",
        [
            ("no embeddings", lambda embeddings: None),
            ("one column too many", lambda embeddings: np.hstack([embeddings, embeddings[:, :1]])),
            ("a trailing axis", lambda embeddings: embeddings[:, :, None]),
        ],
    )
    def test_filtered_row_with_bad_embedding_rejected(self, low):
        _, spoil = low
        batch = frame_of(det(0, 0, unit(0)), det(300, 0, unit(1), objectness=0.1))
        tracker = Tracker(config())
        with pytest.raises(DimensionError):
            tracker.step(0, replace(batch, embeddings=spoil(batch.embeddings)))

    def test_frame_without_embeddings_rejected_even_below_threshold(self):
        batch = frame_of(det(0, 0, unit(0), objectness=0.1))
        with pytest.raises(DimensionError):
            Tracker(config()).step(0, replace(batch, embeddings=None))
        raw = np.array([[0.0, 0.0, 20.0, 30.0, 0.1, 1.0]])
        with pytest.raises(DimensionError):
            Tracker(config()).step(0, parse_output(raw, embedding_dim=0))

    def test_batch_with_wrong_dim_rejected(self):
        raw = _raw_frame(0, [(0, 0.9, 0)], np.random.default_rng(2))
        batch = parse_output(raw, DIM)
        wider = DetectionBatch(batch.boxes, batch.objectness, batch.class_score,
                               np.hstack([batch.embeddings, batch.embeddings]))
        with pytest.raises(DimensionError):
            Tracker(config()).step(0, wider)

    def test_kept_rows_are_copied_once(self, monkeypatch):
        # Rows below threshold and boxes NMS suppresses: the filter and NMS
        # hand back indices, and the step copies the kept rows in one take.
        taken = []
        original = DetectionBatch.take

        def counting(self, index):
            taken.append(len(index))
            return original(self, index)

        monkeypatch.setattr(DetectionBatch, "take", counting)
        batch = frame_of(
            det(0, 0, unit(0)), det(1, 1, unit(1), objectness=0.8),
            det(200, 0, unit(2), objectness=0.2), det(400, 0, unit(3)),
        )
        out = Tracker(config()).step(0, batch)
        assert taken == [2]
        assert [record[2] for record in out.records] == [0.9, 0.9]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("conf_threshold", None),
            ("conf_threshold", "0.5"),
            ("conf_threshold", float("nan")),
            ("conf_threshold", -0.1),
            ("conf_threshold", 1.5),
            ("conf_threshold", True),
            ("nms_iou", 0.0),
            ("nms_iou", 1.0),
            ("nms_iou", float("inf")),
            ("max_cost", None),
            ("max_cost", -0.1),
            ("max_cost", float("nan")),
            ("gate_threshold", "9"),
            ("gate_threshold", -1.0),
            ("gate_threshold", float("nan")),
            ("gate_threshold", float("inf")),
            ("smoothing_alpha", 7),
            ("smoothing_alpha", -0.5),
            ("smoothing_alpha", float("nan")),
            ("max_lost", -1),
            ("max_lost", None),
            ("max_lost", float("inf")),
            ("min_hits", 0),
            ("min_hits", "3"),
            ("embedding_dim", -5),
            ("embedding_dim", 0),
            ("embedding_dim", 16.0),
            ("embedding_dim", True),
            ("embedding_dim", "16"),
            ("gate_metric", "bogus"),
            ("gate_metric", None),
        ],
    )
    def test_bad_value_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field.replace("_", " ") if field == "gate_metric"
                           else field):
            TrackerConfig(**{field: value})

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(conf_threshold=0, max_cost=0, gate_threshold=0, smoothing_alpha=0, max_lost=0),
            dict(conf_threshold=1.0, nms_iou=0.999, smoothing_alpha=1, min_hits=1),
            dict(conf_threshold=np.float32(0.25), max_cost=np.float64(2.0),
                 embedding_dim=np.int64(8)),
            dict(gate_metric="euclidean", gate_threshold=10**6, max_lost=10**6, min_hits=2.5),
        ],
    )
    def test_edge_values_accepted(self, overrides):
        Tracker(TrackerConfig(**overrides))


def _random_kalman(rng, count):
    """``count`` tracks a few random predict/update cycles old, near each other."""
    kf = KalmanFilter()
    means, covariances = [], []
    for _ in range(count):
        z = np.array([rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(0.3, 1.0),
                      rng.uniform(20, 120)])
        state = kf.initiate(z)
        for _ in range(rng.integers(0, 4)):
            state = kf.predict(state)
            z = state.mean[:4] + rng.normal(0.0, 2.0, 4) * [1, 1, 0.01, 1]
            state = kf.update(state, z)
        state = kf.predict(state)
        means.append(state.mean)
        covariances.append(state.covariance)
    return KalmanState(np.array(means), np.array(covariances))


def _dense_gate(tracker, kalman, measurements):
    """The gate distances of every pair of the tracks' ``kalman`` states and
    ``measurements``, as association computed them before it was sparse."""
    if tracker.config.gate_metric == "mahalanobis":
        return tracker._filter.gating_distance(kalman, measurements)
    delta = kalman.mean[:, None, :2] - measurements[None, :, :2]
    return np.sum(delta * delta, axis=2)


class TestSparseGate:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_tracks=st.integers(1, 8),
        n_dets=st.integers(1, 10),
        metric=st.sampled_from(GATE_METRICS),
        boundary=st.sampled_from(["none", "on", "below", "above"]),
        pick=st.integers(0, 10**6),
        spread=st.sampled_from([0.5, 5.0, 20.0, 80.0]),
    )
    def test_sparse_gate_equals_dense(self, seed, n_tracks, n_dets, metric, boundary, pick,
                                      spread):
        rng = np.random.default_rng(seed)
        kalman = _random_kalman(rng, n_tracks)
        near = kalman.mean[rng.integers(0, n_tracks, n_dets), :4]
        measurements = near + rng.normal(0.0, spread, (n_dets, 4)) * [1, 1, 0.01, 0.1]
        measurements[:, 2:] = np.abs(measurements[:, 2:]) + 0.1
        dense = _dense_gate(Tracker(config(gate_metric=metric)), kalman, measurements)
        # A gate exactly on one pair's distance, one ulp either side of it, or the default.
        threshold = float(dense.flat[pick % dense.size])
        if boundary == "none":
            threshold = CHI2_GATE_95_4DOF if metric == "mahalanobis" else 400.0
        elif boundary != "on":
            toward = 0.0 if boundary == "below" else np.inf
            threshold = max(float(np.nextafter(threshold, toward)), 0.0)
        tracker = Tracker(config(gate_metric=metric, gate_threshold=threshold))

        _, rows, cols, distance = tracker._gate(kalman, measurements)
        np.testing.assert_array_equal(distance, dense[rows, cols])
        sparse = np.full(dense.shape, np.inf)
        sparse[rows, cols] = distance
        np.testing.assert_array_equal(
            np.where(sparse > threshold, np.inf, sparse),
            np.where(dense > threshold, np.inf, dense),
        )

    @pytest.mark.parametrize("metric", GATE_METRICS)
    def test_bad_covariance_without_candidates_raises(self, metric):
        tracker = Tracker(config(gate_metric=metric))
        tracker.step(0, frame_of(det(100, 100, unit(0)), det(1000, 100, unit(1))))
        tracker.tracks.covariance[1, 0, 0] = np.nan
        before = state_of(tracker)
        # The one detection is far from the broken track, so no pair involves it.
        with pytest.raises(NumericError):
            tracker.step(1, frame_of(det(101, 100, unit(0))))
        assert_same_state(state_of(tracker), before)

    def test_step_builds_no_dense_cost_matrix(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("step built a dense cost matrix")

        monkeypatch.setattr(tracker_module, "build_cost_matrix", dense)
        monkeypatch.setattr(assoc_module, "build_cost_matrix", dense)
        tracker = Tracker(config())
        rng = np.random.default_rng(4)
        for frame in range(6):
            raw = _raw_frame(frame, [(slot, 0.9, slot % 4) for slot in range(6)], rng)
            out = tracker.step(frame, parse_output(raw, DIM))
            assert len(out.records) == 6
        assert tracker.tracks.hits.tolist() == [6] * 6


class _Unfactored:
    """Stands in for a frame's projection: ``take`` gives None, so each
    update factors its own rows, as the update did before the projection was shared."""

    def take(self, rows):
        return None


class DenseTracker(Tracker):
    """The tracker with association as it was before it was sparse: the whole
    (T, N) cost matrix, the whole gate matrix, then the assignment."""

    def _associate(self, predicted, embeddings, measurements, det_embeddings):
        cfg = self.config
        if not (len(embeddings) and len(measurements)):
            cost = np.zeros((len(embeddings), len(measurements)))
        else:
            cost = build_cost_matrix(embeddings, det_embeddings)
            cost = apply_gate(cost, _dense_gate(self, predicted, measurements), cfg.gate_threshold)
        return match_with_threshold(hungarian_solve(cost), cost, cfg.max_cost), _Unfactored()


def _stream(rng, n_objects, n_frames):
    """Objects drifting in a small area, with misses, clutter and embedding noise."""
    start = rng.uniform(0, 300, (n_objects, 2))
    velocity = rng.normal(0.0, 3.0, (n_objects, 2))
    identity = rng.integers(0, DIM, n_objects)
    for frame in range(n_frames):
        rows = []
        for k in range(n_objects):
            if rng.random() < 0.15:
                continue
            x, y = start[k] + velocity[k] * frame + rng.normal(0.0, 1.5, 2)
            emb = np.zeros(DIM)
            emb[identity[k]] = 1.0
            rows.append(det(x, y, emb + rng.normal(0.0, 0.1, DIM), objectness=0.9))
        for _ in range(rng.poisson(1.0)):
            x, y = rng.uniform(0, 300, 2)
            rows.append(det(x, y, rng.normal(0.0, 1.0, DIM), objectness=0.8))
        yield frame, parse_output(np.reshape(rows, (-1, 6 + DIM)), DIM)


class TestSparseMatchesDense:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_objects=st.integers(1, 10),
        n_frames=st.integers(2, 12),
        metric=st.sampled_from(GATE_METRICS),
        wide=st.booleans(),
        max_cost=st.sampled_from([0.3, 0.7, 1.5]),
    )
    def test_step_matches_dense_reference(self, seed, n_objects, n_frames, metric, wide,
                                          max_cost):
        gate = {"mahalanobis": (CHI2_GATE_95_4DOF, 50.0), "euclidean": (100.0, 2500.0)}
        cfg = config(gate_metric=metric, gate_threshold=gate[metric][wide], max_cost=max_cost,
                     max_lost=3)
        sparse, dense = Tracker(cfg), DenseTracker(cfg)
        for frame, batch in _stream(np.random.default_rng(seed), n_objects, n_frames):
            assert sparse.step(frame, batch) == dense.step(frame, batch)
            assert_same_state(state_of(sparse), state_of(dense))
        assert sparse.tracks.embeddings.dtype == np.float32


class TestCommitOnce:
    def test_degenerate_smoothing_leaves_tracker_unchanged(self):
        # Antipodal embeddings cost exactly 2, so they match, and their
        # smoothed mean is zero and cannot be normalized.
        cfg = config(smoothing_alpha=0.5, max_cost=2.0)
        tracker = Tracker(cfg)
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        before = state_of(tracker)
        with pytest.raises(DegenerateEmbeddingError):
            tracker.step(1, frame_of(det(101, 100, -unit(0))))
        assert_same_state(state_of(tracker), before)

        retry = frame_of(det(101, 100, unit(0)))
        fresh = Tracker(cfg)
        fresh.step(0, frame_of(det(100, 100, unit(0))))
        assert tracker.step(1, retry) == fresh.step(1, retry)
        assert_same_state(state_of(tracker), state_of(fresh))


# Odd detections for the commit property, each (kind, slot, outside); the
# slots share positions, so rows of different kinds meet in the gate.
_SIZES = {  # w and h just inside and just outside MEASUREMENT_LIMIT
    "tiny": ((1e-29, 1e-29), (1e-200, 1e-200)),
    "huge": ((1e29, 1e29), (1e300, 1e300)),
    "wide": ((3e21, 30.0), (3e32, 30.0)),
    "narrow": ((3e-28, 30.0), (3e-32, 30.0)),
}
_KINDS = ("good", "shrink", "nan", "inf", "antipodal", *_SIZES)
_odd_rows = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(0, 3), st.booleans()), max_size=5
)


def _odd_frame(frame, rows):
    raw = np.zeros((len(rows), 6 + DIM))
    for k, (kind, slot, outside) in enumerate(rows):
        w, h = _SIZES[kind][outside] if kind in _SIZES else (20.0, 30.0)
        if kind == "shrink":
            w, h = 20.0 * 0.4**frame, 30.0 * 0.4**frame
        raw[k, :6] = (80.0 * slot + 2.0 * frame, 60.0, w, h, 0.9, 1.0)
        # The second axis changes from frame to frame, so smoothing moves the embeddings.
        embedding = np.zeros(DIM)
        embedding[[slot, 4 + frame % (DIM - 4)]] = 1.0, 0.5
        raw[k, 6:] = (-1.0 if kind == "antipodal" else 1.0) * normalize(embedding)
        if kind in ("nan", "inf"):
            raw[k, 6 + slot] = np.nan if kind == "nan" else np.inf
    return DetectionBatch(raw[:, :4], raw[:, 4], raw[:, 5], raw[:, 6:].astype(np.float32))


class TestCommitProperty:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(frames=st.lists(st.tuples(_odd_rows, st.booleans(), st.integers(0, 7)), max_size=10))
    def test_a_failed_step_changes_nothing(self, frames):
        """Only TrackforgeError escapes step; after one, the tracker is as it
        was, and a retried good frame gives what a fresh run gives. A step
        never writes the table it replaces, ids stay strictly increasing, and
        every value in the table is finite."""
        cfg = config(smoothing_alpha=0.5, max_cost=2.0, max_lost=2)
        tracker = Tracker(cfg)
        accepted = []
        for frame, (rows, break_row, pick) in enumerate(frames):
            intact = tracker.tracks
            committed = [column.copy() for column in intact.columns()]
            # A frame with rows fails on a broken covariance row: at its entry
            # checks or when it factors the projection.
            broken = break_row and len(intact) > 0 and len(rows) > 0
            if broken:
                covariance = intact.covariance.copy()
                covariance[pick % len(intact), 1, 1] = np.nan
                tracker.tracks = replace(intact, covariance=covariance)
            good = [row for row in rows if row[0] in ("good", "shrink")]
            attempts = [_odd_frame(frame, rows), _odd_frame(frame, good), frame_of()]
            for tried, attempt in enumerate(attempts):
                before = state_of(tracker)
                try:
                    out = tracker.step(frame, attempt)
                except TrackforgeError:
                    assert_same_state(state_of(tracker), before)
                    tracker.tracks = intact
                    continue
                accepted.append((frame, attempt, out))
                break
            else:
                pytest.fail("an empty frame was rejected")
            assert not (broken and tried == 0)
            for column, copy in zip(intact.columns(), committed):  # the replaced table is intact
                np.testing.assert_array_equal(column, copy)
            assert np.all(np.diff(tracker.tracks.ids) > 0)
            assert all(np.isfinite(column).all() for column in tracker.tracks.columns())

        fresh = Tracker(cfg)
        for frame, batch, out in accepted:
            assert fresh.step(frame, batch) == out
