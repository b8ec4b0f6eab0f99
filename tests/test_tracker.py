from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.core import (
    BoundingBox,
    DetectionBatch,
    box_to_measurement,
    cosine_distance,
    normalize,
)
from trackforge.detgen import NoiseParams, make_scenario, generate_frame, scenario_ground_truth
from trackforge.errors import DegenerateEmbeddingError, DimensionError, OrderingError
from trackforge.moteval import evaluate, outputs_to_frames
from trackforge.motion import KalmanFilter
from trackforge.postproc import parse_output
from trackforge.tracker import Tracker, TrackerConfig, TrackState, smooth_embedding

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


class TestStepBasics:
    def test_empty_step_on_empty_tracker(self):
        tracker = Tracker(config())
        out = tracker.step(0, frame_of())
        assert out.frame_index == 0
        assert out.records == ()
        assert tracker.tracks == []

    def test_birth_then_rematch_keeps_id(self):
        tracker = Tracker(config())
        out0 = tracker.step(0, frame_of(det(100, 100, unit(0))))
        assert [r[0] for r in out0.records] == [1]
        out1 = tracker.step(1, frame_of(det(103, 101, unit(0))))
        assert [r[0] for r in out1.records] == [1]
        assert tracker.tracks[0].hits == 2

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
        tracker.step(5, frame_of())
        with pytest.raises(OrderingError):
            tracker.step(5, frame_of())
        with pytest.raises(OrderingError):
            tracker.step(3, frame_of())

    def test_missing_embedding_rejected(self):
        tracker = Tracker(config())
        with pytest.raises(DimensionError):
            tracker.step(0, parse_output(np.array([[0.0, 0.0, 20.0, 30.0, 0.9, 1.0]]), 0))

    def test_low_confidence_filtered_out(self):
        tracker = Tracker(config(conf_threshold=0.5))
        out = tracker.step(0, frame_of(det(0, 0, unit(0), objectness=0.4)))
        assert out.records == ()
        assert tracker.tracks == []


class TestLifecycle:
    def test_unmatched_track_lost_same_frame(self):
        tracker = Tracker(config())
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        assert tracker.tracks[0].state is TrackState.ACTIVE
        tracker.step(1, frame_of())
        assert tracker.tracks[0].state is TrackState.LOST
        assert tracker.tracks[0].lost_since == 1

    def test_removed_after_max_lost_and_never_reappears(self):
        tracker = Tracker(config(max_lost=3))
        tracker.step(0, frame_of(det(100, 100, unit(0))))
        for frame in range(1, 4):
            tracker.step(frame, frame_of())
            assert tracker.tracks and tracker.tracks[0].state is TrackState.LOST
        tracker.step(4, frame_of())  # lost for 4 > max_lost frames
        assert tracker.tracks == []
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
        assert tracker.tracks[0].state is TrackState.ACTIVE
        assert tracker.tracks[0].lost_since is None

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
            live = {t.track_id for t in tracker.tracks}
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
        assert tracker.tracks[0].state is TrackState.LOST


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
            before = set(t.track_id for t in tracker.tracks)
            tracker.step(frame, frame_of(*dets))
            new_ids = {t.track_id for t in tracker.tracks} - before
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
        kf = KalmanFilter(cfg.motion_noise)
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

        assert tracker.removed_ids == {2}
        assert [t.track_id for t in tracker.tracks] == [1, 3]
        for track in tracker.tracks:
            assert track.state is TrackState.ACTIVE
            assert track.lost_since is None
            assert track.last_update_frame == 5
            assert track.hits == 6
        assert tracker.kalman.mean.shape == (2, 8)
        assert tracker.kalman.covariance.shape == (2, 8, 8)
        assert tracker.embeddings.shape == (2, DIM)
        for row, track_id in enumerate([1, 3]):
            np.testing.assert_allclose(tracker.kalman.mean[row], replay[track_id].mean, atol=1e-9)
            np.testing.assert_allclose(
                tracker.kalman.covariance[row], replay[track_id].covariance, atol=1e-9
            )
            np.testing.assert_array_equal(tracker.embeddings[row], smoothed[track_id])


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
