"""Acceptance suite: one test per criterion, each printing a PASS line.

Timing-based criteria (2, 3, 4) use the default calibrated latency model and
real wall-clock measurement; exactness criteria (1, 8, 9, 10) shrink the
emulated delays so the whole suite stays within its runtime budget without
affecting the properties under test.
"""

import numpy as np
import pytest

from trackforge.cli import write_mot_results
from trackforge.core import quantize_binary16
from trackforge.detgen import NoiseParams, make_scenario, scenario_frames, scenario_ground_truth
from trackforge.moteval import accumulate, clear_mot, evaluate, id_metrics, outputs_to_frames
from trackforge.pipeline import (
    ExecutionMode,
    PipelineConfig,
    PipelineMode,
    Precision,
    predicted_fps,
    run,
)
from trackforge.assoc import hungarian_solve
from trackforge.core import BoundingBox, normalize
from trackforge.motion import KalmanFilter
from trackforge.postproc import nms, parse_output
from trackforge.tracker import Tracker, TrackerConfig, TrackState

from oracles import KalmanOracle, assignment_brute_force, nms_reference_indices

DEFAULT_CONFIG = PipelineConfig()

# Scaled-down latency for criteria that test exact behavior, not throughput.
FAST_CONFIG = PipelineConfig(
    t_fixed_ms=0.1,
    t_image_ms=0.2,
    t_post_fixed_ms=0.05,
    t_post_per_detection_ms=0.005,
    warmup_frames=5,
)


def tracker_for(scenario):
    return Tracker(TrackerConfig(embedding_dim=scenario.embedding_dim))


def run_variant(scenario, execution, precision, batch, config, seed=11):
    return run(
        scenario_frames(scenario, seed),
        tracker_for(scenario),
        PipelineMode(execution, precision, batch),
        config,
    )


def report_pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS: {message}")


def test_criterion_01_determinism_across_modes(tmp_path):
    scenario = make_scenario(
        20, 300, seed=21, embedding_dim=64,
        noise=NoiseParams(p_miss=0.1, sigma_box=0.5, sigma_emb=0.02, lambda_fp=0.5),
    )
    variants = [
        ("serial_b1", ExecutionMode.SERIAL, 1),
        ("batched_b1", ExecutionMode.BATCHED_SERIAL, 1),
        ("batched_b4", ExecutionMode.BATCHED_SERIAL, 4),
        ("batched_b8", ExecutionMode.BATCHED_SERIAL, 8),
        ("parallel_b1", ExecutionMode.PARALLEL, 1),
        ("parallel_b4", ExecutionMode.PARALLEL, 4),
        ("parallel_b8", ExecutionMode.PARALLEL, 8),
    ]
    blobs = {}
    for name, execution, batch in variants:
        outputs, _ = run_variant(scenario, execution, Precision.FULL, batch, FAST_CONFIG)
        path = tmp_path / f"{name}.txt"
        write_mot_results(path, outputs)
        blobs[name] = path.read_bytes()
    reference = blobs["serial_b1"]
    assert reference  # non-empty result
    for name, blob in blobs.items():
        assert blob == reference, f"{name} result file differs from serial baseline"
    report_pass(1, f"7 mode/batch variants produced bit-identical result files "
                   f"({len(reference)} bytes each)")


def test_criterion_02_speedup_shape():
    scenario = make_scenario(20, 150, seed=22, embedding_dim=64)
    variants = [
        ("OP", ExecutionMode.SERIAL, Precision.FULL, 1),
        ("MP", ExecutionMode.SERIAL, Precision.MIXED, 1),
        ("MP+BW", ExecutionMode.BATCHED_SERIAL, Precision.MIXED, 4),
        ("MP+BW+PP", ExecutionMode.PARALLEL, Precision.MIXED, 4),
    ]
    fps = {}
    for label, execution, precision, batch in variants:
        _, report = run_variant(scenario, execution, precision, batch, DEFAULT_CONFIG)
        fps[label] = report.fps
    assert fps["OP"] < fps["MP"] < fps["MP+BW"] < fps["MP+BW+PP"], fps
    assert fps["OP"] == pytest.approx(19.0, rel=0.10), fps["OP"]
    speedup = fps["MP+BW+PP"] / fps["OP"] - 1.0
    assert speedup >= 0.45, f"total speedup {speedup:.1%} below 45%"
    report_pass(2, "FPS ordering OP<MP<MP+BW<MP+BW+PP holds: "
                   + ", ".join(f"{k}={v:.2f}" for k, v in fps.items())
                   + f"; speedup {speedup:.1%}")


def test_criterion_03_density_independence():
    fps = {}
    for objects in (5, 50):
        scenario = make_scenario(objects, 150, seed=23, embedding_dim=64)
        _, parallel = run_variant(
            scenario, ExecutionMode.PARALLEL, Precision.MIXED, 4, DEFAULT_CONFIG
        )
        _, serial = run_variant(
            scenario, ExecutionMode.SERIAL, Precision.FULL, 1, DEFAULT_CONFIG
        )
        fps[objects] = (parallel.fps, serial.fps)

    parallel_diff = abs(fps[5][0] - fps[50][0]) / max(fps[5][0], fps[50][0])
    assert parallel_diff <= 0.05, f"parallel FPS varies {parallel_diff:.1%} with density"

    serial_mode = PipelineMode(ExecutionMode.SERIAL, Precision.FULL, 1)
    predicted_drop = 1.0 - (
        predicted_fps(DEFAULT_CONFIG, serial_mode, 50)
        / predicted_fps(DEFAULT_CONFIG, serial_mode, 5)
    )
    measured_drop = 1.0 - fps[50][1] / fps[5][1]
    # 0.9 factor absorbs wall-clock measurement noise on the serial runs.
    assert measured_drop >= 0.9 * predicted_drop, (measured_drop, predicted_drop)
    report_pass(3, f"parallel FPS differs {parallel_diff:.2%} between 5 and 50 objects; "
                   f"serial drops {measured_drop:.1%} (predicted {predicted_drop:.1%})")


def test_criterion_04_throughput_model_fidelity():
    worst = 0.0
    for execution, frames in (
        (ExecutionMode.BATCHED_SERIAL, 120),
        (ExecutionMode.PARALLEL, 250),
    ):
        scenario = make_scenario(20, frames, seed=24, embedding_dim=64)
        for batch in range(1, 11):
            mode = PipelineMode(execution, Precision.MIXED, batch)
            _, report = run(
                scenario_frames(scenario, 11), tracker_for(scenario), mode, DEFAULT_CONFIG
            )
            expected = predicted_fps(DEFAULT_CONFIG, mode, 20)
            deviation = abs(report.fps - expected) / expected
            worst = max(worst, deviation)
            assert deviation <= 0.10, (
                f"{execution.value} b{batch}: measured {report.fps:.2f} vs "
                f"predicted {expected:.2f} ({deviation:.1%})"
            )
    report_pass(4, f"measured FPS within ±10% of the analytic model for batch sizes 1-10 "
                   f"in both serialized and parallel modes (worst deviation {worst:.1%})")


def test_criterion_05_hungarian_optimality():
    rng = np.random.default_rng(25)
    for trial in range(1000):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 10.0, (n_rows, n_cols))
        if trial % 2:
            cost[rng.random((n_rows, n_cols)) < rng.uniform(0.0, 0.7)] = np.inf
        result = hungarian_solve(cost)
        cardinality, total = assignment_brute_force(cost)
        assert len(result.matches) == cardinality
        solved = sum(value for _, _, value in result.matches)
        assert solved == pytest.approx(total, abs=1e-9)
        rows = [r for r, _, _ in result.matches] + result.unmatched_tracks
        cols = [c for _, c, _ in result.matches] + result.unmatched_detections
        assert sorted(rows) == list(range(n_rows))
        assert sorted(cols) == list(range(n_cols))
    report_pass(5, "1000 random rectangular/+inf matrices solved at the exhaustive "
                   "permutation optimum")


def test_criterion_06_kalman_oracle_equivalence():
    kf = KalmanFilter()
    oracle = KalmanOracle()
    rng = np.random.default_rng(26)

    def check(state, mean, cov):
        np.testing.assert_allclose(state.mean, mean, atol=1e-9)
        np.testing.assert_allclose(state.covariance, cov, atol=1e-9)
        np.testing.assert_allclose(state.covariance, state.covariance.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(state.covariance)) >= -1e-9

    for _ in range(1000):
        z0 = np.array([
            rng.uniform(-500, 500), rng.uniform(-500, 500),
            rng.uniform(0.3, 3.0), rng.uniform(10, 300),
        ])
        state = kf.initiate(z0)
        mean, cov = oracle.initiate(z0)
        check(state, mean, cov)
        for _ in range(int(rng.integers(2, 6))):
            state = kf.predict(state)
            mean, cov = oracle.predict(mean, cov)
            check(state, mean, cov)
            if rng.random() < 0.7:
                z = state.mean[:4] + rng.normal(0, 2.0, 4) * np.array([1, 1, 0.02, 1])
                z[3] = max(z[3], 1.0)
                state = kf.update(state, z)
                mean, cov = oracle.update(mean, cov, z)
                check(state, mean, cov)
    report_pass(6, "1000 random predict/update sequences match the matrix-arithmetic "
                   "reference within 1e-9 with symmetric PSD covariance throughout")


def test_criterion_07_nms_oracle_equivalence():
    rng = np.random.default_rng(27)
    for _ in range(500):
        count = int(rng.integers(1, 41))
        boxes, scores = np.zeros((count, 4)), np.zeros(count)
        for i in range(count):
            w, h = rng.uniform(5, 40, 2)
            boxes[i] = (rng.uniform(0, 120), rng.uniform(0, 120), w, h)
            scores[i] = float(rng.integers(1, 11)) / 10.0  # coarse scores force ties
        threshold = float(rng.uniform(0.2, 0.7))
        expected = nms_reference_indices(boxes.tolist(), scores.tolist(), threshold)
        assert nms(boxes, scores, threshold).tolist() == expected
    report_pass(7, "500 random box sets match the O(n^2) greedy reference exactly, "
                   "including score ties")


def test_criterion_08_perfect_tracking_metrics():
    scenario = make_scenario(10, 100, seed=28, embedding_dim=64)
    outputs, _ = run_variant(scenario, ExecutionMode.SERIAL, Precision.FULL, 1, FAST_CONFIG)
    report = evaluate(scenario_ground_truth(scenario), outputs_to_frames(outputs))
    assert report.mota == 1.0
    assert report.idf1 == 1.0
    assert report.id_switches == 0

    def hyp_box(frame):
        return BoundingBox(2.0 * frame + 1.0, 0.0, 10.0, 10.0)

    gt = {f: [(1, BoundingBox(2.0 * f, 0.0, 10.0, 10.0))] for f in range(10)}
    missed = {f: ([] if f in (4, 7) else [(1, hyp_box(f))]) for f in range(10)}
    summary = clear_mot(accumulate(gt, missed))
    assert summary.fn == 2
    assert summary.mota == pytest.approx(0.8)
    assert summary.recall == pytest.approx(0.8)

    switched = {f: [(1 if f < 5 else 2, hyp_box(f))] for f in range(10)}
    summary = clear_mot(accumulate(gt, switched))
    assert summary.id_switches == 1
    assert summary.mota == pytest.approx(0.9)
    idf1, _, _ = id_metrics(gt, switched)
    assert idf1 == pytest.approx(0.5)
    report_pass(8, "noiseless scenario scores MOTA=1.0 IDF1=1.0 IDs=0; micro-scenarios "
                   "give MOTA 0.8/0.9 and IDF1 0.5")


def test_criterion_09_precision_reduction_safety():
    scenario = make_scenario(
        15, 150, seed=29, embedding_dim=64, separation_margin=0.5,
        noise=NoiseParams(sigma_box=0.8, sigma_emb=0.03),
    )
    # The comparison is only meaningful if quantization really perturbs values.
    sample = normalize(np.random.default_rng(0).standard_normal(64))
    assert np.any(quantize_binary16(sample) != sample)

    results = {}
    for precision in (Precision.FULL, Precision.MIXED):
        outputs, _ = run_variant(scenario, ExecutionMode.PARALLEL, precision, 4, FAST_CONFIG)
        results[precision] = outputs
    full, mixed = results[Precision.FULL], results[Precision.MIXED]
    assert len(full) == len(mixed) == scenario.frames
    for out_full, out_mixed in zip(full, mixed):
        assert out_full == out_mixed, f"assignments differ at frame {out_full.frame_index}"
    report_pass(9, "binary16-quantized and full-precision runs assign identical tracks "
                   f"on all {scenario.frames} frames (margin 0.5)")


def test_criterion_10_lifecycle_conformance():
    dim = 16
    rng = np.random.default_rng(30)
    max_lost = 4
    tracker = Tracker(TrackerConfig(embedding_dim=dim, max_lost=max_lost, max_cost=0.5))
    known_ids: set[int] = set()
    lost_log: dict[int, int] = {}
    for frame in range(80):
        count = int(rng.integers(0, 5))
        rows = [
            [rng.uniform(0, 2000), rng.uniform(0, 2000), 20.0, 30.0, 0.9, 1.0,
             *normalize(rng.standard_normal(dim))]
            for _ in range(count)
        ]
        detections = parse_output(np.reshape(rows, (-1, 6 + dim)), dim)
        usable = len(nms(detections.boxes, detections.objectness, tracker.config.nms_iou))
        out = tracker.step(frame, detections)
        out_ids = {r[0] for r in out.records}

        # Every surviving detection either matched a track or spawned a fresh id.
        assert len(out.records) == usable
        new_ids = out_ids - known_ids
        assert all(i > max(known_ids, default=0) for i in new_ids)  # never reused
        known_ids |= out_ids

        for track in tracker.tracks:
            if track.state is TrackState.ACTIVE:
                # Active means updated this frame (unmatched became Lost already).
                assert track.last_update_frame == frame
                assert track.lost_since is None
            else:
                assert track.state is TrackState.LOST
                assert track.lost_since is not None
                assert track.lost_since == track.last_update_frame + 1
                # Lost no longer than the removal threshold.
                assert frame - track.lost_since < max_lost
                lost_log[track.track_id] = track.lost_since

        # Removed tracks never appear among live tracks or outputs again.
        assert not out_ids & tracker.removed_ids
        assert not {t.track_id for t in tracker.tracks} & tracker.removed_ids

    # Directed check: a track unmatched for exactly max_lost+1 frames is removed.
    tracker = Tracker(TrackerConfig(embedding_dim=dim, max_lost=max_lost))
    emb = normalize(np.ones(dim))
    det = parse_output(np.concatenate([[0.0, 0.0, 20.0, 30.0, 0.9, 1.0], emb])[None], dim)
    empty = parse_output(np.zeros((0, 6 + dim)), dim)
    tracker.step(0, det)
    for frame in range(1, max_lost + 1):
        tracker.step(frame, empty)
        assert tracker.tracks and tracker.tracks[0].state is TrackState.LOST
    tracker.step(max_lost + 1, empty)
    assert tracker.tracks == []
    assert tracker.removed_ids == {1}
    assert [r[0] for r in tracker.step(max_lost + 2, det).records] == [2]
    report_pass(10, "lifecycle invariants hold: same-frame Lost transitions, removal "
                    f"after {max_lost}+1 unmatched frames, fresh ids, no id reuse")
