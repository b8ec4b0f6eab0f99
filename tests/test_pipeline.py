import threading
import time

import pytest

from trackforge.detgen import NoiseParams, make_scenario, scenario_frames
from trackforge.errors import ConfigError, MeasurementError, OrderingError
from trackforge.pipeline import (
    ExecutionMode,
    PipelineConfig,
    PipelineMode,
    Precision,
    RunReport,
    StageQueue,
    batcher,
    measure_fps,
    predicted_fps,
    run,
)
from trackforge.tracker import Tracker, TrackerConfig

DIM = 16

FAST = PipelineConfig(
    t_fixed_ms=0.2,
    t_image_ms=0.4,
    t_post_fixed_ms=0.1,
    t_post_per_detection_ms=0.01,
    warmup_frames=3,
)


def fast_scenario(objects=5, frames=30, noise=None, seed=2):
    return make_scenario(objects, frames, seed=seed, embedding_dim=DIM, noise=noise)


def run_mode(scenario, execution, precision=Precision.FULL, batch=1, config=FAST, seed=3):
    tracker = Tracker(TrackerConfig(embedding_dim=scenario.embedding_dim))
    return run(
        scenario_frames(scenario, seed),
        tracker,
        PipelineMode(execution, precision, batch),
        config,
    )


class TestStageQueue:
    def test_fifo_order_with_sentinel(self):
        q = StageQueue(capacity=4)
        for i in range(3):
            q.put(i)
        q.close()
        assert list(q) == [0, 1, 2]

    def test_backpressure_bounds_occupancy(self):
        q = StageQueue(capacity=3)
        consumed = []

        def producer():
            for i in range(50):
                q.put(i)
            q.close()

        def consumer():
            for item in q:
                consumed.append(item)

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert consumed == list(range(50))
        assert q.max_occupancy <= 3

    def test_abort_wakes_blocked_producer(self):
        from trackforge.errors import PipelineAborted

        q = StageQueue(capacity=1)
        q.put(0)
        failures = []

        def producer():
            try:
                q.put(1)  # blocks: queue full
            except PipelineAborted:
                failures.append("aborted")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        q.abort()
        thread.join(timeout=5)
        assert failures == ["aborted"]

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            StageQueue(0)


class TestBatcher:
    def _queue_of(self, items):
        q = StageQueue(capacity=len(items) + 1)
        for item in items:
            q.put(item)
        q.close()
        return q

    def test_sizes_four_four_two(self):
        batches = list(batcher(self._queue_of(list(range(10))), 4))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_batch_size_one(self):
        batches = list(batcher(self._queue_of([7, 8]), 1))
        assert batches == [[7], [8]]

    def test_concatenation_preserves_order(self):
        items = list(range(23))
        batches = list(batcher(self._queue_of(items), 5))
        assert [x for b in batches for x in b] == items

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigError):
            list(batcher(self._queue_of([]), 0))


class TestModeValidation:
    def test_serial_requires_batch_one(self):
        with pytest.raises(ConfigError):
            PipelineMode(ExecutionMode.SERIAL, Precision.FULL, 4)

    def test_batch_must_be_positive(self):
        with pytest.raises(ConfigError):
            PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, 0)

    def test_invalid_queue_capacity(self):
        with pytest.raises(ConfigError):
            PipelineConfig(q1_capacity=0)


class TestOutputEquivalence:
    def test_all_six_mode_combinations_identical(self):
        scenario = fast_scenario(
            objects=6,
            frames=40,
            noise=NoiseParams(p_miss=0.1, sigma_box=0.6, sigma_emb=0.02, lambda_fp=0.4),
        )
        combos = [
            (ExecutionMode.SERIAL, 1),
            (ExecutionMode.BATCHED_SERIAL, 1),
            (ExecutionMode.BATCHED_SERIAL, 4),
            (ExecutionMode.PARALLEL, 1),
            (ExecutionMode.PARALLEL, 4),
            (ExecutionMode.PARALLEL, 7),
        ]
        results = {}
        for precision in (Precision.FULL, Precision.MIXED):
            for execution, batch in combos:
                outputs, _ = run_mode(scenario, execution, precision, batch)
                results[(precision, execution, batch)] = outputs
        reference_full = results[(Precision.FULL, ExecutionMode.SERIAL, 1)]
        for (precision, execution, batch), outputs in results.items():
            assert outputs == reference_full, (precision, execution, batch)

    def test_output_count_equals_input_count(self):
        scenario = fast_scenario(objects=3, frames=25)
        for execution, batch in [
            (ExecutionMode.SERIAL, 1),
            (ExecutionMode.BATCHED_SERIAL, 4),
            (ExecutionMode.PARALLEL, 4),
        ]:
            outputs, report = run_mode(scenario, execution, batch=batch)
            assert len(outputs) == scenario.frames
            assert [o.frame_index for o in outputs] == list(range(scenario.frames))
            assert report.frames_total == scenario.frames

    def test_queue_occupancy_within_capacity(self):
        scenario = fast_scenario(objects=3, frames=40)
        config = PipelineConfig(
            t_fixed_ms=0.2, t_image_ms=0.4, t_post_fixed_ms=0.1,
            t_post_per_detection_ms=0.01, q1_capacity=5, q2_capacity=7, warmup_frames=3,
        )
        _, report = run_mode(scenario, ExecutionMode.PARALLEL, batch=2, config=config)
        assert 0 < report.max_q1 <= 5
        assert 0 < report.max_q2 <= 7


class TestErrorPropagation:
    def test_source_failure_propagates_in_parallel(self):
        scenario = fast_scenario(objects=2, frames=10)

        def broken_source():
            for frame_index, raw in scenario_frames(scenario, 1):
                if frame_index == 5:
                    raise RuntimeError("camera unplugged")
                yield frame_index, raw

        tracker = Tracker(TrackerConfig(embedding_dim=DIM))
        with pytest.raises(RuntimeError, match="camera unplugged"):
            run(
                broken_source(),
                tracker,
                PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, 2),
                FAST,
            )

    def test_tracker_failure_propagates_in_parallel(self):
        scenario = fast_scenario(objects=2, frames=10)
        tracker = Tracker(TrackerConfig(embedding_dim=DIM))
        tracker.step(50, [])  # poisons ordering: pipeline frames restart at 0
        with pytest.raises(OrderingError):
            run(
                scenario_frames(scenario, 1),
                tracker,
                PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, 2),
                FAST,
            )

    def test_source_failure_propagates_in_serial(self):
        def broken_source():
            raise RuntimeError("no frames")
            yield  # pragma: no cover

        tracker = Tracker(TrackerConfig(embedding_dim=DIM))
        with pytest.raises(RuntimeError, match="no frames"):
            run(broken_source(), tracker, PipelineMode(), FAST)

    # Each cap puts the failing stage on a different thread: at cap 1 every
    # stage runs on the caller, at 2 the source runs in the inference worker,
    # at 3 in its own capture worker.
    @pytest.mark.parametrize("cap", ["1", "2", "3"])
    def test_source_failure_mid_run_joins_workers(self, cap, monkeypatch):
        monkeypatch.setenv("TRACKFORGE_THREADS", cap)
        scenario = fast_scenario(objects=2, frames=20)

        def broken_source():
            for frame_index, raw in scenario_frames(scenario, 1):
                if frame_index == 9:
                    raise KeyError("camera unplugged")
                yield frame_index, raw

        before = threading.active_count()
        tracker = Tracker(TrackerConfig(embedding_dim=DIM))
        with pytest.raises(KeyError, match="camera unplugged"):
            run(broken_source(), tracker,
                PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, 2), FAST)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cap", ["1", "2", "3"])
    def test_tracker_failure_with_full_queues_joins_workers(self, cap, monkeypatch):
        monkeypatch.setenv("TRACKFORGE_THREADS", cap)

        class StepFailure(Exception):
            pass

        class FailingTracker(Tracker):
            def step(self, frame_index, detections):
                if frame_index == 4:
                    time.sleep(0.05)  # long enough for the producers to fill both queues
                    raise StepFailure(frame_index)
                return super().step(frame_index, detections)

        scenario = fast_scenario(objects=2, frames=40)
        config = PipelineConfig(
            t_fixed_ms=0.2, t_image_ms=0.4, t_post_fixed_ms=0.1,
            t_post_per_detection_ms=0.01, q1_capacity=2, q2_capacity=3, warmup_frames=3,
        )
        before = threading.active_count()
        with pytest.raises(StepFailure):
            run(scenario_frames(scenario, 1), FailingTracker(TrackerConfig(embedding_dim=DIM)),
                PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, 2), config)
        assert threading.active_count() == before


class TestMeasureFps:
    def test_simple_arithmetic(self):
        capture = [float(i) for i in range(310)]
        # 300 measured frames over 10 seconds after excluding 10 warm-up frames
        assert measure_fps(capture, end_time=capture[10] + 10.0, warmup=10) == pytest.approx(30.0)

    def test_window_starts_at_warmup_frame_capture(self):
        capture = [0.0, 1.0, 2.0, 3.0]
        value = measure_fps(capture, end_time=5.0, warmup=2)
        assert value == pytest.approx(2 / 3.0)

    def test_zero_frames_rejected(self):
        with pytest.raises(MeasurementError):
            measure_fps([], end_time=1.0)

    def test_warmup_larger_than_stream_clamps(self):
        assert measure_fps([0.0, 1.0], end_time=2.0, warmup=10) == pytest.approx(1.0)


class TestPredictedFps:
    def test_serial_full_batch_one(self):
        config = PipelineConfig()
        mode = PipelineMode(ExecutionMode.SERIAL, Precision.FULL, 1)
        assert predicted_fps(config, mode, 20) == pytest.approx(1000.0 / 52.5)

    def test_parallel_mixed_batch_four(self):
        config = PipelineConfig()
        mode = PipelineMode(ExecutionMode.PARALLEL, Precision.MIXED, 4)
        assert predicted_fps(config, mode, 20) == pytest.approx(1000.0 / 28.724)

    def test_parallel_becomes_post_bound(self):
        config = PipelineConfig()
        mode = PipelineMode(ExecutionMode.PARALLEL, Precision.MIXED, 10)
        assert predicted_fps(config, mode, 200) == pytest.approx(1000.0 / 82.5)


class TestThroughputSanity:
    def test_serialized_fps_tracks_model(self):
        scenario = fast_scenario(objects=5, frames=60)
        config = PipelineConfig(
            t_fixed_ms=2.0, t_image_ms=10.0, t_post_fixed_ms=3.0,
            t_post_per_detection_ms=0.2, warmup_frames=5,
        )
        _, report = run_mode(scenario, ExecutionMode.SERIAL, config=config)
        expected = predicted_fps(config, PipelineMode(), 5)
        assert report.fps == pytest.approx(expected, rel=0.10)

    def test_parallel_fps_tracks_bottleneck(self):
        # In parallel mode capture runs ahead, so the post-warmup window spans
        # nearly the whole run; keep frames >> warmup for an unbiased estimate.
        scenario = fast_scenario(objects=5, frames=100)
        config = PipelineConfig(
            t_fixed_ms=2.0, t_image_ms=10.0, t_post_fixed_ms=3.0,
            t_post_per_detection_ms=0.2, warmup_frames=2,
        )
        _, report = run_mode(scenario, ExecutionMode.PARALLEL, batch=4, config=config)
        mode = PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, 4)
        assert report.fps == pytest.approx(predicted_fps(config, mode, 5), rel=0.10)


    def test_unpaced_fps_matches_output_clock(self):
        # An unpaced source fills both queues at once, so the warm-up frame is
        # captured long before it is output; the rate must not count that wait.
        class StepClock(Tracker):
            def __init__(self, config):
                super().__init__(config)
                self.done = []

            def step(self, frame_index, detections):
                output = super().step(frame_index, detections)
                self.done.append(time.perf_counter())
                return output

        scenario = fast_scenario(objects=5, frames=150)
        config = PipelineConfig(
            t_fixed_ms=1.0, t_image_ms=2.0, t_post_fixed_ms=4.0,
            t_post_per_detection_ms=0.0, warmup_frames=30,
        )
        assert scenario.frames > 4 * config.q1_capacity
        tracker = StepClock(TrackerConfig(embedding_dim=DIM))
        _, report = run(
            scenario_frames(scenario, 3), tracker,
            PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, 4), config,
        )
        warmup, done = config.warmup_frames, tracker.done
        clock_fps = (len(done) - 1 - warmup) / (done[-1] - done[warmup])
        assert report.fps == pytest.approx(clock_fps, rel=0.03)
        assert report.fps == pytest.approx(report.frames / report.seconds, rel=1e-9)


class TestRunReport:
    def test_csv_round_trip(self):
        scenario = fast_scenario(objects=3, frames=20)
        _, report = run_mode(scenario, ExecutionMode.PARALLEL, batch=2)
        row = report.csv_row()
        fields = row.split(",")
        assert len(fields) == len(RunReport.CSV_HEADER.split(",")) == 8
        assert fields[0] == "parallel"
        assert fields[1] == "full"
        assert int(fields[2]) == 2
        assert int(fields[3]) == report.frames
        assert float(fields[4]) == pytest.approx(report.seconds, abs=1e-6)
        assert float(fields[5]) == pytest.approx(report.fps, abs=1e-4)
        assert report.fps == pytest.approx(report.frames / report.seconds, rel=1e-9)

    def test_stage_busy_times_recorded(self):
        scenario = fast_scenario(objects=3, frames=20)
        _, report = run_mode(scenario, ExecutionMode.SERIAL)
        assert report.stage_busy_s["infer"] > 0
        assert report.stage_busy_s["post"] > 0


class TestThreadCap:
    def test_capped_to_two_threads_keeps_output(self, monkeypatch):
        scenario = fast_scenario(objects=4, frames=25)
        reference, _ = run_mode(scenario, ExecutionMode.PARALLEL, batch=3)
        monkeypatch.setenv("TRACKFORGE_THREADS", "2")
        capped, report = run_mode(scenario, ExecutionMode.PARALLEL, batch=3)
        assert capped == reference
        assert report.max_q1 == 0  # capture merged into the inference stage

    def test_capped_to_one_thread_keeps_output(self, monkeypatch):
        scenario = fast_scenario(objects=4, frames=25)
        reference, _ = run_mode(scenario, ExecutionMode.PARALLEL, batch=3)
        monkeypatch.setenv("TRACKFORGE_THREADS", "1")
        capped, _ = run_mode(scenario, ExecutionMode.PARALLEL, batch=3)
        assert capped == reference

    def test_invalid_value_rejected(self, monkeypatch):
        scenario = fast_scenario(objects=2, frames=5)
        monkeypatch.setenv("TRACKFORGE_THREADS", "many")
        with pytest.raises(ConfigError):
            run_mode(scenario, ExecutionMode.PARALLEL, batch=2)


class TestBusyWait:
    def test_busy_wait_mode_runs(self):
        scenario = fast_scenario(objects=2, frames=10)
        config = PipelineConfig(
            t_fixed_ms=0.2, t_image_ms=0.3, t_post_fixed_ms=0.1,
            t_post_per_detection_ms=0.01, warmup_frames=2, busy_wait=True,
        )
        outputs, _ = run_mode(scenario, ExecutionMode.PARALLEL, batch=2, config=config)
        reference, _ = run_mode(scenario, ExecutionMode.SERIAL, config=FAST)
        assert outputs == reference
