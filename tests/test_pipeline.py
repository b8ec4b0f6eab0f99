import math
import sys
import threading
import time

import numpy as np
import pytest

from trackforge.cli import write_mot_results
from trackforge.detgen import NoiseParams, make_scenario, scenario_frames
from trackforge import pipeline
from trackforge.errors import ConfigError, OrderingError, PipelineAborted
from trackforge.pipeline import (
    ExecutionMode,
    PipelineConfig,
    PipelineMode,
    Precision,
    RunReport,
    StageQueue,
    batcher,
    predicted_fps,
    run,
)
from trackforge.postproc import parse_output
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


class StepClock(Tracker):
    """Tracker that records when each step returns."""

    def __init__(self, config):
        super().__init__(config)
        self.done = []

    def step(self, frame_index, detections):
        output = super().step(frame_index, detections)
        self.done.append(time.perf_counter())
        return output


class PacedFrames:
    """Open-loop source: releases frame i at t0 + i * period, and records when it was due."""

    def __init__(self, frames, period):
        self.frames = frames
        self.period = period
        self.due = []

    def __iter__(self):
        start = time.perf_counter()
        for i, frame in enumerate(self.frames):
            due = start + i * self.period
            time.sleep(max(0.0, due - time.perf_counter()))
            self.due.append(due)
            yield frame


# One frame costs 3 ms of inference, a 40 ms period leaves the model idle
# between frames, and a full batch of 4 would wait 3 periods for its last frame.
PACED_CONFIG = PipelineConfig(
    t_fixed_ms=1.0, t_image_ms=2.0, t_post_fixed_ms=0.5,
    t_post_per_detection_ms=0.0, warmup_frames=0,
)
PACED_PERIOD_S = 0.040
PACED_BATCH = 4

# One mode of each layout: the uncut chain on the caller, and capture and
# inference in worker threads of their own.
LAYOUTS = [ExecutionMode.BATCHED_SERIAL, ExecutionMode.PARALLEL]


def paced_run(execution, frames=16):
    scenario = fast_scenario(objects=4, frames=frames, noise=NoiseParams(sigma_box=0.5))
    source = PacedFrames(list(scenario_frames(scenario, 3)), PACED_PERIOD_S)
    tracker = StepClock(TrackerConfig(embedding_dim=DIM))
    outputs, report = run(
        source, tracker,
        PipelineMode(execution, Precision.FULL, PACED_BATCH), PACED_CONFIG,
    )
    latency = [done - due for done, due in zip(tracker.done, source.due)]
    return outputs, report, latency


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


class TestStageQueueTake:
    def _queue_of(self, items, close=False):
        q = StageQueue(capacity=len(items) + 1)
        for item in items:
            q.put(item)
        if close:
            q.close()
        return q

    def test_respects_limit_in_fifo_order(self):
        q = self._queue_of(list(range(7)))
        assert [q.take(3), q.take(3), q.take(3)] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_partial_when_fewer_queued(self):
        q = self._queue_of([5, 6])
        assert q.take(4) == [5, 6]

    def test_stops_before_sentinel_then_returns_empty(self):
        q = self._queue_of([0, 1, 2], close=True)
        assert q.take(2) == [0, 1]
        assert q.take(5) == [2]
        assert [q.take(5), q.take(1), q.take(5)] == [[], [], []]

    def test_empty_stream_returns_empty(self):
        assert self._queue_of([], close=True).take(3) == []

    def test_invalid_limit(self):
        with pytest.raises(ConfigError):
            StageQueue(2).take(0)

    def _blocked_taker(self, q):
        result = []

        def taker():
            try:
                result.append(q.take(4))
            except PipelineAborted:
                result.append("aborted")

        thread = threading.Thread(target=taker, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert thread.is_alive() and result == []  # blocked: queue empty
        return thread, result

    def test_blocked_taker_wakes_on_put(self):
        q = StageQueue(capacity=4)
        thread, result = self._blocked_taker(q)
        q.put(7)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result == [[7]]

    def test_blocked_taker_wakes_on_abort(self):
        q = StageQueue(capacity=4)
        thread, result = self._blocked_taker(q)
        q.abort()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result == ["aborted"]

    def test_racing_producer_loses_and_duplicates_nothing(self):
        q = StageQueue(capacity=3)
        count, limit = 3000, 4
        batches = []

        def producer():
            for i in range(count):
                q.put(i)
            q.close()

        def taker():
            batches.extend(iter(lambda: q.take(limit), []))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=f, daemon=True) for f in (producer, taker)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [item for batch in batches for item in batch] == list(range(count))
        assert all(1 <= len(batch) <= limit for batch in batches)
        assert q.max_occupancy <= 3


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

    # A NaN batch size made the parallel mode take nothing and run no frame.
    @pytest.mark.parametrize("size", [math.nan, 2.5, True])
    def test_batch_must_be_an_integer(self, size):
        with pytest.raises(ConfigError, match="batch size"):
            PipelineMode(ExecutionMode.PARALLEL, Precision.FULL, size)

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
        # Poisons ordering: pipeline frames restart at 0.
        tracker.step(50, parse_output(np.zeros((0, 6 + DIM)), DIM))
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

    # The uncut chain fails on the caller; in parallel mode the source fails in
    # the capture worker and the tracker on the caller while both workers run.
    @pytest.mark.parametrize("execution", LAYOUTS, ids=lambda mode: mode.value)
    def test_source_failure_mid_run_joins_workers(self, execution):
        scenario = fast_scenario(objects=2, frames=20)

        def broken_source():
            for frame_index, raw in scenario_frames(scenario, 1):
                if frame_index == 9:
                    raise KeyError("camera unplugged")
                yield frame_index, raw

        before = threading.active_count()
        tracker = Tracker(TrackerConfig(embedding_dim=DIM))
        with pytest.raises(KeyError, match="camera unplugged"):
            run(broken_source(), tracker, PipelineMode(execution, Precision.FULL, 2), FAST)
        assert threading.active_count() == before

    @pytest.mark.parametrize("execution", LAYOUTS, ids=lambda mode: mode.value)
    def test_tracker_failure_with_full_queues_joins_workers(self, execution):
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
                PipelineMode(execution, Precision.FULL, 2), config)
        assert threading.active_count() == before


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

    def test_warmup_larger_than_stream_clamps(self):
        # Fewer frames than warm-up frames: the window holds the last frame only.
        config = PipelineConfig(
            t_fixed_ms=0.2, t_image_ms=0.4, t_post_fixed_ms=0.1,
            t_post_per_detection_ms=0.01, warmup_frames=50,
        )
        scenario = fast_scenario(objects=2, frames=5)
        _, report = run_mode(scenario, ExecutionMode.SERIAL, config=config)
        assert (report.frames_total, report.frames) == (5, 1)
        assert report.seconds > 0
        assert report.fps == 1 / report.seconds

    def test_empty_source_reports_an_empty_window(self):
        tracker = Tracker(TrackerConfig(embedding_dim=DIM))
        outputs, report = run([], tracker, PipelineMode(), FAST)
        assert outputs == []
        assert (report.frames_total, report.frames, report.seconds, report.fps) == (0, 0, 0.0, 0.0)

    def test_stage_busy_times_recorded(self):
        scenario = fast_scenario(objects=3, frames=20)
        _, report = run_mode(scenario, ExecutionMode.SERIAL)
        assert report.stage_busy_s["infer"] > 0
        assert report.stage_busy_s["post"] > 0


class TestDynamicBatching:
    # Inference (2 + 3 * b ms a batch) is far slower than capture, so an
    # unpaced source keeps q1 full after the first batch.
    SLOW_INFER = PipelineConfig(
        t_fixed_ms=2.0, t_image_ms=3.0, t_post_fixed_ms=0.1,
        t_post_per_detection_ms=0.01, warmup_frames=3,
    )

    def test_unpaced_batches_stay_full_behind_the_capture_queue(self):
        scenario = fast_scenario(objects=5, frames=40)
        outputs, report = run_mode(scenario, ExecutionMode.PARALLEL, batch=4,
                                   config=self.SLOW_INFER)
        assert len(outputs) == report.frames_total == 40
        # The first take may find one frame; every later batch but the last is full.
        assert math.ceil(40 / 4) <= report.batches <= math.ceil(40 / 4) + 1

    def test_uncut_chain_fills_every_batch(self):
        scenario = fast_scenario(objects=5, frames=25)
        _, report = run_mode(scenario, ExecutionMode.BATCHED_SERIAL, batch=4)
        assert report.batches == math.ceil(25 / 4)

    def test_paced_source_runs_batches_of_one_without_fill_wait(self):
        one_frame_s = PACED_CONFIG.infer_ms(Precision.FULL, 1) / 1000
        assert PACED_PERIOD_S > one_frame_s
        outputs, report, latency = paced_run(ExecutionMode.PARALLEL)
        assert report.batches == len(outputs) == 16
        fill_wait_s = (PACED_BATCH - 1) * PACED_PERIOD_S
        assert max(latency) < fill_wait_s, latency


class TestLayouts:
    @pytest.mark.parametrize("execution, batch, workers", [
        (ExecutionMode.SERIAL, 1, 0),
        (ExecutionMode.BATCHED_SERIAL, 4, 0),
        (ExecutionMode.PARALLEL, 4, 2),
    ])
    def test_only_parallel_runs_worker_threads(self, execution, batch, workers):
        stepped = threading.Event()

        class SignallingTracker(Tracker):
            def step(self, frame_index, detections):
                output = super().step(frame_index, detections)
                stepped.set()
                return output

        scenario = fast_scenario(objects=2, frames=12)
        counts = []

        def counting_source():
            for frame_index, raw in scenario_frames(scenario, 1):
                if frame_index == 8:
                    # A frame has been tracked, so every stage has started.
                    assert stepped.wait(timeout=10)
                    counts.append(threading.active_count())
                yield frame_index, raw

        before = threading.active_count()
        run(counting_source(), SignallingTracker(TrackerConfig(embedding_dim=DIM)),
            PipelineMode(execution, Precision.FULL, batch), FAST)
        assert counts == [before + workers]
        assert threading.active_count() == before

    def test_paced_source_keeps_output_in_every_mode(self, tmp_path):
        reference, _ = run_mode(
            fast_scenario(objects=4, frames=16, noise=NoiseParams(sigma_box=0.5)),
            ExecutionMode.SERIAL,
        )
        write_mot_results(tmp_path / "serial.txt", reference)
        expected = (tmp_path / "serial.txt").read_bytes()
        assert expected
        for execution, batches in zip(LAYOUTS, (4, 16)):
            outputs, report, _ = paced_run(execution)
            write_mot_results(tmp_path / f"{execution.value}.txt", outputs)
            assert (tmp_path / f"{execution.value}.txt").read_bytes() == expected, execution
            assert report.batches == batches, execution


class FakeClock:
    """Stands in for the time module: a sleep of 1.5 ms or more wakes up late
    by the next entry of ``late``, and a sleep(0) yield costs 0.1 ms."""

    def __init__(self, late):
        self.now = 0.0
        self.late = list(late)

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(seconds, 1e-4)
        if seconds >= 1.5e-3 and self.late:
            self.now += self.late.pop(0)


class TestStallCredit:
    def runner(self, monkeypatch, late):
        clock = FakeClock(late)
        monkeypatch.setattr(pipeline, "time", clock)
        return clock, pipeline._Runner([], None, PipelineMode(), PipelineConfig())

    def test_overshoot_shortens_later_stalls(self, monkeypatch):
        clock, runner = self.runner(monkeypatch, late=[0.007])
        prices = [0.010, 0.004, 0.004, 0.010]
        credits = []
        for price in prices:
            runner._stall("infer", price)
            credits.append(runner.credit["infer"])
        # The first stall's coarse 8 ms sleep wakes 7 ms late: 5 ms past its
        # deadline. The next 4 ms stall is skipped and 1 ms carries forward.
        assert credits[:2] == [pytest.approx(0.005), pytest.approx(0.001)]
        assert clock.now == pytest.approx(sum(prices), abs=2e-4)
        assert runner.credit["post"] == 0.0

    def test_overrun_work_earns_no_credit(self, monkeypatch):
        clock, runner = self.runner(monkeypatch, late=[])
        runner.credit["post"] = 0.001
        runner._stall("post", -0.003)
        assert runner.credit["post"] == 0.001
        assert clock.now == 0.0
