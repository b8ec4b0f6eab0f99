"""Three-stage tracking runtime: capture, batched inference, post-processing.

Every mode runs one chain: frames pulled from the source are grouped into
batches, each batch stalls for its inference price, and post-processing runs
frame by frame on the calling thread. The parallel mode cuts that chain with
bounded FIFO queues and runs the part before each cut in its own thread, so
inference on batch k+1 overlaps post-processing of batch k; the
TRACKFORGE_THREADS cap decides how many cuts there are. Post-processing stays
strictly sequential in frame order (tracker state is order-dependent), which
is why every mode and cap produces the same output stream for the same source
and tracker configuration. Serialized modes run the chain uncut and exist as
baselines for throughput comparison.

Inference cost is emulated by stalling for the LatencyModel's batch price;
post-processing stalls for whatever remains of its per-frame budget after
the real tracker work. Mixed precision selects a smaller latency factor and
quantizes detection embeddings to binary16 before association; box
coordinates always stay at full precision.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .core import Detection, normalize, quantize_binary16
from .detgen import KAPPA_FULL, KAPPA_MIXED, LatencyModel, emulated_latency
from .errors import ConfigError, MeasurementError, PipelineAborted
from .postproc import parse_output
from .tracker import Tracker, TrackerOutput

THREADS_ENV_VAR = "TRACKFORGE_THREADS"

_SENTINEL = object()


class ExecutionMode(Enum):
    SERIAL = "serial"
    BATCHED_SERIAL = "batched"
    PARALLEL = "parallel"


class Precision(Enum):
    FULL = "full"
    MIXED = "mixed"


@dataclass(frozen=True)
class PipelineMode:
    """One runnable variant: execution strategy, precision, batch size."""

    execution: ExecutionMode = ExecutionMode.SERIAL
    precision: Precision = Precision.FULL
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.execution is ExecutionMode.SERIAL and self.batch_size != 1:
            raise ConfigError("serial mode implies batch size 1")

    def label(self) -> str:
        return f"{self.execution.value}/{self.precision.value}/b{self.batch_size}"


@dataclass(frozen=True)
class PipelineConfig:
    """Latency model, queue capacities, and measurement parameters.

    The latency defaults split a 20-detection frame roughly 80/20 between
    inference (42 ms at full precision, batch 1) and post-processing
    (2.5 + 20 * 0.4 = 10.5 ms), which lands near 19 FPS serialized.
    """

    t_fixed_ms: float = 8.0
    t_image_ms: float = 34.0
    kappa_full: float = KAPPA_FULL
    kappa_mixed: float = KAPPA_MIXED
    t_post_fixed_ms: float = 2.5
    t_post_per_detection_ms: float = 0.4
    q1_capacity: int = 32
    q2_capacity: int = 64
    warmup_frames: int = 10
    busy_wait: bool = False

    def __post_init__(self) -> None:
        if self.q1_capacity < 1 or self.q2_capacity < 1:
            raise ConfigError("queue capacities must be >= 1")
        if self.warmup_frames < 0:
            raise ConfigError("warmup frame count must be >= 0")
        if self.t_post_fixed_ms < 0 or self.t_post_per_detection_ms < 0:
            raise ConfigError("post-processing latency terms must be >= 0")

    def latency_for(self, precision: Precision) -> LatencyModel:
        kappa = self.kappa_full if precision is Precision.FULL else self.kappa_mixed
        return LatencyModel(self.t_fixed_ms, self.t_image_ms, kappa)

    def post_ms(self, n_detections: int) -> float:
        return self.t_post_fixed_ms + self.t_post_per_detection_ms * n_detections


@dataclass
class RunReport:
    """Timing summary of one run; frames/seconds/fps cover the post-warmup window."""

    execution: str
    precision: str
    batch_size: int
    frames: int
    seconds: float
    fps: float
    max_q1: int
    max_q2: int
    frames_total: int = 0
    stage_busy_s: dict[str, float] = field(default_factory=dict)

    CSV_HEADER = "mode,precision,batch_size,frames,seconds,fps,max_q1,max_q2"

    def csv_row(self) -> str:
        return (
            f"{self.execution},{self.precision},{self.batch_size},"
            f"{self.frames},{self.seconds:.6f},{self.fps:.4f},{self.max_q1},{self.max_q2}"
        )


class StageQueue:
    """Bounded FIFO channel between two pipeline stages.

    `put` blocks while the queue is full, `get` blocks while it is empty, and
    `close` enqueues a sentinel delivered exactly once after the last data
    message. `abort` wakes every blocked caller with PipelineAborted so a
    failing pipeline can shut down without deadlocking.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.max_occupancy = 0
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._aborted = False

    def put(self, item) -> None:
        with self._lock:
            while len(self._items) >= self.capacity and not self._aborted:
                self._not_full.wait()
            if self._aborted:
                raise PipelineAborted("queue aborted")
            self._items.append(item)
            self.max_occupancy = max(self.max_occupancy, len(self._items))
            self._not_empty.notify()

    def get(self):
        with self._lock:
            while not self._items and not self._aborted:
                self._not_empty.wait()
            if self._aborted:
                raise PipelineAborted("queue aborted")
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def close(self) -> None:
        self.put(_SENTINEL)

    def abort(self) -> None:
        with self._lock:
            self._aborted = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def __iter__(self) -> Iterator:
        while True:
            item = self.get()
            if item is _SENTINEL:
                return
            yield item


def batcher(items: Iterable, batch_size: int) -> Iterator[list]:
    """Group items into lists of ``batch_size``, preserving order.

    Pulls until each batch fills; at the end of the items the final partial
    batch is emitted. A StageQueue is iterable, so a queue can feed it too.
    """
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    batch: list = []
    for item in items:
        batch.append(item)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def measure_fps(capture_times: list[float], end_time: float, warmup: int = 10) -> float:
    """Frames per second from the warmup-th frame's capture to the last output."""
    if not capture_times:
        raise MeasurementError("no frames were processed")
    start_index = min(max(warmup, 0), len(capture_times) - 1)
    elapsed = end_time - capture_times[start_index]
    if elapsed <= 0:
        raise MeasurementError(f"non-positive measurement window: {elapsed}")
    return (len(capture_times) - start_index) / elapsed


def predicted_fps(config: PipelineConfig, mode: PipelineMode, detections_per_frame: float) -> float:
    """Analytic throughput: bottleneck stage when parallel, stage sum otherwise."""
    latency = config.latency_for(mode.precision)
    model_ms = emulated_latency(latency, mode.batch_size) / mode.batch_size
    post_ms = config.post_ms(detections_per_frame)
    if mode.execution is ExecutionMode.PARALLEL:
        return 1000.0 / max(model_ms, post_ms)
    return 1000.0 / (model_ms + post_ms)


def run(
    source: Iterable[tuple[int, np.ndarray]],
    tracker: Tracker,
    mode: PipelineMode,
    config: PipelineConfig | None = None,
) -> tuple[list[TrackerOutput], RunReport]:
    """Drive the tracker over a detection source under the given pipeline mode.

    Returns the per-frame outputs (identical across modes for a fixed source
    and tracker configuration) and a timing report.
    """
    config = config or PipelineConfig()
    cap = _thread_cap() if mode.execution is ExecutionMode.PARALLEL else 1
    return _Runner(source, tracker, mode, config).run(cap)


class _Runner:
    def __init__(
        self,
        source: Iterable[tuple[int, np.ndarray]],
        tracker: Tracker,
        mode: PipelineMode,
        config: PipelineConfig,
    ) -> None:
        self.source = source
        self.tracker = tracker
        self.mode = mode
        self.config = config
        self.latency = config.latency_for(mode.precision)
        self.quantize = mode.precision is Precision.MIXED
        self.started = time.perf_counter()
        self.output_times: list[float] = []  # when each frame's post-processing ended
        self.outputs: list[TrackerOutput] = []
        self.busy = {"capture": 0.0, "infer": 0.0, "post": 0.0}

    def _capture(self) -> Iterator[tuple[int, np.ndarray]]:
        """Frames from the source; capture busy time is the time spent pulling them."""
        start = time.perf_counter()
        for frame in self.source:
            self.busy["capture"] += time.perf_counter() - start
            yield frame
            start = time.perf_counter()

    def _infer(self, batches: Iterable[list]) -> Iterator[tuple[int, np.ndarray]]:
        """Stall for each batch's emulated inference price, then release its frames."""
        for batch in batches:
            start = time.perf_counter()
            _delay(emulated_latency(self.latency, len(batch)) / 1000.0, self.config.busy_wait)
            self.busy["infer"] += time.perf_counter() - start
            yield from batch

    def _post_one(self, frame_index: int, raw: np.ndarray) -> None:
        start = time.perf_counter()
        detections = parse_output(raw, self.tracker.config.embedding_dim)
        if self.quantize:
            detections = [_quantize_detection(d) for d in detections]
        output = self.tracker.step(frame_index, detections)
        budget = self.config.post_ms(raw.shape[0]) / 1000.0
        residual = budget - (time.perf_counter() - start)
        if residual > 0:
            _delay(residual, self.config.busy_wait)
        end = time.perf_counter()
        self.busy["post"] += end - start
        self.outputs.append(output)
        self.output_times.append(end)

    def run(self, cap: int) -> tuple[list[TrackerOutput], RunReport]:
        """Run the capture -> batch -> infer -> post chain, post on this thread.

        A queue and a worker thread cut the chain before batching when
        ``cap >= 3`` (q1) and before post-processing when ``cap >= 2`` (q2).
        """
        q1 = StageQueue(self.config.q1_capacity)
        q2 = StageQueue(self.config.q2_capacity)
        failures: list[BaseException] = []
        workers: list[threading.Thread] = []

        def fail(exc: BaseException) -> None:
            # A PipelineAborted only echoes a failure recorded elsewhere.
            if not isinstance(exc, PipelineAborted):
                failures.append(exc)
            q1.abort()
            q2.abort()

        def feed(stage: Iterator, queue: StageQueue) -> None:
            try:
                for item in stage:
                    queue.put(item)
                queue.close()
            except BaseException as exc:
                fail(exc)

        def hand_off(stage: Iterator, queue: StageQueue) -> StageQueue:
            worker = threading.Thread(target=feed, args=(stage, queue), daemon=True)
            workers.append(worker)
            worker.start()
            return queue

        frames: Iterable = self._capture()
        if cap >= 3:
            frames = hand_off(frames, q1)
        frames = self._infer(batcher(frames, self.mode.batch_size))
        if cap >= 2:
            frames = hand_off(frames, q2)
        try:
            for frame_index, raw in frames:
                self._post_one(frame_index, raw)
        except BaseException as exc:
            fail(exc)
        finally:
            for worker in workers:
                worker.join()
        if failures:
            raise failures[0]
        return self.outputs, self._report(q1.max_occupancy, q2.max_occupancy)

    def _report(self, max_q1: int, max_q2: int) -> RunReport:
        total = len(self.output_times)
        frames, seconds, fps = 0, 0.0, 0.0
        if total:
            # Measured at the output, so the window skips the pipeline filling
            # up: frame k's window opens when frame k - 1's output is out (the
            # run's start for frame 0) and the last one closes it.
            opened = [self.started] + self.output_times[:-1]
            start_index = min(self.config.warmup_frames, total - 1)
            frames = total - start_index
            seconds = self.output_times[-1] - opened[start_index]
            fps = measure_fps(opened, self.output_times[-1], self.config.warmup_frames)
        return RunReport(
            execution=self.mode.execution.value,
            precision=self.mode.precision.value,
            batch_size=self.mode.batch_size,
            frames=frames,
            seconds=seconds,
            fps=fps,
            max_q1=max_q1,
            max_q2=max_q2,
            frames_total=total,
            stage_busy_s=dict(self.busy),
        )


def _quantize_detection(det: Detection) -> Detection:
    """Reduce the embedding to binary16 resolution; renormalize so downstream
    cosine math keeps its unit-norm precondition (direction is preserved)."""
    if det.embedding is None:
        return det
    return replace(det, embedding=normalize(quantize_binary16(det.embedding)))


# time.sleep can overshoot by a millisecond or more depending on kernel timer
# slack, which would skew the emulated latencies. Sleep coarsely to just short
# of the deadline, step down in 1 ms sleeps, and cover the final fraction of a
# millisecond with sleep(0) yields (cheap, and still releases the GIL).
_SLEEP_GUARD_S = 0.002
_SLEEP_STEP_S = 0.001


def _delay(seconds: float, busy_wait: bool) -> None:
    if seconds <= 0:
        return
    deadline = time.perf_counter() + seconds
    if busy_wait:
        while time.perf_counter() < deadline:
            pass
        return
    coarse = seconds - _SLEEP_GUARD_S
    if coarse > 0:
        time.sleep(coarse)
    while deadline - time.perf_counter() > 1.2 * _SLEEP_STEP_S:
        time.sleep(_SLEEP_STEP_S)
    while time.perf_counter() < deadline:
        time.sleep(0)


def _thread_cap() -> int:
    value = os.environ.get(THREADS_ENV_VAR)
    if value is None or not value.strip():
        return 3
    try:
        cap = int(value)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {value!r}") from exc
    if cap < 1:
        raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1, got {cap}")
    return cap
