"""Three-stage tracking runtime: capture, batched inference, post-processing.

Every mode runs one chain: frames pulled from the source are grouped into
batches, each batch stalls for its inference price, and post-processing runs
frame by frame on the calling thread. The ``serial`` and ``batched`` modes run
the chain uncut and exist as baselines for throughput comparison. The
``parallel`` mode cuts it with two bounded FIFO queues, capture in a worker
thread behind q1 and inference in another behind q2, so inference on batch
k+1 overlaps post-processing of batch k. Post-processing stays strictly
sequential in frame order (tracker state is order-dependent), which is why
every mode produces the same output stream for the same source and tracker
configuration.

How a batch forms depends on whether frames wait in a queue before
inference. In the ``parallel`` mode capture runs ahead into q1, and a batch is
what is waiting there when inference becomes free, at least one frame and at
most ``batch_size``: full batches while inference is the bottleneck, no wait
for frames that have not arrived yet when it is not. In the uncut chain
nothing waits until it is pulled, so every batch but the last fills to
``batch_size``.

Inference cost is emulated, not computed: ``PipelineConfig.infer_ms`` prices
a batch as ``t_fixed + batch_size * t_image * kappa`` milliseconds, where
``kappa`` is 1 at full precision by definition and ``kappa_mixed`` at mixed
precision. Post-processing stalls for whatever remains of its per-frame
budget, ``PipelineConfig.post_ms``, after the real tracker work. A stall that
wakes past its deadline is made up by the stage's next stalls, so each
stage's stalls add up to its prices. Mixed precision also quantizes detection
embeddings to binary16 before association; box coordinates always stay at
full precision.

Post-processing handles a frame as one DetectionBatch: ``parse_output``
builds it, mixed precision quantizes and renormalizes its whole embedding
matrix in one call each, and ``Tracker.step`` takes it as is.
"""

from __future__ import annotations

import numbers
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .core import normalize, quantize_binary16
from .errors import ConfigError, PipelineAborted
from .postproc import parse_output
from .tracker import Tracker, TrackerOutput, _finite_number

_SENTINEL = object()

# Share of the full-precision per-image model time left when numerically safe
# operations drop to half precision. A calibration of the emulator, not a
# measurement of any real model.
KAPPA_MIXED = 0.786
# Upper bound on each price term of PipelineConfig, in milliseconds: a minute
# per frame or detection is far beyond any real-time tracker, and it keeps
# every stall a finite time that time.sleep accepts.
_MAX_PRICE_MS = 60_000.0


def _integer_at_least(value, low: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


class ExecutionMode(Enum):
    SERIAL = "serial"
    BATCHED_SERIAL = "batched"
    PARALLEL = "parallel"


class Precision(Enum):
    FULL = "full"
    MIXED = "mixed"


@dataclass(frozen=True)
class PipelineMode:
    """One runnable variant: execution strategy, precision, batch size.

    ``batch_size`` is the most frames one inference call takes. ``serial`` and
    ``batched`` modes fill every batch but the last; ``parallel`` takes what
    is waiting in the capture queue, up to ``batch_size``.
    """

    execution: ExecutionMode = ExecutionMode.SERIAL
    precision: Precision = Precision.FULL
    batch_size: int = 1

    def __post_init__(self) -> None:
        if not _integer_at_least(self.batch_size, 1):
            raise ConfigError(f"batch size must be an integer >= 1, got {self.batch_size!r}")
        if self.execution is ExecutionMode.SERIAL and self.batch_size != 1:
            raise ConfigError("serial mode implies batch size 1")

    def label(self) -> str:
        return f"{self.execution.value}/{self.precision.value}/b{self.batch_size}"


@dataclass(frozen=True)
class PipelineConfig:
    """Emulated prices, queue capacities, and measurement parameters.

    The price defaults split a 20-detection frame roughly 80/20 between
    inference (42 ms at full precision, batch 1) and post-processing
    (2.5 + 20 * 0.4 = 10.5 ms), which lands near 19 FPS serialized.
    ``t_fixed_ms`` and ``t_image_ms`` lie in (0, 60000], the post terms in
    [0, 60000] and ``kappa_mixed`` in (0, 1]; the capacities are integers
    >= 1 and ``warmup_frames`` an integer >= 0.
    """

    t_fixed_ms: float = 8.0
    t_image_ms: float = 34.0
    kappa_mixed: float = KAPPA_MIXED
    t_post_fixed_ms: float = 2.5
    t_post_per_detection_ms: float = 0.4
    q1_capacity: int = 32
    q2_capacity: int = 64
    warmup_frames: int = 10

    def __post_init__(self) -> None:
        for name, low, high in (
            ("t_fixed_ms", 0.0, _MAX_PRICE_MS), ("t_image_ms", 0.0, _MAX_PRICE_MS),
            ("kappa_mixed", 0.0, 1.0),
        ):
            value = getattr(self, name)
            if not (_finite_number(value) and low < value <= high):
                raise ConfigError(f"{name} must be a number in ({low:g}, {high:g}], got {value!r}")
        for name in ("t_post_fixed_ms", "t_post_per_detection_ms"):
            value = getattr(self, name)
            if not (_finite_number(value) and 0.0 <= value <= _MAX_PRICE_MS):
                raise ConfigError(
                    f"{name} must be a number in [0, {_MAX_PRICE_MS:g}], got {value!r}"
                )
        for name, low in (("q1_capacity", 1), ("q2_capacity", 1), ("warmup_frames", 0)):
            if not _integer_at_least(getattr(self, name), low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {getattr(self, name)!r}")

    def infer_ms(self, precision: Precision, batch_size: int) -> float:
        """Milliseconds one inference call on ``batch_size`` frames stalls for."""
        if batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {batch_size}")
        kappa = 1.0 if precision is Precision.FULL else self.kappa_mixed
        return self.t_fixed_ms + batch_size * self.t_image_ms * kappa

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
    batches: int = 0  # inference calls; frames_total / batches is the mean batch size
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
    message. `take` pops several items under one lock and stops short of the
    sentinel. `abort` wakes every blocked caller with PipelineAborted so a
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

    def take(self, limit: int) -> list:
        """Block for the first item, then pop what else is queued, ``limit`` in all.

        Stops before the close sentinel and leaves it queued, so once every
        data item is taken this and every later call return ``[]``.
        """
        if limit < 1:
            raise ConfigError(f"take limit must be >= 1, got {limit}")
        with self._lock:
            while not self._items and not self._aborted:
                self._not_empty.wait()
            if self._aborted:
                raise PipelineAborted("queue aborted")
            items = []
            while self._items and len(items) < limit and self._items[0] is not _SENTINEL:
                items.append(self._items.popleft())
            self._not_full.notify(len(items))
            return items

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
    batch is emitted. This is how the uncut chain of the ``serial`` and
    ``batched`` modes batches, where the next frame exists only once it is
    pulled; behind the capture queue of the ``parallel`` mode
    ``StageQueue.take`` forms the batches instead.
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


def predicted_fps(config: PipelineConfig, mode: PipelineMode, detections_per_frame: float) -> float:
    """Analytic saturated throughput: bottleneck stage when parallel, stage sum otherwise.

    It is the rate of an unpaced source, under which every batch is full. A
    source slower than this rate leaves the parallel runtime smaller batches
    and idle time, and runs at the source's rate.
    """
    model_ms = config.infer_ms(mode.precision, mode.batch_size) / mode.batch_size
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
    return _Runner(source, tracker, mode, config or PipelineConfig()).run()


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
        self.quantize = mode.precision is Precision.MIXED
        self.started = time.perf_counter()
        self.output_times: list[float] = []  # when each frame's post-processing ended
        self.outputs: list[TrackerOutput] = []
        self.busy = {"capture": 0.0, "infer": 0.0, "post": 0.0}
        self.batches = 0
        self.credit = {"infer": 0.0, "post": 0.0}

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
            self._stall("infer", self.config.infer_ms(self.mode.precision, len(batch)) / 1000.0)
            self.busy["infer"] += time.perf_counter() - start
            self.batches += 1
            yield from batch

    def _post_one(self, frame_index: int, raw: np.ndarray) -> None:
        start = time.perf_counter()
        detections = parse_output(raw, self.tracker.config.embedding_dim)
        if self.quantize and detections.embeddings is not None:
            # Renormalized so cosine math keeps its unit-norm precondition.
            detections = replace(
                detections, embeddings=normalize(quantize_binary16(detections.embeddings))
            )
        output = self.tracker.step(frame_index, detections)
        budget = self.config.post_ms(raw.shape[0]) / 1000.0
        self._stall("post", budget - (time.perf_counter() - start))
        end = time.perf_counter()
        self.busy["post"] += end - start
        self.outputs.append(output)
        self.output_times.append(end)

    def _stall(self, stage: str, seconds: float) -> None:
        """Stall for ``seconds``, less the stage's credit.

        The credit is what the stage's earlier stalls overshot their deadlines
        by, so over a run each stage stalls for the sum of its prices, which is
        what predicted_fps assumes. A stall the credit covers is skipped and
        the rest of the credit carries forward. A negative ``seconds`` (work
        that overran its budget) uses no credit and earns none.
        """
        credit = self.credit[stage]
        if seconds <= credit:
            self.credit[stage] = credit - max(seconds, 0.0)
        else:
            self.credit[stage] = _delay(seconds - credit)

    def run(self) -> tuple[list[TrackerOutput], RunReport]:
        """Run the capture -> batch -> infer -> post chain, post on this thread.

        In the ``parallel`` mode a queue and a worker thread cut the chain
        before batching (q1) and before post-processing (q2), and each batch
        is what waits in q1, up to the batch size. The other modes run the
        chain uncut on this thread.
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

        batch_size = self.mode.batch_size
        if self.mode.execution is ExecutionMode.PARALLEL:
            hand_off(self._capture(), q1)
            frames: Iterable = hand_off(self._infer(iter(lambda: q1.take(batch_size), [])), q2)
        else:
            frames = self._infer(batcher(self._capture(), batch_size))
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
            fps = frames / seconds
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
            batches=self.batches,
            stage_busy_s=dict(self.busy),
        )


# time.sleep can overshoot by a millisecond or more depending on kernel timer
# slack, which would skew the emulated latencies. Sleep coarsely to just short
# of the deadline, step down in 1 ms sleeps, and cover the final fraction of a
# millisecond with sleep(0) yields (cheap, and still releases the GIL).
_SLEEP_GUARD_S = 0.002
_SLEEP_STEP_S = 0.001


def _delay(seconds: float) -> float:
    """Stall for ``seconds``; returns how far past the deadline it woke."""
    deadline = time.perf_counter() + seconds
    coarse = seconds - _SLEEP_GUARD_S
    if coarse > 0:
        time.sleep(coarse)
    while deadline - time.perf_counter() > 1.2 * _SLEEP_STEP_S:
        time.sleep(_SLEEP_STEP_S)
    while time.perf_counter() < deadline:
        time.sleep(0)
    return time.perf_counter() - deadline

