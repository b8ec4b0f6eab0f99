"""Tracking benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 trackbench/run.py --workload sparse-20 --seed 1 --seconds 13 --trace 0
    python3 trackbench/run.py --seed 1      # every workload, each in its own process

One invocation measures one workload in this process. It prints each metric
as ``name value unit`` and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program under test
is imported from ``src/`` next to this directory and receives only inputs the
benchmark generated from ``--seed``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "trackforge" / "__init__.py").is_file():
    sys.exit(f"trackbench: no program sources at {SRC}")
sys.path.insert(0, str(SRC))

from trackforge import cli, detgen, moteval  # noqa: E402
from trackforge.core import BoundingBox  # noqa: E402
from trackforge.detgen import NoiseParams  # noqa: E402
from trackforge.pipeline import (  # noqa: E402
    ExecutionMode,
    PipelineConfig,
    PipelineMode,
    Precision,
    run,
)
from trackforge.tracker import Tracker, TrackerConfig  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

# The shipped variant, MP+BW+PP.
MODE = PipelineMode(ExecutionMode.PARALLEL, Precision.MIXED, 4)
# evaluate() calls at each point of the run where eval_s is sampled: enough
# to fill this many seconds (one call on dense-100, one or two on sparse-20).
EVAL_SAMPLE_S = 0.5
# A speed probe runs the probe kernel for PROBE_S and takes its mean call
# time, after SETTLE_S of sleep when it follows a pipeline pass, whose BLAS
# threads keep spinning for a moment. REFERENCE_S is that mean at the CPU
# speed eval_s is stated at: a round figure near the probe's usual time on
# the host of README.md's reference figures.
PROBE_S = 0.25
SETTLE_S = 0.2
REFERENCE_S = 0.007
# Light noise: a few misses, box and embedding jitter, some clutter.
LIGHT = dict(p_miss=0.03, sigma_box=1.0, sigma_emb=0.02, sigma_conf=0.02)


@dataclass(frozen=True)
class Workload:
    """One input stream and how it reaches the pipeline."""

    name: str
    objects: int
    noise: NoiseParams
    rate_fps: float  # pace of the latency run; below the unpaced fps
    from_files: bool  # replay a MOT detection file and embedding sidecar
    embedding_dim: int = 512
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    repeats: int = 3  # compute-only passes; each is followed by setup and evaluate()

    def frames(self, seconds: float) -> int:
        """Warm-up plus enough frames for the paced run to last ``seconds``."""
        return self.pipeline.warmup_frames + max(1, round(self.rate_fps * seconds))

    def compute_only(self) -> PipelineConfig:
        """Smallest positive inference terms the config accepts, no post budget."""
        tiny = math.ulp(0.0)
        return replace(self.pipeline, t_fixed_ms=tiny, t_image_ms=tiny,
                       t_post_fixed_ms=0.0, t_post_per_detection_ms=0.0)


WORKLOADS = {
    w.name: w
    for w in (
        # Its compute passes take about 2 s, so they need more samples than
        # dense-100's to ride out timing jitter on a shared host.
        Workload("sparse-20", 20, NoiseParams(**LIGHT, lambda_fp=0.05), 30.0, False, repeats=7),
        Workload("dense-100", 100, NoiseParams(**LIGHT, lambda_fp=2.0), 8.0, True),
    )
}


_PROBE_BOXES = [(float(i % 97) * 3.0, float(i % 89) * 2.0, 20.0 + i % 7, 30.0 + i % 5)
                for i in range(120)]


def _probe_iou(a, b) -> float:
    inter_w = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    inter_h = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if inter_w <= 0 or inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def probe_kernel() -> int:
    """Fixed pure-Python work shaped like evaluate()'s IoU loops; no program code."""
    covered: dict[int, int] = {}
    for i, a in enumerate(_PROBE_BOXES):
        for b in _PROBE_BOXES[:40]:
            if _probe_iou(a, b) >= 0.5:
                covered[i] = covered.get(i, 0) + 1
    return len(covered)


class Speed:
    """How slow the host's CPU runs now, from the probe kernel timed around a measurement.

    On a shared host the same evaluate() call can take 40 % longer for tens of
    seconds. ``around()`` returns the mean probe time just before and just
    after the measurement, over REFERENCE_S; a time divided by it is stated at
    reference speed.
    """

    def __init__(self) -> None:
        self.last = 0.0

    @staticmethod
    def probe() -> float:
        calls = 0
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < PROBE_S:
            probe_kernel()
            calls += 1
        return elapsed / calls

    def settle(self) -> None:
        """Start a series of measurements; call after other work, before the first."""
        time.sleep(SETTLE_S)
        self.last = self.probe()

    def around(self) -> float:
        """Slowness over the measurement since the previous call (or ``settle``)."""
        before, self.last = self.last, self.probe()
        return (before + self.last) / 2.0 / REFERENCE_S


class StepClock(Tracker):
    """Tracker that records when each step returns and how many tracks are live."""

    def __init__(self, config: TrackerConfig) -> None:
        super().__init__(config)
        self.done: list[float] = []
        self.live: list[int] = []

    def step(self, frame_index, detections):
        output = super().step(frame_index, detections)
        self.done.append(time.perf_counter())
        if hasattr(self, "tracks"):
            self.live.append(len(self.tracks))
        return output


class PacedSource:
    """Open-loop source: releases frame i at t0 + i / rate, late or not."""

    def __init__(self, frames: list, rate: float) -> None:
        self.frames = frames
        self.period = 1.0 / rate
        self.due: list[float] = []
        self.released: list[float] = []

    def __iter__(self):
        start = time.perf_counter()
        for i, frame in enumerate(self.frames):
            due = start + i * self.period
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self.due.append(due)
            self.released.append(time.perf_counter())
            yield frame


@dataclass
class Pass:
    outputs: list
    report: object
    tracker: StepClock
    wall_s: float


def track(w: Workload, source, config: PipelineConfig) -> Pass:
    tracker = StepClock(TrackerConfig(embedding_dim=w.embedding_dim))
    start = time.perf_counter()
    outputs, report = run(source, tracker, MODE, config)
    return Pass(outputs, report, tracker, time.perf_counter() - start)


def warm_up(w: Workload, seed: int) -> None:
    """Untimed pass so first-call costs (lazy imports, BLAS threads) miss the runs."""
    track(w, generate(w, seed, 20), w.compute_only())


def after_warmup_fps(done: list[float], warmup: int) -> float:
    """Frames after the warm-up frame over the time from its output to the last."""
    return (len(done) - 1 - warmup) / (done[-1] - done[warmup])


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1000.0, q))


# -- inputs -------------------------------------------------------------------

def scenario_of(w: Workload, seed: int, n_frames: int):
    return detgen.make_scenario(w.objects, n_frames, seed, noise=w.noise,
                                embedding_dim=w.embedding_dim)


def generate(w: Workload, seed: int, n_frames: int) -> list:
    scenario = scenario_of(w, seed, n_frames)
    return [(i, detgen.generate_frame(scenario, i, seed)[0]) for i in range(n_frames)]


def prepare(w: Workload, seed: int, n_frames: int, workdir: Path):
    """Untimed: scenario, exact ground truth, and the detection file and sidecar."""
    scenario = scenario_of(w, seed, n_frames)
    lines, records = [], {}
    for i in range(n_frames):
        raw, _ = detgen.generate_frame(scenario, i, seed)
        for j, row in enumerate(raw):
            lines.append(cli.format_mot_row(i, j + 1, BoundingBox(*row[:4]), row[4]))
            records[(i, j)] = row[6:].astype(np.float32)
    (workdir / "det.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    detgen.write_embedding_sidecar(workdir / "emb.bin", records, w.embedding_dim)
    return scenario, detgen.scenario_ground_truth(scenario)


def load_files(w: Workload, n_frames: int, workdir: Path) -> list:
    rows = detgen.load_mot_detections(workdir / "det.txt")
    attached = detgen.load_embedding_sidecar(workdir / "emb.bin", rows, w.embedding_dim)
    empty = np.zeros((0, 6 + w.embedding_dim))
    return [(i, attached.get(i, empty)) for i in range(n_frames)]


def setup(w: Workload, seed: int, n_frames: int, workdir: Path) -> list:
    """Timed: the workload's frames, built with the program's own code."""
    return load_files(w, n_frames, workdir) if w.from_files else generate(w, seed, n_frames)


def frame_map(outputs: list) -> dict:
    return {out.frame_index: [(i, box) for i, box, _ in out.records] for out in outputs}


def score(w: Workload, outputs: list, truth: dict, workdir: Path):
    """Timed: evaluate() against exact ground truth; file replay reads results back."""
    start = time.perf_counter()
    if w.from_files:
        cli.write_mot_results(workdir / "res.txt", outputs)
        hyp = moteval.load_mot_tracks(workdir / "res.txt")
    else:
        hyp = frame_map(outputs)
    report = moteval.evaluate(truth, hyp)
    return time.perf_counter() - start, report


# -- one run ------------------------------------------------------------------

def bench(w: Workload, seed: int, seconds: float, traced: bool, workdir: Path,
          trace_path: Path | None = None) -> dict:
    """One run: untraced, the end-to-end metrics; traced, the per-layer ones."""
    n_frames = w.frames(seconds)
    warmup = w.pipeline.warmup_frames
    problems: list[str] = []
    warm_up(w, seed)
    recorder = layers.install(w.pipeline) if traced else None
    samples: dict[str, list[float]] = {"setup_s": [], "eval_s": [], "compute_fps": [],
                                       "eval_wall_s": [], "slowness": []}
    speed = Speed()

    def timed_setup() -> list:
        start = time.perf_counter()
        built = setup(w, seed, n_frames, workdir)
        samples["setup_s"].append(time.perf_counter() - start)
        return built

    def timed_score():
        """eval_s samples from the calls that fill EVAL_SAMPLE_S, each at reference speed."""
        spent = 0.0
        speed.settle()
        while spent < EVAL_SAMPLE_S or not spent:
            seconds_taken, report = score(w, outputs, truth, workdir)
            slowness = speed.around()
            spent += seconds_taken
            samples["eval_wall_s"].append(seconds_taken)
            samples["slowness"].append(slowness)
            samples["eval_s"].append(seconds_taken / slowness)
        return report

    try:
        scenario, truth = prepare(w, seed, n_frames, workdir)
        frames = timed_setup()
        replayed = frames if w.from_files else load_files(w, n_frames, workdir)
        for i in range(n_frames):
            if not checks.replay_matches(detgen.generate_frame(scenario, i, seed)[0],
                                         replayed[i][1]):
                problems.append(f"frame {i}: detection file does not replay the generated frame")
        del replayed
        passes: dict[str, Pass] = {"unpaced": track(w, frames, w.pipeline)}
        outputs = passes["unpaced"].outputs
        report = timed_score()
        if not w.from_files:
            cli.write_mot_results(workdir / "res.txt", outputs)
        loaded = moteval.load_mot_tracks(workdir / "res.txt")
    finally:
        if recorder is not None:
            recorder.close()
    paced = PacedSource(frames, w.rate_fps)
    passes["paced"] = track(w, paced, w.pipeline)
    due, released = paced.due[warmup:], paced.released[warmup:]
    del paced  # it holds the frames, which the repeats below rebuild
    # Repeats are spread over the run, so their medians sample all of it:
    # CPU speed on a shared host drifts over tens of seconds.
    for k in range(0 if traced else w.repeats):
        passes[f"compute{k}"] = p = track(w, frames, w.compute_only())
        samples["compute_fps"].append(after_warmup_fps(p.tracker.done, warmup))
        frames = None
        frames = timed_setup()
        timed_score()

    reference = {out.frame_index: out for out in outputs}
    failed = 0
    for name, p in passes.items():
        got = {out.frame_index: out for out in p.outputs}
        bad = sum(1 for i in range(n_frames) if i not in got or got[i] != reference.get(i))
        if bad:
            problems.append(f"{name} run: {bad} frames missing or different")
        failed += bad
    problems += checks.readback_matches(outputs, loaded)
    mine = checks.independent_scores(truth, loaded if w.from_files else frame_map(outputs))
    problems += checks.agrees_with_program(mine, report)
    problems += checks.noise_floors(mine, w.noise, n_frames)

    if traced:
        metrics = layers.metrics(recorder, passes["unpaced"], n_frames, warmup)
        lag = [r - d for r, d in zip(released, due)]
        metrics["pipeline.capture_lag_p90_ms"] = (percentile_ms(lag, 90), "ms")
        if trace_path is not None:
            recorder.write(trace_path)
    else:
        latency = [t - d for t, d in zip(passes["paced"].tracker.done[warmup:], due)]
        metrics = {
            "fps": (after_warmup_fps(passes["unpaced"].tracker.done, warmup), "frames/s"),
            "latency_p50_ms": (percentile_ms(latency, 50), "ms"),
            "latency_p90_ms": (percentile_ms(latency, 90), "ms"),
            "compute_fps": (statistics.median(samples["compute_fps"]), "frames/s"),
            "eval_s": (statistics.median(samples["eval_s"]), "s"),
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    return {
        "correct": not problems,
        "attempted": n_frames * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "problems": problems,
        "absent": recorder.absent if traced else [],
        "scores": vars(mine),
        "samples": samples,
    }


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{w.name}-") as tmp:
        result = bench(w, args.seed, args.seconds, bool(args.trace), Path(tmp),
                       OUT_DIR / f"{w.name}.trace.json")
    result["environment"] = {
        "cpus": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__,
        **{k: os.environ.get(k) for k in
           ("TRACKFORGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name in result["absent"]:
        print(f"absent: {name} (its metrics are left out)", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        status |= subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        ).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
