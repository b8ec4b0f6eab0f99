"""Per-frame tracking step and the track lifecycle state machine.

Each `step()` call runs the full post-detection sequence: confidence filter,
NMS, Kalman predict for every live track, motion gate, appearance cost,
assignment, threshold rejection, then the lifecycle bookkeeping (update
matched, mark unmatched lost, remove stale, spawn new). A tracker instance is
strictly sequential: frame indices must increase between calls.

The tracker holds every live track's numeric state in stacked arrays: the
Kalman means ``(T, 8)`` and covariances ``(T, 8, 8)`` in ``Tracker.kalman``,
the smoothed appearance embeddings ``(T, D)``, float32 as ``normalize``
returns them, in ``Tracker.embeddings``. Row ``i`` belongs to ``tracks[i]``,
which keeps only the lifecycle fields; rows are dropped together with their
tracks, and births are appended in both places. So predict, projection,
update and embedding smoothing each run once per frame over all tracks (or
all matched ones), never once per track.

Association is sparse. Each frame projects all T tracks and factors their
innovation covariances once (a bad covariance in any row raises
NumericError). A pair of track and detection is a candidate when the
detection's centre lies within a bound that every pair inside the gate
meets (``Projection.gate_radius2``; for the Euclidean metric the bound is
the gate). Only candidates get an exact gate distance and an appearance
cost, from gathered rows; every other pair costs +inf. The matched tracks'
Kalman update reuses the frame's projection. Gating and costing a pair this
way gives the same distances and states, bit for bit, as the dense
``gating_distance`` and ``apply_gate`` over the whole (T, N) matrix; only a
cost's dot product may round differently from ``build_cost_matrix``'s.

The frame's detections arrive as one ``DetectionBatch``, and the tracker
works on its columns: the confidence filter and NMS return row indices, the
kept rows are copied once, and the embedding check, the measurement
conversion, gating, costing, smoothing and the emitted boxes each take whole
arrays, once per frame.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

# build_cost_matrix is not called here; it stays importable from this module,
# where trackbench's layer spans look it up.
from .assoc import (  # noqa: F401
    Assignment,
    apply_gate,
    build_cost_matrix,
    candidate_pairs,
    hungarian_solve,
    match_with_threshold,
    pair_costs,
)
from .core import BoundingBox, DetectionBatch, box_to_measurement, measurements_to_boxes, normalize
from .errors import ConfigError, DimensionError, InvalidBoxError, OrderingError
from .motion import CHI2_GATE_95_4DOF, KalmanFilter, KalmanState, MotionNoise, Projection
from .postproc import filter_confidence, nms

GATE_METRICS = ("mahalanobis", "euclidean")


class TrackState(Enum):
    ACTIVE = "active"
    LOST = "lost"
    REMOVED = "removed"


@dataclass
class Track:
    """Lifecycle of one tracked identity; its motion and appearance rows live on the Tracker."""

    track_id: int
    state: TrackState
    last_update_frame: int
    lost_since: int | None = None
    hits: int = 1


@dataclass(frozen=True)
class TrackerConfig:
    """Thresholds and lifecycle knobs; defaults follow common single-class practice."""

    conf_threshold: float = 0.5
    nms_iou: float = 0.4
    max_cost: float = 0.7
    gate_threshold: float = CHI2_GATE_95_4DOF
    gate_metric: str = "mahalanobis"  # or "euclidean" (squared pixels on centers)
    smoothing_alpha: float = 0.9
    max_lost: int = 30
    min_hits: int = 1  # 1 reports tracks from their first frame
    embedding_dim: int = 512
    motion_noise: MotionNoise = MotionNoise()

    def __post_init__(self) -> None:
        for name in (
            "conf_threshold", "nms_iou", "max_cost", "gate_threshold", "smoothing_alpha",
            "max_lost", "min_hits",
        ):
            if not _finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        dim = self.embedding_dim
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise ConfigError(f"embedding_dim must be an integer >= 1, got {dim!r}")
        for name, ok, bound in (
            ("conf_threshold", 0 <= self.conf_threshold <= 1, "in [0, 1]"),
            ("nms_iou", 0 < self.nms_iou < 1, "in (0, 1)"),
            ("max_cost", self.max_cost >= 0, ">= 0"),
            ("gate_threshold", self.gate_threshold >= 0, ">= 0"),
            ("smoothing_alpha", 0 <= self.smoothing_alpha <= 1, "in [0, 1]"),
            ("max_lost", self.max_lost >= 0, ">= 0"),
            ("min_hits", self.min_hits >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)!r}")
        if self.gate_metric not in GATE_METRICS:
            raise ConfigError(
                f"unknown gate metric {self.gate_metric!r}; choose from {list(GATE_METRICS)}"
            )


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value)


@dataclass(frozen=True)
class TrackerOutput:
    """Active tracks updated in one frame, sorted by track id."""

    frame_index: int
    records: tuple[tuple[int, BoundingBox, float], ...]


def smooth_embedding(old: np.ndarray, new: np.ndarray, alpha: float) -> np.ndarray:
    """Exponential appearance update: normalize(alpha * old + (1 - alpha) * new).

    Works on one embedding or row by row on two (M, D) stacks.
    """
    if old.shape != new.shape:
        raise DimensionError(f"embedding shapes differ: {old.shape} vs {new.shape}")
    return normalize(alpha * old.astype(np.float64) + (1.0 - alpha) * new.astype(np.float64))


class Tracker:
    """Owns all tracks of one sequence; step() must be called in frame order."""

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []  # ACTIVE and LOST; REMOVED tracks are dropped
        # Row i of both stacks belongs to tracks[i].
        self.kalman = KalmanState(mean=np.zeros((0, 8)), covariance=np.zeros((0, 8, 8)))
        self.embeddings = np.zeros((0, self.config.embedding_dim), dtype=np.float32)
        self.removed_ids: set[int] = set()
        self._filter = KalmanFilter(self.config.motion_noise)
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame_index: int, batch: DetectionBatch) -> TrackerOutput:
        """Track one frame. Every row must carry an ``embedding_dim`` embedding
        and a box with a valid measurement, whether or not it survives the
        confidence filter and NMS. A frame rejected by these checks changes
        nothing, so it can be retried."""
        cfg = self.config
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise OrderingError(
                f"frame {frame_index} does not advance past {self._last_frame}"
            )
        shape = None if batch.embeddings is None else batch.embeddings.shape[1:]
        if len(batch) and shape != (cfg.embedding_dim,):
            raise DimensionError(
                f"tracking requires {cfg.embedding_dim}-dim detection embeddings, got {shape}"
            )
        with np.errstate(all="ignore"):
            measured = box_to_measurement(batch.boxes)
        valid = np.isfinite(measured).all(axis=1) & (measured[:, 2:] > 0).all(axis=1)
        if not valid.all():
            row = int(np.argmin(valid))
            raise InvalidBoxError(
                f"row {row}: box {batch.boxes[row].tolist()} has no finite measurement with "
                f"positive aspect and height, got {measured[row].tolist()}"
            )
        keep = filter_confidence(batch.objectness, cfg.conf_threshold)
        keep = keep[nms(batch.boxes[keep], batch.objectness[keep], cfg.nms_iou)]
        dets = batch.take(keep)

        # Set before the first state change, so a step that fails from here
        # on cannot be retried into a second predict.
        self._last_frame = frame_index
        self.kalman = self._filter.predict(self.kalman)

        measurements = measured[keep]
        det_embeddings = dets.embeddings
        assignment, projection = self._associate(measurements, det_embeddings)

        scores = dets.objectness.tolist()
        # Emitted records as ids, scores and Kalman measurements, turned into
        # boxes by one conversion at the end.
        emitted_ids: list[int] = []
        emitted_scores: list[float] = []
        emitted_means: list[np.ndarray] = []
        if assignment.matches:
            rows = [track_idx for track_idx, _, _ in assignment.matches]
            cols = [det_idx for _, det_idx, _ in assignment.matches]
            updated = self._filter.update(
                KalmanState(self.kalman.mean[rows], self.kalman.covariance[rows]),
                measurements[cols],
                projection.take(rows),
            )
            self.kalman.mean[rows] = updated.mean
            self.kalman.covariance[rows] = updated.covariance
            self.embeddings[rows] = smooth_embedding(
                self.embeddings[rows],
                det_embeddings[cols],
                cfg.smoothing_alpha,
            )
            shown = []
            for row, col in zip(rows, cols):
                track = self.tracks[row]
                track.state = TrackState.ACTIVE
                track.lost_since = None
                track.last_update_frame = frame_index
                track.hits += 1
                if track.hits >= cfg.min_hits:
                    shown.append(row)
                    emitted_ids.append(track.track_id)
                    emitted_scores.append(scores[col])
            emitted_means.append(self.kalman.mean[shown, :4])

        for track_idx in assignment.unmatched_tracks:
            track = self.tracks[track_idx]
            if track.state is TrackState.ACTIVE:
                track.state = TrackState.LOST
                track.lost_since = frame_index

        keep = [
            not (track.state is TrackState.LOST and frame_index - track.lost_since >= cfg.max_lost)
            for track in self.tracks
        ]
        if not all(keep):
            for track, kept in zip(self.tracks, keep):
                if not kept:
                    track.state = TrackState.REMOVED
                    self.removed_ids.add(track.track_id)
            self.tracks = [track for track, kept in zip(self.tracks, keep) if kept]
            self.kalman = KalmanState(self.kalman.mean[keep], self.kalman.covariance[keep])
            self.embeddings = self.embeddings[keep]

        born = assignment.unmatched_detections
        if born:
            births = [self._filter.initiate(measurements[i]) for i in born]
            self.kalman = KalmanState(
                np.concatenate([self.kalman.mean, [b.mean for b in births]]),
                np.concatenate([self.kalman.covariance, [b.covariance for b in births]]),
            )
            self.embeddings = np.concatenate(
                [self.embeddings, det_embeddings[born]], dtype=np.float32
            )
        shown = []
        for det_idx in born:
            track = Track(
                track_id=self._next_id, state=TrackState.ACTIVE, last_update_frame=frame_index
            )
            self._next_id += 1
            self.tracks.append(track)
            if track.hits >= cfg.min_hits:
                shown.append(det_idx)  # a new track's mean is its measurement
                emitted_ids.append(track.track_id)
                emitted_scores.append(scores[det_idx])
        emitted_means.append(measurements[shown])

        boxes = measurements_to_boxes(np.concatenate(emitted_means))
        records = sorted(zip(emitted_ids, boxes, emitted_scores), key=lambda record: record[0])
        return TrackerOutput(frame_index=frame_index, records=tuple(records))

    def _associate(
        self, measurements: np.ndarray, det_embeddings: np.ndarray | None
    ) -> tuple[Assignment, Projection | None]:
        """Gate, cost and assign this frame's pairs; the frame's projection
        (None when there are no pairs) is returned for the update."""
        cfg = self.config
        cost = np.full((len(self.tracks), len(measurements)), np.inf)
        projection = None
        if cost.size:
            projection, rows, cols, distance = self._gate(measurements)
            costs = pair_costs(self.embeddings[rows], det_embeddings[cols])
            cost[rows, cols] = apply_gate(costs, distance, cfg.gate_threshold)
        return match_with_threshold(hungarian_solve(cost), cost, cfg.max_cost), projection

    def _gate(
        self, measurements: np.ndarray
    ) -> tuple[Projection, np.ndarray, np.ndarray, np.ndarray]:
        """The tracks' projection, and the rows, columns and gate distances of
        the candidate pairs: a superset of the pairs inside the gate."""
        cfg = self.config
        projection = self._filter.factor(self.kalman)
        centres = self.kalman.mean[:, :2], measurements[:, :2]
        if cfg.gate_metric == "euclidean":  # the squared centre distance is the gate distance
            radius2 = np.full(len(self.tracks), float(cfg.gate_threshold))
            rows, cols, distance = candidate_pairs(*centres, radius2)
        else:
            radius2 = projection.gate_radius2(cfg.gate_threshold)
            rows, cols, _ = candidate_pairs(*centres, radius2)
            distance = projection.take(rows).distance(measurements[cols, None])[:, 0]
        return projection, rows, cols, distance
