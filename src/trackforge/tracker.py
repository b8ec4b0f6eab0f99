"""Per-frame tracking step and the track lifecycle state machine.

Each `step()` call runs the full post-detection sequence: confidence filter,
NMS, Kalman predict for every live track, appearance cost matrix, motion
gate, assignment, threshold rejection, then the lifecycle bookkeeping
(update matched, mark unmatched lost, remove stale, spawn new). A tracker
instance is strictly sequential: frame indices must increase between calls.

The tracker holds every live track's numeric state in stacked arrays: the
Kalman means ``(T, 8)`` and covariances ``(T, 8, 8)`` in ``Tracker.kalman``,
the smoothed appearance embeddings ``(T, D)`` in ``Tracker.embeddings``. Row
``i`` belongs to ``tracks[i]``, which keeps only the lifecycle fields; rows are
dropped together with their tracks, and births are appended in both places.
So predict, gating, update and embedding smoothing each run once per frame
over all tracks (or all matched ones), never once per track.

The frame's detections arrive as one ``DetectionBatch``, and the tracker
works on its columns: the confidence filter and NMS return row indices, the
kept rows are copied once, and the embedding check, the measurement
conversion, the cost matrix, smoothing and births each take whole arrays,
once per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assoc import apply_gate, build_cost_matrix, hungarian_solve, match_with_threshold
from .core import BoundingBox, DetectionBatch, box_to_measurement, measurement_to_box, normalize
from .errors import ConfigError, DimensionError, OrderingError
from .motion import CHI2_GATE_95_4DOF, KalmanFilter, KalmanState, MotionNoise
from .postproc import filter_confidence, nms


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
        self.embeddings = np.zeros((0, self.config.embedding_dim))
        self.removed_ids: set[int] = set()
        self._filter = KalmanFilter(self.config.motion_noise)
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame_index: int, batch: DetectionBatch) -> TrackerOutput:
        """Track one frame. Every row must carry an ``embedding_dim`` embedding,
        whether or not it survives the confidence filter and NMS."""
        cfg = self.config
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise OrderingError(
                f"frame {frame_index} does not advance past {self._last_frame}"
            )
        self._last_frame = frame_index

        shape = None if batch.embeddings is None else batch.embeddings.shape[1:]
        if len(batch) and shape != (cfg.embedding_dim,):
            raise DimensionError(
                f"tracking requires {cfg.embedding_dim}-dim detection embeddings, got {shape}"
            )
        keep = filter_confidence(batch.objectness, cfg.conf_threshold)
        keep = keep[nms(batch.boxes[keep], batch.objectness[keep], cfg.nms_iou)]
        dets = batch.take(keep)

        self.kalman = self._filter.predict(self.kalman)

        measurements = box_to_measurement(dets.boxes)
        det_embeddings = dets.embeddings if len(dets) else np.zeros((0, cfg.embedding_dim))
        cost = build_cost_matrix(self.embeddings, det_embeddings)
        if self.tracks and len(dets):
            cost = apply_gate(cost, self._gate_matrix(measurements), cfg.gate_threshold)
        assignment = match_with_threshold(hungarian_solve(cost), cost, cfg.max_cost)

        scores = dets.objectness.tolist()
        emitted: list[tuple[int, BoundingBox, float]] = []
        if assignment.matches:
            rows = [track_idx for track_idx, _, _ in assignment.matches]
            cols = [det_idx for _, det_idx, _ in assignment.matches]
            updated = self._filter.update(
                KalmanState(self.kalman.mean[rows], self.kalman.covariance[rows]),
                measurements[cols],
            )
            self.kalman.mean[rows] = updated.mean
            self.kalman.covariance[rows] = updated.covariance
            self.embeddings[rows] = smooth_embedding(
                self.embeddings[rows],
                det_embeddings[cols],
                cfg.smoothing_alpha,
            )
            for row, col in zip(rows, cols):
                track = self.tracks[row]
                track.state = TrackState.ACTIVE
                track.lost_since = None
                track.last_update_frame = frame_index
                track.hits += 1
                if track.hits >= cfg.min_hits:
                    box = measurement_to_box(self.kalman.mean[row, :4])
                    emitted.append((track.track_id, box, scores[col]))

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
            self.embeddings = np.concatenate([self.embeddings, det_embeddings[born]])
        for det_idx in born:
            track = Track(
                track_id=self._next_id, state=TrackState.ACTIVE, last_update_frame=frame_index
            )
            self._next_id += 1
            self.tracks.append(track)
            if track.hits >= cfg.min_hits:
                box = measurement_to_box(measurements[det_idx])  # a new track's mean
                emitted.append((track.track_id, box, scores[det_idx]))

        return TrackerOutput(frame_index=frame_index, records=tuple(sorted(emitted)))

    def _gate_matrix(self, measurements: np.ndarray) -> np.ndarray:
        if self.config.gate_metric == "mahalanobis":
            return self._filter.gating_distance(self.kalman, measurements)
        if self.config.gate_metric == "euclidean":
            delta = self.kalman.mean[:, None, :2] - measurements[None, :, :2]
            return np.sum(delta * delta, axis=2)
        raise ConfigError(f"unknown gate metric {self.config.gate_metric!r}")
