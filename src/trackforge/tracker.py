"""Per-frame tracking step over one table of live tracks.

Each `step()` runs the post-detection sequence: confidence filter, NMS,
Kalman predict, motion gate, appearance cost, assignment, threshold
rejection, then the lifecycle (update matched, mark unmatched lost, remove
stale, spawn new). Frame indices must increase between calls.

The live tracks are the rows of one `Tracks` table: id, hit count, last
updated frame, the frame the track was lost in (-1 while active), Kalman
mean ``(T, 8)`` and covariance ``(T, 8, 8)``, and the smoothed float32
appearance embedding ``(T, D)``. Births append ascending ids and removal
keeps row order, so rows stay sorted by id and a frame's records are the
rows it updated, in table order. Predict, projection, update, smoothing and
initiation each run once per frame over all the rows concerned.

`step` computes the next table into locals and commits it, with the next id,
the removed ids and the frame index, at the end, in statements that cannot
raise. So a frame that raises, at its entry checks or later (a covariance
that cannot be factored, a smoothed embedding that cannot be normalized),
leaves the tracker as it was, and the frame can be retried.

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

The frame's detections arrive as one ``DetectionBatch``: the confidence
filter and NMS return row indices, and the kept rows are copied once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

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
from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionError,
    InvalidBoxError,
    OrderingError,
)
from .motion import CHI2_GATE_95_4DOF, KalmanFilter, KalmanState, Projection
from .postproc import filter_confidence, nms

GATE_METRICS = ("mahalanobis", "euclidean")
# Bound on the magnitude of a measurement's centre, aspect and height; its
# inverse bounds aspect and height from below. The filter squares heights and
# divides centre offsets by them, so inside these bounds later products stay
# below about 1e125, far from float64's overflow at 1.8e308, and a box's width
# a·h stays positive. Outside them a later frame's products can overflow.
MEASUREMENT_LIMIT = 1e30


@dataclass(frozen=True, eq=False)
class Tracks:
    """Live tracks as columns: row i of every array is one track, rows sorted by id.

    ``ids``, ``hits``, ``last_update`` and ``lost_since`` are ``(T,)``
    integers; ``lost_since`` is -1 while the track is active. ``mean``
    ``(T, 8)`` and ``covariance`` ``(T, 8, 8)`` are its Kalman state,
    ``embeddings`` ``(T, D)`` its smoothed float32 appearance.
    """

    ids: np.ndarray
    hits: np.ndarray
    last_update: np.ndarray
    lost_since: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    embeddings: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, column.name) for column in fields(self)]

    def take(self, rows) -> Tracks:
        """The selected rows (integer indices or a boolean mask), in their order."""
        return Tracks(*(column[rows] for column in self.columns()))

    def append(self, first_id: int, frame: int, state: KalmanState, embeddings) -> Tracks:
        """A copy of this table, then one track per row of ``state`` and
        ``embeddings``: ids from ``first_id`` up, updated in ``frame``, active."""
        count = len(embeddings)
        born = (np.arange(first_id, first_id + count), np.ones(count, dtype=np.int64),
                np.full(count, frame), np.full(count, -1), state.mean, state.covariance, embeddings)
        return Tracks(*(np.concatenate([column, new], dtype=column.dtype)
                        for column, new in zip(self.columns(), born)))


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
    """Records ``(id, box, score)`` of the tracks updated in one frame, sorted by id."""

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
        self._filter = KalmanFilter()
        none = np.zeros(0, dtype=np.int64)
        self.tracks = Tracks(none, none, none, none, np.zeros((0, 8)), np.zeros((0, 8, 8)),
                             np.zeros((0, self.config.embedding_dim), dtype=np.float32))
        self.removed_ids: set[int] = set()
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame_index: int, batch: DetectionBatch) -> TrackerOutput:
        """Track one frame. Every row must carry a finite ``embedding_dim``
        embedding and a box whose measurement lies within ``MEASUREMENT_LIMIT``,
        whether or not it survives the confidence filter and NMS. A frame that
        raises changes nothing, so it can be retried."""
        cfg = self.config
        if frame_index < 0 or (self._last_frame is not None and frame_index <= self._last_frame):
            raise OrderingError(f"frame {frame_index} is negative or not after {self._last_frame}")
        measured = self._measure(batch)
        keep = filter_confidence(batch.objectness, cfg.conf_threshold)
        keep = keep[nms(batch.boxes[keep], batch.objectness[keep], cfg.nms_iou)]
        dets, measurements = batch.take(keep), measured[keep]
        tracks = self.tracks
        det_embeddings = dets.embeddings if len(dets) else tracks.embeddings[:0]

        predicted = self._filter.predict(KalmanState(tracks.mean, tracks.covariance))
        assignment, projection = self._associate(
            predicted, tracks.embeddings, measurements, det_embeddings
        )
        rows, cols = (np.array([m[k] for m in assignment.matches], dtype=np.intp) for k in (0, 1))
        born = np.asarray(assignment.unmatched_detections, dtype=np.intp)
        matched = np.zeros(len(tracks), dtype=bool)
        matched[rows] = True
        lost = np.where(tracks.lost_since < 0, frame_index, tracks.lost_since)
        table = Tracks(
            tracks.ids, tracks.hits + matched, np.where(matched, frame_index, tracks.last_update),
            np.where(matched, -1, lost), predicted.mean, predicted.covariance, tracks.embeddings,
        )
        # Mean and covariance are fresh from predict; the embeddings are copied
        # once, by the append or here, before matched rows are written.
        if len(born):
            table = table.append(self._next_id, frame_index,
                                 self._filter.initiate(measurements[born]), det_embeddings[born])
        elif len(rows):
            table = replace(table, embeddings=tracks.embeddings.copy())
        if len(rows):
            updated = self._filter.update(
                KalmanState(predicted.mean[rows], predicted.covariance[rows]),
                measurements[cols], projection.take(rows),
            )
            table.mean[rows], table.covariance[rows] = updated.mean, updated.covariance
            table.embeddings[rows] = smooth_embedding(
                tracks.embeddings[rows], det_embeddings[cols], cfg.smoothing_alpha
            )
        source = np.concatenate([np.full(len(tracks), -1), born])  # each row's detection
        source[rows] = cols
        removed = (table.lost_since >= 0) & (frame_index - table.lost_since >= cfg.max_lost)
        gone = table.ids[removed].tolist()
        if gone:
            table, source = table.take(~removed), source[~removed]
        # A new track's mean is its measurement, so every record's box comes from the table.
        shown = np.flatnonzero((table.last_update == frame_index) & (table.hits >= cfg.min_hits))
        records = tuple(zip(table.ids[shown].tolist(), measurements_to_boxes(table.mean[shown, :4]),
                            dets.objectness[source[shown]].tolist()))

        self.tracks = table
        self.removed_ids.update(gone)
        self._next_id += len(born)
        self._last_frame = frame_index
        return TrackerOutput(frame_index=frame_index, records=records)

    def _measure(self, batch: DetectionBatch) -> np.ndarray:
        """Every row's Kalman measurement, once the rows pass the entry checks of ``step``."""
        cfg = self.config
        shape = None if batch.embeddings is None else batch.embeddings.shape[1:]
        if len(batch) and shape != (cfg.embedding_dim,):
            raise DimensionError(
                f"tracking requires {cfg.embedding_dim}-dim detection embeddings, got {shape}"
            )
        finite = np.isfinite(batch.embeddings).all(axis=1) if len(batch) else []
        if not np.all(finite):
            raise DegenerateEmbeddingError(f"row {int(np.argmin(finite))}: embedding is not finite")
        with np.errstate(all="ignore"):
            measured = box_to_measurement(batch.boxes)
            valid = (np.abs(measured) <= MEASUREMENT_LIMIT).all(axis=1) & (
                measured[:, 2:] >= 1.0 / MEASUREMENT_LIMIT).all(axis=1)
        if not valid.all():
            row = int(np.argmin(valid))
            raise InvalidBoxError(
                f"row {row}: box {batch.boxes[row].tolist()} gives the measurement "
                f"{measured[row].tolist()}, outside MEASUREMENT_LIMIT = {MEASUREMENT_LIMIT:g}"
            )
        return measured

    def _associate(self, predicted: KalmanState, embeddings: np.ndarray, measurements: np.ndarray,
                   det_embeddings: np.ndarray) -> tuple[Assignment, Projection | None]:
        """Gate, cost and assign this frame's pairs of predicted tracks and
        detections; the frame's projection (None when there are no pairs) is
        returned for the update."""
        cfg = self.config
        cost = np.full((len(embeddings), len(measurements)), np.inf)
        projection = None
        if cost.size:
            projection, rows, cols, distance = self._gate(predicted, measurements)
            costs = pair_costs(embeddings[rows], det_embeddings[cols])
            cost[rows, cols] = apply_gate(costs, distance, cfg.gate_threshold)
        return match_with_threshold(hungarian_solve(cost), cost, cfg.max_cost), projection

    def _gate(
        self, predicted: KalmanState, measurements: np.ndarray
    ) -> tuple[Projection, np.ndarray, np.ndarray, np.ndarray]:
        """The tracks' projection, and the rows, columns and gate distances of
        the candidate pairs: a superset of the pairs inside the gate."""
        cfg = self.config
        projection = self._filter.factor(predicted)
        centres = predicted.mean[:, :2], measurements[:, :2]
        if cfg.gate_metric == "euclidean":  # the squared centre distance is the gate distance
            radius2 = np.full(len(predicted.mean), float(cfg.gate_threshold))
            rows, cols, distance = candidate_pairs(*centres, radius2)
        else:
            radius2 = projection.gate_radius2(cfg.gate_threshold)
            rows, cols, _ = candidate_pairs(*centres, radius2)
            distance = projection.take(rows).distance(measurements[cols, None])[:, 0]
        return projection, rows, cols, distance
