"""Geometry, embedding math, and precision-reduction primitives.

Boxes are stored as top-left corner plus width/height ("tlwh") because both
the MOT file formats and NMS work in that space; the Kalman measurement
space (cx, cy, aspect, h) is reached only through the explicit conversion
functions below. Embeddings are plain float32 numpy arrays, normalized once
at ingestion so distance computations never re-derive norms.

A frame's detections travel as one ``DetectionBatch`` of columns, so
parsing, filtering, NMS and association never touch a Python object per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEmbeddingError,
    DimensionError,
    InvalidBoxError,
    PrecisionOverflowError,
)

EMBEDDING_DIM = 512
BINARY16_MAX = 65504.0
# ``normalize`` rejects a row whose norm is below this.
MIN_EMBEDDING_NORM = 1e-12


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: top-left corner (x, y), width w, height h, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidBoxError(f"box field {name!r} is not finite: {value!r}")
        if self.w <= 0 or self.h <= 0:
            raise InvalidBoxError(f"box must have positive size, got w={self.w}, h={self.h}")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tlwh(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True, eq=False)
class DetectionBatch:
    """One frame's detections as columns; row i of every array is detection i.

    ``boxes`` is (N, 4) float64 tlwh, ``objectness`` and ``class_score`` are
    (N,) float64, and ``embeddings`` is (N, D) (float32 from ``parse_output``)
    or None when the rows carry no embedding.
    """

    boxes: np.ndarray
    objectness: np.ndarray
    class_score: np.ndarray
    embeddings: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.objectness)

    def take(self, index) -> DetectionBatch:
        """The rows selected by ``index`` (integer indices or a boolean mask)."""
        embeddings = None if self.embeddings is None else self.embeddings[index]
        return DetectionBatch(
            self.boxes[index], self.objectness[index], self.class_score[index], embeddings
        )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0.0 when disjoint."""
    inter_w = min(a.right, b.right) - max(a.x, b.x)
    inter_h = min(a.bottom, b.bottom) - max(a.y, b.y)
    if inter_w <= 0 or inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    union = a.area + b.area - inter
    # (right - x) can exceed w by one ulp, so clamp the ratio into [0, 1].
    return float(min(inter / union, 1.0))


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) tlwh boxes as an (n, m) matrix.

    Entry (i, j) equals ``iou`` of box i of ``a`` and box j of ``b`` bit for
    bit: the same right/bottom sums and union order, 0.0 for boxes that are
    disjoint or only touch, and the same clamp to 1. An input of size 0 counts
    as no boxes; any other shape than (n, 4) raises DimensionError.
    """
    a = _boxes(a)[:, None, :]
    b = _boxes(b)[None, :, :]
    inter_w = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2]) - np.maximum(
        a[..., 0], b[..., 0]
    )
    inter_h = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3]) - np.maximum(
        a[..., 1], b[..., 1]
    )
    # A non-positive overlap on either axis makes the intersection exactly 0,
    # so the ratio below is 0 without a separate disjoint case.
    inter = np.maximum(inter_w, 0.0) * np.maximum(inter_h, 0.0)
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.minimum(inter / union, 1.0)


def _boxes(values) -> np.ndarray:
    boxes = np.asarray(values, dtype=np.float64)
    if boxes.size == 0:
        return boxes.reshape(0, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise DimensionError(f"boxes must be (n, 4), got shape {boxes.shape}")
    return boxes


def box_to_measurement(tlwh: np.ndarray) -> np.ndarray:
    """Convert tlwh boxes ``(..., 4)`` to Kalman measurements (cx, cy, aspect, h)."""
    box = _last_axis_4(tlwh)
    out = np.empty(box.shape)
    out[..., 0] = box[..., 0] + box[..., 2] / 2.0
    out[..., 1] = box[..., 1] + box[..., 3] / 2.0
    out[..., 2] = box[..., 2] / box[..., 3]
    out[..., 3] = box[..., 3]
    return out


def measurements_to_boxes(measurements: np.ndarray) -> list[BoundingBox]:
    """Inverse of :func:`box_to_measurement` on an ``(M, 4)`` stack, one box per row.

    The conversion runs once over the stack; a row implying a non-positive
    width or height raises InvalidBoxError, a non-finite one as BoundingBox does.
    """
    m = _last_axis_4(measurements).reshape(-1, 4)
    tlwh = np.empty(m.shape)
    tlwh[:, 2] = m[:, 2] * m[:, 3]
    tlwh[:, 0] = m[:, 0] - tlwh[:, 2] / 2.0
    tlwh[:, 1] = m[:, 1] - m[:, 3] / 2.0
    tlwh[:, 3] = m[:, 3]
    bad = (tlwh[:, 3] <= 0) | (tlwh[:, 2] <= 0)
    if bad.any():
        _, _, aspect, h = m[int(np.argmax(bad))].tolist()
        raise InvalidBoxError(f"measurement implies non-positive size: aspect={aspect}, h={h}")
    return [BoundingBox(*row) for row in tlwh.tolist()]


def measurement_to_box(measurement: np.ndarray) -> BoundingBox:
    """Inverse of :func:`box_to_measurement` for one measurement."""
    return measurements_to_boxes(measurement)[0]


def _last_axis_4(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.shape[-1:] != (4,):
        raise DimensionError(f"expected a last axis of 4 box values, got shape {array.shape}")
    return array


def row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, kept as a last axis of size 1.

    Each row's norm is one BLAS dot product, from a (1, D) @ (D, 1) product:
    the dot product ``np.linalg.norm`` takes of a lone vector. So a row's norm
    never depends on the rows beside it; ``np.linalg.norm(axis=-1)`` sums in
    another order and differs in the last bit on about a fifth of 512-wide rows.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def normalize(values: np.ndarray) -> np.ndarray:
    """Scale a vector, or each row of an (M, D) stack, to unit Euclidean norm, as float32.

    Each row comes out bit for bit as it would alone. Raises
    DegenerateEmbeddingError for (near-)zero or non-finite input in any row.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise DegenerateEmbeddingError("embedding contains non-finite values")
    norm = row_norms(v)
    if norm.min(initial=np.inf) < MIN_EMBEDDING_NORM:
        raise DegenerateEmbeddingError(
            f"embedding norm too small to normalize: {float(norm.min())!r}"
        )
    return (v / norm).astype(np.float32)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - dot(a, b) for unit vectors: 0 identical, 1 orthogonal, 2 antipodal."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"embedding shapes differ: {a.shape} vs {b.shape}")
    dot = float(np.dot(a.astype(np.float64), b.astype(np.float64)))
    return float(np.clip(1.0 - dot, 0.0, 2.0))


def quantize_binary16(values: np.ndarray) -> np.ndarray:
    """Round each value to the nearest IEEE 754 binary16 value, widened to float32.

    Round-to-nearest-even, idempotent, and monotone. Values outside the
    binary16 range (|v| > 65504) raise PrecisionOverflowError.
    """
    v = np.asarray(values, dtype=np.float32)
    if not np.all(np.isfinite(v)):
        raise PrecisionOverflowError("cannot quantize non-finite values")
    if np.any(np.abs(v) > BINARY16_MAX):
        worst = float(np.max(np.abs(v)))
        raise PrecisionOverflowError(f"value {worst!r} exceeds binary16 range (max {BINARY16_MAX})")
    return v.astype(np.float16).astype(np.float32)
