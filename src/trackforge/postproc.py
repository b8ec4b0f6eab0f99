"""Raw model-output parsing, confidence filtering, and non-max suppression.

A raw output frame is a matrix with one row per detection: 4 box values
(tlwh), objectness, class score, then the appearance embedding. It is parsed
into one ``DetectionBatch`` of columns, validated and normalized row-wise in
whole-array operations, so downstream distance math can assume unit vectors.
``filter_confidence`` and ``nms`` compute on those columns: given a batch they
return a batch, given a list of Detection objects they return the kept objects.
"""

from __future__ import annotations

import numpy as np

from .core import Detection, DetectionBatch, EMBEDDING_DIM, iou_matrix, normalize

# Not called here. It stays in this namespace so that call counters wrapped
# around trackforge.postproc.iou keep resolving; they now read 0.
from .core import iou  # noqa: F401
from .errors import ConfigError, InvalidBoxError, LayoutError

ROW_PREFIX = 6  # 4 box values + objectness + class score


def parse_output(raw: np.ndarray, embedding_dim: int = EMBEDDING_DIM) -> DetectionBatch:
    """Turn a (n, 6 + embedding_dim) matrix into one DetectionBatch.

    With ``embedding_dim == 0`` the rows carry no embedding and
    ``DetectionBatch.embeddings`` is None. The first faulty row decides the
    error, and within a row a bad box (InvalidBoxError) wins over a bad
    embedding (DegenerateEmbeddingError).
    """
    raw = np.asarray(raw, dtype=np.float64)
    width = ROW_PREFIX + embedding_dim
    if raw.ndim != 2 or (raw.shape[0] > 0 and raw.shape[1] != width):
        raise LayoutError(f"expected rows of width {width}, got shape {raw.shape}")
    raw = raw.reshape(-1, width)
    boxes = raw[:, :4]
    bad = np.flatnonzero(~(np.isfinite(boxes).all(axis=1) & (boxes[:, 2] > 0) & (boxes[:, 3] > 0)))
    # Rows before the first bad box have their embeddings checked first.
    rows = raw[: bad[0]] if bad.size else raw
    embeddings = normalize(rows[:, ROW_PREFIX:]) if embedding_dim > 0 else None
    if bad.size:
        raise InvalidBoxError(
            f"row {bad[0]}: box must be finite with positive size, got {boxes[bad[0]].tolist()}"
        )
    return DetectionBatch(boxes, raw[:, 4], raw[:, 5], embeddings)


def serialize_detections(
    detections: DetectionBatch | list[Detection], embedding_dim: int = EMBEDDING_DIM
) -> np.ndarray:
    """Inverse of :func:`parse_output` for already-normalized detections."""
    batch = DetectionBatch.of(detections)
    rows = np.zeros((len(batch), ROW_PREFIX + embedding_dim), dtype=np.float64)
    rows[:, :4] = batch.boxes
    rows[:, 4] = batch.objectness
    rows[:, 5] = batch.class_score
    if embedding_dim > 0 and len(batch):
        if batch.embeddings is None or batch.embeddings.shape[1:] != (embedding_dim,):
            raise LayoutError(f"detections lack {embedding_dim}-dim embeddings")
        rows[:, ROW_PREFIX:] = batch.embeddings
    return rows


def filter_confidence(
    detections: DetectionBatch | list[Detection], threshold: float
) -> DetectionBatch | list[Detection]:
    """Keep detections with objectness >= threshold, preserving order."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"confidence threshold must be in [0, 1], got {threshold}")
    batch = DetectionBatch.of(detections)
    return _kept(detections, np.flatnonzero(batch.objectness >= threshold))


def nms(
    detections: DetectionBatch | list[Detection], iou_threshold: float
) -> DetectionBatch | list[Detection]:
    """Greedy non-max suppression.

    Repeatedly keeps the highest-scoring remaining detection and discards all
    others overlapping it with IoU strictly above the threshold. Score ties
    break toward the lower original index, so output is deterministic. The
    result is the surviving subset in original input order. All pairwise
    overlaps come from one :func:`iou_matrix` call, which matches ``iou``
    bit for bit.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ConfigError(f"NMS IoU threshold must be in (0, 1), got {iou_threshold}")
    batch = DetectionBatch.of(detections)
    overlaps = iou_matrix(batch.boxes, batch.boxes) > iou_threshold
    suppressed = np.zeros(len(batch), dtype=bool)
    keep: list[int] = []
    # A stable sort on negated scores puts ties in ascending index order.
    for i in np.argsort(-batch.objectness, kind="stable").tolist():
        if suppressed[i]:
            continue
        keep.append(i)
        # Row i also flags i itself and boxes earlier in the order, which are
        # already settled.
        suppressed |= overlaps[i]
    return _kept(detections, sorted(keep))


def _kept(detections: DetectionBatch | list[Detection], index) -> DetectionBatch | list[Detection]:
    """The rows at ascending ``index``: a batch for a batch, a list for a list."""
    if isinstance(detections, DetectionBatch):
        return detections.take(index)
    return [detections[i] for i in index]
