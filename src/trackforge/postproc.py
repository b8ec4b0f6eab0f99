"""Raw model-output parsing, confidence filtering, and non-max suppression.

A raw output frame is a matrix with one row per detection: 4 box values
(tlwh), objectness, class score, then the appearance embedding. It is parsed
into one ``DetectionBatch`` of columns, validated and normalized row-wise in
whole-array operations, so downstream distance math can assume unit vectors.
``filter_confidence`` and ``nms`` take its score and box columns and return
the ascending row indices they keep, so a caller copies the kept rows once.
"""

from __future__ import annotations

import numpy as np

from .core import DetectionBatch, EMBEDDING_DIM, iou_matrix, normalize

# Not called here. It stays in this namespace so that call counters wrapped
# around trackforge.postproc.iou keep resolving; they now read 0.
from .core import iou  # noqa: F401
from .errors import ConfigError, DimensionError, InvalidBoxError, LayoutError

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


def serialize_detections(batch: DetectionBatch, embedding_dim: int = EMBEDDING_DIM) -> np.ndarray:
    """Inverse of :func:`parse_output` for already-normalized detections."""
    rows = np.zeros((len(batch), ROW_PREFIX + embedding_dim), dtype=np.float64)
    rows[:, :4] = batch.boxes
    rows[:, 4] = batch.objectness
    rows[:, 5] = batch.class_score
    if embedding_dim > 0 and len(batch):
        if batch.embeddings is None or batch.embeddings.shape[1:] != (embedding_dim,):
            raise LayoutError(f"detections lack {embedding_dim}-dim embeddings")
        rows[:, ROW_PREFIX:] = batch.embeddings
    return rows


def filter_confidence(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Ascending indices of the rows with score >= threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"confidence threshold must be in [0, 1], got {threshold}")
    return np.flatnonzero(np.asarray(scores) >= threshold)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy non-max suppression over (N, 4) tlwh boxes; ascending kept indices.

    Repeatedly keeps the highest-scoring remaining box and discards all others
    overlapping it with IoU strictly above the threshold. Score ties break
    toward the lower index, so output is deterministic. All pairwise overlaps
    come from one :func:`iou_matrix` call, which matches ``iou`` bit for bit.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ConfigError(f"NMS IoU threshold must be in (0, 1), got {iou_threshold}")
    overlaps = iou_matrix(boxes, boxes) > iou_threshold
    scores = np.asarray(scores)
    if scores.shape != (len(overlaps),):
        raise DimensionError(f"{len(overlaps)} boxes but scores of shape {scores.shape}")
    suppressed = np.zeros(len(overlaps), dtype=bool)
    keep: list[int] = []
    # A stable sort on negated scores puts ties in ascending index order.
    for i in np.argsort(-scores, kind="stable").tolist():
        if suppressed[i]:
            continue
        keep.append(i)
        # Row i also flags i itself and boxes earlier in the order, which are
        # already settled.
        suppressed |= overlaps[i]
    return np.array(sorted(keep), dtype=np.intp)
