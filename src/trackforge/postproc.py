"""Raw model-output parsing, confidence filtering, and non-max suppression.

A raw output frame is a matrix with one row per detection: 4 box values
(tlwh), objectness, class score, then the appearance embedding. Embeddings
are normalized here, at ingestion, so downstream distance math can assume
unit vectors.
"""

from __future__ import annotations

import numpy as np

from .core import BoundingBox, Detection, EMBEDDING_DIM, iou_matrix, normalize

# Not called here. It stays in this namespace so that call counters wrapped
# around trackforge.postproc.iou keep resolving; they now read 0.
from .core import iou  # noqa: F401
from .errors import ConfigError, LayoutError

ROW_PREFIX = 6  # 4 box values + objectness + class score


def parse_output(raw: np.ndarray, embedding_dim: int = EMBEDDING_DIM) -> list[Detection]:
    """Turn a (n, 6 + embedding_dim) matrix into Detection objects.

    With ``embedding_dim == 0`` the rows carry no embedding and
    ``Detection.embedding`` is left as None.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or (raw.shape[0] > 0 and raw.shape[1] != ROW_PREFIX + embedding_dim):
        raise LayoutError(
            f"expected rows of width {ROW_PREFIX + embedding_dim}, got shape {raw.shape}"
        )
    detections: list[Detection] = []
    for row in raw:
        box = BoundingBox(float(row[0]), float(row[1]), float(row[2]), float(row[3]))
        embedding = normalize(row[ROW_PREFIX:]) if embedding_dim > 0 else None
        detections.append(
            Detection(
                box=box,
                objectness=float(row[4]),
                class_score=float(row[5]),
                embedding=embedding,
            )
        )
    return detections


def serialize_detections(
    detections: list[Detection], embedding_dim: int = EMBEDDING_DIM
) -> np.ndarray:
    """Inverse of :func:`parse_output` for already-normalized detections."""
    rows = np.zeros((len(detections), ROW_PREFIX + embedding_dim), dtype=np.float64)
    for i, det in enumerate(detections):
        rows[i, :4] = det.box.as_tlwh()
        rows[i, 4] = det.objectness
        rows[i, 5] = det.class_score
        if embedding_dim > 0:
            if det.embedding is None or det.embedding.shape != (embedding_dim,):
                raise LayoutError(f"detection {i} lacks a {embedding_dim}-dim embedding")
            rows[i, ROW_PREFIX:] = det.embedding
    return rows


def filter_confidence(detections: list[Detection], threshold: float) -> list[Detection]:
    """Keep detections with objectness >= threshold, preserving order."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"confidence threshold must be in [0, 1], got {threshold}")
    return [d for d in detections if d.objectness >= threshold]


def nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
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
    boxes = np.array([d.box.as_tlwh() for d in detections], dtype=np.float64)
    overlaps = iou_matrix(boxes, boxes) > iou_threshold
    scores = np.array([d.objectness for d in detections], dtype=np.float64)
    suppressed = np.zeros(len(detections), dtype=bool)
    keep: list[int] = []
    # A stable sort on negated scores puts ties in ascending index order.
    for i in np.argsort(-scores, kind="stable").tolist():
        if suppressed[i]:
            continue
        keep.append(i)
        # Row i also flags i itself and boxes earlier in the order, which are
        # already settled.
        suppressed |= overlaps[i]
    return [detections[i] for i in sorted(keep)]
