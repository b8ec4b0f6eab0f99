"""Tracking quality metrics: CLEAR-MOT counts plus trajectory identity scores.

Frame-by-frame correspondence follows the standard protocol: a ground-truth
object keeps its previously assigned hypothesis while the pair still
overlaps at the match threshold; everything else is re-matched per frame by
minimum-cost assignment on 1 - IoU. Identity metrics come from a separate
global bipartite matching between whole trajectories: each frame's IoU
matrix, thresholded, is added into a (gt ids, hyp ids) coverage matrix of
jointly covered frames, as in TrackEval's Identity metric (IDF1 of Ristani
et al. 2016). Both matchings read every overlap from one IoU matrix per
frame, which ``evaluate`` builds once for the two.

MOTP is reported as the mean matched distance (1 - IoU), so 0.0 is perfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assoc import hungarian_solve
from .core import BoundingBox, iou_matrix

# Not called here. It stays in this namespace so that call counters wrapped
# around trackforge.moteval.iou keep resolving; they now read 0.
from .core import iou  # noqa: F401
from .errors import DuplicateIdError, InvalidBoxError, ParseError, UndefinedMetricError
from .tracker import TrackerOutput

FrameBoxes = list[tuple[int, BoundingBox]]


@dataclass(frozen=True)
class FrameCorrespondence:
    """Per-frame matching result: pairs with IoU, plus misses and false positives."""

    frame_index: int
    matches: tuple[tuple[int, int, float], ...]  # (gt_id, hyp_id, iou)
    unmatched_gt: tuple[int, ...]
    unmatched_hyp: tuple[int, ...]


def match_frame(
    gt: FrameBoxes,
    hyp: FrameBoxes,
    prev: dict[int, int],
    iou_min: float = 0.5,
    frame_index: int = 0,
    overlaps: np.ndarray | None = None,
) -> FrameCorrespondence:
    """Match one frame's hypotheses to ground truth.

    ``prev`` maps each gt id to its most recently matched hyp id; such pairs
    are kept whenever both are present and still overlap at ``iou_min``, and
    the remainder is solved by minimum-cost assignment with pairs below the
    threshold forbidden. Every overlap, kept pair or free pair, is read from
    ``overlaps``, the frame's ``iou_matrix`` of gt by hyp boxes (computed here
    when not given).
    """
    _check_unique("gt", gt)
    _check_unique("hyp", hyp)
    if overlaps is None:
        overlaps = iou_matrix(_tlwh(gt), _tlwh(hyp))
    hyp_col = {hyp_id: c for c, (hyp_id, _) in enumerate(hyp)}

    matches: list[tuple[int, int, float]] = []
    taken_gt: set[int] = set()
    taken_hyp: set[int] = set()
    for r, (gt_id, _) in enumerate(gt):
        hyp_id = prev.get(gt_id)
        if hyp_id not in hyp_col or hyp_id in taken_hyp:
            continue
        overlap = float(overlaps[r, hyp_col[hyp_id]])
        if overlap >= iou_min:
            matches.append((gt_id, hyp_id, overlap))
            taken_gt.add(gt_id)
            taken_hyp.add(hyp_id)

    free_rows = [r for r, (i, _) in enumerate(gt) if i not in taken_gt]
    free_cols = [c for c, (i, _) in enumerate(hyp) if i not in taken_hyp]
    if free_rows and free_cols:
        free = overlaps[np.ix_(free_rows, free_cols)]
        cost = np.where(free >= iou_min, 1.0 - free, np.inf)
        for r, c, value in hungarian_solve(cost).matches:
            gt_id, hyp_id = gt[free_rows[r]][0], hyp[free_cols[c]][0]
            matches.append((gt_id, hyp_id, 1.0 - value))
            taken_gt.add(gt_id)
            taken_hyp.add(hyp_id)

    return FrameCorrespondence(
        frame_index=frame_index,
        matches=tuple(matches),
        unmatched_gt=tuple(i for i, _ in gt if i not in taken_gt),
        unmatched_hyp=tuple(i for i, _ in hyp if i not in taken_hyp),
    )


def accumulate(
    gt_frames: dict[int, FrameBoxes],
    hyp_frames: dict[int, FrameBoxes],
    iou_min: float = 0.5,
    overlaps: dict[int, np.ndarray] | None = None,
) -> list[FrameCorrespondence]:
    """Run match_frame over every frame, carrying the last-known id mapping.

    ``overlaps`` maps each frame both sides have boxes in to its gt-by-hyp
    ``iou_matrix``; it is computed here when not given.
    """
    if overlaps is None:
        overlaps = _frame_overlaps(gt_frames, hyp_frames)
    prev: dict[int, int] = {}
    correspondences = []
    for frame_index in sorted(set(gt_frames) | set(hyp_frames)):
        corr = match_frame(
            gt_frames.get(frame_index, []),
            hyp_frames.get(frame_index, []),
            prev,
            iou_min,
            frame_index,
            overlaps.get(frame_index),
        )
        for gt_id, hyp_id, _ in corr.matches:
            prev[gt_id] = hyp_id
        correspondences.append(corr)
    return correspondences


@dataclass(frozen=True)
class ClearMotSummary:
    mota: float
    motp: float
    fp: int
    fn: int
    id_switches: int
    fragmentations: int
    recall: float
    precision: float
    mostly_tracked: int
    partially_tracked: int
    mostly_lost: int
    total_gt: int
    true_positives: int


def clear_mot(correspondences: list[FrameCorrespondence]) -> ClearMotSummary:
    """Aggregate CLEAR-MOT counts over a correspondence sequence."""
    ordered = sorted(correspondences, key=lambda c: c.frame_index)
    tp = sum(len(c.matches) for c in ordered)
    fp = sum(len(c.unmatched_hyp) for c in ordered)
    total_gt = tp + sum(len(c.unmatched_gt) for c in ordered)
    if total_gt == 0:
        raise UndefinedMetricError("no ground-truth boxes; CLEAR metrics are undefined")

    switches = 0
    last_hyp: dict[int, int] = {}
    motp_sum = 0.0
    # Per gt id, matched/missed status over its present frames, in frame order.
    status: dict[int, list[bool]] = {}
    for corr in ordered:
        for gt_id, hyp_id, overlap in corr.matches:
            if gt_id in last_hyp and last_hyp[gt_id] != hyp_id:
                switches += 1
            last_hyp[gt_id] = hyp_id
            motp_sum += 1.0 - overlap
            status.setdefault(gt_id, []).append(True)
        for gt_id in corr.unmatched_gt:
            status.setdefault(gt_id, []).append(False)

    fragmentations = 0
    mostly_tracked = partially_tracked = mostly_lost = 0
    for flags in status.values():
        seen_match = False
        in_gap = False
        for matched in flags:
            if matched:
                if seen_match and in_gap:
                    fragmentations += 1
                seen_match = True
                in_gap = False
            elif seen_match:
                in_gap = True
        ratio = sum(flags) / len(flags)
        if ratio >= 0.8:
            mostly_tracked += 1
        elif ratio <= 0.2:
            mostly_lost += 1
        else:
            partially_tracked += 1

    fn = total_gt - tp
    return ClearMotSummary(
        mota=1.0 - (fp + fn + switches) / total_gt,
        motp=motp_sum / tp if tp else 0.0,
        fp=fp,
        fn=fn,
        id_switches=switches,
        fragmentations=fragmentations,
        recall=tp / total_gt,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        mostly_tracked=mostly_tracked,
        partially_tracked=partially_tracked,
        mostly_lost=mostly_lost,
        total_gt=total_gt,
        true_positives=tp,
    )


def id_metrics(
    gt_frames: dict[int, FrameBoxes],
    hyp_frames: dict[int, FrameBoxes],
    iou_min: float = 0.5,
    overlaps: dict[int, np.ndarray] | None = None,
) -> tuple[float, float, float]:
    """(IDF1, IDP, IDR) from a global trajectory-to-trajectory matching.

    Each (gt, hyp) trajectory pair is scored by the number of frames both are
    present and overlap at ``iou_min``; the matching maximizing total covered
    frames defines IDTP. ``overlaps`` is as for ``accumulate``.
    """
    for label, frames in (("gt", gt_frames), ("hyp", hyp_frames)):
        for entries in frames.values():
            _check_unique(label, entries)
    total_gt = sum(len(entries) for entries in gt_frames.values())
    total_hyp = sum(len(entries) for entries in hyp_frames.values())
    if total_gt == 0:
        raise UndefinedMetricError("no ground-truth boxes; identity metrics are undefined")

    gt_index = _id_index(gt_frames)
    hyp_index = _id_index(hyp_frames)
    idtp = 0.0
    if gt_index and hyp_index:
        if overlaps is None:
            overlaps = _frame_overlaps(gt_frames, hyp_frames)
        coverage = np.zeros((len(gt_index), len(hyp_index)))
        for frame_index, frame in overlaps.items():
            gt, hyp = gt_frames[frame_index], hyp_frames[frame_index]
            # Ids are unique within a frame (checked above), so no cell is
            # hit twice by this fancy-indexed add.
            cells = np.ix_([gt_index[i] for i, _ in gt], [hyp_index[i] for i, _ in hyp])
            coverage[cells] += frame >= iou_min
        rows, cols = linear_sum_assignment(coverage, maximize=True)
        idtp = float(coverage[rows, cols].sum())

    idp = idtp / total_hyp if total_hyp else 0.0
    idr = idtp / total_gt
    idf1 = 2.0 * idtp / (total_gt + total_hyp)
    return idf1, idp, idr


@dataclass(frozen=True)
class MetricsReport:
    """The full metrics row; `row()` lists values in the conventional column order."""

    idf1: float
    idp: float
    idr: float
    recall: float
    precision: float
    mostly_tracked: int
    partially_tracked: int
    mostly_lost: int
    fp: int
    fn: int
    id_switches: int
    fragmentations: int
    mota: float
    motp: float

    COLUMNS = (
        "IDF1", "IDP", "IDR", "Rcll", "Prcn", "MT", "PT", "ML",
        "FP", "FN", "IDs", "FM", "MOTA", "MOTP",
    )

    def row(self) -> tuple:
        return (
            self.idf1, self.idp, self.idr, self.recall, self.precision,
            self.mostly_tracked, self.partially_tracked, self.mostly_lost,
            self.fp, self.fn, self.id_switches, self.fragmentations,
            self.mota, self.motp,
        )


def evaluate(
    gt_frames: dict[int, FrameBoxes],
    hyp_frames: dict[int, FrameBoxes],
    iou_min: float = 0.5,
) -> MetricsReport:
    """Compute the complete metrics row for a tracking result against ground truth."""
    overlaps = _frame_overlaps(gt_frames, hyp_frames)  # shared by both matchings
    summary = clear_mot(accumulate(gt_frames, hyp_frames, iou_min, overlaps))
    idf1, idp, idr = id_metrics(gt_frames, hyp_frames, iou_min, overlaps)
    return MetricsReport(
        idf1=idf1,
        idp=idp,
        idr=idr,
        recall=summary.recall,
        precision=summary.precision,
        mostly_tracked=summary.mostly_tracked,
        partially_tracked=summary.partially_tracked,
        mostly_lost=summary.mostly_lost,
        fp=summary.fp,
        fn=summary.fn,
        id_switches=summary.id_switches,
        fragmentations=summary.fragmentations,
        mota=summary.mota,
        motp=summary.motp,
    )


def load_mot_tracks(path: str | Path) -> dict[int, FrameBoxes]:
    """Read a MOT gt or result file into frame -> [(id, box)], 0-indexed frames."""
    frames: dict[int, FrameBoxes] = {}
    seen: set[tuple[int, int]] = set()
    isfinite = math.isfinite
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 6:
                raise ParseError(f"line {lineno}: expected at least 6 fields, got {len(parts)}")
            try:
                frame = int(float(parts[0]))
                track_id = int(float(parts[1]))
                x, y, w, h = (float(v) for v in parts[2:6])
            except (ValueError, OverflowError) as exc:  # int(inf) overflows
                raise ParseError(f"line {lineno}: non-numeric field ({exc})") from exc
            if frame < 1:
                raise ParseError(f"line {lineno}: frame index must be >= 1, got {frame}")
            if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
                raise ParseError(f"line {lineno}: non-finite box field")
            if w <= 0 or h <= 0:
                raise InvalidBoxError(f"line {lineno}: non-positive box size w={w}, h={h}")
            key = (frame - 1, track_id)
            if key in seen:
                raise DuplicateIdError(f"line {lineno}: id {track_id} repeats in frame {frame}")
            seen.add(key)
            frames.setdefault(frame - 1, []).append((track_id, BoundingBox(x, y, w, h)))
    return frames


def outputs_to_frames(outputs: list[TrackerOutput]) -> dict[int, FrameBoxes]:
    """Reshape tracker outputs into the frame map the metrics functions expect."""
    return {
        out.frame_index: [(track_id, box) for track_id, box, _ in out.records]
        for out in outputs
    }


def _frame_overlaps(
    gt_frames: dict[int, FrameBoxes], hyp_frames: dict[int, FrameBoxes]
) -> dict[int, np.ndarray]:
    """Each frame both sides have boxes in -> its gt-by-hyp ``iou_matrix``."""
    return {
        frame_index: iou_matrix(_tlwh(gt), _tlwh(hyp_frames[frame_index]))
        for frame_index, gt in gt_frames.items()
        if gt and hyp_frames.get(frame_index)
    }


def _check_unique(label: str, entries: FrameBoxes) -> None:
    ids = [i for i, _ in entries]
    if len(ids) != len(set(ids)):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateIdError(f"duplicate {label} ids within a frame: {duplicates}")


def _tlwh(entries: FrameBoxes) -> list[tuple[float, float, float, float]]:
    return [box.as_tlwh() for _, box in entries]


def _id_index(frames: dict[int, FrameBoxes]) -> dict[int, int]:
    """Each id present in any frame -> its row (or column), in sorted id order."""
    ids = sorted({obj_id for entries in frames.values() for obj_id, _ in entries})
    return {obj_id: k for k, obj_id in enumerate(ids)}
