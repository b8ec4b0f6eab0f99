"""Output checks that do not rely on the program's own metric code.

``independent_scores`` recounts CLEAR-MOT and IDF1 from per-frame IoU
matrices and ``scipy.optimize.linear_sum_assignment``; ``noise_floors``
derives recall and false-positive bounds from the generator's noise model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

IOU_MIN = 0.5
# The generator draws false-positive objectness from U(0.3, 1.0) and the
# tracker's confidence filter keeps objectness >= 0.5.
FP_CONF_LOW, FP_CONF_HIGH, CONF_THRESHOLD = 0.3, 1.0, 0.5
_FORBIDDEN = 1e9


@dataclass(frozen=True)
class Scores:
    tp: int
    fp: int
    fn: int
    id_switches: int
    idf1: float
    total_gt: int


def _tlwh(rows) -> np.ndarray:
    return np.array([box.as_tlwh() for _, box in rows], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two (n, 4) tlwh arrays."""
    ax, ay, aw, ah = (a[:, k, None] for k in range(4))
    bx, by, bw, bh = (b[None, :, k] for k in range(4))
    inter_w = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    inter_h = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    overlap = (inter_w > 0) & (inter_h > 0)
    inter = np.where(overlap, inter_w * inter_h, 0.0)
    return np.where(overlap, np.minimum(inter / (aw * ah + bw * bh - inter), 1.0), 0.0)


def independent_scores(truth: dict, hyp: dict) -> Scores:
    """CLEAR-MOT counts and IDF1 for frame -> [(id, BoundingBox)] maps.

    A ground-truth object keeps last frame's hypothesis while they still
    overlap at IOU_MIN; the rest is matched per frame by minimum total
    1 - IoU with pairs below IOU_MIN forbidden. IDF1 matches whole
    trajectories by the number of frames they overlap at IOU_MIN.
    """
    gt_index = {i: k for k, i in enumerate(sorted({i for rows in truth.values() for i, _ in rows}))}
    hyp_index = {i: k for k, i in enumerate(sorted({i for rows in hyp.values() for i, _ in rows}))}
    coverage = np.zeros((len(gt_index), len(hyp_index)))
    tp = fp = fn = switches = 0
    last: dict[int, int] = {}
    for frame in sorted(set(truth) | set(hyp)):
        gt_rows, hyp_rows = truth.get(frame, []), hyp.get(frame, [])
        hits = iou_matrix(_tlwh(gt_rows), _tlwh(hyp_rows))
        ok = hits >= IOU_MIN
        g_cols = [gt_index[i] for i, _ in gt_rows]
        h_cols = [hyp_index[i] for i, _ in hyp_rows]
        if g_cols and h_cols:
            coverage[np.ix_(g_cols, h_cols)] += ok
        hyp_col = {i: c for c, (i, _) in enumerate(hyp_rows)}
        pairs: list[tuple[int, int]] = []
        used = set()
        for r, (gt_id, _) in enumerate(gt_rows):
            c = hyp_col.get(last.get(gt_id))
            if c is not None and c not in used and ok[r, c]:
                pairs.append((r, c))
                used.add(c)
        kept = {r for r, _ in pairs}
        free_r = [r for r in range(len(gt_rows)) if r not in kept]
        free_c = [c for c in range(len(hyp_rows)) if c not in used]
        if free_r and free_c:
            sub = np.ix_(free_r, free_c)
            cost = np.where(ok[sub], 1.0 - hits[sub], _FORBIDDEN)
            for r, c in zip(*linear_sum_assignment(cost)):
                if cost[r, c] < _FORBIDDEN:
                    pairs.append((free_r[r], free_c[c]))
        for r, c in pairs:
            gt_id, hyp_id = gt_rows[r][0], hyp_rows[c][0]
            if gt_id in last and last[gt_id] != hyp_id:
                switches += 1
            last[gt_id] = hyp_id
        tp += len(pairs)
        fn += len(gt_rows) - len(pairs)
        fp += len(hyp_rows) - len(pairs)
    rows, cols = linear_sum_assignment(coverage, maximize=True)
    idtp = float(coverage[rows, cols].sum())
    total_gt, total_hyp = tp + fn, tp + fp
    return Scores(tp, fp, fn, switches, 2.0 * idtp / (total_gt + total_hyp), total_gt)


def agrees_with_program(mine: Scores, report) -> list[str]:
    """Differences between the independent count and a ``MetricsReport``."""
    theirs = {
        "tp": mine.total_gt - report.fn, "fp": report.fp, "fn": report.fn,
        "id_switches": report.id_switches,
    }
    problems = [
        f"{key}: benchmark {getattr(mine, key)} vs evaluate() {value}"
        for key, value in theirs.items()
        if getattr(mine, key) != value
    ]
    if not math.isclose(mine.idf1, report.idf1, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"idf1: benchmark {mine.idf1!r} vs evaluate() {report.idf1!r}")
    return problems


def noise_floors(scores: Scores, noise, frames: int) -> list[str]:
    """Bounds implied by the noise model, each with its slack.

    Recall: every present object is detected with probability 1 - p_miss,
    so recall may fall below it by 4 binomial standard deviations plus 0.005
    for frames lost to association. False positives: Poisson(lambda_fp)
    clutter per frame, of which P(conf >= 0.5) survives the confidence
    filter; each survivor is one unmatched hypothesis. The count must lie
    within 5 Poisson standard deviations plus 2 of that expectation.
    """
    problems = []
    p = noise.p_miss
    recall = scores.tp / scores.total_gt
    recall_floor = 1.0 - p - 4.0 * math.sqrt(p * (1.0 - p) / scores.total_gt) - 0.005
    if recall < recall_floor:
        problems.append(f"recall {recall:.4f} below floor {recall_floor:.4f}")
    kept = (FP_CONF_HIGH - CONF_THRESHOLD) / (FP_CONF_HIGH - FP_CONF_LOW)
    expected = noise.lambda_fp * kept * frames
    band = 5.0 * math.sqrt(expected) + 2.0
    if abs(scores.fp - expected) > band:
        problems.append(f"false positives {scores.fp} outside {expected:.1f} +- {band:.1f}")
    return problems


def readback_matches(outputs, loaded: dict, tolerance: float = 1e-6) -> list[str]:
    """Result file rows read back equal the in-memory outputs to 6 decimals."""
    problems = []
    for out in outputs:
        rows = loaded.get(out.frame_index, [])
        if [i for i, _ in rows] != [i for i, _, _ in out.records]:
            problems.append(f"frame {out.frame_index}: ids differ in the result file")
            continue
        for (_, box, _), (_, read) in zip(out.records, rows):
            if max(abs(u - v) for u, v in zip(box.as_tlwh(), read.as_tlwh())) > tolerance:
                problems.append(f"frame {out.frame_index}: box differs in the result file")
    extra = set(loaded) - {out.frame_index for out in outputs}
    if extra:
        problems.append(f"result file has frames with no output: {sorted(extra)[:5]}")
    return problems


def replay_matches(generated: np.ndarray, loaded: np.ndarray, tolerance: float = 1e-6) -> bool:
    """A frame replayed from the detection file equals the generated frame.

    Boxes and confidence are written with 6 decimals and embeddings as
    float32, renormalized on load.
    """
    return generated.shape == loaded.shape and bool(
        np.all(np.abs(generated[:, :6] - loaded[:, :6]) <= tolerance)
        and np.all(np.abs(generated[:, 6:] - loaded[:, 6:]) <= tolerance)
    )
