"""Appearance cost matrix, motion gating, and minimum-cost assignment.

The assignment solver accepts rectangular matrices with +inf entries. It
pads to square with a finite sentinel strictly dominating any feasible total
cost, hands the square problem to a classical LAP solver, and strips matches
that land on a sentinel cell. Among matchings that avoid +inf edges it
maximizes cardinality first, then minimizes total cost, so rows or columns
that can only pair at +inf are left unmatched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionError


@dataclass
class Assignment:
    """Solved matching: (track, detection, cost) triples plus leftover indices.

    Every track index appears exactly once in either ``matches`` or
    ``unmatched_tracks``; detections likewise.
    """

    matches: list[tuple[int, int, float]] = field(default_factory=list)
    unmatched_tracks: list[int] = field(default_factory=list)
    unmatched_detections: list[int] = field(default_factory=list)


def build_cost_matrix(
    track_embeddings: np.ndarray | list[np.ndarray],
    detection_embeddings: np.ndarray | list[np.ndarray],
) -> np.ndarray:
    """Pairwise cosine distances between (T, D) track and (N, D) detection embeddings.

    Tracks are rows and detections columns; a list of (D,) vectors is accepted
    on either side.
    """
    try:
        tracks = np.asarray(track_embeddings, dtype=np.float64)
        dets = np.asarray(detection_embeddings, dtype=np.float64)
    except ValueError as exc:  # a list of vectors whose shapes differ
        raise DimensionError(f"mixed embedding shapes in cost matrix: {exc}") from exc
    if len(tracks) == 0 or len(dets) == 0:
        return np.zeros((len(tracks), len(dets)), dtype=np.float64)
    if tracks.ndim != 2 or tracks.shape[1:] != dets.shape[1:]:
        raise DimensionError(f"embedding shapes differ: {tracks.shape} vs {dets.shape}")
    return np.clip(1.0 - tracks @ dets.T, 0.0, 2.0)


def apply_gate(
    cost: np.ndarray, gate_distances: np.ndarray, gate_threshold: float
) -> np.ndarray:
    """Replace entries whose gate distance exceeds the threshold with +inf."""
    cost = np.asarray(cost, dtype=np.float64)
    gate = np.asarray(gate_distances, dtype=np.float64)
    if cost.shape != gate.shape:
        raise DimensionError(f"cost shape {cost.shape} != gate shape {gate.shape}")
    return np.where(gate > gate_threshold, np.inf, cost)


def hungarian_solve(cost: np.ndarray) -> Assignment:
    """Minimum-cost assignment over a rectangular matrix with +inf forbidden edges."""
    cost = np.asarray(cost, dtype=np.float64)
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return Assignment([], list(range(n_rows)), list(range(n_cols)))

    n = max(n_rows, n_cols)
    finite = cost[np.isfinite(cost)]
    # Any feasible matching's total lies in [-n*a, n*a]; one sentinel edge must
    # outweigh that whole range so the solver minimizes sentinel-edge count first.
    amplitude = float(np.max(np.abs(finite))) if finite.size else 1.0
    sentinel = 2.0 * n * max(amplitude, 1.0) + 1.0
    padded = np.full((n, n), sentinel, dtype=np.float64)
    padded[:n_rows, :n_cols] = np.where(np.isfinite(cost), cost, sentinel)

    rows, cols = linear_sum_assignment(padded)
    matches: list[tuple[int, int, float]] = []
    for r, c in zip(rows, cols):
        if r < n_rows and c < n_cols and np.isfinite(cost[r, c]):
            matches.append((int(r), int(c), float(cost[r, c])))
    matched_rows = {r for r, _, _ in matches}
    matched_cols = {c for _, c, _ in matches}
    return Assignment(
        matches=matches,
        unmatched_tracks=[r for r in range(n_rows) if r not in matched_rows],
        unmatched_detections=[c for c in range(n_cols) if c not in matched_cols],
    )


def match_with_threshold(
    assignment: Assignment, cost: np.ndarray, max_cost: float
) -> Assignment:
    """Dissolve matches costing more than ``max_cost`` into the unmatched sets."""
    kept: list[tuple[int, int, float]] = []
    spilled_tracks = list(assignment.unmatched_tracks)
    spilled_dets = list(assignment.unmatched_detections)
    for track_idx, det_idx, value in assignment.matches:
        if value > max_cost:
            spilled_tracks.append(track_idx)
            spilled_dets.append(det_idx)
        else:
            kept.append((track_idx, det_idx, value))
    return Assignment(
        matches=kept,
        unmatched_tracks=sorted(spilled_tracks),
        unmatched_detections=sorted(spilled_dets),
    )
