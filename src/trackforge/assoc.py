"""Appearance cost, motion gating, and minimum-cost assignment.

Costs come in two shapes with one formula, ``clip(1 - dot, 0, 2)`` over
float64 dot products of unit embeddings: ``build_cost_matrix`` gives every
(track, detection) pair from one matrix product, ``pair_costs`` gives listed
pairs from one row-wise dot each. The tracker costs only the candidate
pairs of its motion gate (``candidate_pairs``) and leaves +inf everywhere
else, so no (T, N) matrix product runs per frame. ``apply_gate`` is elementwise and serves both
shapes. The two dot products may differ in the last bit.

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
    return _cosine_cost(tracks @ dets.T)


def pair_costs(track_embeddings: np.ndarray, detection_embeddings: np.ndarray) -> np.ndarray:
    """Cosine distance of row k of (K, D) track embeddings to row k of (K, D) detection ones.

    Each row is cast to float64 and costed with one dot product; a pair's cost
    does not depend on the rows beside it.
    """
    tracks = np.asarray(track_embeddings)
    dets = np.asarray(detection_embeddings)
    if tracks.ndim != 2 or tracks.shape != dets.shape:
        raise DimensionError(f"paired embedding shapes differ: {tracks.shape} vs {dets.shape}")
    return _cosine_cost(np.einsum("kd,kd->k", tracks, dets, dtype=np.float64))


def _cosine_cost(dots: np.ndarray) -> np.ndarray:
    return np.clip(1.0 - dots, 0.0, 2.0)


def candidate_pairs(
    track_centres: np.ndarray, det_centres: np.ndarray, radius2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (track, detection) pair whose centres lie within ``radius2[track]``, squared.

    Takes (T, 2) and (N, 2) centres and (T,) squared radii; returns the pairs'
    rows, columns and squared centre distances ``dx*dx + dy*dy``
    (``dx = track x - detection x``). These are the same pairs and the same
    bits as that expression over the whole (T, N) matrix gives, but only pairs
    within reach in x are measured: each track's reach is a slice of the
    detections sorted by x.
    """
    tx, ty = track_centres[:, 0], track_centres[:, 1]
    order = np.argsort(det_centres[:, 0], kind="stable")
    # A pair inside the radius has |dx| <= sqrt(radius2); 1 % covers rounding.
    reach = 1.01 * np.sqrt(radius2)
    xs = det_centres[order, 0]
    lo = np.searchsorted(xs, tx - reach, side="left")
    counts = np.searchsorted(xs, tx + reach, side="right") - lo
    rows = np.repeat(np.arange(len(tx)), counts)
    # Pair k of track t's slice is sorted detection lo[t] + k.
    cols = order[np.arange(len(rows)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    dx = tx[rows] - det_centres[cols, 0]
    dy = ty[rows] - det_centres[cols, 1]
    centre2 = dx * dx + dy * dy
    near = centre2 <= radius2[rows]
    return rows[near], cols[near], centre2[near]


def apply_gate(
    cost: np.ndarray, gate_distances: np.ndarray, gate_threshold: float
) -> np.ndarray:
    """Replace entries whose gate distance exceeds the threshold with +inf.

    Elementwise: a matrix and its gate matrix, or a vector of pairs and theirs.
    """
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
    finite = np.isfinite(cost)
    # Any feasible matching's total lies in [-n*a, n*a]; one sentinel edge must
    # outweigh that whole range so the solver minimizes sentinel-edge count first.
    amplitude = float(np.max(np.abs(cost[finite]))) if finite.any() else 1.0
    sentinel = 2.0 * n * max(amplitude, 1.0) + 1.0
    padded = np.full((n, n), sentinel, dtype=np.float64)
    np.copyto(padded[:n_rows, :n_cols], cost, where=finite)

    rows, cols = linear_sum_assignment(padded)
    real = (rows < n_rows) & (cols < n_cols)
    rows, cols = rows[real], cols[real]
    values = cost[rows, cols]
    feasible = np.isfinite(values)
    rows, cols, values = rows[feasible], cols[feasible], values[feasible]
    unmatched_rows = np.ones(n_rows, dtype=bool)
    unmatched_rows[rows] = False
    unmatched_cols = np.ones(n_cols, dtype=bool)
    unmatched_cols[cols] = False
    return Assignment(
        matches=list(zip(rows.tolist(), cols.tolist(), values.tolist())),
        unmatched_tracks=np.flatnonzero(unmatched_rows).tolist(),
        unmatched_detections=np.flatnonzero(unmatched_cols).tolist(),
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
