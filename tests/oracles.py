"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (textbook
formulas, exhaustive enumeration, explicit bit arithmetic) and must not
import from the package's computational paths it is used to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# IEEE 754 binary16 rounding, from exponent/significand arithmetic
# ---------------------------------------------------------------------------

def quantize_binary16_reference(value: float) -> float:
    """Round a finite float to the nearest binary16 value (ties to even)."""
    if value == 0.0 or value != value:
        return 0.0
    sign = -1.0 if value < 0 else 1.0
    magnitude = abs(value)
    _, exponent = math.frexp(magnitude)  # magnitude = m * 2**exponent, m in [0.5, 1)
    if exponent - 1 >= -14:
        # Normal range: 11 significant bits (1 hidden + 10 stored).
        scale = 11 - exponent
    else:
        # Subnormal range: fixed quantum 2**-24.
        scale = 24
    scaled = magnitude * 2.0**scale  # exact: power-of-two scaling
    quantized = _round_half_to_even(scaled) * 2.0**-scale
    return sign * quantized


def _round_half_to_even(x: float) -> int:
    floor = math.floor(x)
    remainder = x - floor
    if remainder > 0.5:
        return floor + 1
    if remainder < 0.5:
        return floor
    return floor if floor % 2 == 0 else floor + 1


# ---------------------------------------------------------------------------
# Greedy NMS by repeated max-score selection over tlwh tuples
# ---------------------------------------------------------------------------

def iou_reference(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def nms_reference_indices(
    boxes: list[tuple[float, float, float, float]], scores: list[float], threshold: float
) -> list[int]:
    """Kept indices (sorted ascending) of greedy NMS; ties favor lower index."""
    remaining = list(range(len(boxes)))
    kept: list[int] = []
    while remaining:
        best = min(remaining, key=lambda i: (-scores[i], i))
        kept.append(best)
        remaining = [
            j
            for j in remaining
            if j != best and iou_reference(boxes[best], boxes[j]) <= threshold
        ]
    return sorted(kept)


# ---------------------------------------------------------------------------
# Exhaustive assignment optimum: max feasible cardinality, then min cost
# ---------------------------------------------------------------------------

def assignment_brute_force(cost: np.ndarray) -> tuple[int, float]:
    """(cardinality, total cost) of the optimal matching avoiding +inf edges."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols, 1)
    best_cardinality, best_total = -1, math.inf
    for perm in itertools.permutations(range(n)):
        cardinality, total = 0, 0.0
        for row in range(n_rows):
            col = perm[row]
            if col < n_cols and math.isfinite(cost[row, col]):
                cardinality += 1
                total += cost[row, col]
        if cardinality > best_cardinality or (
            cardinality == best_cardinality and total < best_total
        ):
            best_cardinality, best_total = cardinality, total
    return best_cardinality, best_total


def max_coverage_brute_force(coverage: np.ndarray) -> float:
    """Maximum total weight over one-to-one trajectory pairings."""
    coverage = np.asarray(coverage, dtype=float)
    n_rows, n_cols = coverage.shape
    n = max(n_rows, n_cols, 1)
    best = 0.0
    for perm in itertools.permutations(range(n)):
        total = sum(
            coverage[row, perm[row]]
            for row in range(n_rows)
            if perm[row] < n_cols
        )
        best = max(best, total)
    return best


def coverage_reference(gt_frames: dict, hyp_frames: dict, iou_min: float = 0.5) -> np.ndarray:
    """Per-pair identity coverage: frames where gt id g and hyp id h overlap at iou_min.

    Rows and columns follow sorted ids; with no hyp ids there is one zero
    column, so the matrix is never empty. Boxes only need ``as_tlwh()``.
    """
    gt_traj: dict = {}
    hyp_traj: dict = {}
    for frames, traj in ((gt_frames, gt_traj), (hyp_frames, hyp_traj)):
        for frame, entries in frames.items():
            for obj_id, box in entries:
                traj.setdefault(obj_id, {})[frame] = box.as_tlwh()
    gt_ids, hyp_ids = sorted(gt_traj), sorted(hyp_traj)
    coverage = np.zeros((len(gt_ids), max(len(hyp_ids), 1)))
    for r, g in enumerate(gt_ids):
        for c, h in enumerate(hyp_ids):
            coverage[r, c] = sum(
                1
                for frame in gt_traj[g].keys() & hyp_traj[h].keys()
                if iou_reference(gt_traj[g][frame], hyp_traj[h][frame]) >= iou_min
            )
    return coverage


# ---------------------------------------------------------------------------
# Textbook Kalman filter over the same noise model, via explicit inverses
# ---------------------------------------------------------------------------

class KalmanOracle:
    """Plain-equation filter: F/H matrices, np.linalg.inv, (I - KH)P update."""

    def __init__(self, std_weight_position=1.0 / 20, std_weight_velocity=1.0 / 160,
                 std_aspect=1e-2, std_aspect_velocity=1e-5,
                 std_aspect_measurement=1e-1) -> None:
        self.wp = std_weight_position
        self.wv = std_weight_velocity
        self.sa = std_aspect
        self.sav = std_aspect_velocity
        self.sam = std_aspect_measurement
        self.F = np.eye(8)
        for i in range(4):
            self.F[i, i + 4] = 1.0
        self.H = np.zeros((4, 8))
        for i in range(4):
            self.H[i, i] = 1.0

    def initiate(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=float)
        h = z[3]
        mean = np.concatenate([z, np.zeros(4)])
        std = [
            2 * self.wp * h, 2 * self.wp * h, self.sa, 2 * self.wp * h,
            10 * self.wv * h, 10 * self.wv * h, self.sav, 10 * self.wv * h,
        ]
        return mean, np.diag(np.square(std))

    def _process_noise(self, h: float) -> np.ndarray:
        std = [
            self.wp * h, self.wp * h, self.sa, self.wp * h,
            self.wv * h, self.wv * h, self.sav, self.wv * h,
        ]
        return np.diag(np.square(std))

    def _measurement_noise(self, h: float) -> np.ndarray:
        std = [self.wp * h, self.wp * h, self.sam, self.wp * h]
        return np.diag(np.square(std))

    def predict(self, mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = self._process_noise(mean[3])
        return self.F @ mean, self.F @ cov @ self.F.T + q

    def update(
        self, mean: np.ndarray, cov: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        r = self._measurement_noise(mean[3])
        s = self.H @ cov @ self.H.T + r
        gain = cov @ self.H.T @ np.linalg.inv(s)
        new_mean = mean + gain @ (np.asarray(z, dtype=float) - self.H @ mean)
        new_cov = (np.eye(8) - gain @ self.H) @ cov
        return new_mean, new_cov

    def gating(self, mean: np.ndarray, cov: np.ndarray, zs: np.ndarray) -> np.ndarray:
        r = self._measurement_noise(mean[3])
        s = self.H @ cov @ self.H.T + r
        s_inv = np.linalg.inv(s)
        d = np.atleast_2d(zs) - self.H @ mean
        return np.einsum("ni,ij,nj->n", d, s_inv, d)


# ---------------------------------------------------------------------------
# Synthetic detector frame, one object at a time with scalar draws
# ---------------------------------------------------------------------------

def generate_frame_reference(scenario, frame_index: int, seed: int):
    """One synthetic frame drawn object by object: (raw rows, [(id, tlwh)]).

    Reads only the scenario's plain fields. The stream is seeded with
    ``[seed, 1, frame_index]`` (1 tags the per-frame stream). Each alive
    object draws one uniform for the miss test and, if kept, four box normals,
    ``dim`` embedding normals and one confidence normal; then come the
    Poisson false-positive count and each false positive's draws.
    """
    rng = np.random.default_rng([seed, 1, frame_index])
    noise = scenario.noise
    width, height = scenario.image_size
    rows, truth = [], []
    for obj in scenario.objects:
        if not obj.spawn_frame <= frame_index < obj.despawn_frame:
            continue
        k = frame_index - obj.spawn_frame
        b = obj.initial_box
        box = (b.x + obj.velocity[0] * k, b.y + obj.velocity[1] * k, b.w, b.h)
        truth.append((obj.object_id, box))
        if rng.random() < noise.p_miss:
            continue
        x = box[0] + rng.normal(0.0, noise.sigma_box)
        y = box[1] + rng.normal(0.0, noise.sigma_box)
        w = max(box[2] + rng.normal(0.0, noise.sigma_box), 1e-3)
        h = max(box[3] + rng.normal(0.0, noise.sigma_box), 1e-3)
        v = np.asarray(obj.identity_embedding, dtype=np.float64) + rng.normal(
            0.0, noise.sigma_emb, scenario.embedding_dim
        )
        conf = min(max(0.9 + rng.normal(0.0, noise.sigma_conf), 0.0), 1.0)
        rows.append([x, y, w, h, conf, 1.0, *(v / np.linalg.norm(v)).astype(np.float32)])
    for _ in range(int(rng.poisson(noise.lambda_fp))):
        w = rng.uniform(16.0, 120.0)
        h = rng.uniform(16.0, 120.0)
        x = rng.uniform(0.0, max(width - w, 1.0))
        y = rng.uniform(0.0, max(height - h, 1.0))
        v = rng.standard_normal(scenario.embedding_dim)
        conf = rng.uniform(0.3, 1.0)
        rows.append([x, y, w, h, conf, 1.0, *(v / np.linalg.norm(v)).astype(np.float32)])
    raw = np.array(rows, dtype=np.float64).reshape(len(rows), 6 + scenario.embedding_dim)
    return raw, truth
