"""Constant-velocity Kalman filter over the (cx, cy, aspect, h) box space.

State is an 8-vector (position block then velocity block) with dt = 1 frame.
Process and measurement noise scale with box height, apart from the aspect
ratio which uses small fixed standard deviations; all weights live in
:class:`MotionNoise` and are configurable.

Every operation broadcasts over leading axes, so one call serves a whole
stack of tracks: a :class:`KalmanState` holds either one track (mean ``(8,)``,
covariance ``(8, 8)``) or T tracks (``(T, 8)`` and ``(T, 8, 8)``), and a stack
is the same arithmetic as its slices. The 4x4 innovation covariances are
factored with one batched Cholesky call; a covariance that is singular or not
finite in any row raises :class:`NumericError`.

A :class:`Projection` keeps that factored projection, so one frame projects
and factors its tracks once: the tracker gathers the rows of the track and
measurement pairs it gates (``take``, then ``distance``) and of the tracks it
updates (``update(..., projection)``). ``gating_distance`` and ``update`` run
the same arithmetic on a projection they make themselves, and a distance is
summed in a fixed order, so a pair's distance is the same bits whether it is
computed alone or in a ``(T, N)`` matrix.

All operations are value-in/value-out: states are never mutated, so a state
can be shared or replayed freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMeasurementError, NumericError

# 0.95 quantile of the chi-square distribution with 4 degrees of freedom;
# the default gate on squared Mahalanobis distance in measurement space.
CHI2_GATE_95_4DOF = 9.4877

_DIM = 4  # measurement dimension; state is 2 * _DIM
# Slack on the centre bound of Projection.gate_radius2 that covers its rounding.
_BOUND_MARGIN = 1.01
_MEASURE_DIAG = np.arange(_DIM)
_STATE_DIAG = np.arange(2 * _DIM)


@dataclass(frozen=True)
class MotionNoise:
    """Noise weights: position/size stds scale with box height, aspect is fixed.

    The measurement-space aspect std is deliberately looser than the process
    one: observed aspect ratios wobble with box-size noise, and an overtight
    innovation covariance would reject valid matches at the gate.
    """

    std_weight_position: float = 1.0 / 20
    std_weight_velocity: float = 1.0 / 160
    std_aspect: float = 1e-2
    std_aspect_velocity: float = 1e-5
    std_aspect_measurement: float = 1e-1


@dataclass(frozen=True)
class KalmanState:
    """Gaussian state: mean (cx, cy, a, h, vcx, vcy, va, vh) and 8x8 covariance.

    Shapes are ``(8,)`` and ``(8, 8)`` for one track, ``(T, 8)`` and
    ``(T, 8, 8)`` for a stack of T tracks.
    """

    mean: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class Projection:
    """States in measurement space: mean ``(..., 4)``, innovation covariance
    ``(..., 4, 4)`` and its lower Cholesky factor ``chol``; the leading axes
    are those of the projected state."""

    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray

    def take(self, rows) -> Projection:
        """The projections of the selected rows of a stack."""
        return Projection(self.mean[rows], self.covariance[rows], self.chol[rows])

    def distance(self, measurements: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance of ``(..., N, 4)`` measurements: ``(..., N)``.

        The measurements broadcast against the leading axes, so ``(N, 4)``
        against a stack of T gives ``(T, N)``, and ``(K, 1, 4)`` against K
        gathered rows gives one distance per pair, ``(K, 1)``.
        """
        d = np.asarray(measurements, dtype=np.float64) - self.mean[..., None, :]
        solved = _forward_substitute(self.chol, _swap(d))
        # An explicit left-to-right sum: np.sum may pick its order by shape.
        squares = solved * solved
        return squares[..., 0, :] + squares[..., 1, :] + squares[..., 2, :] + squares[..., 3, :]

    def gate_radius2(self, threshold: float) -> np.ndarray:
        """Per row, a squared centre distance that no measurement within the gate exceeds.

        For positive definite S, ``dᵀS⁻¹d >= |d|²/λ_max(S) >= (dx² + dy²)/trace(S)``,
        so a measurement whose centre lies farther than this from the
        projected centre has a distance above ``threshold``.
        """
        trace = np.trace(self.covariance, axis1=-2, axis2=-1)
        return _BOUND_MARGIN * threshold * trace


class KalmanFilter:
    """Predict/update cycle for one track's motion state or a stack of them."""

    def __init__(self, noise: MotionNoise | None = None) -> None:
        self.noise = noise or MotionNoise()
        self._motion = np.eye(2 * _DIM)
        self._motion[:_DIM, _DIM:] = np.eye(_DIM)
        self._observe = np.eye(_DIM, 2 * _DIM)

    def initiate(self, measurement: np.ndarray) -> KalmanState:
        """Create a single-track state from an unassociated measurement, zero velocity."""
        z = np.asarray(measurement, dtype=np.float64)
        h = float(z[3])
        if h <= 0:
            raise InvalidMeasurementError(f"measurement height must be positive, got {h}")
        mean = np.concatenate([z, np.zeros(_DIM)])
        wp, wv = self.noise.std_weight_position, self.noise.std_weight_velocity
        std = np.array(
            [
                2 * wp * h,
                2 * wp * h,
                self.noise.std_aspect,
                2 * wp * h,
                10 * wv * h,
                10 * wv * h,
                self.noise.std_aspect_velocity,
                10 * wv * h,
            ]
        )
        return KalmanState(mean=mean, covariance=np.diag(std**2))

    def predict(self, state: KalmanState) -> KalmanState:
        """Advance one frame: position += velocity, covariance grows by Q."""
        h = state.mean[..., 3]
        wp, wv = self.noise.std_weight_position, self.noise.std_weight_velocity
        fixed = np.ones_like(h)
        std = np.stack(
            [
                wp * h,
                wp * h,
                self.noise.std_aspect * fixed,
                wp * h,
                wv * h,
                wv * h,
                self.noise.std_aspect_velocity * fixed,
                wv * h,
            ],
            axis=-1,
        )
        mean = state.mean @ self._motion.T
        covariance = self._motion @ state.covariance @ self._motion.T
        covariance[..., _STATE_DIAG, _STATE_DIAG] += std**2
        return KalmanState(mean=mean, covariance=_symmetrize(covariance))

    def project(self, state: KalmanState) -> tuple[np.ndarray, np.ndarray]:
        """Project the state into measurement space: (mean4, innovation covariance)."""
        h = state.mean[..., 3]
        wp = self.noise.std_weight_position
        std = np.stack(
            [wp * h, wp * h, self.noise.std_aspect_measurement * np.ones_like(h), wp * h],
            axis=-1,
        )
        mean = state.mean @ self._observe.T
        cov = self._observe @ state.covariance @ self._observe.T
        cov[..., _MEASURE_DIAG, _MEASURE_DIAG] += std**2
        return mean, cov

    def factor(self, state: KalmanState) -> Projection:
        """Project the state and factor every innovation covariance in one Cholesky call."""
        mean, cov = self.project(state)
        return Projection(mean, cov, _cholesky(cov, "innovation covariance"))

    def update(
        self, state: KalmanState, measurement: np.ndarray, projection: Projection | None = None
    ) -> KalmanState:
        """Condition the state on a measurement; shrinks measured-subspace variance.

        ``measurement`` is ``(4,)`` for one track, ``(T, 4)`` for a stack.
        ``projection`` is ``factor(state)`` when the caller has it already.
        """
        z = np.asarray(measurement, dtype=np.float64)
        p = self.factor(state) if projection is None else projection
        # gain = P H^T S^-1 = X^T for S X = H P, solved with S = L L^T (P is symmetric).
        cross = self._observe @ state.covariance
        gain = _swap(_back_substitute(p.chol, _forward_substitute(p.chol, cross)))
        innovation = z - p.mean
        mean = state.mean + (gain @ innovation[..., None])[..., 0]
        covariance = state.covariance - gain @ p.covariance @ _swap(gain)
        return KalmanState(mean=mean, covariance=_symmetrize(covariance))

    def gating_distance(self, state: KalmanState, measurements: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance from the projected state to each measurement.

        ``measurements`` is an (N, 4) array; returns (N,) non-negative distances
        for one track and (T, N) for a stack of T.
        """
        z = np.atleast_2d(np.asarray(measurements, dtype=np.float64))
        return self.factor(state).distance(z)


def _swap(matrix: np.ndarray) -> np.ndarray:
    return np.swapaxes(matrix, -1, -2)


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + _swap(matrix)) / 2.0


def _cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of every matrix in the stack, in one LAPACK call."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what} is singular: {exc}") from exc
    # LAPACK lets a NaN through without an error; it then fills the factor.
    if not np.all(np.isfinite(chol)):
        raise NumericError(f"{what} is not finite")
    return chol


def _forward_substitute(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L Y = B for lower-triangular L (..., n, n) and B (..., n, k)."""
    out = np.empty(np.broadcast_shapes(lower.shape[:-2], rhs.shape[:-2]) + rhs.shape[-2:])
    for i in range(lower.shape[-1]):
        acc = rhs[..., i, :]
        for j in range(i):
            acc = acc - lower[..., i, j, None] * out[..., j, :]
        out[..., i, :] = acc / lower[..., i, i, None]
    return out


def _back_substitute(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T X = B for lower-triangular L (..., n, n) and B (..., n, k)."""
    n = lower.shape[-1]
    out = np.empty(np.broadcast_shapes(lower.shape[:-2], rhs.shape[:-2]) + rhs.shape[-2:])
    for i in reversed(range(n)):
        acc = rhs[..., i, :]
        for j in range(i + 1, n):
            acc = acc - lower[..., j, i, None] * out[..., j, :]
        out[..., i, :] = acc / lower[..., i, i, None]
    return out
