"""Multi-object tracking pipeline with staged concurrency and latency emulation."""

from .assoc import Assignment, apply_gate, build_cost_matrix, hungarian_solve, match_with_threshold
from .core import (
    BoundingBox,
    DetectionBatch,
    box_to_measurement,
    cosine_distance,
    iou,
    measurement_to_box,
    normalize,
    quantize_binary16,
)
from .detgen import (
    LatencyModel,
    NoiseParams,
    ScenarioConfig,
    ScenarioObject,
    emulated_latency,
    generate_frame,
    make_scenario,
    scenario_frames,
    scenario_ground_truth,
)
from .motion import CHI2_GATE_95_4DOF, KalmanFilter, KalmanState, MotionNoise
from .moteval import MetricsReport, clear_mot, evaluate, id_metrics, match_frame
from .pipeline import (
    ExecutionMode,
    PipelineConfig,
    PipelineMode,
    Precision,
    RunReport,
    StageQueue,
    batcher,
    predicted_fps,
    run,
)
from .postproc import filter_confidence, nms, parse_output, serialize_detections
from .tracker import Track, Tracker, TrackerConfig, TrackerOutput, TrackState, smooth_embedding

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BoundingBox",
    "CHI2_GATE_95_4DOF",
    "DetectionBatch",
    "ExecutionMode",
    "KalmanFilter",
    "KalmanState",
    "LatencyModel",
    "MetricsReport",
    "MotionNoise",
    "NoiseParams",
    "PipelineConfig",
    "PipelineMode",
    "Precision",
    "RunReport",
    "ScenarioConfig",
    "ScenarioObject",
    "StageQueue",
    "Track",
    "TrackState",
    "Tracker",
    "TrackerConfig",
    "TrackerOutput",
    "apply_gate",
    "batcher",
    "box_to_measurement",
    "build_cost_matrix",
    "clear_mot",
    "cosine_distance",
    "emulated_latency",
    "evaluate",
    "filter_confidence",
    "generate_frame",
    "hungarian_solve",
    "id_metrics",
    "iou",
    "make_scenario",
    "match_frame",
    "match_with_threshold",
    "measurement_to_box",
    "nms",
    "normalize",
    "parse_output",
    "predicted_fps",
    "quantize_binary16",
    "run",
    "scenario_frames",
    "scenario_ground_truth",
    "serialize_detections",
    "smooth_embedding",
]
