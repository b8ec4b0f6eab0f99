"""Detection sources standing in for a detector's forward pass.

Two sources are provided: a seeded synthetic scenario generator that emits
raw output matrices together with exact ground truth, and a loader for
MOT-format detection files with a binary embedding sidecar. Both produce the
same raw row layout that :func:`trackforge.postproc.parse_output` consumes.

Each generated frame has its own seeded stream: per alive object one uniform
(the miss test) and, if kept, ``dim + 5`` normals; then the false positives.

The file loaders build one array per frame, not one per record. The MOT
loader parses line by line, so each error names its line, and stacks each
frame's rows once. The sidecar is read as one structured record array (the
dtype the writer uses too); repeated, missing and extra keys are found on
packed ``frame << 32 | det_index`` integers, and each frame's vectors are
normalized in one ``normalize`` call from their run of key-sorted records,
so every row equals ``normalize`` of its vector alone bit for bit.

Inference cost is emulated, not computed: :class:`LatencyModel` prices a
batch as ``t_fixed + batch_size * t_image * kappa`` milliseconds, where
``kappa`` scales the per-image term for reduced-precision execution. The
default constants are calibrated so that a 20-object scene splits frame time
roughly 80/20 between inference and post-processing at about 19 FPS, and
``KAPPA_MIXED`` reflects the relative model-time reduction observed when
dropping numerically safe operations to half precision. These are
calibration values for the emulator, not measurements of any real model.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import MIN_EMBEDDING_NORM, BoundingBox, cosine_distance, normalize, row_norms
from .errors import ConfigError, ConsistencyError, DimensionError, InvalidBoxError, ParseError

KAPPA_FULL = 1.0
KAPPA_MIXED = 0.786

# Internal rng stream tags, so per-frame noise, identity embeddings, and
# scenario layout never share a seed sequence.
_STREAM_FRAME = 1
_STREAM_IDENTITY = 2
_STREAM_LAYOUT = 3


@dataclass(frozen=True)
class LatencyModel:
    """Per-batch inference cost: t_fixed + batch_size * t_image * kappa (ms)."""

    t_fixed_ms: float = 8.0
    t_image_ms: float = 34.0
    kappa: float = KAPPA_FULL

    def __post_init__(self) -> None:
        if self.t_fixed_ms <= 0 or self.t_image_ms <= 0:
            raise ConfigError("latency terms must be positive")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigError(f"kappa must be in (0, 1], got {self.kappa}")


def emulated_latency(model: LatencyModel, batch_size: int) -> float:
    """Milliseconds the inference stage stalls for one batch."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    return model.t_fixed_ms + batch_size * model.t_image_ms * model.kappa


# Highest mean false-positive count per frame. A frame is one (n, 6 + dim)
# float64 array and NMS builds an (n, n) overlap matrix, so the Poisson draw
# must stay far below what memory holds, let alone numpy's own limit near
# 9.2e18, past which rng.poisson raises a bare ValueError. A thousand is
# hundreds of times any clutter rate used here (at most 2) and costs about
# 4 MB of rows per frame at dim 512 and 8 MB of overlaps.
_MAX_LAMBDA_FP = 1000.0


@dataclass(frozen=True)
class NoiseParams:
    """Observation noise for the synthetic generator; zeros mean exact output."""

    p_miss: float = 0.0
    sigma_box: float = 0.0
    sigma_emb: float = 0.0
    sigma_conf: float = 0.0
    lambda_fp: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_miss <= 1.0:
            raise ConfigError(f"p_miss must be in [0, 1], got {self.p_miss}")
        for name in ("sigma_box", "sigma_emb", "sigma_conf", "lambda_fp"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative")
        if self.lambda_fp > _MAX_LAMBDA_FP:
            raise ConfigError(f"lambda_fp must be at most {_MAX_LAMBDA_FP:g}, got {self.lambda_fp}")


@dataclass(frozen=True, eq=False)
class ScenarioObject:
    """One synthetic target: linear motion from spawn to despawn frame."""

    object_id: int
    spawn_frame: int
    despawn_frame: int
    initial_box: BoundingBox
    velocity: tuple[float, float]
    identity_embedding: np.ndarray

    def __post_init__(self) -> None:
        if self.object_id <= 0:
            raise ConfigError(f"object id must be positive, got {self.object_id}")
        if self.spawn_frame >= self.despawn_frame:
            raise ConfigError(
                f"object {self.object_id}: spawn {self.spawn_frame} must precede "
                f"despawn {self.despawn_frame}"
            )

    def box_at(self, frame_index: int) -> BoundingBox:
        k = frame_index - self.spawn_frame
        return BoundingBox(
            self.initial_box.x + self.velocity[0] * k,
            self.initial_box.y + self.velocity[1] * k,
            self.initial_box.w,
            self.initial_box.h,
        )

    def alive_at(self, frame_index: int) -> bool:
        return self.spawn_frame <= frame_index < self.despawn_frame


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A full synthetic sequence: objects, length, noise, and embedding geometry."""

    objects: tuple[ScenarioObject, ...]
    frames: int
    image_size: tuple[int, int] = (1920, 1080)
    noise: NoiseParams = field(default_factory=NoiseParams)
    embedding_dim: int = 512
    separation_margin: float = 0.5
    identity_seed: int = 0

    def __post_init__(self) -> None:
        if self.frames < 0:
            raise ConfigError(f"frame count must be non-negative, got {self.frames}")
        ids = [o.object_id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ConfigError("object ids must be unique within a scenario")
        for obj in self.objects:
            if np.shape(obj.identity_embedding) != (self.embedding_dim,):
                raise DimensionError(
                    f"object {obj.object_id}: identity embedding has shape "
                    f"{np.shape(obj.identity_embedding)}, expected ({self.embedding_dim},)"
                )


def identity_embeddings(
    count: int, dim: int, margin: float, seed: int, max_attempts_per_vector: int = 1000
) -> list[np.ndarray]:
    """Seeded unit vectors with pairwise cosine distance >= margin.

    Candidates are drawn from a Gaussian and rejected until they clear the
    margin against every accepted vector; for margins well below 1 and dims
    in the hundreds, rejections are rare.
    """
    rng = np.random.default_rng([seed, _STREAM_IDENTITY])
    accepted: list[np.ndarray] = []
    attempts = 0
    while len(accepted) < count:
        candidate = normalize(rng.standard_normal(dim))
        attempts += 1
        if all(cosine_distance(candidate, other) >= margin for other in accepted):
            accepted.append(candidate)
        elif attempts > max_attempts_per_vector * count:
            raise ConfigError(
                f"could not draw {count} embeddings with separation {margin} in dim {dim}"
            )
    return accepted


def make_scenario(
    num_objects: int,
    frames: int,
    seed: int,
    image_size: tuple[int, int] = (1920, 1080),
    noise: NoiseParams | None = None,
    embedding_dim: int = 512,
    separation_margin: float = 0.5,
    layout: str = "lanes",
) -> ScenarioConfig:
    """Build a scenario with seeded geometry and identity embeddings.

    ``layout="lanes"`` stacks objects in disjoint horizontal lanes with purely
    horizontal velocities, so true boxes never overlap at any frame (lanes may
    extend below the nominal image height; the image size only bounds
    false-positive placement). ``layout="random"`` scatters boxes and
    velocities freely and gives no separation guarantee.
    """
    if num_objects < 0:
        raise ConfigError(f"object count must be non-negative, got {num_objects}")
    if layout not in ("lanes", "random"):
        raise ConfigError(f"unknown layout {layout!r}")
    rng = np.random.default_rng([seed, _STREAM_LAYOUT])
    width, height = image_size
    identities = identity_embeddings(num_objects, embedding_dim, separation_margin, seed)
    objects = []
    for i in range(num_objects):
        if layout == "lanes":
            w, h = 30.0, 40.0
            x = float(rng.uniform(50.0, max(width - 200.0, 51.0)))
            y = 20.0 + i * (h + 12.0)
            velocity = (float(rng.uniform(-3.0, 3.0)), 0.0)
        else:
            w = float(rng.uniform(24.0, 96.0))
            h = float(rng.uniform(24.0, 96.0))
            x = float(rng.uniform(0.0, max(width - w, 1.0)))
            y = float(rng.uniform(0.0, max(height - h, 1.0)))
            velocity = (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)))
        objects.append(
            ScenarioObject(
                object_id=i + 1,
                spawn_frame=0,
                despawn_frame=frames,
                initial_box=BoundingBox(x, y, w, h),
                velocity=velocity,
                identity_embedding=identities[i],
            )
        )
    return ScenarioConfig(
        objects=tuple(objects),
        frames=frames,
        image_size=image_size,
        noise=noise or NoiseParams(),
        embedding_dim=embedding_dim,
        separation_margin=separation_margin,
        identity_seed=seed,
    )


def generate_frame(
    scenario: ScenarioConfig, frame_index: int, seed: int
) -> tuple[np.ndarray, list[tuple[int, BoundingBox]]]:
    """One frame of raw output plus ground truth; pure in (scenario, frame, seed).

    Draws, in order: per alive object one uniform (the miss test) and, if kept,
    ``dim + 5`` normals (x, y, w, h, embedding, confidence); then the false positives.
    """
    if frame_index < 0:
        raise ConfigError(f"frame index must be non-negative, got {frame_index}")
    rng = np.random.default_rng([seed, _STREAM_FRAME, frame_index])
    noise = scenario.noise
    width, height = scenario.image_size
    dim = scenario.embedding_dim
    alive = [obj for obj in scenario.objects if obj.alive_at(frame_index)]
    ground_truth = [(obj.object_id, obj.box_at(frame_index)) for obj in alive]
    draws = np.empty((len(alive), dim + 5))
    kept = []
    for i in range(len(alive)):
        if rng.random() >= noise.p_miss:
            rng.standard_normal(out=draws[len(kept)])
            kept.append(i)
    m = len(kept)
    scales = np.full(dim + 5, noise.sigma_emb)
    scales[:4], scales[-1] = noise.sigma_box, noise.sigma_conf
    # numpy's normal() is loc + scale * z; with loc = 0 this is that sum exactly.
    draws = 0.0 + scales * draws[:m]
    out = np.empty((m + int(rng.poisson(noise.lambda_fp)), 6 + dim))
    out[:m, :4] = np.reshape([ground_truth[i][1].as_tlwh() for i in kept], (m, 4)) + draws[:, :4]
    out[:m, 2:4] = np.maximum(out[:m, 2:4], 1e-3)
    out[:m, 4] = np.clip(0.9 + draws[:, -1], 0.0, 1.0)
    out[:m, 6:] = np.reshape([alive[i].identity_embedding for i in kept], (m, dim)) + draws[:, 4:-1]
    for row in out[m:]:
        w = rng.uniform(16.0, 120.0)
        h = rng.uniform(16.0, 120.0)
        x = rng.uniform(0.0, max(width - w, 1.0))
        row[:4] = x, rng.uniform(0.0, max(height - h, 1.0)), w, h
        rng.standard_normal(out=row[6:])
        row[4] = rng.uniform(0.3, 1.0)
    out[:, 5] = 1.0
    out[:, 6:] = normalize(out[:, 6:])
    return out, ground_truth


def scenario_frames(scenario: ScenarioConfig, seed: int):
    """Detection source: yields (frame_index, raw_output) for the whole scenario."""
    for frame_index in range(scenario.frames):
        raw, _ = generate_frame(scenario, frame_index, seed)
        yield frame_index, raw


def scenario_ground_truth(scenario: ScenarioConfig) -> dict[int, list[tuple[int, BoundingBox]]]:
    """Exact per-frame ground truth boxes; no randomness involved."""
    truth: dict[int, list[tuple[int, BoundingBox]]] = {}
    for frame_index in range(scenario.frames):
        truth[frame_index] = [
            (obj.object_id, obj.box_at(frame_index))
            for obj in scenario.objects
            if obj.alive_at(frame_index)
        ]
    return truth


# ---------------------------------------------------------------------------
# Scenario JSON round trip
# ---------------------------------------------------------------------------

def scenario_to_json(scenario: ScenarioConfig) -> str:
    """Stable JSON encoding; identity embeddings are re-derived from the seed."""
    payload = {
        "frames": scenario.frames,
        "image_size": list(scenario.image_size),
        "embedding_dim": scenario.embedding_dim,
        "separation_margin": scenario.separation_margin,
        "identity_seed": scenario.identity_seed,
        "noise": {
            "p_miss": scenario.noise.p_miss,
            "sigma_box": scenario.noise.sigma_box,
            "sigma_emb": scenario.noise.sigma_emb,
            "sigma_conf": scenario.noise.sigma_conf,
            "lambda_fp": scenario.noise.lambda_fp,
        },
        "objects": [
            {
                "id": obj.object_id,
                "spawn": obj.spawn_frame,
                "despawn": obj.despawn_frame,
                "box": list(obj.initial_box.as_tlwh()),
                "velocity": list(obj.velocity),
            }
            for obj in scenario.objects
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def scenario_from_json(text: str) -> ScenarioConfig:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario file is not valid JSON: {exc}") from exc
    try:
        noise = NoiseParams(**payload.get("noise", {}))
        dim = int(payload["embedding_dim"])
        margin = float(payload["separation_margin"])
        seed = int(payload["identity_seed"])
        entries = payload["objects"]
        identities = identity_embeddings(len(entries), dim, margin, seed)
        objects = tuple(
            ScenarioObject(
                object_id=int(entry["id"]),
                spawn_frame=int(entry["spawn"]),
                despawn_frame=int(entry["despawn"]),
                initial_box=BoundingBox(*(float(v) for v in entry["box"])),
                velocity=(float(entry["velocity"][0]), float(entry["velocity"][1])),
                identity_embedding=identities[i],
            )
            for i, entry in enumerate(entries)
        )
        return ScenarioConfig(
            objects=objects,
            frames=int(payload["frames"]),
            image_size=(int(payload["image_size"][0]), int(payload["image_size"][1])),
            noise=noise,
            embedding_dim=dim,
            separation_margin=margin,
            identity_seed=seed,
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"scenario file is missing or corrupt: {exc!r}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    return scenario_from_json(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# MOT detection files and the embedding sidecar
# ---------------------------------------------------------------------------

def load_mot_detections(path: str | Path) -> dict[int, np.ndarray]:
    """Parse a MOT detection file into frame -> (n, 6) raw rows, embeddings absent.

    Rows are ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,...`` with
    1-indexed frames in the file and 0-indexed frames in the returned map; the
    id field is ignored and extra trailing fields are allowed. Box and
    confidence fields must be finite; confidence is clamped into [0, 1].
    """
    per_frame: dict[int, list[tuple[float, ...]]] = {}
    isfinite = math.isfinite
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise ParseError(f"line {lineno}: expected at least 7 fields, got {len(parts)}")
            try:
                frame = int(float(parts[0]))
                x, y, w, h, conf = map(float, parts[2:7])
            except (ValueError, OverflowError) as exc:  # int(inf) overflows
                raise ParseError(f"line {lineno}: non-numeric field ({exc})") from exc
            if frame < 1:
                raise ParseError(f"line {lineno}: frame index must be >= 1, got {frame}")
            if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h) and isfinite(conf)):
                raise ParseError(f"line {lineno}: non-finite box or confidence field")
            if w <= 0 or h <= 0:
                raise InvalidBoxError(f"line {lineno}: non-positive box size w={w}, h={h}")
            conf = min(max(conf, 0.0), 1.0)
            per_frame.setdefault(frame - 1, []).append((x, y, w, h, conf, 1.0))
    return {frame: np.array(rows, dtype=np.float64) for frame, rows in per_frame.items()}


SIDECAR_MAGIC = b"EMB1"
_HEADER_SIZE = 8  # magic, then the u32 embedding dimension
_U32_MAX = 2**32 - 1
_CHECK_ROWS = 256


def _sidecar_record(dim: int) -> np.dtype:
    """One sidecar record: u32 frame, u32 detection index, ``dim`` float32s."""
    return np.dtype([("frame", "<u4"), ("det", "<u4"), ("vec", "<f4", (dim,))])


def write_embedding_sidecar(
    path: str | Path, records: dict[tuple[int, int], np.ndarray], dim: int
) -> None:
    """Write the binary sidecar: magic, u32 dim, then the records in key order."""
    keys = sorted(records)
    body = np.empty(len(keys), dtype=_sidecar_record(dim))
    for i, (frame, det_index) in enumerate(keys):
        vector = np.asarray(records[(frame, det_index)], dtype=np.float32)
        if vector.shape != (dim,):
            raise DimensionError(
                f"record ({frame}, {det_index}) has shape {vector.shape}, expected ({dim},)"
            )
        body[i] = (frame, det_index, vector)
    with open(path, "wb") as handle:
        handle.write(SIDECAR_MAGIC)
        handle.write(struct.pack("<I", dim))
        body.tofile(handle)


def _key(packed: np.uint64) -> tuple[int, int]:
    return int(packed) >> 32, int(packed) & _U32_MAX


def _packed(frames, det_indices) -> np.ndarray:
    """Keys as ``frame << 32 | det_index``, which sort in (frame, det_index) order."""
    frames = np.asarray(frames, dtype=np.uint64)
    return frames << np.uint64(32) | np.asarray(det_indices, dtype=np.uint64)


def _first_rejected(vectors: np.ndarray, stop: int) -> int:
    """Index of the first of ``vectors[:stop]`` that ``normalize`` rejects, else ``stop``.

    Rows are checked a few hundred at a time, so the float64 copy stays small.
    """
    for start in range(0, stop, _CHECK_ROWS):
        chunk = vectors[start:min(start + _CHECK_ROWS, stop)].astype(np.float64)
        bad = ~np.isfinite(chunk).all(axis=1) | (row_norms(chunk)[:, 0] < MIN_EMBEDDING_NORM)
        if bad.any():
            return start + int(np.argmax(bad))
    return stop


def load_embedding_sidecar(
    path: str | Path, detections: dict[int, np.ndarray], dim: int = 512
) -> dict[int, np.ndarray]:
    """Attach sidecar embeddings to a detection map, normalizing each vector.

    The sidecar must contain exactly one record per (frame, det_index) in the
    detection map. The first record in file order that repeats a key or holds
    a vector ``normalize`` rejects decides the error; after it come a missing
    key and then an extra one, each naming its smallest key. A declared
    dimension other than ``dim`` is a dimension error.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != SIDECAR_MAGIC:
        raise ParseError(f"bad sidecar magic: {blob[:4]!r}")
    if len(blob) < _HEADER_SIZE:
        raise ParseError("sidecar truncated before the dimension field")
    declared = struct.unpack("<I", blob[4:_HEADER_SIZE])[0]
    if declared != dim:
        raise DimensionError(f"sidecar declares dim={declared}, expected {dim}")
    record = _sidecar_record(dim)
    body_size = len(blob) - _HEADER_SIZE
    if body_size % record.itemsize != 0:
        raise ParseError(f"sidecar body size {body_size} is not a multiple of {record.itemsize}")
    body = np.frombuffer(blob, dtype=record, offset=_HEADER_SIZE)
    vectors = body["vec"]

    file_keys = _packed(body["frame"], body["det"])
    order = np.argsort(file_keys, kind="stable")
    keys = file_keys[order]
    repeats = order[1:][keys[1:] == keys[:-1]]  # each later copy of a key
    first_repeat = int(repeats.min()) if repeats.size else len(body)
    first_rejected = _first_rejected(vectors, first_repeat)
    if first_rejected < first_repeat:
        normalize(vectors[first_rejected])  # raises normalize's own error for it
    if first_repeat < len(body):
        raise ConsistencyError(f"duplicate sidecar record for {_key(file_keys[first_repeat])}")

    sizes = {frame: len(rows) for frame, rows in detections.items() if len(rows)}
    # Records hold u32 frames, so the first row of any other frame is missing.
    missing = [(frame, 0) for frame in sizes if not 0 <= frame <= _U32_MAX]
    in_range = sorted(frame for frame in sizes if 0 <= frame <= _U32_MAX)
    needed = np.concatenate([_packed(f, np.arange(sizes[f])) for f in in_range] or [keys[:0]])
    absent = needed[~np.isin(needed, keys, assume_unique=True)]
    missing += [_key(absent[0])] if absent.size else []
    if missing:
        raise ConsistencyError(f"sidecar missing record for {min(missing)}")
    if len(keys) > len(needed):
        extra = keys[~np.isin(keys, needed, assume_unique=True)]
        raise ConsistencyError(f"sidecar has record {_key(extra[0])} with no matching detection")

    # Now the sorted keys are exactly the needed ones: each frame is one run.
    attached: dict[int, np.ndarray] = {}
    for frame, rows in detections.items():
        out = np.empty((rows.shape[0], 6 + dim), dtype=np.float64)
        out[:, :6] = rows
        if len(out):
            start = int(keys.searchsorted(_packed(frame, 0)))
            out[:, 6:] = normalize(vectors[order[start:start + len(out)]])
        attached[frame] = out
    return attached


def file_frames(
    detections: dict[int, np.ndarray], n_frames: int | None = None, row_width: int | None = None
):
    """Detection source over a loaded file map; missing frames yield empty output."""
    if n_frames is None:
        n_frames = max(detections) + 1 if detections else 0
    if row_width is None:
        row_width = next(iter(detections.values())).shape[1] if detections else 6
    empty = np.zeros((0, row_width), dtype=np.float64)
    for frame_index in range(n_frames):
        yield frame_index, detections.get(frame_index, empty)
