import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge import detgen
from trackforge.core import BoundingBox, cosine_distance, normalize
from trackforge.detgen import (
    NoiseParams,
    ScenarioConfig,
    ScenarioObject,
    file_frames,
    generate_frame,
    identity_embeddings,
    load_embedding_sidecar,
    load_mot_detections,
    make_scenario,
    scenario_from_json,
    scenario_ground_truth,
    scenario_to_json,
    write_embedding_sidecar,
)
from trackforge.errors import (
    ConfigError,
    ConsistencyError,
    DegenerateEmbeddingError,
    DimensionError,
    InvalidBoxError,
    ParseError,
)
from trackforge.pipeline import PipelineConfig, Precision
from oracles import generate_frame_reference

DIM = 16
LIGHT = dict(p_miss=0.03, sigma_box=1.0, sigma_emb=0.02, sigma_conf=0.02)


def write_raw_sidecar(path, records, dim):
    """A sidecar built with struct, record by record, in the order given."""
    body = b"".join(
        struct.pack("<II", frame, det) + np.asarray(vector, dtype="<f4").tobytes()
        for (frame, det), vector in records
    )
    path.write_bytes(b"EMB1" + struct.pack("<I", dim) + body)


def raised(call, *args):
    """The (class, message) of the error ``call(*args)`` raises."""
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


def single_object_scenario(noise=None, frames=20):
    obj = ScenarioObject(
        object_id=1,
        spawn_frame=0,
        despawn_frame=frames,
        initial_box=BoundingBox(100.0, 50.0, 30.0, 40.0),
        velocity=(10.0, 0.0),
        identity_embedding=normalize(np.ones(DIM)),
    )
    return ScenarioConfig(
        objects=(obj,), frames=frames, noise=noise or NoiseParams(), embedding_dim=DIM
    )


class TestGenerateFrame:
    def test_linear_motion(self):
        raw, gt = generate_frame(single_object_scenario(), frame_index=5, seed=0)
        assert raw.shape == (1, 6 + DIM)
        assert raw[0, 0] == 150.0
        assert gt == [(1, BoundingBox(150.0, 50.0, 30.0, 40.0))]

    def test_p_miss_one_gives_ground_truth_only(self):
        scenario = single_object_scenario(noise=NoiseParams(p_miss=1.0))
        raw, gt = generate_frame(scenario, 3, seed=0)
        assert raw.shape == (0, 6 + DIM)
        assert len(gt) == 1

    def test_deterministic(self):
        scenario = make_scenario(
            5, 10, seed=3, embedding_dim=DIM,
            noise=NoiseParams(p_miss=0.2, sigma_box=1.0, sigma_emb=0.05, lambda_fp=1.0),
        )
        a, gt_a = generate_frame(scenario, 7, seed=9)
        b, gt_b = generate_frame(scenario, 7, seed=9)
        assert a.tobytes() == b.tobytes()
        assert gt_a == gt_b

    def test_noiseless_detections_equal_ground_truth(self):
        scenario = make_scenario(6, 15, seed=1, embedding_dim=DIM)
        for frame_index in range(scenario.frames):
            raw, gt = generate_frame(scenario, frame_index, seed=4)
            assert raw.shape[0] == len(gt)
            for row, (_, box) in zip(raw, gt):
                assert tuple(row[:4]) == box.as_tlwh()
                assert row[4] == 0.9

    def test_despawned_objects_absent(self):
        obj = ScenarioObject(
            object_id=1,
            spawn_frame=2,
            despawn_frame=5,
            initial_box=BoundingBox(0, 0, 10, 10),
            velocity=(0.0, 0.0),
            identity_embedding=normalize(np.ones(DIM)),
        )
        scenario = ScenarioConfig(objects=(obj,), frames=8, embedding_dim=DIM)
        for frame_index, expected in [(0, 0), (1, 0), (2, 1), (4, 1), (5, 0), (7, 0)]:
            raw, gt = generate_frame(scenario, frame_index, seed=0)
            assert raw.shape[0] == expected
            assert len(gt) == expected

    def test_negative_frame_rejected(self):
        with pytest.raises(ConfigError):
            generate_frame(single_object_scenario(), -1, seed=0)

    def test_empty_scenario(self):
        scenario = ScenarioConfig(objects=(), frames=3, embedding_dim=DIM)
        raw, gt = generate_frame(scenario, 0, seed=0)
        assert raw.shape == (0, 6 + DIM)
        assert gt == []

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        count=st.integers(0, 30),
        dim=st.integers(1, 64),
        layout=st.sampled_from(["lanes", "random"]),
        p_miss=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        sigma_box=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
        sigma_emb=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
        sigma_conf=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
        lambda_fp=st.floats(0.0, 3.0),
        frame_index=st.integers(0, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_scalar_draw_reference(
        self, data, count, dim, layout, p_miss, sigma_box, sigma_emb, sigma_conf, lambda_fp,
        frame_index, seed,
    ):
        """Byte for byte, with frames before spawn and after despawn."""
        noise = NoiseParams(p_miss, sigma_box, sigma_emb, sigma_conf, lambda_fp)
        base = make_scenario(count, 30, seed, noise=noise, embedding_dim=dim,
                             separation_margin=0.0, layout=layout)
        lives = data.draw(st.lists(st.tuples(st.integers(0, 10), st.integers(1, 10)),
                                   min_size=count, max_size=count))
        objects = tuple(
            dataclasses.replace(obj, spawn_frame=spawn, despawn_frame=spawn + life)
            for obj, (spawn, life) in zip(base.objects, lives)
        )
        scenario = dataclasses.replace(base, objects=objects)
        raw, gt = generate_frame(scenario, frame_index, seed)
        expected, expected_gt = generate_frame_reference(scenario, frame_index, seed)
        assert raw.dtype == np.float64 and raw.shape == expected.shape
        assert raw.tobytes() == expected.tobytes()
        assert [(i, box.as_tlwh()) for i, box in gt] == expected_gt

    def test_normalize_called_at_most_once(self, monkeypatch):
        scenario = make_scenario(6, 4, seed=2, embedding_dim=DIM,
                                 noise=NoiseParams(sigma_emb=0.1, lambda_fp=3.0))
        calls = []

        def counting(values):
            calls.append(np.shape(values))
            return normalize(values)

        monkeypatch.setattr(detgen, "normalize", counting)
        for frame_index in range(scenario.frames):
            calls.clear()
            raw, _ = generate_frame(scenario, frame_index, seed=1)
            assert len(raw) > 6
            assert len(calls) <= 1

    # sha256 of every frame's raw bytes in turn. Changing the generator's
    # draws or arithmetic changes every synthetic scenario and file, so a
    # digest may only change together with an entry in CHANGES.md.
    PINNED = [
        (20, 12, 41, "lanes", 512, NoiseParams(**LIGHT),
         "9d2250f692f87583dcf0059ba0b475dabd53f0201da024bc65163fca80b56a54"),
        (100, 4, 43, "lanes", 512, NoiseParams(**LIGHT, lambda_fp=2.0),
         "230e72fed851658ee9fabda0c0e85b57667408adaa9ea4ae0c868deeef1daac0"),
        (8, 30, 5, "random", 16,
         NoiseParams(p_miss=0.5, sigma_box=2.0, sigma_emb=0.1, sigma_conf=0.1, lambda_fp=0.5),
         "4444cb05e85c5dfafd71928837a9a403bab09eecbd83af73878d2eec9efdee7e"),
    ]

    @pytest.mark.parametrize(
        "count, frames, seed, layout, dim, noise, expected", PINNED,
        ids=["lanes-20-dim512", "lanes-100-dim512-fp2", "random-8-dim16-miss"],
    )
    def test_stream_pinned(self, count, frames, seed, layout, dim, noise, expected):
        scenario = make_scenario(count, frames, seed, noise=noise, embedding_dim=dim,
                                 layout=layout)
        digest = hashlib.sha256()
        for frame_index in range(frames):
            digest.update(generate_frame(scenario, frame_index, seed)[0].tobytes())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("shape", [(DIM + 1,), (DIM - 1,), (1, DIM), ()])
    def test_identity_shape_mismatch_rejected(self, shape):
        obj = dataclasses.replace(
            single_object_scenario().objects[0], identity_embedding=np.ones(shape)
        )
        with pytest.raises(DimensionError):
            ScenarioConfig(objects=(obj,), frames=3, embedding_dim=DIM)


class TestNoiseParams:
    @pytest.mark.parametrize(
        "name", ["p_miss", "sigma_box", "sigma_emb", "sigma_conf", "lambda_fp"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_rejected(self, name, value):
        with pytest.raises(ConfigError):
            NoiseParams(**{name: value})

    def test_nan_in_scenario_file_rejected(self):
        payload = json.loads(scenario_to_json(make_scenario(2, 3, seed=0, embedding_dim=DIM)))
        payload["noise"]["sigma_box"] = math.nan
        text = json.dumps(payload)
        assert '"sigma_box": NaN' in text
        with pytest.raises(ConfigError):
            scenario_from_json(text)

    # Checked without calling generate_frame: a value just under numpy's
    # Poisson limit would ask for that many rows.
    @pytest.mark.parametrize("value", [1000.5, 1e6, 1e20, 1e300])
    def test_huge_lambda_fp_rejected(self, value):
        with pytest.raises(ConfigError, match="lambda_fp"):
            NoiseParams(lambda_fp=value)

    def test_lambda_fp_ceiling_accepted(self):
        assert NoiseParams(lambda_fp=1000.0).lambda_fp == 1000.0

    def test_huge_lambda_fp_in_scenario_file_rejected(self):
        payload = json.loads(scenario_to_json(make_scenario(2, 3, seed=0, embedding_dim=DIM)))
        payload["noise"]["lambda_fp"] = 1e20
        with pytest.raises(ConfigError, match="lambda_fp"):
            scenario_from_json(json.dumps(payload))


class TestLatencyModel:
    """The emulated inference price, ``PipelineConfig.infer_ms``."""

    def test_full_precision_batch_one(self):
        config = PipelineConfig(t_fixed_ms=8.0, t_image_ms=34.0)
        assert config.infer_ms(Precision.FULL, 1) == pytest.approx(42.0)

    def test_mixed_precision_batch_one(self):
        config = PipelineConfig(t_fixed_ms=8.0, t_image_ms=34.0, kappa_mixed=0.786)
        assert config.infer_ms(Precision.MIXED, 1) == pytest.approx(34.724)

    def test_mixed_precision_batch_four(self):
        value = PipelineConfig(8.0, 34.0, 0.786).infer_ms(Precision.MIXED, 4)
        assert value == pytest.approx(114.896)
        assert value / 4 == pytest.approx(28.724)

    def test_strictly_increasing_in_batch(self):
        config = PipelineConfig()
        for precision in Precision:
            values = [config.infer_ms(precision, b) for b in range(1, 11)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_kappa(self):
        values = [
            PipelineConfig(kappa_mixed=k).infer_ms(Precision.MIXED, 4)
            for k in (1.0, 0.9, 0.786, 0.5)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_invalid_batch(self):
        with pytest.raises(ConfigError):
            PipelineConfig().infer_ms(Precision.FULL, 0)

    @pytest.mark.parametrize("kwargs", [
        {"t_fixed_ms": 0.0}, {"t_image_ms": -1.0}, {"kappa_mixed": 0.0}, {"kappa_mixed": 1.5},
        {"t_fixed_ms": math.nan}, {"t_post_fixed_ms": math.nan},
        {"t_post_per_detection_ms": math.inf}, {"t_fixed_ms": 1e300},
        {"t_post_fixed_ms": 1e12}, {"kappa_mixed": math.nan}, {"t_image_ms": 60_000.5},
        {"t_post_fixed_ms": -1e-9}, {"t_image_ms": "34"}, {"t_fixed_ms": True},
        {"t_post_per_detection_ms": 10**400},
        {"q1_capacity": 2.5}, {"warmup_frames": math.nan},
    ])
    def test_invalid_model(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            PipelineConfig(**kwargs)

    def test_range_ends_accepted(self):
        tiny = math.ulp(0.0)
        config = PipelineConfig(t_fixed_ms=tiny, t_image_ms=60_000.0, kappa_mixed=1.0,
                                t_post_fixed_ms=0.0, t_post_per_detection_ms=60_000.0)
        assert config.infer_ms(Precision.MIXED, 1) == config.infer_ms(Precision.FULL, 1)


class TestIdentityEmbeddings:
    def test_margin_holds(self):
        vectors = identity_embeddings(10, 64, margin=0.5, seed=2)
        for i, a in enumerate(vectors):
            for b in vectors[i + 1 :]:
                assert cosine_distance(a, b) >= 0.5

    def test_deterministic(self):
        a = identity_embeddings(4, 32, 0.5, seed=5)
        b = identity_embeddings(4, 32, 0.5, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_impossible_margin_rejected(self):
        # No three unit vectors are pairwise farther apart than cosine distance 1.5.
        with pytest.raises(ConfigError):
            identity_embeddings(3, 4, margin=1.99, seed=0)


class TestScenarioJson:
    def test_round_trip(self):
        scenario = make_scenario(
            4, 25, seed=9, embedding_dim=DIM,
            noise=NoiseParams(p_miss=0.1, sigma_box=0.5, sigma_emb=0.02, lambda_fp=0.3),
        )
        text = scenario_to_json(scenario)
        again = scenario_from_json(text)
        assert scenario_to_json(again) == text
        assert again.frames == scenario.frames
        assert again.noise == scenario.noise
        for a, b in zip(scenario.objects, again.objects):
            assert a.initial_box == b.initial_box
            assert a.velocity == b.velocity
            np.testing.assert_array_equal(a.identity_embedding, b.identity_embedding)

    def test_bad_json_rejected(self):
        with pytest.raises(ParseError):
            scenario_from_json("{not json")
        with pytest.raises(ParseError):
            scenario_from_json("{}")

    def test_lanes_layout_never_overlaps(self):
        scenario = make_scenario(8, 50, seed=13, embedding_dim=DIM, layout="lanes")
        from trackforge.core import iou

        truth = scenario_ground_truth(scenario)
        for boxes in truth.values():
            for i, (_, a) in enumerate(boxes):
                for _, b in boxes[i + 1 :]:
                    assert iou(a, b) == 0.0

    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            make_scenario(2, 10, seed=0, layout="spiral")


class TestMotDetectionFile(object):
    def test_example_row(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,30,40,0.9\n")
        frames = load_mot_detections(path)
        assert list(frames) == [0]
        np.testing.assert_allclose(frames[0], [[10, 20, 30, 40, 0.9, 1.0]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("")
        assert load_mot_detections(path) == {}

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,30,40,0.9\n1,-1,10,20,30\n")
        with pytest.raises(ParseError, match="line 2"):
            load_mot_detections(path)

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,-5,40,0.9\n")
        with pytest.raises(InvalidBoxError, match="line 1"):
            load_mot_detections(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,ten,20,30,40,0.9\n")
        with pytest.raises(ParseError, match="line 1"):
            load_mot_detections(path)

    def test_overflowing_frame_names_line(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,30,40,0.9\ninf,-1,10,20,30,40,0.9\n")
        with pytest.raises(ParseError, match="line 2"):
            load_mot_detections(path)

    @pytest.mark.parametrize(
        "row",
        [
            "2,-1,10,20,30,40,nan",  # a NaN confidence would survive the clamp
            "2,-1,inf,20,30,40,0.9",
            "2,-1,10,-inf,30,40,0.9",
            "2,-1,10,20,nan,40,0.9",
            "2,-1,10,20,30,1e400,0.9",
        ],
    )
    def test_non_finite_field_names_line(self, tmp_path, row):
        path = tmp_path / "det.txt"
        path.write_text(f"1,-1,10,20,30,40,0.9\n{row}\n")
        with pytest.raises(ParseError, match="line 2"):
            load_mot_detections(path)

    def test_confidence_clamped(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,30,40,1.7\n2,-1,10,20,30,40,-0.5\n")
        frames = load_mot_detections(path)
        assert frames[0][0, 4] == 1.0
        assert frames[1][0, 4] == 0.0


class TestEmbeddingSidecar:
    def _detections(self):
        return {
            0: np.array([[10.0, 20.0, 30.0, 40.0, 0.9, 1.0]]),
            2: np.array(
                [[1.0, 2.0, 3.0, 4.0, 0.8, 1.0], [5.0, 6.0, 7.0, 8.0, 0.7, 1.0]]
            ),
        }

    def _records(self, rng):
        return {
            (0, 0): rng.standard_normal(DIM).astype(np.float32),
            (2, 0): rng.standard_normal(DIM).astype(np.float32),
            (2, 1): rng.standard_normal(DIM).astype(np.float32),
        }

    def test_round_trip_attaches_normalized(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "det.emb"
        records = self._records(rng)
        write_embedding_sidecar(path, records, DIM)
        attached = load_embedding_sidecar(path, self._detections(), DIM)
        assert attached[0].shape == (1, 6 + DIM)
        assert attached[2].shape == (2, 6 + DIM)
        np.testing.assert_array_equal(attached[2][1, :6], self._detections()[2][1])
        expected = normalize(records[(2, 1)])
        np.testing.assert_allclose(attached[2][1, 6:], expected, atol=1e-7)

    def test_declared_dimension_mismatch(self, tmp_path):
        path = tmp_path / "det.emb"
        write_embedding_sidecar(path, {(0, 0): np.ones(8, dtype=np.float32)}, 8)
        with pytest.raises(DimensionError):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_missing_record_names_first_key(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "det.emb"
        records = self._records(rng)
        del records[(2, 0)]
        write_embedding_sidecar(path, records, DIM)
        with pytest.raises(ConsistencyError, match=r"\(2, 0\)"):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_extra_record_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "det.emb"
        records = self._records(rng)
        records[(9, 0)] = rng.standard_normal(DIM).astype(np.float32)
        write_embedding_sidecar(path, records, DIM)
        with pytest.raises(ConsistencyError, match=r"\(9, 0\)"):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_zero_vector_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "det.emb"
        records = self._records(rng)
        records[(0, 0)] = np.zeros(DIM, dtype=np.float32)
        write_embedding_sidecar(path, records, DIM)
        with pytest.raises(DegenerateEmbeddingError):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "det.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_embedding_sidecar(path, self._detections(), DIM)

    def _raw_records(self, rng):
        return [(key, vector) for key, vector in self._records(rng).items()]

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "det.emb"
        records = self._raw_records(np.random.default_rng(4))
        write_raw_sidecar(path, records + [records[1]], DIM)
        with pytest.raises(ConsistencyError, match=r"^duplicate sidecar record for \(2, 0\)$"):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_duplicate_zero_vector_reported_as_duplicate(self, tmp_path):
        path = tmp_path / "det.emb"
        records = self._raw_records(np.random.default_rng(5))
        write_raw_sidecar(path, records + [((0, 0), np.zeros(DIM))], DIM)
        with pytest.raises(ConsistencyError, match=r"^duplicate sidecar record for \(0, 0\)$"):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_zero_vector_before_later_duplicate_wins(self, tmp_path):
        path = tmp_path / "det.emb"
        (a, _), b, c = self._raw_records(np.random.default_rng(6))
        write_raw_sidecar(path, [b, (a, np.zeros(DIM)), c, b], DIM)
        assert raised(load_embedding_sidecar, path, self._detections(), DIM) == raised(
            normalize, np.zeros(DIM, dtype=np.float32)
        )

    def test_duplicate_before_later_zero_vector_wins(self, tmp_path):
        path = tmp_path / "det.emb"
        (a, _), b, c = self._raw_records(np.random.default_rng(7))
        write_raw_sidecar(path, [b, c, b, (a, np.zeros(DIM))], DIM)
        with pytest.raises(ConsistencyError, match=r"^duplicate sidecar record for \(2, 0\)$"):
            load_embedding_sidecar(path, self._detections(), DIM)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-14])
    def test_rejected_vector_keeps_normalize_message(self, tmp_path, bad):
        path = tmp_path / "det.emb"
        records = self._raw_records(np.random.default_rng(8))
        vector = np.full(DIM, 1e-14, dtype=np.float32)
        vector[3] = bad
        records[2] = (records[2][0], vector)
        write_raw_sidecar(path, records, DIM)
        assert raised(load_embedding_sidecar, path, self._detections(), DIM) == raised(
            normalize, vector
        )

    def test_rejected_vector_before_missing_record_wins(self, tmp_path):
        path = tmp_path / "det.emb"
        records = self._raw_records(np.random.default_rng(9))
        write_raw_sidecar(path, [records[0], (records[2][0], np.zeros(DIM))], DIM)
        with pytest.raises(DegenerateEmbeddingError):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_body_not_a_multiple_of_record_size(self, tmp_path):
        path = tmp_path / "det.emb"
        write_raw_sidecar(path, self._raw_records(np.random.default_rng(10)), DIM)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match=r"^sidecar body size 217 is not a multiple of 72$"):
            load_embedding_sidecar(path, self._detections(), DIM)

    @pytest.mark.parametrize("blob", [b"EMB1", b"EMB1\x10\x00\x00"])
    def test_header_shorter_than_eight_bytes(self, tmp_path, blob):
        path = tmp_path / "det.emb"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match="^sidecar truncated before the dimension field$"):
            load_embedding_sidecar(path, self._detections(), DIM)

    def test_missing_and_extra_name_smallest_key(self, tmp_path):
        path = tmp_path / "det.emb"
        rng = np.random.default_rng(11)
        records = self._records(rng)
        del records[(2, 1)], records[(0, 0)]
        records[(7, 3)] = records[(5, 0)] = rng.standard_normal(DIM)
        write_embedding_sidecar(path, records, DIM)
        with pytest.raises(ConsistencyError, match=r"^sidecar missing record for \(0, 0\)$"):
            load_embedding_sidecar(path, self._detections(), DIM)
        detections = self._detections()
        detections[2] = detections[2][:1]
        del detections[0]
        with pytest.raises(
            ConsistencyError, match=r"^sidecar has record \(5, 0\) with no matching detection$"
        ):
            load_embedding_sidecar(path, detections, DIM)

    def test_frames_keep_detection_order_and_empty_frames(self, tmp_path):
        path = tmp_path / "det.emb"
        detections = {5: np.ones((1, 6)), 1: np.zeros((0, 6)), 0: np.full((2, 6), 2.0)}
        vectors = np.random.default_rng(12).standard_normal((3, DIM))
        records = {(5, 0): vectors[0], (0, 0): vectors[1], (0, 1): vectors[2]}
        write_embedding_sidecar(path, records, DIM)
        attached = load_embedding_sidecar(path, detections, DIM)
        assert list(attached) == [5, 1, 0]
        assert attached[1].shape == (0, 6 + DIM)
        assert attached[0].dtype == np.float64 and attached[0].flags.c_contiguous
        np.testing.assert_array_equal(attached[0][1, 6:], normalize(vectors[2].astype(np.float32)))

    def test_normalize_called_at_most_once_per_frame(self, tmp_path, monkeypatch):
        path = tmp_path / "det.emb"
        rng = np.random.default_rng(13)
        detections = {frame: np.ones((5, 6)) for frame in range(3)}
        write_embedding_sidecar(
            path, {(f, d): rng.standard_normal(DIM) for f in range(3) for d in range(5)}, DIM
        )
        calls = []

        def counting(values):
            calls.append(np.shape(values))
            return normalize(values)

        monkeypatch.setattr(detgen, "normalize", counting)
        load_embedding_sidecar(path, detections, DIM)
        assert len(calls) <= len(detections)

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3, 16, 129, 512]),
        counts=st.lists(st.integers(0, 6), min_size=1, max_size=6),
        low=st.integers(-46, 30),
        span=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_normalize_byte_for_byte(
        self, tmp_path_factory, dim, counts, low, span, seed
    ):
        """Random float32 vectors at tiny to huge scales, records in shuffled order."""
        rng = np.random.default_rng(seed)
        detections = {frame: np.ones((n, 6)) * frame for frame, n in enumerate(counts)}
        keys = [(frame, det) for frame, n in enumerate(counts) for det in range(n)]
        scales = 10.0 ** rng.integers(low, low + span + 1, size=(len(keys), 1))
        with np.errstate(over="ignore"):  # the largest scales overflow to inf on purpose
            vectors = (rng.standard_normal((len(keys), dim)) * scales).astype(np.float32)
        order = rng.permutation(len(keys))
        path = tmp_path_factory.mktemp("sidecar") / "det.emb"
        write_raw_sidecar(path, [(keys[i], vectors[i]) for i in order], dim)
        first_bad = None
        for i in order:
            try:
                normalize(vectors[i])
            except DegenerateEmbeddingError:
                first_bad = vectors[i]
                break
        if first_bad is not None:
            assert raised(load_embedding_sidecar, path, detections, dim) == raised(
                normalize, first_bad
            )
            return
        attached = load_embedding_sidecar(path, detections, dim)
        assert list(attached) == list(detections)
        for i, (frame, det) in enumerate(keys):
            row = attached[frame][det]
            assert row[:6].tobytes() == detections[frame][det].tobytes()
            assert row[6:].tobytes() == normalize(vectors[i]).astype(np.float64).tobytes()

    def test_writer_layout(self, tmp_path):
        path = tmp_path / "det.emb"
        records = {(3, 1): np.arange(4.0), (0, 2): -np.ones(4, dtype=np.float32)}
        write_embedding_sidecar(path, records, 4)
        expected = b"EMB1" + struct.pack("<I", 4)
        for key in [(0, 2), (3, 1)]:
            expected += struct.pack("<II", *key) + np.asarray(records[key], "<f4").tobytes()
        assert path.read_bytes() == expected

    def test_writer_names_first_wrong_shape_in_key_order(self, tmp_path):
        records = {
            (2, 0): np.ones(5),
            (0, 3): np.ones(4),
            (1, 7): np.ones((2, 2)),
            (1, 2): np.ones(3),
        }
        with pytest.raises(
            DimensionError, match=r"^record \(1, 2\) has shape \(3,\), expected \(4,\)$"
        ):
            write_embedding_sidecar(tmp_path / "det.emb", records, 4)


class TestFileFrames:
    def test_gaps_become_empty_frames(self):
        frames = dict(
            file_frames({1: np.ones((2, 6)), 3: np.ones((1, 6))}, n_frames=5)
        )
        assert sorted(frames) == [0, 1, 2, 3, 4]
        assert frames[0].shape == (0, 6)
        assert frames[1].shape == (2, 6)
        assert frames[4].shape == (0, 6)

    def test_empty_map(self):
        assert list(file_frames({}, n_frames=0)) == []
