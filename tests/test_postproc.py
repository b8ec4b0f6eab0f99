import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.core import (
    BoundingBox,
    Detection,
    DetectionBatch,
    iou,
    iou_matrix,
    normalize,
    quantize_binary16,
)
from trackforge.detgen import NoiseParams, generate_frame, make_scenario
from trackforge.errors import (
    ConfigError,
    DegenerateEmbeddingError,
    InvalidBoxError,
    LayoutError,
    TrackforgeError,
)
from trackforge.postproc import filter_confidence, nms, parse_output, serialize_detections

from oracles import nms_reference_indices


def make_row(x, y, w, h, obj, cls, dim=8):
    row = np.zeros(6 + dim)
    row[:6] = (x, y, w, h, obj, cls)
    row[6] = 1.0  # unit embedding along the first axis
    return row


class TestParseOutput:
    def test_example_row(self):
        raw = np.stack([make_row(10, 20, 30, 40, 0.9, 1.0)])
        batch = parse_output(raw, embedding_dim=8)
        assert len(batch) == 1
        assert BoundingBox(*batch.boxes[0]) == BoundingBox(10, 20, 30, 40)
        assert batch.objectness[0] == 0.9
        assert batch.class_score[0] == 1.0
        assert batch.embeddings[0].shape == (8,)
        assert abs(np.linalg.norm(batch.embeddings[0].astype(np.float64)) - 1.0) < 1e-6

    def test_empty_matrix(self):
        batch = parse_output(np.zeros((0, 14)), embedding_dim=8)
        assert len(batch) == 0
        assert batch.boxes.shape == (0, 4)
        assert batch.embeddings.shape == (0, 8)

    def test_wrong_width(self):
        with pytest.raises(LayoutError):
            parse_output(np.zeros((1, 13)), embedding_dim=8)

    def test_default_width_is_518(self):
        with pytest.raises(LayoutError):
            parse_output(np.zeros((1, 517)))
        raw = np.zeros((1, 518))
        raw[0, 2:4] = 5.0
        raw[0, 6] = 1.0
        assert parse_output(raw).embeddings.shape == (1, 512)

    def test_no_embeddings(self):
        raw = np.array([[1.0, 2.0, 3.0, 4.0, 0.5, 1.0]])
        batch = parse_output(raw, embedding_dim=0)
        assert len(batch) == 1
        assert batch.embeddings is None

    def test_invalid_box_row(self):
        with pytest.raises(InvalidBoxError):
            parse_output(np.stack([make_row(0, 0, -1, 4, 0.5, 1.0)]), embedding_dim=8)

    def test_serialize_round_trip(self):
        rng = np.random.default_rng(3)
        dets = [
            Detection(
                box=BoundingBox(*rng.uniform(1, 50, 4)),
                objectness=float(rng.uniform(0, 1)),
                class_score=float(rng.uniform(0, 1)),
                embedding=normalize(rng.standard_normal(8)),
            )
            for _ in range(5)
        ]
        again = parse_output(serialize_detections(dets, 8), 8)
        assert len(again) == len(dets)
        for i, a in enumerate(dets):
            assert a.box == BoundingBox(*again.boxes[i])
            assert a.objectness == again.objectness[i]
            assert a.class_score == again.class_score[i]
            np.testing.assert_array_equal(a.embedding, again.embeddings[i])
        np.testing.assert_array_equal(serialize_detections(again, 8), serialize_detections(dets, 8))


# Faults a row can carry: (column, value) writes; columns 0-3 are the box, 6+ the embedding.
BOX_FAULTS = {
    "nan_x": [(0, math.nan)], "inf_y": [(1, math.inf)], "zero_w": [(2, 0.0)],
    "negative_h": [(3, -2.0)], "inf_w": [(2, math.inf)],
}
EMBEDDING_FAULTS = {
    "zero": [(6 + k, 0.0) for k in range(8)], "nan": [(9, math.nan)], "inf": [(7, -math.inf)],
}


class TestColumnarParse:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, *BOX_FAULTS]), st.sampled_from([None, *EMBEDDING_FAULTS])
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_first_faulty_row_decides_the_error(self, faults):
        raw = np.stack([make_row(3.0 * i, 1.0, 4.0, 5.0, 0.9, 1.0) for i in range(len(faults))])
        expected = None
        for row, (box_fault, embedding_fault) in enumerate(faults):
            for column, value in BOX_FAULTS.get(box_fault, []) + EMBEDDING_FAULTS.get(
                embedding_fault, []
            ):
                raw[row, column] = value
            if expected is None and box_fault:
                expected = InvalidBoxError  # a bad box wins within its row
            elif expected is None and embedding_fault:
                expected = DegenerateEmbeddingError
        if expected is None:
            assert len(parse_output(raw, embedding_dim=8)) == len(faults)
            return
        with pytest.raises(TrackforgeError) as caught:
            parse_output(raw, embedding_dim=8)
        assert type(caught.value) is expected

    def test_no_per_row_objects_on_a_valid_frame(self, monkeypatch):
        made = []
        for cls in (BoundingBox, Detection):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                made.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        rng = np.random.default_rng(21)
        raw = np.stack([
            make_row(*rng.uniform(0, 300, 2), *rng.uniform(5, 40, 2), rng.uniform(), 1.0)
            for _ in range(200)
        ])
        kept = nms(filter_confidence(parse_output(raw, embedding_dim=8), 0.5), 0.4)
        assert made == []
        assert 0 < len(kept) < 200
        BoundingBox(0.0, 0.0, 1.0, 1.0)  # the counter itself works
        assert made == ["BoundingBox"]

    def test_batch_and_list_paths_keep_the_same_rows(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            dets = [
                Detection(d.box, round(d.objectness, 1), embedding=normalize(rng.standard_normal(4)))
                for d in random_detections(rng, 40, canvas=60.0)
            ]
            batch = DetectionBatch.of(dets)
            for listed, columns in (
                (filter_confidence(dets, 0.5), filter_confidence(batch, 0.5)),
                (nms(dets, 0.3), nms(batch, 0.3)),
            ):
                assert isinstance(columns, DetectionBatch)
                np.testing.assert_array_equal(columns.boxes, DetectionBatch.of(listed).boxes)
                np.testing.assert_array_equal(
                    columns.embeddings, DetectionBatch.of(listed).embeddings
                )

    def test_frame_quantization_matches_per_row(self):
        # Row-wise normalize and binary16 on the whole matrix give the same bits
        # as the per-detection path on a noisy generated stream.
        scenario = make_scenario(
            60, 8, seed=5, embedding_dim=128,
            noise=NoiseParams(p_miss=0.05, sigma_box=1.0, sigma_emb=0.05, lambda_fp=2.0),
        )
        for frame_index in range(scenario.frames):
            raw, _ = generate_frame(scenario, frame_index, seed=9)
            batch = parse_output(raw, embedding_dim=128)
            per_row = [normalize(row[6:]) for row in raw]
            np.testing.assert_array_equal(batch.embeddings, np.stack(per_row))
            np.testing.assert_array_equal(
                normalize(quantize_binary16(batch.embeddings)),
                np.stack([normalize(quantize_binary16(e)) for e in per_row]),
            )


def _det(score, box=None, index=0):
    return Detection(
        box=box or BoundingBox(10.0 * index, 0.0, 5.0, 5.0),
        objectness=score,
        embedding=None,
    )


class TestFilterConfidence:
    def test_keeps_above_threshold(self):
        dets = [_det(0.4, index=0), _det(0.6, index=1)]
        assert filter_confidence(dets, 0.5) == [dets[1]]

    def test_zero_threshold_is_identity(self):
        dets = [_det(0.1, index=i) for i in range(4)]
        assert filter_confidence(dets, 0.0) == dets

    def test_boundary_one(self):
        dets = [_det(1.0, index=0), _det(0.999, index=1)]
        assert filter_confidence(dets, 1.0) == [dets[0]]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        dets = [_det(float(rng.uniform(0, 1)), index=i) for i in range(20)]
        previous = len(dets)
        for threshold in np.linspace(0, 1, 11):
            kept = len(filter_confidence(dets, float(threshold)))
            assert kept <= previous
            previous = kept

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            filter_confidence([], 1.5)


def random_detections(rng, count, canvas=100.0):
    dets = []
    for _ in range(count):
        w, h = rng.uniform(5, 30, 2)
        box = BoundingBox(rng.uniform(0, canvas), rng.uniform(0, canvas), w, h)
        dets.append(Detection(box=box, objectness=float(rng.uniform(0, 1)), embedding=None))
    return dets


class TestNms:
    def test_single_detection(self):
        dets = [_det(0.5)]
        assert nms(dets, 0.4) == dets

    def test_identical_boxes_keep_higher_score(self):
        box = BoundingBox(0, 0, 10, 10)
        low, high = _det(0.8, box), _det(0.9, box)
        assert nms([low, high], 0.4) == [high]

    def test_equal_scores_keep_lower_index(self):
        box = BoundingBox(0, 0, 10, 10)
        first, second = _det(0.9, box), _det(0.9, box)
        assert nms([first, second], 0.4) == [first]

    def test_survivor_pairs_below_threshold(self):
        rng = np.random.default_rng(6)
        survivors = nms(random_detections(rng, 40), 0.3)
        for i, a in enumerate(survivors):
            for b in survivors[i + 1 :]:
                assert iou(a.box, b.box) <= 0.3

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        dets = random_detections(rng, 40)
        once = nms(dets, 0.4)
        assert nms(once, 0.4) == once

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dets = random_detections(rng, 50)
            # quantized scores provoke ties
            dets = [
                Detection(box=d.box, objectness=round(d.objectness, 1), embedding=None)
                for d in dets
            ]
            expected = nms_reference_indices(
                [d.box.as_tlwh() for d in dets], [d.objectness for d in dets], 0.4
            )
            assert nms(dets, 0.4) == [dets[i] for i in expected]

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            nms([], 0.0)
        with pytest.raises(ConfigError):
            nms([], 1.0)


def _oracle_kept(dets, threshold):
    expected = nms_reference_indices(
        [d.box.as_tlwh() for d in dets], [d.objectness for d in dets], threshold
    )
    return [dets[i] for i in expected]


class TestNmsEdgeCasesAgainstOracle:
    def test_empty_and_single(self):
        assert nms([], 0.4) == _oracle_kept([], 0.4) == []
        one = [_det(0.3)]
        assert nms(one, 0.4) == _oracle_kept(one, 0.4) == one

    def test_equal_scores(self):
        rng = np.random.default_rng(11)
        dets = [
            Detection(box=d.box, objectness=0.7, embedding=None)
            for d in random_detections(rng, 30, canvas=40.0)
        ]
        assert nms(dets, 0.3) == _oracle_kept(dets, 0.3)

    def test_identical_boxes(self):
        box = BoundingBox(3.0, 4.0, 10.0, 12.0)
        dets = [_det(score, box) for score in (0.5, 0.9, 0.9, 0.2)]
        assert nms(dets, 0.4) == _oracle_kept(dets, 0.4) == [dets[1]]

    def test_iou_exactly_at_threshold_is_kept(self):
        # Overlap 5 x 10 = 50 over union 100 + 100 - 50 = 150: IoU is 1/3 exactly
        # as computed, and only overlaps strictly above the threshold suppress.
        a = _det(0.9, BoundingBox(0.0, 0.0, 10.0, 10.0))
        b = _det(0.8, BoundingBox(5.0, 0.0, 10.0, 10.0))
        threshold = 50.0 / 150.0
        assert iou(a.box, b.box) == threshold
        assert nms([a, b], threshold) == _oracle_kept([a, b], threshold) == [a, b]

    def test_touching_boxes_have_zero_overlap(self):
        left = _det(0.9, BoundingBox(0.0, 0.0, 10.0, 10.0))
        right = _det(0.8, BoundingBox(10.0, 0.0, 10.0, 10.0))
        below = _det(0.7, BoundingBox(0.0, 10.0, 10.0, 10.0))
        dets = [left, right, below]
        boxes = np.array([d.box.as_tlwh() for d in dets])
        matrix = iou_matrix(boxes, boxes)
        assert matrix[0, 1] == matrix[0, 2] == iou(left.box, right.box) == 0.0
        assert nms(dets, 0.01) == _oracle_kept(dets, 0.01) == dets

    def test_iou_matrix_equals_pairwise_iou_bit_for_bit(self):
        rng = np.random.default_rng(12)
        dets = random_detections(rng, 40, canvas=50.0)
        boxes = np.array([d.box.as_tlwh() for d in dets])
        matrix = iou_matrix(boxes, boxes)
        expected = np.array([[iou(a.box, b.box) for b in dets] for a in dets])
        np.testing.assert_array_equal(matrix, expected)
