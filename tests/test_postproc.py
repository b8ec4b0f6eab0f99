import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.core import BoundingBox, iou, iou_matrix, normalize, quantize_binary16
from trackforge.detgen import NoiseParams, generate_frame, make_scenario
from trackforge.errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionError,
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
        raw = np.hstack([
            rng.uniform(1, 50, (5, 4)), rng.uniform(0, 1, (5, 2)), rng.standard_normal((5, 8))
        ])
        dets = parse_output(raw, 8)
        again = parse_output(serialize_detections(dets, 8), 8)
        assert len(again) == len(dets)
        for i in range(len(dets)):
            assert BoundingBox(*dets.boxes[i]) == BoundingBox(*again.boxes[i])
            assert dets.objectness[i] == again.objectness[i]
            assert dets.class_score[i] == again.class_score[i]
            np.testing.assert_array_equal(dets.embeddings[i], again.embeddings[i])
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

        def counting(self, *args, _init=BoundingBox.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(BoundingBox, "__init__", counting)
        rng = np.random.default_rng(21)
        raw = np.stack([
            make_row(*rng.uniform(0, 300, 2), *rng.uniform(5, 40, 2), rng.uniform(), 1.0)
            for _ in range(200)
        ])
        batch = parse_output(raw, embedding_dim=8)
        keep = filter_confidence(batch.objectness, 0.5)
        kept = keep[nms(batch.boxes[keep], batch.objectness[keep], 0.4)]
        assert made == []
        assert 0 < len(kept) < 200
        BoundingBox(0.0, 0.0, 1.0, 1.0)  # the counter itself works
        assert made == ["BoundingBox"]

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


class TestFilterConfidence:
    def test_keeps_above_threshold(self):
        assert filter_confidence(np.array([0.4, 0.6]), 0.5).tolist() == [1]

    def test_zero_threshold_is_identity(self):
        assert filter_confidence(np.full(4, 0.1), 0.0).tolist() == [0, 1, 2, 3]

    def test_boundary_one(self):
        assert filter_confidence(np.array([1.0, 0.999]), 1.0).tolist() == [0]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0, 1, 20)
        previous = len(scores)
        for threshold in np.linspace(0, 1, 11):
            kept = len(filter_confidence(scores, float(threshold)))
            assert kept <= previous
            previous = kept

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            filter_confidence(np.zeros(0), 1.5)


def random_detections(rng, count, canvas=100.0):
    """A frame of ``count`` random boxes and scores, without embeddings."""
    raw = np.zeros((count, 6))
    for row in raw:
        w, h = rng.uniform(5, 30, 2)
        row[:6] = (rng.uniform(0, canvas), rng.uniform(0, canvas), w, h, rng.uniform(0, 1), 1.0)
    return parse_output(raw, embedding_dim=0)


def _boxes(*tlwh):
    return np.array(tlwh, dtype=np.float64).reshape(-1, 4)


SQUARE = (0.0, 0.0, 10.0, 10.0)


class TestNms:
    def test_single_detection(self):
        assert nms(_boxes((0.0, 0.0, 5.0, 5.0)), np.array([0.5]), 0.4).tolist() == [0]

    def test_identical_boxes_keep_higher_score(self):
        assert nms(_boxes(SQUARE, SQUARE), np.array([0.8, 0.9]), 0.4).tolist() == [1]

    def test_equal_scores_keep_lower_index(self):
        assert nms(_boxes(SQUARE, SQUARE), np.array([0.9, 0.9]), 0.4).tolist() == [0]

    def test_survivor_pairs_below_threshold(self):
        rng = np.random.default_rng(6)
        dets = random_detections(rng, 40)
        survivors = [BoundingBox(*dets.boxes[i]) for i in nms(dets.boxes, dets.objectness, 0.3)]
        for i, a in enumerate(survivors):
            for b in survivors[i + 1 :]:
                assert iou(a, b) <= 0.3

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        dets = random_detections(rng, 40)
        once = nms(dets.boxes, dets.objectness, 0.4)
        again = nms(dets.boxes[once], dets.objectness[once], 0.4)
        assert once[again].tolist() == once.tolist()

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dets = random_detections(rng, 50)
            scores = np.round(dets.objectness, 1)  # quantized scores provoke ties
            expected = nms_reference_indices(dets.boxes.tolist(), scores.tolist(), 0.4)
            assert nms(dets.boxes, scores, 0.4).tolist() == expected

    def test_scores_must_match_boxes(self):
        with pytest.raises(DimensionError):
            nms(_boxes(SQUARE, SQUARE), np.array([0.9]), 0.4)
        with pytest.raises(DimensionError):
            nms(_boxes(SQUARE), np.array([[0.9]]), 0.4)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            nms(_boxes(), np.zeros(0), 0.0)
        with pytest.raises(ConfigError):
            nms(_boxes(), np.zeros(0), 1.0)


class TestIndexContract:
    @pytest.mark.parametrize("count", [0, 1, 2, 30])
    def test_ascending_integer_indices(self, count):
        dets = random_detections(np.random.default_rng(13 + count), count, canvas=40.0)
        for keep in (
            filter_confidence(dets.objectness, 0.5),
            filter_confidence(dets.objectness, 0.0),
            nms(dets.boxes, dets.objectness, 0.3),
        ):
            assert isinstance(keep, np.ndarray)
            assert keep.ndim == 1 and keep.dtype.kind == "i"
            assert np.all(np.diff(keep) > 0)
            assert np.all((0 <= keep) & (keep < max(count, 1)))
        assert filter_confidence(dets.objectness, 0.0).tolist() == list(range(count))
        if count <= 1:
            assert nms(dets.boxes, dets.objectness, 0.3).tolist() == list(range(count))


def _oracle_kept(boxes, scores, threshold):
    return nms_reference_indices(np.asarray(boxes).tolist(), list(scores), threshold)


def _both(boxes, scores, threshold):
    """NMS and the reference on the same boxes, as two lists of kept indices."""
    return nms(boxes, np.asarray(scores), threshold).tolist(), _oracle_kept(
        boxes, scores, threshold
    )


class TestNmsEdgeCasesAgainstOracle:
    def test_empty_and_single(self):
        assert _both(_boxes(), [], 0.4) == ([], [])
        assert _both(_boxes((0.0, 0.0, 5.0, 5.0)), [0.3], 0.4) == ([0], [0])

    def test_equal_scores(self):
        rng = np.random.default_rng(11)
        dets = random_detections(rng, 30, canvas=40.0)
        ours, reference = _both(dets.boxes, [0.7] * len(dets), 0.3)
        assert ours == reference

    def test_identical_boxes(self):
        box = (3.0, 4.0, 10.0, 12.0)
        assert _both(_boxes(box, box, box, box), [0.5, 0.9, 0.9, 0.2], 0.4) == ([1], [1])

    def test_iou_exactly_at_threshold_is_kept(self):
        # Overlap 5 x 10 = 50 over union 100 + 100 - 50 = 150: IoU is 1/3 exactly
        # as computed, and only overlaps strictly above the threshold suppress.
        a, b = SQUARE, (5.0, 0.0, 10.0, 10.0)
        threshold = 50.0 / 150.0
        assert iou(BoundingBox(*a), BoundingBox(*b)) == threshold
        assert _both(_boxes(a, b), [0.9, 0.8], threshold) == ([0, 1], [0, 1])

    def test_touching_boxes_have_zero_overlap(self):
        left, right, below = SQUARE, (10.0, 0.0, 10.0, 10.0), (0.0, 10.0, 10.0, 10.0)
        boxes = _boxes(left, right, below)
        matrix = iou_matrix(boxes, boxes)
        assert matrix[0, 1] == matrix[0, 2] == iou(BoundingBox(*left), BoundingBox(*right)) == 0.0
        assert _both(boxes, [0.9, 0.8, 0.7], 0.01) == ([0, 1, 2], [0, 1, 2])

    def test_iou_matrix_equals_pairwise_iou_bit_for_bit(self):
        rng = np.random.default_rng(12)
        boxes = random_detections(rng, 40, canvas=50.0).boxes
        matrix = iou_matrix(boxes, boxes)
        objects = [BoundingBox(*box) for box in boxes]
        expected = np.array([[iou(a, b) for b in objects] for a in objects])
        np.testing.assert_array_equal(matrix, expected)
