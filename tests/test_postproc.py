import numpy as np
import pytest

from trackforge.core import BoundingBox, Detection, iou, iou_matrix, normalize
from trackforge.errors import ConfigError, InvalidBoxError, LayoutError
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
        (det,) = parse_output(raw, embedding_dim=8)
        assert det.box == BoundingBox(10, 20, 30, 40)
        assert det.objectness == 0.9
        assert det.class_score == 1.0
        assert det.embedding.shape == (8,)
        assert abs(np.linalg.norm(det.embedding.astype(np.float64)) - 1.0) < 1e-6

    def test_empty_matrix(self):
        assert parse_output(np.zeros((0, 14)), embedding_dim=8) == []

    def test_wrong_width(self):
        with pytest.raises(LayoutError):
            parse_output(np.zeros((1, 13)), embedding_dim=8)

    def test_default_width_is_518(self):
        with pytest.raises(LayoutError):
            parse_output(np.zeros((1, 517)))
        raw = np.zeros((1, 518))
        raw[0, 2:4] = 5.0
        raw[0, 6] = 1.0
        (det,) = parse_output(raw)
        assert det.embedding.shape == (512,)

    def test_no_embeddings(self):
        raw = np.array([[1.0, 2.0, 3.0, 4.0, 0.5, 1.0]])
        (det,) = parse_output(raw, embedding_dim=0)
        assert det.embedding is None

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
        for a, b in zip(dets, again):
            assert a.box == b.box
            assert a.objectness == b.objectness
            assert a.class_score == b.class_score
            np.testing.assert_array_equal(a.embedding, b.embedding)


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
