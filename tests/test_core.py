import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.core import (
    BoundingBox,
    DetectionBatch,
    box_to_measurement,
    cosine_distance,
    iou,
    iou_matrix,
    measurement_to_box,
    measurements_to_boxes,
    normalize,
    quantize_binary16,
    row_norms,
)
from trackforge.errors import (
    DegenerateEmbeddingError,
    DimensionError,
    InvalidBoxError,
    PrecisionOverflowError,
)

from oracles import quantize_binary16_reference

coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
sizes = st.floats(1e-2, 1e3, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, coords, coords, sizes, sizes)


class TestBoundingBox:
    def test_valid_box(self):
        box = BoundingBox(1.0, 2.0, 3.0, 4.0)
        assert box.right == 4.0
        assert box.bottom == 6.0
        assert box.area == 12.0

    @pytest.mark.parametrize("w,h", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_non_positive_size_rejected(self, w, h):
        with pytest.raises(InvalidBoxError):
            BoundingBox(0.0, 0.0, w, h)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidBoxError):
            BoundingBox(bad, 0.0, 1.0, 1.0)


class TestIou:
    def test_identical_boxes(self):
        box = BoundingBox(3.0, 4.0, 5.0, 6.0)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 1, 1)) == 0.0

    def test_partial_overlap(self):
        # intersection 1x1 = 1, union 4 + 4 - 1 = 7
        value = iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 2, 2))
        assert value == pytest.approx(1.0 / 7.0, abs=1e-12)

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        ab = iou(a, b)
        assert 0.0 <= ab <= 1.0
        assert ab == pytest.approx(iou(b, a), abs=1e-12)


class TestIouMatrix:
    @pytest.mark.parametrize("shape", [(2, 6), (8,), (2, 2, 4), (3, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DimensionError, match=r"\(n, 4\)"):
            iou_matrix(np.ones(shape), np.ones((2, 4)))
        with pytest.raises(DimensionError, match=r"\(n, 4\)"):
            iou_matrix(np.ones((2, 4)), np.ones(shape))

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 4)), np.zeros((0,)), np.zeros((0, 6))])
    def test_empty_side_is_zero_boxes(self, empty):
        boxes = np.array([[0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0], [9.0, 9.0, 1.0, 1.0]])
        assert iou_matrix(empty, boxes).shape == (0, 3)
        assert iou_matrix(boxes, empty).shape == (3, 0)
        assert iou_matrix(empty, empty).shape == (0, 0)


class TestMeasurementConversion:
    def test_unit_aspect(self):
        np.testing.assert_allclose(
            box_to_measurement(BoundingBox(0, 0, 2, 2).as_tlwh()), [1, 1, 1, 2]
        )

    def test_hand_case(self):
        np.testing.assert_allclose(
            box_to_measurement(BoundingBox(10, 20, 4, 8).as_tlwh()), [12, 24, 0.5, 8]
        )

    @given(boxes)
    def test_round_trip(self, box):
        back = measurement_to_box(box_to_measurement(box.as_tlwh()))
        for a, b in zip(back.as_tlwh(), box.as_tlwh()):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    @given(st.lists(boxes, min_size=1, max_size=8))
    def test_stacked_boxes_match_one_at_a_time(self, stack):
        tlwh = np.array([box.as_tlwh() for box in stack])
        measured = box_to_measurement(tlwh)
        assert measured.shape == (len(stack), 4)
        for row, box in zip(measured, stack):
            np.testing.assert_array_equal(row, box_to_measurement(box.as_tlwh()))
        np.testing.assert_array_equal(box_to_measurement(tlwh[None]), measured[None])

    def test_bad_measurement_rejected(self):
        with pytest.raises(InvalidBoxError):
            measurement_to_box(np.array([0.0, 0.0, 1.0, 0.0]))
        with pytest.raises(InvalidBoxError):
            measurement_to_box(np.array([0.0, 0.0, -1.0, 2.0]))

    @given(
        st.sampled_from([(), (1,), (7,), (3, 5), (2, 1, 4)]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_separate_column_formula(self, lead, seed):
        rng = np.random.default_rng(seed)
        tlwh = rng.uniform(-1e3, 1e3, lead + (4,))
        tlwh[..., 2:] = rng.uniform(1e-3, 1e3, lead + (2,))
        x, y, w, h = np.moveaxis(tlwh, -1, 0)
        expected = np.stack([x + w / 2.0, y + h / 2.0, w / h, h], axis=-1)
        measured = box_to_measurement(tlwh)
        assert measured.shape == expected.shape
        np.testing.assert_array_equal(measured, expected)

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (4, 0)])
    def test_wrong_last_axis_rejected(self, shape):
        with pytest.raises(DimensionError):
            box_to_measurement(np.ones(shape))
        with pytest.raises(DimensionError):
            measurements_to_boxes(np.ones(shape))

    @given(st.lists(boxes, max_size=8))
    def test_stacked_boxes_equal_one_row_formula(self, stack):
        measured = box_to_measurement(np.array([box.as_tlwh() for box in stack]).reshape(-1, 4))
        converted = measurements_to_boxes(measured)
        assert len(converted) == len(stack)
        for row, box in zip(measured, converted):
            cx, cy, aspect, h = (float(v) for v in row)
            w = aspect * h
            assert box == BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)
            assert box == measurement_to_box(row)

    def test_stack_rejects_any_bad_row(self):
        good = box_to_measurement(np.array([[0.0, 0.0, 4.0, 8.0]]))
        for bad in ([0.0, 0.0, 1.0, 0.0], [0.0, 0.0, -1.0, 2.0]):
            with pytest.raises(InvalidBoxError):
                measurements_to_boxes(np.vstack([good, bad, good]))
        with pytest.raises(InvalidBoxError):
            measurements_to_boxes(np.array([[np.inf, 0.0, 1.0, 2.0]]))


def _unit(values):
    return normalize(np.array(values, dtype=np.float64))


class TestCosineDistance:
    def test_identical(self):
        e = _unit([3, 4, 0, 1])
        assert cosine_distance(e, e) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal(self):
        assert cosine_distance(_unit([1, 0, 0]), _unit([0, 1, 0])) == pytest.approx(1.0, abs=1e-6)

    def test_antipodal(self):
        e = _unit([0.2, -0.7, 0.4])
        assert cosine_distance(e, -e) == pytest.approx(2.0, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_distance(np.ones(4), np.ones(5))

    @given(st.lists(coords, min_size=3, max_size=16), st.lists(coords, min_size=3, max_size=16))
    def test_bounds(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        if np.linalg.norm(va) < 1e-6 or np.linalg.norm(vb) < 1e-6:
            return
        value = cosine_distance(normalize(va), normalize(vb))
        assert 0.0 <= value <= 2.0


class TestNormalize:
    def test_three_four_zero(self):
        out = normalize(np.array([3.0, 4.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.6, 0.8, 0.0, 0.0], atol=1e-7)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        e = normalize(rng.standard_normal(64))
        np.testing.assert_allclose(normalize(e), e, atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            normalize(np.zeros(8))

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            normalize(np.array([1.0, np.nan]))

    @given(st.lists(coords, min_size=2, max_size=32))
    def test_unit_norm(self, values):
        v = np.array(values)
        if np.linalg.norm(v) < 1e-6:
            return
        assert abs(np.linalg.norm(normalize(v).astype(np.float64)) - 1.0) < 1e-6

    @settings(deadline=None)
    @given(
        st.integers(1, 600), st.integers(1, 12), st.integers(-40, 37), st.integers(0, 2**32 - 1)
    )
    def test_rows_match_one_vector_at_a_time(self, dim, n, exponent, seed):
        """Each row's norm is one dot product, as np.linalg.norm takes a vector's."""
        rng = np.random.default_rng(seed)
        rows = (rng.standard_normal((n, dim)) * 10.0**exponent).astype(np.float32)
        wide = rows.astype(np.float64)
        norms = row_norms(wide)
        assert norms.shape == (n, 1)
        assert norms.tobytes() == np.array([np.linalg.norm(v) for v in wide]).tobytes()
        if np.any(norms < 1e-12) or not np.all(np.isfinite(norms)):
            return
        stacked = normalize(rows)
        for row, out in zip(rows, stacked):
            expected = (row.astype(np.float64) / np.linalg.norm(row.astype(np.float64)))
            assert normalize(row).tobytes() == expected.astype(np.float32).tobytes()
            assert out.tobytes() == normalize(row).tobytes()

    def test_strided_vector_matches_contiguous_copy(self):
        rows = np.random.default_rng(3).standard_normal((300, 7))
        column = rows[:, 2]
        assert normalize(column).tobytes() == normalize(column.copy()).tobytes()
        assert row_norms(rows.T)[2, 0] == np.linalg.norm(column)

    def test_degenerate_row_named_by_smallest_norm(self):
        rows = np.ones((3, 4))
        rows[1] = 1e-14
        rows[2] = 1e-13
        with pytest.raises(DegenerateEmbeddingError) as stacked:
            normalize(rows)
        with pytest.raises(DegenerateEmbeddingError) as single:
            normalize(rows[1])
        assert str(stacked.value) == str(single.value)


half_range = st.floats(-65504.0, 65504.0, allow_nan=False, allow_infinity=False)


class TestQuantizeBinary16:
    def test_exactly_representable(self):
        out = quantize_binary16(np.array([1.0, 0.5, 2.0, -4.0]))
        np.testing.assert_array_equal(out, np.array([1.0, 0.5, 2.0, -4.0], dtype=np.float32))

    def test_tenth_rounds(self):
        out = quantize_binary16(np.array([0.1], dtype=np.float32))
        assert float(out[0]) == 0.0999755859375

    def test_overflow_rejected(self):
        with pytest.raises(PrecisionOverflowError):
            quantize_binary16(np.array([70000.0]))
        with pytest.raises(PrecisionOverflowError):
            quantize_binary16(np.array([np.inf]))

    def test_range_edge_accepted(self):
        out = quantize_binary16(np.array([65504.0, -65504.0]))
        np.testing.assert_array_equal(out, np.array([65504.0, -65504.0], dtype=np.float32))

    @given(st.lists(half_range, min_size=1, max_size=16))
    def test_idempotent(self, values):
        once = quantize_binary16(np.array(values, dtype=np.float32))
        np.testing.assert_array_equal(quantize_binary16(once), once)

    @given(half_range, half_range)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        out = quantize_binary16(np.array([lo, hi], dtype=np.float32))
        assert out[0] <= out[1]

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_bit_arithmetic_reference(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [
                rng.uniform(-2.0, 2.0, 16),
                rng.uniform(-60000.0, 60000.0, 8),
                rng.uniform(-1e-5, 1e-5, 8),  # subnormal binary16 territory
            ]
        ).astype(np.float32)
        ours = quantize_binary16(values)
        for raw, got in zip(values, ours):
            assert float(got) == quantize_binary16_reference(float(raw))


class TestDetectionBatch:
    def test_take_indices_and_mask(self):
        i = np.arange(5.0)
        batch = DetectionBatch(
            boxes=np.stack([i, 2.0 * i, np.full(5, 3.0), 4.0 + i], axis=1),
            objectness=0.1 * i,
            class_score=np.full(5, 0.5),
            embeddings=np.stack([_unit([1, k, 0]) for k in range(5)]),
        )
        picked = batch.take([3, 1])
        np.testing.assert_array_equal(picked.objectness, batch.objectness[[3, 1]])
        np.testing.assert_array_equal(picked.embeddings, batch.embeddings[[3, 1]])
        masked = batch.take(batch.objectness >= 0.2)
        np.testing.assert_array_equal(masked.boxes, batch.boxes[2:])
        assert len(batch.take([])) == 0
