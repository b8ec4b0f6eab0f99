import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from trackforge import moteval
from trackforge.assoc import hungarian_solve
from trackforge.core import BoundingBox, iou
from trackforge.detgen import make_scenario, scenario_ground_truth
from trackforge.errors import DuplicateIdError, ParseError, UndefinedMetricError
from trackforge.moteval import (
    accumulate,
    clear_mot,
    evaluate,
    id_metrics,
    load_mot_tracks,
    match_frame,
)

from oracles import coverage_reference, max_coverage_brute_force


def box(x=0.0, y=0.0, w=10.0, h=10.0):
    return BoundingBox(x, y, w, h)


def frames_with_one_object(n=10, hyp_id_by_frame=None, missing=()):
    """1 gt object over n frames; hypothesis id may change or be missing per frame."""
    gt = {f: [(1, box(x=2.0 * f))] for f in range(n)}
    hyp = {}
    for f in range(n):
        if f in missing:
            hyp[f] = []
        else:
            hid = hyp_id_by_frame(f) if hyp_id_by_frame else 1
            hyp[f] = [(hid, box(x=2.0 * f))]
    return gt, hyp


class TestMatchFrame:
    def test_identical_boxes_all_matched(self):
        gt = [(1, box()), (2, box(x=50))]
        hyp = [(7, box()), (8, box(x=50))]
        corr = match_frame(gt, hyp, prev={})
        assert sorted((g, h) for g, h, _ in corr.matches) == [(1, 7), (2, 8)]
        assert corr.unmatched_gt == () and corr.unmatched_hyp == ()

    def test_empty_hypothesis_all_missed(self):
        corr = match_frame([(1, box()), (2, box(x=50))], [], prev={})
        assert corr.matches == ()
        assert corr.unmatched_gt == (1, 2)

    def test_previous_pair_kept_over_closer_newcomer(self):
        # gt 1 was matched to hyp 7; hyp 9 now overlaps perfectly but 7 still clears
        # the threshold, so the existing correspondence is preserved.
        gt = [(1, box())]
        hyp = [(7, box(x=3.0)), (9, box())]
        corr = match_frame(gt, hyp, prev={1: 7})
        assert [(g, h) for g, h, _ in corr.matches] == [(1, 7)]
        assert corr.unmatched_hyp == (9,)

    def test_below_threshold_pairs_forbidden(self):
        corr = match_frame([(1, box())], [(5, box(x=9.0))], prev={}, iou_min=0.5)
        assert corr.matches == ()
        assert corr.unmatched_gt == (1,)
        assert corr.unmatched_hyp == (5,)

    def test_pair_at_threshold_matched(self):
        # IoU of a 20x10 box and the 10x10 box in its left half is exactly 0.5.
        corr = match_frame([(1, box(w=20.0))], [(5, box())], prev={}, iou_min=0.5)
        assert corr.matches == ((1, 5, 0.5),)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            match_frame([(1, box()), (1, box(x=50))], [], prev={})
        with pytest.raises(DuplicateIdError):
            match_frame([], [(2, box()), (2, box(x=50))], prev={})


class TestClearMot:
    def test_perfect_tracking(self):
        gt, hyp = frames_with_one_object(10)
        summary = clear_mot(accumulate(gt, hyp))
        assert summary.mota == 1.0
        assert summary.motp == 0.0
        assert summary.fp == 0 and summary.fn == 0 and summary.id_switches == 0
        assert summary.mostly_tracked == 1 and summary.fragmentations == 0

    def test_two_missed_frames(self):
        gt, hyp = frames_with_one_object(10, missing={4, 7})
        summary = clear_mot(accumulate(gt, hyp))
        assert summary.fn == 2
        assert summary.mota == pytest.approx(0.8)
        assert summary.recall == pytest.approx(0.8)
        assert summary.fragmentations == 2  # two separate interruptions

    def test_single_gap_single_fragmentation(self):
        gt, hyp = frames_with_one_object(10, missing={4, 5})
        summary = clear_mot(accumulate(gt, hyp))
        assert summary.fn == 2
        assert summary.fragmentations == 1

    def test_identity_switch_at_frame_six(self):
        gt, hyp = frames_with_one_object(10, hyp_id_by_frame=lambda f: 1 if f < 5 else 2)
        summary = clear_mot(accumulate(gt, hyp))
        assert summary.id_switches == 1
        assert summary.mota == pytest.approx(0.9)

    def test_false_positives_counted(self):
        gt, hyp = frames_with_one_object(10)
        hyp[3] = hyp[3] + [(99, box(x=500.0))]
        summary = clear_mot(accumulate(gt, hyp))
        assert summary.fp == 1
        assert summary.mota == pytest.approx(0.9)
        assert summary.precision == pytest.approx(10 / 11)

    def test_mt_pt_ml_buckets(self):
        gt = {f: [(1, box()), (2, box(x=50)), (3, box(x=100))] for f in range(10)}
        hyp = {}
        for f in range(10):
            entries = []
            if f < 9:
                entries.append((11, box()))  # object 1: 9/10 -> MT
            if f < 5:
                entries.append((12, box(x=50)))  # object 2: 5/10 -> PT
            if f < 2:
                entries.append((13, box(x=100)))  # object 3: 2/10 -> ML
            hyp[f] = entries
        summary = clear_mot(accumulate(gt, hyp))
        assert summary.mostly_tracked == 1
        assert summary.partially_tracked == 1
        assert summary.mostly_lost == 1

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(UndefinedMetricError):
            clear_mot(accumulate({}, {0: [(1, box())]}))


class TestIdMetrics:
    def test_perfect(self):
        gt, hyp = frames_with_one_object(10)
        assert id_metrics(gt, hyp) == (1.0, 1.0, 1.0)

    def test_switch_scenario_halves_idf1(self):
        gt, hyp = frames_with_one_object(10, hyp_id_by_frame=lambda f: 1 if f < 5 else 2)
        idf1, idp, idr = id_metrics(gt, hyp)
        assert idf1 == pytest.approx(0.5)
        assert idp == pytest.approx(0.5)
        assert idr == pytest.approx(0.5)

    def test_empty_hypothesis(self):
        gt, _ = frames_with_one_object(10)
        idf1, idp, idr = id_metrics(gt, {})
        assert idf1 == 0.0 and idp == 0.0 and idr == 0.0

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(UndefinedMetricError):
            id_metrics({}, {0: [(1, box())]})

    def test_matching_equals_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_gt, n_hyp, n_frames = rng.integers(1, 6), rng.integers(0, 6), 12
            gt, hyp = {}, {}
            for f in range(n_frames):
                gt[f] = [
                    (g + 1, box(x=100.0 * g)) for g in range(n_gt) if rng.random() < 0.8
                ]
                hyp[f] = [
                    (h + 1, box(x=100.0 * (h % n_gt if n_gt else h)))
                    for h in range(n_hyp)
                    if rng.random() < 0.8
                ]
            idf1, _, _ = id_metrics(gt, hyp)
            coverage = coverage_reference(gt, hyp)
            total_gt = sum(len(v) for v in gt.values())
            total_hyp = sum(len(v) for v in hyp.values())
            expected = 2.0 * max_coverage_brute_force(coverage) / (total_gt + total_hyp)
            assert idf1 == pytest.approx(expected, abs=1e-12)

    @settings(deadline=None)
    @given(data=st.data())
    def test_equals_matching_on_reference_coverage(self, data):
        gt = data.draw(_streams(ids=range(1, 6)))
        hyp = data.draw(_streams(ids=range(3, 9)))
        total_gt = sum(len(v) for v in gt.values())
        total_hyp = sum(len(v) for v in hyp.values())
        if total_gt == 0:
            with pytest.raises(UndefinedMetricError):
                id_metrics(gt, hyp)
            return
        coverage = coverage_reference(gt, hyp)
        rows, cols = linear_sum_assignment(coverage, maximize=True)
        idtp = float(coverage[rows, cols].sum())
        assert id_metrics(gt, hyp) == (
            2.0 * idtp / (total_gt + total_hyp),
            idtp / total_hyp if total_hyp else 0.0,
            idtp / total_gt,
        )

    def test_duplicate_ids_rejected(self):
        gt, hyp = frames_with_one_object(5)
        twice = [(1, box()), (1, box(x=50))]
        with pytest.raises(DuplicateIdError):
            id_metrics({**gt, 2: twice}, hyp)
        with pytest.raises(DuplicateIdError):
            id_metrics(gt, {**hyp, 2: twice})
        with pytest.raises(DuplicateIdError):  # a frame the gt side does not have
            id_metrics(gt, {**hyp, 9: twice})

    def test_harmonic_mean_identity(self):
        gt, hyp = frames_with_one_object(10, hyp_id_by_frame=lambda f: 1 if f < 7 else 3)
        hyp[2] = []
        idf1, idp, idr = id_metrics(gt, hyp)
        assert idf1 == pytest.approx(2 * idp * idr / (idp + idr), abs=1e-12)


# Corners and sizes on a 5-pixel grid: pairs overlap partly, exactly at IoU
# 0.5 (a 20x10 box and a 10x10 half of it), touch edges (IoU 0) or are apart.
_grid_boxes = st.builds(
    BoundingBox,
    x=st.sampled_from([0.0, 5.0, 10.0, 20.0]),
    y=st.sampled_from([0.0, 10.0]),
    w=st.sampled_from([10.0, 20.0]),
    h=st.just(10.0),
)


def _streams(ids):
    """Frame maps over frames 0-5: any frame may be absent or empty."""
    frame = st.dictionaries(st.sampled_from(list(ids)), _grid_boxes, max_size=4).map(
        lambda boxes: list(boxes.items())
    )
    return st.dictionaries(st.integers(0, 5), frame, max_size=6)


def _match_frame_pairwise(gt, hyp, prev, iou_min=0.5):
    """match_frame's protocol with one ``iou`` call per pair: the per-pair reference."""
    matches, hyp_boxes = [], dict(hyp)
    for gt_id, gt_box in gt:
        hyp_id = prev.get(gt_id)
        if hyp_id in hyp_boxes and hyp_id not in {h for _, h, _ in matches}:
            overlap = iou(gt_box, hyp_boxes[hyp_id])
            if overlap >= iou_min:
                matches.append((gt_id, hyp_id, overlap))
    free_gt = [(i, b) for i, b in gt if i not in {g for g, _, _ in matches}]
    free_hyp = [(i, b) for i, b in hyp if i not in {h for _, h, _ in matches}]
    if free_gt and free_hyp:
        cost = np.array([[1.0 - iou(g, h) if iou(g, h) >= iou_min else np.inf
                          for _, h in free_hyp] for _, g in free_gt])
        for r, c, value in hungarian_solve(cost).matches:
            matches.append((free_gt[r][0], free_hyp[c][0], 1.0 - value))
    return tuple(matches)


class TestMatchFrameFromOneMatrix:
    @settings(max_examples=150, deadline=None)
    @given(_streams(range(1, 5)), _streams(range(11, 15)))
    def test_accumulate_equals_pairwise_reference(self, gt, hyp):
        # evaluate() hands both matchings the same per-frame IoU matrices.
        shared = moteval._frame_overlaps(gt, hyp)
        assert accumulate(gt, hyp, 0.5, shared) == accumulate(gt, hyp)
        if any(gt.values()):
            assert id_metrics(gt, hyp, 0.5, shared) == id_metrics(gt, hyp)
        prev: dict[int, int] = {}
        for corr in accumulate(gt, hyp):
            expected = _match_frame_pairwise(
                gt.get(corr.frame_index, []), hyp.get(corr.frame_index, []), prev
            )
            assert corr.matches == expected  # ==, so every overlap is bit for bit
            for gt_id, hyp_id, _ in corr.matches:
                prev[gt_id] = hyp_id

    def test_carried_over_overlap_is_exact(self):
        gt = [(1, box(x=0.1, w=10.3))]
        hyp = [(7, box(x=3.7, w=9.9))]
        corr = match_frame(gt, hyp, prev={1: 7}, iou_min=0.1)
        assert corr.matches == ((1, 7, iou(gt[0][1], hyp[0][1])),)

    def test_evaluate_makes_no_iou_calls(self, monkeypatch):
        gt, hyp = frames_with_one_object(10, hyp_id_by_frame=lambda f: 1 if f < 5 else 2)

        def forbidden(a, b):
            raise AssertionError("match_frame called iou")

        monkeypatch.setattr(moteval, "iou", forbidden)
        assert evaluate(gt, hyp).id_switches == 1


class TestEvaluate:
    def test_full_row_for_switch_scenario(self):
        gt, hyp = frames_with_one_object(10, hyp_id_by_frame=lambda f: 1 if f < 5 else 2)
        report = evaluate(gt, hyp)
        assert report.idf1 == pytest.approx(0.5)
        assert report.mota == pytest.approx(0.9)
        assert report.id_switches == 1
        assert report.row()[:3] == (report.idf1, report.idp, report.idr)
        assert len(report.row()) == len(report.COLUMNS) == 14

    def test_empty_hypothesis_reports_zero_recall(self):
        gt, _ = frames_with_one_object(5)
        report = evaluate(gt, {})
        assert report.recall == 0.0
        assert report.mota == 0.0
        assert report.fn == 5

    def test_iou_calls_bounded_by_gt_boxes(self, monkeypatch):
        # Pairwise overlaps come from one IoU matrix per frame; only the
        # carried-over (gt, hyp) pairs of match_frame are checked one at a time.
        gt = scenario_ground_truth(make_scenario(40, 30, seed=3, embedding_dim=8, layout="random"))
        hyp = {
            f: [(obj_id + 100, BoundingBox(b.x + 1.0, b.y, b.w, b.h)) for obj_id, b in entries]
            for f, entries in gt.items()
        }
        calls = []
        real_iou = moteval.iou

        def counted(a, b):
            calls.append(1)
            return real_iou(a, b)

        monkeypatch.setattr(moteval, "iou", counted)
        report = evaluate(gt, hyp)
        assert report.idf1 == 1.0
        assert len(calls) <= sum(len(entries) for entries in gt.values())


class TestLoadMotTracks:
    @pytest.mark.parametrize("row", ["inf,1,0,0,10,10,1", "2,1e400,0,0,10,10,1"])
    def test_overflowing_field_names_line(self, tmp_path, row):
        path = tmp_path / "res.txt"
        path.write_text(f"1,1,0,0,10,10,1\n{row}\n")
        with pytest.raises(ParseError, match="line 2"):
            load_mot_tracks(path)
