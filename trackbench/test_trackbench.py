"""Tiny passes of every workload through every check, in seconds.

    python3 -m pytest -q trackbench
"""

import json
from dataclasses import replace

import pytest

import checks
import layers
import run
import spans
from trackforge import moteval
from trackforge.core import BoundingBox
from trackforge.pipeline import PipelineConfig

TINY_PIPELINE = replace(
    PipelineConfig(), t_fixed_ms=0.1, t_image_ms=0.2, t_post_fixed_ms=0.05,
    t_post_per_detection_ms=0.005,
)


SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def one_evaluate_per_sample(monkeypatch):
    monkeypatch.setattr(run, "EVAL_SAMPLE_S", 0.0)


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], objects=6, embedding_dim=32, rate_fps=200.0,
                   pipeline=TINY_PIPELINE, repeats=2)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload_passes_every_check(name, traced, tmp_path):
    w = tiny(name)
    result = run.bench(w, seed=3, seconds=0.3, traced=traced, workdir=tmp_path,
                       trace_path=tmp_path / "trace.json" if traced else None)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == w.frames(0.3) * (2 if traced else 4)
    assert result["absent"] == []
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if traced:
        assert (tmp_path / "trace.json").stat().st_size > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_renamed_target_drops_its_metrics(monkeypatch, tmp_path):
    monkeypatch.setitem(layers.SPANS, "postproc.nms", "trackforge.tracker:nms_renamed_away")
    result = run.bench(tiny("sparse-20"), seed=4, seconds=0.2, traced=True, workdir=tmp_path)
    assert result["absent"] == ["trackforge.tracker:nms_renamed_away"]
    assert "postproc.nms_ms" not in result["metrics"]
    assert "postproc.nms_keep_ratio" not in result["metrics"]
    assert "postproc.parse_ms" in result["metrics"] and result["correct"]


def test_recorder_restores_wrapped_names():
    import trackforge.tracker as tracker_module

    original = tracker_module.nms
    rec = spans.Recorder()
    assert rec.span("trackforge.tracker:nms", "nms")
    assert tracker_module.nms is not original
    rec.close()
    assert tracker_module.nms is original


def box(x):
    return BoundingBox(float(x), 0.0, 10.0, 10.0)


def test_independent_count_matches_evaluate_on_an_id_switch():
    truth = {f: [(1, box(0)), (2, box(50))] for f in range(4)}
    hyp = {f: [(7, box(0)), (8, box(50))] for f in range(2)}
    hyp.update({f: [(9, box(1)), (8, box(51))] for f in range(2, 4)})
    hyp[3].append((5, box(200)))
    mine = checks.independent_scores(truth, hyp)
    assert (mine.tp, mine.fp, mine.fn, mine.id_switches) == (8, 1, 0, 1)
    assert checks.agrees_with_program(mine, moteval.evaluate(truth, hyp)) == []
