import json

import numpy as np
import pytest
from click.testing import CliRunner

from trackforge import detgen, moteval
from trackforge.cli import main, write_mot_results
from trackforge.core import BoundingBox
from trackforge.tracker import TrackerOutput

DIM = 16

FAST_CONFIG = {
    "pipeline": {
        "t_fixed_ms": 0.2,
        "t_image_ms": 0.4,
        "t_post_fixed_ms": 0.1,
        "t_post_per_detection_ms": 0.01,
        "warmup_frames": 3,
    }
}


@pytest.fixture
def runner():
    return CliRunner()


def synth_args(tmp_path, objects=4, frames=20, seed=3, extra=()):
    return [
        "synth",
        "--objects", str(objects),
        "--frames", str(frames),
        "--seed", str(seed),
        "--embedding-dim", str(DIM),
        "--out-scenario", str(tmp_path / "scen.json"),
        "--out-gt", str(tmp_path / "gt.txt"),
        *extra,
    ]


def write_fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    return path


class TestSynth:
    def test_reproducible_byte_identical(self, runner, tmp_path):
        assert runner.invoke(main, synth_args(tmp_path)).exit_code == 0
        first_scen = (tmp_path / "scen.json").read_bytes()
        first_gt = (tmp_path / "gt.txt").read_bytes()
        assert runner.invoke(main, synth_args(tmp_path)).exit_code == 0
        assert (tmp_path / "scen.json").read_bytes() == first_scen
        assert (tmp_path / "gt.txt").read_bytes() == first_gt

    def test_zero_objects_is_valid(self, runner, tmp_path):
        result = runner.invoke(main, synth_args(tmp_path, objects=0))
        assert result.exit_code == 0
        assert (tmp_path / "gt.txt").read_text() == ""
        scenario = detgen.load_scenario(tmp_path / "scen.json")
        assert scenario.objects == ()

    def test_invalid_layout_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, synth_args(tmp_path, extra=["--layout", "spiral"]))
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--sigma-box", "nan"), ("--lambda-fp", "inf"), ("--lambda-fp", "1e20")]
    )
    def test_non_finite_noise_exits_two(self, runner, tmp_path, flag, value):
        result = runner.invoke(main, synth_args(tmp_path, extra=[flag, value]))
        assert result.exit_code == 2
        assert not (tmp_path / "scen.json").exists()

    def test_p_miss_one_keeps_gt_nonempty(self, runner, tmp_path):
        result = runner.invoke(main, synth_args(tmp_path, extra=["--p-miss", "1.0"]))
        assert result.exit_code == 0
        assert (tmp_path / "gt.txt").read_text() != ""
        scenario = detgen.load_scenario(tmp_path / "scen.json")
        raw, gt = detgen.generate_frame(scenario, 0, seed=0)
        assert raw.shape[0] == 0 and len(gt) == 4


class TestTrack:
    def test_scenario_run_writes_result_and_report(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path))
        config = write_fast_config(tmp_path)
        result = runner.invoke(main, [
            "track",
            "--scenario", str(tmp_path / "scen.json"),
            "--mode", "parallel",
            "--batch-size", "4",
            "--config", str(config),
            "--out", str(tmp_path / "res.txt"),
            "--report", str(tmp_path / "report.csv"),
        ])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "mode,precision,batch_size,frames,seconds,fps,max_q1,max_q2"
        assert lines[1].startswith("parallel,full,4,")
        hyp = moteval.load_mot_tracks(tmp_path / "res.txt")
        assert len(hyp) == 20

    def test_result_scores_perfectly_against_gt(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path))
        config = write_fast_config(tmp_path)
        runner.invoke(main, [
            "track", "--scenario", str(tmp_path / "scen.json"),
            "--mode", "serial", "--config", str(config),
            "--out", str(tmp_path / "res.txt"),
        ])
        report = moteval.evaluate(
            moteval.load_mot_tracks(tmp_path / "gt.txt"),
            moteval.load_mot_tracks(tmp_path / "res.txt"),
        )
        assert report.mota == 1.0
        assert report.idf1 == 1.0

    def test_unknown_mode_exits_two(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path))
        result = runner.invoke(main, [
            "track", "--scenario", str(tmp_path / "scen.json"),
            "--mode", "warp", "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 2
        assert "unknown mode" in result.output

    def test_missing_source_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["track", "--out", str(tmp_path / "res.txt")])
        assert result.exit_code == 2

    def test_detections_without_embeddings_exits_two(self, runner, tmp_path):
        det_file = tmp_path / "det.txt"
        det_file.write_text("1,-1,10,20,30,40,0.9\n")
        result = runner.invoke(main, [
            "track", "--detections", str(det_file), "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 2
        assert "--embeddings" in result.output

    def test_non_finite_detection_field_exits_two(self, runner, tmp_path):
        det_file = tmp_path / "det.txt"
        det_file.write_text("1,-1,10,20,30,40,0.9\n1,-1,10,20,30,40,nan\n")
        detgen.write_embedding_sidecar(
            tmp_path / "det.emb", {(0, 0): np.ones(DIM), (0, 1): np.ones(DIM)}, DIM
        )
        result = runner.invoke(main, [
            "track", "--detections", str(det_file), "--embeddings", str(tmp_path / "det.emb"),
            "--embedding-dim", str(DIM), "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 2, result.output
        assert "line 2" in result.output

    def test_file_driven_run_matches_scenario_ids(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=12))
        scenario = detgen.load_scenario(tmp_path / "scen.json")
        det_lines = []
        sidecar: dict[tuple[int, int], np.ndarray] = {}
        for frame_index, raw in detgen.scenario_frames(scenario, seed=0):
            for det_index, row in enumerate(raw):
                x, y, w, h, conf = (float(v) for v in row[:5])
                det_lines.append(f"{frame_index + 1},-1,{x!r},{y!r},{w!r},{h!r},{conf!r}")
                sidecar[(frame_index, det_index)] = row[6:].astype(np.float32)
        (tmp_path / "det.txt").write_text("\n".join(det_lines) + "\n")
        detgen.write_embedding_sidecar(tmp_path / "det.emb", sidecar, DIM)
        config = write_fast_config(tmp_path)
        result = runner.invoke(main, [
            "track",
            "--detections", str(tmp_path / "det.txt"),
            "--embeddings", str(tmp_path / "det.emb"),
            "--embedding-dim", str(DIM),
            "--config", str(config),
            "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 0, result.output
        report = moteval.evaluate(
            moteval.load_mot_tracks(tmp_path / "gt.txt"),
            moteval.load_mot_tracks(tmp_path / "res.txt"),
        )
        assert report.id_switches == 0
        assert report.mota == 1.0


class TestEval:
    def test_gt_against_itself_is_perfect(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path))
        result = runner.invoke(main, [
            "eval", "--gt", str(tmp_path / "gt.txt"), "--result", str(tmp_path / "gt.txt"),
            "--out", str(tmp_path / "row.csv"),
        ])
        assert result.exit_code == 0, result.output
        assert "100.0%" in result.output
        header, row = (tmp_path / "row.csv").read_text().strip().splitlines()
        assert header.split(",") == list(moteval.MetricsReport.COLUMNS)
        values = row.split(",")
        assert float(values[0]) == 1.0  # IDF1
        assert float(values[12]) == 1.0  # MOTA

    def test_switch_micro_scenario_files(self, runner, tmp_path):
        gt_path, res_path = tmp_path / "gt.txt", tmp_path / "res.txt"
        gt_rows, res_rows = [], []
        for frame in range(1, 11):
            gt_rows.append(f"{frame},1,{2.0 * frame},0,10,10,1,-1,-1,-1")
            hyp_id = 1 if frame <= 5 else 2
            res_rows.append(f"{frame},{hyp_id},{2.0 * frame},0,10,10,1,-1,-1,-1")
        gt_path.write_text("\n".join(gt_rows) + "\n")
        res_path.write_text("\n".join(res_rows) + "\n")
        result = runner.invoke(main, [
            "eval", "--gt", str(gt_path), "--result", str(res_path),
            "--out", str(tmp_path / "row.csv"),
        ])
        assert result.exit_code == 0, result.output
        values = (tmp_path / "row.csv").read_text().strip().splitlines()[1].split(",")
        assert float(values[0]) == pytest.approx(0.5)  # IDF1
        assert float(values[12]) == pytest.approx(0.9)  # MOTA
        assert int(values[10]) == 1  # IDs

    def test_empty_result_reports_zero_recall(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path))
        (tmp_path / "empty.txt").write_text("")
        result = runner.invoke(main, [
            "eval", "--gt", str(tmp_path / "gt.txt"), "--result", str(tmp_path / "empty.txt"),
        ])
        assert result.exit_code == 0, result.output
        assert "0.0%" in result.output

    def test_frame_range_mismatch_warns(self, runner, tmp_path):
        gt_path, res_path = tmp_path / "gt.txt", tmp_path / "res.txt"
        gt_path.write_text(
            "\n".join(f"{f},1,0,0,10,10,1,-1,-1,-1" for f in range(1, 11)) + "\n"
        )
        res_path.write_text(
            "\n".join(f"{f},1,0,0,10,10,1,-1,-1,-1" for f in range(1, 6)) + "\n"
        )
        result = runner.invoke(main, [
            "eval", "--gt", str(gt_path), "--result", str(res_path),
        ])
        assert result.exit_code == 0
        assert "warning" in result.output
        assert "100.0%" in result.output  # perfect over the intersection


    def test_overflowing_frame_exits_two(self, runner, tmp_path):
        gt_path, res_path = tmp_path / "gt.txt", tmp_path / "res.txt"
        gt_path.write_text("1,1,0,0,10,10,1,-1,-1,-1\n")
        res_path.write_text("1,1,0,0,10,10,1,-1,-1,-1\ninf,1,0,0,10,10,1,-1,-1,-1\n")
        result = runner.invoke(main, ["eval", "--gt", str(gt_path), "--result", str(res_path)])
        assert result.exit_code == 2, result.output
        assert "line 2" in result.output


class TestBench:
    def test_grid_sweep_writes_csv(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=15))
        config = write_fast_config(tmp_path)
        result = runner.invoke(main, [
            "bench", "--scenario", str(tmp_path / "scen.json"),
            "--modes", "batched,parallel", "--precisions", "full",
            "--batch-sizes", "1,3", "--config", str(config),
            "--out", str(tmp_path / "bench.csv"),
        ])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            float(fields[5])  # fps parses

    def test_four_variants_markdown(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=15))
        config = write_fast_config(tmp_path)
        result = runner.invoke(main, [
            "bench", "--scenario", str(tmp_path / "scen.json"),
            "--four-variants", "--batch-size", "3",
            "--config", str(config),
            "--out", str(tmp_path / "bench.csv"),
            "--markdown", str(tmp_path / "table.md"),
        ])
        assert result.exit_code == 0, result.output
        table = (tmp_path / "table.md").read_text()
        assert "| OP | MP | MP+BW | MP+BW+PP |" in table
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_empty_batch_list_exits_two(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=10))
        result = runner.invoke(main, [
            "bench", "--scenario", str(tmp_path / "scen.json"),
            "--batch-sizes", " , ", "--out", str(tmp_path / "bench.csv"),
        ])
        assert result.exit_code == 2

    def test_range_syntax(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=10))
        config = write_fast_config(tmp_path)
        result = runner.invoke(main, [
            "bench", "--scenario", str(tmp_path / "scen.json"),
            "--modes", "batched", "--precisions", "mixed",
            "--batch-sizes", "1-3", "--config", str(config),
            "--out", str(tmp_path / "bench.csv"),
        ])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3


class TestConfigFile:
    def test_unknown_section_exits_two(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=5))
        bad = tmp_path / "bad.json"
        for section in ("tracknig", "noise"):
            bad.write_text(f'{{"{section}": {{}}}}')
            result = runner.invoke(main, [
                "track", "--scenario", str(tmp_path / "scen.json"),
                "--config", str(bad), "--out", str(tmp_path / "res.txt"),
            ])
            assert result.exit_code == 2, section

    def test_unknown_tracker_key_exits_two(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=5))
        bad = tmp_path / "bad.json"
        bad.write_text('{"tracker": {"max_costt": 0.5}}')
        result = runner.invoke(main, [
            "track", "--scenario", str(tmp_path / "scen.json"),
            "--config", str(bad), "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "tracker",
        [
            '{"max_cost": null}',
            '{"max_cost": -1}',
            '{"gate_threshold": "9"}',
            '{"gate_threshold": NaN}',
            '{"gate_threshold": -1}',
            '{"gate_metric": "bogus"}',
            '{"conf_threshold": 2}',
            '{"nms_iou": 1}',
            '{"smoothing_alpha": 7}',
            '{"max_lost": -1}',
            '{"min_hits": 0}',
            '{"min_hits": Infinity}',
        ],
    )
    def test_bad_tracker_value_exits_two(self, runner, tmp_path, tracker):
        runner.invoke(main, synth_args(tmp_path, frames=5))
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"tracker": {tracker}}}')
        result = runner.invoke(main, [
            "track", "--scenario", str(tmp_path / "scen.json"),
            "--config", str(bad), "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 2, result.output
        field = json.loads(tracker.replace("NaN", "0").replace("Infinity", "0")).popitem()[0]
        assert field.replace("_", " " if field == "gate_metric" else "_") in result.output

    def test_removed_busy_wait_key_exits_two(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=5))
        bad = tmp_path / "bad.json"
        bad.write_text('{"pipeline": {"busy_wait": false}}')
        result = runner.invoke(main, [
            "track", "--scenario", str(tmp_path / "scen.json"),
            "--config", str(bad), "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 2
        assert "busy_wait" in result.output

    def test_tracker_override_applies(self, runner, tmp_path):
        runner.invoke(main, synth_args(tmp_path, frames=5))
        cfg = dict(FAST_CONFIG)
        cfg["tracker"] = {"conf_threshold": 0.99}  # above generated objectness 0.9
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, [
            "track", "--scenario", str(tmp_path / "scen.json"),
            "--config", str(path), "--out", str(tmp_path / "res.txt"),
        ])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "res.txt").read_text() == ""


class TestMotResultWriter:
    def test_round_trip_through_loader(self, tmp_path):
        outputs = [
            TrackerOutput(
                frame_index=0,
                records=((1, BoundingBox(10.5, 20.25, 30.0, 40.0), 0.9),),
            ),
            TrackerOutput(
                frame_index=1,
                records=(
                    (1, BoundingBox(11.5, 20.25, 30.0, 40.0), 0.9),
                    (2, BoundingBox(100.0, 50.0, 20.0, 25.0), 0.8),
                ),
            ),
        ]
        path = tmp_path / "res.txt"
        write_mot_results(path, outputs)
        frames = moteval.load_mot_tracks(path)
        assert sorted(frames) == [0, 1]
        assert frames[1][1][0] == 2
        assert frames[0][0][1] == BoundingBox(10.5, 20.25, 30.0, 40.0)
