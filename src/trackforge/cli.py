"""Command-line front end: run tracking, sweep benchmarks, evaluate, synthesize.

Exit codes: 0 success, 1 internal invariant violation (e.g. cross-mode output
mismatch in `bench`), 2 usage or configuration error.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import detgen, moteval
from .core import BoundingBox
from .errors import TrackforgeError
from .motion import MotionNoise
from .pipeline import (
    ExecutionMode,
    PipelineConfig,
    PipelineMode,
    Precision,
    RunReport,
    run,
)
from .tracker import Tracker, TrackerConfig, TrackerOutput

_EXECUTIONS = {mode.value: mode for mode in ExecutionMode}
_PRECISIONS = {prec.value: prec for prec in Precision}

# Labels for the canonical four-variant comparison: original serialized
# pipeline, mixed precision, mixed + batchwise, mixed + batchwise + parallel
# post-processing.
FOUR_VARIANTS = ("OP", "MP", "MP+BW", "MP+BW+PP")


def _usage_errors(command):
    """Convert package-level input errors into exit-code-2 usage failures."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (TrackforgeError, FileNotFoundError) as exc:
            raise click.UsageError(str(exc)) from exc

    return wrapper


# ---------------------------------------------------------------------------
# MOT result file helpers
# ---------------------------------------------------------------------------

def format_mot_row(frame_index: int, track_id: int, box: BoundingBox, conf: float) -> str:
    """One result line; frames are 1-indexed on disk."""
    return (
        f"{frame_index + 1},{track_id},{box.x:.6f},{box.y:.6f},"
        f"{box.w:.6f},{box.h:.6f},{conf:.6f},-1,-1,-1"
    )


def write_mot_results(path: str | Path, outputs: list[TrackerOutput]) -> None:
    lines = [
        format_mot_row(out.frame_index, track_id, box, conf)
        for out in outputs
        for track_id, box, conf in out.records
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_mot_ground_truth(path: str | Path, scenario: detgen.ScenarioConfig) -> None:
    truth = detgen.scenario_ground_truth(scenario)
    lines = [
        format_mot_row(frame_index, obj_id, box, 1.0)
        for frame_index in sorted(truth)
        for obj_id, box in truth[frame_index]
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_report_csv(path: str | Path, reports: list[RunReport]) -> None:
    lines = [RunReport.CSV_HEADER] + [report.csv_row() for report in reports]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

def load_config_file(path: str | Path | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise click.UsageError("config file must contain a JSON object")
    unknown = set(payload) - {"tracker", "pipeline"}
    if unknown:
        raise click.UsageError(f"unknown config sections: {sorted(unknown)}")
    return payload


def build_tracker_config(overrides: dict, embedding_dim: int) -> TrackerConfig:
    known = {
        "conf_threshold", "nms_iou", "max_cost", "gate_threshold", "gate_metric",
        "smoothing_alpha", "max_lost", "min_hits",
    }
    unknown = set(overrides) - known
    if unknown:
        raise click.UsageError(f"unknown tracker config keys: {sorted(unknown)}")
    return TrackerConfig(embedding_dim=embedding_dim, motion_noise=MotionNoise(), **overrides)


def build_pipeline_config(overrides: dict) -> PipelineConfig:
    known = {
        "t_fixed_ms", "t_image_ms", "kappa_full", "kappa_mixed", "t_post_fixed_ms",
        "t_post_per_detection_ms", "q1_capacity", "q2_capacity", "warmup_frames",
    }
    unknown = set(overrides) - known
    if unknown:
        raise click.UsageError(f"unknown pipeline config keys: {sorted(unknown)}")
    return PipelineConfig(**overrides)


def _parse_mode(mode: str, precision: str, batch_size: int) -> PipelineMode:
    if mode not in _EXECUTIONS:
        raise click.UsageError(f"unknown mode {mode!r}; choose from {sorted(_EXECUTIONS)}")
    if precision not in _PRECISIONS:
        raise click.UsageError(
            f"unknown precision {precision!r}; choose from {sorted(_PRECISIONS)}"
        )
    return PipelineMode(_EXECUTIONS[mode], _PRECISIONS[precision], batch_size)


def _parse_int_list(text: str, label: str) -> list[int]:
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token[1:]:
            lo, _, hi = token.partition("-")
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(token))
    if not values:
        raise click.UsageError(f"empty {label} list")
    return values


def _make_source(scenario_path, detections_path, embeddings_path, seed, embedding_dim):
    """Returns (frames iterable, embedding_dim)."""
    if scenario_path and detections_path:
        raise click.UsageError("give either --scenario or --detections, not both")
    if scenario_path:
        scenario = detgen.load_scenario(scenario_path)
        return detgen.scenario_frames(scenario, seed), scenario.embedding_dim
    if detections_path:
        if not embeddings_path:
            raise click.UsageError("--detections requires --embeddings (sidecar file)")
        det_map = detgen.load_mot_detections(detections_path)
        attached = detgen.load_embedding_sidecar(embeddings_path, det_map, embedding_dim)
        n_frames = max(attached) + 1 if attached else 0
        return detgen.file_frames(attached, n_frames, 6 + embedding_dim), embedding_dim
    raise click.UsageError("a detection source is required: --scenario or --detections")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main() -> None:
    """Multi-object tracking pipeline: track, benchmark, evaluate, synthesize."""


@main.command()
@click.option("--scenario", "scenario_path", type=click.Path(), help="Scenario JSON file.")
@click.option("--detections", "detections_path", type=click.Path(), help="MOT detection file.")
@click.option("--embeddings", "embeddings_path", type=click.Path(), help="Embedding sidecar.")
@click.option("--mode", default="serial", show_default=True, help="serial | batched | parallel.")
@click.option("--precision", default="full", show_default=True, help="full | mixed.")
@click.option("--batch-size", default=1, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int, help="Noise seed for scenarios.")
@click.option("--embedding-dim", default=512, show_default=True, type=int)
@click.option("--config", "config_path", type=click.Path(), help="JSON config file.")
@click.option("--out", "out_path", type=click.Path(), required=True, help="MOT result file.")
@click.option("--report", "report_path", type=click.Path(), help="Run report CSV.")
@_usage_errors
def track(
    scenario_path, detections_path, embeddings_path, mode, precision, batch_size,
    seed, embedding_dim, config_path, out_path, report_path,
) -> None:
    """Run the tracker over a detection source and write MOT result rows."""
    pipeline_mode = _parse_mode(mode, precision, batch_size)
    source, dim = _make_source(
        scenario_path, detections_path, embeddings_path, seed, embedding_dim
    )
    config_file = load_config_file(config_path)
    tracker = Tracker(build_tracker_config(config_file.get("tracker", {}), dim))
    pipeline_config = build_pipeline_config(config_file.get("pipeline", {}))
    outputs, report = run(source, tracker, pipeline_mode, pipeline_config)
    write_mot_results(out_path, outputs)
    if report_path:
        write_report_csv(report_path, [report])
    click.echo(
        f"tracked {report.frames_total} frames at {report.fps:.2f} FPS "
        f"({pipeline_mode.label()}) -> {out_path}"
    )


@main.command()
@click.option("--scenario", "scenario_path", type=click.Path(), required=True)
@click.option("--modes", default="serial,batched,parallel", show_default=True)
@click.option("--precisions", default="full,mixed", show_default=True)
@click.option("--batch-sizes", default="1,2,4,8", show_default=True,
              help="Comma list and/or ranges, e.g. 1,2,4 or 1-10.")
@click.option("--four-variants", is_flag=True,
              help="Run the canonical OP / MP / MP+BW / MP+BW+PP comparison.")
@click.option("--batch-size", default=4, show_default=True, type=int,
              help="Batch size for the batched variants of --four-variants.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--config", "config_path", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), required=True, help="Report CSV.")
@click.option("--markdown", "markdown_path", type=click.Path(),
              help="Also write a markdown FPS table.")
@_usage_errors
def bench(
    scenario_path, modes, precisions, batch_sizes, four_variants, batch_size,
    seed, config_path, out_path, markdown_path,
) -> None:
    """Benchmark pipeline variants; verifies output determinism across modes."""
    scenario = detgen.load_scenario(scenario_path)
    config_file = load_config_file(config_path)
    pipeline_config = build_pipeline_config(config_file.get("pipeline", {}))

    if four_variants:
        variants = [
            ("OP", PipelineMode(ExecutionMode.SERIAL, Precision.FULL, 1)),
            ("MP", PipelineMode(ExecutionMode.SERIAL, Precision.MIXED, 1)),
            ("MP+BW", PipelineMode(ExecutionMode.BATCHED_SERIAL, Precision.MIXED, batch_size)),
            ("MP+BW+PP", PipelineMode(ExecutionMode.PARALLEL, Precision.MIXED, batch_size)),
        ]
    else:
        mode_list = [m.strip() for m in modes.split(",") if m.strip()]
        precision_list = [p.strip() for p in precisions.split(",") if p.strip()]
        sizes = _parse_int_list(batch_sizes, "batch size")
        if not mode_list or not precision_list:
            raise click.UsageError("at least one mode and one precision are required")
        variants = []
        for mode_name in mode_list:
            for precision_name in precision_list:
                for size in sizes:
                    if mode_name == "serial" and size != 1:
                        continue
                    label = f"{mode_name}/{precision_name}/b{size}"
                    variants.append((label, _parse_mode(mode_name, precision_name, size)))
        if not variants:
            raise click.UsageError("variant grid is empty (serial runs only at batch size 1)")

    reports: list[RunReport] = []
    outputs_by_precision: dict[str, tuple[str, list]] = {}
    for label, pipeline_mode in variants:
        tracker = Tracker(
            build_tracker_config(config_file.get("tracker", {}), scenario.embedding_dim)
        )
        outputs, report = run(
            detgen.scenario_frames(scenario, seed), tracker, pipeline_mode, pipeline_config
        )
        reports.append(report)
        key = pipeline_mode.precision.value
        if key in outputs_by_precision:
            ref_label, ref_outputs = outputs_by_precision[key]
            if outputs != ref_outputs:
                click.echo(
                    f"determinism violation: {label} outputs differ from {ref_label}",
                    err=True,
                )
                sys.exit(1)
        else:
            outputs_by_precision[key] = (label, outputs)
        click.echo(f"{label}: {report.fps:.2f} FPS")

    write_report_csv(out_path, reports)
    if markdown_path:
        labels = [label for label, _ in variants]
        header = "| Scenario | " + " | ".join(labels) + " |"
        divider = "|" + "---|" * (len(labels) + 1)
        cells = " | ".join(f"{report.fps:.2f}" for report in reports)
        name = Path(scenario_path).name
        Path(markdown_path).write_text(
            f"{header}\n{divider}\n| {name} | {cells} |\n", encoding="utf-8"
        )


@main.command(name="eval")
@click.option("--gt", "gt_path", type=click.Path(), required=True, help="Ground-truth file.")
@click.option("--result", "result_path", type=click.Path(), required=True, help="Result file.")
@click.option("--iou-min", default=0.5, show_default=True, type=float)
@click.option("--out", "out_path", type=click.Path(), help="Write the metrics row as CSV.")
@_usage_errors
def eval_cmd(gt_path, result_path, iou_min, out_path) -> None:
    """Score a MOT result file against ground truth."""
    gt_frames = moteval.load_mot_tracks(gt_path)
    hyp_frames = moteval.load_mot_tracks(result_path)
    if gt_frames and hyp_frames:
        lo = max(min(gt_frames), min(hyp_frames))
        hi = min(max(gt_frames), max(hyp_frames))
        if (min(gt_frames), max(gt_frames)) != (min(hyp_frames), max(hyp_frames)):
            click.echo(
                f"warning: frame ranges differ; evaluating frames {lo + 1}..{hi + 1}",
                err=True,
            )
            gt_frames = {f: v for f, v in gt_frames.items() if lo <= f <= hi}
            hyp_frames = {f: v for f, v in hyp_frames.items() if lo <= f <= hi}
    report = moteval.evaluate(gt_frames, hyp_frames, iou_min)

    def percent(v: float) -> str:
        return f"{100.0 * v:.1f}%"

    values = [
        percent(report.idf1), percent(report.idp), percent(report.idr),
        percent(report.recall), percent(report.precision),
        str(report.mostly_tracked), str(report.partially_tracked), str(report.mostly_lost),
        str(report.fp), str(report.fn), str(report.id_switches), str(report.fragmentations),
        percent(report.mota), f"{report.motp:.3f}",
    ]
    widths = [max(len(c), len(v)) for c, v in zip(moteval.MetricsReport.COLUMNS, values)]
    click.echo("  ".join(c.rjust(w) for c, w in zip(moteval.MetricsReport.COLUMNS, widths)))
    click.echo("  ".join(v.rjust(w) for v, w in zip(values, widths)))
    if out_path:
        raw = ",".join(
            f"{v:.6f}" if isinstance(v, float) else str(v) for v in report.row()
        )
        Path(out_path).write_text(
            ",".join(moteval.MetricsReport.COLUMNS) + "\n" + raw + "\n", encoding="utf-8"
        )


@main.command()
@click.option("--objects", default=10, show_default=True, type=int)
@click.option("--frames", default=300, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--layout", default="lanes", show_default=True, help="lanes | random.")
@click.option("--image-width", default=1920, show_default=True, type=int)
@click.option("--image-height", default=1080, show_default=True, type=int)
@click.option("--embedding-dim", default=512, show_default=True, type=int)
@click.option("--margin", default=0.5, show_default=True, type=float,
              help="Minimum pairwise cosine distance between identity embeddings.")
@click.option("--p-miss", default=0.0, show_default=True, type=float)
@click.option("--sigma-box", default=0.0, show_default=True, type=float)
@click.option("--sigma-emb", default=0.0, show_default=True, type=float)
@click.option("--sigma-conf", default=0.0, show_default=True, type=float)
@click.option("--lambda-fp", default=0.0, show_default=True, type=float)
@click.option("--out-scenario", type=click.Path(), required=True)
@click.option("--out-gt", type=click.Path(), required=True)
@_usage_errors
def synth(
    objects, frames, seed, layout, image_width, image_height, embedding_dim, margin,
    p_miss, sigma_box, sigma_emb, sigma_conf, lambda_fp, out_scenario, out_gt,
) -> None:
    """Generate a scenario file and its MOT-format ground truth, reproducibly."""
    noise = detgen.NoiseParams(
        p_miss=p_miss, sigma_box=sigma_box, sigma_emb=sigma_emb,
        sigma_conf=sigma_conf, lambda_fp=lambda_fp,
    )
    scenario = detgen.make_scenario(
        num_objects=objects,
        frames=frames,
        seed=seed,
        image_size=(image_width, image_height),
        noise=noise,
        embedding_dim=embedding_dim,
        separation_margin=margin,
        layout=layout,
    )
    Path(out_scenario).write_text(detgen.scenario_to_json(scenario), encoding="utf-8")
    write_mot_ground_truth(out_gt, scenario)
    click.echo(f"wrote {out_scenario} and {out_gt} ({objects} objects, {frames} frames)")


if __name__ == "__main__":
    main()
