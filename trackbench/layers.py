"""Which program calls are traced, and the per-layer metrics derived from them.

Targets name the namespace where the program looks the callee up, so
``trackforge.tracker:nms`` times the NMS that ``Tracker.step`` runs.
Per-frame values divide by the frames of the traced run; ``_s`` values are
per call.
"""

from __future__ import annotations

import numpy as np

from spans import Recorder

P = "trackforge.pipeline:"
T = "trackforge.tracker:"
M = "trackforge.moteval:"
QUEUE = P + "StageQueue."

# span name -> target
SPANS = {
    "postproc.parse": P + "parse_output",
    "core.quantize": P + "quantize_binary16",
    "core.renormalize": P + "normalize",
    "tracker.step": T + "Tracker.step",
    "postproc.filter": T + "filter_confidence",
    "postproc.nms": T + "nms",
    "motion.predict": T + "KalmanFilter.predict",
    "motion.gating": T + "KalmanFilter.gating_distance",
    "motion.update": T + "KalmanFilter.update",
    "motion.initiate": T + "KalmanFilter.initiate",
    "assoc.cost_matrix": T + "build_cost_matrix",
    "assoc.apply_gate": T + "apply_gate",
    "assoc.hungarian": T + "hungarian_solve",
    "assoc.threshold": T + "match_with_threshold",
    "tracker.smooth": T + "smooth_embedding",
    "moteval.accumulate": M + "accumulate",
    "moteval.clear_mot": M + "clear_mot",
    "moteval.id_metrics": M + "id_metrics",
    "moteval.load_tracks": M + "load_mot_tracks",
    "detgen.make_scenario": "trackforge.detgen:make_scenario",
    "detgen.generate": "trackforge.detgen:generate_frame",
    "detgen.load_detections": "trackforge.detgen:load_mot_detections",
    "detgen.load_sidecar": "trackforge.detgen:load_embedding_sidecar",
    "cli.write_results": "trackforge.cli:write_mot_results",
}
# count name -> target; called too often to span each call
COUNTS = {
    "postproc.nms_iou_calls": "trackforge.postproc:iou",
    "moteval.iou_calls": M + "iou",
}


def install(config) -> Recorder:
    """Wrap every target; queue calls are split into q1/q2 by capacity."""
    if config.q1_capacity == config.q2_capacity:
        raise ValueError("q1 and q2 are told apart by capacity; give them different ones")
    queue = {config.q1_capacity: "q1", config.q2_capacity: "q2"}
    rec = Recorder()
    counts = rec.counts

    def adds(**measures):
        def observe(args, result):
            for name, measure in measures.items():
                counts[name] += measure(args, result)
        return observe

    observers = {
        "postproc.nms": adds(nms_in=lambda a, r: len(a[0]), nms_out=lambda a, r: len(r)),
        "assoc.cost_matrix": adds(pairs_costed=lambda a, r: r.size),
        "assoc.apply_gate": adds(pairs_gated_in=lambda a, r: int(np.isfinite(r).sum())),
        "assoc.threshold": adds(matches=lambda a, r: len(r.matches),
                                cost_rejections=lambda a, r: len(a[0].matches) - len(r.matches)),
    }
    for name, target in SPANS.items():
        rec.span(target, name, observers.get(name))
    for op in ("put", "get"):
        rec.span(QUEUE + op, lambda a, op=op: f"pipeline.{queue[a[0].capacity]}_{op}")
    for name, target in COUNTS.items():
        rec.count(target, name)
    return rec


def metrics(rec: Recorder, traced, frames: int, warmup: int) -> dict:
    """Per-layer metrics of one traced pass; those built on absent names are left out."""
    total, calls, self_time = rec.totals()
    counts, tracker, report = rec.counts, traced.tracker, traced.report
    gone = {name for name, target in {**SPANS, **COUNTS}.items() if target in rec.absent}
    if any(target.startswith(QUEUE) for target in rec.absent):
        gone |= {"pipeline.q1_put", "pipeline.q2_put", "pipeline.q2_get"}

    def ms(*spans):
        return lambda: sum(total.get(s, 0.0) for s in spans) * 1000.0 / frames

    def per_call_s(span, scale=1.0):
        return lambda: total.get(span, 0.0) * scale / max(calls[span], 1)

    def per_frame(count):
        return lambda: count() / frames

    def ratio(num, den):
        return lambda: counts[num] / counts[den] if counts[den] else 1.0

    table = [  # name, unit, names it is built on, value
        ("pipeline.q1_put_wait_ms", "ms/frame", ["pipeline.q1_put"], ms("pipeline.q1_put")),
        ("pipeline.q2_put_wait_ms", "ms/frame", ["pipeline.q2_put"], ms("pipeline.q2_put")),
        ("pipeline.q2_get_wait_ms", "ms/frame", ["pipeline.q2_get"], ms("pipeline.q2_get")),
        ("pipeline.max_q1", "count", [], lambda: report.max_q1),
        ("pipeline.max_q2", "count", [], lambda: report.max_q2),
        ("pipeline.traced_fps", "frames/s", [],
         lambda: (len(tracker.done) - 1 - warmup) / (tracker.done[-1] - tracker.done[warmup])),
        ("postproc.parse_ms", "ms/frame", ["postproc.parse"], ms("postproc.parse")),
        ("postproc.filter_ms", "ms/frame", ["postproc.filter"], ms("postproc.filter")),
        ("postproc.nms_ms", "ms/frame", ["postproc.nms"], ms("postproc.nms")),
        ("postproc.nms_iou_calls", "count/frame", ["postproc.nms_iou_calls"],
         per_frame(lambda: counts["postproc.nms_iou_calls"])),
        ("postproc.nms_keep_ratio", "ratio", ["postproc.nms"], ratio("nms_out", "nms_in")),
        ("core.quantize_ms", "ms/frame", ["core.quantize", "core.renormalize"],
         ms("core.quantize", "core.renormalize")),
        ("motion.predict_ms", "ms/frame", ["motion.predict"], ms("motion.predict")),
        ("motion.gating_ms", "ms/frame", ["motion.gating"], ms("motion.gating")),
        ("motion.update_ms", "ms/frame", ["motion.update"], ms("motion.update")),
        ("motion.initiate_ms", "ms/frame", ["motion.initiate"], ms("motion.initiate")),
        ("motion.tracks_predicted", "count/frame", ["motion.predict"],
         per_frame(lambda: calls["motion.predict"])),
        ("assoc.cost_matrix_ms", "ms/frame", ["assoc.cost_matrix"], ms("assoc.cost_matrix")),
        ("assoc.apply_gate_ms", "ms/frame", ["assoc.apply_gate"], ms("assoc.apply_gate")),
        ("assoc.hungarian_ms", "ms/frame", ["assoc.hungarian"], ms("assoc.hungarian")),
        ("assoc.threshold_ms", "ms/frame", ["assoc.threshold"], ms("assoc.threshold")),
        ("assoc.gate_pass_ratio", "ratio", ["assoc.cost_matrix", "assoc.apply_gate"],
         ratio("pairs_gated_in", "pairs_costed")),
        ("assoc.matches", "count/frame", ["assoc.threshold"], per_frame(lambda: counts["matches"])),
        ("assoc.cost_rejections", "count/frame", ["assoc.threshold"],
         per_frame(lambda: counts["cost_rejections"])),
        ("tracker.step_ms", "ms/frame", ["tracker.step"], ms("tracker.step")),
        ("tracker.smooth_ms", "ms/frame", ["tracker.smooth"], ms("tracker.smooth")),
        ("tracker.lifecycle_ms", "ms/frame", ["tracker.step"],
         lambda: self_time.get("tracker.step", 0.0) * 1000.0 / frames),
        ("tracker.births", "count/frame", ["motion.initiate"],
         per_frame(lambda: calls["motion.initiate"])),
        ("moteval.accumulate_s", "s", ["moteval.accumulate"], per_call_s("moteval.accumulate")),
        ("moteval.clear_mot_s", "s", ["moteval.clear_mot"], per_call_s("moteval.clear_mot")),
        ("moteval.id_metrics_s", "s", ["moteval.id_metrics"], per_call_s("moteval.id_metrics")),
        ("moteval.iou_calls", "count", ["moteval.iou_calls", "moteval.id_metrics"],
         lambda: counts["moteval.iou_calls"] / max(calls["moteval.id_metrics"], 1)),
        ("moteval.load_tracks_s", "s", ["moteval.load_tracks"], per_call_s("moteval.load_tracks")),
        ("detgen.make_scenario_s", "s", ["detgen.make_scenario"],
         per_call_s("detgen.make_scenario")),
        ("detgen.generate_ms", "ms", ["detgen.generate"], per_call_s("detgen.generate", 1000.0)),
        ("detgen.load_detections_s", "s", ["detgen.load_detections"],
         per_call_s("detgen.load_detections")),
        ("detgen.load_sidecar_s", "s", ["detgen.load_sidecar"], per_call_s("detgen.load_sidecar")),
        ("cli.write_results_s", "s", ["cli.write_results"], per_call_s("cli.write_results")),
    ]
    for stage in ("capture", "infer", "post"):
        if stage in report.stage_busy_s:
            table.append((f"pipeline.{stage}_busy_frac", "ratio", [],
                          lambda s=stage: report.stage_busy_s[s] / traced.wall_s))
    if hasattr(tracker, "removed_ids"):
        table.append(("tracker.removals", "count/frame", [],
                      per_frame(lambda: len(tracker.removed_ids))))
    if tracker.live:
        table.append(("tracker.live_tracks", "count/frame", [], lambda: float(np.mean(tracker.live))))
    return {name: (float(value()), unit) for name, unit, needs, value in table
            if not gone & set(needs)}
