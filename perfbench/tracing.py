"""Timing wrappers installed on coxscreen's module objects, and per-layer sums.

A wrapper replaces a public function under the name its callers look it up
by (``screening.cox.fit`` is ``cox.fit``, ``cli.read_csv`` is the name
``cli`` imported from ``data``, and so on). Each call records one span
``(name, start, end, parent, op_id, info)``; spans stay in memory until the
run ends. Nothing under ``src/`` is changed on disk.
"""

from __future__ import annotations

import collections
import json
import time

import coxscreen.baselines as baselines
import coxscreen.benchmark as benchmark
import coxscreen.cli as cli
import coxscreen.cox as cox
import coxscreen.diagnostics as diagnostics
import coxscreen.metrics as metrics
import coxscreen.screening as screening
import coxscreen.simulate as simulate

# (module object, attribute callers look up, span name)
TARGETS = (
    (cli, "cmd_screen", "cli.cmd_screen"),
    (cli, "cmd_diagnose", "cli.cmd_diagnose"),
    (cli, "cmd_benchmark", "cli.cmd_benchmark"),
    (cli, "read_csv", "data.read_csv"),
    (screening, "validate", "data.validate"),
    (baselines, "validate", "data.validate"),
    (cox, "fit", "cox.fit"),
    (screening, "screen", "screening.screen"),
    (screening, "default_conditioning", "screening.default_conditioning"),
    (screening, "result_to_json", "screening.result_to_json"),
    (diagnostics, "signal_strengths_to_csv", "diagnostics.signal_strengths_to_csv"),
    (diagnostics, "signal_strength", "diagnostics.signal_strength"),
    (simulate, "calibrate_censoring", "simulate.calibrate_censoring"),
    (simulate, "gen_replicate", "simulate.gen_replicate"),
    (baselines, "ipw_weights", "baselines.ipw_weights"),
    (baselines, "cors", "baselines.cors"),
    (baselines, "cris", "baselines.cris"),
    (benchmark, "run_benchmark", "benchmark.run_benchmark"),
    (benchmark, "run_replicate", "benchmark.run_replicate"),
    (metrics, "mms", "metrics.mms"),
    (metrics, "tpr", "metrics.tpr"),
    (metrics, "summarize", "metrics.summarize"),
    (metrics, "summaries_to_csv", "metrics.summaries_to_csv"),
    (metrics, "scores_to_csv", "metrics.scores_to_csv"),
)

STATUSES = ("converged", "separation", "singular", "not_converged")


def _screen_info(result):
    counts = collections.Counter(rec.fit_status for rec in result.records)
    return {"records": len(result.records), **{s: counts.get(s, 0) for s in STATUSES}}


def _ipw_info(weights):
    # an event whose censoring survival was floored carries weight 1 / KM_FLOOR
    return {"floored": int((weights >= (1.0 - 1e-12) / baselines.KM_FLOOR).sum())}


# what each span keeps from its return value
_OBSERVERS = {
    "cox.fit": lambda fit: {"iterations": fit.iterations},
    "screening.screen": _screen_info,
    "simulate.gen_replicate": lambda rep: {
        "clipped": rep.clipped_linear_predictors,
        "censoring": rep.realized_censoring,
    },
    "baselines.ipw_weights": _ipw_info,
}


class Tracer:
    """Installs and removes the wrappers; keeps every span of the run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self._originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        self._wrappers = [
            (mod, attr, self._wrap(name, getattr(mod, attr))) for mod, attr, name in TARGETS
        ]

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            sid = self._open()
            info = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    info = observe(result)
                return result
            finally:
                self._close(sid, name, info)

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, time.perf_counter()))
        return sid

    def _close(self, sid, name, info):
        end = time.perf_counter()
        _, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[sid] = (name, start, end, parent, self.op_id, info)

    def install(self):
        for mod, attr, wrapper in self._wrappers:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in self._originals:
            setattr(mod, attr, fn)

    def traced_op(self, op_id, fn):
        """Run fn() as the root span "op" of op_id with every wrapper installed."""
        self.op_id = op_id
        self.install()
        sid = self._open()
        try:
            return fn()
        finally:
            self._close(sid, "op", None)
            self.uninstall()
            self.op_id = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op_id, info) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op_id, "info": info}
                fh.write(json.dumps(row) + "\n")

    def layer_totals(self):
        """Per op and span name: calls, summed duration, summed self time, and the infos."""
        child_time = collections.defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_op = collections.defaultdict(lambda: collections.defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "info": []}))
        for sid, (name, start, end, _, op_id, info) in enumerate(self.spans):
            t = per_op[op_id][name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[sid]
            if info is not None:
                t["info"].append(info)
        return per_op


def unit(metric):
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "traced_s"):
        return "s"
    if last.startswith("us"):
        return "us"
    if last in ("op_share", "overhead_frac", "realized_censoring") or last.endswith("fail_share"):
        return "ratio"
    if last == "newton_iters_mean":
        return "iterations"
    return "count"


def op_layer_metrics(totals):
    """The per-layer metrics of one traced op, from Tracer.layer_totals."""
    def get(name, stat):
        return totals[name][stat] if name in totals else 0

    def infos(name):
        return totals[name]["info"] if name in totals else []

    op_s = get("op", "s")
    fit_calls = get("cox.fit", "calls")
    screens = infos("screening.screen")
    candidates = sum(i["records"] for i in screens)
    signal_calls = get("diagnostics.signal_strength", "calls")
    iterations = [i["iterations"] for i in infos("cox.fit")]
    reps = infos("simulate.gen_replicate")
    out = {
        "op.traced_s": op_s,
        "cox.fit.calls": fit_calls,
        "cox.fit.s": get("cox.fit", "s"),
        "cox.fit.us_per_call": 1e6 * get("cox.fit", "s") / fit_calls if fit_calls else 0.0,
        "cox.fit.op_share": get("cox.fit", "s") / op_s,
        "cox.newton_iters_mean": sum(iterations) / len(iterations) if iterations else 0.0,
        "screening.screen.calls": get("screening.screen", "calls"),
        "screening.screen.s": get("screening.screen", "s"),
        "screening.screen.self_s": get("screening.screen", "self_s"),
        "screening.us_per_candidate":
            1e6 * get("screening.screen", "s") / candidates if candidates else 0.0,
        "screening.result_to_json.s": get("screening.result_to_json", "s"),
        "screening.default_conditioning.s": get("screening.default_conditioning", "s"),
        "data.read_csv.calls": get("data.read_csv", "calls"),
        "data.read_csv.s": get("data.read_csv", "s"),
        "data.validate.calls": get("data.validate", "calls"),
        "data.validate.s": get("data.validate", "s"),
        "diagnostics.signal_strength.calls": signal_calls,
        "diagnostics.signal_strength.us_per_call":
            1e6 * get("diagnostics.signal_strength", "s") / signal_calls if signal_calls else 0.0,
        "cli.cmd_screen.self_s": get("cli.cmd_screen", "self_s"),
        "cli.cmd_diagnose.self_s": get("cli.cmd_diagnose", "self_s"),
        "cli.cmd_benchmark.self_s": get("cli.cmd_benchmark", "self_s"),
        "simulate.calibrate_censoring.calls": get("simulate.calibrate_censoring", "calls"),
        "simulate.calibrate_censoring.s": get("simulate.calibrate_censoring", "s"),
        "simulate.calibrate_censoring.op_share": get("simulate.calibrate_censoring", "s") / op_s,
        "simulate.gen_replicate.calls": get("simulate.gen_replicate", "calls"),
        "simulate.gen_replicate.self_s": get("simulate.gen_replicate", "self_s"),
        "simulate.clipped_lp": sum(i["clipped"] for i in reps),
        "simulate.realized_censoring":
            sum(i["censoring"] for i in reps) / len(reps) if reps else 0.0,
        "baselines.ipw_weights.calls": get("baselines.ipw_weights", "calls"),
        "baselines.ipw_weights.s": get("baselines.ipw_weights", "s"),
        "baselines.cors.s": get("baselines.cors", "s"),
        "baselines.cris.s": get("baselines.cris", "s"),
        "baselines.cris.self_s": get("baselines.cris", "self_s"),
        "baselines.cris.op_share": get("baselines.cris", "s") / op_s,
        "baselines.km_floor_count": sum(i["floored"] for i in infos("baselines.ipw_weights")),
        "benchmark.run_replicate.calls": get("benchmark.run_replicate", "calls"),
        "benchmark.run_replicate.self_s": get("benchmark.run_replicate", "self_s"),
        "benchmark.run_benchmark.self_s": get("benchmark.run_benchmark", "self_s"),
        "metrics.s": sum(t["s"] for name, t in totals.items() if name.startswith("metrics.")),
    }
    for status in STATUSES:
        out[f"screening.status.{status}"] = sum(i[status] for i in screens)
    return out
