"""Layer spans for one traced dflsim CLI process, and their reduction to metrics.

Run as a script, this wraps dflsim's public functions at the module
attributes where their callers look them up (``dflsim.harness.derive_stream``,
``dflsim.metrics.global_loss``, ...), runs ``dflsim.cli.main`` on the given
arguments, and writes the spans out when the run ends:

    python3 perfbench/tracer.py SPANS_JSON RUN_ID run --algorithm ... --out DIR

Nothing under ``src/`` is edited. A span is ``[name, start_ns, end_ns,
parent_index, run_id, extra]``; ``name`` is ``<layer>.<function>`` and the
layer is the dflsim module the function belongs to. ``extra`` holds a
count taken from the call's arguments where a metric needs one.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

LAYERS = (
    "cli",
    "harness",
    "data",
    "topology",
    "theory_checks",
    "channel",
    "objective",
    "algorithms",
    "metrics",
)

# (module the caller looks the name up in, attribute, span name)
TARGETS = (
    ("dflsim.cli", "cmd_run", "cli.cmd_run"),
    ("dflsim.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("dflsim.cli", "run_averaged", "harness.run_averaged"),
    ("dflsim.cli", "sweep", "harness.sweep"),
    ("dflsim.cli", "write_cell_csv", "harness.write_cell_csv"),
    ("dflsim.harness", "run_averaged", "harness.run_averaged"),
    ("dflsim.harness", "run_detailed", "harness.run_detailed"),
    ("dflsim.harness", "write_cell_csv", "harness.write_cell_csv"),
    ("dflsim.harness", "generate", "data.generate"),
    ("dflsim.harness", "partition_iid", "data.partition_iid"),
    ("dflsim.harness", "build_mixing", "topology.build_mixing"),
    ("dflsim.algorithms", "neighbors", "topology.neighbors"),
    ("dflsim.harness", "estimate_smoothness", "theory_checks.estimate_smoothness"),
    ("dflsim.harness", "derive_stream", "channel.derive_stream"),
    ("dflsim.harness", "sample_noise", "channel.sample_noise"),
    ("dflsim.harness", "stochastic_gradient", "objective.stochastic_gradient"),
    ("dflsim.metrics", "global_loss", "objective.global_loss"),
    ("dflsim.metrics", "global_gradient", "objective.global_gradient"),
    ("dflsim.metrics", "local_loss", "objective.local_loss"),
    ("dflsim.harness", "init_states", "algorithms.init_states"),
    ("dflsim.harness", "round_fedndl1", "algorithms.round_fedndl1"),
    ("dflsim.harness", "round_fedndl2", "algorithms.round_fedndl2"),
    ("dflsim.harness", "round_fedndl3", "algorithms.round_fedndl3"),
    ("dflsim.harness", "round_fednmut", "algorithms.round_fednmut"),
    ("dflsim.harness", "tracking_bias", "algorithms.tracking_bias"),
    ("dflsim.harness", "stack_states", "algorithms.stack_states"),
    ("dflsim.algorithms", "stack_states", "algorithms.stack_states"),
    ("dflsim.harness", "measure", "metrics.measure"),
)

# The metrics module's objective calls are the per-round evaluation passes.
EVAL_SPANS = ("objective.global_loss", "objective.global_gradient", "objective.local_loss")


def _smoothness_key(args, kwargs):
    """Which (dataset, n, lam) an estimate_smoothness call is for."""
    dataset, shards, lam = args
    return [dataset.m, dataset.d, dataset.seed, dataset.label_noise_variance, len(shards), lam]


def _rows_read(args, kwargs):
    """Dataset rows an evaluation call reads: all of them, or one shard's (local_loss)."""
    target = args[1]
    return target.m if hasattr(target, "m") else target.size


def _bytes_written(args, kwargs):
    return os.path.getsize(args[0])


EXTRAS = {
    "theory_checks.estimate_smoothness": _smoothness_key,
    "objective.global_loss": _rows_read,
    "objective.global_gradient": _rows_read,
    "objective.local_loss": _rows_read,
    "harness.write_cell_csv": _bytes_written,
}


class Tracer:
    """In-memory span recorder for one process; spans nest on one call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, extra=None):
        spans, stack, run_id, clock = self.spans, self._stack, self.run_id, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if extra is not None:
                    span[5] = extra(args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target a refactor removed is skipped."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(fn, name, EXTRAS.get(name)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh, separators=(",", ":"))


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, self time in seconds, and the extras recorded.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process nest on one stack, so children never
    overlap. ``_roots_s`` is the time covered by top-level spans.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    roots_ns = 0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "extras": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns[i]) * 1e-9
        if extra is not None:
            entry["extras"].append(extra)
        if parent < 0:
            roots_ns += end - start
    out["_roots_s"] = roots_ns * 1e-9
    return out


def layer_metrics(agg: dict, clients: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(agg.get(name, {}).get("self_s", 0.0) for name in names)

    def extras(*names):
        return [x for name in names for x in agg.get(name, {}).get("extras", [])]

    names = [n for n in agg if not n.startswith("_")]
    rounds = [n for n in names if n.startswith("algorithms.round_")]
    out = {}
    for layer in LAYERS:
        mine = [n for n in names if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(calls(n) for n in mine), "count")
        out[f"{layer}.self_s"] = (self_s(*mine), "s")

    client_rounds = sum(calls(n) for n in rounds) * clients
    streams = calls("channel.derive_stream")
    out["channel.derive_stream.calls"] = (streams, "count")
    out["channel.derive_stream.self_s"] = (self_s("channel.derive_stream"), "s")
    out["channel.sample_noise.self_s"] = (self_s("channel.sample_noise"), "s")
    out["channel.streams_per_client_round"] = (streams / max(client_rounds, 1), "ratio")

    out["algorithms.round.self_s"] = (self_s(*rounds), "s")
    out["algorithms.tracking_bias.self_s"] = (self_s("algorithms.tracking_bias"), "s")
    out["algorithms.stack_states.calls"] = (calls("algorithms.stack_states"), "count")

    out["objective.stochastic_gradient.calls"] = (calls("objective.stochastic_gradient"), "count")
    out["objective.stochastic_gradient.self_s"] = (self_s("objective.stochastic_gradient"), "s")

    measures = calls("metrics.measure")
    out["metrics.measure.self_s"] = (self_s("metrics.measure"), "s")
    out["objective.eval.self_s"] = (self_s(*EVAL_SPANS), "s")
    out["objective.eval_rows_per_round"] = (sum(extras(*EVAL_SPANS)) / max(measures, 1), "rows")

    keys = extras("theory_checks.estimate_smoothness")
    out["theory_checks.estimate_smoothness.calls"] = (len(keys), "count")
    out["theory_checks.estimate_smoothness.self_s"] = (self_s("theory_checks.estimate_smoothness"), "s")
    out["theory_checks.estimate_smoothness.redundant_calls"] = (
        len(keys) - len({tuple(k) for k in keys}),
        "count",
    )

    out["data.generate.self_s"] = (self_s("data.generate"), "s")
    out["harness.run_detailed.self_s"] = (self_s("harness.run_detailed"), "s")
    out["harness.write_cell_csv.self_s"] = (self_s("harness.write_cell_csv"), "s")
    out["harness.csv_bytes"] = (sum(extras("harness.write_cell_csv")), "bytes")

    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.coverage"] = (agg.get("_roots_s", 0.0) / traced_wall_s, "ratio")
    return out


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_argv = argv
    tracer = Tracer(run_id)
    try:
        cli = tracer.wrap(importlib.import_module, "cli.import")("dflsim.cli")
        tracer.install()
        return tracer.wrap(cli.main, "cli.main")(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
