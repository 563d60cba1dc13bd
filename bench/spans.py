"""Spans for the traced run, recorded from outside the package.

A traced command runs with every listed public function of a layer replaced
by a wrapper that records a span: layer, function, start, end and the span
that was open when it was called.  Every module-level binding in the
`fuzzycover` package that is the same function object is replaced, so a call
through `cli.build_table` or `multi.build_table` is recorded like one
through `neighborhood.build_table`.  Spans stay in memory; run.py collects
them from each command process and writes them out when the run ends.

A layer's self time is the time its spans cover minus the part their child
spans cover.  The root span of a command is `cli.main` (layer `cli`), so
`cli` self time is argparse, dispatch, the sweep loop and emitting output.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ORACLE_FNS = ("prob_approx", "prob_regions", "grade_approx", "grade_regions",
              "dq_disjunctive", "dq_conjunctive", "mg_prob", "mg_grade", "mg_dq")

# layer -> (module, listed public functions); "Class.method" wraps a method
LAYERS = {
    "neighborhood.build_table": ("fuzzycover.neighborhood", ("build_table",)),
    "single.kernel": ("fuzzycover.single", ("overlap_sums", "mass_sums")),
    "single.ops": ("fuzzycover.single", ("prob_approx", "prob_regions", "grade_approx",
                                         "grade_regions", "dq_disjunctive", "dq_conjunctive")),
    "single.diagnostics": ("fuzzycover.single", ("diagnostics",)),
    "multi.mg": ("fuzzycover.multi", ("mg_prob", "mg_grade", "mg_dq")),
    "model.validate": ("fuzzycover.model", ("validate_covering", "MultiGranulationSystem.space")),
    "sysio.load": ("fuzzycover.sysio", ("load",)),
    "sysio.render": ("fuzzycover.sysio", ("result_document", "render_json",
                                          "render_result_csv", "dumps")),
    "checks": ("fuzzycover.checks", ("run_random", "run_file")),
    "oracle": ("fuzzycover.oracle", ORACLE_FNS),
    "generate": ("fuzzycover.generate", ("generate_system",)),
}
ROOT_LAYER = "cli"
# spans of the benchmark's own counting; subtracted from their parent, never reported
BOOKKEEPING = "trace"
# model.validate.calls counts covering validations; space() only adds its time
CALLS_OF = {"model.validate": ("validate_covering",)}

PER_LAYER = {
    "neighborhood.build_table.self_s": ("s", "lower"),
    "neighborhood.build_table.calls": ("count", "lower"),
    "neighborhood.rows": ("count", "lower"),
    "neighborhood.distinct_rows": ("count", "lower"),
    "neighborhood.distinct_ratio": ("ratio", "lower"),
    "single.kernel.self_s": ("s", "lower"),
    "single.kernel.calls": ("count", "lower"),
    "single.kernel.per_cmd": ("calls/cmd", "lower"),
    "single.ops.self_s": ("s", "lower"),
    "single.ops.calls": ("count", "lower"),
    "single.diagnostics.self_s": ("s", "lower"),
    "multi.mg.self_s": ("s", "lower"),
    "multi.mg.calls": ("count", "lower"),
    "model.validate.self_s": ("s", "lower"),
    "model.validate.calls": ("count", "lower"),
    "model.validate.per_cmd": ("calls/cmd", "lower"),
    "sysio.load.self_s": ("s", "lower"),
    "sysio.load.calls": ("count", "lower"),
    "sysio.render.self_s": ("s", "lower"),
    "sysio.render.calls": ("count", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "checks.self_s": ("s", "lower"),
    "checks.instances": ("count", "higher"),
    "oracle.self_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "generate.self_s": ("s", "lower"),
    "generate.calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class MissingFunction(LookupError):
    """A listed layer function no longer exists; the traced run cannot proceed."""


def resolve() -> list[tuple[str, object, str, object]]:
    """(layer, owner, attribute, function) for every listed function."""
    found = []
    for layer, (module, names) in LAYERS.items():
        mod = importlib.import_module(module)
        for name in names:
            owner, _, attr = name.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, attr, None)
            if not callable(fn):
                raise MissingFunction(f"{module}.{name} is not defined")
            found.append((layer, holder, attr, fn))
    return found


def _count_rows(table) -> list[int]:
    return [len(table.rows), len({row.memberships for row in table.rows})]


COUNTERS = {
    "build_table": _count_rows,
    "run_random": lambda report: [report.instances],
    "run_file": lambda report: [report.instances],
}


class Recorder:
    """Spans of one process: [layer, name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [layer, name, 0.0, 0.0, parent, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self._open.pop()
            if count is not None:
                start = clock()
                span[5] = count(result)
                self.spans.append([BOOKKEEPING, "count", start, clock(), parent, None])
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every binding of every listed function in the loaded package."""
    importlib.import_module("fuzzycover.cli")
    modules = [m for n, m in sys.modules.items() if n == "fuzzycover" or n.startswith("fuzzycover.")]
    for layer, holder, attr, fn in resolve():
        wrapper = recorder.wrap(layer, attr, fn)
        if isinstance(holder, type):
            setattr(holder, attr, wrapper)
            continue
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, binding, wrapper)


def self_times(spans: list[list]) -> list[float]:
    """Duration minus child coverage, per span.

    A command is one thread, so the children of a span run one after another
    inside it and the part they cover is the sum of their durations.
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class LayerTotals:
    """Self time, calls and counts summed over traced commands.

    The two per-command ratios count only the work of the commands they are
    about: validations inside commands that load a file, and kernel calls
    inside commands that produce a result.  `check --random` and `gen` build
    systems of their own and stay out of both.
    """

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in [*LAYERS, ROOT_LAYER]}
        self.calls = dict.fromkeys(self.self_s, 0)
        self.rows = self.distinct_rows = self.instances = 0
        self.commands_loading = self.validations_loading = 0
        self.commands_result = self.kernel_calls_result = 0

    def add(self, spans: list[list], produces_result: bool = False) -> None:
        """Add the spans of one command (or of one set-up)."""
        calls = dict.fromkeys(self.calls, 0)
        for (layer, name, _, _, _, counts), own in zip(spans, self_times(spans)):
            if layer == BOOKKEEPING:
                continue
            self.self_s[layer] += own
            if name in CALLS_OF.get(layer, (name,)):
                calls[layer] += 1
            if name == "build_table":
                self.rows += counts[0]
                self.distinct_rows += counts[1]
            elif counts is not None:
                self.instances += counts[0]
        for layer, n in calls.items():
            self.calls[layer] += n
        if calls["sysio.load"]:
            self.commands_loading += 1
            self.validations_loading += calls["model.validate"]
        if produces_result:
            self.commands_result += 1
            self.kernel_calls_result += calls["single.kernel"]


def layer_metrics(totals: LayerTotals, setup: LayerTotals, passes: int,
                  out_bytes: int, overhead: float) -> dict:
    """Per-layer metrics per pass of the command list (generate: plus one set-up).

    `out_bytes` is already per pass.
    """
    per = 1.0 / passes
    t = totals
    m = {}
    for layer in ("neighborhood.build_table", "single.kernel", "single.ops", "multi.mg",
                  "model.validate", "sysio.load", "sysio.render", "oracle"):
        m[f"{layer}.self_s"] = t.self_s[layer] * per
        m[f"{layer}.calls"] = t.calls[layer] * per
    m["neighborhood.rows"] = t.rows * per
    m["neighborhood.distinct_rows"] = t.distinct_rows * per
    m["neighborhood.distinct_ratio"] = t.distinct_rows / t.rows if t.rows else 0.0
    m["single.kernel.per_cmd"] = t.kernel_calls_result / max(t.commands_result, 1)
    m["single.diagnostics.self_s"] = t.self_s["single.diagnostics"] * per
    m["model.validate.per_cmd"] = t.validations_loading / max(t.commands_loading, 1)
    m["cli.out_bytes"] = out_bytes
    m["cli.self_s"] = t.self_s[ROOT_LAYER] * per
    m["checks.self_s"] = t.self_s["checks"] * per
    m["checks.instances"] = t.instances * per
    m["generate.self_s"] = setup.self_s["generate"] + t.self_s["generate"] * per
    m["generate.calls"] = setup.calls["generate"] + t.calls["generate"] * per
    m["trace.overhead_ratio"] = overhead
    return {name: m[name] for name in PER_LAYER}
