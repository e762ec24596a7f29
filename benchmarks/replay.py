"""In-process traced replay of one benchmark pass.

Usage: PYTHONPATH=src python replay.py SPEC RESULT

SPEC is a JSON file written by run.py:
    {"workdir": ..., "spans": true|false,
     "commands": [{"kind": ..., "argv": [...], "perturb": [...] | null}, ...]}

The replay imports slanth.cli (timed as the span `cli.import`, so numpy's
import is part of it) and calls `slanth.cli.main(argv)` for each command with
stdout captured, inside a span `cli.<kind>`. With spans on, every public
function listed in TARGETS, each verification suite and `CheckReport.render`
is replaced, wherever a slanth module refers to it, by a wrapper that records
a span; nested calls therefore nest. Spans stay in memory and are written to
RESULT at the end, with per-name calls, inclusive time and self time.

Counters run after their span has closed, and the tracer's clock leaves out
the time they take, so spans and the replay's wall time exclude them; the
replay with spans on minus the one with spans off is the tracing overhead.
"""

import contextlib
import importlib
import io
import json
import os
import sys
import time
import traceback
from collections import defaultdict

from workloads import perturb_dump


class Tracer:
    """Spans as [name, start, end, parent index] on a clock that skips counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._excluded = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self.now(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.now()

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                start = time.perf_counter()
                counter(self.counts, args, result)
                self.exclude(time.perf_counter() - start)
            return result

        return traced


def _count_entries(counts, args, result):
    counts["families.build_family.entries"] += result.rows.size * result.cols.size


def _count_dump(counts, args, result):
    counts["windowed.dump_matrix.mb"] += len(result) / 1e6


def _count_load(counts, args, result):
    counts["windowed.load_matrix.mb"] += len(args[0]) / 1e6


def _count_compose(counts, args, result):
    import numpy as np  # already loaded by slanth

    a, b = args[0], args[1]
    m, k, n = a.rows.size, b.rows.size, b.cols.size
    counts["windowed.compose.gflop_computed"] += 8 * m * k * n / 1e9
    if k and a.cols.covers(b.rows):
        lo = b.rows.lo - a.cols.lo
        used = a.data[:, lo : lo + k]
        counts["windowed.compose.nonzeros"] += np.count_nonzero(used) + np.count_nonzero(b.data)
        counts["windowed.compose.dense_entries"] += m * k + k * n


def _count_instances(name):
    def counter(counts, args, result):
        counts[f"{name}.instances"] += result.checked

    return counter


# (module, function, counter) of every public call that gets a span.
TARGETS = [
    ("slanth.symbol", "parse_symbol", None),
    ("slanth.symbol", "sup_norm", None),
    ("slanth.expr", "parse_expr", None),
    ("slanth.expr", "eval_expr", None),
    ("slanth.families", "build_family", _count_entries),
    ("slanth.families", "build_compositional", None),
    ("slanth.windowed", "build_elementary", None),
    ("slanth.windowed", "compose", _count_compose),
    ("slanth.windowed", "dump_matrix", _count_dump),
    ("slanth.windowed", "load_matrix", _count_load),
    ("slanth.structure", "check_slant_h_matrix", _count_instances("structure.check_slant_h_matrix")),
    ("slanth.structure", "check_characterization", _count_instances("structure.check_characterization")),
    ("slanth.structure", "extract_symbol", None),
    ("slanth.analysis", "section_norm", None),
    ("slanth.analysis", "norm_bound_check", None),
]


def install(tracer: Tracer) -> None:
    """Route every slanth reference to a TARGETS function through a span."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "slanth"]
    for module_name, attr, counter in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        traced = tracer.wrap(f"{module_name.split('.')[1]}.{attr}", original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    structure = sys.modules["slanth.structure"]
    structure.CheckReport.render = tracer.wrap("structure.CheckReport.render", structure.CheckReport.render)
    verify = sys.modules["slanth.verify"]
    verify.CHECKS[:] = [(name, tracer.wrap(f"verify.{name}", fn)) for name, fn in verify.CHECKS]


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive ms of outermost activations, and self ms."""
    covered = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = layers.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += (end - start - covered[index]) * 1e3
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # a recursive call is already inside its caller's time
            entry["ms"] += (end - start) * 1e3
    return layers


def replay(spec: dict) -> dict:
    tracer = Tracer()
    real_start = time.perf_counter()
    start = tracer.now()
    with tracer.span("cli.import"):
        cli = importlib.import_module("slanth.cli")
    if spec["spans"]:
        install(tracer)
    os.chdir(spec["workdir"])
    outputs = []
    for command in spec["commands"]:
        if command["perturb"]:
            began = time.perf_counter()
            source, target, row, col, re_delta, im_delta = command["perturb"]
            try:
                perturb_dump(source, target, row, col, complex(re_delta, im_delta))
            except (OSError, ValueError):
                pass  # no target: the command fails and the gate counts it
            tracer.exclude(time.perf_counter() - began)
        buffer = io.StringIO()
        with tracer.span(f"cli.{command['kind']}"), contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(command["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a CLI child would die with this traceback and exit 1
                traceback.print_exc()
                code = 1
        outputs.append({"exit": code, "stdout": buffer.getvalue()})
    replay_ms = (tracer.now() - start) * 1e3
    return {
        "replay_ms": replay_ms,
        "real_ms": (time.perf_counter() - real_start) * 1e3,
        "outputs": outputs,
        "layers": aggregate(tracer.spans),
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    result = replay(spec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
