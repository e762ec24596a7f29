"""End-to-end benchmark of the slanth batch CLI, with a traced per-layer run.

Run from the repository root:

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 20 --trace 0

With --trace 0, each pass of the workload runs its commands as
`python -m slanth ...` children (PYTHONPATH=src), one at a time, in a closed
loop; each child is reaped with os.wait4 for its own peak RSS. With --trace 1,
each pass is replayed in process by replay.py twice, with spans off and on,
and the per-layer metrics come from the replay with spans on. Either way
every output goes through gate.py, and passes repeat for --seconds seconds.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics of the mode, each a median over the passes. The lines before it
give the environment, sample counts and quartiles; out/ keeps a record of
the run, with the spans of a traced run.

--smoke shrinks the large windows so that a run takes seconds.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
from workloads import KINDS, LARGEST_OPERAND, VERIFY_SUITES, WORKLOADS, perturb_dump

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170
SETUP_INTERVAL_S = 1.0
MIN_PASSES = 2  # CLI runs; a traced pass already replays everything twice

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "build_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
}
# Command kinds that not every workload runs: printed, not in the JSON line.
EXTRA_KINDS = ("extract", "norm", "verify")

# Span names whose inclusive time is a per-layer metric `<name>.ms`.
TIMED_LAYERS = (
    "cli.import",
    *(f"cli.{kind}" for kind in KINDS),
    *(f"verify.{suite}" for suite in VERIFY_SUITES),
    "families.build_family",
    "families.build_compositional",
    "windowed.build_elementary",
    "windowed.compose",
    "windowed.dump_matrix",
    "windowed.load_matrix",
    "structure.check_slant_h_matrix",
    "structure.check_characterization",
    "structure.extract_symbol",
    "analysis.section_norm",
    "analysis.norm_bound_check",
    "symbol.parse_symbol",
    "symbol.sup_norm",
    "expr.parse_expr",
    "expr.eval_expr",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.ms": "ms" for name in TIMED_LAYERS}
    units.update({
        "families.build_family.entries": "count",
        "windowed.dump_matrix.mb": "MB",
        "windowed.load_matrix.mb": "MB",
        "windowed.build_elementary.calls": "count",
        "windowed.compose.calls": "count",
        "windowed.compose.gflop_computed": "GFLOP",
        "windowed.compose.density": "ratio",
        "structure.check_slant_h_matrix.instances": "count",
        "structure.check_characterization.instances": "count",
        "trace.replay_ms": "ms",
        "trace.self_ms": "ms",
        "trace.remainder_ms": "ms",
        "trace.overhead_ms": "ms",
    })
    return units


class SetupError(RuntimeError):
    """The program cannot be started, so nothing can be measured."""


def spawn(argv, cwd, env, stdout_path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class SetupSampler:
    """Wall times of fresh `import slanth.cli` children, spread over the run.

    Host speed drifts over tens of seconds, so samples are taken between
    commands, at most one per SETUP_INTERVAL_S, rather than in one burst.
    """

    def __init__(self, workdir, env):
        self.workdir, self.env = workdir, env
        self.samples = []
        self._last = None
        self._sample()  # warm-up: writes the bytecode caches of a fresh checkout
        self.samples.clear()

    def _sample(self):
        code, wall, _ = spawn(
            [sys.executable, "-c", "import slanth.cli"], self.workdir, self.env,
            os.path.join(self.workdir, "setup.out"),
        )
        if code != 0:
            raise SetupError(f"`import slanth.cli` exited {code}")
        self.samples.append(wall)
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= SETUP_INTERVAL_S:
            self._sample()

    def values(self) -> list:
        if not self.samples:
            self._sample()
        return self.samples


def cli_pass(commands, workdir, env, between=None):
    """Run a pass as CLI children: per command (exit, stdout, wall s, rss MB).

    `between`, if given, is called after each command, outside its timing.
    """
    outcomes = []
    for k, command in enumerate(commands):
        if command.perturb:
            source, target, row, col, delta = command.perturb
            try:
                perturb_dump(os.path.join(workdir, source), os.path.join(workdir, target), row, col, delta)
            except (OSError, ValueError):
                pass  # no target: the command fails and the gate counts it
        stdout_path = os.path.join(workdir, f"cmd{k}.out")
        code, wall, rss = spawn([sys.executable, "-m", "slanth", *command.argv], workdir, env, stdout_path)
        with open(stdout_path, "r", encoding="utf-8", errors="replace") as handle:
            outcomes.append((code, handle.read(), wall, rss))
        if between is not None:
            between()
    return outcomes


def gate_pass(commands, results, workdir) -> list:
    """Gate problems of a pass, as 'kind argv: problem' strings."""
    problems = []
    for command, (code, stdout) in zip(commands, results):
        problem = gate.check(command, code, stdout, workdir)
        if problem:
            problems.append(f"{' '.join(command.argv[:2])}: {problem}")
    return problems


def cli_metrics(commands, outcomes) -> dict:
    kinds = {kind: 0.0 for kind in KINDS}
    for command, (_, _, wall, _) in zip(commands, outcomes):
        kinds[command.kind] += wall
    metrics = {"wall_s": sum(kinds.values()), "peak_rss_mb": max(o[3] for o in outcomes)}
    metrics.update({f"{kind}_s": wall for kind, wall in kinds.items()})
    return metrics


def replay_pass(commands, workdir, env, spans: bool) -> dict:
    spec = {
        "workdir": workdir,
        "spans": spans,
        "commands": [
            {
                "kind": c.kind,
                "argv": list(c.argv),
                "perturb": None if c.perturb is None
                else [*c.perturb[:4], c.perturb[4].real, c.perturb[4].imag],
            }
            for c in commands
        ],
    }
    spec_path, result_path = os.path.join(workdir, "replay.json"), os.path.join(workdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    code, _, _ = spawn(
        [sys.executable, str(HERE / "replay.py"), spec_path, result_path],
        workdir, env, os.path.join(workdir, "replay.out"),
    )
    if code != 0:
        with open(os.path.join(workdir, "replay.out.err"), "r", encoding="utf-8") as handle:
            raise SetupError(f"in-process replay exited {code}: {handle.read()[-2000:]}")
    with open(result_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def layer_metrics(on: dict, off: dict) -> dict:
    layers, counts = on["layers"], on["counts"]
    metrics = {f"{name}.ms": layers.get(name, {}).get("ms", 0.0) for name in TIMED_LAYERS}
    dense = counts.get("windowed.compose.dense_entries", 0)
    metrics.update({
        "families.build_family.entries": counts.get("families.build_family.entries", 0),
        "windowed.dump_matrix.mb": counts.get("windowed.dump_matrix.mb", 0.0),
        "windowed.load_matrix.mb": counts.get("windowed.load_matrix.mb", 0.0),
        "windowed.build_elementary.calls": layers.get("windowed.build_elementary", {}).get("calls", 0),
        "windowed.compose.calls": layers.get("windowed.compose", {}).get("calls", 0),
        "windowed.compose.gflop_computed": counts.get("windowed.compose.gflop_computed", 0.0),
        "windowed.compose.density": counts.get("windowed.compose.nonzeros", 0) / dense if dense else 0.0,
        "structure.check_slant_h_matrix.instances":
            counts.get("structure.check_slant_h_matrix.instances", 0),
        "structure.check_characterization.instances":
            counts.get("structure.check_characterization.instances", 0),
    })
    self_ms = sum(layer["self_ms"] for layer in layers.values())
    metrics["trace.replay_ms"] = on["replay_ms"]
    metrics["trace.self_ms"] = self_ms
    metrics["trace.remainder_ms"] = on["replay_ms"] - self_ms
    metrics["trace.overhead_ms"] = on["real_ms"] - off["real_ms"]
    return metrics


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _getconf(name: str):
    try:
        text = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout
        return int(text.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(workload: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    rows, cols = LARGEST_OPERAND[workload]
    l3 = _getconf("LEVEL3_CACHE_SIZE")
    operand_bytes = rows * cols * 16
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "l2_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": l3,
        "largest_operand": f"{rows}x{cols} complex128",
        "largest_operand_mb": operand_bytes / 1e6,
        "largest_operand_fits_l3": None if l3 is None else operand_bytes <= l3,
    }


def summarize(samples: dict, units: dict) -> dict:
    """Median of each metric over the passes; prints n and quartiles."""
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        median = statistics.median(values)
        spread = ""
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f" q1={q1:.6g} q3={q3:.6g}"
        print(f"# {name} = {median:.6g} {unit} (n={len(values)}{spread})")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not (SRC / "slanth" / "cli.py").is_file():
        raise SetupError(f"no slanth sources under {SRC}")
    env = child_env()
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
              "environment": environment(workload), "passes": []}
    print("# environment " + json.dumps(record["environment"]))
    samples = {}
    attempted = failed = 0
    try:
        setup = None if trace else SetupSampler(str(workdir), env)
        deadline = time.perf_counter() + seconds
        p = 0
        while p < (1 if trace else MIN_PASSES) or time.perf_counter() < deadline:
            commands = WORKLOADS[workload](random.Random(f"{workload}:{seed}:{p}"), smoke)
            if trace:
                runs, problems = {}, []
                for spans in ((False, True) if p % 2 == 0 else (True, False)):
                    runs[spans] = replay_pass(commands, str(workdir), env, spans)
                    results = [(o["exit"], o["stdout"]) for o in runs[spans]["outputs"]]
                    problems += gate_pass(commands, results, str(workdir))
                    attempted += len(commands)
                failed += len(problems)
                metrics = layer_metrics(runs[True], runs[False])
                entry = {"metrics": metrics, "problems": problems, "spans": runs[True]["spans"],
                         "layers": runs[True]["layers"]}
            else:
                outcomes = cli_pass(commands, str(workdir), env, setup.maybe_sample)
                problems = gate_pass(commands, [(o[0], o[1]) for o in outcomes], str(workdir))
                attempted += len(commands)
                failed += len(problems)
                metrics = cli_metrics(commands, outcomes)
                entry = {"metrics": metrics, "problems": problems,
                         "commands": [[c.kind, o[0], o[2], o[3]] for c, o in zip(commands, outcomes)]}
            for problem in problems:
                print(f"# FAILED pass {p}: {problem}")
            for name, value in metrics.items():
                samples.setdefault(name, []).append(value)
            record["passes"].append(entry)
            p += 1
        if setup is not None:
            samples["setup_s"] = setup.values()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# passes={p} attempted={attempted} failed={failed} fail_ratio={failed / attempted!r}")
    if trace:
        metrics = summarize(samples, per_layer_units())
        _print_self_times(record["passes"])
    else:
        metrics = summarize(samples, END_TO_END)
        ran = [kind for kind in EXTRA_KINDS if any(samples[f"{kind}_s"])]
        summarize({f"{kind}_s": samples[f"{kind}_s"] for kind in ran}, {f"{kind}_s": "s" for kind in ran})
    record.update({"attempted": attempted, "failed": failed, "metrics": metrics})
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    mode = "trace" if trace else "e2e"
    with open(out / f"{mode}-{workload}-{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_self_times(passes) -> None:
    """Self time per span name in the last traced pass, largest first."""
    layers = passes[-1]["layers"]
    for name, layer in sorted(layers.items(), key=lambda item: -item[1]["self_ms"]):
        print(f"# self {name}: {layer['self_ms']:.3f} ms of {layer['ms']:.3f} ms, calls={layer['calls']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny windows; a run takes seconds")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except SetupError as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
