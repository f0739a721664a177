"""One benchmark run: set-ups, timed passes, traced units and the metrics.

Imported by run.py after the BLAS thread count is fixed; see run.py for
the command line and the output format.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import narytd
import narytd.kernels
import workloads as wl
from spans import Probe, Recorder, clock

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# One set-up sample is the mean of back-to-back set-ups that together take
# at least SETUP_SAMPLE_S: on a shared host the CPU speed can change several
# times a second, and a sample that spans changes is steadier than a single
# short set-up. Taking a sample before each pass exposes set-up and passes
# to the same slower drift.
SETUP_SAMPLE_S = 0.5
SPAN_TOL = 1e-6  # seconds; how far a span may stick out of its parent


class InProcess:
    """A workload whose set-up and passes run in this process."""

    recorder_installed = True

    def __init__(self, setup, run_pass):
        self._setup, self._pass = setup, run_pass

    def setup(self, ctx):
        start = clock()
        inputs = self._setup(ctx)
        return inputs, clock() - start

    def run_pass(self, inputs, ctx):
        return self._pass(inputs, ctx)

    def dataset(self, inputs):
        return inputs[0]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliPipeline:
    """cli-4ary: every command runs as its own process.

    The recorder in this process only holds the spans of the commands
    (spawn to exit) and the child spans merged into them; it patches
    nothing here, so the artifact checks made between commands are not
    traced.
    """

    recorder_installed = False

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._datasets = {}

    def setup(self, ctx):
        data, wall = wl.setup_cli(ctx, self.env)
        dataset = wl.load_cli_dataset(data)
        self._datasets[data] = dataset, narytd.build_filter_index(dataset)
        return data, wall

    def run_pass(self, data, ctx):
        return wl.pass_cli(data, ctx, self.env, *self._datasets[data])

    def dataset(self, data):
        return self._datasets[data][0]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def make_job(workload: str):
    if workload == "search-planted":
        return InProcess(wl.setup_search_planted, wl.pass_search_planted)
    if workload == "train-eval-20k":
        return InProcess(wl.setup_train_eval, wl.pass_train_eval)
    return CliPipeline()


class Tally:
    """Operations attempted and failed across a run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, outcome: wl.Outcome) -> None:
        if outcome.deferred is not None:
            outcome.failures += outcome.deferred()
            outcome.deferred = None
        self.attempted += outcome.ops
        self.failed += min(outcome.ops, len(outcome.failures))
        self.messages += outcome.failures

    def crashed(self, what: str, ops: int = 1) -> None:
        self.attempted += ops
        self.failed += ops
        self.messages.append(f"{what} raised:\n{traceback.format_exc()}")

    def flag(self, message: str) -> None:
        """A failed check on operations already counted as attempted."""
        self.failed += 1
        self.messages.append(message)


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    run_dir = out_dir / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "work").mkdir(parents=True)
    job = make_job(workload)
    ctx = wl.Context(seed=seed, workdir=run_dir / "work", probe=Probe(), recorder=None)
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    print(f"# perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")

    with ctx.probe:
        if trace:
            metrics = traced_runs(job, ctx, seconds, tally, record, run_dir)
        else:
            metrics = timed_runs(job, ctx, seconds, tally, record)

    for message in tally.messages:
        print(f"# FAILED {message}")
    record["failures"] = tally.messages
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record["result"] = result
    (run_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def setup_sample(job, ctx, tally, record=None):
    """(inputs, mean seconds per set-up) over back-to-back set-ups.

    With `record`, also fingerprints the inputs into it.
    """
    walls, inputs = [], None
    while inputs is None or sum(walls) < SETUP_SAMPLE_S:
        try:
            inputs, wall = job.setup(ctx)
        except Exception:  # counted as a failed operation; the run stops
            tally.crashed("set-up")
            raise
        tally.attempted += 1
        walls.append(wall)
    if record is not None and "inputs" not in record:
        record["inputs"] = wl.fingerprint(job.dataset(inputs))
        print(f"# inputs {json.dumps(record['inputs'], sort_keys=True)}")
    return inputs, sum(walls) / len(walls)


def _pass(job, inputs, ctx, tally, what):
    """A checked pass, or None if it raised. A pass that fails a check is
    still timed; its failures make the run's result incorrect."""
    try:
        outcome = job.run_pass(inputs, ctx)
    except Exception:  # counted as a failed operation; the run goes on
        tally.crashed(what)
        return None
    tally.add(outcome)
    return outcome


def timed_runs(job, ctx, seconds, tally, record) -> dict:
    """Rounds of one set-up sample and one pass, until the next would overrun."""
    setups, passes = [], []
    start = clock()
    while True:
        began = clock()
        inputs, setup_s = setup_sample(job, ctx, tally, record)
        setups.append(setup_s)
        outcome = _pass(job, inputs, ctx, tally, "pass")
        inputs = None  # release before the next set-up builds new ones
        if outcome is not None:
            passes.append(outcome)
        if clock() - start + (clock() - began) > seconds:
            break
    if not passes:
        raise RuntimeError("every pass raised:\n" + "\n".join(tally.messages))

    steps_ms = np.array([s for p in passes for s in p.step_intervals]) * 1e3
    stages = {
        key: statistics.median(p.stages[key] for p in passes if key in p.stages)
        for key in sorted({k for p in passes for k in p.stages})
    }
    stages["step_ms_p50"] = float(np.percentile(steps_ms, 50))
    stages["step_ms_p95"] = float(np.percentile(steps_ms, 95))
    stages["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    values = {
        "setup_s": statistics.median(setups),
        # the mean, not the median: on a shared host the CPU speed can sit
        # at one of two levels for tens of seconds, and a median of passes
        # lands on one level where the mean averages them
        "wall_s": statistics.fmean(p.wall_s for p in passes),
        "peak_rss_mb": job.peak_rss_mb(),
        "mean_loss": statistics.median(p.mean_loss for p in passes if math.isfinite(p.mean_loss)),
    }
    record.update(setups_s=setups, passes=[_pass_doc(p) for p in passes], stages=stages)
    print(f"# {len(setups)} set-up samples, {len(passes)} passes, "
          f"{steps_ms.size} optimizer steps timed")
    print("# stage figures: medians over passes; step_ms_* over all timed optimizer steps")
    for name, value in stages.items():
        print(f"  {name:<40}{value:>16.6g}")
    return _select(SPEC["end_to_end"], values)


def traced_runs(job, ctx, seconds, tally, record, run_dir) -> dict:
    inputs = setup_sample(job, ctx, tally, record)[0]
    plain, traced, units = [], [], []
    start = clock()
    last_traced = None
    while True:
        began = clock()
        outcome = _pass(job, inputs, ctx, tally, "untraced pass")
        if outcome is not None:
            plain.append(outcome.wall_s)
        recorder = Recorder()
        ctx.recorder = recorder
        try:
            with recorder if job.recorder_installed else nullcontext():
                with recorder.span("bench.unit"):
                    with recorder.span("bench.setup"):
                        unit_inputs, _ = job.setup(ctx)
                    with recorder.span("bench.pass"):
                        outcome = job.run_pass(unit_inputs, ctx)
            tally.attempted += 1  # the traced set-up
            tally.add(outcome)
            traced.append(outcome.wall_s)
            units.append(recorder.summarize())
            for problem in recorder.structure_problems("bench.unit", SPAN_TOL):
                tally.flag(f"traced unit: {problem}")
            last_traced = recorder
        except Exception:  # counted as a failed operation; the run goes on
            tally.crashed("traced unit", ops=2)
        finally:
            ctx.recorder = None
        if clock() - start + (clock() - began) > seconds:
            break
    if not (plain and traced):
        raise RuntimeError("every pass or traced unit raised:\n" + "\n".join(tally.messages))
    last_traced.save(run_dir / "spans.npz")

    values = {
        "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(plain),
        "trace.spans": statistics.median(u["spans"] for u in units),
    }
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name not in values:
            layer, stat = name.rsplit(".", 1)
            values[name] = statistics.median(_layer_stat(u, layer, stat) for u in units)
    record.update(untraced_walls_s=plain, traced_walls_s=traced, units=units)
    _print_layers(units[-1], values)
    return _select(SPEC["per_layer"], values)


def _layer_stat(summary, layer, stat):
    entry = summary["layers"].get(layer, {})
    if stat == "distinct_ratio":
        samples = entry.get("samples", 0.0)
        return entry.get("distinct", 0.0) / samples if samples else 0.0
    return entry.get(stat, 0)


def _print_layers(summary, values):
    root = summary["root_s"]
    print(f"# last traced unit: {summary['spans']} spans over {root:.4f} s; "
          f"self times sum to {summary['self_sum_s']:.4f} s; "
          f"tracing overhead {values['trace.overhead_s']:.4f} s per pass")
    print(f"  {'layer':<32}{'calls':>9}{'self_s':>11}{'share':>8}{'total_s':>11}  work")
    rows = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for layer, entry in rows:
        work = {k: v for k, v in entry.items() if k not in ("calls", "self_s", "total_s")}
        print(f"  {layer:<32}{entry['calls']:>9}{entry['self_s']:>11.4f}"
              f"{entry['self_s'] / root:>8.1%}{entry['total_s']:>11.4f}  "
              + " ".join(f"{k}={v:.6g}" for k, v in work.items()))


def _select(specs, values) -> dict:
    out = {}
    for metric in specs:
        value = values[metric["name"]]
        if not math.isfinite(value):
            raise RuntimeError(f"metric {metric['name']} is {value}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<40}{value:>16.6g} {metric['unit']}")
    return out


def _pass_doc(outcome: wl.Outcome) -> dict:
    return {"wall_s": outcome.wall_s, "mean_loss": outcome.mean_loss, "stages": outcome.stages,
            "steps": len(outcome.step_intervals)}


def environment() -> dict:
    """Facts that change what a run measures, recorded with every run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = getattr(narytd.kernels, "backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": backend() if backend else "numpy (no backend() in this version)",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the requested one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown; requested " + os.environ.get("OPENBLAS_NUM_THREADS", "default")
