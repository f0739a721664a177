"""Outside-in span recording around narytd's public functions.

A Recorder replaces each listed function by a timing wrapper wherever a
narytd module looks it up (modules import these functions by name, so
the wrapper goes into every module namespace that holds the original
object). Spans live in flat in-memory arrays with parent links and are
written out when a run ends. Self time is a span's duration minus the
durations of its direct children, so the self times of one tree sum to
its root's duration by construction; `structure_problems` checks what
can actually go wrong (several roots, a span outside its parent, a
negative self time).

Spans from several processes are merged by `Recorder.extend`; all
processes read `time.perf_counter`, which on Linux is CLOCK_MONOTONIC
and therefore shared by every process on the machine.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

clock = time.perf_counter


# ---------------------------------------------------------------------------
# work counts taken from argument and result shapes


def _context_flops(args, kwargs, out):
    """Nominal multiply-adds of the block sum: B * nnz(codes) * (P - 1) * ds."""
    codes, X = args[0], args[1]
    B, P, _, ds = np.shape(X)
    return {"flops": float(B * np.count_nonzero(codes) * (P - 1) * ds)}


def _result_bytes(args, kwargs, out):
    return {"bytes": float(out.nbytes)}


def _candidate_bytes(args, kwargs, out):
    return {"out_bytes": float(out.nbytes)}


def _distinct_samples(args, kwargs, out):
    """Distinct sampled code vectors among the lam draws of one call."""
    keys = {
        tuple(arch[n].codes.tobytes() for n in arch.arities()) for arch, _stat in out
    }
    return {"distinct": float(len(keys)), "samples": float(len(out))}


# (layer name, module, attribute path, work counter or None)
LAYERS = (
    ("kernels.context_batch", "narytd.kernels", "context_batch", _context_flops),
    ("kernels.score_batch", "narytd.kernels", "score_batch", None),
    ("blocks.pack_participants", "narytd.blocks", "pack_participants", _result_bytes),
    ("model.candidate_scores", "narytd.model", "candidate_scores", _candidate_bytes),
    ("model.grad_embeddings_mc", "narytd.model", "grad_embeddings_mc", None),
    ("model.adam_step", "narytd.model", "adam_step", None),
    ("model.save_checkpoint", "narytd.model", "save_checkpoint", None),
    ("model.load_checkpoint", "narytd.model", "load_checkpoint", None),
    ("evaluation.filtered_rank", "narytd.evaluation", "filtered_rank", None),
    ("evaluation.evaluate", "narytd.evaluation", "evaluate", None),
    ("data.FilterIndex.fillers", "narytd.data", "FilterIndex.fillers", None),
    ("data.build_filter_index", "narytd.data", "build_filter_index", None),
    ("data.load_dataset_dir", "narytd.data", "load_dataset_dir", None),
    ("search.validation_utility", "narytd.search", "validation_utility", None),
    ("search.sample_architectures", "narytd.search", "sample_architectures", _distinct_samples),
    ("search.theta_gradient", "narytd.search", "theta_gradient", None),
    ("search.asng_update", "narytd.search", "asng_update", None),
    ("search.search_loop", "narytd.search", "search_loop", None),
    ("training.train_fixed", "narytd.training", "train_fixed", None),
    ("synth.generate_planted", "narytd.synth", "generate_planted", None),
)

def _resolve(module_name: str, path: str):
    """(owner, attribute, object) for 'func' or 'Class.method' in a module."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def _narytd_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "narytd" or name.startswith("narytd."))
    ]


class Patches:
    """Replacements of one object by another in every narytd namespace."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, original, replacement) -> None:
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets += [
                (m, name)
                for m in _narytd_modules()
                for name, value in vars(m).items()
                if value is original and (m, name) != (owner, attr)
            ]
        for target, name in targets:
            self._undo.append((target, name, original))
            setattr(target, name, replacement)

    def restore(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()


class Recorder:
    """Span store plus the wrappers that fill it.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals. `span(name)` records a span around benchmark
    code that is not a narytd function (set-up, a pass, a child process).
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, dict[str, float]] = {}
        self._stack = [-1]
        self._patches = Patches()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording ---------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.name_of)
        self.name_of.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(clock() if start is None else start)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.end[idx] = clock() if end is None else end
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, fn, name: str, work_fn):
        name_id = self.name_id(name)
        name_of, parent, starts, ends, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack,
        )
        work = self.work

        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if work_fn is not None:
                totals = work.setdefault(name, {})
                for stat, value in work_fn(args, kwargs, out).items():
                    totals[stat] = totals.get(stat, 0.0) + value
            return out

        return wrapper

    def __enter__(self):
        for name, module_name, path, work_fn in LAYERS:
            found = _resolve(module_name, path)
            if found is None:  # layer absent from this version of narytd
                continue
            owner, attr, original = found
            self._patches.replace(owner, attr, original, self._wrap(original, name, work_fn))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    # -- merging and output -------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name_of),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "work": self.work,
        }

    def extend(self, doc: dict, parent_idx: int) -> None:
        """Append another recorder's spans below span `parent_idx`."""
        base = len(self.name_of)
        ids = [self.name_id(n) for n in doc["names"]]
        self.name_of.extend(ids[i] for i in doc["name"])
        self.parent.extend(parent_idx if p < 0 else base + p for p in doc["parent"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        for name, stats in doc["work"].items():
            totals = self.work.setdefault(name, {})
            for stat, value in stats.items():
                totals[stat] = totals.get(stat, 0.0) + value

    def save(self, path: Path) -> None:
        """Write the spans as a compressed npz with their name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def structure_problems(self, root: str, tol: float) -> list[str]:
        """What is wrong with the span tree, if anything.

        There must be exactly one span without a parent, named `root`;
        every other span must lie within its parent's [start, end], and no
        self time may be negative, each up to `tol` seconds. Spans merged
        from other processes are held to the same rules.
        """
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        problems = []
        roots = [self.names[i] for i in name[parent < 0]]
        if roots != [root]:
            problems.append(f"spans have roots {roots[:5]} ({len(roots)}), expected [{root!r}]")
        inner = np.flatnonzero(parent >= 0)
        up = parent[inner]
        outside = inner[(start[inner] < start[up] - tol) | (end[inner] > end[up] + tol)]
        if outside.size:
            i = int(outside[0])
            problems.append(
                f"{outside.size} spans lie outside their parent; first: "
                f"{self.names[name[i]]} [{start[i]:.6f}, {end[i]:.6f}] in "
                f"{self.names[name[parent[i]]]} [{start[parent[i]]:.6f}, {end[parent[i]]:.6f}]"
            )
        child_time = np.zeros(len(name))
        np.add.at(child_time, up, end[inner] - start[inner])
        negative = np.flatnonzero(end - start - child_time < -tol)
        if negative.size:
            i = int(negative[0])
            problems.append(f"{negative.size} spans have negative self time; first: "
                            f"{self.names[name[i]]}, {end[i] - start[i] - child_time[i]:.3g} s")
        return problems

    def summarize(self) -> dict:
        """Per-name calls, total and self seconds, plus the work counts.

        Returns {"layers": {...}, "root_s", "self_sum_s", "spans"}, where
        root_s sums the durations of the spans that have no parent.
        """
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        inner = parent >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, parent[inner], dur[inner])
        self_time = dur - child_time
        layers = {}
        for nid in np.unique(name):
            sel = name == nid
            label = self.names[nid]
            layers[label] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
            layers[label].update(self.work.get(label, {}))
        return {
            "layers": layers,
            "root_s": float(dur[~inner].sum()),
            "self_sum_s": float(self_time.sum()),
            "spans": int(len(dur)),
        }


class Probe:
    """Clock reads at optimizer-step returns and a tap on training losses.

    Installed in untraced and traced runs alike; it adds one clock read
    per `adam_step` call and one list append per `grad_embeddings_mc` call.
    """

    def __init__(self):
        self.step_returns: list[float] = []
        self.losses: list[float] = []
        self._patches = Patches()

    def __enter__(self):
        steps, losses = self.step_returns, self.losses
        found = _resolve("narytd.model", "adam_step")
        if found is not None:
            owner, attr, current = found

            def adam_step(*args, **kwargs):
                out = current(*args, **kwargs)
                steps.append(clock())
                return out

            self._patches.replace(owner, attr, current, adam_step)
        found = _resolve("narytd.model", "grad_embeddings_mc")
        if found is not None:
            owner, attr, current_grad = found

            def grad_embeddings_mc(*args, **kwargs):
                out = current_grad(*args, **kwargs)
                losses.append(float(out[1]))
                return out

            self._patches.replace(owner, attr, current_grad, grad_embeddings_mc)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False
