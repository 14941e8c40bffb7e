"""Span tracing of xmodal's public functions, installed from outside.

A :class:`Tracer` rebinds every public function of the traced layer
modules, in every ``xmodal`` namespace that imported it, to a wrapper
that records one span per call: name, start, end, parent span and op
id. Spans stay in memory; self time (a span's duration minus the time
its child spans cover) is computed after the op, so the wrappers do as
little as possible while the program runs.

Besides module-level functions the tracer wraps ``RankedList.__init__``
(the class is constructed once per query) and the optimizer step
closure that ``trainer.make_optimizer`` returns. Counters that need the
arguments or the result of a call (rows, cells, bytes, ranking sizes)
are taken by hooks that run in their own ``trace.hook`` span, so their
cost is charged to tracing and not to the layer that called. Hooks read
arguments and results only and call no traced function, so they add no
spans of the program's layers; :func:`nesting_errors` would reject the
overlap such a call makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

PACKAGE = "xmodal"

# The layers are xmodal's modules; every public function of each is traced.
LAYERS = (
    "cli",
    "runconfig",
    "world",
    "rng",
    "trainer",
    "objective",
    "baselines",
    "embeddings",
    "evaluation",
    "storage",
    "pipeline",
)
# Spans whose extra traced memory is measured when memory tracking is on.
PEAK_MB_SPANS = ("pipeline.prepare_world", "pipeline.evaluate_trained")
HOOK_SPAN = "trace.hook"

# A span is [name, start, end, parent index, op id]; lists are cheaper
# to fill in place than objects.
NAME, START, END, PARENT, OP = range(5)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self seconds of each span: its duration minus its children's.

    Children are the spans whose parent index points at the span; on
    one thread they nest strictly inside it, so their durations add.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
    return [span[END] - span[START] - child_time[i] for i, span in enumerate(spans)]


def public_functions(module) -> List[Tuple[str, Callable]]:
    """(name, function) for the public functions a module defines itself.

    Public means not underscore-prefixed; ``__all__`` is not used because
    the CLI imports pipeline functions that it does not list.
    """
    return [
        (name, value)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def _bound(signature: inspect.Signature, args, kwargs) -> Dict[str, object]:
    return signature.bind(*args, **kwargs).arguments


class Tracer:
    """Wrappers for the traced layers plus the spans and counts they record."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.peak_bytes: Dict[Tuple[int, str], int] = {}
        self.op_id = -1
        self.track_memory = False
        self.hook_errors = 0
        self._stack: List[int] = []
        self._plan: List[Tuple[object, str, object, object]] = []
        self._installed = False
        self._op_first: Dict[int, int] = {}
        self._op_spans: Dict[int, Tuple[int, int]] = {}
        self._build_plan()

    # -- installation -----------------------------------------------------

    def _build_plan(self) -> None:
        """Work out every (owner, attribute, original, wrapper) rebinding."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, module in modules.items():
            for attr, function in public_functions(module):
                wrapper = self._wrap(f"{layer}.{attr}", function)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is function:
                            self._plan.append((namespace, key, function, wrapper))
        # RankedList is built once per query, so its construction is a
        # layer boundary of its own.
        ranked_list = modules["evaluation"].RankedList
        init = ranked_list.__dict__["__init__"]
        self._plan.append((ranked_list, "__init__", init, self._wrap("evaluation.RankedList", init)))

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = True

    def remove(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)
        self._installed = False

    # -- recording --------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[(self.op_id, key)] += value

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        signature = inspect.signature(function) if hook is not None else None
        # The optimizer step is a closure that make_optimizer returns.
        wraps_step = name == "trainer.make_optimizer"
        measure_memory = name in PEAK_MB_SPANS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            memory_base = None
            if measure_memory and self.track_memory:
                memory_base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if memory_base is not None:
                key = (self.op_id, name)
                peak = tracemalloc.get_traced_memory()[1] - memory_base
                self.peak_bytes[key] = max(peak, self.peak_bytes.get(key, 0))
            if hook is not None:
                self._run_hook(hook, parent, signature, args, kwargs, result)
            if wraps_step:
                result = self._wrap("trainer.optimizer_step", result)
            return result

        return functools.wraps(function)(wrapper)

    def _run_hook(self, hook, parent, signature, args, kwargs, result) -> None:
        span = [HOOK_SPAN, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(span)
        try:
            hook(self, lambda: _bound(signature, args, kwargs), result)
        except Exception:  # an API change upstream must not abort the op
            self.hook_errors += 1
        span[END] = time.perf_counter()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.clear()
        self._op_first[op_id] = len(self.spans)

    def end_op(self) -> None:
        first = self._op_first[self.op_id]
        self._op_spans[self.op_id] = (first, len(self.spans))
        self.op_id = -1

    def op_ids(self) -> List[int]:
        return sorted(self._op_spans)

    def op_spans(self, op_id: int) -> List[list]:
        """The op's spans, parent indices rebased to the returned list."""
        first, last = self._op_spans[op_id]
        return [
            [s[NAME], s[START], s[END], s[PARENT] - first if s[PARENT] >= 0 else -1, s[OP]]
            for s in self.spans[first:last]
        ]


# -- counters ---------------------------------------------------------------


def _count_rows(tracer: Tracer, bound, result) -> None:
    tracer.add("objective.distill_loss.rows", result.batch_size)


def _count_cells(tracer: Tracer, bound, result) -> None:
    tracer.add("embeddings.similarity_matrix.cells", result.size)


def _count_bytes(name: str) -> Callable:
    def hook(tracer: Tracer, bound, result) -> None:
        tracer.add(f"{name}.bytes", os.path.getsize(bound()["path"]))

    return hook


def _count_sorted(tracer: Tracer, bound, result) -> None:
    tracer.add("evaluation.positions_sorted", result.size)


def _count_read_ranked(tracer: Tracer, bound, result) -> None:
    arguments = bound()
    k = arguments.get("k")
    read = 0
    for ranked in arguments["ranked_lists"]:
        size = len(ranked.gallery_order)
        read += size if k is None else min(k, size)
    tracer.add("evaluation.positions_read", read)


def _count_read_knn(tracer: Tracer, bound, result) -> None:
    arguments = bound()
    tracer.add("evaluation.positions_read", arguments["queries"].n_items * arguments["k"])


def _count_cascade(tracer: Tracer, bound, result) -> None:
    # Clips of one predicted class get the same ranking, so the distinct
    # rankings are the distinct predicted classes (unless two classes rank
    # the gallery identically, which only lowers the count).
    distinct = {hash((r.gallery_order.tobytes(), r.scores.tobytes())) for r in result}
    tracer.add("evaluation.positions_sorted", sum(len(r.gallery_order) for r in result))
    tracer.add("baselines.cascade.rankings", len(result))
    tracer.add("baselines.cascade.distinct_classes", len(distinct))


def _count_steps(tracer: Tracer, bound, result) -> None:
    tracer.add("trainer.train_adapter.steps", result.steps)


def _count_clips(tracer: Tracer, bound, result) -> None:
    tracer.add("pipeline.evaluate_trained.clips", bound()["prepared"].eval_view.audio_features.n_items)


_HOOKS: Dict[str, Callable] = {
    "objective.distill_loss": _count_rows,
    "embeddings.similarity_matrix": _count_cells,
    "storage.save_params": _count_bytes("storage.save_params"),
    "storage.load_params": _count_bytes("storage.load_params"),
    "storage.write_embedding_set": _count_bytes("storage.write_embedding_set"),
    "evaluation.rank_by_score": _count_sorted,
    "evaluation.map_from_ranked": _count_read_ranked,
    "evaluation.knn_classify": _count_read_knn,
    "baselines.cascaded_zero_shot_baseline": _count_cascade,
    "trainer.train_adapter": _count_steps,
    "pipeline.evaluate_trained": _count_clips,
}


# -- per-op aggregation -----------------------------------------------------


def op_metrics(tracer: Tracer, op_id: int, wall_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced op, keyed by metric name.

    ``wall_s`` is the op's wall time as the harness measured it around
    the call, outside every wrapper.
    """
    spans = tracer.op_spans(op_id)
    out: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    layer_self = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        if name != HOOK_SPAN:
            layer_self += self_s
        if span[PARENT] < 0 or spans[span[PARENT]][NAME] != name:
            inclusive[name] += span[END] - span[START]
    for (op, key), value in tracer.counts.items():
        if op == op_id:
            out[key] += value
    for (op, name), peak in tracer.peak_bytes.items():
        if op == op_id:
            out[f"{name}.peak_mb"] = peak / 2**20
    out["trace.accounted_frac"] = layer_self / wall_s
    for metric, numerator, denominator in _RATIOS:
        if out.get(denominator):
            out[metric] = out[numerator] / out[denominator]
    for metric, count, name in _RATES:
        if inclusive.get(name):
            out[metric] = out[count] / inclusive[name]
    return dict(out)


_RATIOS = (
    ("evaluation.sorted_used_ratio", "evaluation.positions_read", "evaluation.positions_sorted"),
    ("baselines.cascade.distinct_ratio", "baselines.cascade.distinct_classes", "baselines.cascade.rankings"),
)
_RATES = (
    ("trainer.train_adapter.steps_per_s", "trainer.train_adapter.steps", "trainer.train_adapter"),
    ("pipeline.evaluate_trained.clips_per_s", "pipeline.evaluate_trained.clips", "pipeline.evaluate_trained"),
)


def nesting_errors(spans: Sequence[Sequence]) -> List[str]:
    """Why the spans do not form a proper call tree; empty when they do.

    Self times mean something only when every span lies inside its
    parent, siblings (roots included) do not overlap, and so no self time
    is negative. A wrapper that records a span under the wrong parent, or
    a hook that calls a traced function, breaks one of these.
    """
    errors: List[str] = []
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[END] < span[START]:
            errors.append(f"span {i} {span[NAME]} ends before it starts")
        parent = span[PARENT]
        if parent >= 0 and not spans[parent][START] <= span[START] <= span[END] <= spans[parent][END]:
            errors.append(f"span {i} {span[NAME]} is not inside its parent {parent} {spans[parent][NAME]}")
        children[parent].append(i)
    for siblings in children.values():
        siblings.sort(key=lambda i: spans[i][START])
        for a, b in zip(siblings, siblings[1:]):
            if spans[b][START] < spans[a][END]:
                errors.append(f"sibling spans {a} {spans[a][NAME]} and {b} {spans[b][NAME]} overlap")
    errors.extend(
        f"span {i} {spans[i][NAME]} has negative self time {value:.3g} s"
        for i, value in enumerate(self_times(spans))
        if value < -1e-9  # summing child durations may round below 0
    )
    return errors


def median_metrics(per_op: Sequence[Dict[str, float]], names: Sequence[str]) -> Dict[str, float]:
    """Median over ops of each named metric; an op that lacks it counts 0."""
    return {name: statistics.median(op.get(name, 0.0) for op in per_op) for name in names}
