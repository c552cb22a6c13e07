"""Spans around calls into spsakit's layers, recorded from outside the package.

``instrumented`` replaces each traced function at every module attribute that
holds it, so callers that look the name up at call time (``run`` calling
``psd_sqrt_shifted``, ``run_single`` calling ``run``) go through the span
wrapper.  The originals are put back when the ``with`` block ends.

Spans are kept in flat typed arrays (name id, parent index, start, end) and
reduced after the traced pass: a span's self time is its duration minus the
durations of its direct children, and the time outside every span is summed
from the gaps between root spans.
"""

import sys
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

# (label, module, attribute) of every traced function.  The label's first
# component names the layer; the oracle callables returned by make_oracles
# are labelled separately below.
TRACED_FUNCTIONS = (
    ("quantum.apply_single_qubit_gate", "spsakit.quantum", "apply_single_qubit_gate"),
    ("quantum.expectation_with_shots", "spsakit.quantum", "expectation_with_shots"),
    ("quantum.fidelity_with_shots", "spsakit.quantum", "fidelity_with_shots"),
    ("applications.vqe_state", "spsakit.applications", "vqe_state"),
    ("applications.grape_final_state", "spsakit.applications", "grape_final_state"),
    ("estimators.sample_perturbation", "spsakit.estimators", "sample_perturbation"),
    ("estimators.gradient_estimate", "spsakit.estimators", "gradient_estimate"),
    ("estimators.hessian_estimate", "spsakit.estimators", "hessian_estimate"),
    ("estimators.metric_estimate", "spsakit.estimators", "metric_estimate"),
    ("linalg.hermitize", "spsakit.linalg", "hermitize"),
    ("linalg.psd_sqrt_shifted", "spsakit.linalg", "psd_sqrt_shifted"),
    ("linalg.matrix_abs", "spsakit.linalg", "matrix_abs"),
    ("linalg.solve_pd", "spsakit.linalg", "solve_pd"),
    ("optimizers.postprocess_gidi", "spsakit.optimizers", "postprocess_gidi"),
    ("optimizers.run", "spsakit.optimizers", "run"),
    ("bench.run_single", "spsakit.bench", "run_single"),
    ("bench.run_ensemble", "spsakit.bench", "run_ensemble"),
)
ORACLE_LABELS = ("applications.objective", "applications.fidelity", "applications.monitor")
LABELS = tuple(label for label, _, _ in TRACED_FUNCTIONS) + ORACLE_LABELS
LAYERS = ("quantum", "applications", "estimators", "linalg", "optimizers", "bench")


class SpanRecorder:
    """Records one span per wrapped call: label id, parent span, start, end."""

    def __init__(self):
        self.labels = LABELS
        self._ids = {label: i for i, label in enumerate(self.labels)}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._open = []

    def wrap(self, label, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        name_id = self._ids[label]
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        open_spans = self._open

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_spans.pop()

        return traced

    def totals(self):
        """Per-label call counts and self seconds."""
        return span_totals(self.name_ids, self.parents, self.starts, self.ends,
                           len(self.labels))

    def untraced_seconds(self, windows):
        """Seconds of the traced ``windows`` outside every span (see below)."""
        return untraced_seconds(self.parents, self.starts, self.ends, windows)


def span_totals(name_ids, parents, starts, ends, n_labels):
    """Reduce a span set to per-label ``(calls, self_seconds)``.

    ``parents[i]`` is the index of span i's enclosing span, or -1 for a root.
    A span's self time is its duration minus the durations of its direct
    children.
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    nested = parents >= 0
    child_time = np.bincount(parents[nested], weights=duration[nested],
                             minlength=duration.size)
    self_time = duration - child_time
    calls = np.bincount(name_ids, minlength=n_labels)
    self_seconds = np.bincount(name_ids, weights=self_time, minlength=n_labels)
    return calls, self_seconds


def untraced_seconds(parents, starts, ends, windows):
    """Seconds inside the traced ``windows`` that no root span covers.

    ``windows`` are the ``(start, end)`` times of the traced stretches, in
    order.  The span tree is checked first: every span lies inside its parent
    and siblings do not overlap, so no span's self time is negative.  The
    remainder is then summed from the gaps before, between and after the root
    spans of each window, each of which must lie inside one window.  Raises
    ``ValueError`` on a span set that breaks any of this.
    """
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if np.any(ends < starts):
        raise ValueError(f"span {np.flatnonzero(ends < starts)[0]} ends before it starts")
    child = np.flatnonzero(parents >= 0)
    outside = (starts[child] < starts[parents[child]]) | (ends[child] > ends[parents[child]])
    if np.any(outside):
        raise ValueError(f"span {child[outside][0]} is not inside its parent")
    order = np.lexsort((starts, parents))  # siblings together, in start order
    same = parents[order][1:] == parents[order][:-1]
    overlap = starts[order][1:] < ends[order][:-1]
    if np.any(same & overlap):
        raise ValueError(f"span {order[1:][same & overlap][0]} overlaps its previous sibling")

    roots = order[parents[order] < 0]
    remainder, k = 0.0, 0
    for window_start, window_end in windows:
        cursor = window_start
        while k < roots.size and starts[roots[k]] < window_end:
            if starts[roots[k]] < cursor or ends[roots[k]] > window_end:
                raise ValueError(f"root span {roots[k]} lies outside the traced windows")
            remainder += starts[roots[k]] - cursor
            cursor = ends[roots[k]]
            k += 1
        remainder += window_end - cursor
    if k < roots.size:
        raise ValueError(f"root span {roots[k]} lies outside the traced windows")
    return remainder


def _patch_everywhere(original, replacement, patched):
    for module in [m for name, m in sys.modules.items()
                   if name == "spsakit" or name.startswith("spsakit.")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Route every traced function, wherever spsakit looks it up, through spans."""
    patched = []
    try:
        for label, module_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            _patch_everywhere(original, recorder.wrap(label, original), patched)

        applications = sys.modules["spsakit.applications"]
        make_oracles = applications.make_oracles

        def traced_make_oracles(*args, **kwargs):
            oracles = make_oracles(*args, **kwargs)
            return type(oracles)(*(recorder.wrap(label, fn)
                                   for label, fn in zip(ORACLE_LABELS, oracles)))

        _patch_everywhere(make_oracles, traced_make_oracles, patched)
        yield recorder
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
