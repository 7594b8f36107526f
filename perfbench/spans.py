"""Tracing from outside the program: layer spans around fockbench's public
functions, kept in memory and reduced to per-layer numbers after the run.

``Tracer.install`` replaces every public function of each layer module with
a wrapper in every ``fockbench`` namespace that binds it (the package
re-exports names and ``cli`` imports them directly, so patching only the
defining module would miss calls). ``Tracer.remove`` puts the originals back.
Each wrapped call records one span: name, start, end and the index of the
span that was open when it started. A layer's self time is the sum over its
spans of duration minus the part of that interval its child spans cover.

Counts are recorded at the same boundaries by per-function hooks. Three of
them are computed from argument or result shapes rather than measured:
``linalg.svd_flops``, ``words.creation_bytes`` and ``charfn.assemble_bytes``;
they repeat exactly for identical inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "fockbench"

# fockbench modules treated as layers, with the label used in metric names
# (metric names must start with a letter, so ``_linalg`` becomes ``linalg``).
LAYERS = {
    "words": "words",
    "ideals": "ideals",
    "contractions": "contractions",
    "poisson": "poisson",
    "charfn": "charfn",
    "dilation": "dilation",
    "invariants": "invariants",
    "interpolation": "interpolation",
    "_linalg": "linalg",
    "serialize": "serialize",
    "cli": "cli",
}


def svd_flops(m: int, n: int) -> int:
    """Leading term of Householder bidiagonalization of a complex m x n
    matrix, in real flops: 16 (m n k - k^3 / 3) with k = min(m, n)."""
    k = min(m, n)
    return 16 * m * n * k - (16 * k**3) // 3


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_svd(counts, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = getattr(a, "shape", ())
    if len(shape) == 2 and shape[0] * shape[1] > 0:
        counts["linalg.svd_calls"] += 1
        counts["linalg.svd_flops"] += svd_flops(int(shape[0]), int(shape[1]))


def _count_creation(counts, args, kwargs, result):
    counts["words.creation_bytes"] += result.nbytes


def _count_build(counts, args, kwargs, result):
    counts["ideals.build_calls"] += 1
    dim = _arg(args, kwargs, 0, "fock").dim
    counts["ideals.ambient_dim_max"] = max(counts["ideals.ambient_dim_max"], dim)


def _count_coefficients(counts, args, kwargs, result):
    counts["charfn.coefficients_count"] += len(result.coefficients)


def _count_assemble(counts, args, kwargs, result):
    counts["charfn.assemble_bytes"] += result.nbytes


def _count_cp(counts, args, kwargs, result):
    counts["contractions.cp_steps"] += int(_arg(args, kwargs, 2, "k", 1))


def _count_purity(counts, args, kwargs, result):
    counts["contractions.purity_calls"] += 1
    counts["contractions.purity_converged"] += int(result.converged)


def _count_kernel(counts, args, kwargs, result):
    counts["poisson.kernel_calls"] += 1


def _count_spectral_norm(counts, args, kwargs, result):
    counts["linalg.spectral_norm_calls"] += 1


# Every counter a hook below adds to; each reads 0 until its hook fires.
COUNTERS = (
    "ideals.build_calls", "ideals.ambient_dim_max", "words.creation_bytes",
    "charfn.coefficients_count", "charfn.assemble_bytes", "contractions.cp_steps",
    "contractions.purity_calls", "contractions.purity_converged", "poisson.kernel_calls",
    "linalg.svd_calls", "linalg.svd_flops", "linalg.spectral_norm_calls",
)

# (layer module, function) -> hook(counts, args, kwargs, result)
HOOKS = {
    ("_linalg", "svd_positive"): _count_svd,
    ("_linalg", "svdvals"): _count_svd,
    ("_linalg", "range_basis"): _count_svd,
    ("_linalg", "spectral_norm"): _count_spectral_norm,
    ("words", "creation_matrix"): _count_creation,
    ("ideals", "build_constrained_subspace"): _count_build,
    ("charfn", "characteristic_coefficients"): _count_coefficients,
    ("charfn", "assemble"): _count_assemble,
    ("contractions", "cp_apply"): _count_cp,
    ("contractions", "purity"): _count_purity,
    ("poisson", "poisson_kernel"): _count_kernel,
}


class Tracer:
    """Span and count recorder for one traced pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(-1)
        self._stack.append(idx)
        self.span_start.append(self._clock())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self._clock()
        self._stack.pop()

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span directly (used for synthetic spans)."""
        idx = len(self.span_start)
        self.span_name.append(self.intern(name))
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        return idx

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, func, hook):
        name_id = self.intern(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap each layer's public functions in every namespace of the
        package that binds them; returns the number of bindings replaced."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for module_name, label in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{label}.{attr}", obj, HOOKS.get((module_name, attr)))
                originals[id(obj)] = obj
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    setattr(module, attr, wrappers[id(obj)])
                    self._patches.append((module, attr, obj))
        return len(self._patches)

    def remove(self) -> None:
        """Restore every binding install() replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the union of its direct children's
        intervals, clipped to the span."""
        count = len(self.span_start)
        children: list[list[int]] = [[] for _ in range(count)]
        for idx in range(count):
            parent = self.span_parent[idx]
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx in range(count):
            start, end = self.span_start[idx], self.span_end[idx]
            covered = 0
            cursor = start
            for child in sorted(children[idx], key=lambda c: self.span_start[c]):
                lo = max(self.span_start[child], cursor)
                hi = min(self.span_end[child], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(end - start - covered)
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer label, in seconds; layers with no span read 0."""
        totals = {label: 0 for label in LAYERS.values()}
        for idx, self_ns in enumerate(self.self_times_ns()):
            label = self.names[self.span_name[idx]].split(".", 1)[0]
            totals[label] = totals.get(label, 0) + self_ns
        return {label: ns / 1e9 for label, ns in totals.items()}

    def inclusive_seconds(self, name: str) -> float:
        """Total duration of the outermost spans with this name."""
        if name not in self._ids:
            return 0.0
        target = self._ids[name]
        total = 0
        for idx in range(len(self.span_start)):
            if self.span_name[idx] != target:
                continue
            parent = self.span_parent[idx]
            while parent >= 0 and self.span_name[parent] != target:
                parent = self.span_parent[parent]
            if parent < 0:
                total += self.span_end[idx] - self.span_start[idx]
        return total / 1e9
