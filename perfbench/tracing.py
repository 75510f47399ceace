"""Span tracing of liespec's layers, from outside the package.

The layers are liespec's modules.  `Tracer.install` replaces each traced
public function with a wrapper wherever a liespec module binds it (the
defining module and every module that imported the name), and replaces
Matrix.__mul__ on the class.  A wrapper records one span: name, start,
end, parent span and operation id.  Spans stay in memory until the run
ends.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from liespec import numeric

TRACED = {
    "numeric": ("eigenvalues", "char_poly", "rank", "nullspace_basis", "intersect_subspaces",
                "inverse", "solve_matrix"),
    "koszul": ("build_complex", "validate_complex", "complex_profile", "complex_splitting"),
    "spectra": ("triangular_weights", "joint_eigencharacters", "homology_support",
                "homology_table", "all_spectra"),
    "lie_core": ("is_character", "jordan_holder_chain", "lower_central_series"),
    "representation": ("shift", "restrict_rep", "conjugate_representation"),
    "cli": ("main",),
}
# lab's generators share one span name: they are one layer, input generation.
LAB_GENERATE = ("fixture", "catalog", "zero_representation", "unimodular_matrix",
                "random_character", "random_nilpotent_rep")
MATRIX_MUL = "numeric.Matrix.mul"
LAYER_SPANS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] + [MATRIX_MUL, "lab.generate"]
# self time is reported for every layer span, call counts for these modules
COUNTED = ("numeric", "koszul", "spectra")

# span record fields
NAME, START, END, PARENT, OP = range(5)
ROOT = "bench.operation"
GENERATE = "bench.generate"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = 0
        self._undo: List[tuple] = []
        # per operation id: homology tables built, and the distinct reps they were built for
        self.tables: Dict[int, list] = defaultdict(lambda: [0, set()])
        self.candidates = 0
        self.members = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable[[], object]):
        """Run fn inside a root span of a new operation id."""
        self.op += 1
        return self._wrap(name, fn)()

    def _count_table(self, args, table):
        entry = self.tables[self.op]
        entry[0] += 1
        entry[1].add(args[0])
        self.candidates += len(table)
        self.members += sum(1 for _, betti in table if betti.total > 0)

    # -- installing --------------------------------------------------------

    def install(self):
        mods = [m for n, m in sys.modules.items() if n == "liespec" or n.startswith("liespec.")]
        targets = [(f"{mod}.{fn}", sys.modules[f"liespec.{mod}"], fn)
                   for mod, fns in TRACED.items() for fn in fns]
        targets += [("lab.generate", sys.modules["liespec.lab"], fn) for fn in LAB_GENERATE]
        for name, home, attr in targets:
            orig = getattr(home, attr)
            after = self._count_table if name == "spectra.homology_table" else None
            wrapper = self._wrap(name, orig, after)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        orig_mul = numeric.Matrix.__mul__
        self._undo.append((numeric.Matrix, "__mul__", orig_mul))
        numeric.Matrix.__mul__ = self._wrap(MATRIX_MUL, orig_mul)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, first: int, factors: Dict[int, float]) -> Dict[str, List[float]]:
        """name -> [calls, normalised self seconds] over spans[first:].
        Root spans keep their self time under their own name."""
        spans = self.spans
        child = defaultdict(float)
        for s in spans[first:]:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for idx in range(first, len(spans)):
            s = spans[idx]
            entry = out[s[NAME]]
            entry[0] += 1
            entry[1] += (s[END] - s[START] - child[idx]) * factors[s[OP]]
        return out

    def tables_per_input(self) -> float:
        built = sum(v[0] for v in self.tables.values())
        distinct = sum(len(v[1]) for v in self.tables.values())
        return built / distinct if distinct else 0.0

    def member_yield(self) -> float:
        return self.members / self.candidates if self.candidates else 0.0

    def dump(self, path: str, factors: Dict[int, float]):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "op_factor": factors, "spans": self.spans}, fh)
