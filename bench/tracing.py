"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions of each ``symprol`` layer.  A
module-level function is replaced in every loaded module namespace that bound
it (``prolongation`` imported ``quad_to_matrix``, ``catalog`` imported
``finite_type_verdict``, the workloads imported the builders), a method on
its class.  Each wrapped call records a span (name, start, end, parent) in
memory; a few very frequent calls are only counted.  Scalar operations are
counted by wrapping the arithmetic of ``fractions.Fraction`` and ``GScalar``.

Spans are written out by ``write_spans`` after the run.  A layer's time is
the total of its outermost spans; self time subtracts the direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from symprol import fedosov, linalg, prolongation, structure, weyl
from symprol import catalog
from symprol.realizations import p1model, p2model, series
from symprol.scalars import GScalar

_pc = time.perf_counter
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__")

# span name -> function; the metrics are made from the spans in metrics()
SPANNED = {
    "catalog.verify_entry": catalog.verify_entry,
    "prolongation.finite_type_verdict": prolongation.finite_type_verdict,
    "prolongation.prolong_chain": prolongation.prolong_chain,
    "prolongation.prolong_step": prolongation.prolong_step,
    "prolongation.rank_one_witness": prolongation.rank_one_witness,
    "prolongation.tensor_rank": prolongation.tensor_rank,
    "linalg.rref": linalg.rref,
    "weyl.poisson_bracket": weyl.poisson_bracket,
    "weyl.quad_to_matrix": weyl.quad_to_matrix,
    "structure.tabulate": structure.tabulate,
    "realizations.build_thmK1": p2model.build_thmK1,
    "realizations.build_thmK2": p1model.build_thmK2,
    "fedosov.fedosov_report": fedosov.fedosov_report,
    "fedosov.lsa_from_symplectic": fedosov.lsa_from_symplectic,
    "fedosov.connection": fedosov.connection,
    "fedosov.check_left_symmetric": fedosov.check_left_symmetric,
    "fedosov.trace_identities": fedosov.trace_identities,
    "fedosov.ricci_trace_of_curvature": fedosov.ricci_trace_of_curvature,
    "fedosov.curvature_direct": fedosov.curvature_direct,
}
SPANNED_METHODS = {
    "prolongation.check_closure": (prolongation.LinearSubalgebra, "check_closure"),
    "linalg.matmul": (linalg.Matrix, "__matmul__"),
    "linalg.solve": (linalg.Matrix, "solve"),
    "structure.jacobi_violation": (structure.LieTable, "jacobi_violation"),
}
COUNTED_METHODS = {
    "structure.bracket_coords": (structure.LieTable, "bracket_coords"),
    "realizations.series_mul": (series.TruncSeries, "__mul__"),
}


def _bits(x) -> int:
    if isinstance(x, GScalar):
        return max(_bits(x.re), _bits(x.im))
    return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.item_spans = []
        self.counts = Counter()
        self.ops = {"fraction": [0], "gscalar": [0]}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = (self.span_name, self.span_parent,
                                               self.span_start, self.span_end, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = _pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _pc()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def item(self, fn):
        """Call fn (one workload item) inside an "item" span."""
        self.item_spans.append(len(self.span_name))
        return self._wrap("item", fn)()

    @contextmanager
    def paused(self):
        """Keep the counts of scalar operations unchanged (for the reference
        clock's own arithmetic)."""
        saved = [c[0] for c in self.ops.values()]
        try:
            yield
        finally:
            for c, v in zip(self.ops.values(), saved):
                c[0] = v

    # -- per-layer counters ------------------------------------------------

    def _after_rref(self, args, result):
        rows, ncols = args[0], args[1]
        c = self.counts
        c["rref.rows"] += len(rows)
        c["rref.cells"] += len(rows) * ncols
        c["rref.pivots"] += len(result[1])
        top = max((_bits(x) for row in result[0] for x in row if x), default=0)
        if top > c["rref.max_bits"]:
            c["rref.max_bits"] = top

    def _after_matmul(self, args, result):
        a, b = args
        row_nnz = [sum(1 for x in row if x) for row in b.entries]
        c = self.counts
        for row in a.entries:
            for k, x in enumerate(row):
                if x:
                    c["matmul.mults"] += b.ncols
                    c["matmul.useful"] += row_nnz[k]

    def _after_bracket(self, args, result):
        self.counts["poisson_bracket.term_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)

    def _after_step(self, args, result):
        space, prev = args[0], args[1]
        self.counts["prolong_step.cond_rows"] += (prev.ambient - prev.dim) * space.dim

    def _after_rank(self, args, result):
        self.counts["tensor_rank.hits"] += result == 1

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        after = {"linalg.rref": self._after_rref, "weyl.poisson_bracket": self._after_bracket,
                 "prolongation.prolong_step": self._after_step,
                 "prolongation.tensor_rank": self._after_rank,
                 "linalg.matmul": self._after_matmul}
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for name, fn in SPANNED.items():
            wrapper = self._wrap(name, fn, after.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)
        for name, (cls, attr) in SPANNED_METHODS.items():
            self._set(cls, attr, self._wrap(name, getattr(cls, attr), after.get(name)))
        for name, (cls, attr) in COUNTED_METHODS.items():
            self._set(cls, attr, self._counted(name, getattr(cls, attr)))
        for cls, key in ((Fraction, "fraction"), (GScalar, "gscalar")):
            for attr in _ARITH:
                self._set(cls, attr, self._op_counter(self.ops[key], cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @staticmethod
    def _op_counter(cell, fn):
        def op(*args):
            cell[0] += 1
            return fn(*args)
        return op

    # -- results -----------------------------------------------------------

    def layer_times(self):
        """{span name: (calls, outermost total ms, self ms)}."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            nid = self.span_name[i]
            rec = out[self.names[nid]]
            rec[0] += 1
            rec[2] += (dur[i] - child[i]) * 1000
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                rec[1] += dur[i] * 1000
        return out

    def per_item_ms(self, name):
        """Outermost time of the named spans under each item span, in item order."""
        nid = self.name_ids.get(name)
        pos = {s: i for i, s in enumerate(self.item_spans)}
        out = [0.0] * len(self.item_spans)
        for i in range(len(self.span_name)):
            if self.span_name[i] != nid:
                continue
            j, outermost = i, True
            while j >= 0 and j not in pos:
                j = self.span_parent[j]
                outermost &= j < 0 or self.span_name[j] != nid
            if j >= 0 and outermost:
                out[pos[j]] += (self.span_end[i] - self.span_start[i]) * 1000
        return out

    def metrics(self):
        """The per-layer metrics, by name: (value, unit)."""
        t = self.layer_times()
        c = self.counts

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def ms(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "scalars.fraction_ops": (self.ops["fraction"][0], "count"),
            "scalars.gscalar_ops": (self.ops["gscalar"][0], "count"),
            "scalars.max_bits": (c["rref.max_bits"], "bits"),
            "linalg.rref.cells": (c["rref.cells"], "count"),
            "linalg.rref.rank_ratio": (ratio(c["rref.pivots"], c["rref.rows"]), "ratio"),
            "linalg.matmul.mults": (c["matmul.mults"], "count"),
            "linalg.matmul.nonzero_ratio": (ratio(c["matmul.useful"], c["matmul.mults"]), "ratio"),
            "weyl.poisson_bracket.term_pairs": (c["poisson_bracket.term_pairs"], "count"),
            "prolongation.prolong_step.cond_rows": (c["prolong_step.cond_rows"], "count"),
            "prolongation.tensor_rank.hit_ratio":
                (ratio(c["tensor_rank.hits"], calls("prolongation.tensor_rank")), "ratio"),
            "catalog.verify_entry.ms": (t.get("catalog.verify_entry", (0, 0.0, 0.0))[2], "ms"),
            "structure.bracket_coords.calls": (c["structure.bracket_coords"], "count"),
            "realizations.series_mul.calls": (c["realizations.series_mul"], "count"),
        }
        for name in ("linalg.rref", "linalg.matmul", "linalg.solve", "weyl.poisson_bracket",
                     "weyl.quad_to_matrix", "prolongation.prolong_step",
                     "prolongation.rank_one_witness", "prolongation.tensor_rank",
                     "structure.tabulate", "fedosov.curvature_direct"):
            m[name + ".calls"] = (calls(name), "count")
        for name in ("linalg.rref", "linalg.matmul", "linalg.solve", "weyl.poisson_bracket",
                     "weyl.quad_to_matrix", "prolongation.prolong_step",
                     "prolongation.rank_one_witness", "prolongation.check_closure",
                     "structure.tabulate", "structure.jacobi_violation",
                     "realizations.build_thmK1", "realizations.build_thmK2",
                     "fedosov.lsa_from_symplectic", "fedosov.connection",
                     "fedosov.check_left_symmetric", "fedosov.trace_identities",
                     "fedosov.ricci_trace_of_curvature", "fedosov.curvature_direct"):
            m[name + ".ms"] = (ms(name), "ms")
        return m

    def write_spans(self, path):
        """One line per span: id, name, start, end, parent id (-1 for none)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.7f}\t"
                         f"{self.span_end[i]:.7f}\t{self.span_parent[i]}\n")
