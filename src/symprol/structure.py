"""Finite-dimensional Lie algebras by structure constants.

Shared by the vector-field realizations and the symplectic Lie algebra
calculus: closing a set of concrete elements under a bracket, extracting
exact structure constants, and the standard series/Jacobi computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .scalars import ZERO, fmt_scalar
from .linalg import Matrix, Subspace, basis_vector


@dataclass
class LieTable:
    """Structure constants c^k_(ij) on a fixed basis."""

    labels: list
    brackets: dict  # (i, j) with i < j  ->  dict k -> coeff

    @property
    def n(self) -> int:
        return len(self.labels)

    def pair(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket_coords(self, x, y):
        """Bracket of two coefficient vectors."""
        out = [ZERO] * self.n
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                for k, c in self.pair(i, j).items():
                    out[k] = out[k] + a * b * c
        return tuple(out)

    def ad_matrix(self, x) -> Matrix:
        """Matrix of ad(x) = [x, .] on coefficient vectors."""
        return Matrix.from_columns([self.bracket_coords(x, basis_vector(self.n, j))
                                    for j in range(self.n)])

    def jacobi_violation(self):
        """First basis triple violating Jacobi, or None if it holds exactly."""
        n = self.n
        pair = {(i, j): self.pair(i, j) for i in range(n) for j in range(n)}

        def nested(i, j, k):
            """[[e_i, e_j], e_k] as a sparse coefficient dict."""
            out = {}
            for m, a in pair[i, j].items():
                if a:
                    for l, c in pair[m, k].items():
                        out[l] = out.get(l, ZERO) + a * c
            return out

        def total(parts, l):
            s, s2, s3 = parts
            return s.get(l, ZERO) + s2.get(l, ZERO) + s3.get(l, ZERO)

        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    parts = (nested(i, j, k), nested(j, k, i), nested(k, i, j))
                    if any(total(parts, l) for l in set().union(*parts)):
                        return (i, j, k, tuple(total(parts, l) for l in range(n)))
        return None

    def _span_bracket(self, sub1: Subspace, sub2: Subspace) -> Subspace:
        vecs = []
        for x in sub1.basis:
            for y in sub2.basis:
                v = self.bracket_coords(x, y)
                if any(v):
                    vecs.append(v)
        if not vecs:
            return Subspace.zero(self.n)
        return Subspace.from_vectors(vecs, self.n)

    def _series(self, step):
        """g, step(g), step(step(g)), ... until the dimension stops falling."""
        series = [Subspace.full(self.n)]
        while series[-1].dim:
            nxt = step(series[-1])
            if nxt.dim == series[-1].dim:
                break
            series.append(nxt)
        return series

    def derived_series(self):
        return self._series(lambda s: self._span_bracket(s, s))

    def lower_central_series(self):
        full = Subspace.full(self.n)
        return self._series(lambda s: self._span_bracket(full, s))

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def records(self):
        """Line-oriented structure constants, nonzero entries only."""
        lines = []
        for (i, j), row in sorted(self.brackets.items()):
            for k in sorted(row):
                lines.append(f"c[{self.labels[i]},{self.labels[j]}]^{self.labels[k]} = {fmt_scalar(row[k])}")
        return lines


class ClosureError(ValueError):
    """Bracket of two putative basis elements left the span."""

    def __init__(self, i, j, labels, detail=""):
        self.pair = (labels[i], labels[j])
        super().__init__(f"bracket [{labels[i]}, {labels[j]}] is outside the span" +
                         (f": {detail}" if detail else ""))


def tabulate(elements, bracket: Callable, to_dict: Callable, labels=None) -> LieTable:
    """Extract structure constants of span(elements) under a concrete bracket.

    to_dict linearizes an element into a sparse {key: coeff} form; the
    elements must be linearly independent.  Raises ClosureError if some
    bracket cannot be decomposed in the given basis.
    """
    n = len(elements)
    labels = labels or [f"x{i+1}" for i in range(n)]
    dicts = [to_dict(e) for e in elements]
    pair_values = {}
    keys = set()
    for d in dicts:
        keys.update(d)
    for i in range(n):
        for j in range(i + 1, n):
            b = to_dict(bracket(elements[i], elements[j]))
            pair_values[(i, j)] = b
            keys.update(b)
    keyorder = sorted(keys)
    B = Matrix([[dicts[c].get(k, ZERO) for c in range(n)] for k in keyorder], ncols=n)
    if B.rank() != n:
        raise ValueError("elements are not linearly independent")
    sols = B.solve_many([[bd.get(k, ZERO) for k in keyorder] for bd in pair_values.values()])
    table = {}
    for (i, j), sol in zip(pair_values, sols):
        if sol is None:
            raise ClosureError(i, j, labels)
        row = {k: c for k, c in enumerate(sol) if c}
        if row:
            table[(i, j)] = row
    return LieTable(labels, table)
