"""First Chevalley-Eilenberg cohomology and nonsplitting deformations.

For a Lie algebra h (structure constants) acting on a module m (one matrix
per basis element), the degree-one cohomology is computed exactly:

    Z1 = { c : h -> m  with  c([x,y]) = x.c(y) - y.c(x) },
    B1 = { x -> x.v },
    H1 = Z1 / B1,

together with canonical representatives of a complement of B1 in Z1.

The nonsplitting checker validates graphs {X + c(X) + psi(X)} inside the
isotropic-line parabolic, where c takes values in the span of p1p2, p1q2 and
psi in R p1^2: the graph is a subalgebra iff c is a cocycle and
psi[X,Y] = [c(X), c(Y)] on every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scalars import ZERO
from ..linalg import Matrix, Subspace, basis_vector
from ..structure import LieTable
from ..weyl import SymTensor, poisson_bracket
from ..prolongation import LinearSubalgebra, span_of_tensors


@dataclass
class H1Result:
    dim: int
    z1_dim: int
    b1_dim: int
    representatives: list   # each: list of m-coordinate vectors, one per h-basis element


def _check_representation(table: LieTable, action):
    n = table.n
    for i in range(n):
        for j in range(i + 1, n):
            br = table.bracket_coords(basis_vector(n, i), basis_vector(n, j))
            rho_br = None
            for k, c in enumerate(br):
                if not c:
                    continue
                m = action[k].scale(c)
                rho_br = m if rho_br is None else rho_br + m
            if rho_br is None:
                rho_br = Matrix.zero(action[0].nrows, action[0].ncols)
            comm = (action[i] @ action[j]) - (action[j] @ action[i])
            if not (comm - rho_br).is_zero():
                raise ValueError(f"action is not a representation: basis pair ({i}, {j})")


def ce_h1(table: LieTable, action) -> H1Result:
    """dim H^1(h, m) with representative cocycles.

    action[i] is the matrix of the i-th basis element of h on m; it is
    verified to be a representation first.
    """
    n = table.n
    if len(action) != n:
        raise ValueError("need one action matrix per basis element")
    mdim = action[0].nrows
    _check_representation(table, action)
    # unknowns: c(x_i) in m, stacked as n blocks of size mdim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            br = table.bracket_coords(basis_vector(n, i), basis_vector(n, j))
            for r in range(mdim):
                row = [ZERO] * (n * mdim)
                # c([x_i, x_j])
                for k, c in enumerate(br):
                    if c:
                        row[k * mdim + r] = row[k * mdim + r] + c
                # - x_i . c(x_j) + x_j . c(x_i)
                for s in range(mdim):
                    row[j * mdim + s] = row[j * mdim + s] - action[i][r, s]
                    row[i * mdim + s] = row[i * mdim + s] + action[j][r, s]
                rows.append(row)
    z1 = Matrix(rows, ncols=n * mdim).kernel() if rows else Subspace.full(n * mdim)
    b1_vecs = []
    for s in range(mdim):
        v = basis_vector(mdim, s)
        vec = []
        for i in range(n):
            vec.extend(action[i].apply(v))
        b1_vecs.append(vec)
    b1 = Subspace.from_vectors(b1_vecs, n * mdim)
    dim = z1.dim - b1.dim
    reps = []
    cur = b1
    for v in z1.basis:
        if len(reps) == dim:
            break
        if v not in cur:
            reps.append([tuple(v[i * mdim:(i + 1) * mdim]) for i in range(n)])
            cur = cur + Subspace.from_vectors([list(v)], n * mdim)
    return H1Result(dim, z1.dim, b1.dim, reps)


def bracket_action_matrices(h_tensors, module_tensors):
    """Matrices of ad(h_i) on span(module_tensors) via the ambient bracket.

    Requires the module span to be ad(h)-invariant."""
    deg = module_tensors[0].degree
    sub = span_of_tensors(module_tensors, degree=deg)
    B = Matrix.from_columns([t.coords(deg) for t in module_tensors])
    images = []
    for x in h_tensors:
        for t in module_tensors:
            vec = poisson_bracket(x, t).coords(deg)
            if vec not in sub:
                raise ValueError(f"module is not invariant: [{x}, {t}] leaves the span")
            images.append(vec)
    cols = B.solve_many(images)
    m = len(module_tensors)
    return [Matrix.from_columns(cols[a * m:(a + 1) * m]) for a in range(len(h_tensors))]


@dataclass
class NonsplitReport:
    closed: bool
    subalgebra: LinearSubalgebra
    cocycle_ok: bool
    psi_ok: bool
    violations: list   # (i, j, which, residue tensor)

    def record(self) -> str:
        status = "closed" if self.closed else \
            "; ".join(f"pair({i},{j}) fails {w}" for i, j, w, _ in self.violations)
        return f"nonsplit: {status}"


def nonsplit_check(h_tensors, c_images, psi_images) -> NonsplitReport:
    """Is { X + c(X) + psi(X) } a subalgebra?

    h_tensors span the undeformed algebra, c_images[i] and psi_images[i] are
    the images of the i-th generator.  The graph is closed iff

        c([X,Y]) = [c(X), Y] + [X, c(Y)]      (cocycle condition)
        psi([X,Y]) = [c(X), c(Y)]             (curvature of c),

    which is checked pairwise; violations are reported with the pair."""
    space = h_tensors[0].space
    n = len(h_tensors)
    deformed = [h_tensors[i] + c_images[i] + psi_images[i] for i in range(n)]
    alg = LinearSubalgebra(space, deformed, "nonsplit")
    closed = alg.check_closure() is None

    B = Matrix.from_columns([t.coords(2) for t in h_tensors])

    def on_bracket(x, y, images):
        br = poisson_bracket(x, y)
        co = B.solve(list(br.coords(2)))
        if co is None:
            raise ValueError("h is not closed under the bracket")
        out = SymTensor(space, {})
        for cc, img in zip(co, images):
            out = out + img.scale(cc)
        return out

    violations = []
    cocycle_ok = True
    psi_ok = True
    for i in range(n):
        for j in range(i + 1, n):
            x, y = h_tensors[i], h_tensors[j]
            lhs = on_bracket(x, y, c_images)
            rhs = poisson_bracket(c_images[i], y) + poisson_bracket(x, c_images[j])
            if lhs != rhs:
                cocycle_ok = False
                violations.append((i, j, "cocycle", lhs - rhs))
            lhs2 = on_bracket(x, y, psi_images)
            rhs2 = poisson_bracket(c_images[i], c_images[j])
            if lhs2 != rhs2:
                psi_ok = False
                violations.append((i, j, "psi", lhs2 - rhs2))
    return NonsplitReport(closed, alg, cocycle_ok, psi_ok, violations)
