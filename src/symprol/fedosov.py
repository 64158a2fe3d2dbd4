"""Symplectic Lie algebra calculus.

A symplectic Lie algebra is a Lie algebra with a nondegenerate antisymmetric
2-cocycle omega.  It carries a unique compatible left-symmetric product
defined by

    omega(x y, z) = -omega(y, [x, z]),

whose commutator recovers the bracket, and the induced torsion-free
symplectic connection

    nabla_x y = (2/3) x y - (1/3) y x

(obtained from nabla^o = the left-symmetric product by the standard
symmetrization with N(x, y) = -y x).  Everything downstream is exact linear
algebra on the structure constants: curvature by the direct definition and
by the closed commutator formula, Ricci by the closed trace formula and by
the trace-of-curvature definition, the trace identities, the left trace
form kappa(x, y) = tr(L_x L_y), and the nilpotency/solvability tests.

Torsion-free equivariant Nomizu maps for reductive homogeneous data are
solved as one exact linear system; when the isotropy algebra has trivial
first prolongation the homogeneous solution space is zero, which is what
makes the invariant connection unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .scalars import ZERO, ONE, fmt_scalar, parse_scalar, rat
from .linalg import Matrix, basis_vector
from .structure import LieTable


class SymplecticLieAlgebra:
    """Structure constants plus a nondegenerate 2-cocycle omega."""

    def __init__(self, table: LieTable, omega: Matrix, name: str = ""):
        self.table = table
        self.omega = omega
        self.name = name or "g"
        if omega.nrows != table.n or omega.ncols != table.n:
            raise ValueError("omega size mismatch")

    @property
    def n(self) -> int:
        return self.table.n

    def basis_vector(self, i: int):
        return basis_vector(self.n, i)

    def omega_of(self, x, y):
        s = ZERO
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if b and self.omega[i, j]:
                    s = s + a * b * self.omega[i, j]
        return s


def _contract(table: dict, n: int, x, y):
    """sum_(i,j) x_i y_j table[(i, j)] for a dense (i, j) -> n-tuple table."""
    out = [ZERO] * n
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            for k, c in enumerate(table[(i, j)]):
                if c:
                    out[k] = out[k] + a * b * c
    return tuple(out)


@dataclass
class Verdict:
    valid: bool
    failures: list

    def record(self) -> str:
        return "valid" if self.valid else "invalid: " + "; ".join(self.failures)


def check_symplectic(g: SymplecticLieAlgebra) -> Verdict:
    """Antisymmetry and Jacobi of the brackets, antisymmetry and
    nondegeneracy of omega, and the cocycle condition
    omega([x,y],z) + omega([y,z],x) + omega([z,x],y) = 0 on basis triples."""
    failures = []
    t = g.table
    jac = t.jacobi_violation()
    if jac is not None:
        failures.append(f"Jacobi fails on basis triple {jac[:3]}")
    for i in range(g.n):
        for j in range(i, g.n):
            if g.omega[i, j] != -g.omega[j, i]:
                failures.append(f"omega not antisymmetric at ({i},{j})")
    if g.omega.rank() != g.n:
        failures.append("omega is degenerate")
    basis = [g.basis_vector(i) for i in range(g.n)]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            for k in range(j + 1, g.n):
                s = (g.omega_of(t.bracket_coords(basis[i], basis[j]), basis[k])
                     + g.omega_of(t.bracket_coords(basis[j], basis[k]), basis[i])
                     + g.omega_of(t.bracket_coords(basis[k], basis[i]), basis[j]))
                if s:
                    failures.append(f"cocycle condition fails on triple ({i},{j},{k})")
    return Verdict(not failures, failures)


class LSAProduct:
    """Multiplication table of the compatible left-symmetric product."""

    def __init__(self, g: SymplecticLieAlgebra, table: dict):
        self.g = g
        self.table = table    # (i, j) -> coefficient vector of e_i e_j

    def prod_basis(self, i: int, j: int):
        return self.table[(i, j)]

    def prod(self, x, y):
        return _contract(self.table, self.g.n, x, y)

    def left_mult(self, x) -> Matrix:
        return Matrix.from_columns([self.prod(x, self.g.basis_vector(j))
                                    for j in range(self.g.n)])

    def right_mult(self, x) -> Matrix:
        return Matrix.from_columns([self.prod(self.g.basis_vector(j), x)
                                    for j in range(self.g.n)])


def lsa_from_symplectic(g: SymplecticLieAlgebra) -> LSAProduct:
    """Solve omega(e_i e_j, z) = -omega(e_j, [e_i, z]) for each pair; the
    solution is unique because omega is nondegenerate."""
    v = check_symplectic(g)
    if not v.valid:
        raise ValueError("not a symplectic Lie algebra: " + "; ".join(v.failures))
    n = g.n
    basis = [g.basis_vector(i) for i in range(n)]
    OmT = g.omega.transpose()   # solve omega(v, e_k) = rhs_k, i.e. Om^T v = rhs
    pairs = [(i, j) for i in range(n) for j in range(n)]
    sols = OmT.solve_many([[-g.omega_of(basis[j], g.table.bracket_coords(basis[i], basis[k]))
                            for k in range(n)] for i, j in pairs])
    if None in sols:
        raise ValueError("omega system inconsistent (cannot happen when omega is invertible)")
    return LSAProduct(g, dict(zip(pairs, sols)))


def check_left_symmetric(p: LSAProduct) -> Verdict:
    """(xy)z - x(yz) = (yx)z - y(xz) and xy - yx = [x,y] on all basis data."""
    g = p.g
    n = g.n
    basis = [g.basis_vector(i) for i in range(n)]
    failures = []
    for i in range(n):
        for j in range(n):
            diff = [a - b for a, b in zip(p.prod(basis[i], basis[j]), p.prod(basis[j], basis[i]))]
            br = g.table.bracket_coords(basis[i], basis[j])
            if any(a != b for a, b in zip(diff, br)):
                failures.append(f"commutator differs from the bracket on ({i},{j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = [a - b for a, b in zip(p.prod(p.prod(basis[i], basis[j]), basis[k]),
                                             p.prod(basis[i], p.prod(basis[j], basis[k])))]
                rhs = [a - b for a, b in zip(p.prod(p.prod(basis[j], basis[i]), basis[k]),
                                             p.prod(basis[j], p.prod(basis[i], basis[k])))]
                if any(a != b for a, b in zip(lhs, rhs)):
                    failures.append(f"left-symmetry fails on ({i},{j},{k})")
    return Verdict(not failures, failures)


class ConnectionTable:
    """nabla_x y on the basis, with curvature and Ricci helpers."""

    def __init__(self, p: LSAProduct):
        self.p = p
        self.g = p.g
        n = self.g.n
        two3, one3 = rat(2, 3), rat(1, 3)
        self.table = {}
        for i in range(n):
            for j in range(n):
                xy = p.prod_basis(i, j)
                yx = p.prod_basis(j, i)
                self.table[(i, j)] = tuple(two3 * a - one3 * b for a, b in zip(xy, yx))

    def nabla(self, x, y):
        return _contract(self.table, self.g.n, x, y)


def connection(p: LSAProduct) -> ConnectionTable:
    """Build nabla by the direct formula nabla_x y = (2/3) xy - (1/3) yx and
    check the correction term it rests on.

    The correction path computes N by omega(N(x,y),z) = -omega(xy,z) -
    omega(y,xz) and sets nabla = nabla^o + (1/3)N(x,y) + (1/3)N(y,x) with
    nabla^o = the product.  That equals the direct formula exactly when
    N(x,y) = -yx, which is solved for against omega and compared."""
    ct = ConnectionTable(p)
    g = p.g
    n = g.n
    basis = [g.basis_vector(i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rhss = []
    for i, j in pairs:
        xy = p.prod(basis[i], basis[j])
        rhss.append([-g.omega_of(xy, basis[k]) - g.omega_of(basis[j], p.prod(basis[i], basis[k]))
                     for k in range(n)])
    for (i, j), Nij in zip(pairs, g.omega.transpose().solve_many(rhss)):
        if Nij != tuple(-c for c in p.prod(basis[j], basis[i])):
            raise AssertionError("N(x,y) != -yx; omega data inconsistent")
    return ct


def check_connection(ct: ConnectionTable) -> Verdict:
    """Torsion-free: nabla_x y - nabla_y x = [x,y]; symplectic:
    omega(nabla_x y, z) + omega(y, nabla_x z) = 0 (left-invariant form)."""
    g = ct.g
    n = g.n
    basis = [g.basis_vector(i) for i in range(n)]
    failures = []
    for i in range(n):
        for j in range(n):
            tor = [a - b for a, b in zip(ct.nabla(basis[i], basis[j]),
                                         ct.nabla(basis[j], basis[i]))]
            br = g.table.bracket_coords(basis[i], basis[j])
            if any(a != b for a, b in zip(tor, br)):
                failures.append(f"torsion on ({i},{j})")
            for k in range(n):
                s = (g.omega_of(ct.nabla(basis[i], basis[j]), basis[k])
                     + g.omega_of(basis[j], ct.nabla(basis[i], basis[k])))
                if s:
                    failures.append(f"omega not parallel on ({i},{j},{k})")
    return Verdict(not failures, failures)


def curvature_direct(ct: ConnectionTable, x, y) -> Matrix:
    """R(x,y) z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z."""
    g = ct.g
    cols = []
    for k in range(g.n):
        z = g.basis_vector(k)
        a = ct.nabla(x, ct.nabla(y, z))
        b = ct.nabla(y, ct.nabla(x, z))
        c = ct.nabla(g.table.bracket_coords(x, y), z)
        cols.append(tuple(p - q - r for p, q, r in zip(a, b, c)))
    return Matrix.from_columns(cols)


def curvature_closed(p: LSAProduct, x, y) -> Matrix:
    """R(x,y) = -(1/9)[R_x, R_y] - (2/9) L_[x,y] + (1/9) R_[x,y]."""
    g = p.g
    Rx, Ry = p.right_mult(x), p.right_mult(y)
    br = g.table.bracket_coords(x, y)
    Lbr, Rbr = p.left_mult(br), p.right_mult(br)
    comm = (Rx @ Ry) - (Ry @ Rx)
    return comm.scale(rat(-1, 9)) + Lbr.scale(rat(-2, 9)) + Rbr.scale(rat(1, 9))


def ricci_closed(p: LSAProduct) -> Matrix:
    """ric(x,y) = (1/9) ( tr L_(xy) + tr(L_x L_y) )."""
    g = p.g
    n = g.n
    basis = [g.basis_vector(i) for i in range(n)]
    L = [p.left_mult(b) for b in basis]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            Lxy = p.left_mult(p.prod(basis[i], basis[j]))
            row.append(rat(1, 9) * (Lxy.trace() + L[i].trace_product(L[j])))
        out.append(row)
    return Matrix(out)


def curvature_matrices(ct: ConnectionTable) -> dict:
    """(i, k) -> R(e_i, e_k) for every basis pair, each built once."""
    basis = [ct.g.basis_vector(i) for i in range(ct.g.n)]
    return {(i, k): curvature_direct(ct, x, y)
            for i, x in enumerate(basis) for k, y in enumerate(basis)}


def _ricci_trace(curv: dict, n: int) -> Matrix:
    """ric(e_i, e_j) = sum over k of R(e_i, e_k)[k, j], from curvature_matrices."""
    out = [[ZERO] * n for _ in range(n)]
    for (i, k), R in curv.items():
        for j in range(n):
            if R[k, j]:
                out[i][j] = out[i][j] + R[k, j]
    return Matrix(out)


def ricci_trace_of_curvature(ct: ConnectionTable) -> Matrix:
    """ric(x,y) = tr( z -> R(x,z) y )."""
    return _ricci_trace(curvature_matrices(ct), ct.g.n)


def trace_identities(p: LSAProduct) -> Verdict:
    """The four identities of the compatible product:
    1. omega(xy, z) + omega(zy, x) = 0;
    2. cyclic sum of omega(xy, z) vanishes;
    3. tr(R_x R_y) = tr(R_(xy)) = 2 tr(L_(xy));
    4. tr(R_x R_y) = 2 tr(R_y L_x) = 2 tr(R_x L_y)."""
    g = p.g
    n = g.n
    basis = [g.basis_vector(i) for i in range(n)]
    L = [p.left_mult(b) for b in basis]
    R = [p.right_mult(b) for b in basis]
    failures = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g.omega_of(p.prod(basis[i], basis[j]), basis[k]) + \
                   g.omega_of(p.prod(basis[k], basis[j]), basis[i]):
                    failures.append(f"identity 1 fails on ({i},{j},{k})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = (g.omega_of(p.prod(basis[i], basis[j]), basis[k])
                     + g.omega_of(p.prod(basis[j], basis[k]), basis[i])
                     + g.omega_of(p.prod(basis[k], basis[i]), basis[j]))
                if s:
                    failures.append(f"identity 2 fails on ({i},{j},{k})")
    for i in range(n):
        for j in range(n):
            rr = R[i].trace_product(R[j])
            rxy = p.right_mult(p.prod(basis[i], basis[j])).trace()
            lxy = p.left_mult(p.prod(basis[i], basis[j])).trace()
            if rr != rxy or rxy != 2 * lxy:
                failures.append(f"identity 3 fails on ({i},{j})")
            if rr != 2 * R[j].trace_product(L[i]) or rr != 2 * R[i].trace_product(L[j]):
                failures.append(f"identity 4 fails on ({i},{j})")
    return Verdict(not failures, failures)


def _trace_form(mats) -> Matrix:
    """tr(A_i A_j) for the matrices A_i of the basis elements."""
    return Matrix([[a.trace_product(b) for b in mats] for a in mats])


def left_trace_form(p: LSAProduct) -> Matrix:
    """kappa(x, y) = tr(L_x L_y)."""
    return _trace_form([p.left_mult(p.g.basis_vector(i)) for i in range(p.g.n)])


def killing_form(g: SymplecticLieAlgebra) -> Matrix:
    return _trace_form([g.table.ad_matrix(g.basis_vector(i)) for i in range(g.n)])


@dataclass
class StructureReport:
    nilpotent: bool
    solvable: bool
    kappa: Matrix
    killing: Matrix
    lower_central_dims: list
    derived_dims: list

    def record(self) -> str:
        # kappa and the Killing form side by side; no relation between them
        # is asserted anywhere
        return (f"nilpotent={self.nilpotent} solvable={self.solvable} "
                f"kappa_zero={self.kappa.is_zero()} "
                f"killing_zero={self.killing.is_zero()} "
                f"lcs={','.join(map(str, self.lower_central_dims))} "
                f"ds={','.join(map(str, self.derived_dims))}")


def structure_tests(g: SymplecticLieAlgebra, p: Optional[LSAProduct] = None) -> StructureReport:
    """Series, the left trace form, and the implications
    kappa = 0 => solvable and nilpotent => kappa = 0 (asserted)."""
    p = p or lsa_from_symplectic(g)
    lcs = g.table.lower_central_series()
    ds = g.table.derived_series()
    nilp = lcs[-1].dim == 0
    solv = ds[-1].dim == 0
    kappa = left_trace_form(p)
    if kappa.is_zero() and not solv:
        raise AssertionError("kappa = 0 but the algebra is not solvable")
    if nilp and not kappa.is_zero():
        raise AssertionError("nilpotent algebra with nonzero left trace form")
    return StructureReport(nilp, solv, kappa, killing_form(g),
                           [s.dim for s in lcs], [s.dim for s in ds])


# ---------------------------------------------------------------------------
# Nomizu maps for reductive homogeneous data
# ---------------------------------------------------------------------------

@dataclass
class NomizuResult:
    solution_dim: int          # dimension of the affine solution set (-1: empty)
    particular: Optional[list]  # one solution, as h-coefficient columns per m-basis vector
    homogeneous_dim: int

    @property
    def unique(self) -> bool:
        return self.solution_dim == 0


def nomizu_solutions(h_action, m_bracket_m, h_structure=None, equivariant=True,
                     dim_m=None) -> NomizuResult:
    """Affine solution set of the torsion-free (and optionally equivariant)
    Nomizu systems for reductive data.

    h_action: list of dim-h matrices (action of the h-basis on m); an empty
    list means h = 0 (pass dim_m explicitly then).
    m_bracket_m: dict (i, j) i<j -> (h_part, m_part) coefficient tuples.
    h_structure: LieTable of h (needed for the equivariance constraints).

    Unknown is L : m -> h with L(x)y - L(y)x = pi_m[x, y] and, if equivariant,
    L(h.x) = [h, L(x)] in h.  The homogeneous torsion-free system with the
    equivariance dropped computes the first prolongation of the image of h.
    """
    dim_h = len(h_action)
    if dim_h == 0:
        if dim_m is None:
            raise ValueError("h = 0 needs an explicit dim_m")
        consistent = all(not any(parts[1]) for parts in (m_bracket_m or {}).values())
        return NomizuResult(0 if consistent else -1, [] if consistent else None, 0)
    dim_m = h_action[0].nrows
    nunk = dim_m * dim_h  # L[a][i]: coefficient of h_a in L(x_i)

    def unk(a, i):
        return a * dim_m + i

    rows = []
    rhs = []
    # torsion-free: sum_a L[a][i] (A_a x_j) - L[a][j] (A_a x_i) = pi_m [x_i, x_j]
    for i in range(dim_m):
        for j in range(i + 1, dim_m):
            m_part = [ZERO] * dim_m
            if m_bracket_m and (i, j) in m_bracket_m:
                m_part = list(m_bracket_m[(i, j)][1])
            for r in range(dim_m):
                row = [ZERO] * nunk
                for a in range(dim_h):
                    row[unk(a, i)] = row[unk(a, i)] + h_action[a][r, j]
                    row[unk(a, j)] = row[unk(a, j)] - h_action[a][r, i]
                rows.append(row)
                rhs.append(m_part[r])
    if equivariant:
        if h_structure is None:
            raise ValueError("equivariance needs the structure constants of h")
        for b in range(dim_h):
            eb = basis_vector(dim_h, b)
            for i in range(dim_m):
                # L(A_b x_i) = [h_b, L(x_i)]
                for a_out in range(dim_h):
                    row = [ZERO] * nunk
                    for jj in range(dim_m):
                        if h_action[b][jj, i]:
                            row[unk(a_out, jj)] = row[unk(a_out, jj)] + h_action[b][jj, i]
                    for a in range(dim_h):
                        br = h_structure.bracket_coords(eb, basis_vector(dim_h, a))
                        if br[a_out]:
                            row[unk(a, i)] = row[unk(a, i)] - br[a_out]
                    rows.append(row)
                    rhs.append(ZERO)
    M = Matrix(rows, ncols=nunk)
    part = M.solve(rhs)
    hom = M.kernel()
    if part is None:
        return NomizuResult(-1, None, hom.dim)
    cols = [[part[unk(a, i)] for a in range(dim_h)] for i in range(dim_m)]
    return NomizuResult(hom.dim, cols, hom.dim)


def cp2_symmetric_data():
    """Reductive data of the complex projective plane: su(3) = u(2) + m.

    Returns (h_action, m_bracket_m, h_table, omega) with the u(2)-isotropy
    acting on m = R^4 by exact rational matrices, the symmetric-space
    brackets [m, m] in h, the structure constants of h, and an invariant
    symplectic form on m (so the action lands in sp(4, R)).  This is the
    standard uniqueness example for invariant torsion-free symplectic
    connections: the isotropy has trivial first prolongation, so the
    equivariant torsion-free Nomizu system has exactly one solution.
    """
    from .scalars import GScalar

    def emat(i, j):
        rows = [[GScalar(0, 0)] * 3 for _ in range(3)]
        rows[i][j] = GScalar(1, 0)
        return Matrix(rows)

    def gmat(*entries):
        s = Matrix([[GScalar(0, 0)] * 3 for _ in range(3)])
        for c, i, j in entries:
            s = s + emat(i, j).scale(c)
        return s

    iu = GScalar(0, 1)
    h_basis = [
        gmat((iu, 1, 1), (GScalar(0, -1), 2, 2)),
        gmat((GScalar(1, 0), 1, 2), (GScalar(-1, 0), 2, 1)),
        gmat((iu, 1, 2), (iu, 2, 1)),
        gmat((GScalar(0, 2), 0, 0), (GScalar(0, -1), 1, 1), (GScalar(0, -1), 2, 2)),
    ]
    m_basis = [
        gmat((GScalar(1, 0), 0, 1), (GScalar(-1, 0), 1, 0)),
        gmat((iu, 0, 1), (iu, 1, 0)),
        gmat((GScalar(1, 0), 0, 2), (GScalar(-1, 0), 2, 0)),
        gmat((iu, 0, 2), (iu, 2, 0)),
    ]

    def comm(a, b):
        return (a @ b) - (b @ a)

    keys = [(i, j) for i in range(3) for j in range(3)]
    allb = h_basis + m_basis
    B = Matrix([[b[k[0], k[1]] for b in allb] for k in keys], ncols=8)

    def decomp(x):
        sol = B.solve([x[k[0], k[1]] for k in keys])
        if sol is None:
            raise AssertionError("element outside u(2) + m")
        return sol

    def realify(vals):
        out = []
        for e in vals:
            if e.im:
                raise AssertionError("nonreal structure coefficient")
            out.append(e.re)
        return out

    h_act = []
    for a in h_basis:
        cols = []
        for x in m_basis:
            s = decomp(comm(a, x))
            if any(s[:4]):
                raise AssertionError("[h, m] leaves m")
            cols.append(realify(s[4:]))
        h_act.append(Matrix.from_columns(cols))
    mbm = {}
    for i in range(4):
        for j in range(i + 1, 4):
            s = decomp(comm(m_basis[i], m_basis[j]))
            if any(s[4:]):
                raise AssertionError("[m, m] leaves h: not a symmetric pair")
            mbm[(i, j)] = (tuple(realify(s[:4])), (ZERO,) * 4)
    h_rows = {}
    for i in range(4):
        for j in range(i + 1, 4):
            s = realify(decomp(comm(h_basis[i], h_basis[j]))[:4])
            h_rows[(i, j)] = {k: s[k] for k in range(4) if s[k]}
    h_table = LieTable(["a1", "a2", "a3", "a4"], h_rows)
    a4 = h_basis[3]
    om = Matrix([[realify([(a4 @ comm(m_basis[i], m_basis[j])).trace()])[0]
                  for j in range(4)] for i in range(4)])
    return h_act, mbm, h_table, om


# ---------------------------------------------------------------------------
# text input format for algebras
# ---------------------------------------------------------------------------

def parse_algebra(text: str, name: str = "") -> SymplecticLieAlgebra:
    """Parse the flat text format:

        dim 4
        [1,2] = 1 * e3
        omega(1,3) = 1
        omega(2,4) = -1/2

    The dim line comes first.  Indices are 1-based and checked against
    1..dim; omitted brackets and omega entries are zero, and omega is filled
    antisymmetrically."""
    n = None
    brackets = {}
    omega_entries = {}

    def index(txt):
        if n is None:
            raise ValueError(f"line {lineno}: dim must come first")
        k = int(txt)
        if not 1 <= k <= n:
            raise ValueError(f"line {lineno}: index {k} is outside 1..{n}")
        return k - 1

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim"):
            n = int(line[len("dim"):])
            if n < 1:
                raise ValueError(f"line {lineno}: dim must be positive")
            continue
        if line.startswith("omega"):
            head, _, val = line.partition("=")
            ij = head[head.index("(") + 1:head.index(")")]
            i, j = (index(s) for s in ij.split(","))
            omega_entries[(i, j)] = parse_scalar(val)
            continue
        if line.startswith("["):
            head, _, val = line.partition("=")
            ij = head.strip()[1:-1]
            i, j = (index(s) for s in ij.split(","))
            row = {}
            for term in val.split("+"):
                term = term.strip()
                if not term:
                    continue
                if "*" in term:
                    c_txt, _, e_txt = term.partition("*")
                    c = parse_scalar(c_txt)
                else:
                    c, e_txt = ONE, term
                e_txt = e_txt.strip()
                if not e_txt.startswith("e"):
                    raise ValueError(f"line {lineno}: expected basis label e<k>")
                k = index(e_txt[1:])
                row[k] = row.get(k, ZERO) + c
            if i > j:
                i, j = j, i
                row = {k: -c for k, c in row.items()}
            brackets[(i, j)] = {k: c for k, c in row.items() if c}
            continue
        raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    if n is None:
        raise ValueError("missing dim line")
    om = [[ZERO] * n for _ in range(n)]
    for (i, j), c in omega_entries.items():
        om[i][j] = c
        om[j][i] = -c
    table = LieTable([f"e{i+1}" for i in range(n)], brackets)
    return SymplecticLieAlgebra(table, Matrix(om), name)


def format_algebra(g: SymplecticLieAlgebra) -> str:
    lines = [f"dim {g.n}"]
    for (i, j), row in sorted(g.table.brackets.items()):
        terms = " + ".join(f"{fmt_scalar(c)} * e{k+1}" for k, c in sorted(row.items()))
        lines.append(f"[{i+1},{j+1}] = {terms}")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.omega[i, j]:
                lines.append(f"omega({i+1},{j+1}) = {fmt_scalar(g.omega[i, j])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in corpus
# ---------------------------------------------------------------------------

def _mk(name, n, brackets, omega_pairs) -> SymplecticLieAlgebra:
    table = LieTable([f"e{i+1}" for i in range(n)],
                     {k: {kk: rat(c) for kk, c in row.items()} for k, row in brackets.items()})
    om = [[ZERO] * n for _ in range(n)]
    for (i, j), c in omega_pairs.items():
        om[i][j] = rat(c)
        om[j][i] = rat(-c)
    return SymplecticLieAlgebra(table, Matrix(om), name)


def corpus() -> dict:
    """The built-in symplectic Lie algebras: abelian, the affine line, the
    Heisenberg algebra plus a line, and five nilpotent algebras in
    dimensions 4 and 6 (filiform chains and sums), each of which passes
    check_symplectic."""
    algs = {}
    algs["abelian4"] = _mk("abelian4", 4, {}, {(0, 1): 1, (2, 3): 1})
    algs["aff1"] = _mk("aff1", 2, {(0, 1): {1: 1}}, {(0, 1): 1})
    algs["heis3+R"] = _mk("heis3+R", 4, {(0, 1): {2: 1}}, {(0, 2): 1, (1, 3): 1})
    # filiform n4: [e1,e2]=e3, [e1,e3]=e4
    algs["n4"] = _mk("n4", 4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                     {(0, 3): 1, (1, 2): 1})
    # direct sums with the trivial plane
    algs["heis3+R3"] = _mk("heis3+R3", 6, {(0, 1): {2: 1}},
                           {(0, 2): 1, (1, 3): 1, (4, 5): 1})
    algs["n4+R2"] = _mk("n4+R2", 6, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                        {(0, 3): 1, (1, 2): 1, (4, 5): 1})
    # filiform chain in dimension 6
    algs["L6"] = _mk("L6", 6,
                     {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (0, 4): {5: 1}},
                     {(0, 5): 1, (1, 4): 1, (2, 3): -1})
    # filiform n5 plus a line
    algs["n5+R"] = _mk("n5+R", 6,
                       {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}},
                       {(0, 5): 1, (1, 4): 1, (2, 3): -1})
    return algs


NILPOTENT_CORPUS = ("heis3+R", "n4", "heis3+R3", "n4+R2", "L6", "n5+R")


@dataclass
class FedosovReport:
    name: str
    symplectic: Verdict
    lsa: Verdict
    connection_ok: Verdict
    curvature_match: bool
    ricci_match: bool
    ricci: Matrix
    identities: Verdict
    structure: StructureReport
    product: LSAProduct
    nabla: ConnectionTable
    curvature: dict   # (i, k) -> R(e_i, e_k)

    @property
    def ok(self) -> bool:
        return (self.symplectic.valid and self.lsa.valid and self.connection_ok.valid
                and self.curvature_match and self.ricci_match and self.identities.valid)

    def records(self):
        lines = [f"algebra={self.name} symplectic={self.symplectic.record()}"]
        lines.append(f"left_symmetric={self.lsa.record()} connection={self.connection_ok.record()}")
        lines.append(f"curvature_formula_match={self.curvature_match} "
                     f"ricci_formula_match={self.ricci_match} "
                     f"identities={self.identities.record()}")
        lines.append(self.structure.record())
        lines.append("ric_zero=" + str(self.ricci.is_zero()))
        for i in range(self.ricci.nrows):
            for j in range(self.ricci.ncols):
                if self.ricci[i, j]:
                    lines.append(f"ric({i+1},{j+1}) = {fmt_scalar(self.ricci[i, j])}")
        return lines


def fedosov_report(g: SymplecticLieAlgebra) -> FedosovReport:
    sym = check_symplectic(g)
    if not sym.valid:
        raise ValueError(f"{g.name}: " + "; ".join(sym.failures))
    p = lsa_from_symplectic(g)
    lsa_v = check_left_symmetric(p)
    ct = connection(p)
    conn_v = check_connection(ct)
    basis = [g.basis_vector(i) for i in range(g.n)]
    curv = curvature_matrices(ct)
    # both formulas are antisymmetric in (x, y) and zero on the diagonal
    curv_ok = all(curv[i, j] == curvature_closed(p, basis[i], basis[j])
                  for i in range(g.n) for j in range(i + 1, g.n))
    ric_c = ricci_closed(p)
    ric_t = _ricci_trace(curv, g.n)
    ric_sym = all(ric_c[i, j] == ric_c[j, i] for i in range(g.n) for j in range(g.n))
    if not ric_sym:
        raise AssertionError("Ricci matrix is not symmetric")
    ids = trace_identities(p)
    st = structure_tests(g, p)
    return FedosovReport(g.name, sym, lsa_v, conn_v, curv_ok, ric_c == ric_t,
                         ric_c, ids, st, p, ct, curv)
