"""Cartan prolongation of subalgebras h of sp(V) inside the symmetric algebra.

The k-th prolongation is computed as the exact kernel

    h^(k) = { T in S^(k+2)(V) : [T, v] in h^(k-1) for every basis vector v },

which for h inside sp(V) agrees with the classical Spencer prolongation.
Finite/infinite type decisions for the 4-dimensional symplectic space rest
on two facts from the theory: a finite type subalgebra of sp_2(R) has
trivial first prolongation (so h^(1) != 0 already certifies infinite type
when n = 2), and a linear Lie algebra is of infinite type iff its
complexification contains a rank-one element.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .scalars import GScalar, ONE, ZERO, parse_scalar
from .linalg import Matrix, Subspace, zero_like
from .weyl import (SymTensor, SymplecticSpace, dim_sym, monomial_basis,
                   poisson_bracket, quad_to_matrix, tensor_from_coords)


def span_of_tensors(tensors, degree=None) -> Subspace:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("need at least one tensor (possibly zero) to fix the space")
    space = tensors[0].space
    if degree is None:
        degree = max(t.degree for t in tensors)
    n = dim_sym(space.n, degree)
    return Subspace.from_vectors([t.coords(degree) for t in tensors], n)


def subspace_tensors(space: SymplecticSpace, sub: Subspace, degree: int):
    return [tensor_from_coords(space, degree, v) for v in sub.basis]


class LinearSubalgebra:
    """Subspace of S^2(V) = sp(V), tracked with its bracket-closure status."""

    def __init__(self, space: SymplecticSpace, tensors, name: str = ""):
        self.space = space
        self.tensors = [t for t in tensors]
        self.subspace = span_of_tensors(self.tensors, degree=2) if self.tensors \
            else Subspace.zero(dim_sym(space.n, 2))
        self.name = name

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def basis_tensors(self):
        return subspace_tensors(self.space, self.subspace, 2)

    def check_closure(self):
        """Return None if closed under the bracket, else a violating pair."""
        basis = self.basis_tensors()
        for i, a in enumerate(basis):
            for b in basis[i + 1:]:
                br = poisson_bracket(a, b)
                if not br.is_zero() and br.coords(2) not in self.subspace:
                    return (a, b, br)
        return None


def is_subalgebra(space: SymplecticSpace, tensors) -> bool:
    return LinearSubalgebra(space, tensors).check_closure() is None


@dataclass
class ProlongationChain:
    """h^(0) = h, h^(1), ..., h^(kmax) with h^(k) inside S^(k+2)(V)."""

    space: SymplecticSpace
    levels: list  # list[Subspace], levels[k] = h^(k)

    @property
    def dims(self):
        return [s.dim for s in self.levels]

    def level_tensors(self, k: int):
        return subspace_tensors(self.space, self.levels[k], k + 2)


def prolong_step(space: SymplecticSpace, prev: Subspace, k: int) -> Subspace:
    """h^(k) from h^(k-1): kernel of the stacked quotient conditions.

    The conditions for v_b are the rows of C @ ad(v_b), where C holds the
    quotient conditions of h^(k-1) and ad(v_b) is T -> [T, v_b] from
    S^(k+2)(V) to S^(k+1)(V).  Only the letter u with Omega(u, b) != 0
    pairs with v_b, so a monomial m goes to

        [m, v_b] = mult_u(m) * Omega(u, b) * (m without one u),

    and column m of ad(v_b) has at most one nonzero.  Column m of C @ ad(v_b)
    is therefore that scalar times column pos[m without u] of C, or zero when
    u does not divide m.  As in the product, every entry is a GScalar when
    any entry of C is.
    """
    src = monomial_basis(space.n, k + 2)
    cond = prev.quotient_conditions()
    if not cond:
        return Subspace.full(len(src))
    pos = {m: i for i, m in enumerate(monomial_basis(space.n, k + 1))}
    z = zero_like(cond)
    if isinstance(z, GScalar):
        cond = [[GScalar.of(x) for x in row] for row in cond]
    rows = []
    for b in range(space.dim):
        u = next(u for u in range(space.dim) if space.omega_idx(u, b))
        om = space.omega_idx(u, b)
        lookup = []
        for j, m in enumerate(src):
            mult = m.count(u)
            if mult:
                i = m.index(u)
                lookup.append((j, pos[m[:i] + m[i + 1:]], om * mult))
        for crow in cond:
            row = [z] * len(src)
            for j, p, s in lookup:
                x = crow[p]
                if x:
                    row[j] = x * s
            rows.append(row)
    return Matrix(rows).kernel()


def prolong_chain(h: LinearSubalgebra, kmax: int = 4) -> ProlongationChain:
    """Prolongation chain of a bracket-closed h, exact at every level."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    bad = h.check_closure()
    if bad is not None:
        a, b, br = bad
        raise ValueError(f"not closed under bracket: [{a}, {b}] = {br} is outside the span")
    levels = [h.subspace]
    for k in range(1, kmax + 1):
        if levels[-1].dim == 0:
            levels.append(Subspace.zero(dim_sym(h.space.n, k + 2)))
            continue
        levels.append(prolong_step(h.space, levels[-1], k))
    return ProlongationChain(h.space, levels)


def parabolic_prolong_closed_form(space: SymplecticSpace, which: str, k: int) -> Subspace:
    """Closed form of the k-th prolongation of a maximal parabolic.

    p1 (Lagrangian-plane stabilizer):  Q v S^(k+1)(P) + S^(k+2)(P);
    p2 (isotropic-line stabilizer):    R p1^(k+1) q1 + sum_(i+j=k+2) S^i(W) v p1^j
    with W = span(p2, q2).  Only implemented for n = 2.
    """
    if space.n != 2:
        raise ValueError("closed forms are for the 4-dimensional case")
    if k < 1:
        raise ValueError("need k >= 1")
    deg = k + 2
    P = [space.index["p1"], space.index["p2"]]
    Q = [space.index["q1"], space.index["q2"]]
    gens = []
    if which == "p1":
        for m in monomial_basis(space.n, deg):
            inP = sum(1 for i in m if i in P)
            if inP >= deg - 1:
                gens.append(SymTensor(space, {m: ONE}))
    elif which == "p2":
        p1i, q1i = space.index["p1"], space.index["q1"]
        W = (space.index["p2"], space.index["q2"])
        top = tuple(sorted([p1i] * (k + 1) + [q1i]))
        gens.append(SymTensor(space, {top: ONE}))
        for m in monomial_basis(space.n, deg):
            if all(i in W or i == p1i for i in m):
                gens.append(SymTensor(space, {m: ONE}))
    else:
        raise ValueError("which must be 'p1' or 'p2'")
    return span_of_tensors(gens, degree=deg)


# ---------------------------------------------------------------------------
# rank-one witnesses and the finite/infinite type verdict
# ---------------------------------------------------------------------------

DEFAULT_GRID = (GScalar(0), GScalar(1), GScalar(-1), GScalar(2), GScalar(-2),
                GScalar(0, 1), GScalar(0, -1),
                GScalar(1, 1), GScalar(1, -1), GScalar(-1, 1), GScalar(-1, -1))


def witness_grid():
    """Search grid for rank-one combinations; SYMPROL_WITNESS_GRID overrides.

    Raises ValueError naming the variable and the first token that is not
    a scalar literal.
    """
    env = os.environ.get("SYMPROL_WITNESS_GRID")
    if not env:
        return DEFAULT_GRID
    vals = []
    for tok in env.split(","):
        try:
            s = parse_scalar(tok)
        except ValueError:
            raise ValueError(f"SYMPROL_WITNESS_GRID: {tok.strip()!r} is not a scalar") from None
        vals.append(GScalar.of(s))
    return tuple(vals)


def tensor_rank(t: SymTensor) -> int:
    return quad_to_matrix(t).rank()


# quad_to_matrix(t) = S * Omega, where S is the symmetric coefficient matrix
# of t with its diagonal doubled.  Omega is invertible, so t has rank one
# exactly when S != 0 and every 2x2 minor of S vanishes.  The helpers below
# hold S sparsely, as a dict (row, col) -> nonzero entry.

def _sym_matrix(t: SymTensor) -> dict:
    """The symmetric coefficient matrix S of a degree-2 tensor."""
    S = {}
    for (r, c), x in t.coeffs.items():
        if r == c:
            S[r, r] = 2 * x
        else:
            S[r, c] = S[c, r] = x
    return S


def _nonzero_minor(S: dict):
    """(r0, r, c0, c) with the minor of rows r0, r and columns c0, c of S
    nonzero, or None when rank(S) <= 1.

    With a pivot p = S[r0, c0] != 0, rank(S) <= 1 exactly when every minor
    through row r0 and column c0 vanishes: S[r, c] p = S[r, c0] S[r0, c].
    Outside the rows and columns S occupies both sides are zero.
    """
    if not S:
        return None
    (r0, c0), p = next(iter(S.items()))
    rows = {r for r, _ in S}
    cols = {c for _, c in S}
    for r in rows:
        u = S.get((r, c0))
        for c in cols:
            x = S.get((r, c))
            v = S.get((r0, c))
            if u is None or v is None:
                if x is not None:
                    return r0, r, c0, c
            elif x is None or x * p != u * v:
                return r0, r, c0, c
    return None


def _is_rank_one(S: dict) -> bool:
    return bool(S) and _nonzero_minor(S) is None


def _pencil(x, S: dict, y, T: dict) -> dict:
    """x S + y T, zeros dropped."""
    out = {}
    for k in S.keys() | T.keys():
        v = x * S.get(k, ZERO) + y * T.get(k, ZERO)
        if v:
            out[k] = v
    return out


def _rank_one_points(S: dict, T: dict):
    """The points (x, y) of P^1 over Q(i) where x S + y T has rank one, or
    None when every minor of x S + y T vanishes identically.

    Each 2x2 minor of x S + y T is a binary quadratic A x^2 + B x y + C y^2.
    One that is not identically zero is nonzero at one of the three points
    S, T, S + T, so a nonzero minor there gives its rows and columns; every
    rank-one point is one of its at most two roots.
    """
    minor = _nonzero_minor(S) or _nonzero_minor(T) or _nonzero_minor(_pencil(ONE, S, ONE, T))
    if minor is None:
        return None
    r0, r, c0, c = minor
    keys = ((r0, c0), (r, c), (r0, c), (r, c0))
    s = [S.get(k, ZERO) for k in keys]
    t = [T.get(k, ZERO) for k in keys]
    A = s[0] * s[1] - s[2] * s[3]
    C = t[0] * t[1] - t[2] * t[3]
    B = s[0] * t[1] + t[0] * s[1] - s[2] * t[3] - t[2] * s[3]
    if not A:
        roots = [(ONE, ZERO)] + ([(-C, B)] if B else [])
    else:
        d = GScalar.of(B * B - 4 * A * C).sqrt()
        if d is None:
            return []
        roots = [(-B + d, 2 * A)] + ([(-B - d, 2 * A)] if d else [])
    return [(x, y) for x, y in roots if _is_rank_one(_pencil(x, S, y, T))]


def _s2p_monomials(space: SymplecticSpace):
    """The monomials p1^2, p1 p2, p2^2 spanning S^2(P)."""
    p1, p2 = space.index["p1"], space.index["p2"]
    return (p1, p1), (p1, p2), (p2, p2)


def _s2p_part(space: SymplecticSpace, csub: Subspace) -> Subspace:
    """The part of a complexified span of quadrics inside S^2(P): the
    combinations of its basis whose coordinates off S^2(P) vanish."""
    s2p = _s2p_monomials(space)
    B = Matrix.from_columns(csub.basis)
    off = [row for row, m in zip(B.entries, monomial_basis(space.n, 2)) if m not in s2p]
    return Subspace.from_vectors(
        [B.apply(c) for c in Matrix(off, ncols=csub.dim).kernel().basis],
        csub.ambient).complexify()


def s2p_discriminant(space: SymplecticSpace, t: SymTensor):
    """x2^2 - 4 x1 x3 for t = x1 p1^2 + x2 p1 p2 + x3 p2^2, or None if t is
    not supported on S^2(P).  A nonzero t in S^2(P) has rank one exactly
    when it vanishes."""
    mons = _s2p_monomials(space)
    if any(m not in mons for m in t.coeffs):
        return None
    x1, x2, x3 = (t.coeffs.get(m, ZERO) for m in mons)
    return x2 * x2 - 4 * x1 * x3


def _s2p_pair_witness(space, t1, t2):
    """Rank-one element t1 + s t2 of span{t1, t2} inside S^2(P), where
    neither t1 nor t2 has rank one, or None if the roots s leave Q(i).

    The discriminant of t1 + s t2 is A s^2 + B s + C with C = disc(t1) and
    A = disc(t2) both nonzero, and A + B + C = disc(t1 + t2).
    """
    C = GScalar.of(s2p_discriminant(space, t1))
    A = GScalar.of(s2p_discriminant(space, t2))
    B = GScalar.of(s2p_discriminant(space, t1 + t2)) - A - C
    root = (B * B - 4 * A * C).sqrt()
    if root is None:
        return None
    return t1.complexify() + t2.complexify().scale((-B + root) / (2 * A))


def rank_one_witness(space: SymplecticSpace, sub: Subspace, grid=None):
    """A rank-one element of the complexified span, or None.

    Complete for lines (a line has a rank-one element iff its generator has
    rank one) and for subspaces of S^2(P), where the discriminant quadratic
    x2^2 = 4 x1 x3 is solved exactly over Q(i).  For anything else this is a
    bounded deterministic search: single basis elements, then pairwise
    combinations with coefficients in the configurable grid, skipping the
    candidates whose 2x2 minors rule out rank one; returning None then
    certifies nothing.
    """
    csub = sub.complexify()
    tensors = subspace_tensors(space, csub, 2)
    if not tensors:
        return None
    if len(tensors) == 1:
        t = tensors[0]
        return t if tensor_rank(t) == 1 else None
    inside_s2p = all(s2p_discriminant(space, t) is not None for t in tensors)
    if not inside_s2p and space.n == 2:
        # the part of the span inside S^2(P) still gets the complete search
        part = _s2p_part(space, csub)
        if part.dim >= 1:
            w = rank_one_witness(space, part, grid)
            if w is not None:
                return w
    if inside_s2p:
        for t in tensors:
            if not s2p_discriminant(space, t):
                return t
        for i in range(len(tensors)):
            for j in range(i + 1, len(tensors)):
                w = _s2p_pair_witness(space, tensors[i], tensors[j])
                if w is not None and tensor_rank(w) == 1:
                    return w
        return None
    # the minor test only rules candidates out; tensor_rank confirms each one
    mats = [_sym_matrix(t) for t in tensors]
    for t, S in zip(tensors, mats):
        if _is_rank_one(S) and tensor_rank(t) == 1:
            return t
    grid = witness_grid() if grid is None else grid
    nz = [g for g in grid if g]
    for i in range(len(tensors)):
        for j in range(i + 1, len(tensors)):
            # None: the pencil has rank <= 1 throughout, so no point is ruled out
            points = _rank_one_points(mats[i], mats[j])
            if points == []:
                continue
            for a in nz:
                for b in nz:
                    if points is not None and not any(a * y == b * x for x, y in points):
                        continue
                    cand = tensors[i].scale(a) + tensors[j].scale(b)
                    if tensor_rank(cand) == 1:
                        return cand
    return None


FINITE = "Finite"
INFINITE = "Infinite"
UNDECIDED = "Undecided"


@dataclass
class TypeVerdict:
    kind: str
    reason: str
    h1_dim: int
    witness: Optional[SymTensor] = None

    def record(self) -> str:
        ev = f"witness={self.witness}" if self.witness is not None else "h1=0" if self.h1_dim == 0 else f"h1_dim={self.h1_dim}"
        return f"verdict={self.kind} {ev}"


def finite_type_verdict(h: LinearSubalgebra) -> TypeVerdict:
    """Decide finite/infinite type.

    For n = 2 the first prolongation decides: h^(1) = 0 gives Finite, and
    h^(1) != 0 gives Infinite by the contrapositive of the fact that finite
    type subalgebras of sp_2(R) have trivial first prolongation.
    A rank-one witness in the complexification independently certifies
    Infinite in any dimension.  For n != 2 with h^(1) != 0 and no witness
    found the verdict is Undecided.
    """
    h1 = prolong_chain(h, kmax=1).levels[1]
    witness = rank_one_witness(h.space, h.subspace)
    if h1.dim == 0:
        if witness is not None:
            # impossible by the theory; report loudly rather than mask it
            raise AssertionError("h^(1) = 0 but a rank-one witness was found")
        return TypeVerdict(FINITE, "first prolongation vanishes", 0)
    if witness is not None:
        return TypeVerdict(INFINITE, "rank-one element in the complexification",
                           h1.dim, witness)
    if h.space.n == 2:
        return TypeVerdict(INFINITE,
                           "h^(1) != 0 and finite type subalgebras of sp_2(R) have h^(1) = 0",
                           h1.dim)
    return TypeVerdict(UNDECIDED, "h^(1) != 0 and no rank-one witness found", h1.dim)
