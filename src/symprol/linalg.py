"""Exact linear algebra over Q and Q(i): matrices, row-sparse RREF, kernels.

Everything is field-generic: entries only need +, -, *, / and truthiness,
which Fraction and GScalar provide.  Rank, kernel and the
canonical reduced-row-echelon representative of a subspace are all exact;
two subspaces are equal iff their canonical forms are identical data.

Matrices are stored dense, but ``rref`` eliminates row-sparsely: a row is
updated only where the normalized pivot row is nonzero.  Its results,
including the type of every entry (rational or GScalar), are those of
dense Gauss-Jordan elimination, because the type is printed: an entry
becomes a GScalar exactly when the dense update a - f * b would make it one.
``solve_many`` eliminates a fixed matrix once for all its right-hand sides;
``trace_product`` gives tr(A B) in O(n^2) without forming A B.
"""

from __future__ import annotations

from .scalars import GScalar, ZERO, ONE, is_rat


def zero_like(entries):
    """GScalar(0, 0) if any entry is a GScalar, else ZERO: the zero that a
    product with these entries starts its sums from."""
    for row in entries:
        for x in row:
            if isinstance(x, GScalar):
                return GScalar(0, 0)
    return ZERO


def basis_vector(n, i):
    """The i-th standard basis vector of K^n, as a tuple."""
    v = [ZERO] * n
    v[i] = ONE
    return tuple(v)


def _one_of(x):
    return GScalar(1, 0) if isinstance(x, GScalar) else ONE


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) with zero rows dropped; pivots are
    normalized to 1 and cleared above and below.  Input rows are not mutated.

    Elimination is row-sparse: a row is updated in place at the nonzero
    entries of the normalized pivot row only.  Entry types follow the dense
    update a - f * b over the whole row, which gives a GScalar exactly when
    a, f or b is one (zero included).  So a row is lifted whole by
    GScalar.of when f or every entry of the pivot row is Gaussian, and
    otherwise only where the pivot row is Gaussian; a Gaussian inv lifts
    the pivot row before it is normalized.  All-rational input is never
    lifted, and a row known to be all-Gaussian is never lifted again.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    gauss = [False] * nrows  # True once a row holds GScalars only
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        gauss[r], gauss[pr] = gauss[pr], gauss[r]
        prow = m[r]
        inv = _one_of(prow[c]) / prow[c]
        if isinstance(inv, GScalar) and not gauss[r]:
            prow = [GScalar.of(x) for x in prow]
        # a zero x stays as inv * x would leave it: GScalar(0, 0) or ZERO
        prow = m[r] = [inv * x if x else x if isinstance(x, GScalar) else ZERO
                       for x in prow]
        nonzero = [(j, x) for j, x in enumerate(prow) if x]
        gpos = [j for j, x in enumerate(prow) if isinstance(x, GScalar)]
        gauss[r] = all_gauss = len(gpos) == len(prow)
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if i == r or not f:
                continue
            if not gauss[i]:
                if all_gauss or isinstance(f, GScalar):
                    row[:] = [GScalar.of(x) for x in row]
                    gauss[i] = True
                else:
                    for j in gpos:
                        row[j] = GScalar.of(row[j])
            for j, x in nonzero:
                row[j] = row[j] - f * x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


class Matrix:
    """Dense matrix of exact scalars."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries, ncols=None):
        self.entries = [tuple(row) for row in entries]
        self.nrows = len(self.entries)
        if self.nrows:
            self.ncols = len(self.entries[0])
            if any(len(r) != self.ncols for r in self.entries):
                raise ValueError("ragged matrix")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n):
        return cls([basis_vector(n, i) for i in range(n)])

    @classmethod
    def from_columns(cls, cols):
        """The matrix whose j-th column is cols[j]."""
        return cls(zip(*cols), ncols=len(cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols
                and all(a == b for ra, rb in zip(self.entries, other.entries)
                        for a, b in zip(ra, rb)))

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)], ncols=self.ncols)

    def __sub__(self, other):
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)], ncols=self.ncols)

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.entries], ncols=self.ncols)

    def scale(self, c):
        return Matrix([[c * a for a in row] for row in self.entries], ncols=self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        z = zero_like(self.entries)
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = z
                for k in range(self.ncols):
                    a = self.entries[i][k]
                    if a:
                        s = s + a * other.entries[k][j]
                row.append(s)
            out.append(row)
        return Matrix(out, ncols=other.ncols)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.nrows):
            s = ZERO
            for k, a in enumerate(self.entries[i]):
                if a and vec[k]:
                    s = s + a * vec[k]
            out.append(s)
        return tuple(out)

    def transpose(self):
        return Matrix([[self.entries[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], ncols=self.nrows)

    def trace_product(self, other):
        """tr(self @ other) in O(n^2): the diagonal of the product only, with
        the same zero, skipped entries and order of sums as @ and trace."""
        if self.ncols != other.nrows or self.nrows != other.ncols:
            raise ValueError("shape mismatch")
        z = zero_like(self.entries)
        s = ZERO
        for i, row in enumerate(self.entries):
            d = z
            for k, a in enumerate(row):
                if a:
                    d = d + a * other.entries[k][i]
            s = s + d
        return s

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        s = ZERO
        for i in range(self.nrows):
            s = s + self.entries[i][i]
        return s

    def rank(self) -> int:
        return len(rref(self.entries, self.ncols)[1])

    def kernel(self) -> "Subspace":
        """Canonical basis of {v : M v = 0}."""
        red, pivots = rref(self.entries, self.ncols)
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = []
        for f in free:
            v = [ZERO] * self.ncols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -red[r][f]
            basis.append(v)
        return Subspace.from_vectors(basis, self.ncols)

    def solve(self, rhs):
        """One solution of M x = rhs, or None if inconsistent."""
        return self.solve_many([rhs])[0]

    def solve_many(self, rhss):
        """solve(b) for each b in rhss, from one RREF of [M | b_1 ... b_m].

        b_k is consistent iff every reduced row whose pivot lies right of M
        is zero in b_k's column; those rows then leave that column alone, so
        its values are the ones a single solve reads."""
        n = self.ncols
        aug = [list(row) + list(bs) for row, bs in zip(self.entries, zip(*rhss))]
        red, pivots = rref(aug, n + len(rhss))
        rank = sum(1 for p in pivots if p < n)
        out = []
        for c in range(n, n + len(rhss)):
            x = None
            if not any(row[c] for row in red[rank:]):
                x = [ZERO] * n
                for row, p in zip(red, pivots[:rank]):
                    x[p] = row[c]
                x = tuple(x)
            out.append(x)
        return out

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class Subspace:
    """Subspace of K^n in canonical reduced row-echelon form.

    Equality of subspaces is literal equality of the canonical data.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, basis, pivots):
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, vectors, ambient) -> "Subspace":
        basis, pivots = rref(vectors, ambient)
        return cls(ambient, basis, pivots)

    @classmethod
    def zero(cls, ambient) -> "Subspace":
        return cls(ambient, [], [])

    @classmethod
    def full(cls, ambient) -> "Subspace":
        return cls.from_vectors(Matrix.identity(ambient).entries, ambient)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.pivots == other.pivots
                and all(a == b for ra, rb in zip(self.basis, other.basis)
                        for a, b in zip(ra, rb)))

    def reduce(self, vec):
        """Residue of vec after reduction against the canonical basis."""
        v = list(vec)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def __contains__(self, vec):
        return all(not x for x in self.reduce(vec))

    def contains_subspace(self, other) -> bool:
        return all(v in self for v in other.basis)

    def _check_ambient(self, other):
        if self.ambient != other.ambient:
            raise ValueError(f"ambient dimension mismatch: {self.ambient} vs {other.ambient}")

    def __add__(self, other) -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(list(self.basis) + list(other.basis), self.ambient)

    def intersect(self, other) -> "Subspace":
        """Zassenhaus: row-reduce [A|A; B|0], read the intersection off the
        rows whose left block vanished."""
        self._check_ambient(other)
        n = self.ambient
        z = [ZERO] * n
        block = [list(v) + list(v) for v in self.basis]
        block += [list(v) + z for v in other.basis]
        red, _ = rref(block, 2 * n)
        inter = [row[n:] for row in red if all(not x for x in row[:n])]
        return Subspace.from_vectors(inter, n)

    def complexify(self) -> "Subspace":
        vecs = [[GScalar.of(x) if is_rat(x) else x for x in v] for v in self.basis]
        return Subspace.from_vectors(vecs, self.ambient)

    def quotient_conditions(self):
        """Rows of a matrix C with kernel exactly this subspace.

        For x in K^n the residue r(x) = x - sum_i x[p_i] * basis_i is linear;
        membership is r(x) = 0, and only the non-pivot coordinates of r(x)
        can be nonzero.
        """
        pivset = set(self.pivots)
        rows = []
        for c in range(self.ambient):
            if c in pivset:
                continue
            row = [ZERO] * self.ambient
            row[c] = ONE
            for b, p in zip(self.basis, self.pivots):
                row[p] = -b[c]
            rows.append(row)
        return rows

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def grassmann_check(a: Subspace, b: Subspace) -> bool:
    return a.dim + b.dim == (a + b).dim + a.intersect(b).dim
