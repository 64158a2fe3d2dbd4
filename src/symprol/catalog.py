"""Catalog of the named subalgebras of sp(4,R) and their verification.

Every entry stores printed generators (with its parameter ranges and side
conditions), the expected dimension and type, and a citation string naming
the classification table or list the representative comes from.  The
verification routine recomputes closure, dimension and the first
prolongation from scratch and compares.

Entries are representatives: conjugacy is never decided here.  Labels of the
solvable families (D_{4,12}, F_{6,5}, ...) follow the similitude-algebra
classification tables of Patera-Winternitz-Sharp-Zassenhaus, which is where
these normal forms originate.

The Goursat correspondence for subalgebras of sl2(R) + sl2(R) is also
implemented here: quintuples (A, A0, B, B0, theta) with theta a Lie algebra
isomorphism A/A0 -> B/B0 correspond one-to-one to subalgebras of the direct
sum, via h = { a + b : theta(a + A0) = b + B0 }.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .scalars import ONE, as_rat, fmt_rat, rat
from .linalg import Matrix, Subspace
from .weyl import (SymplecticSpace, SymTensor, monomial_basis, parse_tensor,
                   poisson_bracket, tensor_from_coords)
from .prolongation import (FINITE, INFINITE, LinearSubalgebra, finite_type_verdict,
                           s2p_discriminant, span_of_tensors, subspace_tensors)

SP4 = SymplecticSpace(2)


def t(text: str) -> SymTensor:
    return parse_tensor(SP4, text)


# Lagrangian / Lorentzian named constants of the 4-dimensional setup.
P_BASIS = (t("p1"), t("p2"))
Q_BASIS = (t("q1"), t("q2"))
W_BASIS = (t("p2"), t("q2"))

E0 = t("1/2 * p1^2 + 1/2 * p2^2")
E1 = t("1/2 * p1^2 - 1/2 * p2^2")
E2 = t("p1*p2")
F_DIL = t("-1/2 * p1*q1 - 1/2 * p2*q2")
K1 = t("1/2 * p1*q1 - 1/2 * p2*q2")
K2 = t("1/2 * p1*q2 + 1/2 * p2*q1")
L3 = t("-1/2 * p1*q2 + 1/2 * p2*q1")


def lorentz_norm(x: SymTensor):
    """Invariant Lorentzian norm on S^2(P): x1 p1^2 + x2 p1p2 + x3 p2^2
    has norm 4 x1 x3 - x2^2 (so e0 is positive, e1 and e2 negative)."""
    disc = s2p_discriminant(SP4, x)
    if disc is None:
        raise ValueError("tensor is not supported on S^2(P)")
    return -disc


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    name: str
    condition: str             # human-readable side condition
    check: Callable            # value -> bool, True when legal
    defaults: tuple


SIGN = Param("eps", "eps = +-1", lambda v: v in (1, -1), (1, -1))
SIGN0 = Param("eps", "eps = 0 or +-1", lambda v: v in (0, 1, -1), (0, 1, -1))
A_NONZERO = Param("a", "a != 0", lambda v: bool(as_rat(v)), (1, 2))
A_POSITIVE = Param("a", "a > 0", lambda v: as_rat(v) > 0, (1, 2))
LAM_NONZERO = Param("lam", "lam != 0", lambda v: bool(as_rat(v)), (1, 2))


@dataclass
class CatalogEntry:
    name: str
    citation: str
    builder: Callable          # params dict -> list[SymTensor]
    params: tuple = ()
    expected_dim: Optional[int] = None
    expected_finite: Optional[bool] = None
    expected_h1: Optional[int] = None

    def param_sets(self):
        if not self.params:
            return [{}]
        sets = [{}]
        for p in self.params:
            sets = [dict(s, **{p.name: d}) for s in sets for d in p.defaults]
        return sets

    def instantiate(self, params=None) -> LinearSubalgebra:
        params = dict(params or {})
        for p in self.params:
            if p.name not in params:
                raise ValueError(f"{self.name}: missing parameter {p.name} ({p.condition})")
            if not p.check(params[p.name]):
                raise ValueError(f"{self.name}: illegal {p.name}={params[p.name]} ({p.condition})")
        for k in params:
            if all(p.name != k for p in self.params):
                raise ValueError(f"{self.name}: unknown parameter {k}")
        gens = self.builder(params)
        label = self.name if not params else \
            self.name + "[" + ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(params.items())) + "]"
        return LinearSubalgebra(SP4, gens, label)


def _fmt_param(v):
    if isinstance(v, str):
        return v
    return fmt_rat(as_rat(v))


def _eps_tensor(base: SymTensor, eps, extra: SymTensor) -> SymTensor:
    return base + extra.scale(as_rat(eps))


_REGISTRY: dict = {}


def _entry(name, citation, builder, params=(), dim=None, finite=None, h1=None):
    _REGISTRY[name] = CatalogEntry(name, citation, builder, params, dim, finite, h1)


def names():
    return sorted(_REGISTRY)


def get(name: str) -> CatalogEntry:
    if name not in _REGISTRY:
        raise KeyError(f"unknown catalog entry {name!r}")
    return _REGISTRY[name]


# -- ambient and maximal subalgebras ----------------------------------------

_entry("sp", "full symplectic algebra sp(4,R) = S^2(V)",
       lambda p: [SymTensor(SP4, {m: ONE}) for m in monomial_basis(2, 2)],
       dim=10, finite=False, h1=20)

_entry("s1", "maximal subalgebra sp(V1) + sp(V2), V = V1 perp V2",
       lambda p: [t("p1^2"), t("p1*q1"), t("q1^2"), t("p2^2"), t("p2*q2"), t("q2^2")],
       dim=6, finite=False, h1=8)

# unitary algebra: centralizer of the complex structure J : p_j -> q_j
_entry("s2", "maximal compact subalgebra u(2), matrices commuting with J: p_j -> q_j",
       lambda p: [t("p1^2 + q1^2"), t("p2^2 + q2^2"), t("p1*q2 - p2*q1"), t("p1*p2 + q1*q2")],
       dim=4, finite=True, h1=0)

_entry("s3", "pseudo-unitary algebra u(1,1), split analogue of s2",
       lambda p: [t("p1^2 + q1^2"), t("p2^2 + q2^2"), t("p1*q2 + p2*q1"), t("p1*p2 - q1*q2")],
       dim=4, finite=True, h1=0)

# every proper subalgebra lies in s2 or p1 up to conjugation (a classification
# fact, recorded but not re-checked here)
_entry("s4", "maximal subalgebra sl2(C) = so(1,3), spin representation on R^4",
       lambda p: [t("p1*q1 + p2*q2"), t("p2*q1 - p1*q2"), t("p1^2 - p2^2"),
                  t("p1*p2"), t("q1^2 - q2^2"), t("q1*q2")],
       dim=6, finite=False, h1=8)

_entry("s5", "irreducible sl2(R) on binary cubics S^3(R^2) = R^4 (an sl2-triple)",
       lambda p: [t("p1*q1 + 3 * p2*q2"), t("p2*q1 + p1^2"), t("3 * p1*q2 - q1^2")],
       dim=3, finite=True, h1=0)

_entry("p1", "maximal parabolic stabilizing the Lagrangian plane P = span(p1,p2)",
       lambda p: [t("q1*p1"), t("q1*p2"), t("q2*p1"), t("q2*p2"),
                  t("p1^2"), t("p1*p2"), t("p2^2")],
       dim=7, finite=False, h1=10)

_entry("p2", "maximal parabolic stabilizing the isotropic line R p1",
       lambda p: [t("p2^2"), t("p2*q2"), t("q2^2"), t("p1*q1"),
                  t("p1*p2"), t("p1*q2"), t("p1^2")],
       dim=7, finite=False, h1=11)

_entry("glP", "gl(P) = Q v P acting diagonally on P + P*; also co(1,2) inside p1",
       lambda p: [t("q1*p1"), t("q1*p2"), t("q2*p1"), t("q2*p2")],
       dim=4, finite=True, h1=0)

_entry("slW", "sl(W) = S^2(W) for W = span(p2,q2)",
       lambda p: [t("p2^2"), t("p2*q2"), t("q2^2")],
       dim=3, finite=False)

_entry("heisW", "Heisenberg algebra heis(W) = p1 W + R p1^2 inside p2",
       lambda p: [t("p1*p2"), t("p1*q2"), t("p1^2")],
       dim=3, finite=False)

_entry("s2P", "abelian radical S^2(P) of p1",
       lambda p: [t("p1^2"), t("p1*p2"), t("p2^2")],
       dim=3, finite=False)

# -- the maximal finite type subalgebras of sp(4,R) -------------------------

_entry("k-mixed", "direct sum of a compact and a split Cartan subalgebra of sl2(R)",
       lambda p: [t("p1^2 + q1^2"), t("p2*q2")],
       dim=2, finite=True, h1=0)

# coincides with D_{6,14} up to conjugation in the full symplectic group
_entry("D4_12", "solvable 2-dimensional nonsplitting subalgebra D_{4,12}",
       lambda p: [_eps_tensor(t("p1*q1"), p["eps"], t("p2^2")), t("p2*q1")],
       params=(SIGN,), dim=2, finite=True, h1=0)

_entry("eline", "1-dimensional span(p2^2 + q2^2 + eps p1^2)",
       lambda p: [_eps_tensor(t("p2^2 + q2^2"), p["eps"], t("p1^2"))],
       params=(SIGN,), dim=1, finite=True, h1=0)

# -- subalgebras of s1 = sl2(R) + sl2(R) ------------------------------------

def _cartan(copy: int, kind: str) -> SymTensor:
    i = str(copy)
    return t(f"p{i}^2 + q{i}^2") if kind == "compact" else t(f"p{i}*q{i}")


def _kind_param(name):
    return Param(name, f"{name} in {{compact, split}}", lambda v: v in ("compact", "split"),
                 ("compact", "split"))


KIND1 = _kind_param("k1")
KIND2 = _kind_param("k2")

_entry("kk", "sum of Cartan subalgebras, one in each sl2(R) factor",
       lambda p: [_cartan(1, p["k1"]), _cartan(2, p["k2"])],
       params=(KIND1, KIND2), dim=2, finite=True, h1=0)

_entry("sl2diag", "diagonal sl2(R) in sl2(R) + sl2(R)",
       lambda p: [t("p1^2 + p2^2"), t("p1*q1 + p2*q2"), t("q1^2 + q2^2")],
       dim=3, finite=True, h1=0)

_entry("sl2diag-tw", "diagonal sl2(R) twisted by Ad of diag(1,-1)",
       lambda p: [t("p1^2 - p2^2"), t("p1*q1 + p2*q2"), t("q1^2 - q2^2")],
       dim=3, finite=True, h1=0)

# -- finite type subalgebras of p1: similitude table rows --------------------

def _eps(p):
    return as_rat(p["eps"])


def _a(p):
    return as_rat(p["a"])


_entry("F6_5", "similitude table row F_{6,5}", lambda p: [E2], dim=1, finite=True, h1=0)
_entry("F6_6", "similitude table row F_{6,6}", lambda p: [E0], dim=1, finite=True, h1=0)
_entry("F3_5", "similitude table row F_{3,5}", lambda p: [K1, E2], dim=2, finite=True, h1=0)
_entry("F5_3", "similitude table row F_{5,3}", lambda p: [L3, E0], dim=2, finite=True, h1=0)
_entry("DF6_5", "similitude table row DF_{6,5}", lambda p: [F_DIL, E2], dim=2, finite=True, h1=0)
_entry("DF6_6", "similitude table row DF_{6,6}", lambda p: [F_DIL, E0], dim=2, finite=True, h1=0)
_entry("DF3_5", "similitude table row DF_{3,5}", lambda p: [F_DIL, K1, E2], dim=3, finite=True, h1=0)
_entry("DF5_3", "similitude table row DF_{5,3}", lambda p: [F_DIL, L3, E0], dim=3, finite=True, h1=0)

_entry("Ft3_9", "similitude table row ~F_{3,9}, a != 0",
       lambda p: [K1 + E2.scale(_a(p))], params=(A_NONZERO,), dim=1, finite=True, h1=0)
_entry("Ft4_7", "similitude table row ~F_{4,7}",
       lambda p: [K2 + L3 + (E0 + E1).scale(_eps(p))], params=(SIGN,), dim=1, finite=True, h1=0)
_entry("Ft5_6", "similitude table row ~F_{5,6}, a != 0",
       lambda p: [L3 + E0.scale(_a(p))], params=(A_NONZERO,), dim=1, finite=True, h1=0)

_entry("D4_11", "splitting subalgebra D_{4,11} = span(F + a K1, K2 + L3)",
       lambda p: [F_DIL + K1.scale(_a(p)), K2 + L3], params=(A_NONZERO,), dim=2, finite=True, h1=0)
_entry("D4_12p", "similitude table row D_{4,12} as printed: F - K1 + eps(e0 - e1), K2 + L3",
       lambda p: [F_DIL - K1 + (E0 - E1).scale(_eps(p)), K2 + L3],
       params=(SIGN,), dim=2, finite=True, h1=0)
_entry("D4_13", "similitude table row D_{4,13}: F + (1/2) K1, K2 + L3 + eps(e0 + e1)",
       lambda p: [F_DIL + K1.scale(rat(1, 2)), K2 + L3 + (E0 + E1).scale(_eps(p))],
       params=(SIGN,), dim=2, finite=True, h1=0)
# D4_13alt equals the Borel subalgebra of the irreducible sl2 on binary cubics
_entry("D4_13alt", "D_{4,13} in the equivalent form span(p1q1 + 3 p2q2, p2q1 + eps p1^2)",
       lambda p: [t("p1*q1 + 3 * p2*q2"), _eps_tensor(t("p2*q1"), p["eps"], t("p1^2"))],
       params=(SIGN,), dim=2, finite=True, h1=0)
_entry("D6_13", "similitude table row D_{6,13}, a > 0",
       lambda p: [F_DIL + K1.scale(_a(p)), E2], params=(A_POSITIVE,), dim=2, finite=True, h1=0)
_entry("D6_14", "similitude table row D_{6,14}: F + K1 + eps(e0 + e1), e2",
       lambda p: [F_DIL + K1 + (E0 + E1).scale(_eps(p)), E2],
       params=(SIGN,), dim=2, finite=True, h1=0)
_entry("D6_15", "similitude table row D_{6,15}, a != 0",
       lambda p: [F_DIL + L3.scale(_a(p)), E0], params=(A_NONZERO,), dim=2, finite=True, h1=0)
_entry("D6_21", "splitting subalgebra D_{6,21} = span(F + a K1)",
       lambda p: [F_DIL + K1.scale(_a(p))], params=(A_NONZERO,), dim=1, finite=True, h1=0)
_entry("D6_22", "similitude table row D_{6,22}",
       lambda p: [F_DIL + K1 + (E0 + E1).scale(_eps(p))], params=(SIGN,), dim=1, finite=True, h1=0)

# -- subalgebras of p2 --------------------------------------------------------

_entry("p2m1", "graded maximal finite type subalgebra span(p2q2, p1q1, p1p2) of p2",
       lambda p: [t("p2*q2"), t("p1*q1"), t("p1*p2")], dim=3, finite=True, h1=0)
_entry("p2m2", "graded maximal finite type subalgebra span(p2^2 + q2^2, p1q1) of p2",
       lambda p: [t("p2^2 + q2^2"), t("p1*q1")], dim=2, finite=True, h1=0)
_entry("p2m3", "maximal finite type subalgebra span(p2q2 + eps p1^2, p1p2) of p2",
       lambda p: [_eps_tensor(t("p2*q2"), p["eps"], t("p1^2")), t("p1*p2")],
       params=(SIGN,), dim=2, finite=True, h1=0)
_entry("p2m4", "maximal finite type subalgebra span(p2^2 + q2^2 + eps p1^2) of p2",
       lambda p: [_eps_tensor(t("p2^2 + q2^2"), p["eps"], t("p1^2"))],
       params=(SIGN,), dim=1, finite=True, h1=0)
# p2m5: for eps = -1 both e1 and e2 have negative Lorentzian norm
_entry("p2m5", "maximal finite type subalgebra span(p2^2 + eps p1^2, p1q1 + p2q2) of p2",
       lambda p: [_eps_tensor(t("p2^2"), p["eps"], t("p1^2")), t("p1*q1 + p2*q2")],
       params=(SIGN,), dim=2, finite=True, h1=0)
_entry("p2m6", "maximal finite type subalgebra span(p2^2 + eps p1q2, 3 p1q1 + p2q2) of p2",
       lambda p: [_eps_tensor(t("p2^2"), p["eps"], t("p1*q2")), t("3 * p1*q1 + p2*q2")],
       params=(SIGN,), dim=2, finite=True, h1=0)

# candidate list inside the maximal ideal of p2: nontrivial heis intersection
_entry("p2c-i", "candidate span(p2^2, p2q2 + eps p1^2, p1p2): infinite type",
       lambda p: [t("p2^2"), _eps_tensor(t("p2*q2"), p["eps"], t("p1^2")), t("p1*p2")],
       params=(SIGN0,), dim=3, finite=False)
_entry("p2c-ii", "candidate span(p2^2 + eps p1^2, p1p2): infinite type",
       lambda p: [_eps_tensor(t("p2^2"), p["eps"], t("p1^2")), t("p1*p2")],
       params=(SIGN0,), dim=2, finite=False)
_entry("p2c-iii", "finite type span(p2q2 + eps p1^2, p1p2), eps = 0 or +-1",
       lambda p: [_eps_tensor(t("p2*q2"), p["eps"], t("p1^2")), t("p1*p2")],
       params=(SIGN0,), dim=2, finite=True, h1=0)
_entry("p2c-iv", "finite type span(p1p2)",
       lambda p: [t("p1*p2")], dim=1, finite=True, h1=0)
_entry("p2c-v", "candidate sl(W): infinite type",
       lambda p: [t("p2^2"), t("p2*q2"), t("q2^2")], dim=3, finite=False)
_entry("p2c-vi", "candidate span(p2^2, p2q2 + eps p1^2): infinite type",
       lambda p: [t("p2^2"), _eps_tensor(t("p2*q2"), p["eps"], t("p1^2"))],
       params=(SIGN0,), dim=2, finite=False)
_entry("p2c-vii", "finite type span(p2q2 + eps p1^2), eps = 0 or +-1",
       lambda p: [_eps_tensor(t("p2*q2"), p["eps"], t("p1^2"))],
       params=(SIGN0,), dim=1, finite=True, h1=0)
_entry("p2c-viii", "finite type span(p2^2 + q2^2 + eps p1^2), eps = 0 or +-1",
       lambda p: [_eps_tensor(t("p2^2 + q2^2"), p["eps"], t("p1^2"))],
       params=(SIGN0,), dim=1, finite=True, h1=0)
_entry("p2c-ix", "finite type span(p2^2 + eps p1^2), eps = +-1",
       lambda p: [_eps_tensor(t("p2^2"), p["eps"], t("p1^2"))],
       params=(SIGN,), dim=1, finite=True, h1=0)
_entry("p2c-x", "finite type span(p2^2 + eps p1q2), eps = +-1 (nonsplitting cocycle case)",
       lambda p: [_eps_tensor(t("p2^2"), p["eps"], t("p1*q2"))],
       params=(SIGN,), dim=1, finite=True, h1=0)

# splitting subalgebras with nontrivial heis intersection
_entry("split-b2", "splitting subalgebra b2 + R p1p2",
       lambda p: [t("p2^2"), t("p2*q2"), t("p1*p2")], dim=3, finite=False)
_entry("split-n2", "splitting subalgebra n2 + R p1p2",
       lambda p: [t("p2^2"), t("p1*p2")], dim=2, finite=False)
_entry("split-diag", "splitting subalgebra R diag + R p1p2",
       lambda p: [t("p2*q2"), t("p1*p2")], dim=2, finite=True, h1=0)
_entry("split-line", "splitting subalgebra R p1p2",
       lambda p: [t("p1*p2")], dim=1, finite=True, h1=0)

# codimension-one extensions of finite type ideals inside p2
_entry("p2x-lam", "span(p1p2, p1q1 + lam p2q2), lam != 0",
       lambda p: [t("p1*p2"), t("p1*q1") + t("p2*q2").scale(as_rat(p["lam"]))],
       params=(LAM_NONZERO,), dim=2, finite=True, h1=0)
_entry("p2x-eps", "span(p1p2, p1q1 + eps p2^2)",
       lambda p: [t("p1*p2"), _eps_tensor(t("p1*q1"), p["eps"], t("p2^2"))],
       params=(SIGN,), dim=2, finite=True, h1=0)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class EntryReport:
    name: str
    params: dict
    dim: int
    closed: bool
    h1_dim: int
    verdict: str
    evidence: str
    ok: bool
    failures: list

    def record(self) -> str:
        ptxt = ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(self.params.items())) or "-"
        status = "pass" if self.ok else "FAIL(" + ";".join(self.failures) + ")"
        return (f"entry={self.name} params={ptxt} dim={self.dim} closed={self.closed} "
                f"h1={self.h1_dim} verdict={self.verdict} evidence={self.evidence} "
                f"check={status}")


def verify_entry(entry: CatalogEntry, params=None) -> EntryReport:
    h = entry.instantiate(params)
    failures = []
    closed = h.check_closure() is None
    if not closed:
        failures.append("not closed under bracket")
    if entry.expected_dim is not None and h.dim != entry.expected_dim:
        failures.append(f"dim {h.dim} != {entry.expected_dim}")
    verdict = finite_type_verdict(h)
    if entry.expected_finite is not None:
        want = FINITE if entry.expected_finite else INFINITE
        if verdict.kind != want:
            failures.append(f"verdict {verdict.kind} != {want}")
    if entry.expected_h1 is not None and verdict.h1_dim != entry.expected_h1:
        failures.append(f"h1 dim {verdict.h1_dim} != {entry.expected_h1}")
    if verdict.witness is not None:
        evidence = f"witness[{verdict.witness}]"
    elif verdict.h1_dim == 0:
        evidence = "h1=0"
    else:
        evidence = f"h1_dim={verdict.h1_dim}"
    return EntryReport(entry.name, dict(params or {}), h.dim, closed,
                       verdict.h1_dim, verdict.kind, evidence, not failures, failures)


def verify_all():
    """Verify every entry at its default parameter sets; reports are sorted."""
    reports = []
    for name in names():
        entry = get(name)
        for ps in entry.param_sets():
            reports.append(verify_entry(entry, ps))
    return reports


# ---------------------------------------------------------------------------
# Goursat correspondence inside s1
# ---------------------------------------------------------------------------

_COPY1 = [t("p1^2"), t("p1*q1"), t("q1^2")]
_COPY2 = [t("p2^2"), t("p2*q2"), t("q2^2")]


def _projection(which: int, x: SymTensor) -> SymTensor:
    keep = {SP4.index["p1"], SP4.index["q1"]} if which == 1 else {SP4.index["p2"], SP4.index["q2"]}
    return SymTensor(SP4, {m: c for m, c in x.coeffs.items() if set(m) <= keep})


@dataclass
class GoursatQuintuple:
    """(A, A0, B, B0, theta) with theta given on lifted representatives."""
    A: Subspace
    A0: Subspace
    B: Subspace
    B0: Subspace
    theta_pairs: list   # list of (SymTensor in A, SymTensor in B)

    def check(self):
        if not self.A.contains_subspace(self.A0):
            raise ValueError("A0 must sit inside A")
        if not self.B.contains_subspace(self.B0):
            raise ValueError("B0 must sit inside B")
        _check_ideal(self.A, self.A0)
        _check_ideal(self.B, self.B0)
        if len(self.theta_pairs) != self.A.dim - self.A0.dim or \
           self.A.dim - self.A0.dim != self.B.dim - self.B0.dim:
            raise ValueError("theta must match the quotient dimensions")
        _check_theta_iso(self)


def _check_ideal(big: Subspace, small: Subspace):
    for x in subspace_tensors(SP4, big, 2):
        for y in subspace_tensors(SP4, small, 2):
            br = poisson_bracket(x, y)
            if not br.is_zero() and br.coords(2) not in small:
                raise ValueError("ideal condition fails")


def _quotient_coords(sub: Subspace, ideal: Subspace, x: SymTensor, lifts):
    """Coordinates of x mod ideal in the basis of classes of the lifts."""
    M = Matrix.from_columns([l.coords(2) for l in lifts] + list(ideal.basis))
    sol = M.solve(list(x.coords(2)))
    if sol is None:
        raise ValueError("element not in the subalgebra plus ideal")
    return sol[:len(lifts)]


def _check_theta_iso(q: GoursatQuintuple):
    lifts_a = [a for a, _ in q.theta_pairs]
    for i, (ai, bi) in enumerate(q.theta_pairs):
        if ai.coords(2) not in q.A or bi.coords(2) not in q.B:
            raise ValueError("theta representatives must lie in A and B")
    for i in range(len(q.theta_pairs)):
        for j in range(i + 1, len(q.theta_pairs)):
            ai, bi = q.theta_pairs[i]
            aj, bj = q.theta_pairs[j]
            bra = poisson_bracket(ai, aj)
            brb = poisson_bracket(bi, bj)
            co = _quotient_coords(q.A, q.A0, bra, lifts_a)
            img = SymTensor(SP4, {})
            for c, (_, b) in zip(co, q.theta_pairs):
                img = img + b.scale(c)
            if (brb - img).coords(2) not in q.B0:
                raise ValueError("theta is not a Lie algebra isomorphism of the quotients")


def goursat_subalgebra(q: GoursatQuintuple) -> LinearSubalgebra:
    q.check()
    gens = [a + b for a, b in q.theta_pairs]
    gens += subspace_tensors(SP4, q.A0, 2)
    gens += subspace_tensors(SP4, q.B0, 2)
    if not gens:
        gens = [SymTensor(SP4, {})]
    return LinearSubalgebra(SP4, gens, "goursat")


def goursat_quintuple(h: LinearSubalgebra) -> GoursatQuintuple:
    """Quintuple of a subalgebra of s1 (requires h to sit inside s1)."""
    s1sub = span_of_tensors(_COPY1 + _COPY2, degree=2)
    if not s1sub.contains_subspace(h.subspace):
        raise ValueError("subalgebra is not contained in s1")
    tens = h.basis_tensors()
    A = span_of_tensors([_projection(1, x) for x in tens] or [SymTensor(SP4, {})], degree=2)
    B = span_of_tensors([_projection(2, x) for x in tens] or [SymTensor(SP4, {})], degree=2)
    g1 = span_of_tensors(_COPY1, degree=2)
    g2 = span_of_tensors(_COPY2, degree=2)
    A0 = h.subspace.intersect(g1)
    B0 = h.subspace.intersect(g2)
    # class representatives: A-basis vectors independent modulo A0
    reps = []
    cur = A0
    for v in A.basis:
        if v not in cur:
            reps.append(tensor_from_coords(SP4, 2, v))
            cur = cur + Subspace.from_vectors([list(v)], cur.ambient)
    pairs = []
    for a in reps:
        b = _partner(h, a)
        pairs.append((a, b))
    q = GoursatQuintuple(A, A0, B, B0, pairs)
    q.check()
    return q


def _partner(h: LinearSubalgebra, a: SymTensor) -> SymTensor:
    """Some b in g2 with a + b in h: solve for a combination of the h-basis
    whose copy-1 part equals a, then project to copy 2."""
    cols = [list(x.coords(2)) for x in h.basis_tensors()]
    rows = []
    rhs = []
    keep = {SP4.index["p1"], SP4.index["q1"]}
    for r, m in enumerate(monomial_basis(2, 2)):
        if set(m) <= keep:
            rows.append([cols[c][r] for c in range(len(cols))])
            rhs.append(a.coords(2)[r])
    sol = Matrix(rows).solve(rhs) if rows else None
    if sol is None:
        raise ValueError("no partner element: a is not in the projection of h")
    elt = SymTensor(SP4, {})
    for c, x in zip(sol, h.basis_tensors()):
        elt = elt + x.scale(c)
    return _projection(2, elt)


def quintuples_equal(q1: GoursatQuintuple, q2: GoursatQuintuple) -> bool:
    """Equality up to the canonical identification of the quotients."""
    if not (q1.A == q2.A and q1.A0 == q2.A0 and q1.B == q2.B and q1.B0 == q2.B0):
        return False
    h1 = goursat_subalgebra(q1)
    h2 = goursat_subalgebra(q2)
    return h1.subspace == h2.subspace


def table_quintuples():
    """The classified quintuples for finite type subalgebras of s1.

    Product rows have A = A0 and B = B0 ranging over 0 and the two Cartan
    subalgebras; graph rows have A0 = B0 = 0 and f = A isomorphic to B."""
    z = Subspace.zero(10)
    diag1 = span_of_tensors([t("p1*q1")], degree=2)
    diag2 = span_of_tensors([t("p2*q2")], degree=2)
    so21 = span_of_tensors([t("p1^2 + q1^2")], degree=2)
    so22 = span_of_tensors([t("p2^2 + q2^2")], degree=2)
    n21 = span_of_tensors([t("p1^2")], degree=2)
    n22 = span_of_tensors([t("p2^2")], degree=2)
    b21 = span_of_tensors([t("p1^2"), t("p1*q1")], degree=2)
    b22 = span_of_tensors([t("p2^2"), t("p2*q2")], degree=2)
    sl21 = span_of_tensors(_COPY1, degree=2)
    sl22 = span_of_tensors(_COPY2, degree=2)

    rows = []
    for A in (z, diag1, so21):
        for B in (z, diag2, so22):
            rows.append(("product", GoursatQuintuple(A, A, B, B, [])))
    rows.append(("f=diag", GoursatQuintuple(diag1, z, diag2, z, [(t("p1*q1"), t("p2*q2"))])))
    rows.append(("f=so2", GoursatQuintuple(so21, z, so22, z,
                                           [(t("p1^2 + q1^2"), t("p2^2 + q2^2"))])))
    rows.append(("f=n2", GoursatQuintuple(n21, z, n22, z, [(t("p1^2"), t("p2^2"))])))
    rows.append(("f=b2", GoursatQuintuple(b21, z, b22, z,
                                          [(t("p1^2"), t("p2^2")), (t("p1*q1"), t("p2*q2"))])))
    rows.append(("f=sl2 diagonal", GoursatQuintuple(sl21, z, sl22, z,
                                                    [(t("p1^2"), t("p2^2")),
                                                     (t("p1*q1"), t("p2*q2")),
                                                     (t("q1^2"), t("q2^2"))])))
    rows.append(("f=sl2 twisted", GoursatQuintuple(sl21, z, sl22, z,
                                                   [(t("p1^2"), t("-1 * p2^2")),
                                                    (t("p1*q1"), t("p2*q2")),
                                                    (t("q1^2"), t("-1 * q2^2"))])))
    return rows
