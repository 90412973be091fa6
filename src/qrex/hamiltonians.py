"""Pauli-string Hamiltonians with A/B partitions and commuting-cut analysis.

The models of interest carry a single strong bond (the "defect") inside a
small region A whose interaction with the rest of the system factorizes as
sums of commuting products V_A (x) V_B.  ``check_commuting_cut`` verifies
that structure and extracts the pieces; ``simultaneous_eigenbasis`` of the
A-side and B-side families gives the product labels, and the factors'
eigenvalues the energies, that ``replica.joint_structure`` carries downstream.
"""

from dataclasses import dataclass, field

import numpy as np

from .lindblad import Triplets, add
from .pauli import pauli_string, qubit_permutation

COMMUTATOR_RTOL = 1e-10
HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string: coefficient * prod (site, label)."""

    coefficient: float
    factors: tuple  # tuple of (site, label) pairs, labels in {X, Y, Z}

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        sites = [s for s, _ in self.factors]
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site within a Pauli term")
        for _, lab in self.factors:
            if lab not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli label {lab!r}")

    @property
    def support(self):
        return frozenset(s for s, _ in self.factors)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Qubit count, Pauli terms, optional A/B partition and defect metadata."""

    n: int
    terms: tuple
    partition: tuple | None = None  # (A sites, B sites) as sorted tuples
    defect: tuple | None = None  # ((i, j), J)

    def __post_init__(self):
        for t in self.terms:
            for s, _ in t.factors:
                if not 0 <= s < self.n:
                    raise ValueError(f"site {s} out of range for n={self.n}")
        if self.partition is not None:
            a, b = self.partition
            if set(a) & set(b):
                raise ValueError("partition sets overlap")
            if set(a) | set(b) != set(range(self.n)):
                raise ValueError("partition must cover all sites")

    def to_json_dict(self):
        d = {
            "n": self.n,
            "terms": [
                {"coeff": float(t.coefficient), "paulis": [[s, lab] for s, lab in t.factors]}
                for t in self.terms
            ],
        }
        if self.partition is not None:
            d["partition"] = {"A": list(self.partition[0])}
        if self.defect is not None:
            (i, j), J = self.defect
            d["defect"] = {"edge": [i, j], "J": float(J)}
        return d

    @staticmethod
    def from_json_dict(d):
        n = int(d["n"])
        terms = tuple(
            PauliTerm(float(t["coeff"]), tuple((int(s), str(lab)) for s, lab in t["paulis"]))
            for t in d.get("terms", [])
        )
        partition = None
        if "partition" in d:
            a = tuple(sorted(int(s) for s in d["partition"]["A"]))
            b = tuple(s for s in range(n) if s not in a)
            partition = (a, b)
        defect = None
        if "defect" in d:
            i, j = d["defect"]["edge"]
            defect = ((int(i), int(j)), float(d["defect"]["J"]))
        return HamiltonianSpec(n=n, terms=terms, partition=partition, defect=defect)


@dataclass
class CutReport:
    """Outcome of the commuting-cut analysis for a partitioned Hamiltonian."""

    holds: bool
    h_a: np.ndarray  # dim 2^|A|, A-first ordering
    h_b: np.ndarray  # dim 2^|B|
    interaction: list  # list of (V_A, V_B) Hermitian pairs, coefficient on V_A
    v_max: float
    diagnostics: list = field(default_factory=list)
    perm_order: tuple = ()  # site order (A sorted) + (B sorted)

    @property
    def k_count(self):
        return len(self.interaction)

    @property
    def d_a(self):
        return self.h_a.shape[0]

    @property
    def d_b(self):
        return self.h_b.shape[0]


def assemble(spec: HamiltonianSpec) -> Triplets:
    """The Hamiltonian (site 0 most significant) as ``Triplets``, checked to be Hermitian:
    ``lindblad.canonical`` sums the strings term by term and stores a real sum as float64."""
    empty = Triplets(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0), 2**spec.n)
    H = add(empty, *(pauli_string(spec.n, t.factors, t.coefficient) for t in spec.terms))
    adjoint = Triplets(H.col, H.row, -H.val.conj(), H.side)
    if np.linalg.norm(add(H, adjoint).val) > HERMITICITY_RTOL * np.linalg.norm(H.val):
        raise ValueError("assembled Hamiltonian failed the hermiticity check")
    return H


def defected_ising_1d(n: int, J: float) -> HamiltonianSpec:
    """1D Ising ring with one bond of strength J; partition A = first two sites.

    Terms are -J Z_0 Z_1 and -Z_i Z_{i+1} for the remaining ring bonds
    (0-based sites; wraparound closes the ring).
    """
    if n < 3:
        raise ValueError("ring needs n >= 3")
    if not np.isfinite(J):
        raise ValueError("J must be finite")
    terms = [PauliTerm(-float(J), ((0, "Z"), (1, "Z")))]
    for i in range(1, n):
        j = (i + 1) % n
        terms.append(PauliTerm(-1.0, ((i, "Z"), (j, "Z"))))
    return HamiltonianSpec(
        n=n,
        terms=tuple(terms),
        partition=((0, 1), tuple(range(2, n))),
        defect=((0, 1), float(J)),
    )


def grid_edges(rows: int, cols: int):
    """Nearest-neighbour edges of a rows x cols grid, row-major site labels."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                edges.append((s, s + 1))
            if r + 1 < rows:
                edges.append((s, s + cols))
    return edges


def defected_heisenberg_2d(rows, cols, a_sites, defect_edge, J) -> HamiltonianSpec:
    """2D Heisenberg grid with Z-projected boundary edges and one strong bond.

    Edges touching the boundary-vertex set of the A/B partition carry -ZZ
    only; interior edges carry -(XX + YY + ZZ).  The defect edge (which must
    lie inside A with both endpoints on the boundary) gets total coefficient
    -J on its ZZ term.
    """
    n = rows * cols
    A = tuple(sorted(a_sites))
    if any(not 0 <= s < n for s in A):
        raise ValueError("A is not a subset of the grid")
    B = tuple(s for s in range(n) if s not in A)
    edges = grid_edges(rows, cols)
    in_a = set(A)
    v_ab = set()
    for (u, v) in edges:
        if (u in in_a) != (v in in_a):
            v_ab.add(u)
            v_ab.add(v)
    de = tuple(sorted(defect_edge))
    if de not in {tuple(sorted(e)) for e in edges}:
        raise ValueError("defect edge is not a grid edge")
    if not (set(de) <= in_a and set(de) <= v_ab):
        raise ValueError("defect edge must lie inside A with both endpoints in the boundary set")
    terms = []
    for (u, v) in edges:
        boundary = (u in v_ab) or (v in v_ab)
        if tuple(sorted((u, v))) == de:
            if not boundary:
                raise ValueError("defect edge must be a boundary-rule ZZ edge")
            terms.append(PauliTerm(-float(J), ((u, "Z"), (v, "Z"))))
        elif boundary:
            terms.append(PauliTerm(-1.0, ((u, "Z"), (v, "Z"))))
        else:
            for lab in ("X", "Y", "Z"):
                terms.append(PauliTerm(-1.0, ((u, lab), (v, lab))))
    return HamiltonianSpec(n=n, terms=tuple(terms), partition=(A, B), defect=(de, float(J)))


def _embedded(factors, sites, n_sub):
    """Pauli string matrix on the sub-register, sites relabeled by position."""
    pos = {s: k for k, s in enumerate(sites)}
    return pauli_string(n_sub, [(pos[s], lab) for s, lab in factors]).toarray()


def check_commuting_cut(spec: HamiltonianSpec) -> CutReport:
    """Classify terms against the partition and test the commuting-cut structure.

    Crossing Pauli strings factor exactly into V_A (x) V_B (coefficient kept
    on the A side), so H = H_A (x) I + I (x) H_B + sum_k V_A^k (x) V_B^k in the
    A-first site order ``perm_order`` by construction.  ``holds`` requires
    every pairwise commutator within the A-side set {H_A} u {V_A} and the
    B-side set {H_B} u {V_B} to vanish to 1e-10 relative.  ``v_max`` is the
    largest |coefficient| of a crossing term, the norm of its V_A (x) V_B.
    """
    if spec.partition is None:
        raise ValueError("partition required for the cut analysis")
    A, B = tuple(spec.partition[0]), tuple(spec.partition[1])
    na, nb = len(A), len(B)
    d_a, d_b = 2**na, 2**nb
    in_a = set(A)
    h_a = np.zeros((d_a, d_a), dtype=complex)
    h_b = np.zeros((d_b, d_b), dtype=complex)
    pairs = []
    diagnostics = []
    v_max = 0.0
    for t in spec.terms:
        supp = t.support
        if supp <= in_a:
            h_a += t.coefficient * _embedded(t.factors, A, na)
        elif not (supp & in_a):
            h_b += t.coefficient * _embedded(t.factors, B, nb)
        else:
            fa = [(s, lab) for s, lab in t.factors if s in in_a]
            fb = [(s, lab) for s, lab in t.factors if s not in in_a]
            va = t.coefficient * _embedded(fa, A, na)
            vb = _embedded(fb, B, nb)
            pairs.append((va, vb))
            # V_A (x) V_B is the coefficient times a Pauli string, whose norm is 1
            v_max = max(v_max, abs(t.coefficient))

    def _check_family(ops, side):
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                o1, o2 = ops[i], ops[j]
                scale = max(np.linalg.norm(o1) * np.linalg.norm(o2), 1e-300)
                r = np.linalg.norm(o1 @ o2 - o2 @ o1) / scale
                if r > COMMUTATOR_RTOL:
                    diagnostics.append(f"non-commuting pair on side {side} (residual {r:.2e})")

    _check_family([h_a] + [va for va, _ in pairs], "A")
    _check_family([h_b] + [vb for _, vb in pairs], "B")

    return CutReport(holds=not diagnostics, h_a=h_a, h_b=h_b, interaction=pairs,
                     v_max=float(v_max), diagnostics=diagnostics, perm_order=A + B)


def simultaneous_eigenbasis(ops):
    """Shared eigenbasis V of a commuting Hermitian family, and each op's eigenvalues in it.

    Each op in turn is diagonalized inside the clusters of columns of V that
    the ops before it leave degenerate (eigenvalues within 1e-8 of the
    cluster's scale), so the basis is deterministic: where the op is already
    diagonal on a cluster (the ring's Z strings), a stable sort of that
    diagonal orders the columns, and otherwise ``eigh``.  Errors if an op keeps
    off-diagonal mass above ``COMMUTATOR_RTOL`` relative in V; otherwise the
    eigenvalues are the real diagonals of V^dag o V, one array per op.
    """
    ops = [np.asarray(o, dtype=complex) for o in ops]
    d = ops[0].shape[0]
    V = np.eye(d, dtype=complex)
    clusters = [np.arange(d)]
    for o in ops:
        split = []
        for c in clusters:
            if len(c) > 1:
                sub = V[:, c]
                m = sub.conj().T @ o @ sub
                if np.count_nonzero(m) == np.count_nonzero(w := m.diagonal().real):
                    evals = w[k := np.argsort(w, kind="stable")]  # diagonal: sorted, no eigh
                    V[:, c] = sub[:, k]
                else:
                    evals, W = np.linalg.eigh(m)
                    V[:, c] = sub @ W
                scale = max(1.0, float(np.abs(evals).max()))
                split += np.split(c, np.nonzero(np.diff(evals) > 1e-8 * scale)[0] + 1)
            else:
                split.append(c)
        clusters = split
    eigenvalues = []
    for o in ops:
        m = V.conj().T @ o @ V
        diag = np.diag(m)
        res = np.linalg.norm(m - np.diag(diag)) / max(1.0, np.linalg.norm(m))
        if res > COMMUTATOR_RTOL:
            raise ValueError(f"simultaneous diagonalization residual {res:.2e} exceeds "
                             f"{COMMUTATOR_RTOL:.0e}; inputs may not commute")
        eigenvalues.append(diag.real.copy())
    return V, eigenvalues


def compress_onto(H, a_vector, partition, n) -> np.ndarray:
    """(<i_A| (x) I_B) H (|i_A> (x) I_B) for a unit vector on the A factor.

    ``partition`` is the (A sites, B sites) pair; H lives on all n qubits in
    the package's site ordering.
    """
    A, B = tuple(partition[0]), tuple(partition[1])
    d_a, d_b = 2 ** len(A), 2 ** len(B)
    v = np.asarray(a_vector, dtype=complex).reshape(d_a)
    if H.shape != (d_a * d_b, d_a * d_b):
        raise ValueError("dimension mismatch between H and the partition")
    p = qubit_permutation(n, list(A) + list(B))
    Hp = H[np.ix_(p, p)].reshape(d_a, d_b, d_a, d_b)
    return np.einsum("a,abcd,c->bd", v.conj(), Hp, v)
