"""Pauli-string Hamiltonians with A/B partitions and commuting-cut analysis.

The models of interest carry a single strong bond (the "defect") inside a
small region A whose interaction with the rest of the system factorizes as
sums of commuting products V_A (x) V_B.  ``check_commuting_cut`` verifies
that structure and extracts the pieces; ``simultaneous_eigenbasis`` of the
A-side and B-side families gives the product labels that
``replica.joint_structure`` carries downstream.
"""

from dataclasses import dataclass, field

import numpy as np

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
    k_count: int
    v_max: float
    h_perm: np.ndarray  # H in the A-first site order perm_order
    diagnostics: list = field(default_factory=list)
    perm_order: tuple = ()  # site order (A sorted) + (B sorted)

    @property
    def d_a(self):
        return self.h_a.shape[0]

    @property
    def d_b(self):
        return self.h_b.shape[0]


def assemble_dense(spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hermitian matrix of the Hamiltonian, site 0 most significant."""
    dim = 2**spec.n
    H = np.zeros((dim, dim), dtype=complex)
    for t in spec.terms:  # a Pauli string has one entry a row, so no index repeats
        P = pauli_string(spec.n, t.factors, t.coefficient)
        H[P.row, P.col] += P.val
    scale = np.linalg.norm(H)
    if scale > 0 and np.linalg.norm(H - H.conj().T) > HERMITICITY_RTOL * scale:
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
    on the A side).  ``holds`` requires every pairwise commutator within the
    A-side set {H_A} u {V_A} and the B-side set {H_B} u {V_B} to vanish to
    1e-10 relative, and the reassembled Hamiltonian to match.
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

    holds = True

    def _check_family(ops, side):
        nonlocal holds
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                o1, o2 = ops[i], ops[j]
                scale = max(np.linalg.norm(o1) * np.linalg.norm(o2), 1e-300)
                r = np.linalg.norm(o1 @ o2 - o2 @ o1) / scale
                if r > COMMUTATOR_RTOL:
                    holds = False
                    diagnostics.append(f"non-commuting pair on side {side} (residual {r:.2e})")

    _check_family([h_a] + [va for va, _ in pairs], "A")
    _check_family([h_b] + [vb for _, vb in pairs], "B")

    # reassembly identity in the A-first ordering
    order = list(A) + list(B)
    p = qubit_permutation(spec.n, order)
    H = assemble_dense(spec)
    H_perm = H[np.ix_(p, p)]
    H_re = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
    for va, vb in pairs:
        H_re += np.kron(va, vb)
    scale = max(np.linalg.norm(H), 1.0)
    rec = np.linalg.norm(H_perm - H_re) / scale
    if rec > COMMUTATOR_RTOL:
        holds = False
        diagnostics.append(f"reassembly mismatch (residual {rec:.2e})")

    # the singular values of a kron are the products of its factors'
    v_max = max((np.linalg.norm(va, 2) * np.linalg.norm(vb, 2) for va, vb in pairs), default=0.0)
    return CutReport(
        holds=holds,
        h_a=h_a,
        h_b=h_b,
        interaction=pairs,
        k_count=len(pairs),
        v_max=float(v_max),
        h_perm=H_perm,
        diagnostics=diagnostics,
        perm_order=tuple(order),
    )


def _off_diagonal_mass(M):
    return np.linalg.norm(M - np.diag(np.diag(M)))


def simultaneous_eigenbasis(ops, seed=7, tol=1e-10):
    """Shared eigenbasis of a commuting Hermitian family.

    Diagonalizes a random real-coefficient combination and refines degenerate
    blocks with a second combination; two rounds maximum, then error.
    """
    ops = [np.asarray(o, dtype=complex) for o in ops]
    d = ops[0].shape[0]
    rng = np.random.default_rng(seed)

    def _combo():
        c = rng.standard_normal(len(ops))
        return sum(ci * oi for ci, oi in zip(c, ops))

    M1 = _combo()
    evals, V = np.linalg.eigh(M1)
    scale = max(1.0, float(np.abs(evals).max()))
    # refine blocks that are degenerate under the first combination
    splits = np.nonzero(np.diff(evals) > 1e-8 * scale)[0] + 1
    blocks = np.split(np.arange(d), splits)
    M2 = _combo()
    for blk in blocks:
        if len(blk) < 2:
            continue
        sub = V[:, blk]
        _, W = np.linalg.eigh(sub.conj().T @ M2 @ sub)
        V[:, blk] = sub @ W

    def _residual(V):
        r = 0.0
        for o in ops:
            m = V.conj().T @ o @ V
            r = max(r, _off_diagonal_mass(m) / max(1.0, np.linalg.norm(m)))
        return r

    res = _residual(V)
    if res > tol:
        raise ValueError(f"simultaneous diagonalization residual {res:.2e} exceeds {tol:.0e}; "
                         "inputs may not commute")
    return V, res


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
