"""KMS geometry: symmetrization, spectral gaps, norms, and gap-composition checks.

A detailed-balanced generator L is self-adjoint in the KMS inner product
<X, Y>_sigma = Tr[sigma^(1/2) X^dag sigma^(1/2) Y].  The isometry
Phi(X) = sigma^(1/4) X sigma^(1/4) carries that geometry to Hilbert-Schmidt,
so L_hat = Phi o L o Phi^(-1) is an honest Hermitian matrix whose spectrum
is the KMS spectrum of L.  Every generator carries the Gibbs state it is
detailed balanced for (``Superoperator.sigma``) and is stored in that
state's eigenbasis: ``build_ckg_generator`` (with ``gibbs_state``) in the
energy eigenbasis, each replica generator in the kron of its factors' bases
with the product of their states (local_A: the labeled product basis;
global: U (x) U).  There Phi is the diagonal
scaling diag(phi) L diag(1/phi) of the sparse stored matrix
(Chen-Kastoryano-Gilyen, arXiv:2311.09207), so ``symmetrize`` forms L_hat
as ``Triplets`` with the pattern of L.  L is detailed balanced exactly when
L_hat is Hermitian, which ``block_eigh`` checks on the blocks it forms.

Every eigensolve of L_hat goes through ``block_eigh``: single-site jumps in
a basis where H is diagonal leave most entries of L_hat exactly zero, and
the connected components of that zero pattern (``_component_labels``, numpy
hooking and pointer jumping) are blocks solved on their own.  The spectrum
of a matrix with exact zeros outside its blocks is the union of the block
spectra, so this is exact; a matrix without zeros is one block.

Every generator qrex builds preserves Hermiticity, so under the transpose
map T(i + d j) = j + d i of vec indices L[T r, T c] = conj(L[r, c]), and
L_hat keeps this: the scaling kron(q, q) is symmetric under T.  T carries
each block B of L_hat onto a block T(B), B itself or a partner with the
conjugate matrix, the same eigenvalues and the conjugate eigenvectors.
``symmetrize`` marks its L_hat ``paired``, and ``block_eigh`` then solves
one block of each pair (``_conjugate_pairs``), checks each entry of the
partner blocks against the conjugate of its T-image among the solved ones
(``_blocks``; ValueError above HERMITICITY_TOL), and counts a twin block's
eigenvalues twice (``block_spectrum``); the partner blocks are never
formed.  Other input takes the general route, every block solved.

The bound g_B of the main theorem, the smallest gap of the pinned B
generators, is read off one generator: ``a_diagonal_restriction_gap``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .lindblad import (Plan, Superoperator, Triplets, WeightFunction, _dag, build_ckg_generator,
                       distinct)
from .pauli import single_site_paulis

KERNEL_TOL = 1e-9
# relative Frobenius residual ||L_hat - L_hat^dag|| / max(1, ||L_hat||) above
# which a generator is rejected as not detailed balanced; the same bound holds
# the partner blocks of a paired L_hat to the conjugates of the solved ones
HERMITICITY_TOL = 1e-9


class UnresolvedGapError(ValueError):
    """The kernel threshold cannot separate the kernel from the gap in double precision."""


@dataclass
class GapReport:
    """Gap and kernel of -L_hat; ``spectral_gap`` adds the block structure of its eigensolve.

    ``eigs`` holds the (up to) eight smallest eigenvalues and ``tol`` the
    kernel threshold.  ``blocks`` counts the blocks of L_hat,
    ``blocks_solved`` those solved (one of each conjugate pair) and
    ``largest_block`` the side of the largest; ``arithmetic`` is "real" when
    L_hat is stored as float64, else "complex".  All four are None where the
    spectrum came from elsewhere.
    """

    gap: float
    kernel_dim: int
    kms_norm: float
    eigs: list
    tol: float
    blocks: int | None = None
    blocks_solved: int | None = None
    largest_block: int | None = None
    arithmetic: str | None = None


def kms_scaling(sigma):
    """Diagonal of Phi in the vec coordinates of sigma.basis: kron(q, q), q = weights^(1/4)."""
    q = sigma.weights**0.25
    return np.kron(q, q)  # q_j q_i at vec index i + d*j


def symmetrize(L: Superoperator):
    """Phi o L o Phi^(-1) as ``paired`` Triplets in the basis L is stored in, with no check.

    L is stored in the basis its Gibbs state L.sigma is diagonal in; there
    Phi is the diagonal scaling diag(phi) L diag(1/phi) with
    phi = kms_scaling(L.sigma), so L_hat has the pattern and the dtype of L:
    float64 for a generator that ``lindblad.canonical`` stored real,
    complex128 otherwise.  ``block_eigh`` checks that L_hat is Hermitian.
    """
    A, phi = L.local, kms_scaling(L.sigma)
    return Triplets(A.row, A.col, phi[A.row] * A.val * (1.0 / phi)[A.col], A.side, paired=True)


def _component_labels(n, rows, cols):
    """Weak component of each of n vertices under the edges (rows, cols), numbered as csgraph does.

    Rounds hook each edge's larger root to its smaller one and jump pointers
    to the roots; roots only decrease, ending at each component's least vertex.
    """
    root = np.arange(n)
    while not np.array_equal(rr := root[rows], rc := root[cols]):
        np.minimum.at(root, np.maximum(rr, rc), np.minimum(rr, rc))
        while not np.array_equal(hop := root[root], root):
            root = hop
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def transpose_map(side):
    """T(i + d j) = j + d i for each vec index of a d x d operator, side = d^2."""
    d = math.isqrt(side)
    r = np.arange(side, dtype=np.int64)
    return (r % d) * d + r // d


def _conjugate_pairs(label, least):
    """The conjugate pairing of the components of a paired matrix under the transpose map T.

    ``label`` numbers the components of the vec indices and ``least`` holds
    the least index of each.  T carries component B onto its partner T(B),
    the component of T(least[B]); B is solved when least[B] is at most its
    partner's least index, so a self-paired block is solved and of every
    other pair the one whose least index is smaller.  Returns the (solve,
    twin) masks over the components, ``twin`` marking the blocks whose
    partner is another block, and T; ValueError when T does not carry
    blocks onto blocks.
    """
    t = transpose_map(label.size)
    partner = label[t[least]]
    if not np.array_equal(label[t], partner[label]):
        raise ValueError("L_hat is not paired by the transpose map: it does not carry the "
                         "blocks of L_hat onto blocks")
    comp = np.arange(least.size)
    return partner >= comp, partner != comp, t


def _blocks(A, plan=None):
    """Diagonal blocks of the square A along the connected components of its nonzero pattern.

    Entry (i, j) links i and j whichever triangle it sits in (weak
    connectivity), so the blocks are those of one simultaneous row/column
    permutation, also for a non-Hermitian A.  A is dense or Triplets.  Returns
    one (idx, sub, twin) triple per distinct size b of the blocks kept:
    ``idx`` is the (k, b) array of the indices of k components, ascending
    within a row, ``sub`` the dense (k, b, b) stack of the blocks
    A[i][:, i], i = idx[c], and ``twin`` the (k,) mask of the blocks that
    stand for a partner block too.  The kept blocks lie one after another in
    one buffer, by size and in label order within a size, each entry
    scattered there once, and each stack is a view of it.

    Every block is kept, with no twin, unless A is ``paired``.  Then only
    one block of each conjugate pair is kept and formed
    (``_conjugate_pairs``), and the partner of a twin block is
    A[T i][:, T i] = conj(A[i][:, i]): each entry of a partner block is
    checked against the conjugate of its T-image in the buffer, an entry of
    a twin block that no partner entry reaches counts whole, and a relative
    residual above HERMITICITY_TOL is a ValueError.

    A ``plan`` (``lindblad.Plan``) reuses the ``_layout`` of A's positions.
    """
    A = A if isinstance(A, Triplets) else Triplets.of(A)

    def fits(rec):
        return rec[0] == A.paired and all(map(np.array_equal, rec[1:3], (A.row, A.col)))

    _, _, _, solved, twinned, corner, pos, size, groups = (plan or Plan()).record(_layout, fits, A)
    place = corner[A.row] + pos[A.col]
    mine = solved[A.row]  # the entries of kept blocks; the others are partner entries
    buf = np.zeros(size, dtype=A.val.dtype)
    buf[place[mine]] = A.val[mine]
    if A.paired:
        mirror = place[~mine]  # the place of the T-image of each partner entry
        image = buf[mirror]
        sq = np.linalg.norm(A.val[~mine] - image.conj()) ** 2
        own = twinned[A.row]  # the entries of kept twin blocks
        # T is one to one: when the partner entries reach as many entries of twin
        # blocks as there are, every one of those has its mirror
        if np.count_nonzero(image) != np.count_nonzero(own):
            reached = np.zeros(buf.size, dtype=bool)
            reached[mirror] = True
            sq += np.linalg.norm(A.val[own & ~reached[place]]) ** 2
        resid = float(np.sqrt(sq) / max(1.0, np.linalg.norm(A.val)))
        if resid > HERMITICITY_TOL:
            raise ValueError(f"L_hat is not conjugate under the transpose map (pairing residual "
                             f"{resid:.2e})")
    return [(idx, buf[o:o + idx.size * idx.shape[1]].reshape(*idx.shape, -1), twin)
            for idx, o, twin in groups]


def _layout(A):
    """The symbolic phase of ``_blocks``, from A's positions alone: (paired, row, col, each
    index's solved and twin masks, corner and pos with place = corner[row] + pos[col] in the
    buffer, its size, and (idx, offset, twin) per block size)."""
    n = A.side
    label = _component_labels(n, A.row, A.col)
    sizes = np.bincount(label)
    order = np.argsort(label, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(n, dtype=np.int64)  # place of each index within its component
    pos[order] = np.arange(n) - starts[label[order]]
    solve, twin, home = np.ones(sizes.size, dtype=bool), np.zeros(sizes.size, dtype=bool), None
    if A.paired:
        solve, twin, t = _conjugate_pairs(label, order[starts])
        home = np.where(solve[label], np.arange(n), t)  # an index of a partner block reads T of it
    kept = np.flatnonzero(solve)
    kept = kept[np.argsort(sizes[kept], kind="stable")]  # by size, in label order within one
    area = sizes[kept] ** 2
    lead = np.zeros(sizes.size, dtype=np.int64)  # where each kept block starts in the buffer
    lead[kept] = np.cumsum(area) - area
    corner = lead[label] + pos * sizes[label]  # the place of entry (i, least index of its block)
    if home is not None:
        corner, pos = corner[home], pos[home]
    side, first, count = np.unique(sizes[kept], return_index=True, return_counts=True)
    groups = [(order[starts[kept[f:f + k]][:, None] + np.arange(b)], lead[kept[f]],
               twin[kept[f:f + k]]) for b, k, f in zip(side, count, first)]
    return (A.paired, A.row, A.col, solve[label], (solve & twin)[label], corner, pos,
            int(area.sum()), groups)


def block_eigh(A, vectors=True, plan=None):
    """Eigendecomposition of the Hermitian part H = (A + A^dag) / 2 of A, one eigh per block size.

    A is dense or Triplets.  Returns a list of (idx, w, V, twin), one per
    distinct block size b: ``idx`` is the (k, b) array of the indices of k
    blocks, ``w`` their (k, b) ascending eigenvalues and ``V`` their
    (k, b, b) eigenvectors (None without ``vectors``), so that
    H[i][:, i] @ V[c] = V[c] * w[c] with i = idx[c].  For a ``paired`` A one
    block of each conjugate pair is solved (see ``_blocks``): where
    ``twin[c]`` holds, the partner block on the indices T(idx[c]) has the
    same eigenvalues w[c] and the conjugate eigenvectors conj(V[c]).  Before
    any eigensolve, a relative residual ||A - A^dag|| / max(1, ||A||) of the
    blocks and their partners above HERMITICITY_TOL is a ValueError: L is
    not detailed balanced.  A real A is solved as real symmetric blocks, in
    half the bytes and about half the time of the complex route.
    """
    A = A if isinstance(A, Triplets) else Triplets.of(A)
    blocks, sq, diff = _blocks(A, plan), 0.0, None
    for _, sub, twin in blocks:  # ||diff||^2 of each block by einsum, with no further temporary
        diff = sub - sub.conj().swapaxes(1, 2)
        sq += (1 + twin) @ np.einsum("kij,kij->k", diff, diff.conj()).real
    del diff
    herm = float(np.sqrt(sq) / max(1.0, np.linalg.norm(A.val)))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"generator is not detailed balanced (Hermiticity residual of "
                         f"L_hat {herm:.2e})")
    groups = []
    for idx, sub, twin in blocks:
        # into a new array: adding a transposed view of sub into sub would copy it first
        sub = sub + sub.conj().swapaxes(1, 2)
        sub *= 0.5
        if vectors:
            w, V = np.linalg.eigh(sub)
        else:
            w, V = np.linalg.eigvalsh(sub), None
        groups.append((idx, w, V, twin))
    return groups


def block_spectrum(groups):
    """Ascending eigenvalues of the ``block_eigh`` groups, those of a twin block counted twice."""
    return np.sort(np.concatenate([np.repeat(w, 1 + twin, axis=0).ravel()
                                   for _, w, _, twin in groups]))


def block_eigvalsh(A, plan=None):
    """Ascending eigenvalues of the Hermitian A, solved block by block."""
    return block_spectrum(block_eigh(A, False, plan))


def spectral_norm(X):
    """Largest singular value of the square X: sqrt of the top eigenvalue of X^dag X per block."""
    top = 0.0
    for _, sub, _ in _blocks(X):
        top = max(top, float(np.linalg.eigvalsh(sub.conj().transpose(0, 2, 1) @ sub)[:, -1].max()))
    return float(np.sqrt(top))


def kernel_threshold(evals):
    """KERNEL_TOL times the largest |eigenvalue|: the eigenvalues up to it are the kernel."""
    return KERNEL_TOL * max(np.abs(evals).max(), 1e-300)


def gap_from_eigenvalues(evals, expected_kernel=1) -> GapReport:
    """Kernel dimension and gap from the ascending eigenvalues of -L_hat.

    The kernel is every eigenvalue up to KERNEL_TOL times the largest.
    Raises UnresolvedGapError if no eigenvalue clears the kernel threshold,
    the first one is within 10x of it (a near-degenerate cluster is split),
    or the kernel does not have ``expected_kernel`` eigenvalues: a slow mode
    below the threshold would leave the gap read off the rest wrong.
    """
    threshold = kernel_threshold(evals)
    kernel_dim = int(np.sum(evals <= threshold))
    if kernel_dim == evals.size:
        raise UnresolvedGapError("generator has no spectrum above the kernel threshold")
    gap = float(evals[kernel_dim])
    if gap < 10 * threshold:
        raise UnresolvedGapError(
            f"ambiguous kernel cluster: gap {gap:.3e} within 10x of threshold {threshold:.3e}"
        )
    if kernel_dim != expected_kernel:
        raise UnresolvedGapError(
            f"kernel dimension {kernel_dim}, expected {expected_kernel}: a slow mode lies "
            f"below the kernel threshold {threshold:.3e}, so the gap is unresolved")
    return GapReport(
        gap=gap,
        kernel_dim=kernel_dim,
        kms_norm=float(evals[-1]),
        eigs=[float(v) for v in evals[:8]],
        tol=float(threshold),
    )


def spectral_gap(L: Superoperator, plan=None) -> GapReport:
    """Kernel dimension and smallest nonzero eigenvalue of -L_hat, with its block structure."""
    Lhat = -symmetrize(L)
    groups = block_eigh(Lhat, False, plan)
    return replace(gap_from_eigenvalues(block_spectrum(groups)),
                   blocks=sum(int(idx.shape[0] + twin.sum()) for idx, _, _, twin in groups),
                   blocks_solved=sum(idx.shape[0] for idx, _, _, _ in groups),
                   largest_block=max(idx.shape[1] for idx, _, _, _ in groups),
                   arithmetic="complex" if np.iscomplexobj(Lhat.val) else "real")


def _gap_of_psd(M, tol=1e-10):
    """Smallest eigenvalue above tol * max |eigenvalue| of each PSD matrix in the (..., d, d) M.

    0.0 where there is none (the zero matrix); a float for one matrix.
    """
    evals = np.linalg.eigvalsh(M)
    scale = np.maximum(np.abs(evals).max(axis=-1), 1e-300)
    pos = evals > tol * scale[..., None]
    # eigenvalues ascend, so the first one above the cut is the gap
    first = np.take_along_axis(evals, pos.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    gap = np.where(pos.any(axis=-1), first, 0.0)
    return float(gap) if gap.ndim == 0 else gap


def _random_psd(rng, count, dim, rank=None):
    """(count, dim, dim) stack of C C^dag with complex Gaussian C of rank ``rank`` (per instance)."""
    C = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    if rank is not None:
        C *= np.arange(dim) < np.asarray(rank)[:, None, None]  # keep the first rank columns
    return C @ _dag(C)


def _tally(margins):
    """Violation count and worst (non-positive) margin of one case."""
    return {"violations": int(np.sum(margins < -1e-10)),
            "worst_margin": float(min(0.0, margins.min()))}


def gap_composition_suite(seed=42, n_instances=200, dim=6):
    """Randomized checks of the PSD gap-composition facts used downstream.

    Cases: (1) ker(A+B) = ker(B) forces Gap(A+B) >= Gap(B); (2) commuting
    PSD pairs give Gap(A+B) >= min of the gaps; (3) the g_A g_B/(g_A+||B||)
    operator lower bound; (4) the scalar ratio inequality.  Each case draws
    its n_instances instances as one (n_instances, dim, dim) stack and
    decides them with stacked eigh/eigvalsh/qr.  Returns a report with
    per-case violation counts and worst margins.
    """
    rng = np.random.default_rng(seed)
    n = n_instances
    cases = {}

    # case 1: ker(A+B) = ker(B) by construction, B of rank dim - {1, 2}
    B = _random_psd(rng, n, dim, rank=dim - rng.integers(1, 3, size=n))
    evals, V = np.linalg.eigh(B)
    keep = evals > 1e-10 * evals[:, -1:]
    P = (V * keep[:, None, :]) @ _dag(V)  # projectors onto ker(B)^perp
    A = P @ _random_psd(rng, n, dim) @ P
    cases["kernel_agreement"] = _tally(_gap_of_psd(A + B) - _gap_of_psd(B))

    # case 2: commuting pairs via a shared eigenbasis, with one shared zero
    # eigenvalue and one further zero each
    Q, _ = np.linalg.qr(rng.standard_normal((n, dim, dim))
                        + 1j * rng.standard_normal((n, dim, dim)))
    a = np.abs(rng.standard_normal((n, dim)))
    b = np.abs(rng.standard_normal((n, dim)))
    inst = np.arange(n)
    shared_zero = rng.integers(0, dim, size=n)
    a[inst, shared_zero] = b[inst, shared_zero] = 0.0
    a[inst, rng.integers(0, dim, size=n)] = 0.0
    b[inst, rng.integers(0, dim, size=n)] = 0.0
    A = (Q * a[:, None, :]) @ _dag(Q)
    B = (Q * b[:, None, :]) @ _dag(Q)
    cases["commuting_min"] = _tally(
        _gap_of_psd(A + B) - np.minimum(_gap_of_psd(A), _gap_of_psd(B)))

    # case 3: A + B >= g_A g_B / (g_A + ||B||) when B has energy >= g_B on ker(A),
    # A of rank dim - {1, 2}
    A = _random_psd(rng, n, dim, rank=dim - rng.integers(1, 3, size=n))
    evals, V = np.linalg.eigh(A)
    kernel_dim = np.sum(evals <= 1e-10 * np.maximum(evals[:, -1:], 1.0), axis=1)
    B = _random_psd(rng, n, dim)
    g_b = np.empty(n)
    for kd in distinct(kernel_dim):  # the kernel is the leading kd eigenvectors
        sel = kernel_dim == kd
        K = V[sel][:, :, :kd]
        g_b[sel] = np.linalg.eigvalsh(_dag(K) @ B[sel] @ K)[:, 0]
    g_a = _gap_of_psd(A)
    bound = g_a * g_b / (g_a + np.linalg.norm(B, 2, axis=(1, 2)))
    cases["kernel_energy_bound"] = _tally(np.linalg.eigvalsh(A + B)[:, 0] - bound)

    # case 4: scalar ratio inequality on random positive tuples
    a1, a2, b1, b2 = (np.abs(rng.standard_normal((n, 4))) + 1e-3).T
    cases["ratio_inequality"] = _tally((a1 + b1) / (a2 + b2) - np.minimum(a1 / a2, b1 / b2))

    return {"cases": cases, "passed": all(c["violations"] == 0 for c in cases.values())}


def a_diagonal_restriction_gap(js, w: WeightFunction, plan=None):
    """g_B: gap of the B-site generator restricted to the A-diagonal sector.

    Zeroing the A-off-diagonal sector block-diagonalizes the generator over
    the A labels, so this equals min_i Gap of the pinned generators, the g_B
    of the main theorem, at the temperature ``w.beta``.  The generator is
    built in the product labels |i_A j_B> of the caller's
    replica.JointStructure ``js``, which diagonalize H, so L_hat is a sparse
    scaling, and its principal submatrix on the A-diagonal vec indices is
    kept (``Triplets.restrict``).  Its kernel holds one state per A label.
    """
    es = js.system_es
    couplings = single_site_paulis(js.n, sites=js.cut.perm_order[js.n_a:])
    Lhat = symmetrize(build_ckg_generator(es, couplings, w, plan))
    d = es.dim
    a_label = np.arange(d) // js.d_b  # A label of each stored basis index
    sub = -Lhat.restrict((a_label[:, None] == a_label).ravel())  # symmetric, so in vec order
    return gap_from_eigenvalues(block_eigvalsh(sub, plan), js.d_a).gap
