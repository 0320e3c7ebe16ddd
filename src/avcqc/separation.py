"""Convex-separation machinery for correlation-assisted coding.

Builds the paired encoder functions (g0, g1) on blocks of the sender's
source symbols, forms the receiver-side ensemble states they induce,
decides whether the two jammer-reachable convex sets are disjoint, and,
when they are, produces a separating operator, a two-outcome measurement
and the induced binary classical channel whose positivity yields a
jam-proof one-bit subchannel.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from math import comb

import numpy as np

from .channels import Avcqc, JammerKernel
from .config import DEFAULT_CAPS, DEFAULT_TOL
from .errors import (
    AlphabetMismatch,
    DimOverflow,
    EmptyGrid,
    EnumerationOverflow,
    Indeterminate,
    NonBinarySource,
    ZeroMutualInformation,
)
from .geometry import affine_set_distance, embed_hermitian, kernel_grid, unembed_hermitian
from .operators import validate_density

__all__ = [
    "GPair",
    "EnsembleState",
    "SeparationCertificate",
    "NotSeparable",
    "BinaryAvc",
    "build_g_pair",
    "ensemble_state",
    "separation_test",
    "certificate_soundness_sweep",
    "induced_binary_avc",
    "binary_avc_positivity",
]


@dataclass(frozen=True, eq=False)
class GPair:
    """Marginal-matched encoder pair on sender blocks of length iota.

    g0 and g1 map every sender word of length iota to an input letter so
    that the letter distributions they induce agree exactly, while the
    word-level assignments differ on the paired groups.
    """

    iota: int
    g0: dict
    g1: dict
    groups: dict  # word -> 1 (pinned pair), 2 (free pair), 3 (shared leftover)

    def preimage(self, which, x):
        g = self.g0 if which == 0 else self.g1
        return tuple(sorted(u for u, val in g.items() if val == x))


def smallest_block_length(alphabet_size):
    """Smallest kappa whose halved binomial column sums cover the alphabet."""
    kappa = 1
    while sum(comb(kappa, t) // 2 for t in range(kappa + 1)) < alphabet_size:
        kappa += 1
    return kappa


def build_g_pair(src, x_alphabet, mi_floor=1e-12):
    """Construct the three-group encoder pair for a binary sender alphabet.

    Words of each Hamming weight are split lexicographically into matched
    halves (a / b); the first alphabet_size - 1 pairs pin letter 0 against
    each other letter, the remaining pairs swap a deterministic letter pair,
    and odd leftovers map identically under both encoders.
    """
    if len(src.v_prime_alphabet) != 2:
        raise NonBinarySource(
            f"sender alphabet has {len(src.v_prime_alphabet)} symbols, need 2"
        )
    if src.mutual_information() <= mi_floor:
        raise ZeroMutualInformation(
            f"source mutual information {src.mutual_information():.3e} <= {mi_floor:.1e}"
        )
    x_alphabet = tuple(x_alphabet)
    alpha = len(x_alphabet)
    if alpha < 2:
        raise AlphabetMismatch(
            f"encoder pairing needs at least two input letters, got {alpha}"
        )
    iota = smallest_block_length(alpha)
    one = src.v_prime_alphabet[1]
    words = list(iproduct(src.v_prime_alphabet, repeat=iota))
    by_weight = {}
    for u in sorted(words):
        by_weight.setdefault(sum(1 for c in u if c == one), []).append(u)

    pairs = []     # (a_word, b_word) in label order
    leftovers = []
    for h in range(iota + 1):
        cls = by_weight.get(h, [])
        half = len(cls) // 2
        for k in range(half):
            pairs.append((cls[k], cls[half + k]))
        if len(cls) % 2 == 1:
            leftovers.append(cls[-1])

    g0, g1, groups = {}, {}, {}
    for m, (a, b) in enumerate(pairs, start=1):
        if m <= alpha - 1:
            g0[a], g0[b] = x_alphabet[0], x_alphabet[m]
            g1[b], g1[a] = x_alphabet[0], x_alphabet[m]
            groups[a] = groups[b] = 1
        else:
            z0, z1 = sorted((m % alpha, (m + 1) % alpha))
            g0[a], g0[b] = x_alphabet[z0], x_alphabet[z1]
            g1[b], g1[a] = x_alphabet[z0], x_alphabet[z1]
            groups[a] = groups[b] = 2
    for u in leftovers:
        g0[u] = g1[u] = x_alphabet[0]
        groups[u] = 3

    # letter-marginal matching is exact: per weight class the two encoders
    # hit every letter equally often
    for x in x_alphabet:
        for h in range(iota + 1):
            c0 = sum(1 for u, v in g0.items() if v == x and sum(1 for c in u if c == one) == h)
            c1 = sum(1 for u, v in g1.items() if v == x and sum(1 for c in u if c == one) == h)
            assert c0 == c1
    return GPair(iota=iota, g0=g0, g1=g1, groups=groups)


@dataclass(frozen=True, eq=False)
class EnsembleState:
    """Receiver-side block state: sum_v P(v) |v><v| (x) (conditional output)."""

    matrix: np.ndarray           # (|V|^iota * d, ...) block diagonal
    blocks: np.ndarray           # (|V|^iota, d, d), trace of block v is P(v)
    v_words: tuple


def _block_weights(src, g, iota):
    """weights[x_index, v_index] = P_V(v word) * P(V'-preimage of x | v word)."""
    trans = src.sender_given_receiver       # P(V'=u | V=v), (|V'|, |V|)
    pv = src.receiver_marginal
    v_words = list(iproduct(range(len(src.v_alphabet)), repeat=iota))
    pv_word = np.array([np.prod([pv[t] for t in v]) for v in v_words])
    vp_index = {sym: i for i, sym in enumerate(src.v_prime_alphabet)}
    x_index = {}
    for u, x in g.items():
        x_index.setdefault(x, []).append(tuple(vp_index[c] for c in u))
    wgt = {}
    for x in x_index:
        acc = np.zeros(len(v_words))
        for u in x_index[x]:
            cond = np.ones(len(v_words))
            for i, v in enumerate(v_words):
                cond[i] = np.prod([trans[u[t], v[t]] for t in range(iota)])
            acc += cond
        wgt[x] = acc * pv_word
    return wgt, v_words


def _generators(w, src, g, iota, caps=DEFAULT_CAPS):
    """Embedded generator matrix: columns are the (x, s) basis operators.

    The ensemble state for kernel Q is sum_{x,s} Q(s|x) * G[:, (x,s)].
    """
    nv = len(src.v_alphabet) ** iota
    d = w.dim
    total = nv * d
    if total > caps.product_dim:
        raise DimOverflow(f"ensemble dimension {total} exceeds cap {caps.product_dim}")
    wgt, v_words = _block_weights(src, g, iota)
    cols = []
    for xi, x in enumerate(w.x_alphabet):
        weights = wgt.get(x, np.zeros(nv))
        for si in range(len(w.s_alphabet)):
            m = np.zeros((total, total), dtype=complex)
            for vi in range(nv):
                m[vi * d : (vi + 1) * d, vi * d : (vi + 1) * d] = (
                    weights[vi] * w.states[xi, si]
                )
            cols.append(embed_hermitian(m))
    return np.stack(cols, axis=1), v_words  # (D, |X|*|S|)


def ensemble_state(src, g, q, w, caps=DEFAULT_CAPS):
    """Block state induced by encoder g under jamming kernel q."""
    if q.x_alphabet != w.x_alphabet or q.s_alphabet != w.s_alphabet:
        raise AlphabetMismatch("kernel alphabets do not match the channel")
    iota = len(next(iter(g)))
    gen, v_words = _generators(w, src, g, iota, caps)
    vec = gen @ q.rows.ravel()
    mat = validate_density(unembed_hermitian(vec))
    d = w.dim
    nv = len(v_words)
    blocks = np.stack([mat[i * d : (i + 1) * d, i * d : (i + 1) * d] for i in range(nv)])
    return EnsembleState(matrix=mat, blocks=blocks, v_words=tuple(v_words))


@dataclass(frozen=True, eq=False)
class SeparationCertificate:
    """Separating operator with threshold and the derived measurement.

    tr(sigma A) < threshold for every state reachable under g0 and
    tr(sigma A) > threshold under g1; margin is the exact worst-case gap
    on either side (linear programs over the kernel polytope decompose
    per input letter, so the extremes are computed exactly).
    """

    operator_a: np.ndarray
    threshold_b: float
    m0: np.ndarray
    m1: np.ndarray
    margin: float
    distance: float
    lambda_top: float
    lambda_floor: float
    block_dim: int               # operator acts on (receiver words) x (output dim)
    output_dim: int

    def measurement_block(self, which, v_index):
        d = self.output_dim
        m = self.m0 if which == 0 else self.m1
        return m[v_index * d : (v_index + 1) * d, v_index * d : (v_index + 1) * d]


@dataclass(frozen=True, eq=False)
class NotSeparable:
    """The two reachable sets meet: witness kernels bring them together."""

    witness_distance: float
    witness_q0: JammerKernel
    witness_q1: JammerKernel


def separation_test(w, src, gp, seed=0, restarts=16, tol=DEFAULT_TOL, caps=DEFAULT_CAPS):
    """Decide disjointness of the reachable ensemble-state sets of g0 and g1.

    Distance above the separability threshold yields a certificate built
    from the connecting direction between the closest points; distance at
    or below the lower threshold yields NotSeparable with the witness
    kernels; the dead band in between raises Indeterminate.
    """
    gen0, v_words = _generators(w, src, gp.g0, gp.iota, caps)
    gen1, _ = _generators(w, src, gp.g1, gp.iota, caps)
    ns = len(w.s_alphabet)
    rng = np.random.default_rng(seed)
    dist, q0, q1 = affine_set_distance(
        gen0, gen1, ns, ns, rng, restarts=restarts, tol=tol.quadratic_solver
    )
    nx = len(w.x_alphabet)
    if dist <= tol.not_separable_below:
        return NotSeparable(
            witness_distance=dist,
            witness_q0=JammerKernel(w.x_alphabet, w.s_alphabet, q0.reshape(nx, ns)),
            witness_q1=JammerKernel(w.x_alphabet, w.s_alphabet, q1.reshape(nx, ns)),
        )
    if dist <= tol.separable_above:
        raise Indeterminate(
            f"set distance {dist:.3e} lies in the dead band "
            f"({tol.not_separable_below:.1e}, {tol.separable_above:.1e}]"
        )
    e0, e1 = gen0 @ q0, gen1 @ q1
    direction = (e1 - e0) / dist
    b = float(direction @ (e0 + e1) / 2.0)
    # exact extremes of the linear functional over the kernel polytope
    c0 = (gen0.T @ direction).reshape(nx, ns)
    c1 = (gen1.T @ direction).reshape(nx, ns)
    max0 = float(c0.max(axis=1).sum())
    min1 = float(c1.min(axis=1).sum())
    margin = min(b - max0, min1 - b)
    if margin <= 0.0:
        raise Indeterminate(
            f"positive set distance {dist:.3e} but non-positive exact margin {margin:.3e}"
        )
    a_op = unembed_hermitian(direction)
    shifted = a_op - b * np.eye(a_op.shape[0])
    eigs = np.linalg.eigvalsh(shifted)
    lam_top = float(eigs[-1])
    lam_floor = float(min(0.0, eigs[0]))
    m1 = (shifted - lam_floor * np.eye(a_op.shape[0])) / (lam_top - lam_floor)
    m0 = np.eye(a_op.shape[0]) - m1
    return SeparationCertificate(
        operator_a=a_op,
        threshold_b=b,
        m0=m0,
        m1=m1,
        margin=float(margin),
        distance=dist,
        lambda_top=lam_top,
        lambda_floor=lam_floor,
        block_dim=a_op.shape[0],
        output_dim=w.dim,
    )


def certificate_soundness_sweep(cert, w, src, gp, kernels=1000, seed=0, caps=DEFAULT_CAPS):
    """Count random kernels violating the half-margin separation bands."""
    gen0, _ = _generators(w, src, gp.g0, gp.iota, caps)
    gen1, _ = _generators(w, src, gp.g1, gp.iota, caps)
    rng = np.random.default_rng(seed)
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    qs = rng.dirichlet(np.ones(ns), size=(kernels, nx)).reshape(kernels, nx * ns)
    a_vec = embed_hermitian(cert.operator_a)
    t0 = qs @ (gen0.T @ a_vec)
    t1 = qs @ (gen1.T @ a_vec)
    half = cert.margin / 2.0
    violations = int(np.sum(t0 >= cert.threshold_b - half))
    violations += int(np.sum(t1 <= cert.threshold_b + half))
    return violations


@dataclass(frozen=True, eq=False)
class BinaryAvc:
    """Induced binary channel tabulated over a kernel certification grid."""

    tables: np.ndarray           # (M, 2, 2): tables[m, i, j] = V(j | i) under kernel m
    kernels: np.ndarray | None   # (M, |X|, |S|) grid kernels, when applicable

    def __post_init__(self):
        t = np.asarray(self.tables, dtype=float)
        if t.ndim != 3 or t.shape[1:] != (2, 2):
            raise EmptyGrid(f"expected (M, 2, 2) tables, got {t.shape}")
        if t.shape[0] == 0:
            raise EmptyGrid("empty kernel grid")
        object.__setattr__(self, "tables", t)

    @property
    def min_correct(self):
        """(min over grid of V(0|0), min over grid of V(1|1))."""
        return float(self.tables[:, 0, 0].min()), float(self.tables[:, 1, 1].min())

    @property
    def correct_intervals(self):
        """Reachable intervals of V(0|0) and V(1|1) over the grid."""
        return (
            (float(self.tables[:, 0, 0].min()), float(self.tables[:, 0, 0].max())),
            (float(self.tables[:, 1, 1].min()), float(self.tables[:, 1, 1].max())),
        )


def induced_binary_avc(cert, w, src, gp, grid_resolution=16, caps=DEFAULT_CAPS):
    """Tabulate V(j|i) = tr(sigma_{Q, g_i} M_j) over the kernel grid."""
    if grid_resolution < 1:
        raise EmptyGrid(f"grid resolution {grid_resolution} < 1")
    grid_size = comb(grid_resolution + len(w.s_alphabet) - 1, len(w.s_alphabet) - 1) ** len(
        w.x_alphabet
    )
    if grid_size > caps.enumeration:
        raise EnumerationOverflow(
            f"kernel grid of {grid_size} points exceeds cap {caps.enumeration}"
        )

    gen0, _ = _generators(w, src, gp.g0, gp.iota, caps)
    gen1, _ = _generators(w, src, gp.g1, gp.iota, caps)
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    grid = kernel_grid(nx, ns, grid_resolution)     # (M, X, S)
    flat = grid.reshape(grid.shape[0], nx * ns)
    m1_vec = embed_hermitian(cert.m1)
    v10 = flat @ (gen0.T @ m1_vec)   # V(1|0) per kernel
    v11 = flat @ (gen1.T @ m1_vec)   # V(1|1)
    tables = np.empty((grid.shape[0], 2, 2))
    tables[:, 0, 1] = v10
    tables[:, 0, 0] = 1.0 - v10
    tables[:, 1, 1] = v11
    tables[:, 1, 0] = 1.0 - v11
    return BinaryAvc(tables=tables, kernels=grid)


def binary_avc_positivity(bavc, seed=0, restarts=16, strict=1e-9):
    """Positivity condition and rate of the induced binary channel.

    Positive iff the worst-case correct-decision probabilities exceed 1 in
    sum.  The rate is the max-min mutual information over per-input
    mixtures of grid rows; since the rows are affine in the kernel the
    reachable set per input is an interval, realized here as a two-state
    varying channel with diagonal (classical) outputs and solved by the
    same max-min machinery as the general case.
    """
    from .capacity import capacity_informed_jammer

    m00, m11 = bavc.min_correct
    positive = bool(m00 + m11 > 1.0 + strict)
    (lo0, hi0), (lo1, hi1) = bavc.correct_intervals

    def clip01(v):
        return float(min(max(v, 0.0), 1.0))

    states = np.zeros((2, 2, 2, 2), dtype=complex)
    states[0, 0] = np.diag([clip01(lo0), 1.0 - clip01(lo0)])
    states[0, 1] = np.diag([clip01(hi0), 1.0 - clip01(hi0)])
    states[1, 0] = np.diag([1.0 - clip01(lo1), clip01(lo1)])
    states[1, 1] = np.diag([1.0 - clip01(hi1), clip01(hi1)])
    reduced = Avcqc((0, 1), ("lo", "hi"), states)
    res = capacity_informed_jammer(reduced, seed=seed, restarts=restarts, certify=False)
    return {"positive": positive, "rate_r": res.value}
