"""Convex-separation machinery for correlation-assisted coding.

Builds the paired encoder functions (g0, g1) on blocks of the sender's
source symbols, forms the receiver-side ensemble states they induce,
decides whether the two jammer-reachable convex sets are disjoint, and,
when they are, produces a separating operator, a two-outcome measurement
and the induced binary classical channel whose positivity yields a
jam-proof one-bit subchannel.  The budget-limited common-randomness lower
bound combines that subchannel's rate with the max-min value.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from math import comb

import numpy as np

from .capacity import capacity_informed_jammer
from .channels import Avcqc, JammerKernel, _product_joint
from .config import DEFAULT_CAPS, DEFAULT_TOL, charge
from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    Indeterminate,
    InvalidArgument,
    NonBinarySource,
    NotPositive,
    ProfileOutOfRange,
    TraceNotOne,
    ZeroMutualInformation,
)
from .geometry import _set_distance, embed_stack
from .operators import _integer, eigvalsh_stack, require_hermitian

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
    "CorrelationLengthProfile",
    "cr_rate_limited_lower_bound",
]

# a source whose mutual information is at most this counts as uncorrelated
_MI_FLOOR = 1e-12
# the induced binary channel is positive only when its worst-case correct
# probabilities exceed 1 in sum by more than this rounding margin
_POSITIVITY_MARGIN = 1e-9


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


def smallest_block_length(alphabet_size):
    """Smallest kappa whose halved binomial column sums cover the alphabet."""
    kappa = 1
    while sum(comb(kappa, t) // 2 for t in range(kappa + 1)) < alphabet_size:
        kappa += 1
    return kappa


def build_g_pair(src, x_alphabet):
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
    if src.mutual_information() <= _MI_FLOOR:
        raise ZeroMutualInformation(
            f"source mutual information {src.mutual_information():.3e} <= {_MI_FLOOR:.1e}"
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
    return GPair(iota=iota, g0=g0, g1=g1, groups=groups)


@dataclass(frozen=True, eq=False)
class EnsembleState:
    """Receiver-side block state sum_v P(v) |v><v| (x) (conditional output):
    its diagonal blocks, with the dense matrix built on first read."""

    blocks: np.ndarray           # (|V|^iota, d, d), Hermitian, trace of block v is P(v)
    v_words: tuple
    matrix = cached_property(lambda self: _block_diag(self.blocks))


def _block_letters(src, *gs):
    """Letter table of the encoders gs: one row (g(u) for g in gs) per sender
    block u in lexicographic order, or AlphabetMismatch if a g misses a u."""
    blocks = iproduct(src.v_prime_alphabet, repeat=len(next(iter(gs[0]))))
    try:
        return tuple(tuple(g[u] for g in gs) for u in blocks)
    except KeyError as missing:
        raise AlphabetMismatch(f"encoder has no letter for sender block {missing}") from None


def _block_weights(src, letters, iota, x_alphabet):
    """weights[c, x, v] = sum_{u : letters[u][c] = x} P_iota(u, v) of a letter
    table (see _block_letters), v over the receiver blocks in lexicographic
    order: P_iota is the iota-fold Kronecker power of the source joint, and
    each letter's preimage rows are added to zero in sender-block order."""
    joint = _product_joint(src, iota)
    if len(letters) != len(joint):
        raise DimensionMismatch(f"{len(letters)} sender blocks, the source has {len(joint)}")
    x_index = {x: i for i, x in enumerate(x_alphabet)}
    xi = np.array([[x_index[x] for x in row] for row in letters], dtype=np.intp)
    weights = np.zeros((xi.shape[1], len(x_alphabet), joint.shape[1]))
    np.add.at(weights, (np.arange(xi.shape[1]), xi), joint[:, None])
    return weights


def _ensemble_blocks(w, weights, q_rows):
    """Blocks sum_{x,s} Q(s|x) w_x(v) W(x, s) of the ensemble state, one per receiver word v."""
    return np.einsum("xs,xv,xsij->vij", q_rows, weights, w.states)


def _coefficients(w, weights, blocks):
    """c[x, s] = sum_v w_x(v) tr(W(x, s) B_v): the functional B on column (x, s)."""
    return np.einsum("xv,xsij,vji->xs", weights, w.states, blocks).real


def _block_diag(blocks):
    """Read-only dense block-diagonal operator on (receiver words) x (output dim)."""
    nv, d, _ = blocks.shape
    out = np.zeros((nv, d, nv, d), dtype=complex)
    out[np.arange(nv), :, np.arange(nv), :] = blocks
    out.flags.writeable = False
    return out.reshape(nv * d, nv * d)


def ensemble_state(src, g, q, w, caps=DEFAULT_CAPS):
    """Block state induced by encoder g under jamming kernel q: its blocks'
    Hermitian parts, checked as one density operator within DEFAULT_TOL
    (PSD blocks whose traces sum to 1).  caps.product_dim bounds its side."""
    if q.x_alphabet != w.x_alphabet or q.s_alphabet != w.s_alphabet:
        raise AlphabetMismatch("kernel alphabets do not match the channel")
    iota, tol = len(next(iter(g))), DEFAULT_TOL
    charge(caps, "product_dim", len(src.v_alphabet) ** iota * w.dim, "ensemble dimension")
    weights = _block_weights(src, _block_letters(src, g), iota, w.x_alphabet)[0]
    blocks = require_hermitian(_ensemble_blocks(w, weights, q.rows), tol.hermitian)
    low = float(eigvalsh_stack(blocks)[:, 0].min())
    tr = float(np.trace(blocks, axis1=1, axis2=2).real.sum())
    if low < -tol.psd_floor:
        raise NotPositive(f"minimum eigenvalue {low:.3e} is below the floor -{tol.psd_floor:.1e}")
    if abs(tr - 1.0) > tol.trace_one:
        raise TraceNotOne(f"trace is {tr!r}, |trace - 1| exceeds {tol.trace_one:.1e}")
    v_words = iproduct(range(len(src.v_alphabet)), repeat=iota)
    return EnsembleState(blocks=blocks, v_words=tuple(v_words))


@dataclass(frozen=True, eq=False)
class SeparationCertificate:
    """Separating operator with threshold and the derived measurement.

    tr(sigma A) < threshold for every state reachable under g0 and
    tr(sigma A) > threshold under g1; margin is the exact worst-case gap
    on either side (linear programs over the kernel polytope decompose
    per input letter, so the extremes are computed exactly).  It holds the
    d x d blocks of A and of (M0, M1 = I - M0), block diagonal over the
    receiver words; the dense operator_a, m0 and m1 are built on first read.
    """

    operator_blocks: np.ndarray  # (|V|^iota, d, d) diagonal blocks of A
    measurement: np.ndarray      # (|V|^iota, 2, d, d) (M0, M1) pair of each receiver word
    threshold_b: float
    margin: float
    distance: float
    distance_lower: float        # certified: the true set distance is at least this
    lambda_top: float
    lambda_floor: float
    block_dim: int               # operator acts on (receiver words) x (output dim)
    output_dim: int

    operator_a = cached_property(lambda self: _block_diag(self.operator_blocks))
    m0 = cached_property(lambda self: _block_diag(self.measurement[:, 0]))
    m1 = cached_property(lambda self: _block_diag(self.measurement[:, 1]))


@dataclass(frozen=True, eq=False)
class NotSeparable:
    """The two reachable sets meet: witness kernels bring them together."""

    witness_distance: float
    distance_lower: float
    witness_q0: JammerKernel
    witness_q1: JammerKernel


def separation_test(w, src, gp, seed=0, tol=DEFAULT_TOL, caps=DEFAULT_CAPS):
    """Decide disjointness of the reachable ensemble-state sets of g0 and g1.

    The set distance comes as a bracket [lower, distance] from one
    projected Newton solve of the convex quadratic (``_set_distance``, the
    solve of ``affine_set_distance``, stopped on a Frank-Wolfe gap of
    tol.quadratic_solver), which draws no random numbers: seed has no
    effect.  distance at or below the lower threshold yields NotSeparable
    with the witness kernels; lower above the separability threshold yields
    a certificate built from the connecting direction between the closest
    points; any other bracket raises Indeterminate.  caps.product_dim
    bounds block_dim = |V|^iota d and is charged first.  Both encoders'
    weights come from the _block_weights table the pre-code reads too, and
    one product writes the solve's generator matrix [gen0, -gen1] into one
    buffer: column (i, x, s) stacks the embedded generator w_x(v) W(x, s) of
    every block v, negated for g1.  The embedding keeps the trace inner
    product, so Euclidean distances between combinations of columns are
    Frobenius distances between ensemble states.  The operator is block
    diagonal: lambda_top, lambda_floor and the measurement come from its
    |V|^iota shifted d x d blocks, and no dense operator is built.
    """
    nv, d = len(src.v_alphabet) ** gp.iota, w.dim
    charge(caps, "product_dim", nv * d, "ensemble dimension")
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    wgt0, wgt1 = _block_weights(src, _block_letters(src, gp.g0, gp.g1), gp.iota, w.x_alphabet)
    embedded = embed_stack(w.states)
    joint = np.empty((nv * embedded.shape[-1], 2 * nx * ns))
    # (-w) e is -(w e) exactly, so g1's half is the negated generators bit for bit
    np.einsum("ixv,xse->veixs", np.stack((wgt0, -wgt1)), embedded,
              out=joint.reshape(nv, -1, 2, nx, ns))
    dist, lower, q0, q1 = _set_distance(joint, nx * ns, ns, ns, tol=tol.quadratic_solver)
    q0, q1 = q0.reshape(nx, ns), q1.reshape(nx, ns)
    if dist <= tol.not_separable_below:
        return NotSeparable(
            witness_distance=dist,
            distance_lower=lower,
            witness_q0=JammerKernel(w.x_alphabet, w.s_alphabet, q0),
            witness_q1=JammerKernel(w.x_alphabet, w.s_alphabet, q1),
        )
    if lower <= tol.separable_above:
        raise Indeterminate(
            f"set distance in [{lower:.3e}, {dist:.3e}] is not clear of the dead band "
            f"({tol.not_separable_below:.1e}, {tol.separable_above:.1e}]"
        )
    e0, e1 = _ensemble_blocks(w, wgt0, q0), _ensemble_blocks(w, wgt1, q1)
    direction = (e1 - e0) / dist
    b = float(np.einsum("vij,vji->", direction, e0 + e1).real / 2.0)
    # exact extremes of the linear functional over the kernel polytope
    max0 = float(_coefficients(w, wgt0, direction).max(axis=1).sum())
    min1 = float(_coefficients(w, wgt1, direction).min(axis=1).sum())
    margin = min(b - max0, min1 - b)
    if margin <= 0.0:
        raise Indeterminate(
            f"positive set distance {dist:.3e} but non-positive exact margin {margin:.3e}"
        )
    # the spectrum of the block-diagonal shifted operator is its blocks' spectra
    shifted = direction - b * np.eye(d)
    eigs = eigvalsh_stack(shifted)
    lam_top = float(eigs[:, -1].max())
    lam_floor = float(min(0.0, eigs[:, 0].min()))
    m1 = (shifted - lam_floor * np.eye(d)) / (lam_top - lam_floor)
    return SeparationCertificate(
        operator_blocks=direction, measurement=np.stack((np.eye(d) - m1, m1), axis=1),
        threshold_b=b, margin=float(margin), distance=dist, distance_lower=lower,
        lambda_top=lam_top, lambda_floor=lam_floor, block_dim=nv * d, output_dim=d,
    )


def _functional_tables(blocks, w, src, gp):
    """c_i[x, s] = tr(op sigma) on the generator (x, s) of encoder g_i, i = 0, 1,
    op the block-diagonal operator of the given diagonal blocks."""
    weights = _block_weights(src, _block_letters(src, gp.g0, gp.g1), gp.iota, w.x_alphabet)
    return [_coefficients(w, wgt, blocks) for wgt in weights]


def certificate_soundness_sweep(cert, w, src, gp, kernels=1000, seed=0):
    """Count random kernels violating the half-margin separation bands.

    kernels must be an integer >= 1 and seed >= 0, or InvalidArgument is raised.
    """
    kernels, seed = _integer(kernels, "kernels", 1), _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    qs = rng.dirichlet(np.ones(ns), size=(kernels, nx)).reshape(kernels, nx * ns)
    c0, c1 = (c.ravel() for c in _functional_tables(cert.operator_blocks, w, src, gp))
    t0, t1 = qs @ c0, qs @ c1
    half = cert.margin / 2.0
    violations = int(np.sum(t0 >= cert.threshold_b - half))
    violations += int(np.sum(t1 <= cert.threshold_b + half))
    return violations


@dataclass(frozen=True, eq=False)
class BinaryAvc:
    """Induced binary channel: the reachable intervals of its correct-decision probabilities."""

    correct_intervals: tuple     # ((lo, hi) of V(0|0), (lo, hi) of V(1|1)) over all kernels

    def __post_init__(self):
        iv = tuple(tuple(float(v) for v in pair) for pair in self.correct_intervals)
        if len(iv) != 2 or any(len(pair) != 2 or not pair[0] <= pair[1] for pair in iv):
            raise InvalidArgument(f"expected two (lo, hi) intervals with lo <= hi, got {iv}")
        object.__setattr__(self, "correct_intervals", iv)

    @property
    def min_correct(self):
        """(min over kernels of V(0|0), min over kernels of V(1|1))."""
        return self.correct_intervals[0][0], self.correct_intervals[1][0]


def induced_binary_avc(cert, w, src, gp):
    """Exact reachable intervals of V(i|i) = tr(sigma_{Q, g_i} M_i) over all kernels Q.

    V(1|i) = sum_{x,s} Q(s|x) c_i[x, s] is linear in the kernel, and the
    kernel polytope is a product of one simplex per input letter, so its
    extremes are sum_x min_s c_i[x, s] and sum_x max_s c_i[x, s]: the
    intervals are exact, with no grid.  V(0|0) = 1 - V(1|0).
    """
    c0, c1 = _functional_tables(cert.measurement[:, 1], w, src, gp)
    return BinaryAvc(correct_intervals=(
        (1.0 - c0.max(axis=1).sum(), 1.0 - c0.min(axis=1).sum()),
        (c1.min(axis=1).sum(), c1.max(axis=1).sum()),
    ))


def binary_avc_positivity(bavc):
    """Positivity condition and rate of the induced binary channel.

    Positive iff the worst-case correct-decision probabilities exceed 1 in
    sum by more than _POSITIVITY_MARGIN.  The rate is the max-min mutual
    information over the reachable rows; since the rows are affine in the
    kernel the reachable set per input is an interval, realized here as a
    two-state varying channel with diagonal (classical) outputs and solved
    by the same max-min machinery as the general case.
    """
    m00, m11 = bavc.min_correct
    positive = bool(m00 + m11 > 1.0 + _POSITIVITY_MARGIN)
    (lo0, hi0), (lo1, hi1) = bavc.correct_intervals

    def clip01(v):
        return float(min(max(v, 0.0), 1.0))

    states = np.zeros((2, 2, 2, 2), dtype=complex)
    states[0, 0] = np.diag([clip01(lo0), 1.0 - clip01(lo0)])
    states[0, 1] = np.diag([clip01(hi0), 1.0 - clip01(hi0)])
    states[1, 0] = np.diag([1.0 - clip01(lo1), clip01(lo1)])
    states[1, 1] = np.diag([1.0 - clip01(hi1), clip01(hi1)])
    reduced = Avcqc((0, 1), ("lo", "hi"), states)
    res = capacity_informed_jammer(reduced)
    return {"positive": positive, "rate_r": res.value}


@dataclass(frozen=True)
class CorrelationLengthProfile:
    """Growth profile of the correlation budget (l_n) against log n and n."""

    liminf_log_ratio: float      # liminf l_n / log n
    limsup_log_ratio: float      # limsup l_n / log n
    asymptotic_fraction: float   # lim l_n / n


def cr_rate_limited_lower_bound(w, src, profile):
    """Lower bound on the common-randomness rate under a correlation budget.

    Evaluates (1 - f) * maxmin + f * r'' where f is the asymptotic fraction
    of channel uses spent on correlation and r'' = 3 / r comes from the rate
    of the induced binary channel, whose correct-decision intervals are
    exact at every alphabet size.  When no separating pair exists (r = 0)
    the correlation part contributes nothing and the profile window check
    is moot.
    """
    f = profile.asymptotic_fraction
    if not (0.0 <= f <= 1.0):
        raise ProfileOutOfRange(f"asymptotic fraction {f} outside [0, 1]")
    c_star = capacity_informed_jammer(w).value
    gp = build_g_pair(src, w.x_alphabet)
    cert = separation_test(w, src, gp)
    rate = 0.0
    if not isinstance(cert, NotSeparable):
        pos = binary_avc_positivity(induced_binary_avc(cert, w, src, gp))
        if pos["positive"]:
            rate = pos["rate_r"]
    if rate <= 0.0:
        return (1.0 - f) * c_star
    r_pp = 3.0 / rate
    if not (r_pp < profile.liminf_log_ratio <= profile.limsup_log_ratio < np.inf):
        raise ProfileOutOfRange(
            f"need r'' = {r_pp:.6g} < liminf ratio {profile.liminf_log_ratio} "
            f"<= limsup ratio {profile.limsup_log_ratio} < inf"
        )
    return (1.0 - f) * c_star + f * r_pp
