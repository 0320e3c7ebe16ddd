"""Typical sets, typical-subspace projectors, and numerical bound checks.

The letter-frequency typical set follows the displayed alphabet-normalized
window (|freq - p| <= delta/|alphabet|); the subspace projectors use a
per-eigenlabel window of half-width alpha, which is the convention under
which the finite-block-length bound suite below is satisfiable at small n.
Both comparisons carry a 1e-12 guard so exact boundary fractions are not
dropped by float rounding.

The bound verifier never materializes d**n operators: every quantity it
needs (masses, ranks, extremal eigenvalue products, cross-basis overlap
masses) reduces to aggregates over letter-count classes because all the
operators involved are diagonal in per-site eigenbases.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from math import comb, inf, log2, prod

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOL
from .errors import AlphabetMismatch, DimOverflow, EnumerationOverflow
from .operators import entropy_from_eigenvalues, validate_probability_vector

# Labels with less probability than this are pinned to count 0: they are
# rounding residue of clipped eigenvalues, not support.
_SUPPORT_FLOOR = 1e-15
# Eigenvalues closer than this share a cluster whose basis is rebuilt, so
# eigh's arbitrary basis of a degenerate eigenspace never leaks out.
_CLUSTER_GAP = 1e-9
# A projected standard-basis vector shorter than this lies (up to rounding)
# in the span of the vectors already kept, so it is skipped.
_BASIS_NORM_FLOOR = 1e-6
# A mass within this of 1 is 1 up to rounding: its exponent is unbounded.
_MASS_GAP_FLOOR = 1e-15
# A fitted exponent still passes a row it misses by this rounding margin.
_PASS_SLACK = 1e-12


def stable_eigh(m, cluster_gap=_CLUSTER_GAP):
    """Eigendecomposition with a reproducible convention.

    Eigenvalues descending; inside each near-degenerate cluster the basis
    is rebuilt by projecting the standard basis onto the cluster span and
    orthogonalizing in standard-basis order, then every vector's phase is
    fixed so its largest-magnitude entry is real positive.
    """
    a = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(a)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    d = a.shape[0]
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and w[start] - w[stop] < cluster_gap:
            stop += 1
        if stop - start > 1:
            span = v[:, start:stop]
            proj = span @ span.conj().T
            basis = []
            for k in range(d):
                cand = proj @ np.eye(d, dtype=complex)[:, k]
                for b in basis:
                    cand = cand - b * (b.conj() @ cand)
                nrm = np.linalg.norm(cand)
                if nrm > _BASIS_NORM_FLOOR:
                    basis.append(cand / nrm)
                if len(basis) == stop - start:
                    break
            v[:, start:stop] = np.stack(basis, axis=1)
        start = stop
    for k in range(d):
        i = int(np.argmax(np.abs(v[:, k])))
        ph = v[i, k] / abs(v[i, k])
        v[:, k] = v[:, k] / ph
    return w, v


def _window_count_classes(p, n, half_width, guard=DEFAULT_TOL.typicality_boundary,
                          caps=DEFAULT_CAPS):
    """Count vectors c (len(p) entries, sum n) with |c/n - p| <= half_width.

    Labels with probability below the support floor are pinned to count 0.
    Counts grow label by label inside the window widened by one, each step's
    candidates checked against caps.enumeration first.  Lexicographic order.
    """
    p = np.asarray(p, dtype=float)
    reach = n * (half_width + guard)
    lo = np.clip(np.ceil(n * p[:-1] - reach) - 1, 0, n).astype(int)
    hi = np.where(p[:-1] < _SUPPORT_FLOOR, 0, np.clip(np.floor(n * p[:-1] + reach) + 1, 0, n))
    counts = np.zeros((1, 0), dtype=int)
    for side in map(np.arange, lo, hi.astype(int) + 1):
        if (rows := len(counts) * side.size) > caps.enumeration:
            raise EnumerationOverflow(f"{rows} window candidates exceed cap {caps.enumeration}")
        counts = np.column_stack([np.repeat(counts, side.size, axis=0), np.tile(side, len(counts))])
        counts = counts[counts.sum(axis=1) <= n]
    counts = np.column_stack([counts, n - counts.sum(axis=1)])
    bad = (np.abs(counts / n - p) > half_width + guard) | ((p < _SUPPORT_FLOOR) & (counts > 0))
    return [tuple(c) for c in counts[~bad.any(axis=1)].tolist()]


def _multinomial(n, counts):
    total, rem = 1, n
    for c in counts:
        total *= comb(rem, c)
        rem -= c
    return total


def _class_aggregates(p, n, classes):
    """(mass, rank, min log2 prob, max log2 prob) over the typical count classes."""
    if not classes:
        return 0.0, 0, inf, -inf
    logs = []
    mass = 0.0
    rank = 0
    for c in classes:
        lp = sum(ci * np.log2(p[j]) for j, ci in enumerate(c) if ci > 0)
        m = _multinomial(n, c)
        rank += m
        mass += m * 2.0 ** lp
        logs.append(lp)
    return float(mass), rank, float(min(logs)), float(max(logs))


def typical_set(p, n, delta, caps=DEFAULT_CAPS, tol=DEFAULT_TOL):
    """Enumerate sequences whose letter frequencies are delta/|alphabet| close to p.

    Sequences are tuples of indices into p's alphabet.
    """
    pv = validate_probability_vector(p, tol)
    k = pv.size
    if k ** n > caps.enumeration:
        raise EnumerationOverflow(
            f"|alphabet|^n = {k ** n} exceeds enumeration cap {caps.enumeration}"
        )
    width = delta / k
    out = []
    for seq in iproduct(range(k), repeat=n):
        counts = [0] * k
        for c in seq:
            counts[c] += 1
        if all(
            abs(counts[j] / n - pv[j]) <= width + tol.typicality_boundary
            and not (pv[j] < _SUPPORT_FLOOR and counts[j] > 0)
            for j in range(k)
        ):
            out.append(seq)
    return out


def _sequences_of_classes(classes, n):
    """Expand count classes into the explicit label sequences."""
    classes = set(classes)
    out = []
    k = len(next(iter(classes))) if classes else 0
    for seq in iproduct(range(k), repeat=n):
        counts = [0] * k
        for c in seq:
            counts[c] += 1
        if tuple(counts) in classes:
            out.append(seq)
    return out


@dataclass(frozen=True, eq=False)
class TypicalProjector:
    """Projector onto per-site eigenbasis sequences with typical labels."""

    n: int
    alpha: float
    site_bases: np.ndarray       # (n, d, d); columns are site basis vectors
    basis_labels: tuple          # label sequence per basis vector of the range

    @property
    def dim(self):
        return self.site_bases.shape[-1]

    @property
    def rank(self):
        return len(self.basis_labels)

    def matrix(self, caps=DEFAULT_CAPS):
        """Materialize the projector; guarded by the matrix-dimension cap."""
        total = self.dim ** self.n
        if total > caps.projector_matrix_dim:
            raise DimOverflow(
                f"projector dimension {total} exceeds cap {caps.projector_matrix_dim}"
            )
        if not self.basis_labels:
            return np.zeros((total, total), dtype=complex)
        cols = []
        for labels in self.basis_labels:
            vec = np.ones(1, dtype=complex)
            for i, j in enumerate(labels):
                vec = np.kron(vec, self.site_bases[i][:, j])
            cols.append(vec)
        b = np.stack(cols, axis=1)
        return b @ b.conj().T


def typical_projector(rho, n, alpha, caps=DEFAULT_CAPS):
    """Projector onto the alpha-typical subspace of rho^(x n).

    The window is +-alpha per eigenlabel frequency.
    """
    lam, u = stable_eigh(np.asarray(rho, dtype=complex))
    d = lam.size
    if d ** n > caps.enumeration:
        raise EnumerationOverflow(
            f"d^n = {d ** n} exceeds enumeration cap {caps.enumeration}"
        )
    spectrum = np.clip(lam, 0.0, None)
    classes = set(_window_count_classes(spectrum, n, alpha, caps=caps))
    labels = tuple(_sequences_of_classes(classes, n))
    bases = np.broadcast_to(u, (n, d, d)).copy()
    return TypicalProjector(n=n, alpha=alpha, site_bases=bases, basis_labels=labels)


def conditional_typical_projector(w, xs, alpha, caps=DEFAULT_CAPS):
    """Projector onto the conditional typical subspace of W^(x n)(xs).

    Per input letter, the positions carrying that letter get the letter's
    output eigenbasis, and their label subsequences range over the typical
    set of the letter's output spectrum (window +-alpha).
    """
    xs = tuple(xs)
    n = len(xs)
    d = w.dim
    if d ** n > caps.enumeration:
        raise EnumerationOverflow(
            f"d^n = {d ** n} exceeds enumeration cap {caps.enumeration}"
        )
    eig = {}
    for x in set(xs):
        lam, u = stable_eigh(w.state(x))
        eig[x] = (np.clip(lam, 0.0, None), u)
    bases = np.zeros((n, d, d), dtype=complex)
    for i, x in enumerate(xs):
        bases[i] = eig[x][1]
    block_positions = {}
    for i, x in enumerate(xs):
        block_positions.setdefault(x, []).append(i)
    per_block_labels = {}
    total_rank = 1
    for x, pos in block_positions.items():
        classes = set(_window_count_classes(eig[x][0], len(pos), alpha, caps=caps))
        seqs = _sequences_of_classes(classes, len(pos))
        per_block_labels[x] = seqs
        total_rank *= len(seqs)
    if total_rank > caps.enumeration:
        raise EnumerationOverflow(
            f"conditional typical rank {total_rank} exceeds cap {caps.enumeration}"
        )
    labels = []
    block_keys = sorted(block_positions.keys(), key=str)
    for combo in iproduct(*(per_block_labels[x] for x in block_keys)):
        full = [0] * n
        for x, sub in zip(block_keys, combo):
            for slot, j in zip(block_positions[x], sub):
                full[slot] = j
        labels.append(tuple(full))
    return TypicalProjector(n=n, alpha=alpha, site_bases=bases, basis_labels=tuple(labels))


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------

BOUND_IDS = (
    "source_mass",
    "source_rank",
    "source_eigen_window",
    "conditional_mass",
    "conditional_eigen_window",
    "conditional_rank",
    "average_state_mass",
)


@dataclass(frozen=True)
class BoundRow:
    bound_id: str
    n: int
    lhs: float     # tightest exponent admissible at this n
    rhs: float     # fitted exponent shared across the tested range
    slack: float   # how much the fitted constant over-satisfies this n
    passed: bool


@dataclass(frozen=True, eq=False)
class TypicalityReport:
    rows: tuple
    constants: dict

    @property
    def all_pass(self):
        return all(r.passed for r in self.rows)

    @property
    def constants_positive(self):
        return all(v > 0.0 for v in self.constants.values())

    def to_csv_rows(self):
        head = ("bound_id", "n", "lhs", "rhs", "slack", "fitted_constant")
        body = [
            (r.bound_id, r.n, repr(r.lhs), repr(r.rhs), repr(r.slack),
             repr(self.constants[r.bound_id]))
            for r in self.rows
        ]
        return [head] + body


def _type_counts(p, n):
    """Deterministic largest-remainder rounding of n*p to integer counts."""
    base = np.floor(n * p).astype(int)
    rem = n - base.sum()
    frac = n * p - base
    order = np.argsort(-frac, kind="stable")
    for i in range(rem):
        base[order[i]] += 1
    return base


def _cross_mass(site_values, typical_classes, d, caps=DEFAULT_CAPS):
    """sum over typical label sequences y of prod_i site_values[i][y_i].

    Dynamic program over positions on a dense table of the label counts
    c_0..c_{d-2} (c_{d-1} is the position minus their sum), each axis cut
    at the largest count a typical class uses; site_values[i][j] is the
    weight of label j at position i.  Cells add their terms for j = d-1
    down to 0 and the typical cells are summed in descending lexicographic
    order, the order in which a dict DP keyed by count tuples meets its
    keys; the two agree bit for bit unless, at d >= 3, positions differ in
    which of their weights are exactly zero.
    """
    classes = sorted(typical_classes, reverse=True)
    if not classes:
        return 0
    keep = np.array(classes)[:, : d - 1]
    shape = tuple(keep.max(axis=0) + 1)
    cells = prod(shape)
    if cells > caps.enumeration:
        raise EnumerationOverflow(
            f"count table of {cells} cells exceeds enumeration cap {caps.enumeration}"
        )
    table = np.zeros(shape)
    table[(0,) * (d - 1)] = 1.0
    for vals in site_values:
        nxt = table * vals[d - 1]
        for j in range(d - 2, -1, -1):
            lead = (slice(None),) * j
            nxt[lead + (slice(1, None),)] += table[lead + (slice(None, -1),)] * vals[j]
        table = nxt
    return sum(table[tuple(c)] for c in keep.tolist())


def _mass_bound_rows(bound_id, ns, masses):
    reqs = []
    for n, mass in zip(ns, masses):
        gap = 1.0 - mass
        if gap <= _MASS_GAP_FLOOR:
            reqs.append(inf)
        else:
            reqs.append(-np.log2(gap) / n)
    fitted = min(reqs)
    rows = []
    for n, req in zip(ns, reqs):
        slack = 0.0 if req == fitted else float(req - fitted)
        rows.append(BoundRow(bound_id, n, float(req), float(fitted), slack, slack >= -_PASS_SLACK))
    return rows, float(fitted)


def _exponent_bound_rows(bound_id, ns, reqs):
    fitted = max(reqs)
    rows = [
        BoundRow(bound_id, n, float(req), float(fitted), float(fitted - req),
                 fitted - req >= -_PASS_SLACK)
        for n, req in zip(ns, reqs)
    ]
    return rows, float(fitted)


def verify_typicality_bounds(w, p, n_range, alpha, caps=DEFAULT_CAPS, tol=DEFAULT_TOL):
    """Evaluate the seven typical-subspace bounds over a range of block lengths.

    For each bound the smallest admissible exponent is fitted across the
    tested range; a row passes when the fitted constant still satisfies
    that block length.  Input words are built by largest-remainder rounding
    of the requested input distribution, and the conditional bounds use the
    realized empirical type.
    """
    pv = validate_probability_vector(p, tol)
    if pv.size != len(w.x_alphabet):
        raise AlphabetMismatch(
            f"distribution over {pv.size} letters, channel has {len(w.x_alphabet)}"
        )
    ns = list(n_range)
    sigma = np.einsum("x,xij->ij", pv, w.states)
    sig_lam, sig_u = stable_eigh(sigma)
    sig_spec = np.clip(sig_lam, 0.0, None)
    s_sigma = float(entropy_from_eigenvalues(sig_spec))
    letter_spec = {}
    for x in w.x_alphabet:
        lam, _ = stable_eigh(w.state(x))
        letter_spec[x] = np.clip(lam, 0.0, None)
    # diagonal of each letter state in the averaged state's eigenbasis
    diag_in_sig_basis = {
        x: np.real(np.einsum("ij,jk,ki->i", sig_u.conj().T, w.state(x), sig_u))
        for x in w.x_alphabet
    }

    src_mass, src_rank_req, src_win_req = [], [], []
    cond_mass, cond_win_req, cond_rank_req = [], [], []
    cross_mass_vals = []
    d = w.dim
    for n in ns:
        typ_classes = _window_count_classes(sig_spec, n, alpha, caps=caps)
        mass, rank, lmin, lmax = _class_aggregates(sig_spec, n, typ_classes)
        src_mass.append(mass)
        # ranks are exact Python ints and pass 2**63 within reach of n
        src_rank_req.append(abs(log2(rank) / n - s_sigma) if rank else inf)
        src_win_req.append(max(-s_sigma - lmin / n, s_sigma + lmax / n))

        counts = _type_counts(pv, n)
        xs = []
        for xi, x in enumerate(w.x_alphabet):
            xs.extend([x] * counts[xi])
        type_fracs = counts / n
        s_cond = float(
            sum(
                type_fracs[xi] * entropy_from_eigenvalues(letter_spec[x])
                for xi, x in enumerate(w.x_alphabet)
            )
        )
        cmass, crank, clmin, clmax = 1.0, 1, 0.0, 0.0
        for xi, x in enumerate(w.x_alphabet):
            m = int(counts[xi])
            if m == 0:
                continue
            bmass, brank, blmin, blmax = _class_aggregates(
                letter_spec[x], m, _window_count_classes(letter_spec[x], m, alpha, caps=caps)
            )
            cmass *= bmass
            crank *= brank
            clmin += blmin
            clmax += blmax
        cond_mass.append(cmass)
        cond_rank_req.append(abs(log2(crank) / n - s_cond) if crank else inf)
        cond_win_req.append(max(-s_cond - clmin / n, s_cond + clmax / n))

        site_values = [diag_in_sig_basis[x] for x in xs]
        cross_mass_vals.append(_cross_mass(site_values, set(typ_classes), d, caps))

    rows, constants = [], {}
    for bound_id, data in (
        ("source_mass", src_mass),
        ("conditional_mass", cond_mass),
        ("average_state_mass", cross_mass_vals),
    ):
        r, c = _mass_bound_rows(bound_id, ns, data)
        rows.extend(r)
        constants[bound_id] = c
    for bound_id, reqs in (
        ("source_rank", src_rank_req),
        ("source_eigen_window", src_win_req),
        ("conditional_rank", cond_rank_req),
        ("conditional_eigen_window", cond_win_req),
    ):
        r, c = _exponent_bound_rows(bound_id, ns, reqs)
        rows.extend(r)
        constants[bound_id] = c
    order = {b: i for i, b in enumerate(BOUND_IDS)}
    rows.sort(key=lambda r: (order[r.bound_id], r.n))
    return TypicalityReport(rows=tuple(rows), constants=constants)
