"""Typical sets, typical-subspace projectors, and numerical bound checks.

The letter-frequency typical set follows the displayed alphabet-normalized
window (|freq - p| <= delta/|alphabet|); the subspace projectors use a
per-eigenlabel window of half-width alpha, which is the convention under
which the finite-block-length bound suite below is satisfiable at small n.
Both comparisons carry a 1e-12 guard so exact boundary fractions are not
dropped by float rounding.  The typical set and both projectors expand the
window's count classes into their label sequences, so caps.enumeration
bounds the number of typical sequences, never |alphabet|**n.

The bound verifier never materializes d**n operators: every quantity it
needs (masses, ranks, extremal eigenvalue products, cross-basis overlap
masses) reduces to aggregates over letter-count classes because all the
operators involved are diagonal in per-site eigenbases.  It covers a range
of block lengths in one array pass: one enumerator grows the classes of
every n together, their aggregates are array sums, and one dynamic program
runs the cross masses on a stack of count tables, in chunks within the cap.
"""

from dataclasses import dataclass
from math import factorial, inf, log2, prod
from numbers import Integral, Real

import numpy as np

from .channels import CqChannel, _input_distribution
from .config import DEFAULT_CAPS, DEFAULT_TOL
from .errors import AlphabetMismatch, DimOverflow, EnumerationOverflow, InvalidArgument
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


def _block_length(n):
    """n if it is an integer >= 1 (not a bool), else InvalidArgument."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise InvalidArgument(f"block length must be an integer >= 1, got {n!r}")
    return int(n)


def _check_window(v, name):
    """Raise InvalidArgument naming v unless it is a finite real number > 0."""
    if not (isinstance(v, Real) and 0.0 < v < inf):
        raise InvalidArgument(f"{name} must be finite and > 0, got {v!r}")


def stable_eigh(m):
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
        while stop < d and w[start] - w[stop] < _CLUSTER_GAP:
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


def _chunks(extents, cap):
    """Consecutive (start, stop) row runs of extents, each the longest whose stack,
    (stop - start) * prod(largest extents in the run), is within cap, or one row."""
    runs = [(0, 0)]
    while (start := runs[-1][1]) < len(extents):
        stack = np.maximum.accumulate(extents[start:]).prod(axis=1, dtype=float)
        stack *= np.arange(1, stack.size + 1)
        runs.append((start, start + max(1, int(np.searchsorted(stack, cap, "right")))))
    return runs[1:]


def _spread(values, bounds, fill):
    """Row g holds values[bounds[g]:bounds[g + 1]] in order, then at least one fill."""
    sizes = np.diff(bounds)
    rows = np.repeat(np.arange(sizes.size), sizes)
    out = np.full((sizes.size, sizes.max(initial=0) + 1), fill, dtype=np.asarray(values).dtype)
    out[rows, np.arange(len(values)) - bounds[rows]] = values
    return out


def _window_classes(p, ns, half_width, guard=DEFAULT_TOL.typicality_boundary,
                    caps=DEFAULT_CAPS):
    """Count vectors c (len(p) entries, sum n) with |c/n - p| <= half_width, for each n in ns.

    Labels with probability below the support floor are pinned to count 0.
    All block lengths grow together, label by label: a row carries its n,
    takes the counts of n's window widened by one and is dropped once its
    partial sum passes n.  Each n's candidates are checked against
    caps.enumeration before every label; an n over it stops there.  Block
    lengths go in batches whose stacked window boxes stay within the cap.
    Returns (counts, bounds, over): counts[bounds[i]:bounds[i + 1]] are the
    classes of ns[i] in lexicographic order, over[i] its overflow or None.
    """
    p, nv = np.asarray(p, dtype=float), np.asarray(ns, dtype=int)
    reach, centre = nv * (half_width + guard), np.multiply.outer(nv, p[:-1])
    lo = np.clip(np.ceil(centre - reach[:, None]) - 1, 0, nv[:, None]).astype(int)
    hi = np.clip(np.floor(centre + reach[:, None]) + 1, 0, nv[:, None]).astype(int)
    size = np.maximum(np.where(p[:-1] < _SUPPORT_FLOOR, 0, hi) - lo + 1, 0)
    over, found = [None] * nv.size, [(np.zeros((0, p.size), dtype=int), np.zeros(0, dtype=int))]
    for g0, g1 in _chunks(size, caps.enumeration):
        row, total = np.arange(g0, g1), np.zeros(g1 - g0, dtype=int)
        counts = np.zeros((g1 - g0, 0), dtype=int)
        for j in range(p.size - 1):
            cand = np.bincount(row - g0, minlength=g1 - g0) * size[g0:g1, j]
            for g in np.flatnonzero(cand > caps.enumeration):
                over[g0 + g] = f"{cand[g]} window candidates exceed cap {caps.enumeration}"
            reps = np.where(cand[row - g0] > caps.enumeration, 0, size[row, j])
            idx = np.repeat(np.arange(row.size), reps)
            col = lo[row[idx], j] + np.arange(idx.size) - np.repeat(np.cumsum(reps) - reps, reps)
            fits = total[idx] + col <= nv[row[idx]]
            idx, col = idx[fits], col[fits]
            row, total, counts = row[idx], total[idx] + col, np.column_stack([counts[idx], col])
        counts = np.column_stack([counts, nv[row] - total])
        bad = (np.abs(counts / nv[row, None] - p) > half_width + guard) | (
            (p < _SUPPORT_FLOOR) & (counts > 0))
        found.append((counts[~bad.any(axis=1)], row[~bad.any(axis=1)]))
    counts, row = (np.concatenate(parts) for parts in zip(*found))
    return counts, np.searchsorted(row, np.arange(nv.size + 1)), over


def _multinomials(counts):
    """n! / prod_j c_j! of each count row c (n its sum), as exact Python ints."""
    n = counts.sum(axis=1)
    fact = np.array([factorial(k) for k in range(n.max(initial=0) + 1)], dtype=object)
    return fact[n] // np.prod(fact[counts], axis=1)


def _class_aggregates(p, counts, bounds):
    """Per block length, (mass, rank, min log2 prob, max log2 prob) over its classes.

    A class's log2 probability adds its labels' terms in label order,
    skipping zero counts; the mass adds multinomial * 2**lp class by class,
    each power a scalar one (numpy's vectorized power can differ in the
    last bit); ranks are exact Python ints.
    """
    lp = np.zeros(len(counts))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, col in enumerate(counts.T):
            lp = np.where(col > 0, lp + col * np.log2(p[j]), lp)
    mult = _multinomials(counts)
    terms = mult.astype(float) * np.array([2.0 ** x for x in lp.tolist()])
    return list(zip(np.cumsum(_spread(terms, bounds, 0.0), axis=1)[:, -1].tolist(),
                    _spread(mult, bounds, 0).sum(axis=1).tolist(),
                    _spread(lp, bounds, inf).min(axis=1).tolist(),
                    _spread(lp, bounds, -inf).max(axis=1).tolist()))


def _label_sequences(p, n, half_width, guard, caps):
    """The length-n label sequences with counts in the window, (m, n) ints in lexicographic order.

    Their number, the sum of the classes' multinomials, is checked against
    caps.enumeration before any is built.  Each class is expanded position
    by position, every row branching on the labels it has left, and the
    rows are sorted once.
    """
    counts, bounds, over = _window_classes(p, [n], half_width, guard, caps)
    if over[0]:
        raise EnumerationOverflow(over[0])
    total = sum(_multinomials(counts).tolist())
    if total > caps.enumeration:
        raise EnumerationOverflow(f"{total} typical sequences exceed enumeration cap "
                                  f"{caps.enumeration}")
    left, seqs = counts, np.zeros((len(counts), 0), dtype=int)
    for _ in range(n):
        row, label = np.nonzero(left)
        left = left[row]
        left[np.arange(row.size), label] -= 1
        seqs = np.column_stack([seqs[row], label])
    return seqs[np.lexsort(seqs.T[::-1])] if n else seqs


def typical_set(p, n, delta, caps=DEFAULT_CAPS, tol=DEFAULT_TOL):
    """Enumerate sequences whose letter frequencies are delta/|alphabet| close to p.

    Sequences are tuples of indices into p's alphabet, in lexicographic
    order; more than caps.enumeration of them raise.  n must be an integer
    >= 1 and delta finite and > 0.
    """
    pv = validate_probability_vector(p, tol)
    n = _block_length(n)
    _check_window(delta, "delta")
    seqs = _label_sequences(pv, n, delta / pv.size, tol.typicality_boundary, caps)
    return [tuple(s) for s in seqs.tolist()]


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

    The window is +-alpha per eigenlabel frequency.  This is the conditional
    typical projector of the one-letter channel rho on the word of n copies
    of its letter; rho must be a density operator and n an integer >= 1.
    """
    return conditional_typical_projector(CqChannel((0,), [rho]), (0,) * _block_length(n),
                                         alpha, caps)


def conditional_typical_projector(w, xs, alpha, caps=DEFAULT_CAPS):
    """Projector onto the conditional typical subspace of W^(x n)(xs).

    Per input letter, the positions carrying that letter get the letter's
    output eigenbasis, and their label subsequences range over the typical
    set of the letter's output spectrum (window +-alpha).  Basis labels
    run over the letters' subsequences in C order, letters sorted by str.
    More than caps.enumeration typical subsequences of one letter, or
    basis labels in all, raise, as do an empty word, a letter outside the
    input alphabet and an alpha that is not finite and > 0.
    """
    xs = tuple(xs)
    n, d = _block_length(len(xs)), w.dim
    _check_window(alpha, "alpha")
    letters = sorted(dict.fromkeys(xs), key=str)
    if stray := [x for x in letters if x not in w.x_alphabet]:
        raise AlphabetMismatch(f"letters {stray} are not in the input alphabet {w.x_alphabet}")
    eig = {x: stable_eigh(w.state(x)) for x in letters}
    bases = np.array([eig[x][1] for x in xs], dtype=complex).reshape(n, d, d)
    positions = [[i for i, y in enumerate(xs) if y == x] for x in letters]
    blocks = [_label_sequences(np.clip(eig[x][0], 0.0, None), len(pos), alpha,
                               DEFAULT_TOL.typicality_boundary, caps)
              for x, pos in zip(letters, positions)]
    total_rank = prod(map(len, blocks))
    if total_rank > caps.enumeration:
        raise EnumerationOverflow(
            f"conditional typical rank {total_rank} exceeds cap {caps.enumeration}"
        )
    pick = np.indices([len(b) for b in blocks]).reshape(len(blocks), total_rank)
    labels = np.zeros((total_rank, n), dtype=int)
    for block, pos, rows in zip(blocks, positions, pick):
        labels[:, pos] = block[rows]
    return TypicalProjector(n=n, alpha=alpha, site_bases=bases,
                            basis_labels=tuple(map(tuple, labels.tolist())))


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


def _type_counts(p, ns):
    """Deterministic largest-remainder rounding of n*p to integer counts, a row per n in ns."""
    scaled = np.multiply.outer(np.asarray(ns, dtype=int), p)
    base = np.floor(scaled).astype(int)
    place = np.argsort(np.argsort(base - scaled, axis=1, kind="stable"), axis=1)
    return base + (place < (np.asarray(ns) - base.sum(axis=1))[:, None])


def _cross_mass(values, runs, classes, bounds, d, caps=DEFAULT_CAPS):
    """Per group g, the sum over its typical label sequences y of prod_i v_i[y_i].

    Group g's positions are runs[g, x] positions weighted values[x], x in
    order.  A DP over the positions fills a table of the label counts
    c_0..c_{d-2} (c_{d-1} is the position minus their sum), each axis cut at
    the largest count of g's classes, classes[bounds[g]:bounds[g + 1]]; a
    table over caps.enumeration cells gets an overflow and no mass.  Tables
    are stacked at a common shape (cells inside a smaller shape come out
    bit-identical) in chunks within the cap, and a run advances only tables
    with positions left in it.  Cells add their terms for j = d-1 down to 0;
    typical cells are summed in descending lexicographic order, as a dict
    DP keyed by count tuples meets its keys: the two agree bit for bit
    unless, at d >= 3, positions differ in which weights are exactly zero.
    Returns (masses, over).
    """
    sizes, keep = np.diff(bounds), classes[:, : d - 1]
    rows, shape = np.repeat(np.arange(sizes.size), sizes), np.ones((sizes.size, d - 1), dtype=int)
    np.maximum.at(shape, rows, keep + 1)
    cells = shape.prod(axis=1)
    over = [f"count table of {c} cells exceeds enumeration cap {caps.enumeration}"
            if s and c > caps.enumeration else None for s, c in zip(sizes, cells)]
    live, vals = np.flatnonzero((sizes > 0) & (cells <= caps.enumeration)), np.zeros(len(keep))
    for a, b in _chunks(shape[live], caps.enumeration):
        group = live[a:b]
        table = np.zeros((group.size,) + tuple(shape[group].max(axis=0)))
        table[(slice(None),) + (0,) * (d - 1)] = 1.0
        for x, v in enumerate(values):
            order = np.argsort(-runs[group, x], kind="stable")
            table, group = table[order], group[order]
            for step in range(1, runs[group, x].max() + 1):
                active = np.count_nonzero(runs[group, x] >= step)
                # the first run leaves all tables equal: advance one, copy it on
                t = table[: 1 if x == 0 else active]
                nxt = t * v[d - 1]
                for j in range(d - 2, -1, -1):
                    lead = (slice(None),) * (j + 1)
                    nxt[lead + (slice(1, None),)] += t[lead + (slice(None, -1),)] * v[j]
                t[...] = nxt
                if x == 0:
                    table[np.count_nonzero(runs[group, 0] > step):active] = table[0]
        slot = np.full(sizes.size, -1)
        slot[group] = np.arange(group.size)
        mine = slot[rows] >= 0
        vals[mine] = table[(slot[rows[mine]],) + tuple(keep[mine].T)]
    return np.cumsum(_spread(vals, bounds, 0.0)[:, ::-1], axis=1)[:, -1], over


def _mass_bound_rows(bound_id, ns, masses):
    gaps = [1.0 - mass for mass in masses]
    reqs = [inf if gap <= _MASS_GAP_FLOOR else -np.log2(gap) / n for n, gap in zip(ns, gaps)]
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
    realized empirical type, each letter's classes enumerated once per count.
    The first n over caps.enumeration raises with the first check it fails:
    source window, letter windows in order, count table.  n_range must be
    non-empty, of integers >= 1, and alpha finite and > 0.
    """
    pv = _input_distribution(p, w, tol)
    ns = [_block_length(n) for n in n_range]
    if not ns:
        raise InvalidArgument("n_range holds no block length")
    _check_window(alpha, "alpha")
    grid = sorted(set(ns))
    at = {n: g for g, n in enumerate(grid)}
    sig_lam, sig_u = stable_eigh(np.einsum("x,xij->ij", pv, w.states))
    sig_spec = np.clip(sig_lam, 0.0, None)
    s_sigma = float(entropy_from_eigenvalues(sig_spec))
    letter_spec = [np.clip(stable_eigh(w.state(x))[0], 0.0, None) for x in w.x_alphabet]
    letter_h = [entropy_from_eigenvalues(spec) for spec in letter_spec]
    # diagonal of each letter state in the averaged state's eigenbasis
    diag_in_sig_basis = np.array([
        np.real(np.einsum("ij,jk,ki->i", sig_u.conj().T, w.state(x), sig_u)) for x in w.x_alphabet])
    types = _type_counts(pv, grid)
    guard = tol.typicality_boundary
    typ, bounds, src_over = _window_classes(sig_spec, grid, alpha, guard, caps)
    src = _class_aggregates(sig_spec, typ, bounds)
    cond = []
    for spec, m_col in zip(letter_spec, types.T):
        ms = sorted(set(m_col.tolist()) - {0})
        classes, m_bounds, m_over = _window_classes(spec, ms, alpha, guard, caps)
        cond.append(dict(zip(ms, zip(_class_aggregates(spec, classes, m_bounds), m_over))))
    cross, cross_over = _cross_mass(diag_in_sig_basis, types, typ, bounds, w.dim, caps)

    series = {bound_id: [] for bound_id in BOUND_IDS}
    for n in ns:
        g = at[n]
        letters = [(xi, m) for xi, m in enumerate(types[g].tolist()) if m]
        checks = [src_over[g]] + [cond[xi][m][1] for xi, m in letters] + [cross_over[g]]
        if msg := next(filter(None, checks), None):
            raise EnumerationOverflow(msg)
        type_fracs = types[g] / n
        s_cond = float(sum(type_fracs[xi] * h for xi, h in enumerate(letter_h)))
        cmass, crank, clmin, clmax = 1.0, 1, 0.0, 0.0
        for xi, m in letters:
            bmass, brank, blmin, blmax = cond[xi][m][0]
            cmass, crank, clmin, clmax = cmass * bmass, crank * brank, clmin + blmin, clmax + blmax
        for kind, (mass, rank, lmin, lmax), h in (
            ("source", src[g], s_sigma), ("conditional", (cmass, crank, clmin, clmax), s_cond)
        ):
            series[f"{kind}_mass"].append(mass)
            # ranks are exact Python ints and pass 2**63 within reach of n
            series[f"{kind}_rank"].append(abs(log2(rank) / n - h) if rank else inf)
            series[f"{kind}_eigen_window"].append(max(-h - lmin / n, h + lmax / n))
        series["average_state_mass"].append(cross[g])

    rows, constants = [], {}
    for bound_id, reqs in series.items():
        fit = _mass_bound_rows if bound_id.endswith("_mass") else _exponent_bound_rows
        bound_rows, constants[bound_id] = fit(bound_id, ns, reqs)
        rows.extend(sorted(bound_rows, key=lambda r: r.n))
    return TypicalityReport(rows=tuple(rows), constants=constants)
