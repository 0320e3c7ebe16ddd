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
operators involved are diagonal in per-site eigenbases.  One array pass
covers a range of block lengths: one enumerator grows the classes of the
source and every letter at every n, and one dynamic program runs the cross
masses on flat count tables that block lengths share while their words agree.
"""

from dataclasses import dataclass
from itertools import islice, repeat
from math import factorial, inf, log2, prod

import numpy as np

from .channels import CqChannel, _check_product_dim, _input_distribution
from .config import DEFAULT_CAPS, DEFAULT_TOL
from .errors import AlphabetMismatch, EnumerationOverflow, InvalidArgument
from .operators import _integer, _positive, eigh_stack, entropy_from_eigenvalues
from .operators import validate_probability_vector

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


def stable_eigh(m):
    """Eigendecomposition with a reproducible convention.

    Eigenvalues descending; inside each near-degenerate cluster the basis
    is rebuilt by projecting the standard basis onto the cluster span and
    orthogonalizing in standard-basis order, then every vector's phase is
    fixed so its largest-magnitude entry is real positive.
    """
    w, v = (a[..., ::-1].copy() for a in eigh_stack(m))
    d = w.size
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
    """Count vectors c (sum n) with |c/n - p| <= half_width, for each row (p, n) of (p, ns).

    p is one spectrum for every n or one per n; labels below the support
    floor are pinned to count 0.  All rows grow together, label by label: a
    row takes the counts of its window widened by one and is dropped once its
    partial sum passes n.  Each row's candidates are checked against
    caps.enumeration before every label; a row over it stops there.  Rows go
    in batches whose stacked window boxes stay within the cap.  Returns
    (counts, bounds, over): row i's classes, in lexicographic order, are
    counts[bounds[i]:bounds[i + 1]], over[i] its overflow or None.
    """
    nv = np.asarray(ns, dtype=int)
    p = np.broadcast_to(np.asarray(p, dtype=float), (nv.size, np.shape(p)[-1]))
    reach, centre = nv * (half_width + guard), nv[:, None] * p[:, :-1]
    lo = np.clip(np.ceil(centre - reach[:, None]) - 1, 0, nv[:, None]).astype(int)
    hi = np.clip(np.floor(centre + reach[:, None]) + 1, 0, nv[:, None]).astype(int)
    size = np.maximum(np.where(p[:, :-1] < _SUPPORT_FLOOR, 0, hi) - lo + 1, 0)
    over, found = [None] * nv.size, [(np.zeros((0, p.shape[1]), dtype=int), np.zeros(0, dtype=int))]
    for g0, g1 in _chunks(size, caps.enumeration):
        row, total = np.arange(g0, g1), np.zeros(g1 - g0, dtype=int)
        counts = np.zeros((g1 - g0, 0), dtype=int)
        for j in range(p.shape[1] - 1):
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
        bad = (np.abs(counts / nv[row, None] - p[row]) > half_width + guard) | (
            (p[row] < _SUPPORT_FLOOR) & (counts > 0))
        found.append((counts[~bad.any(axis=1)], row[~bad.any(axis=1)]))
    counts, row = (np.concatenate(parts) for parts in zip(*found))
    return counts, np.searchsorted(row, np.arange(nv.size + 1)), over


def _multinomials(counts):
    """n! / prod_j c_j! of each count row c (n its sum), as exact Python ints."""
    n = counts.sum(axis=1)
    fact = np.array([factorial(k) for k in range(n.max(initial=0) + 1)], dtype=object)
    return fact[n] // np.prod(fact[counts], axis=1)


def _class_aggregates(p, counts, bounds):
    """Per row, arrays (mass, rank, min log2 prob, max log2 prob) over its classes.

    Row i has spectrum p[i] and classes counts[bounds[i]:bounds[i + 1]].  A
    class's log2 probability adds its labels' nonzero-count terms in order;
    the mass adds multinomial * 2**lp class by class, each power a scalar one
    (numpy's vectorized power can differ in the last bit); ranks are exact.
    """
    lp, mult = np.zeros(len(counts)), _multinomials(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(p)[np.repeat(np.arange(len(p)), np.diff(bounds))]
        for j, col in enumerate(counts.T):
            lp = np.where(col > 0, lp + col * logs[:, j], lp)
    terms = mult.astype(float) * np.array([2.0 ** x for x in lp.tolist()])
    mults, cuts = mult.tolist(), bounds.tolist()
    return (np.cumsum(_spread(terms, bounds, 0.0), axis=1)[:, -1],
            np.array([sum(mults[a:b]) for a, b in zip(cuts, cuts[1:])], dtype=object),
            _spread(lp, bounds, inf).min(axis=1), _spread(lp, bounds, -inf).max(axis=1))


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


def _block_length(n):
    """int(n) if n is an integer in [1, 2^63), the int64 counts, else InvalidArgument."""
    if _integer(n, "block length", 1) >= 1 << 63:
        raise InvalidArgument(f"block length {n} exceeds 2^63 - 1, the largest int64 count")
    return int(n)


def typical_set(p, n, delta, caps=DEFAULT_CAPS, tol=DEFAULT_TOL):
    """Enumerate sequences whose letter frequencies are delta/|alphabet| close to p.

    Sequences are tuples of indices into p's alphabet, in lexicographic
    order; more than caps.enumeration of them raise.  n must be an integer
    in [1, 2^63) and delta finite and > 0.
    """
    pv = validate_probability_vector(p, tol)
    n = _block_length(n)
    _positive(delta, "delta")
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
        """Materialize the projector; caps.product_dim bounds its side d^n."""
        _check_product_dim(self.dim, self.n, caps)
        total = self.dim ** self.n
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
    of its letter; rho must be a density operator and n an integer in [1, 2^63).
    """
    word = (0,) * _block_length(n)
    return conditional_typical_projector(CqChannel((0,), [rho]), word, alpha, caps)


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
    n, d = _integer(len(xs), "block length", 1), w.dim
    _positive(alpha, "alpha")
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


def _cross_mass(values, runs, classes, bounds, d, caps=DEFAULT_CAPS):
    """Per group g, the sum over its typical label sequences y of prod_i v_i[y_i].

    Group g's positions are runs[g, x] positions weighted values[x], x in
    order.  A DP over the positions fills a table of the label counts
    c_0..c_{d-2} (c_{d-1} is the position minus their sum), each axis cut at
    the largest count of g's classes, classes[bounds[g]:bounds[g + 1]]; a
    table over caps.enumeration cells gets an overflow and no mass.  Groups
    agreeing on runs 0..x-1 share a table, stepped through letter x to their
    longest run and copied at each of their runs.  A chunk's tables are the
    rows of one stack, longest run first, each flat at the chunk's extents
    with a zero guard plane below every count axis: the shift by e_j is one
    slice at offset strides[j], and the guards wrapped shifts write are
    re-zeroed after each step.  Chunks are formed on guarded extents, so a
    lone table may pass the cap by its guards, a factor prod_j (e_j + 1) / e_j
    <= 2**(d-1).  Cells add their terms for j = d-1 down to 0 (a guard's
    0.0 * v_j leaves a nonnegative cell as it is); typical cells are summed in
    descending lexicographic order, as a dict DP keyed by count tuples meets
    its keys: the two agree bit for bit unless, at d >= 3, positions differ
    in which weights are exactly zero.  Returns (masses, over).
    """
    sizes, keep = np.diff(bounds), classes[: bounds[-1], : d - 1]
    rows, shape = np.repeat(np.arange(sizes.size), sizes), np.ones((sizes.size, d - 1), dtype=int)
    shape[sizes > 0] = np.maximum.reduceat(keep, bounds[:-1][sizes > 0]) + 1 if keep.size else 1
    cells = shape.prod(axis=1)
    over = [f"count table of {c} cells exceeds enumeration cap {caps.enumeration}"
            if s and c > caps.enumeration else None for s, c in zip(sizes, cells)]
    live, vals = np.flatnonzero((sizes > 0) & (cells <= caps.enumeration)), np.zeros(len(keep))
    for a, b in _chunks(shape[live] + 1, caps.enumeration):
        group = live[a:b][np.lexsort(runs[live[a:b]].T[::-1])]  # letter x's tables: segments
        ext, srt = (shape[group].max(axis=0) + 1).tolist(), runs[group]
        strides = [prod(ext[j + 1:]) for j in range(d - 1)]
        head = np.logical_or.accumulate(np.insert(srt[1:] != srt[:-1], 0, True, axis=0), axis=1)
        # each table's first group and its row in the stack
        first, place, stack = [0], np.zeros(1, dtype=int), np.eye(1, prod(ext), sum(strides))
        for x, v in enumerate(values.tolist()):
            p_first = np.flatnonzero(head[:, x])
            run, p_place = srt[p_first, x], np.argsort(np.argsort(-np.maximum.reduceat(
                srt[:, min(x + 1, len(values) - 1)], p_first), kind="stable"))
            by = np.argsort(run, kind="stable")
            copies = list(zip(run[by].tolist(), p_place[by].tolist(),
                              place[np.searchsorted(first, p_first[by], "right") - 1].tolist()))
            longest = sorted(np.maximum.reduceat(srt[:, x], first).tolist(), reverse=True)
            nxt, other, k, c = np.empty((run.size, prod(ext))), np.empty_like(stack), len(stack), 0
            for step in range(longest[0] + 1):
                if step:
                    while longest[k - 1] < step:
                        k -= 1
                    t, out = stack[:k].reshape(-1), other[:k].reshape(-1)
                    np.multiply(t, v[d - 1], out=out)
                    for j in range(d - 2, -1, -1):
                        out[strides[j]:] += t[: -strides[j]] * v[j]
                    for j in range(d - 1):
                        out.reshape(-1, ext[j], strides[j])[:, 0] = 0.0
                    stack, other = other, stack
                while c < len(copies) and copies[c][0] == step:
                    nxt[copies[c][1]], c = stack[copies[c][2]], c + 1
            first, place, stack = p_first, p_place, nxt
        pos = np.full(sizes.size, -1)
        pos[group] = place[np.cumsum(head[:, -1]) - 1] * stack.shape[1]
        mine = pos[rows] >= 0
        vals[mine] = stack.ravel()[pos[rows[mine]] + (keep[mine] + 1) @ np.asarray(strides, int)]
    return np.cumsum(_spread(vals, bounds, 0.0)[:, ::-1], axis=1)[:, -1], over


def verify_typicality_bounds(w, p, n_range, alpha, caps=DEFAULT_CAPS, tol=DEFAULT_TOL):
    """Evaluate the seven typical-subspace bounds over a range of block lengths.

    For each bound the smallest admissible exponent is fitted across the
    tested range; a row passes when the fitted constant still satisfies
    that block length.  Input words are built by largest-remainder rounding
    of the requested input distribution, and the conditional bounds use the
    realized empirical type, each letter's classes enumerated once per count.
    The first n over caps.enumeration raises with the first check it fails:
    source window, letter windows in order, count table.  n_range must be
    non-empty, of integers in [1, 2^63), and alpha finite and > 0; it is
    read no further than caps.enumeration + 1 block lengths, and a range
    holding more raises EnumerationOverflow before any is checked.
    """
    pv = _input_distribution(p, w, tol)
    ns = list(islice(n_range, caps.enumeration + 1))
    if len(ns) > caps.enumeration:
        raise EnumerationOverflow(
            f"n_range holds more than {caps.enumeration} block lengths, the enumeration cap")
    ns = [_block_length(n) for n in ns]
    if not ns:
        raise InvalidArgument("n_range holds no block length")
    _positive(alpha, "alpha")
    sig_lam, sig_u = stable_eigh(np.einsum("x,xij->ij", pv, w.states))
    # spectra: the averaged state's, then each letter's; diag: the letters in its eigenbasis
    spec = np.clip([sig_lam] + [stable_eigh(w.state(x))[0] for x in w.x_alphabet], 0.0, None)
    diag = np.array([np.real(np.einsum("ij,jk,ki->i", sig_u.conj().T, w.state(x), sig_u))
                     for x in w.x_alphabet])
    grid, h = np.array(sorted(set(ns))), entropy_from_eigenvalues(spec)
    # each n's input word: n*p rounded to counts by largest remainders, letters in order
    at, scaled = np.searchsorted(grid, ns), np.multiply.outer(grid, pv)
    types = np.floor(scaled).astype(int)
    types += np.argsort(np.argsort(types - scaled, axis=1, kind="stable"), axis=1) < (
        grid - types.sum(axis=1))[:, None]
    # one enumerator pass: the source at each n, then each letter at each of its counts
    ms = [np.array(sorted(set(m.tolist()) - {0}), dtype=int) for m in types.T]
    first = np.cumsum([0, grid.size] + [m.size for m in ms])
    which, on = np.repeat(np.arange(first.size - 1), np.diff(first)), types > 0
    counts, bounds, over = _window_classes(spec[which], np.concatenate([grid] + ms), alpha,
                                           tol.typicality_boundary, caps)
    mass, rank, lmin, lmax = _class_aggregates(spec[which], counts, bounds)
    cross, cross_over = _cross_mass(diag, types, counts, bounds[: grid.size + 1], w.dim, caps)
    cond = np.where(on, np.column_stack([f + np.searchsorted(m, col) for f, m, col in
                                         zip(first[1:], ms, types.T)]), 0)
    for g in at.tolist() if any(over) or any(cross_over) else ():
        checks = [over[r] for r in [g, *cond[g, on[g]]]] + [cross_over[g]]
        if msg := next(filter(None, checks), None):
            raise EnumerationOverflow(msg)
    cmass = np.cumprod(np.where(on, mass[cond], 1.0), axis=1)[:, -1]  # letter by letter
    clmin, clmax = (np.cumsum(np.where(on, a[cond], 0.0), axis=1)[:, -1] for a in (lmin, lmax))
    series, src = {"average_state_mass": cross}, slice(grid.size)
    for kind, ent, b_mass, b_rank, b_min, b_max in (
            ("source", h[0], mass[src], rank[src], lmin[src], lmax[src]),
            ("conditional", np.cumsum(types / grid[:, None] * h[1:], axis=1)[:, -1],
             cmass, np.prod(np.where(on, rank[cond], 1), axis=1), clmin, clmax)):
        # ranks are exact Python ints and pass 2**63 within reach of n
        lr, low, high = (np.array([log2(r) if r else inf for r in b_rank.tolist()]),
                         -ent - b_min / grid, ent + b_max / grid)
        series.update({f"{kind}_mass": b_mass, f"{kind}_rank": np.abs(lr / grid - ent),
                       f"{kind}_eigen_window": np.where(high > low, high, low)})
    # a mass bound needs -log2(1 - mass) / n and fits the least, an exponent bound the largest
    rows, constants, order, nv = [], {}, np.argsort(ns, kind="stable"), np.asarray(ns)
    for bound_id in BOUND_IDS:
        reqs, mass_bound = series[bound_id][at], bound_id.endswith("_mass")
        with np.errstate(divide="ignore", invalid="ignore"):
            if mass_bound:
                reqs = np.where(1.0 - reqs <= _MASS_GAP_FLOOR, inf, -np.log2(1.0 - reqs) / nv)
            fit = constants[bound_id] = min(reqs.tolist()) if mass_bound else max(reqs.tolist())
            slack = (np.where(reqs == fit, 0.0, reqs - fit) if mass_bound else fit - reqs)[order]
        rows += map(BoundRow, repeat(bound_id), nv[order].tolist(), reqs[order].tolist(),
                    repeat(fit), slack.tolist(), (slack >= -_PASS_SLACK).tolist())
    return TypicalityReport(rows=tuple(rows), constants=constants)
