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
from itertools import chain, islice, repeat
from math import factorial, inf, log2, prod
from typing import NamedTuple

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
    caps.enumeration before every label; a row over it stops there.  Once the
    last enumerated label's are counted, rows whose counts miss the window stop
    and it takes only totals leaving the final label in its widened window.  Rows
    go in batches whose stacked window boxes stay within the cap.  Returns
    (counts, bounds, over): row i's classes, in lexicographic order, are
    counts[bounds[i]:bounds[i + 1]], over[i] its overflow or None.
    """
    nv = np.asarray(ns, dtype=int)
    p = np.broadcast_to(np.asarray(p, dtype=float), (nv.size, np.shape(p)[-1]))
    reach, centre = nv * (half_width + guard), nv[:, None] * p
    lo = np.clip(np.ceil(centre - reach[:, None]) - 1, 0, nv[:, None]).astype(int)
    hi = np.clip(np.floor(centre + reach[:, None]) + 1, 0, nv[:, None]).astype(int)
    size = np.maximum(np.where(p[:, :-1] < _SUPPORT_FLOOR, 0, hi[:, :-1]) - lo[:, :-1] + 1, 0)
    # totals leaving the final label in its widened window, wider by n >> 49 for rounding
    least, most = nv - hi[:, -1] - (nv >> 49), np.minimum(nv, nv - lo[:, -1] + (nv >> 49))
    over, found = [None] * nv.size, [(np.zeros((0, p.shape[1]), dtype=int), np.zeros(0, dtype=int))]

    def miss(cols, labels, row):  # the columns' counts off their labels' windows, rows in order
        per = np.bincount(row - g0, minlength=g1 - g0)
        gap = np.array(cols) / np.repeat(nv[g0:g1], per) - np.repeat(p[g0:g1, labels].T, per, 1)
        return (np.abs(gap) > half_width + guard).any(axis=0)
    for g0, g1 in _chunks(size, caps.enumeration):
        row, total, cols = np.arange(g0, g1), np.zeros(g1 - g0, dtype=int), []
        for j in range(p.shape[1] - 1):
            cand = np.bincount(row - g0, minlength=g1 - g0) * size[g0:g1, j]
            for g in np.flatnonzero(cand > caps.enumeration):
                over[g0 + g] = f"{cand[g]} window candidates exceed cap {caps.enumeration}"
            reps = np.where(cand[row - g0] > caps.enumeration, 0, size[row, j])
            if (last := j == p.shape[1] - 2) and j:  # counted: rows missing so far stop here
                reps[miss(cols, slice(j), row)] = 0
            idx = np.repeat(np.arange(row.size), reps)
            r = row[idx]
            col = lo[r, j] + np.arange(idx.size) - np.repeat(np.cumsum(reps) - reps, reps)
            tot = total[idx] + col
            fits = (tot <= most[r]) & (tot >= least[r]) if last else tot <= nv[r]
            idx = idx[fits]
            row, total, cols = r[fits], tot[fits], [c[idx] for c in cols] + [col[fits]]
        cols, tail = cols + [nv[row] - total], slice(max(p.shape[1] - 2, 0), None)
        good = ~(miss(cols[tail], tail, row) | (p[row, -1] < _SUPPORT_FLOOR) & (cols[-1] > 0))
        found.append((np.array(cols)[:, good].T, row[good]))
    counts, row = (np.concatenate(parts) for parts in zip(*found))
    return counts, np.searchsorted(row, np.arange(nv.size + 1)), over


def _multinomials(counts, bounds):
    """Per class, float(n! / prod_j c_j!), n its count sum; per row of bounds, their exact sum.

    Below 2**64 a multinomial is exact in uint64 arithmetic mod 2**64: n!'s odd part times
    the inverses of the c_j!'s, shifted by the power of two left.  Classes a float log2
    estimate puts past 2**61 take Python ints; rows sum the rest in two 31-bit halves.
    """
    n = counts.sum(axis=1)
    k = np.maximum(np.arange(n.max(initial=0) + 1), 1)  # entry k is about k!, 0! = 1!
    odd = inv = np.multiply.accumulate((k // (k & -k)).astype(np.uint64))  # k!'s odd part
    for _ in range(5):  # each Newton step doubles the inverse's correct low bits: 3 to 96
        inv = inv * (2 - odd * inv)
    twos = np.cumsum(np.log2(k & -k).astype(int))  # k!'s power of 2, k & -k that of k
    logs = np.cumsum(np.log2(k))  # log2 k!
    mult = (odd[n] * np.multiply.reduce(inv[counts], axis=1)
            << (twos[n] - twos[counts].sum(axis=1)).astype(np.uint64)).view(np.int64)
    big = np.flatnonzero(logs[n] - logs[counts].sum(axis=1) > 61)
    mf, mult[big] = mult.astype(float), 0
    hi, lo = np.diff(np.concatenate([np.zeros((2, 1), dtype=np.int64), np.cumsum(
        [mult >> 31, mult & (1 << 31) - 1], axis=1)], axis=1)[:, bounds])
    ranks = (hi.astype(object) << 31) + lo.astype(object)
    if big.size:
        fact = np.array([factorial(j) for j in range(n[big].max() + 1)], dtype=object)
        exact = fact[n[big]] // np.prod(fact[counts[big]], axis=1)
        mf[big] = exact.astype(float)
        np.add.at(ranks, np.searchsorted(bounds, big, "right") - 1, exact)
    return mf, ranks


def _class_aggregates(p, counts, bounds):
    """Per row, arrays (mass, rank, min log2 prob, max log2 prob) over its classes.

    Row i has spectrum p[i] and classes counts[bounds[i]:bounds[i + 1]].  A
    class's log2 probability adds its labels' nonzero-count terms in order;
    the mass adds multinomial * 2**lp class by class, each power Python's
    float power (numpy's can differ in the last bit); ranks are exact.
    """
    mult, rank = _multinomials(counts, bounds)
    logs = np.repeat(np.log2(np.where(p > 0.0, p, 1.0)), np.diff(bounds), axis=0)  # p = 0: c = 0
    lp = np.cumsum(np.where(counts > 0, counts * logs, 0.0), axis=1)[:, -1]
    terms = mult * np.power(2.0, lp.astype(object)).astype(float)
    spread = _spread(lp, bounds, inf)
    return (np.cumsum(_spread(terms, bounds, 0.0), axis=1)[:, -1], rank,
            spread.min(axis=1), np.where(spread < inf, spread, -inf).max(axis=1))


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
    total = _multinomials(counts, bounds)[1][0]
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


class BoundRow(NamedTuple):
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
    order; its classes are classes[bounds[g]:bounds[g + 1]], and a table of
    their counts c_0..c_{d-2} over caps.enumeration cells gets an overflow and
    no mass.  A DP over the positions fills a table of c_1..c_{d-1} (c_0, a
    descending spectrum's largest label, is the position minus their sum),
    each axis cut at the classes' largest count.  Groups agreeing on runs
    0..x-1 share a table, stepped through letter x to their longest run and
    copied at each run.  A chunk's tables are the rows of one stack, longest
    run first, flat with a zero guard plane below each axis that is re-zeroed
    after each step; a lone table may pass the cap by its guards, <= 2**(d-1).
    A cell adds its terms for j = d-1 down to 0, whatever the layout, and
    typical cells are summed in descending lexicographic order, as a dict DP
    keyed by count tuples meets its keys: the two agree bit for bit unless, at
    d >= 3, positions differ in which weights are exactly zero.  Returns
    (masses, over).
    """
    sizes, top = np.diff(bounds), np.zeros((len(bounds) - 1, d), dtype=int)
    rows, full, keep = np.repeat(np.arange(sizes.size), sizes), sizes > 0, classes[: bounds[-1]]
    top[full] = np.maximum.reduceat(keep, bounds[:-1][full])
    cells = (top[:, :-1] + 1).prod(axis=1)
    over = [f"count table of {c} cells exceeds enumeration cap {caps.enumeration}"
            if s and c > caps.enumeration else None for s, c in zip(full.tolist(), cells.tolist())]
    live, vals = np.flatnonzero(full & (cells <= caps.enumeration)), np.zeros(len(keep))
    for a, b in _chunks(top[live, 1:] + 2, caps.enumeration):
        group = live[a:b][np.lexsort(runs[live[a:b]].T[::-1])]  # letter x's tables: segments
        ext, srt = (top[group, 1:].max(axis=0) + 2).tolist(), runs[group]
        strides = [prod(ext[j + 1:]) for j in range(d - 1)]
        head = np.logical_or.accumulate(np.concatenate([srt[:1] >= 0, srt[1:] != srt[:-1]]), axis=1)
        # each table's first group and its row in the stack
        first, place, stack = [0], np.zeros(1, dtype=int), np.eye(1, prod(ext), sum(strides))
        for x, v in enumerate(values.tolist()):
            (s_top, v_top), *terms = list(zip([0] + strides, v))[::-1]
            p_first = np.flatnonzero(head[:, x])
            run, p_place = srt[p_first, x], (-np.maximum.reduceat(
                srt[:, min(x + 1, len(values) - 1)], p_first)).argsort(kind="stable").argsort()
            by = run.argsort(kind="stable")
            copies = list(zip(run[by].tolist(), p_place[by].tolist(),
                              place[np.searchsorted(first, p_first[by], "right") - 1].tolist()))
            longest = sorted(np.maximum.reduceat(srt[:, x], first).tolist(), reverse=True)
            nxt, k, c = np.empty((run.size, prod(ext))), len(stack), 0
            other, scratch = np.empty_like(stack), np.empty(stack.size)
            for step in range(longest[0] + 1):
                if step:
                    while longest[k - 1] < step:
                        k -= 1
                    t, out = stack[:k].reshape(-1), other[:k].reshape(-1)
                    np.multiply(t[: t.size - s_top], v_top, out=out[s_top:])
                    for s, w in terms:
                        o = out[s:]
                        np.add(o, np.multiply(t[: t.size - s], w, out=scratch[: o.size]), out=o)
                    for e, s in zip(ext, strides):
                        out.reshape(-1, e, s)[:, 0] = 0.0
                    stack, other = other, stack
                while c < len(copies) and copies[c][0] == step:
                    nxt[copies[c][1]], c = stack[copies[c][2]], c + 1
            first, place, stack = p_first, p_place, nxt
        pos = np.full(sizes.size, -1)
        pos[group] = place[np.cumsum(head[:, -1]) - 1] * stack.shape[1]
        mine = pos[rows] >= 0
        vals[mine] = stack.ravel()[pos[rows[mine]] + (keep[mine, 1:] + 1) @ np.array(strides, int)]
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
    spec = np.clip(np.vstack([sig_lam, eigh_stack(w.states)[0][:, ::-1]]), 0.0, None)
    diag = np.real(np.einsum("ij,xjk,ki->xi", sig_u.conj().T, w.states, sig_u))
    grid, h = np.array(sorted(set(ns))), entropy_from_eigenvalues(spec)
    # each n's input word: n*p rounded to counts by largest remainders, letters in order
    at, scaled = np.searchsorted(grid, ns), np.multiply.outer(grid, pv)
    types = np.floor(scaled).astype(int)
    types += np.argsort(np.argsort(types - scaled, axis=1, kind="stable"), axis=1) < (
        grid - types.sum(axis=1))[:, None]
    # one enumerator pass: the source at each n, then each letter at each of its counts
    ms = [np.array(sorted(set(m.tolist()) - {0}), dtype=int) for m in types.T]
    first = np.cumsum([0, grid.size] + [m.size for m in ms])
    spectra, on = spec[np.repeat(np.arange(first.size - 1), np.diff(first))], types > 0
    counts, bounds, over = _window_classes(spectra, np.concatenate([grid] + ms), alpha,
                                           tol.typicality_boundary, caps)
    mass, rank, lmin, lmax = _class_aggregates(spectra, counts, bounds)
    cross, cross_over = _cross_mass(diag, types, counts, bounds[: grid.size + 1], w.dim, caps)
    cond = np.where(on, np.column_stack([f + np.searchsorted(m, col) for f, m, col in
                                         zip(first[1:], ms, types.T)]), 0)
    for g in at.tolist() if any(over) or any(cross_over) else ():
        checks = [over[r] for r in [g, *cond[g, on[g]]]] + [cross_over[g]]
        if msg := next(filter(None, checks), None):
            raise EnumerationOverflow(msg)
    # rows source, conditional: letters' masses multiply and log2 ranges add, letter by letter
    src, fill = slice(grid.size), np.array([1.0, 0.0, 0.0])[:, None, None]
    per = np.where(on, np.array([mass, lmin, lmax])[:, cond], fill)
    (c_min, c_max), nv = np.cumsum(per[1:], axis=2)[:, :, -1], np.asarray(ns)
    ent = np.array([np.full(grid.size, h[0]), np.cumsum(types / grid[:, None] * h[1:], 1)[:, -1]])
    b = np.array([[lmin[src], c_min], [lmax[src], c_max]]) / grid
    low, high = -ent - b[0], ent + b[1]
    # ranks are exact Python ints and pass 2**63 within reach of n
    ranks = rank[src].tolist() + np.prod(np.where(on, rank[cond], 1), axis=1).tolist()
    lr = np.array([log2(r) if r else inf for r in ranks]).reshape(2, -1)
    window, rank_req = np.where(high > low, high, low), np.abs(lr / grid - ent)
    reqs = np.array([mass[src], rank_req[0], window[0], np.cumprod(per[0], axis=1)[:, -1],
                     window[1], rank_req[1], cross])[:, at]  # BOUND_IDS order, columns as ns
    # a mass bound (rows 0, 3, 6) needs -log2(1 - mass) / n and fits the least, the rest the largest
    with np.errstate(divide="ignore", invalid="ignore"):
        reqs[::3] = np.where((gap := 1.0 - reqs[::3]) <= _MASS_GAP_FLOOR, inf, -np.log2(gap) / nv)
        fits = [max(r) if i % 3 else min(r) for i, r in enumerate(reqs.tolist())]
        slack = (fit := np.array(fits)[:, None]) - reqs
        slack[::3] = np.where(reqs[::3] == fit[::3], 0.0, reqs[::3] - fit[::3])
    order = np.argsort(ns, kind="stable")
    reqs, slack = reqs[:, order], slack[:, order]
    # bound by bound, n ascending; tuple.__new__ builds each row without a Python frame
    rows = zip(chain.from_iterable(map(repeat, BOUND_IDS, repeat(len(ns)))),
               nv[order].tolist() * len(BOUND_IDS), reqs.ravel().tolist(),
               chain.from_iterable(map(repeat, fits, repeat(len(ns)))), slack.ravel().tolist(),
               (slack >= -_PASS_SLACK).ravel().tolist())
    return TypicalityReport(rows=tuple(map(tuple.__new__, repeat(BoundRow), rows)),
                            constants=dict(zip(BOUND_IDS, fits)))
