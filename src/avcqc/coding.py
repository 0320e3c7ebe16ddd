"""Code structures and exact worst-case informed-jammer evaluation.

The informed jammer picks a state word as a function of the transmitted
codeword.  Because that function is only ever evaluated on the codebook
image, the worst case decomposes exactly: group the message weights by
distinct codeword value, minimize the grouped success trace over state
words per codeword, and sum.  All evaluators here are exact enumerations
under the configured caps, not bounds.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product as iproduct, zip_longest

import numpy as np

from .channels import JammerStrategy, _product_joint, product_output
from .config import DEFAULT_CAPS, DEFAULT_TOL, charge
from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    InvalidArgument,
    KeySetMismatch,
    LengthMismatch,
    NotHermitian,
    NotPositive,
)
from .operators import (
    _adjoint_deviation,
    _integer,
    _positive,
    eigvalsh_stack,
    entropy_from_eigenvalues,
    read_only,
)
from .separation import _block_letters, _block_weights

# Float slack of the POVM and error-chain checks: sums of D x D operators and
# of exact errors carry rounding well above machine epsilon.
_CHECK_SLACK = 1e-9
# complex entries (512 KiB) of one stacked step, the matrices of a batched
# Cholesky call of the POVM check or the tables of a chunk of codewords in
# _success_tables: a whole stack's copy would add its size to the peak memory
_STACK_ENTRIES = 1 << 15
# success values of one codeword this close count as a tie for the jammer's
# pick: mathematically equal values differ by rounding, and by a different
# rounding in the site-form and the dense evaluator
_TIE_SLACK = 1e-12


def _validate_povm(ops, unit="word"):
    """Check a stack (..., J, D, D) of J-outcome POVMs; return it as a complex array.

    Every error names the offending POVM as `unit` i, counted from 0.
    A non-finite entry raises InvalidArgument.  With
    tol = _CHECK_SLACK, a stack is accepted once every operator is Hermitian
    within tol (max |A - A†| entry) and every A + tol I and
    (1 + tol) I - sum_j A_j has a Cholesky factor, in batches of at most
    _STACK_ENTRIES entries (one matrix at the least).  Only when a batch
    fails do the full checks run, to name the first offender: a
    non-Hermitian operator raises NotHermitian, then the two batched spectra
    name the first POVM in order, positivity before the sum.  Once the stack
    is Hermitian within tol, either triangle determines it, so the
    factorizations and the spectra decide alike except within rounding of
    the threshold, where the spectra have the last word.
    """
    ops = np.asarray(ops, dtype=complex)
    flat = ops.reshape(-1, *ops.shape[-3:])
    finite = np.isfinite(flat).all(axis=(-2, -1))
    if not finite.all():
        i, k = np.unravel_index(int(np.argmin(finite)), finite.shape)
        raise InvalidArgument(
            f"decoding operator {k} of {unit} {i} has a non-finite entry"
        )
    if _has_cholesky_factors(flat, _CHECK_SLACK):
        return ops
    dev = _adjoint_deviation(flat)
    if (dev > _CHECK_SLACK).any():
        i, k = np.unravel_index(int(np.argmax(dev > _CHECK_SLACK)), dev.shape)
        raise NotHermitian(
            f"decoding operator {k} of {unit} {i} has max |A - A†| entry "
            f"{dev[i, k]:.3e} > {_CHECK_SLACK:.1e}"
        )
    lo = eigvalsh_stack(flat)[..., 0]
    excess = eigvalsh_stack(flat.sum(axis=1) - np.eye(ops.shape[-1]))[..., -1]
    neg = lo < -_CHECK_SLACK
    bad = neg.any(axis=1) | (excess > _CHECK_SLACK)
    if bad.any():
        i = int(np.argmax(bad))
        if neg[i].any():
            k = int(np.argmax(neg[i]))
            raise NotPositive(
                f"decoding operator {k} has eigenvalue {lo[i, k]:.3e} < -{_CHECK_SLACK:.1e} "
                f"in {unit} {i}"
            )
        raise NotPositive(
            f"decoder sum exceeds the identity by {excess[i]:.3e} > {_CHECK_SLACK:.1e} "
            f"in {unit} {i}"
        )
    return ops


def _has_cholesky_factors(flat, tol):
    """Whether every A is Hermitian within tol and A + tol I and
    (1 + tol) I - sum_j A_j are positive definite for every POVM of the
    stack (N, J, D, D)."""
    eye = np.eye(flat.shape[-1])
    singles = flat.reshape(-1, *flat.shape[-2:])
    step = max(1, _STACK_ENTRIES // len(eye) ** 2)
    try:
        for i in range(0, len(singles), step):
            if _adjoint_deviation(singles[i : i + step]).max() > tol:
                return False
            np.linalg.cholesky(singles[i : i + step] + tol * eye)
        for i in range(0, len(flat), step):
            np.linalg.cholesky((1.0 + tol) * eye - flat[i : i + step].sum(axis=1))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class DeterministicCode:
    """Encoder table plus decoding POVM; the completion to the identity is
    the implicit failure outcome."""

    n: int
    codebook: tuple              # message j -> input word (tuple of letters)
    decoders: np.ndarray         # (J, D, D)

    def __post_init__(self):
        codebook = tuple(tuple(xs) for xs in self.codebook)
        if any(len(xs) != self.n for xs in codebook):
            raise LengthMismatch(f"codeword lengths differ from n = {self.n}")
        dec = read_only(_validate_povm(self.decoders))
        if dec.shape[0] != len(codebook):
            raise DimensionMismatch(
                f"{dec.shape[0]} decoding operators for {len(codebook)} messages"
            )
        object.__setattr__(self, "codebook", codebook)
        object.__setattr__(self, "decoders", dec)

    @property
    def num_messages(self):
        return len(self.codebook)


@dataclass(frozen=True, eq=False)
class RandomCode:
    """Uniform key over a family of deterministic codes with one message set."""

    codes: tuple   # one DeterministicCode per key

    def __post_init__(self):
        codes = tuple(self.codes)
        if not codes:
            raise KeySetMismatch("random code needs at least one key")
        n0, shape = codes[0].n, codes[0].decoders.shape
        if any(c.n != n0 or c.decoders.shape != shape for c in codes):
            raise KeySetMismatch("per-key codes must share message set, length and decoder side")
        object.__setattr__(self, "codes", codes)

    @property
    def num_keys(self):
        return len(self.codes)

    @property
    def num_messages(self):
        return self.codes[0].num_messages

    @property
    def n(self):
        return self.codes[0].n


@dataclass(frozen=True, eq=False)
class CorrelationCode:
    """Encoders indexed by sender words, decoding POVMs indexed by receiver words."""

    l: int                       # correlation block length
    n: int                       # channel block length
    v_prime_words: tuple         # sender words, fixed order
    v_words: tuple               # receiver words, fixed order
    encoders: tuple              # (|V'|^l rows) x (J messages) of input words
    decoders: np.ndarray         # (|V|^l, J, D, D)

    def __post_init__(self):
        enc = tuple(tuple(tuple(xs) for xs in row) for row in self.encoders)
        if any(len(xs) != self.n for row in enc for xs in row):
            raise LengthMismatch("encoder words must have length n")
        messages = sorted({len(row) for row in enc})
        if len(enc) != len(self.v_prime_words) or len(messages) != 1 or messages[0] < 1:
            raise DimensionMismatch(
                f"encoders have {len(enc)} rows of {messages} messages for "
                f"{len(self.v_prime_words)} sender words: need one row per sender word, "
                f"all of the same J >= 1 messages"
            )
        dec = read_only(_validate_povm(self.decoders))
        if dec.ndim != 4 or dec.shape[1] != messages[0]:
            raise DimensionMismatch(
                f"decoders of shape {dec.shape[:-2]} do not hold one {messages[0]}-outcome "
                f"POVM per receiver word"
            )
        object.__setattr__(self, "encoders", enc)
        object.__setattr__(self, "decoders", dec)
        object.__setattr__(self, "v_prime_words", tuple(tuple(u) for u in self.v_prime_words))
        object.__setattr__(self, "v_words", tuple(tuple(v) for v in self.v_words))

    @property
    def num_messages(self):
        return len(self.encoders[0])

    def _key_tables(self, w, src, caps):
        """(words, ids, keys, tables), a row per distinct (codeword, message)
        pair in encoder order: row r sends message keys[r] by words[ids[r]],
        and tables[r, k] is its success table against message k's decoders,
        each weighted by the source mass its receiver word has jointly with
        the sender words sending the pair; one _success_tables pass."""
        charge(caps, "product_dim", w.dim ** self.n, "product dimension")
        joint_l = _product_joint(src, self.l)
        weights = {}
        for ui, row in enumerate(self.encoders):
            for j, xs in enumerate(row):
                weights[xs, j] = weights.get((xs, j), 0.0) + joint_l[ui]
        word_ids = {}
        ids = [word_ids.setdefault(xs, len(word_ids)) for xs, _ in weights]
        ops = [np.tensordot(wv, self.decoders, axes=1) for wv in weights.values()]
        tables = _success_tables(w, _letter_indices(w, word_ids)[ids], ops)
        return list(word_ids), ids, [j for _, j in weights], tables


# ---------------------------------------------------------------------------
# exact error evaluation
# ---------------------------------------------------------------------------

def _success_tables(w, xi, ops, si=None):
    """(N, ..., |S|^n) tables tr((W(x_1, s_1) (x) ... (x) W(x_n, s_n)) G) of
    the codewords of letter indices xi (N, n), state words s in
    lexicographic order, G over the stack ops[i] (..., D, D), D = d^n or
    DimensionMismatch; with state indices si (N, n), (N, ...) at si[i] only.

    No product state is built: site by site, the table (T, d*rest,
    d*rest) is copied to (T, d^2, rest^2), the site's legs as one axis, and
    a matmul by W(x_t, .)^T as (|S|, d^2), or W(x_t, s_t)^T, gives the next
    (T*|S|, rest, rest).  Rows go in chunks whose tables, M max(d^{2n},
    |S|^n) entries a row of M operators, fit _STACK_ENTRIES (one row at the
    least): each ops[i] is copied from where it lies into the chunk's first
    stack, and each site is one matmul over the chunk, every row's product
    the one a contraction of that codeword alone makes.
    """
    d, (n_rows, n) = w.dim, np.shape(xi)
    side, batch = d ** n, np.shape(ops[0])[:-2]
    for op in ops:
        if np.shape(op)[-2:] != (side, side):
            raise DimensionMismatch(f"decoder side {np.shape(op)[-1]} != d^n = {side}")
    sites = w.states.swapaxes(-1, -2).reshape(len(w.x_alphabet), len(w.s_alphabet), d * d)
    n_s, m = len(w.s_alphabet) if si is None else 1, np.size(ops[0]) // side ** 2
    step = max(1, _STACK_ENTRIES // (m * max(d ** (2 * n), n_s ** n)))
    out = np.empty((n_rows, *batch, n_s ** n))
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        site = sites[xi[rows]] if si is None else sites[xi[rows], si[rows]][:, :, None]
        c, rest = len(site), side // d
        legs = np.empty((c, m, d, d, rest, rest), dtype=complex)
        for i, op in enumerate(ops[rows]):
            legs[i] = np.reshape(op, (m, d, rest, d, rest)).transpose(0, 1, 3, 2, 4)
        t = site[:, None, 0] @ legs.reshape(c, m, d * d, rest * rest)
        for k in range(1, n):
            rest //= d
            legs = t.reshape(c, -1, d, rest, d, rest).transpose(0, 1, 2, 4, 3, 5)
            t = site[:, None, k] @ legs.reshape(c, -1, d * d, rest * rest)
        out[rows] = t.real.reshape(c, *batch, -1)
    return out if si is None else out[..., 0]


def _jammer_picks(words, ids, table, w, n, return_strategy):
    """The error, and with return_strategy its JammerStrategy, from success
    tables (R, |S|^n), state words in lexicographic order: row r is of
    codeword words[ids[r]], or of words[r] when ids is None.

    A codeword's rows are added up in row order, in one pass over the ids;
    the error is one minus the codewords' minima summed in order, clipped
    to [0, 1].  Only with return_strategy are the state words listed: for
    each codeword the jammer picks the first one whose success is within
    _TIE_SLACK of the minimum, so that exact ties do not go to whichever
    word rounding favours.
    """
    vals = table
    if ids is not None:
        vals = np.zeros((len(words), table.shape[1]))
        np.add.at(vals, ids, table)
    low = vals.min(axis=1)
    err = float(min(max(1.0 - sum(low.tolist()), 0.0), 1.0))
    if not return_strategy:
        return err
    s_words = list(iproduct(w.s_alphabet, repeat=n))
    picks = np.argmax(vals <= low[:, None] + _TIE_SLACK, axis=1).tolist()
    return err, JammerStrategy({xs: s_words[i] for xs, i in zip(words, picks)})


def _letter_indices(w, codewords):
    """(N, n) input letter indices of N codewords of length n; the first
    letter outside the channel's inputs raises AlphabetMismatch naming it."""
    index = {x: i for i, x in enumerate(w.x_alphabet)}
    for xs in codewords:
        for x in xs:
            if x not in index:
                raise AlphabetMismatch(
                    f"letter {x!r} of codeword {xs} is not in the channel's input "
                    f"alphabet {w.x_alphabet}"
                )
    return np.array([[index[x] for x in xs] for xs in codewords], dtype=np.intp)


def _informed_error(w, n, entries, weight, caps, return_strategy):
    """Exact informed-jammer error, and with return_strategy its
    JammerStrategy, from (codeword, operator) pairs.

    Operators of equal codewords are summed in order into one G_x, the only
    grouping, and one stacked _success_tables pass gives every G_x's table,
    times the common weight (1/J, or 1/(J K) for a random code).  A letter
    outside the channel's inputs raises AlphabetMismatch naming it and its
    codeword.  The pass takes about n * max(|S| d^{2n}, |S|^n d^2)
    operations a codeword, in chunks of _STACK_ENTRIES = 2^15 table
    entries, so its largest intermediate has max(2^15, d^{2n}, |S|^n)
    entries.  caps.product_dim bounds d^n, the side of G_x.
    """
    grouped = {}
    for xs, g in entries:
        grouped[xs] = grouped[xs] + g if xs in grouped else g
    xi = _letter_indices(w, grouped)
    charge(caps, "jammer_states", len(w.s_alphabet) ** n, "state word count")
    charge(caps, "product_dim", w.dim ** n, "product dimension")
    table = _success_tables(w, xi, list(grouped.values())) * weight
    return _jammer_picks(list(grouped), None, table, w, n, return_strategy)


def worst_case_error_informed(code, w, caps=DEFAULT_CAPS, return_strategy=False):
    """Exact worst-case average error against a codeword-informed jammer.

    The maximum over jamming functions equals the sum over distinct
    codewords of the per-codeword worst case (messages sharing a codeword
    are tied together and handled as one group).  The JammerStrategy is
    built only with return_strategy, which returns (error, strategy).
    """
    entries = zip(code.codebook, code.decoders)
    return _informed_error(w, code.n, entries, 1 / code.num_messages, caps, return_strategy)


def worst_case_error_brute_force(code, w, caps=DEFAULT_CAPS):
    """Reference oracle: enumerate jamming functions on the codebook image."""
    n_s = len(w.s_alphabet) ** code.n
    charge(caps, "jammer_states", n_s, "state word count")
    distinct = sorted(set(code.codebook))
    charge(caps, "jammer_states", n_s ** len(distinct), "jamming function count")
    s_words = list(iproduct(w.s_alphabet, repeat=code.n))
    j_n = code.num_messages
    dsum = {xs: sum(g for c, g in zip(code.codebook, code.decoders) if c == xs) for xs in distinct}
    succ = {(xs, ss): float(np.real(np.trace(product_output(w, xs, ss, caps) @ dsum[xs])))
            for xs in distinct for ss in s_words}
    worst = 0.0
    for assignment in iproduct(s_words, repeat=len(distinct)):
        tot = sum(succ[(xs, ss)] for xs, ss in zip(distinct, assignment))
        worst = max(worst, 1.0 - tot / j_n)
    return worst


def random_code_error_informed(code, w, caps=DEFAULT_CAPS, return_strategy=False):
    """Exact informed-jammer error of a key-randomized code.

    The jammer sees the transmitted word but not the key: for each distinct
    codeword value it attacks the key-conditional expected decoder.  The
    JammerStrategy is built only with return_strategy, which returns
    (error, strategy).
    """
    entries = chain.from_iterable(zip(det.codebook, det.decoders) for det in code.codes)
    weight = 1 / (code.num_messages * code.num_keys)
    return _informed_error(w, code.n, entries, weight, caps, return_strategy)


def _check_code_alphabets(code, w, src):
    """Raise AlphabetMismatch, naming the first offending word or letter,
    unless a correlation code fits the source and channel.

    A CorrelationCode's sender and receiver words must be the source's
    l-words in lexicographic order, the product source's, and every encoder
    letter a channel input letter; after these, decoders that do not hold
    one row per receiver word raise DimensionMismatch.  A RepetitionPrecode
    is read through its blocks, and its encoders come from its block
    letters: only those letters are checked.
    """
    inputs = set(w.x_alphabet)
    if isinstance(code, RepetitionPrecode):
        for b, pair in enumerate(code.block_letters):
            for x in pair:
                if x not in inputs:
                    raise AlphabetMismatch(
                        f"letter {x!r} of sender block {b} is not in the channel's input "
                        f"alphabet {w.x_alphabet}"
                    )
        return
    for side, words, alphabet in (
        ("sender", code.v_prime_words, src.v_prime_alphabet),
        ("receiver", code.v_words, src.v_alphabet),
    ):
        for i, (word, expected) in enumerate(
            zip_longest(words, iproduct(alphabet, repeat=code.l))
        ):
            if word != expected:
                raise AlphabetMismatch(
                    f"{side} word {i} of the code is {'missing' if word is None else word}, "
                    f"the source's is {'missing' if expected is None else expected}"
                )
    for u, row in enumerate(code.encoders):
        for j, xs in enumerate(row):
            for x in xs:
                if x not in inputs:
                    raise AlphabetMismatch(
                        f"encoder letter {x!r} of sender word {u}, message {j} is not in "
                        f"the channel's input alphabet {w.x_alphabet}"
                    )
    if len(code.decoders) != len(code.v_words):
        raise DimensionMismatch(
            f"{len(code.decoders)} decoder rows for {len(code.v_words)} receiver words"
        )


def correlation_code_error_informed(code, w, src, caps=DEFAULT_CAPS, return_strategy=False):
    """Exact informed-jammer error of a correlation-assisted code.

    The jamming function is applied outside the source average: the jammer
    observes the channel input word (which may reveal an equivalence class
    of sender words) but neither source realization directly.  The
    success of a codeword is the sum, over the messages j it carries, of
    row j of its (codeword, j) success table (see _key_tables), divided by
    J.  The word count |V'|^l * |V|^l is taken from the source's alphabet
    sizes, and a RepetitionPrecode builds neither its word tables, its
    encoders nor its dense decoders.  A code that does not fit the source
    and channel raises AlphabetMismatch (see _check_code_alphabets).  The
    JammerStrategy is built only with return_strategy, which returns
    (error, strategy).
    """
    n_words = (len(src.v_prime_alphabet) * len(src.v_alphabet)) ** code.l
    charge(caps, "enumeration", n_words, "source word pair count")
    _check_code_alphabets(code, w, src)
    charge(caps, "jammer_states", len(w.s_alphabet) ** code.n, "state word count")
    words, ids, keys, tables = code._key_tables(w, src, caps)
    success = tables[np.arange(len(keys)), keys] / code.num_messages
    return _jammer_picks(words, ids, success, w, code.n, return_strategy)


# ---------------------------------------------------------------------------
# two-part codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoPartCode:
    """Key-establishing pre-code concatenated with a keyed message code.

    The first part depends only on the shared correlation (it carries the
    key), the second only on (message, key).  No whole-word decoder is
    built: parts that pass their own POVM checks within _CHECK_SLACK = 1e-9
    form a POVM within (1 + 1e-9)^2 - 1, about 2e-9, since
    sum_j sum_k P_k (x) Q_kj = sum_k P_k (x) (sum_j Q_kj) <= I.
    """

    pre: CorrelationCode         # or RepetitionPrecode; its messages are the keys
    inner: RandomCode
    pre_error: float
    inner_error: float
    assembled_error: float
    jammer: JammerStrategy

    @property
    def num_messages(self):
        return self.inner.num_messages


def two_part_error_informed(pre, inner, w, src, caps=DEFAULT_CAPS):
    """Exact informed-jammer error of a two-part code, from its two parts.

    The key is the sender's private uniform randomness; the jammer sees the
    full transmitted word (both parts).  Pre word x under key k followed by
    key k's inner word j has the success table sum_k' a_k'(s_pre) b_k'(s_inner)
    / JK: a the pre part's (x, k) table (see _key_tables), whose row k' is
    the mass decoding to key k', and b the inner words' tables against all
    K keys' decoders of j, from one _success_tables pass whose largest
    intermediate a word is K times one decoder's.  caps.product_dim bounds
    the side d^n of a dense part's decoders, checked before they are
    contracted; a site-form pre part builds no d^nu operator, and its side
    is not checked.  A pre part that does not fit the source and channel
    (see _check_code_alphabets), or an inner codeword letter outside the
    channel's inputs, raises AlphabetMismatch.
    """
    _check_code_alphabets(pre, w, src)
    xi = np.concatenate([_letter_indices(w, det.codebook) for det in inner.codes])
    j_n, k_n = inner.num_messages, inner.num_keys
    charge(caps, "jammer_states", len(w.s_alphabet) ** (pre.n + inner.n), "state word count")
    charge(caps, "product_dim", w.dim ** inner.n, "product dimension")
    words, ids, keys, a = pre._key_tables(w, src, caps)
    stack = read_only(np.stack([det.decoders for det in inner.codes]))   # (K, J, D, D)
    # b[k, j, k'] is inner word j of key k against key k''s decoder of j
    b = _success_tables(w, xi, list(stack.swapaxes(0, 1)) * k_n).reshape(k_n, j_n, k_n, -1)
    whole = np.einsum("nka,njkb->njab", a, b[keys]) / (j_n * k_n)
    whole_ids = {}
    rows = [whole_ids.setdefault(words[i] + xs, len(whole_ids))
            for i, k in zip(ids, keys) for xs in inner.codes[k].codebook]
    return _jammer_picks(list(whole_ids), rows, whole.reshape(len(rows), -1), w,
                         pre.n + inner.n, return_strategy=True)


def assemble_two_part(pre, inner, w, src, caps=DEFAULT_CAPS):
    """Concatenate a key-carrying pre-code with a keyed inner code.

    Each part is evaluated, and so checked, on its own (see TwoPartCode),
    and the exact error chain (assembled <= pre + inner) is checked on the
    constructed instance.
    """
    if pre.num_messages != inner.num_keys:
        raise KeySetMismatch(
            f"pre-code carries {pre.num_messages} keys, inner code expects {inner.num_keys}"
        )
    pre_error = correlation_code_error_informed(pre, w, src, caps)
    inner_error = random_code_error_informed(inner, w, caps)
    assembled_error, jammer = two_part_error_informed(pre, inner, w, src, caps)
    if assembled_error > pre_error + inner_error + _CHECK_SLACK:
        raise NotPositive(
            f"error chain violated: {assembled_error:.6g} > "
            f"{pre_error:.6g} + {inner_error:.6g}"
        )
    return TwoPartCode(
        pre=pre,
        inner=inner,
        pre_error=pre_error,
        inner_error=inner_error,
        assembled_error=assembled_error,
        jammer=jammer,
    )


# ---------------------------------------------------------------------------
# pre-code construction from a separation certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RepetitionPrecode:
    """Key-carrying pre-code in site form: one two-outcome measurement per use.

    Channel use t of key k carries bit key_words[k][t]: the sender maps its
    t-th block of iota = l / n source symbols to block_letters[u][bit], and
    the receiver measures its t-th block b with the pair site[b].  The
    blocks of a word are its base-(number of blocks) digits, first use
    first, since words and blocks both enumerate letter tuples
    lexicographically.  The outcome words, in iproduct order, decode to the
    keys bit_keys.  It reads as a CorrelationCode, but holds only the two
    source alphabets: the word tables v_prime_words and v_words, the
    encoders and the dense decoders are each built on first read, for
    readers such as correlation_code_to_json and simulate.  The error and
    the two-part error run on the site pairs and read none of them.
    """

    l: int                       # correlation block length, n * iota
    n: int                       # channel uses, one bit each
    v_prime_alphabet: tuple      # sender source letters
    v_alphabet: tuple            # receiver source letters
    key_words: tuple             # key -> bit word of length n
    bit_keys: np.ndarray         # (2^n,) key of each outcome word
    block_letters: tuple         # sender block -> (letter under g0, letter under g1)
    site: np.ndarray             # (|V|^iota, 2, d, d)

    def __post_init__(self):
        # tensor products of POVMs are POVMs, and grouping outcomes keeps
        # them so: checking the site pairs checks every dense decoder
        site = read_only(_validate_povm(self.site, unit="measurement block"))
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "bit_keys", read_only(np.asarray(self.bit_keys, dtype=np.intp)))

    @property
    def num_messages(self):
        return len(self.key_words)

    def _key_tables(self, w, src, caps):
        """(words, ids, keys, tables) as CorrelationCode._key_tables, site by site.

        The source is i.i.d. and each encoder acts block by block, so a
        (x^n, k) table is _site_products of the factors A[c_t, x_t], c_t =
        key_words[k][t], of the source-averaged site table
          A[c, x, bit, s] = sum_b w_c(x, b) T[b, bit, x, s],
        w the pair's block weights, the table the separation test reads.  Key
        k sends every product of the letters its bits give some block: its
        pairs come from block_letters, each use's letters in block order.
        """
        weights = _block_weights(src, self.block_letters, self.l // self.n, w.x_alphabet)
        if weights.shape[-1] != len(self.site):
            raise DimensionMismatch("code block tables do not match the product source")
        a = np.einsum("cxb,bkxs->cxks", weights, _site_traces(self, w))
        # the distinct letters bit c sends, in block order
        sent = [list(dict.fromkeys(p[c] for p in self.block_letters)) for c in (0, 1)]
        word_ids, ids, keys = {}, [], []
        for k, bits in enumerate(self.key_words):
            words = iproduct(*(sent[c] for c in bits))
            ids += (word_ids.setdefault(xs, len(word_ids)) for xs in words)
            keys += [k] * (len(ids) - len(keys))
        xi = _letter_indices(w, word_ids)[ids]
        factors = a[np.array(self.key_words)[keys], xi]    # (rows, nu, 2, |S|)
        return list(word_ids), ids, keys, _site_products(factors, self.bit_keys, self.num_messages)

    @cached_property
    def v_prime_words(self):
        """Sender words, the l-words of v_prime_alphabet in lexicographic order."""
        return tuple(iproduct(self.v_prime_alphabet, repeat=self.l))

    @cached_property
    def v_words(self):
        """Receiver words, the l-words of v_alphabet in lexicographic order."""
        return tuple(iproduct(self.v_alphabet, repeat=self.l))

    @cached_property
    def encoders(self):
        """(|V'|^l rows) x (K keys) of input words: row u, key k holds, use
        by use, the letter key k's bit gives the use's sender block."""
        per_key = (
            iproduct(*([pair[bit] for pair in self.block_letters] for bit in kw))
            for kw in self.key_words
        )
        return tuple(zip(*per_key))

    @cached_property
    def decoders(self):
        """(|V|^l, K, d^n, d^n) decoders, read-only: for each outcome word,
        in bits order, one broadcast product over the sites gives that
        outcome's operator for every receiver word at once, and it is added
        into the decoder of the key the word decodes to."""
        n_v, d = len(self.site) ** self.n, self.site.shape[-1]
        blocks = np.array(list(iproduct(range(len(self.site)), repeat=self.n)), dtype=np.intp)
        decoders = np.zeros((n_v, self.num_messages, d ** self.n, d ** self.n), dtype=complex)
        for bits, k in zip(iproduct((0, 1), repeat=self.n), self.bit_keys):
            prods = np.ones((n_v, 1, 1), dtype=complex)
            for t, bit in enumerate(bits):
                ops = self.site[blocks[:, t], bit]
                prods = (prods[:, :, None, :, None] * ops[:, None, :, None, :]).reshape(
                    n_v, d * prods.shape[1], -1
                )
            decoders[:, k] += prods
        decoders.flags.writeable = False
        return decoders


def repetition_precode(cert, gp, src, w, num_keys=2, nu=3, caps=DEFAULT_CAPS):
    """Key-carrying pre-code from a separating measurement.

    Each of nu channel uses encodes one bit through the encoder pair (the
    sender applies g0 or g1 to a fresh block of iota source symbols); the
    receiver measures each use with the matching block of the separating
    measurement and decodes the key by minimum Hamming distance to the key
    words (see _key_words), the first on a tie.  Returns the code in site
    form: the certificate's |V|^iota measurement pairs are checked as
    POVMs, and no word table, encoder or d^nu x d^nu decoder is built (see
    RepetitionPrecode).
    caps.product_dim bounds d^nu, the side of the decoders a reader may
    build.  num_keys must be an integer >= 2 and nu >= 1, or
    InvalidArgument is raised; more than 2**nu keys raise KeySetMismatch.
    """
    num_keys, nu = _integer(num_keys, "num_keys", 2), _integer(nu, "nu", 1)
    if num_keys > 2 ** nu:
        raise KeySetMismatch(f"cannot place {num_keys} keys in {nu} bits")
    iota = gp.iota
    l = nu * iota
    n_v_letters = len(src.v_alphabet)
    charge(caps, "enumeration", (len(src.v_prime_alphabet) * n_v_letters) ** l,
           "source word pair count")
    charge(caps, "product_dim", w.dim ** nu, "product dimension")
    key_words = _key_words(nu, num_keys)
    # outcome word i's bits are the base-2 digits of i, first use first
    bits = np.arange(2 ** nu)[:, None] >> np.arange(nu - 1, -1, -1) & 1
    bit_keys = (bits[:, None] != np.array(key_words)).sum(axis=2).argmin(axis=1)
    block_letters = _block_letters(src, gp.g0, gp.g1)
    site, nv = cert.measurement, n_v_letters ** iota
    if site.shape != (nv, 2, w.dim, w.dim):
        raise DimensionMismatch(
            f"certificate measurement of shape {site.shape} does not hold {nv} receiver "
            f"blocks of side {w.dim}"
        )
    return RepetitionPrecode(
        l=l, n=nu, v_prime_alphabet=tuple(src.v_prime_alphabet), v_alphabet=tuple(src.v_alphabet),
        key_words=tuple(key_words), bit_keys=bit_keys, block_letters=block_letters, site=site,
    )


def _key_words(nu, num_keys):
    """The first num_keys words of the greedy lexicographic binary code of
    length nu at the largest minimum Hamming distance that yields
    num_keys words; for two keys, 0^nu and 1^nu."""
    for dist in range(nu, 0, -1):
        words = []
        for bits in iproduct((0, 1), repeat=nu):
            if all(sum(a != b for a, b in zip(bits, kw)) >= dist for kw in words):
                words.append(bits)
                if len(words) == num_keys:
                    return words


def _site_products(factors, bit_keys, num_keys):
    """(N, K, m^nu) tables from per-use factors (N, nu, 2, m): entry
    [i, k, s^nu] adds, over the outcome words decoding to key k in index
    order, the product over the uses t of factors[i, t, bits_t, s_t],
    first use first."""
    n_rows, nu, _, m = factors.shape
    prods = factors[:, 0]
    for t in range(1, nu):
        prods = prods[:, :, None, :, None] * factors[:, t, None, :, None, :]
        prods = prods.reshape(n_rows, 2 ** (t + 1), m ** (t + 1))
    tables = np.zeros((n_rows, num_keys, m ** nu))
    for i, k in enumerate(bit_keys.tolist()):
        tables[:, k] += prods[:, i]
    return tables


def _site_traces(code, w):
    """T[b, bit, x, s] = tr(W(x, s) M[b, bit]) for the site pairs of a
    RepetitionPrecode."""
    if code.site.shape[-1] != w.dim:
        raise DimensionMismatch(
            f"measurement side {code.site.shape[-1]} != channel output dimension {w.dim}"
        )
    return np.real(np.einsum("xsij,bkji->bkxs", w.states, code.site))


def two_part_design(rate_r, n, c_k=1.0):
    """Desk-scale block design for a two-part code at channel length n.

    The pre-code spends nu = ceil((3 / rate) * log2 n) uses establishing a
    key drawn from ceil(c_k * n**2) values; rate_r is the induced binary
    channel's max-min rate.  rate_r and c_k must be finite and > 0 and n an
    integer >= 2, and both sizes finite, or InvalidArgument is raised.
    """
    _positive(rate_r, "rate_r")
    _positive(c_k, "c_k")
    _integer(n, "channel length n", 2)
    try:
        return {"nu": int(np.ceil((3.0 / rate_r) * np.log2(float(n)))),
                "num_keys": int(np.ceil(c_k * n * n))}
    except OverflowError as exc:
        raise InvalidArgument(f"rate_r={rate_r!r}, n={n!r}, c_k={c_k!r}: no finite design") from exc


# ---------------------------------------------------------------------------
# common-randomness generation protocol
# ---------------------------------------------------------------------------

def _choice_index(p, u):
    """The index Generator.choice(len(p), p=p) reads from each uniform in u:
    the first whose normalised cumulative probability exceeds it."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def cr_generation_run(w, src, code, trials, seed, caps=DEFAULT_CAPS):
    """Monte-Carlo key agreement over a correlation code under the exact
    worst-case-per-codeword jammer.

    Accepts a CorrelationCode, a RepetitionPrecode or an assembled
    TwoPartCode, whose sender additionally draws the private key each
    trial.  All draws are one table default_rng(seed).random((trials,
    l + 3)), with one more column for a TwoPartCode; row t holds trial t's
    uniforms in this order: the l source pairs, the message (uniform over
    J), the private key (uniform over K, TwoPartCode only), the outcome,
    the guess (uniform over J) a failed outcome decodes to.  Each draw is
    the first index whose normalised cumulative probability exceeds its
    uniform, as Generator.choice reads one.  numpy fills the table row by
    row from the one stream, so a record does not depend on `trials`: the
    first m rows of a run are the rows of an m-trial run.

    The outcome probabilities of all trials come from one batched pass
    that builds no product state.  A RepetitionPrecode's are
    _site_products of the site traces T[b, bit, x, s] at each trial's
    blocks and state word (m = 1); a CorrelationCode's one _success_tables
    pass over the distinct (receiver word, codeword) pairs at the jammer's
    state word.  A TwoPartCode's are sum_k pre[k] inner[k, j]: its pre
    part's as above on the first pre.n letters, its inner part's one pass
    over the distinct (inner word, inner state word) pairs on all keys'
    decoders, a (K, J, D, D) stack: K J D^2 entries a pair, not J D^2.
    caps.product_dim bounds d^n = D of each part so contracted.  The
    probabilities are clipped at 0 and completed by the failure entry
    max(1 - sum, 0).  Returns a dict with the agreement rate, the empirical
    entropy (bits) of the agreed value, and per-trial records.  `trials` must be an integer >= 1 and
    `seed` a nonnegative integer: None, which would draw fresh OS entropy
    on every run, is refused.
    """
    trials, seed = _integer(trials, "trials", 1), _integer(seed, "seed", 0)
    two_part = isinstance(code, TwoPartCode)
    if two_part:
        pre, jammer = code.pre, code.jammer
        _check_code_alphabets(pre, w, src)
    else:
        pre = code
        _, jammer = correlation_code_error_informed(code, w, src, caps, return_strategy=True)
    j_n, k_n, l = code.num_messages, code.inner.num_keys if two_part else 1, pre.l

    # draw pass: row t holds trial t's uniforms, in the order of the docstring
    u = np.random.default_rng(seed).random((trials, l + 3 + two_part))
    msg_u, *key_u, outcome_u, guess_u = u[:, l:].T
    msg, guess = (_choice_index(np.full(j_n, 1 / j_n), c) for c in (msg_u, guess_u))
    key = _choice_index(np.full(k_n, 1 / k_n), key_u[0]) if two_part else 0
    # pairs and joint entries both run over (v', v) with v fastest
    pair_probs = src.joint.ravel()
    n_vp, n_v = len(src.v_prime_alphabet), len(src.v_alphabet)
    vp_letters, v_letters = np.divmod(_choice_index(pair_probs / pair_probs.sum(), u[:, :l]), n_v)
    # the code's words are the l-words in lexicographic order
    u_index = vp_letters @ n_vp ** np.arange(l - 1, -1, -1)
    sent, which = np.unique((u_index * k_n + key) * j_n + msg, return_inverse=True)
    word_ids, word_of_sent = {}, []
    for c in sent.tolist():
        c, j = divmod(c, j_n)
        u, k = divmod(c, k_n)
        xs = (pre.encoders[u][k] + code.inner.codes[k].codebook[j] if two_part
              else pre.encoders[u][j])
        word_of_sent.append(word_ids.setdefault(xs, len(word_ids)))
    word = np.array(word_of_sent, dtype=np.intp)[which]   # codeword id of each trial
    words = list(word_ids)
    states = [jammer(xs) for xs in words]

    # probability pass: the pre part's, then a two-part code's inner part's
    xi = _letter_indices(w, words)
    si = np.array([[w.s_alphabet.index(s) for s in ss] for ss in states], dtype=np.intp)
    if isinstance(pre, RepetitionPrecode):
        traces = _site_traces(pre, w)
        iota = l // pre.n
        blocks = v_letters.reshape(trials, pre.n, iota) @ n_v ** np.arange(iota - 1, -1, -1)
        sites = traces[blocks, :, xi[word, : pre.n], si[word, : pre.n]]   # (trials, nu, 2)
        probs = _site_products(sites[..., None], pre.bit_keys, pre.num_messages)[..., 0]
    else:
        charge(caps, "product_dim", w.dim ** pre.n, "product dimension")
        v_index = v_letters @ n_v ** np.arange(l - 1, -1, -1)
        seen, pair_of = np.unique(v_index * len(words) + word, return_inverse=True)
        v_i, c = np.divmod(seen, len(words))
        ops = [pre.decoders[v] for v in v_i.tolist()]
        probs = _success_tables(w, xi[c, : pre.n], ops, si[c, : pre.n])[pair_of]
    if two_part:
        charge(caps, "product_dim", w.dim ** code.inner.n, "product dimension")
        part_ids = {}
        part = np.array([part_ids.setdefault((xs[pre.n :], ss[pre.n :]), len(part_ids))
                         for xs, ss in zip(words, states)], dtype=np.intp)
        first = np.unique(part, return_index=True)[1]   # the first word of each part
        stack = read_only(np.stack([det.decoders for det in code.inner.codes]))
        tables = _success_tables(w, xi[first, pre.n :], [stack] * len(first), si[first, pre.n :])
        probs = np.einsum("tk,tkj->tj", probs, tables[part[word]])

    # outcome pass: the completion entry takes the missing mass
    probs = np.clip(probs, 0.0, None)
    full = np.concatenate([probs, np.maximum(1.0 - probs.sum(axis=1), 0.0)[:, None]], axis=1)
    cdf = (full / full.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    outcome = (cdf <= outcome_u[:, None]).sum(axis=1)
    decoded = np.where(outcome == j_n, guess, outcome)

    ok = decoded == msg
    hits = int(ok.sum())
    if hits:
        counts = np.bincount(msg[ok], minlength=j_n).astype(float)
        entropy = float(entropy_from_eigenvalues(counts / counts.sum(), floor=DEFAULT_TOL.prob_sum))
    else:
        entropy = 0.0
    vp_text = np.array([str(c) for c in src.v_prime_alphabet], dtype=object)[vp_letters]
    v_text = np.array([str(c) for c in src.v_alphabet], dtype=object)[v_letters]
    s_text = ["".join(str(c) for c in ss) for ss in states]
    fields = ("trial", "v_prime", "v", "j", "decoded", "jammer_choice")
    rows = [
        dict(zip(fields, (t, "".join(us), "".join(vs), j, d, s_text[c])))
        for t, (us, vs, j, d, c) in enumerate(
            zip(vp_text.tolist(), v_text.tolist(), msg.tolist(), decoded.tolist(), word.tolist())
        )
    ]
    return {"agreement_rate": hits / trials, "empirical_entropy": entropy, "rows": rows}
