"""Channel and source data model.

Classical-quantum channels, arbitrarily varying cq channels (a state for
every input/jammer-letter pair), memoryless jamming kernels, correlated
sources and explicit jammer strategies, plus channel averaging, product
extensions, the channel/source distances and the convex-hull
zero-capacity condition.

All values are immutable after construction.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOL, charge
from .errors import AlphabetMismatch, DimensionMismatch, LengthMismatch
from .geometry import affine_set_distance, embed_stack
from .operators import (
    _distribution_rows,
    _integer,
    mutual_information,
    read_only,
    trace_norm,
    validate_density,
    validate_joint,
    validate_probability_vector,
)


def _check_alphabets(what, shape, *alphabets):
    """Raise AlphabetMismatch unless the table's leading shape is the
    alphabet sizes, no alphabet is empty and no alphabet repeats a label."""
    sizes = tuple(len(a) for a in alphabets)
    if shape != sizes:
        plural = "s" if len(sizes) > 1 else ""
        raise AlphabetMismatch(f"{what} {shape} does not match alphabet{plural} {sizes}")
    if 0 in sizes:
        raise AlphabetMismatch(f"{what} {shape} has an empty alphabet")
    repeated = [x for a in alphabets for i, x in enumerate(a) if x in a[:i]]
    if repeated:
        raise AlphabetMismatch(f"{what} {shape}: label {repeated[0]!r} repeats in its alphabet")


@dataclass(frozen=True, eq=False)
class CqChannel:
    """Map from a finite input alphabet to density operators."""

    x_alphabet: tuple
    states: np.ndarray  # (|X|, d, d)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        _check_alphabets("state table", states.shape[:-2], self.x_alphabet)
        validate_density(states)
        object.__setattr__(self, "x_alphabet", tuple(self.x_alphabet))
        object.__setattr__(self, "states", read_only(states))

    @property
    def dim(self):
        return self.states.shape[-1]

    def state(self, x):
        return self.states[self.x_alphabet.index(x)]


@dataclass(frozen=True, eq=False)
class Avcqc:
    """Arbitrarily varying cq channel: one output state per (input, jammer state)."""

    x_alphabet: tuple
    s_alphabet: tuple
    states: np.ndarray  # (|X|, |S|, d, d)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        _check_alphabets("state table", states.shape[:-2], self.x_alphabet, self.s_alphabet)
        validate_density(states)
        object.__setattr__(self, "x_alphabet", tuple(self.x_alphabet))
        object.__setattr__(self, "s_alphabet", tuple(self.s_alphabet))
        object.__setattr__(self, "states", read_only(states))

    @property
    def dim(self):
        return self.states.shape[-1]

    def state(self, x, s):
        return self.states[self.x_alphabet.index(x), self.s_alphabet.index(s)]


@dataclass(frozen=True, eq=False)
class JammerKernel:
    """Memoryless jamming kernel: one distribution over S per input letter."""

    x_alphabet: tuple
    s_alphabet: tuple
    rows: np.ndarray  # (|X|, |S|)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        _check_alphabets("kernel shape", rows.shape, self.x_alphabet, self.s_alphabet)
        rows = _distribution_rows(rows, DEFAULT_TOL)
        object.__setattr__(self, "x_alphabet", tuple(self.x_alphabet))
        object.__setattr__(self, "s_alphabet", tuple(self.s_alphabet))
        object.__setattr__(self, "rows", rows)

    @classmethod
    def uniform(cls, x_alphabet, s_alphabet):
        rows = np.full((len(x_alphabet), len(s_alphabet)), 1.0 / len(s_alphabet))
        return cls(tuple(x_alphabet), tuple(s_alphabet), rows)


@dataclass(frozen=True, eq=False)
class CorrelatedSource:
    """Joint distribution of the shared (sender, receiver) resource."""

    v_prime_alphabet: tuple
    v_alphabet: tuple
    joint: np.ndarray  # (|V'|, |V|), rows indexed by the sender symbol

    def __post_init__(self):
        joint = validate_joint(np.asarray(self.joint, dtype=float), DEFAULT_TOL)
        _check_alphabets("joint shape", joint.shape, self.v_prime_alphabet, self.v_alphabet)
        object.__setattr__(self, "v_prime_alphabet", tuple(self.v_prime_alphabet))
        object.__setattr__(self, "v_alphabet", tuple(self.v_alphabet))
        object.__setattr__(self, "joint", joint)

    @property
    def sender_marginal(self):
        return self.joint.sum(axis=1)

    @property
    def receiver_marginal(self):
        return self.joint.sum(axis=0)

    @property
    def sender_given_receiver(self):
        """Transition matrix with entries P(V'=u | V=v); zero columns where P(v)=0."""
        pv = self.receiver_marginal
        cols = np.where(pv > 0.0, pv, 1.0)
        return self.joint / cols[None, :]

    def mutual_information(self):
        return mutual_information(self.joint)


@dataclass(frozen=True)
class JammerStrategy:
    """Explicit table mapping input words to jammer state words.

    The informed-jammer error functional only reads the table on the
    codebook image, so tables restricted to that image are accepted.
    """

    table: dict = field(default_factory=dict)

    def __call__(self, xs):
        return self.table[tuple(xs)]

    @classmethod
    def full(cls, x_alphabet, n, fn):
        """Tabulate fn on all of X^n (total function, small n only); n must be an integer >= 1."""
        n = _integer(n, "n", 1)
        return cls({xs: tuple(fn(xs)) for xs in product(tuple(x_alphabet), repeat=n)})


def _input_distribution(p, w, tol=DEFAULT_TOL):
    """p validated as a distribution over the input letters of w, read-only."""
    pv = validate_probability_vector(p, tol)
    if pv.size != len(w.x_alphabet):
        raise AlphabetMismatch(
            f"distribution over {pv.size} letters, channel has {len(w.x_alphabet)}"
        )
    return pv


def averaged_channel(w, q):
    """Channel seen through a memoryless jamming kernel: mix states per input."""
    if q.x_alphabet != w.x_alphabet or q.s_alphabet != w.s_alphabet:
        raise AlphabetMismatch("kernel alphabets do not match the channel")
    mixed = np.einsum("xs,xsij->xij", q.rows, w.states)
    return CqChannel(w.x_alphabet, mixed)


def product_output(w, xs, ss, caps=DEFAULT_CAPS):
    """n-fold product output state for an input word and a state word."""
    xs, ss = tuple(xs), tuple(ss)
    if len(xs) != len(ss):
        raise LengthMismatch(f"input word length {len(xs)} != state word length {len(ss)}")
    charge(caps, "product_dim", w.dim ** len(xs), "product dimension")
    out = np.ones((1, 1), dtype=complex)
    for x, s in zip(xs, ss):
        out = np.kron(out, w.state(x, s))
    return out


def cq_diamond_distance(w1, w2):
    """Stabilized channel distance for classical inputs.

    For cq channels the supremum over block lengths is attained on
    single-letter classical inputs, so this is the maximum over input
    letters of the unnormalized trace-norm difference of the outputs.
    """
    if w1.x_alphabet != w2.x_alphabet:
        raise AlphabetMismatch("channels have different input alphabets")
    if w1.dim != w2.dim:
        raise DimensionMismatch(f"output dimensions differ: {w1.dim} vs {w2.dim}")
    return max(trace_norm(w1.states[i] - w2.states[i]) for i in range(len(w1.x_alphabet)))


def source_distance(s1, s2):
    """Entrywise l1 distance between the joint distributions of two sources."""
    if (
        s1.v_prime_alphabet != s2.v_prime_alphabet
        or s1.v_alphabet != s2.v_alphabet
    ):
        raise AlphabetMismatch("sources have different alphabets")
    return float(np.abs(s1.joint - s2.joint).sum())


def zero_capacity_condition(w, n=1, caps=DEFAULT_CAPS):
    """Evidence check for zero deterministic capacity with an informed jammer.

    True iff for every pair of input words of length n the convex hulls of
    their jammer-reachable product outputs intersect: hull distance at most
    DEFAULT_TOL.not_separable_below, the separation test's own threshold.
    A True answer is necessary evidence at the tested n only; the
    underlying condition quantifies over all block lengths.  n must be an
    integer >= 1, or InvalidArgument is raised.
    """
    n = _integer(n, "n", 1)
    charge(caps, "enumeration", len(w.x_alphabet) ** n, "input word count")
    charge(caps, "jammer_states", len(w.s_alphabet) ** n, "state word count")
    charge(caps, "product_dim", w.dim ** n, "product dimension")
    words_x = list(product(w.x_alphabet, repeat=n))
    words_s = list(product(w.s_alphabet, repeat=n))
    gens = {}
    for xs in words_x:
        pts = np.stack([product_output(w, xs, ss, caps) for ss in words_s])
        gens[xs] = embed_stack(pts).T  # (D, |S|^n)
    for i, x1 in enumerate(words_x):
        for x2 in words_x[i + 1 :]:
            dist, *_ = affine_set_distance(gens[x1], gens[x2], len(words_s), len(words_s))
            if dist > DEFAULT_TOL.not_separable_below:
                return False
    return True
