"""Property tests of the max-min solver on random Wishart AVCQCs and of the
POVM check on random decoder stacks.

Each solver example draws |X|, |S| <= 3, d <= 3 and a state seed; each
POVM example draws a stack with at most one planted defect.  The examples
are derandomized, so every run checks the same instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcqc import Avcqc, CqChannel, capacity_informed_jammer, holevo_capacity
from avcqc.coding import _CHOLESKY_ENTRIES, _validate_povm
from avcqc.errors import NotPositive
from helpers import random_povm_stack, spectral_validate_povm, wishart_avcqc


@st.composite
def wishart_instances(draw):
    nx, ns, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    return wishart_avcqc(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), nx, ns, d)


@st.composite
def relabellings(draw, w):
    """w with its inputs or jammer letters permuted, or one jammer letter duplicated."""
    nx, ns = w.states.shape[:2]
    change = draw(st.sampled_from(["relabel x", "relabel s", "duplicate s"]))
    if change == "relabel x":
        states = w.states[draw(st.permutations(range(nx)))]
    elif change == "relabel s":
        states = w.states[:, draw(st.permutations(range(ns)))]
    else:
        states = np.concatenate([w.states, w.states[:, [draw(st.integers(0, ns - 1))]]], axis=1)
    return Avcqc(tuple(range(states.shape[0])), tuple(range(states.shape[1])), states)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.data())
def test_solver_brackets_and_invariances(data):
    w = data.draw(wishart_instances())
    res = capacity_informed_jammer(w, certify=False)
    lo, hi = res.bracket
    assert lo <= res.value <= hi
    assert 0.0 <= res.value <= np.log2(w.dim)
    # a jammer that always sends the letter s leaves the fixed channel W(., s)
    for s in range(len(w.s_alphabet)):
        fixed, _ = holevo_capacity(CqChannel(w.x_alphabet, w.states[:, s]))
        assert lo <= fixed + 1e-9
    # hi <= min_s C_Holevo(W(., s)) need not hold: both sides bound the value from above
    other = capacity_informed_jammer(data.draw(relabellings(w)), certify=False)
    other_lo, other_hi = other.bracket
    assert abs(res.value - other.value) <= (hi - lo) + (other_hi - other_lo)


@st.composite
def povm_stacks(draw):
    """A stack (N, J, D, D) of POVMs, clean or with one planted defect: an
    operator with eigenvalue -m, or a word whose sum has eigenvalue 1 + m,
    for m >= 1e-6, far clear of the check's 1e-9 slack."""
    d = draw(st.sampled_from((2, 3, 4, 9)))
    chunk = max(1, _CHOLESKY_ENTRIES // d**2)     # matrices per Cholesky call
    n = draw(st.sampled_from((1, 63, 64, 65, 200, chunk - 1, chunk, chunk + 1)))
    j = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = random_povm_stack(rng, n, j, d)
    defect = draw(st.sampled_from((None, "negative", "over-full")))
    if defect is not None:
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, j - 1))
        m = draw(st.floats(1e-6, 0.5))
        if defect == "negative":
            lam, vec = np.linalg.eigh(ops[i, k])
            ops[i, k] -= (lam[0] + m) * np.outer(vec[:, 0], vec[:, 0].conj())
        else:
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            u /= np.linalg.norm(u)
            lam = np.linalg.eigvalsh(ops[i].sum(axis=0))
            ops[i] += (1.0 + m - lam[-1]) / j * np.outer(u, u.conj())
    return ops


@settings(max_examples=60, derandomize=True, deadline=None)
@given(povm_stacks())
def test_povm_check_matches_the_spectral_reference(ops):
    try:
        spectral_validate_povm(ops)
    except NotPositive as want:
        with pytest.raises(NotPositive) as got:
            _validate_povm(ops)
        assert str(got.value) == str(want)
    else:
        _validate_povm(ops)
