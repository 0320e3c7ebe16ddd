"""Property tests of the max-min solver on random Wishart AVCQCs.

Each example draws |X|, |S| <= 3, d <= 3 and a state seed; the examples
are derandomized, so every run checks the same instances.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avcqc import Avcqc, CqChannel, capacity_informed_jammer, holevo_capacity
from helpers import wishart_avcqc


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
