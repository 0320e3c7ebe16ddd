"""Property tests of the max-min solver on random Wishart AVCQCs, of the
POVM check on random decoder stacks and of the large-correlation CR
capacity on random sources.

Each solver example draws |X|, |S| <= 3, d <= 3 and a state seed; each
POVM example draws a stack with at most one planted defect; each source
example draws a joint with planted zero blocks or a binary joint and its
leakage budgets.  The examples are derandomized, so every run checks the
same instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcqc import Avcqc, CorrelatedSource, CqChannel, capacity_informed_jammer, holevo_capacity
from avcqc.capacity import _aux_objective, _large_correlation
from avcqc.coding import _STACK_ENTRIES, _validate_povm
from avcqc.errors import NotPositive
from helpers import (
    aux_channel_search,
    binary_aux_grid_oracle,
    random_povm_stack,
    spectral_validate_povm,
    wishart_avcqc,
)


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
    chunk = max(1, _STACK_ENTRIES // d**2)     # matrices per Cholesky call
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


@st.composite
def blocked_joints(draw):
    """A joint over |V'|, |V| <= 5 whose letters fall into planted blocks:
    entries across blocks are 0, and so are some entries inside them."""
    nvp, nv = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    blocks = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = rng.integers(0, blocks, nvp), rng.integers(0, blocks, nv)
    joint = rng.dirichlet(np.ones(nvp * nv)).reshape(nvp, nv)
    joint *= (rows[:, None] == cols[None, :]) & (rng.uniform(size=(nvp, nv)) > 0.3)
    if joint.sum() == 0.0:
        joint[0, 0] = 1.0
    return joint / joint.sum()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(blocked_joints())
def test_zero_budget_is_the_gacs_korner_common_information(joint):
    # reference: v' and v'' share a component when the boolean powers of
    # A A^T (A the support) link them
    value, aux, upper = _large_correlation(joint, 0.0, 0.0)
    reach = (joint > 0) @ (joint > 0).T | np.eye(joint.shape[0], dtype=bool)
    for _ in range(joint.shape[0]):
        reach = reach @ reach
    mass = np.unique(reach, axis=0) @ joint.sum(axis=1)
    want = -sum(m * np.log2(m) for m in mass if m > 0)
    assert value == upper == pytest.approx(want, abs=1e-12)
    # the witness is a deterministic map constant on components, so a
    # letter v determines U wherever P(v) > 0: the leakage is exactly 0
    assert set(aux.ravel()) <= {0.0, 1.0} and np.all(aux.sum(axis=1) == 1.0)
    assert np.array_equal(aux @ aux.T > 0, reach)
    i_uvp, i_uv = _aux_objective(joint, aux[None])
    assert i_uvp[0] == pytest.approx(value, abs=1e-12)
    assert abs(i_uvp[0] - i_uv[0]) <= 1e-12


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.1, exclude_min=True), st.floats(0.0, 1.0))
def test_dual_brackets_random_binary_sources(seed, hi_budget, frac):
    src = CorrelatedSource(
        (0, 1), (0, 1), np.random.default_rng(seed).dirichlet(np.ones(4)).reshape(2, 2)
    )
    lo_budget = frac * hi_budget
    lo, aux, hi = _large_correlation(src.joint, lo_budget, hi_budget)
    assert lo <= hi
    i_uvp, i_uv = _aux_objective(src.joint, aux[None])
    assert i_uvp[0] - i_uv[0] <= lo_budget + 1e-12
    assert i_uvp[0] == pytest.approx(lo, abs=1e-12)
    for budget in (lo_budget, hi_budget):
        assert aux_channel_search(src, budget, seed=8, slack=0.0)[0] <= hi + 1e-9
        assert binary_aux_grid_oracle(src, budget) <= hi + 1e-9
