import tracemalloc
from itertools import count, product as iproduct
from math import comb, prod

import numpy as np
import pytest

from avcqc import (
    CqChannel,
    conditional_typical_projector,
    typical_projector,
    typical_set,
    verify_typicality_bounds,
)
from avcqc.config import Caps, Tolerances
from avcqc.errors import (
    AlphabetMismatch,
    DimOverflow,
    EnumerationOverflow,
    InvalidArgument,
    ToolkitError,
    TraceNotOne,
)
from avcqc.typicality import (
    _SUPPORT_FLOOR,
    BoundRow,
    TypicalityReport,
    _cross_mass,
    _window_classes,
    stable_eigh,
)
from helpers import (
    ONE,
    ZERO,
    compositions,
    mirror_pair_channel,
    per_block_typicality_bounds,
    per_block_window_classes,
    scattered_labels,
    wishart_state,
)


def enumerate_window(p, n, width):
    """Independent oracle: brute-force frequency-window enumeration.

    Labels with probability below the support floor may not occur.
    """
    out = []
    for seq in iproduct(range(len(p)), repeat=n):
        counts = [seq.count(j) for j in range(len(p))]
        if all(abs(c / n - pj) <= width + 1e-12 and not (pj < _SUPPORT_FLOOR and c)
               for c, pj in zip(counts, p)):
            out.append(seq)
    return out


def _window_count_classes(p, n, half_width, caps=Caps()):
    """The window classes of one block length as tuples; over the cap it raises."""
    counts, _, over = _window_classes(p, [n], half_width, caps=caps)
    if over[0]:
        raise EnumerationOverflow(over[0])
    return [tuple(c) for c in counts.tolist()]


class TestTypicalSet:
    def test_wide_window_covers_everything(self):
        assert len(typical_set([0.5, 0.5], 2, 1.0)) == 4

    def test_point_mass(self):
        assert typical_set([1.0, 0.0], 5, 0.1) == [(0, 0, 0, 0, 0)]

    def test_half_window_count(self):
        # |N/n - 1/2| <= 1/4 admits weights 1..3: 4 + 6 + 4 = 14 sequences
        got = typical_set([0.5, 0.5], 4, 0.5)
        assert len(got) == 14
        assert got == enumerate_window([0.5, 0.5], 4, 0.25)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.dirichlet(np.ones(2))
            n = int(rng.integers(3, 8))
            delta = float(rng.uniform(0.05, 0.8))
            assert typical_set(p, n, delta) == enumerate_window(p, n, delta / 2)

    @pytest.mark.parametrize("d, n_max", [(3, 7), (4, 6)])
    def test_matches_enumeration_oracle_with_pinned_labels(self, d, n_max):
        # a window of at least 1/n would admit a count of 1 on the label
        # below the support floor, which stays pinned at 0
        rng = np.random.default_rng(d)
        for n in range(1, n_max + 1):
            for floor_label in (0.0, 1e-16, None):
                p = rng.dirichlet(np.ones(d))
                if floor_label is not None:
                    p[int(rng.integers(d))] = floor_label
                    p /= p.sum()
                for delta in (0.3, d / n):
                    assert typical_set(p, n, delta) == enumerate_window(p, n, delta / d)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationOverflow):
            typical_set([0.5, 0.5], 25, 0.5)


def masked_compositions(p, n, half_width, guard=1e-12):
    """Reference: mask every composition of n by the window, in lexicographic order."""
    counts = compositions(p.size, n)
    bad = (np.abs(counts / n - p) > half_width + guard) | ((p < _SUPPORT_FLOOR) & (counts > 0))
    return [tuple(c) for c in counts[~bad.any(axis=1)].tolist()]


class TestWindowCountClasses:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_masked_compositions(self, d):
        rng = np.random.default_rng(d)
        zero_first = np.concatenate([[0.0], rng.dirichlet(np.ones(d - 1))])
        for n in range(1, 31):
            on_grid = np.floor(rng.dirichlet(np.ones(d)) * n) / n   # exact boundary fractions
            on_grid[-1] = 1.0 - on_grid[:-1].sum()
            for p in (rng.dirichlet(np.ones(d)), zero_first, zero_first[::-1], on_grid):
                for half_width in (0.0, 0.1, 0.25, 1.0):
                    assert _window_count_classes(p, n, half_width) == masked_compositions(
                        p, n, half_width
                    )

    def test_candidates_over_cap_raise_before_they_are_built(self):
        # at d=8, n=40 there are 62,891,499 compositions; label by label the
        # window reaches 1,749,539 candidates at the sixth label, over the cap
        with pytest.raises(EnumerationOverflow, match="1749539 window candidates"):
            _window_count_classes(np.full(8, 1 / 8), 40, 0.1)
        capped = Caps(enumeration=100)
        assert _window_count_classes(np.array([0.5, 0.5]), 40, 0.1, caps=capped)
        with pytest.raises(EnumerationOverflow):
            _window_count_classes(np.array([0.5, 0.5]), 40, 0.1, caps=Caps(enumeration=10))

    @pytest.mark.parametrize("call, count", [
        # n = 10**9: the free label's window holds 500,000,003 counts
        (lambda: typical_set([0.5, 0.5], 10**9, 0.5), 500000003),
        # d = 4, n = 10**7: the source's first label has 5,500,002
        (lambda: verify_typicality_bounds(
            CqChannel((0, 1), np.stack([np.eye(4, dtype=complex) / 4] * 2)), [0.5, 0.5],
            [10**7], 0.3), 5500002),
    ], ids=["typical_set", "verifier"])
    def test_huge_block_length_raises_before_any_window_is_built(self, call, count):
        # the cap check comes before any array the size of a window is allocated
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationOverflow, match=f"^{count} window candidates exceed"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_high_dimension_short_block(self):
        # d=32, n=2: the window box over the first 31 labels has 3^31 points,
        # but partial sums above n are cut at each label, so the candidates
        # stay within the C(33, 31) = 528 compositions times 3
        p = np.full(32, 1 / 32)
        assert _window_count_classes(p, 2, 0.5) == masked_compositions(p, 2, 0.5)


class TestTypicalProjector:
    def test_pure_state_rank_one(self):
        tp = typical_projector(ZERO, 4, 0.05)
        assert tp.rank == 1
        assert tp.basis_labels == ((0, 0, 0, 0),)

    def test_maximally_mixed_full_rank(self):
        tp = typical_projector(np.eye(2) / 2, 3, 0.6)
        assert tp.rank == 8
        assert np.allclose(tp.matrix(), np.eye(8), atol=1e-12)

    def test_rank_matches_enumeration(self):
        rho = np.diag([0.75, 0.25])
        tp = typical_projector(rho, 8, 0.2)
        oracle = enumerate_window([0.75, 0.25], 8, 0.2)
        assert tp.rank == len(oracle)
        assert set(tp.basis_labels) == set(oracle)

    def test_idempotent_matrix(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        tp = typical_projector(rho, 5, 0.15)
        m = tp.matrix()
        assert np.allclose(m @ m, m, atol=1e-10)
        assert np.isclose(np.trace(m).real, tp.rank, atol=1e-9)

    def test_cap_counts_typical_sequences(self):
        # 2**21 label sequences exceed the cap, but only the typical ones are built
        assert typical_projector(np.diag([0.75, 0.25]), 21, 0.1).rank == 196_878
        with pytest.raises(EnumerationOverflow, match="1269301 typical sequences"):
            typical_projector(np.diag([0.75, 0.25]), 24, 0.1)

    def test_rejects_non_density_operator(self):
        with pytest.raises(TraceNotOne):
            typical_projector(np.diag([0.75, 0.35]), 3, 0.1)

    def test_matrix_cap(self):
        tp = typical_projector(np.diag([0.75, 0.25]), 12, 0.1)
        with pytest.raises(DimOverflow):
            tp.matrix(caps=Caps(product_dim=64))

    def test_mass_monotone_in_alpha(self):
        rho = np.diag([0.7, 0.3])
        spectrum = np.array([0.7, 0.3])
        masses = []
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.6):
            tp = typical_projector(rho, 6, alpha)
            mass = sum(
                np.prod([spectrum[j] for j in labels]) for labels in tp.basis_labels
            )
            masses.append(mass)
        assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))

    def test_commutes_with_diagonal_part(self):
        rho = np.diag([0.75, 0.25])
        tp = typical_projector(rho, 4, 0.1)
        m = tp.matrix()
        sig = rho
        full = np.ones((1, 1), dtype=complex)
        for _ in range(4):
            full = np.kron(full, sig)
        assert np.allclose(m @ full, full @ m, atol=1e-12)


class TestStableEigh:
    def test_degenerate_spectrum_reproducible(self):
        lam, u = stable_eigh(np.eye(2) / 2)
        assert np.allclose(u, np.eye(2), atol=1e-12)
        lam3, u3 = stable_eigh(np.eye(3) / 3)
        assert np.allclose(u3, np.eye(3), atol=1e-12)

    def test_descending_order_and_phase(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = g + g.conj().T
        lam, u = stable_eigh(h)
        assert np.all(np.diff(lam) <= 1e-12)
        assert np.allclose(u @ np.diag(lam) @ u.conj().T, h, atol=1e-10)
        for k in range(3):
            i = int(np.argmax(np.abs(u[:, k])))
            assert abs(u[i, k].imag) < 1e-12 and u[i, k].real > 0


class TestConditionalProjector:
    def test_pure_outputs_rank_one(self):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        cp = conditional_typical_projector(w, (0, 1, 0), 0.05)
        assert cp.rank == 1

    def test_single_letter_input_reduces(self):
        w = mirror_pair_channel()
        xs = (0,) * 6
        cp = conditional_typical_projector(w, xs, 0.1)
        tp = typical_projector(w.states[0], 6, 0.1)
        assert cp.rank == tp.rank
        assert set(cp.basis_labels) == set(tp.basis_labels)

    def test_rank_is_product_of_block_counts(self):
        w = mirror_pair_channel()
        xs = (0, 0, 0, 1, 1, 1)
        cp = conditional_typical_projector(w, xs, 0.3)
        lam0, _ = stable_eigh(w.states[0])
        lam1, _ = stable_eigh(w.states[1])
        c0 = len(enumerate_window(np.clip(lam0, 0, None), 3, 0.3))
        c1 = len(enumerate_window(np.clip(lam1, 0, None), 3, 0.3))
        assert cp.rank == c0 * c1

    @pytest.mark.parametrize("xs, alpha", [
        (("b", "a", "a", "b", "a", "b", "b"), 0.25),
        (("b", "a", "c", "a", "b", "a", "c"), 0.3),
        (("c", "a", "a", "c", "b"), 0.45),
        (("e", "a", "e", "b", "e"), 0.15),
    ])
    def test_labels_match_scatter_oracle(self, xs, alpha):
        # letter "e" is maximally mixed: three positions have no count within
        # 0.15 of 1/2, so its window and the projector are empty
        rng = np.random.default_rng(31)
        states = [wishart_state(rng, 2) for _ in range(3)] + [np.eye(2) / 2]
        w = CqChannel(("a", "b", "c", "e"), np.stack(states))
        letter_labels = {
            x: enumerate_window(np.clip(stable_eigh(w.state(x))[0], 0, None), xs.count(x), alpha)
            for x in set(xs)
        }
        cp = conditional_typical_projector(w, xs, alpha)
        assert cp.basis_labels == scattered_labels(xs, letter_labels)
        assert cp.rank == prod(map(len, letter_labels.values()))
        assert (cp.rank == 0) == ("e" in xs)

    def test_idempotent(self):
        w = mirror_pair_channel()
        cp = conditional_typical_projector(w, (0, 1, 0, 1), 0.2)
        m = cp.matrix()
        assert np.allclose(m @ m, m, atol=1e-10)


class TestVerifyBounds:
    def test_acceptance_instance_all_pass(self):
        rep = verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(4, 13), 0.1)
        assert rep.all_pass
        assert rep.constants_positive
        assert set(r.bound_id for r in rep.rows) == {
            "source_mass",
            "source_rank",
            "source_eigen_window",
            "conditional_mass",
            "conditional_eigen_window",
            "conditional_rank",
            "average_state_mass",
        }

    def test_report_holds_its_rows_built(self):
        # the call builds every row: no property or cache on the report
        # builds them, or the constants, when they are first read
        rep = verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(4, 13), 0.1)
        assert set(vars(rep)) == {"rows", "constants"}
        assert not hasattr(TypicalityReport, "rows") and not hasattr(TypicalityReport, "constants")
        rows = vars(rep)["rows"]
        assert type(rows) is tuple and len(rows) == 7 * 9
        assert all(type(r) is BoundRow for r in rows)
        fields = ("bound_id", "n", "lhs", "rhs", "slack", "passed")
        assert {tuple(type(getattr(r, f)) for f in fields) for r in rows} == {
            (str, int, float, float, float, bool)}
        assert type(vars(rep)["constants"]) is dict and len(vars(rep)["constants"]) == 7

    def test_maximally_mixed_rank_equality(self):
        # every label sequence is typical: the rank exponent fits at zero
        w = CqChannel((0, 1), np.stack([np.eye(2, dtype=complex) / 2] * 2))
        rep = verify_typicality_bounds(w, [0.5, 0.5], range(2, 8), 0.6)
        assert rep.all_pass
        assert rep.constants["source_rank"] == pytest.approx(0.0, abs=1e-12)

    def test_pure_channel_conditional_rank_one(self):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        rep = verify_typicality_bounds(w, [0.5, 0.5], range(2, 6), 0.05)
        for row in rep.rows:
            if row.bound_id == "conditional_rank":
                # S(W|P) = 0 and rank 1: the fitted exponent collapses to 0
                assert row.lhs == pytest.approx(0.0, abs=1e-12)

    def test_source_mass_oracle_cross_check(self):
        # source_mass requirement at each n recomputed from scratch
        w = mirror_pair_channel()
        rep = verify_typicality_bounds(w, [0.5, 0.5], range(4, 9), 0.1)
        spectrum = [0.75, 0.25]
        for row in rep.rows:
            if row.bound_id != "source_mass":
                continue
            n = row.n
            mass = sum(
                comb(n, k) * spectrum[0] ** (n - k) * spectrum[1] ** k
                for k in range(n + 1)
                if abs((n - k) / n - 0.75) <= 0.1 + 1e-12
                and abs(k / n - 0.25) <= 0.1 + 1e-12
            )
            assert row.lhs == pytest.approx(-np.log2(1 - mass) / n, abs=1e-12)

    def test_ranks_past_int64(self):
        # at n = 70 the source rank sum_k C(70, k), 4 <= k <= 31, exceeds 2**63
        w = mirror_pair_channel()
        rep = verify_typicality_bounds(w, [0.5, 0.5], range(60, 71), 0.2)
        assert len(rep.rows) == 7 * 11
        rank = sum(comb(70, k) for k in range(4, 32))
        assert rank > 2**63
        s_sigma = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        row = next(r for r in rep.rows if r.bound_id == "source_rank" and r.n == 70)
        assert row.lhs == pytest.approx(abs(np.log2(float(rank)) / 70 - s_sigma), abs=1e-12)

    def test_average_mass_permutation_invariant(self):
        # the cross-basis overlap mass depends on the word only through its type
        w = mirror_pair_channel()
        p = np.array([0.75, 0.25])
        classes = set(_window_count_classes(p, 6, 0.1))
        sig_u = np.eye(2, dtype=complex)
        diag = {
            x: np.real(np.diag(sig_u.conj().T @ w.states[x] @ sig_u))
            for x in range(2)
        }
        words = [(0, 0, 0, 1, 1, 1), (1, 1, 1, 0, 0, 0), (0, 1, 0, 1, 0, 1)]
        vals = [
            cross_mass([diag[x] for x in xs], classes, 2) for xs in words
        ]
        assert max(vals) - min(vals) < 1e-10

    def test_enumeration_cap_bounds_count_table(self):
        # the cross-mass table has max_n (largest typical count_0 + 1) cells at d=2
        w = mirror_pair_channel()
        ns = range(4, 13)
        cells = max(
            max(c[0] for c in _window_count_classes(np.array([0.75, 0.25]), n, 0.1)) + 1
            for n in ns
        )
        rep = verify_typicality_bounds(w, [0.5, 0.5], ns, 0.1, caps=Caps(enumeration=cells))
        assert rep.rows == verify_typicality_bounds(w, [0.5, 0.5], ns, 0.1).rows
        with pytest.raises(EnumerationOverflow):
            verify_typicality_bounds(w, [0.5, 0.5], ns, 0.1, caps=Caps(enumeration=cells - 1))


def cross_mass(site_values, typical_classes, d):
    """_cross_mass on one word, each position a run of its own."""
    site_values = np.asarray(site_values, dtype=float)
    classes = np.array(sorted(typical_classes), dtype=int).reshape(-1, d)
    masses, over = _cross_mass(site_values, np.ones((1, len(site_values)), dtype=int), classes,
                               np.array([0, len(classes)]), d)
    assert over == [None]
    return masses[0]


def dict_cross_mass(site_values, typical_classes, d):
    """The cross mass as a dict DP keyed by label-count tuples (the earlier code)."""
    states = {tuple([0] * d): 1.0}
    for vals in site_values:
        nxt = {}
        for cnt, acc in states.items():
            for j in range(d):
                wgt = vals[j]
                if wgt == 0.0:
                    continue
                key = list(cnt)
                key[j] += 1
                key = tuple(key)
                nxt[key] = nxt.get(key, 0.0) + acc * wgt
        states = nxt
    return sum(acc for cnt, acc in states.items() if cnt in typical_classes)


class TestCrossMass:
    """average_state_mass against references that share none of its code."""

    def test_brute_force_over_label_sequences(self):
        # label 2 never typical under the first spectrum, label 0 under the
        # second; one letter has a zero weight, so the two letters' supports differ
        rng = np.random.default_rng(17)
        letters = np.array([rng.random(3), rng.random(3)])
        letters[1, 1] = 0.0
        for spectrum in ([0.6, 0.4, 0.0], [0.0, 0.5, 0.5]):
            for n in range(1, 7):
                word = [int(b) for b in rng.integers(0, 2, size=n)]
                site_values = letters[word]
                want = 0.0
                for seq in iproduct(range(3), repeat=n):
                    counts = [seq.count(j) for j in range(3)]
                    if all(
                        abs(c / n - pj) <= 0.3 + 1e-12 and not (pj == 0.0 and c > 0)
                        for c, pj in zip(counts, spectrum)
                    ):
                        want += np.prod([site_values[i][y] for i, y in enumerate(seq)])
                classes = set(_window_count_classes(np.array(spectrum), n, 0.3))
                assert abs(cross_mass(site_values, classes, 3) - want) <= 1e-14

    def test_bit_identical_to_dict_dp(self):
        # The dict met its keys in descending lexicographic order, the order
        # the table adds and sums in, whenever every weight is nonzero, at
        # d=2, or when the zero weights sit on one label at every position
        # (a zero-probability eigenlabel).  Other zero patterns reorder the
        # dict's keys; the brute-force test covers those.
        rng = np.random.default_rng(23)
        for d, nx, ns in ((2, 2, range(1, 21)), (3, 3, range(1, 21)), (4, 2, range(4, 21))):
            for zero_label in (None, d - 1, 0):
                letters = rng.random((nx, d))
                if zero_label is not None:
                    letters[:, zero_label] = 0.0
                spectrum = rng.dirichlet(np.ones(d))
                for n in ns:
                    word = sorted(int(x) for x in rng.integers(0, nx, size=n))
                    site_values = letters[word]
                    for alpha in (0.1, 0.25):
                        classes = set(_window_count_classes(spectrum, n, alpha))
                        assert cross_mass(site_values, classes, d) == dict_cross_mass(
                            site_values, classes, d
                        )
        letters = np.array([[0.3, 0.0], [0.0, 0.8], [0.5, 0.2]])
        classes = set(_window_count_classes(np.array([0.4, 0.6]), 12, 0.3))
        for word in ([0] * 4 + [1] * 4 + [2] * 4, [2, 1, 0] * 4):
            site_values = letters[word]
            assert cross_mass(site_values, classes, 2) == dict_cross_mass(site_values, classes, 2)

    def test_edge_cases(self):
        vals = np.array([[0.5], [0.25], [0.5]])
        assert cross_mass(vals, {(3,)}, 1) == dict_cross_mass(vals, {(3,)}, 1) == 0.0625
        assert cross_mass(vals, set(), 1) == 0
        assert cross_mass(np.full((4, 2), 0.5), set(), 2) == 0


def typicality_outcome(verify, *args, **kwargs):
    """The report's CSV rows, or the overflow message it raised."""
    try:
        return verify(*args, **kwargs).to_csv_rows()
    except EnumerationOverflow as exc:
        return f"EnumerationOverflow: {exc}"


class TestOnePassAgainstPerBlock:
    """The one-pass verifier against the per-block-length reference, bit for bit."""

    @staticmethod
    def draw(rng):
        d, nx = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        if rng.random() < 0.25:
            # every letter leaves the last label empty: a source label below the floor
            states = [np.pad(wishart_state(rng, d - 1), (0, 1)) for _ in range(nx)]
        else:
            states = [wishart_state(rng, d, rank=int(rng.integers(1, d + 1))) for _ in range(nx)]
        w = CqChannel(tuple(range(nx)), np.stack(states))
        start = int(rng.integers(1, 6))
        stop = start + int(rng.integers(1, {2: 40, 3: 24, 4: 14}[d]))
        return w, rng.dirichlet(np.ones(nx)), range(start, stop), float(rng.uniform(0.02, 0.3))

    def test_random_channels(self):
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(48):
            w, p, ns, alpha = self.draw(rng)
            sig_spec = np.clip(np.linalg.eigvalsh(np.einsum("x,xij->ij", p, w.states)), 0, None)
            seen |= {("letters", len(w.x_alphabet)), ("start", ns.start)}
            seen |= {("floor",)} if sig_spec.min() < _SUPPORT_FLOOR else set()
            assert verify_typicality_bounds(w, p, ns, alpha).to_csv_rows() == (
                per_block_typicality_bounds(w, p, ns, alpha).to_csv_rows()
            )
        assert {("letters", 3), ("start", 1), ("floor",)} <= seen

    @pytest.mark.parametrize("ns, alpha", [(range(4, 13), 0.1), (range(60, 71), 0.2)])
    def test_readme_and_past_int64(self, ns, alpha):
        w = mirror_pair_channel()
        assert verify_typicality_bounds(w, [0.5, 0.5], ns, alpha).to_csv_rows() == (
            per_block_typicality_bounds(w, [0.5, 0.5], ns, alpha).to_csv_rows()
        )

    def test_unsorted_repeated_block_lengths(self):
        w = mirror_pair_channel()
        ns = [9, 4, 12, 4, 7]
        assert verify_typicality_bounds(w, [0.3, 0.7], ns, 0.15).to_csv_rows() == (
            per_block_typicality_bounds(w, [0.3, 0.7], ns, 0.15).to_csv_rows()
        )

    def test_caps_raise_as_per_block(self):
        # small caps make the batched checks, chunks and raises differ from
        # the default path; each run raises what the per-n reference raises
        rng = np.random.default_rng(4)
        raised = set()
        for cap in (3, 10, 30, 100, 300, 1000, 5000) * 4:
            w, p, ns, alpha = self.draw(rng)
            caps = Caps(enumeration=cap)
            got = typicality_outcome(verify_typicality_bounds, w, p, ns, alpha, caps=caps)
            assert got == typicality_outcome(per_block_typicality_bounds, w, p, ns, alpha, caps=caps)
            raised |= {word for word in ("window", "table") if isinstance(got, str) and word in got}
        assert raised == {"window", "table"}


class TestBatchedCaps:
    """caps.enumeration on the batched enumerator and the stacked DP."""

    # d=4, maximally mixed, alpha=0.3: the window candidates at the last label
    # grow with n to 702 (n=14) and 940 (n=15), above every count table (at
    # most 729 cells) and every letter's window (at most 198 candidates)
    MIXED = CqChannel((0, 1), np.stack([np.eye(4, dtype=complex) / 4] * 2))

    def test_one_block_length_over_the_window_cap(self):
        counts, bounds, over = _window_classes(np.full(4, 0.25), range(4, 16), 0.3,
                                               caps=Caps(enumeration=939))
        assert over == [None] * 11 + ["940 window candidates exceed cap 939"]
        for i, n in enumerate(range(4, 15)):
            got = [tuple(c) for c in counts[bounds[i]:bounds[i + 1]].tolist()]
            assert got == per_block_window_classes(np.full(4, 0.25), n, 0.3)
        assert bounds[-2] == bounds[-1]

    @pytest.mark.parametrize("ns", [range(4, 16), [9, 15, 4, 12]])
    def test_verifier_raises_with_that_count(self, ns):
        caps = Caps(enumeration=939)
        with pytest.raises(EnumerationOverflow, match="^940 window candidates exceed cap 939$"):
            verify_typicality_bounds(self.MIXED, [0.5, 0.5], ns, 0.3, caps=caps)
        rep = verify_typicality_bounds(self.MIXED, [0.5, 0.5], range(4, 15), 0.3, caps=caps)
        assert rep.rows == verify_typicality_bounds(self.MIXED, [0.5, 0.5], range(4, 15), 0.3).rows

    def test_cap_at_the_largest_table_chunks_the_stack(self):
        rng = np.random.default_rng(5)
        w = CqChannel((0, 1, 2), np.stack([wishart_state(rng, 3) for _ in range(3)]))
        p, ns = [0.2, 0.3, 0.5], range(3, 31)
        sig_spec = np.clip(stable_eigh(np.einsum("x,xij->ij", p, w.states))[0], 0, None)
        cells = max(
            int(np.prod(np.array(classes)[:, :2].max(axis=0) + 1))
            for n in ns if (classes := per_block_window_classes(sig_spec, n, 0.1))
        )
        rep = verify_typicality_bounds(w, p, ns, 0.1, caps=Caps(enumeration=cells))
        assert rep.to_csv_rows() == verify_typicality_bounds(w, p, ns, 0.1).to_csv_rows()
        with pytest.raises(EnumerationOverflow, match=f"^count table of {cells} cells exceeds"):
            verify_typicality_bounds(w, p, ns, 0.1, caps=Caps(enumeration=cells - 1))


def smallest_fitting_cap(w, p, ns, alpha):
    """The least caps.enumeration under which the per-block reference raises nothing."""
    lo, hi = 1, Caps().enumeration
    while lo < hi:
        mid = (lo + hi) // 2
        fits = not isinstance(typicality_outcome(per_block_typicality_bounds, w, p, ns, alpha,
                                                 caps=Caps(enumeration=mid)), str)
        lo, hi = (lo, mid) if fits else (mid + 1, hi)
    return lo


class TestPrefixSharedTables:
    """The one-pass verifier at the benchmark's shapes and where words share prefixes."""

    @staticmethod
    def wishart_channel(seed, d, nx=2):
        rng = np.random.default_rng(seed)
        return CqChannel(tuple(range(nx)), np.stack([wishart_state(rng, d) for _ in range(nx)]))

    @pytest.mark.parametrize("d, ns, seed", [(2, range(4, 73), 40), (3, range(4, 49), 31),
                                             (4, range(4, 37), 32), (4, range(4, 37), 33)])
    def test_benchmark_shapes_against_per_block(self, d, ns, seed):
        # two letters and alpha = 0.1 at the block lengths of the benchmark's
        # draws, up to its largest count tables; at d = 2 the source ranks of
        # seed 40 pass 2**63 from n = 65
        w = self.wishart_channel(seed, d)
        u = np.random.default_rng(seed).uniform(0.3, 0.7)
        p = [u, 1.0 - u]
        assert verify_typicality_bounds(w, p, ns, 0.1).to_csv_rows() == (
            per_block_typicality_bounds(w, p, ns, 0.1).to_csv_rows())

    def test_three_letters_sharing_two_runs(self):
        # most of the word is letter 2, so consecutive n agree on the runs of
        # letters 0 and 1 and read one table through them
        w = self.wishart_channel(34, 3, nx=3)
        p, ns = [0.1, 0.15, 0.75], range(4, 31)
        heads = {}
        for n in ns:
            m = np.floor(n * np.array(p)).astype(int)
            order = np.argsort(np.floor(n * np.array(p)) - n * np.array(p), kind="stable")
            m[order[: n - m.sum()]] += 1
            heads.setdefault(tuple(m[:2]), set()).add(int(m[2]))
        assert max(len(tails) for tails in heads.values()) >= 4
        assert verify_typicality_bounds(w, p, ns, 0.15).to_csv_rows() == (
            per_block_typicality_bounds(w, p, ns, 0.15).to_csv_rows())

    @pytest.mark.parametrize("d, ns, seed", [(3, range(4, 49), 31), (4, range(4, 37), 32)])
    def test_cap_boundary(self, d, ns, seed):
        w, p = self.wishart_channel(seed, d), [0.45, 0.55]
        cap = smallest_fitting_cap(w, p, ns, 0.1)
        rows = verify_typicality_bounds(w, p, ns, 0.1, caps=Caps(enumeration=cap)).to_csv_rows()
        assert rows == verify_typicality_bounds(w, p, ns, 0.1).to_csv_rows()
        below = Caps(enumeration=cap - 1)
        got = typicality_outcome(verify_typicality_bounds, w, p, ns, 0.1, caps=below)
        assert got.startswith("EnumerationOverflow: ")
        assert got == typicality_outcome(per_block_typicality_bounds, w, p, ns, 0.1, caps=below)


class TestTypicalityBoundaryOverride:
    def test_guard_reaches_the_verifier(self):
        # spectrum (3/4, 1/4), n=4, alpha=0.1: only the count 1 of label 1 is
        # typical; a guard of 0.2 widens the window to the counts 0..2
        w = CqChannel((0, 1), np.stack([np.diag([0.75, 0.25]).astype(complex)] * 2))
        args = (w, [0.5, 0.5], range(4, 9), 0.1)
        wide = Tolerances(typicality_boundary=0.2)
        rows = verify_typicality_bounds(*args, tol=wide).to_csv_rows()
        assert rows != verify_typicality_bounds(*args).to_csv_rows()
        assert rows == per_block_typicality_bounds(*args, tol=wide).to_csv_rows()


class TestRangeCap:
    def test_range_past_the_cap_is_read_one_past_it(self):
        # the block lengths are read lazily: cap + 1 of them decide, and the
        # rest of an endless range is never listed
        read = []

        def lengths():
            for n in count(4):
                read.append(n)
                yield n

        with pytest.raises(EnumerationOverflow,
                           match="^n_range holds more than 11 block lengths, the enumeration cap$"):
            verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], lengths(), 0.1,
                                     caps=Caps(enumeration=11))
        assert read == list(range(4, 16))

    def test_range_within_the_cap_runs(self):
        # 9 block lengths under a cap of 11: the rows of the default cap
        args = (mirror_pair_channel(), [0.5, 0.5], range(4, 13), 0.1)
        assert (verify_typicality_bounds(*args, caps=Caps(enumeration=11)).to_csv_rows()
                == verify_typicality_bounds(*args).to_csv_rows())

    def test_range_of_1e20_is_refused(self):
        with pytest.raises(EnumerationOverflow, match="more than 1048576 block lengths"):
            verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(4, 10**20 + 1), 0.1)


NAN, INF = float("nan"), float("inf")
HALF = np.diag([0.5, 0.5])


class TestBoundaryValidation:
    """Block lengths, windows and letters are refused with a ToolkitError at
    the boundary, before any enumeration."""

    @pytest.mark.parametrize("call, error, text", [
        (lambda: typical_set([0.5, 0.5], -1, 0.3), InvalidArgument, "block length"),
        (lambda: typical_set([0.5, 0.5], 0, 0.3), InvalidArgument, "block length"),
        (lambda: typical_set([0.5, 0.5], 2.0, 0.3), InvalidArgument, "block length"),
        (lambda: typical_set([0.5, 0.5], True, 0.3), InvalidArgument, "block length"),
        (lambda: typical_set([0.5, 0.5], 4, -1.0), InvalidArgument, "delta"),
        (lambda: typical_set([0.5, 0.5], 4, NAN), InvalidArgument, "delta"),
        (lambda: typical_set([0.5, 0.5], 4, INF), InvalidArgument, "delta"),
        (lambda: typical_set([0.5, 0.5], 4, True), InvalidArgument, "delta"),
        (lambda: typical_set([NAN, 1.0], 4, 0.3), InvalidArgument, "not finite"),
        # block lengths past int64 are refused before any count array is cast;
        # 2^63 - 1 passes, and its window is refused by the cap
        (lambda: typical_set([0.9, 0.1], 2**63, 0.1), InvalidArgument,
         r"block length 9223372036854775808 exceeds 2\^63 - 1"),
        (lambda: typical_set([0.9, 0.1], 2**63 - 1, 0.1), EnumerationOverflow,
         "window candidates exceed cap"),
        (lambda: typical_projector(HALF, -1, 0.1), InvalidArgument, "block length"),
        (lambda: typical_projector(HALF, 0, 0.1), InvalidArgument, "block length"),
        (lambda: typical_projector(HALF, 2.0, 0.1), InvalidArgument, "block length"),
        (lambda: typical_projector(HALF, 3, 0.0), InvalidArgument, "alpha"),
        (lambda: typical_projector(HALF, 3, NAN), InvalidArgument, "alpha"),
        (lambda: typical_projector(HALF, 2**63, 0.1), InvalidArgument,
         "block length 9223372036854775808"),
        (lambda: conditional_typical_projector(mirror_pair_channel(), (), 0.1),
         InvalidArgument, "block length"),
        (lambda: conditional_typical_projector(mirror_pair_channel(), (0, 2, 1), 0.1),
         AlphabetMismatch, r"letters \[2\]"),
        (lambda: conditional_typical_projector(mirror_pair_channel(), (0, 1), -1.0),
         InvalidArgument, "alpha"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], [], 0.1),
         InvalidArgument, "n_range"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(-2, 4), 0.1),
         InvalidArgument, "block length"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], [4, 5.0], 0.1),
         InvalidArgument, "block length"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], [4, 2**63], 0.1),
         InvalidArgument, "block length 9223372036854775808"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], [10**20], 0.1),
         InvalidArgument, f"block length {10**20}"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(4, 8), -1.0),
         InvalidArgument, "alpha"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(4, 8), NAN),
         InvalidArgument, "alpha"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(4, 8), INF),
         InvalidArgument, "alpha"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], range(4, 8), True),
         InvalidArgument, "alpha"),
        (lambda: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5, 0.0], range(4, 8), 0.1),
         AlphabetMismatch, "distribution over 3 letters, channel has 2"),
    ], ids=[
        "set n=-1", "set n=0", "set n=2.0", "set n=True", "set delta<0", "set delta nan",
        "set delta inf", "set delta=True", "set p nan", "set n=2^63", "set n=2^63-1",
        "projector n=-1", "projector n=0",
        "projector n=2.0", "projector alpha=0", "projector alpha nan", "projector n=2^63",
        "conditional empty word",
        "conditional stray letter", "conditional alpha<0", "verify empty range",
        "verify n=-2", "verify n=5.0", "verify n=2^63", "verify n=10^20", "verify alpha<0",
        "verify alpha nan", "verify alpha inf",
        "verify alpha=True",
        "verify p over 3 letters",
    ])
    def test_refused(self, call, error, text):
        with pytest.raises(error, match=text) as exc:
            call()
        assert isinstance(exc.value, ToolkitError)

    def test_integer_types_accepted(self):
        assert typical_set([0.5, 0.5], np.int64(2), 2.0) == typical_set([0.5, 0.5], 2, 2.0)
        rep = verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], np.arange(4, 7), 0.1)
        assert [r.n for r in rep.rows[:3]] == [4, 5, 6]
