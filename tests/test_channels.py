import numpy as np
import pytest

from avcqc import (
    Avcqc,
    CorrelatedSource,
    CqChannel,
    JammerKernel,
    averaged_channel,
    cq_diamond_distance,
    product_output,
    source_distance,
    zero_capacity_condition,
)
from avcqc.config import DEFAULT_TOL, Caps
from avcqc.errors import (
    AlphabetMismatch,
    DimOverflow,
    InvalidArgument,
    InvalidJoint,
    LengthMismatch,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)
from avcqc.operators import partial_trace, trace_distance, trace_norm
from helpers import ONE, ZERO, bitflip_channel, constant_channel, orthogonal_channel, wishart_state


class TestAveragedChannel:
    def test_single_state_identity(self):
        states = np.stack([[ZERO], [ONE]])
        w = Avcqc((0, 1), ("s",), states)
        q = JammerKernel.uniform((0, 1), ("s",))
        avg = averaged_channel(w, q)
        assert np.allclose(avg.states[0], ZERO)
        assert np.allclose(avg.states[1], ONE)

    def test_bitflip_uniform_kernel_mixes_fully(self):
        avg = averaged_channel(bitflip_channel(), JammerKernel.uniform((0, 1), (0, 1)))
        for i in range(2):
            assert np.allclose(avg.states[i], np.eye(2) / 2, atol=1e-12)

    def test_deterministic_kernel_selects_column(self):
        w = bitflip_channel()
        q = JammerKernel((0, 1), (0, 1), np.array([[1.0, 0.0], [1.0, 0.0]]))
        avg = averaged_channel(w, q)
        assert np.allclose(avg.states[0], ZERO)
        assert np.allclose(avg.states[1], ONE)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            averaged_channel(bitflip_channel(), JammerKernel.uniform((0, 1), (0, 1, 2)))

    def test_affine_in_kernel(self):
        rng = np.random.default_rng(3)
        w = bitflip_channel()
        qa = rng.dirichlet(np.ones(2), size=2)
        qb = rng.dirichlet(np.ones(2), size=2)
        for lam in (0.25, 0.5, 0.75):
            mix = JammerKernel((0, 1), (0, 1), lam * qa + (1 - lam) * qb)
            direct = averaged_channel(w, mix).states
            combo = (
                lam * averaged_channel(w, JammerKernel((0, 1), (0, 1), qa)).states
                + (1 - lam) * averaged_channel(w, JammerKernel((0, 1), (0, 1), qb)).states
            )
            assert np.allclose(direct, combo, atol=1e-12)


class TestProductOutput:
    def test_single_letter(self):
        w = bitflip_channel()
        assert np.allclose(product_output(w, (1,), (1,)), ZERO)

    def test_two_letter_pure_product(self):
        w = bitflip_channel()
        got = product_output(w, (0, 1), (1, 1))
        assert np.allclose(got, np.kron(ONE, ZERO), atol=1e-12)

    def test_dim_overflow_guard(self):
        w = bitflip_channel()
        with pytest.raises(DimOverflow):
            product_output(w, (0,) * 13, (0,) * 13)
        with pytest.raises(DimOverflow):
            product_output(w, (0,) * 3, (0,) * 3, caps=Caps(product_dim=4))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            product_output(bitflip_channel(), (0, 1), (0,))

    def test_marginals_match_letters(self):
        rng = np.random.default_rng(5)
        states = np.stack([[wishart_state(rng, 2) for _ in range(2)] for _ in range(2)])
        w = Avcqc((0, 1), (0, 1), states)
        xs, ss = (0, 1, 1), (1, 0, 1)
        full = product_output(w, xs, ss)
        for i in range(3):
            red = full
            dims = [2, 2, 2]
            # trace out all positions except i
            for pos in sorted([p for p in range(3) if p != i], reverse=True):
                red = partial_trace(red, dims, pos)
                dims.pop(pos)
            assert np.allclose(red, w.state(xs[i], ss[i]), atol=1e-10)


class TestDiamondDistance:
    def test_same_channel(self):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        assert cq_diamond_distance(w, w) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_difference(self):
        w1 = CqChannel((0, 1), np.stack([ZERO, ONE]))
        w2 = CqChannel((0, 1), np.stack([ONE, ONE]))
        assert cq_diamond_distance(w1, w2) == pytest.approx(2.0, abs=1e-12)

    def test_equals_trace_norm_max_over_letters(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            s1 = np.stack([wishart_state(rng, 2) for _ in range(2)])
            s2 = np.stack([wishart_state(rng, 2) for _ in range(2)])
            w1, w2 = CqChannel((0, 1), s1), CqChannel((0, 1), s2)
            direct = max(2 * trace_distance(s1[i], s2[i]) for i in range(2))
            assert cq_diamond_distance(w1, w2) == pytest.approx(direct, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(10)
        chans = [
            CqChannel((0, 1), np.stack([wishart_state(rng, 2) for _ in range(2)]))
            for _ in range(6)
        ]
        for a in chans:
            for b in chans:
                assert cq_diamond_distance(a, b) == pytest.approx(
                    cq_diamond_distance(b, a), abs=1e-12
                )
                for c in chans:
                    assert cq_diamond_distance(a, c) <= (
                        cq_diamond_distance(a, b) + cq_diamond_distance(b, c) + 1e-9
                    )

    def test_two_letter_blocks_subadditive(self):
        # product-input differences at n=2 never exceed the sum of two
        # single-letter differences, consistent with the n=1 reduction
        rng = np.random.default_rng(12)
        s1 = np.stack([wishart_state(rng, 2) for _ in range(2)])
        s2 = np.stack([wishart_state(rng, 2) for _ in range(2)])
        w1, w2 = CqChannel((0, 1), s1), CqChannel((0, 1), s2)
        d1 = cq_diamond_distance(w1, w2)
        for x1 in range(2):
            for x2 in range(2):
                block = trace_norm(np.kron(s1[x1], s1[x2]) - np.kron(s2[x1], s2[x2]))
                assert block / 2 <= d1 + 1e-9


class TestSourceDistance:
    def test_identical(self):
        s = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        assert source_distance(s, s) == 0.0

    def test_perfect_vs_uniform(self):
        a = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        b = CorrelatedSource((0, 1), (0, 1), [[0.25, 0.25], [0.25, 0.25]])
        assert source_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_sequence_source_distance(self):
        # direct subtraction: four entries each off by 1/8 at n = 3
        eps = 2.0 ** -3
        seq = CorrelatedSource((0, 1), (0, 1), [[0.5 - eps, eps], [eps, 0.5 - eps]])
        limit = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        assert source_distance(seq, limit) == pytest.approx(0.5, abs=1e-12)


class TestJammerStrategy:
    def test_full_table_is_total(self):
        from avcqc import JammerStrategy

        strat = JammerStrategy.full((0, 1), 2, lambda xs: tuple(1 - x for x in xs))
        assert len(strat.table) == 4
        assert strat((0, 1)) == (1, 0)
        assert strat((1, 1)) == (0, 0)


class TestCorrelatedSourceTransition:
    def test_transition_consistent_with_joint(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
            src = CorrelatedSource((0, 1), (0, 1), joint)
            trans = src.sender_given_receiver
            pv = src.receiver_marginal
            assert np.allclose(trans * pv[None, :], src.joint, atol=1e-10)
            assert np.allclose(trans.sum(axis=0)[pv > 0], 1.0, atol=1e-10)


class TestZeroCapacityCondition:
    def test_constant_channel_true(self):
        assert zero_capacity_condition(constant_channel(), n=1) is True
        assert zero_capacity_condition(constant_channel(), n=2) is True

    def test_bitflip_true_at_one(self):
        assert zero_capacity_condition(bitflip_channel(), n=1) is True

    def test_orthogonal_false(self):
        assert zero_capacity_condition(orthogonal_channel(), n=1) is False


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


class TestStackedValidation:
    """Each constructor validates its whole array in one call, refuses
    non-finite entries and names the first offender of a stack."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cq_channel_refuses_non_finite(self, bad):
        states = np.stack([ZERO, ONE, np.eye(2) / 2])
        states[1, 0, 1] = bad
        with pytest.raises(InvalidArgument, match=r"^at \[1, 0, 1\]: entry .* is not finite"):
            CqChannel((0, 1, 2), states)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_avcqc_refuses_non_finite(self, bad):
        states = np.array(bitflip_channel().states)
        states[1, 0, 1, 1] = bad
        with pytest.raises(InvalidArgument, match=r"^at \[1, 0, 1, 1\]: entry "):
            Avcqc((0, 1), (0, 1), states)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_jammer_kernel_refuses_non_finite(self, bad):
        rows = np.full((3, 2), 0.5)
        rows[2, 1] = bad
        with pytest.raises(InvalidArgument, match=r"^at \[2, 1\]: entry "):
            JammerKernel((0, 1, 2), (0, 1), rows)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_correlated_source_refuses_non_finite(self, bad):
        joint = np.full((2, 2), 0.25)
        joint[1, 0] = bad
        with pytest.raises(InvalidArgument, match=r"^at \[1, 0\]: entry "):
            CorrelatedSource((0, 1), (0, 1), joint)

    @pytest.mark.parametrize("bad, error, text", [
        (np.array([[0.5, 0.6], [0.6, 0.5]]), NotPositive, "minimum eigenvalue -1.000e-01"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitian, "max |m - m†| entry is 5.000e-01"),
        (np.eye(2), TraceNotOne, "trace is 2.0"),
    ], ids=["indefinite", "non-hermitian", "trace two"])
    def test_one_bad_state_in_the_middle_is_named(self, bad, error, text):
        rng = np.random.default_rng(8)
        states = np.stack([[wishart_state(rng, 2) for _ in range(3)] for _ in range(3)])
        states[1, 1] = bad
        with pytest.raises(error, match=r"^at \[1, 1\]: ") as exc:
            Avcqc((0, 1, 2), ("a", "b", "c"), states)
        assert text in str(exc.value)
        with pytest.raises(error, match=r"^at \[4\]: "):
            CqChannel(tuple(range(9)), states.reshape(9, 2, 2))

    def test_kernel_row_named(self):
        with pytest.raises(InvalidJoint, match=r"^at \[1\]: weights sum to 0.9"):
            JammerKernel((0, 1, 2), (0, 1), [[0.5, 0.5], [0.5, 0.4], [1.0, 0.0]])
        with pytest.raises(InvalidJoint, match=r"^at \[2\]: negative weight -1.000e-01"):
            JammerKernel((0, 1, 2), (0, 1), [[0.5, 0.5], [0.5, 0.5], [1.1, -0.1]])

    def test_kernel_stores_rounding_negatives_as_zero(self):
        # an entry in [-prob_sum, 0) is rounding: the kernel keeps its rows
        # clipped at +0.0, read-only, as CorrelatedSource keeps its joint
        for neg in (-1e-13, -DEFAULT_TOL.prob_sum):
            q = JammerKernel((0, 1), (0, 1), np.array([[0.25, 0.75], [1.0 - neg, neg]]))
            assert q.rows.tobytes() == np.array([[0.25, 0.75], [1.0 - neg, 0.0]]).tobytes()
            assert not q.rows.flags.writeable

    def test_state_table_shape_mismatch(self):
        with pytest.raises(AlphabetMismatch, match=r"table \(2,\) does not match alphabet \(3,\)"):
            CqChannel((0, 1, 2), np.stack([ZERO, ONE]))
        with pytest.raises(AlphabetMismatch, match=r"state table \(2, 2\)"):
            Avcqc((0, 1), (0,), bitflip_channel().states)

    def test_empty_input_alphabet_refused(self):
        with pytest.raises(AlphabetMismatch, match=r"state table \(0,\) has an empty alphabet"):
            CqChannel((), np.zeros((0, 2, 2)))

    def test_empty_state_alphabet_refused(self):
        # before the check, capacity_informed_jammer divided by |S| = 0
        with pytest.raises(AlphabetMismatch, match=r"state table \(1, 0\) has an empty alphabet"):
            Avcqc((0,), (), np.zeros((1, 0, 2, 2)))

    def test_empty_kernel_alphabets_refused(self):
        with pytest.raises(AlphabetMismatch, match=r"kernel shape \(0, 0\) has an empty alphabet"):
            JammerKernel((), (), np.zeros((0, 0)))

    def test_repeated_label_refused(self):
        with pytest.raises(AlphabetMismatch, match=r"joint shape \(2, 2\): label 0 repeats"):
            CorrelatedSource((0, 0), (0, 1), [[0.45, 0.05], [0.05, 0.45]])
        with pytest.raises(AlphabetMismatch, match=r"joint shape \(2, 2\): label 'b' repeats"):
            CorrelatedSource(("a", "b"), ("b", "b"), [[0.45, 0.05], [0.05, 0.45]])
        with pytest.raises(AlphabetMismatch, match=r"state table \(2, 2\): label 1 repeats"):
            Avcqc((0, 1), (1, 1), bitflip_channel().states)
        with pytest.raises(AlphabetMismatch, match=r"table \(2,\): label 'x' repeats"):
            CqChannel(("x", "x"), np.stack([ZERO, ONE]))

    def test_source_shape_mismatch_named(self):
        with pytest.raises(AlphabetMismatch, match=r"joint shape \(2, 2\) does not match alphabets \(2, 3\)"):
            CorrelatedSource((0, 1), (0, 1, 2), [[0.45, 0.05], [0.05, 0.45]])

    def test_input_arrays_stored_unchanged(self):
        rng = np.random.default_rng(9)
        states = np.stack([[wishart_state(rng, 3) for _ in range(2)] for _ in range(2)])
        states[0, 1, 0, 1] += 1e-13  # Hermitian within tolerance, but not exactly
        w = Avcqc((0, 1), (0, 1), states)
        assert w.states.tobytes() == states.astype(complex).tobytes()
        assert not w.states.flags.writeable
