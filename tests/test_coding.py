import dataclasses
from itertools import combinations, product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcqc import (
    Avcqc,
    CorrelatedSource,
    CorrelationCode,
    DeterministicCode,
    RandomCode,
    assemble_two_part,
    build_g_pair,
    correlation_code_error_informed,
    cr_generation_run,
    random_code_error_informed,
    repetition_precode,
    separation_test,
    worst_case_error_informed,
)
from avcqc import channels, coding
from avcqc import serialize as io
from avcqc.channels import product_output
from avcqc.coding import two_part_error_informed, worst_case_error_brute_force
from avcqc.config import DEFAULT_CAPS, Caps
from avcqc.errors import (
    AlphabetMismatch,
    DimensionMismatch,
    DimOverflow,
    EnumerationOverflow,
    InvalidArgument,
    KeySetMismatch,
    NotHermitian,
    NotPositive,
)
from avcqc.separation import SeparationCertificate
from helpers import (
    ONE,
    PLUS,
    ZERO,
    bitflip_channel,
    constant_channel,
    cr_generation_reference,
    einsum_success_table,
    einsum_success_tables,
    flip_source,
    kron_chain_precode,
    orthogonal_channel,
    per_codeword_success_table,
    random_avcqc,
    random_povm_stack,
    separable_instance,
    success_table,
    two_part_error_reference,
    wishart_state,
)

MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def projective_code(n, words):
    """Codebook of basis words with the matching projective decoder."""
    basis = {0: ZERO, 1: ONE}
    decs = []
    for wd in words:
        m = np.ones((1, 1), dtype=complex)
        for c in wd:
            m = np.kron(m, basis[c])
        decs.append(m)
    return DeterministicCode(n, tuple(words), np.stack(decs))


def random_projective_code(rng, n, j, allow_duplicates=False):
    """Random codebook with a Haar-rotated projective decoder."""
    dim = 2 ** n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    words = []
    for _ in range(j):
        words.append(tuple(int(b) for b in rng.integers(0, 2, size=n)))
    if allow_duplicates and j >= 2:
        words[1] = words[0]
    # partition basis projectors among the messages
    decs = np.stack([u[:, k::j] @ u[:, k::j].conj().T for k in range(j)])
    return DeterministicCode(n, tuple(words), decs)


class TestDeterministicWorstCase:
    def test_orthogonal_codewords_error_free(self):
        code = projective_code(2, [(0, 0), (1, 1)])
        assert worst_case_error_informed(code, orthogonal_channel()) == pytest.approx(0.0, abs=1e-12)

    def test_bitflip_single_letter_fully_jammed(self):
        code = projective_code(1, [(0,), (1,)])
        # 4 jammer functions enumerated: the flip function defeats the decoder
        assert worst_case_error_informed(code, bitflip_channel()) == pytest.approx(1.0, abs=1e-12)
        assert worst_case_error_brute_force(code, bitflip_channel()) == pytest.approx(1.0, abs=1e-12)

    def test_single_state_equals_fixed_channel_error(self):
        states = np.stack([[ZERO], [ONE]])
        w = Avcqc((0, 1), ("s",), states)
        code = projective_code(2, [(0, 0), (1, 1)])
        err = worst_case_error_informed(code, w)
        # fixed channel: per-message success is tr(rho D) directly
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_random_codes(self):
        rng = np.random.default_rng(51)
        for k in range(20):
            n = int(rng.integers(2, 4))
            j = int(rng.integers(2, 4))
            w = random_avcqc(rng, dim=2)
            code = random_projective_code(rng, n, j, allow_duplicates=(k % 4 == 0))
            fast = worst_case_error_informed(code, w)
            brute = worst_case_error_brute_force(code, w)
            assert fast == pytest.approx(brute, abs=1e-12)

    def test_monotone_in_jammer_alphabet(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            base = random_avcqc(rng, ns=2)
            extra = np.stack(
                [base.states[x, int(rng.integers(2))] for x in range(2)]
            )[:, None]
            larger = Avcqc((0, 1), (0, 1, 2), np.concatenate([base.states, extra], axis=1))
            code = random_projective_code(rng, 2, 2)
            assert worst_case_error_informed(code, larger) >= (
                worst_case_error_informed(code, base) - 1e-12
            )

    def test_letter_outside_the_input_alphabet_refused(self):
        code = DeterministicCode(1, ((0,), (2,)), np.stack([ZERO, ONE]))
        with pytest.raises(
            AlphabetMismatch,
            match=r"letter 2 of codeword \(2,\) is not in the channel's input alphabet \(0, 1\)",
        ):
            worst_case_error_informed(code, orthogonal_channel())

    def test_povm_validation(self):
        bad = np.stack([1.5 * np.kron(ZERO, ZERO), np.kron(ONE, ONE), np.kron(ZERO, ONE)])
        with pytest.raises(NotPositive):
            DeterministicCode(2, ((0, 0), (1, 1), (0, 1)), bad)


def product_success(w, xs, ss, g_t):
    """tr(product_output(w, xs, ss) G) from g_t = G.T, without the D x D matrix product."""
    return float(np.real(np.dot(product_output(w, xs, ss).ravel(), g_t.ravel())))


@st.composite
def stacked_rows(draw):
    """A channel, 1-6 rows of (letter indices, state indices, operator
    stack), the stacks as one array, a list of arrays or a list of strided
    views, and a stacking budget that puts chunk boundaries anywhere from
    every row to none."""
    d, nx, ns = draw(st.sampled_from((2, 3))), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n, rows = draw(st.integers(1, 4 if d == 2 else 3)), draw(st.integers(1, 6))
    batch = draw(st.sampled_from(((), (2,), (3, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = Avcqc(tuple("pqr"[:nx]), tuple("abc"[:ns]),
              np.stack([[wishart_state(rng, d) for _ in range(ns)] for _ in range(nx)]))
    shape = (*batch, rows, d ** n, d ** n)
    ops = np.moveaxis(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), -3, 0)
    layout = draw(st.sampled_from(("array", "list", "strided")))
    if layout != "strided":
        ops = np.ascontiguousarray(ops)
    if layout != "array":
        ops = list(ops)
    per_row = int(np.prod(batch)) * max(d ** (2 * n), ns ** n)
    budget = draw(st.sampled_from((1, per_row, 2 * per_row - 1, 2 * per_row, 5 * per_row, 1 << 15)))
    return w, rng.integers(0, nx, (rows, n)), rng.integers(0, ns, (rows, n)), ops, budget


@settings(max_examples=300, derandomize=True, deadline=None)
@given(stacked_rows(), st.booleans())
def test_stacked_tables_equal_the_per_codeword_contraction(instance, at_state_words):
    w, xi, si, ops, budget = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coding, "_STACK_ENTRIES", budget)
        got = coding._success_tables(w, xi, ops, si if at_state_words else None)
    words = () if at_state_words else (len(w.s_alphabet) ** xi.shape[1],)
    assert got.shape == (len(xi), *ops[0].shape[:-2], *words)
    for row, states, g, table in zip(xi, si, ops, got):
        xs = tuple(w.x_alphabet[i] for i in row)
        ss = tuple(w.s_alphabet[i] for i in states) if at_state_words else None
        assert np.array_equal(table.ravel(), per_codeword_success_table(w, xs, g, ss))


class TestContraction:
    def test_table_matches_product_states(self):
        # d = |S| = 3, non-Hermitian G and non-index letters expose any swapped leg
        rng = np.random.default_rng(71)
        states = np.stack([[wishart_state(rng, 3) for _ in range(3)] for _ in range(3)])
        w = Avcqc(("p", "q", "r"), ("a", "b", "c"), states)
        g = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
        xs = ("r", "p", "q")
        table = success_table(w, xs, g)
        want = [product_success(w, xs, ss, g.T) for ss in iproduct(w.s_alphabet, repeat=3)]
        assert np.allclose(table, want, rtol=0.0, atol=1e-12)

    def test_table_matches_einsum_reference_at_d3(self):
        rng = np.random.default_rng(72)
        states = np.stack([[wishart_state(rng, 3) for _ in range(3)] for _ in range(3)])
        w = Avcqc(("p", "q", "r"), ("a", "b", "c"), states)
        g = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
        for xs in (("r", "p", "q"), ("q",), ("p", "p")):
            g_n = g[: 3 ** len(xs), : 3 ** len(xs)]
            table = success_table(w, xs, g_n)
            assert np.abs(table - einsum_success_table(w, xs, g_n)).max() <= 1e-13

    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_matches_einsum_reference_at_d2(self, n):
        rng = np.random.default_rng([97, n])
        w = random_avcqc(rng)
        g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
        xs = tuple(int(b) for b in rng.integers(0, 2, n))
        table = success_table(w, xs, g)
        assert np.abs(table - einsum_success_table(w, xs, g)).max() <= 1e-13

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
    def test_one_state_word_gives_the_column_of_the_table(self, d, n):
        rng = np.random.default_rng([107, d])
        states = np.stack([[wishart_state(rng, d) for _ in range(3)] for _ in range(d)])
        w = Avcqc(tuple("pqr"[:d]), ("a", "b", "c"), states)
        xs = tuple(w.x_alphabet[i] for i in rng.integers(0, d, n))
        shape = (3, d ** n, d ** n)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.array([einsum_success_table(w, xs, g_m) for g_m in g])   # (3, |S|^n)
        assert np.abs(success_table(w, xs, g).reshape(want.shape) - want).max() <= 1e-13
        for i, ss in enumerate(iproduct(w.s_alphabet, repeat=n)):
            got = success_table(w, xs, g, ss)
            assert got.shape == (3,)
            assert np.abs(got - want[:, i]).max() <= 1e-13

    @pytest.mark.parametrize("n", range(4, 9))
    def test_evaluators_match_with_the_einsum_reference(self, n, monkeypatch):
        rng = np.random.default_rng([101, n])
        w = random_avcqc(rng)
        det = random_projective_code(rng, n, 4, allow_duplicates=True)
        other = random_projective_code(rng, n, 4)
        rand = RandomCode((det, other))
        corr = CorrelationCode(
            l=1, n=n, v_prime_words=((0,), (1,)), v_words=((0,), (1,)),
            encoders=[det.codebook, (det.codebook[0],) + other.codebook[1:]],
            decoders=np.stack([det.decoders, other.decoders]),
        )
        src = flip_source(0.1)

        def evaluate():
            return [
                worst_case_error_informed(det, w, return_strategy=True),
                random_code_error_informed(rand, w, return_strategy=True),
                correlation_code_error_informed(corr, w, src, return_strategy=True),
            ]

        got = evaluate()
        monkeypatch.setattr(coding, "_success_tables", einsum_success_tables)
        for (err, strategy), (want, want_strategy) in zip(got, evaluate()):
            assert abs(err - want) <= 1e-14
            assert strategy == want_strategy

    def test_n10_under_default_caps(self):
        rng = np.random.default_rng(73)
        w = random_avcqc(rng)
        code = random_projective_code(rng, 10, 4)
        err, strategy = worst_case_error_informed(code, w, return_strategy=True)
        grouped = {}
        for j, xs in enumerate(code.codebook):
            grouped[xs] = grouped.get(xs, 0) + code.decoders[j] / 4
        total = 0.0
        for xs, g in grouped.items():
            g_t = np.ascontiguousarray(g.T)
            chosen = strategy(xs)
            success = product_success(w, xs, chosen, g_t)
            one_err, one = coding._informed_error(w, 10, [(xs, g)], 1.0, DEFAULT_CAPS, True)
            assert one(xs) == chosen
            assert success == pytest.approx(1.0 - one_err, abs=1e-12)
            for ss in rng.integers(0, 2, size=(32, 10)):
                assert success <= product_success(w, xs, tuple(int(s) for s in ss), g_t) + 1e-12
            total += success
        assert err == pytest.approx(1.0 - total, abs=1e-12)

    def test_state_independent_channel_picks_first_word(self):
        rng = np.random.default_rng(79)
        rows = [wishart_state(rng, 2) for _ in range(2)]
        w = Avcqc((0, 1), ("a", "b", "c"), np.stack([[r] * 3 for r in rows]))
        det = random_projective_code(rng, 4, 4)
        rand = RandomCode((random_projective_code(rng, 4, 3), random_projective_code(rng, 4, 3)))
        for _, strategy in (
            worst_case_error_informed(det, w, return_strategy=True),
            random_code_error_informed(rand, w, return_strategy=True),
        ):
            assert set(strategy.table.values()) == {("a",) * 4}

    def test_evaluator_builds_no_product_state(self, monkeypatch):
        rng = np.random.default_rng(83)
        w = random_avcqc(rng)
        code = random_projective_code(rng, 3, 3)
        want = worst_case_error_brute_force(code, w)

        def refuse(*args, **kwargs):
            raise AssertionError("product state built")

        monkeypatch.setattr(coding, "product_output", refuse)
        assert worst_case_error_informed(code, w) == pytest.approx(want, abs=1e-12)
        with pytest.raises(AssertionError, match="product state built"):
            worst_case_error_brute_force(code, w)

    def test_product_dim_bounds_the_operator_side(self):
        caps = Caps(product_dim=8)      # d^n = 16 at n = 4, d = 2
        rng = np.random.default_rng(89)
        w = random_avcqc(rng)
        det = random_projective_code(rng, 4, 2)
        src = CorrelatedSource(("u",), ("v",), [[1.0]])
        with pytest.raises(DimOverflow):
            worst_case_error_informed(det, w, caps)
        with pytest.raises(DimOverflow):
            random_code_error_informed(RandomCode((det, det)), w, caps)
        with pytest.raises(DimOverflow):
            correlation_code_error_informed(trivial_correlation_code(det), w, src, caps)


class TestRandomCodeError:
    def test_single_key_reduces_to_deterministic(self):
        rng = np.random.default_rng(57)
        w = random_avcqc(rng)
        det = random_projective_code(rng, 2, 2)
        rand = RandomCode((det,))
        assert random_code_error_informed(rand, w) == pytest.approx(
            worst_case_error_informed(det, w), abs=1e-14
        )

    def test_key_masking_beats_worst_single_key(self):
        # conjugate bases keyed against a codeword-informed jammer
        w = orthogonal_channel()
        det0 = projective_code(1, [(0,), (1,)])
        det1 = DeterministicCode(1, ((0,), (1,)), np.stack([PLUS, MINUS]))
        rand = RandomCode((det0, det1))
        mixed = random_code_error_informed(rand, w)
        singles = [worst_case_error_informed(c, w) for c in (det0, det1)]
        assert mixed < max(singles)

    def test_constant_channel_floor(self):
        rng = np.random.default_rng(59)
        w = constant_channel()
        for _ in range(5):
            det = random_projective_code(rng, 2, 2)
            rand = RandomCode((det, random_projective_code(rng, 2, 2)))
            assert random_code_error_informed(rand, w) >= 0.5 - 1e-9

    def test_letter_outside_the_input_alphabet_refused(self):
        det = projective_code(1, [(0,), (1,)])
        bad = DeterministicCode(1, ((1,), ("a",)), np.stack([ONE, ZERO]))
        with pytest.raises(AlphabetMismatch, match=r"letter 'a' of codeword \('a',\) is not in"):
            random_code_error_informed(RandomCode((det, bad)), orthogonal_channel())

    def test_key_count_mismatch(self):
        det2 = projective_code(2, [(0, 0), (1, 1)])
        det3 = projective_code(2, [(0, 0), (1, 1), (0, 1)])
        with pytest.raises(KeySetMismatch):
            RandomCode((det2, det3))

    def test_decoder_side_mismatch(self):
        det = projective_code(2, [(0, 0), (1, 1)])
        wide = DeterministicCode(2, det.codebook, np.stack([np.eye(8) / 2] * 2))
        with pytest.raises(KeySetMismatch, match="decoder side"):
            RandomCode((det, wide))


class TestDecoderSide:
    """Decoders whose side is not d^n are refused, not read as a table: at
    side 8 for d^n = 4 the evaluators once returned error 1.0, and at side
    2 they failed inside numpy."""

    @pytest.mark.parametrize("side", [2, 8])
    def test_deterministic_and_random_codes(self, side):
        det = DeterministicCode(2, ((0, 0), (1, 1)), np.stack([np.eye(side) / 2] * 2))
        message = rf"^decoder side {side} != d\^n = 4$"
        with pytest.raises(DimensionMismatch, match=message):
            worst_case_error_informed(det, orthogonal_channel())
        with pytest.raises(DimensionMismatch, match=message):
            random_code_error_informed(RandomCode((det, det)), orthogonal_channel())

    @pytest.mark.parametrize("side", [4, 16])
    def test_two_part_inner_code(self, side):
        w, src, pre, inner = toy_two_part()
        bad = DeterministicCode(3, inner.codes[0].codebook, np.stack([np.eye(side) / 2] * 2))
        message = rf"^decoder side {side} != d\^n = 8$"
        with pytest.raises(DimensionMismatch, match=message):
            two_part_error_informed(pre, RandomCode((bad, bad)), w, src)
        with pytest.raises(DimensionMismatch, match=message):
            assemble_two_part(pre, RandomCode((bad, bad)), w, src)


def trivial_correlation_code(det):
    """|V'| = |V| = 1 wrapper around a deterministic code."""
    return CorrelationCode(
        l=1,
        n=det.n,
        v_prime_words=(("u",),),
        v_words=(("v",),),
        encoders=[list(det.codebook)],
        decoders=det.decoders[None],
    )


class TestCorrelationCodeError:
    def test_trivial_source_reduces(self):
        rng = np.random.default_rng(61)
        w = random_avcqc(rng)
        det = random_projective_code(rng, 2, 2)
        src = CorrelatedSource(("u",), ("v",), [[1.0]])
        code = trivial_correlation_code(det)
        assert correlation_code_error_informed(code, w, src) == pytest.approx(
            worst_case_error_informed(det, w), abs=1e-14
        )

    def test_perfect_correlation_indexes_bases(self):
        # v' = v selects one of two conjugate bases; receiver always matches
        w = Avcqc((0, 1), ("s",), np.stack([[ZERO], [ONE]]))
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        enc_basis0 = [(0,), (1,)]
        enc_basis1 = [(1,), (0,)]
        dec0 = np.stack([ZERO, ONE])
        dec1 = np.stack([ONE, ZERO])
        code = CorrelationCode(
            l=1,
            n=1,
            v_prime_words=((0,), (1,)),
            v_words=((0,), (1,)),
            encoders=[enc_basis0, enc_basis1],
            decoders=np.stack([dec0, dec1]),
        )
        assert correlation_code_error_informed(code, w, src) == pytest.approx(0.0, abs=1e-12)

    def test_independent_source_no_help(self):
        # encoder varies with v' but the receiver cannot track it
        w = Avcqc((0, 1), ("s",), np.stack([[ZERO], [ONE]]))
        src = CorrelatedSource((0, 1), (0, 1), [[0.25, 0.25], [0.25, 0.25]])
        enc0 = [(0,), (1,)]
        enc1 = [(1,), (0,)]
        dec = np.stack([ZERO, ONE])
        code = CorrelationCode(
            l=1,
            n=1,
            v_prime_words=((0,), (1,)),
            v_words=((0,), (1,)),
            encoders=[enc0, enc1],
            decoders=np.stack([dec, dec]),
        )
        err = correlation_code_error_informed(code, w, src)
        # best deterministic single-letter code on this channel is error-free,
        # but the scrambled encoder wipes out half the success probability
        assert err >= 0.5 - 1e-9

    def test_bad_decoder_past_the_first_receiver_word(self):
        # one batched spectrum checks every receiver word; the offender is
        # operator 1 of word 2, and word 3's over-full sum comes after it
        good = np.stack([ZERO, ONE])
        decoders = np.stack([good, good, np.stack([ZERO, ONE - 0.5 * ZERO]), 2.0 * good])
        words = tuple(iproduct((0, 1), repeat=2))
        kwargs = dict(l=2, n=1, v_prime_words=words, v_words=words,
                      encoders=[[(0,), (1,)]] * 4)
        with pytest.raises(NotPositive, match=r"decoding operator 1 has eigenvalue -5\.000e-01"):
            CorrelationCode(decoders=decoders, **kwargs)
        with pytest.raises(NotPositive, match=r"decoder sum exceeds the identity by 1\.000e\+00"):
            CorrelationCode(decoders=np.stack([good, good, good, 2.0 * good]), **kwargs)
        code = CorrelationCode(decoders=np.stack([good] * 4), **kwargs)
        assert code.decoders.tobytes() == np.stack([good] * 4).astype(complex).tobytes()
        assert not code.decoders.flags.writeable


class TestPovmCheck:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_decoders_are_refused(self, dim, bad):
        # NaN compares False with every threshold, and Cholesky returns NaN
        # factors without raising, so finiteness is checked first
        ops = np.stack([np.stack([np.eye(dim) / 2] * 2)] * 3).astype(complex)
        ops[2, 1, dim - 1, 0] = bad
        ops[2, 0, 0, 0] = -1.0          # a negative operator earlier in word 2
        with pytest.raises(InvalidArgument, match="decoding operator 1 of word 2 has a non-finite"):
            coding._validate_povm(ops)
        with pytest.raises(InvalidArgument):
            DeterministicCode(1, ((0,), (1,)), ops[2])

    def test_accepted_stack_computes_no_spectra(self, monkeypatch):
        def no_spectra(mats):
            raise AssertionError("spectra computed for a valid stack")

        monkeypatch.setattr(coding, "eigvalsh_stack", no_spectra)
        ops = random_povm_stack(np.random.default_rng(5), 130, 3, 4)
        coding._validate_povm(ops)
        # zero operators and sums equal to the identity sit on the bounds;
        # the tolerance shift keeps both factorizations positive definite
        coding._validate_povm(np.stack([ZERO, ONE, np.zeros((2, 2))])[None])
        coding._validate_povm(np.stack([np.eye(3), np.zeros((3, 3))])[None])
        ops[129, 2] -= np.eye(4)
        with pytest.raises(AssertionError, match="spectra computed"):
            coding._validate_povm(ops)

    def test_upper_only_off_diagonal_is_refused_at_d2(self):
        # LAPACK's spectrum and Cholesky both read the lower triangle, which
        # holds 0 here, so neither sees the upper entry; the Hermitian check
        # does (read from its upper triangle the matrix has eigenvalue -0.4)
        bad = np.array([[0.5, 0.9], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian, match=r"operator 0 of word 0 has max \|A - A†\| entry 9\.000e-01"):
            DeterministicCode(1, ((0,), (1,)), np.stack([bad, 0.5 * np.eye(2)]))

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_non_hermitian_operator_is_named(self, dim):
        ops = random_povm_stack(np.random.default_rng(dim), 70, 3, dim)
        ops[66, 2, 0, dim - 1] += 1e-6
        ops[68, 0, 0, 0] = -1.0         # a later negative operator comes second
        with pytest.raises(NotHermitian, match="operator 2 of word 66 "):
            coding._validate_povm(ops)
        ops[66, 2, 0, dim - 1] -= 1e-6 - 1e-13   # within rounding of the adjoint
        with pytest.raises(NotPositive, match="decoding operator 0 has eigenvalue"):
            coding._validate_povm(ops)


def leaky_channel(leak):
    """The orthogonal channel whose jammer state 1 leaks `leak` of either
    letter into the other."""
    leak0 = (1 - leak) * ZERO + leak * ONE
    leak1 = (1 - leak) * ONE + leak * ZERO
    return Avcqc((0, 1), (0, 1), np.array([[ZERO, leak0], [ONE, leak1]]))


def toy_two_part(flip=0.1, leak=None):
    """Pre-code and inner code over the orthogonal channel and a flip
    source, or with leak over leaky_channel(leak) and a 5% flip source."""
    if leak is None:
        w, src, seed = orthogonal_channel(), flip_source(flip), 3
    else:
        w, src, seed = leaky_channel(leak), flip_source(0.05), 2
    gp = build_g_pair(src, (0, 1))
    cert = separation_test(w, src, gp, seed=seed)
    pre = repetition_precode(cert, gp, src, w, num_keys=2, nu=3)
    det_k0 = projective_code(3, [(0, 0, 0), (1, 1, 1)])
    det_k1 = DeterministicCode(
        3,
        ((1, 1, 1), (0, 0, 0)),
        np.stack([np.kron(np.kron(ONE, ONE), ONE), np.kron(np.kron(ZERO, ZERO), ZERO)]),
    )
    inner = RandomCode((det_k0, det_k1))
    return w, src, pre, inner


class TestTwoPartCode:
    def test_toy_chain_inequality(self):
        w, src, pre, inner = toy_two_part()
        two = assemble_two_part(pre, inner, w, src)
        assert two.inner_error == pytest.approx(0.0, abs=1e-12)
        assert two.assembled_error <= two.pre_error + two.inner_error + 1e-12
        assert two.assembled_error == pytest.approx(two.pre_error, abs=1e-9)

    def test_inner_side_charged_against_the_product_cap(self):
        # the inner code's side d^n = 8 is refused as random_code_error_informed
        # refuses it, before any table is built; the site-form pre part
        # (side 8 too) builds no d^nu operator and is not charged
        w, src, pre, inner = toy_two_part()
        caps = Caps(product_dim=4)
        for evaluate in (lambda: random_code_error_informed(inner, w, caps),
                         lambda: two_part_error_informed(pre, inner, w, src, caps)):
            with pytest.raises(DimOverflow, match=r"product dimension 8 exceeds cap 4$"):
                evaluate()
        assert two_part_error_informed(pre, inner, w, src, Caps(product_dim=8))[0] >= 0.0

    def test_perfect_pre_code_gives_inner_error(self):
        # error-free key delivery: the key is sent as a basis letter over the
        # jammer-independent orthogonal channel
        w = orthogonal_channel()
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        dec = np.stack([ZERO, ONE])
        pre = CorrelationCode(
            l=1,
            n=1,
            v_prime_words=((0,), (1,)),
            v_words=((0,), (1,)),
            encoders=[[(0,), (1,)], [(0,), (1,)]],
            decoders=np.stack([dec, dec]),
        )
        assert correlation_code_error_informed(pre, w, src) == pytest.approx(0.0, abs=1e-12)
        det_k0 = projective_code(3, [(0, 0, 0), (1, 1, 1)])
        det_k1 = DeterministicCode(
            3,
            ((1, 1, 1), (0, 0, 0)),
            np.stack(
                [np.kron(np.kron(ONE, ONE), ONE), np.kron(np.kron(ZERO, ZERO), ZERO)]
            ),
        )
        # make the inner code imperfect so the comparison is informative
        noisy_dec = np.stack(
            [
                0.9 * np.kron(np.kron(ZERO, ZERO), ZERO),
                np.eye(8) - 0.9 * np.kron(np.kron(ZERO, ZERO), ZERO),
            ]
        )
        det_k0_noisy = DeterministicCode(3, ((0, 0, 0), (1, 1, 1)), noisy_dec)
        two = assemble_two_part(pre, RandomCode((det_k0_noisy, det_k1)), w, src)
        assert two.pre_error == pytest.approx(0.0, abs=1e-12)
        assert two.assembled_error == pytest.approx(two.inner_error, abs=1e-9)

    @pytest.mark.parametrize("flip, leak", [(0.1, None), (0.3, None), (None, 0.2), (None, 0.05)])
    def test_error_matches_kron_reference(self, flip, leak):
        w, src, pre, inner = toy_two_part(flip=flip, leak=leak)
        err, jammer = two_part_error_informed(pre, inner, w, src)
        want, want_jammer = two_part_error_reference(pre, inner, w, src)
        assert abs(err - want) <= 1e-12
        assert jammer == want_jammer

    def test_whole_word_past_product_dim_runs_on_its_parts(self):
        w, src, pre, inner = toy_two_part(leak=0.2)
        # d^3 = 8 fits each part, d^6 = 64 their concatenation
        small = Caps(product_dim=32)
        two = assemble_two_part(pre, inner, w, src, caps=small)
        want = assemble_two_part(pre, inner, w, src)
        assert (two.pre_error, two.inner_error, two.assembled_error) == (
            want.pre_error, want.inner_error, want.assembled_error
        )
        assert two.jammer == want.jammer
        assert cr_generation_run(w, src, two, trials=60, seed=5, caps=small) == cr_generation_run(
            w, src, want, trials=60, seed=5
        )

    @pytest.mark.parametrize("dense", [False, True], ids=["site", "dense"])
    def test_no_product_state_on_the_whole_word(self, dense, monkeypatch):
        # the run contracts each part on its own: no table is taken on a whole word
        w, src, pre, inner = toy_two_part(leak=0.2)
        pre = as_dense(pre) if dense else pre
        two = assemble_two_part(pre, inner, w, src)
        lengths = [len(xs) for xs, _, _ in run_tables(monkeypatch, w, src, two)]
        assert lengths and max(lengths) <= max(pre.n, inner.n)

    def test_inner_letters_checked(self):
        w, src, pre, _ = toy_two_part()
        det = projective_code(3, [(0, 0, 0), (1, 1, 1)])
        bad = DeterministicCode(3, ((0, 0, 0), (1, 2, 1)), det.decoders)
        with pytest.raises(AlphabetMismatch, match=r"letter 2 of codeword \(1, 2, 1\) is not in"):
            assemble_two_part(pre, RandomCode((det, bad)), w, src)
        with pytest.raises(AlphabetMismatch, match=r"letter 2 of codeword \(1, 2, 1\) is not in"):
            two_part_error_informed(pre, RandomCode((det, bad)), w, src)

    def test_key_set_mismatch(self):
        w, src, pre, _ = toy_two_part()
        det = projective_code(3, [(0, 0, 0), (1, 1, 1), (0, 1, 0)])
        with pytest.raises(KeySetMismatch):
            assemble_two_part(pre, RandomCode((det,) * 3), w, src)


def as_dense(pre):
    """A site-form pre-code as a CorrelationCode with the same words and decoders."""
    return CorrelationCode(
        l=pre.l, n=pre.n, v_prime_words=pre.v_prime_words, v_words=pre.v_words,
        encoders=pre.encoders, decoders=pre.decoders,
    )


def assert_site_error_matches_dense(pre, w, src):
    """The site-form error and jammer of a pre-code equal the dense
    evaluator's on a CorrelationCode with the same words and decoders."""
    err, jammer = correlation_code_error_informed(pre, w, src, return_strategy=True)
    want, want_jammer = correlation_code_error_informed(
        as_dense(pre), w, src, return_strategy=True
    )
    assert abs(err - want) <= 1e-13
    assert jammer == want_jammer


def separable_d3_instance(seed=1):
    """Two near-pure distinct letters at d=3; the jammer mixes in 10% noise."""
    rng = np.random.default_rng(seed)
    letters = []
    for _ in range(2):
        v = np.linalg.eigh(wishart_state(rng, 3))[1][:, -1:]
        letters.append(v @ v.conj().T)
    states = np.array(
        [[0.9 * letters[x] + 0.1 * wishart_state(rng, 3) for _ in range(2)] for x in range(2)]
    )
    return Avcqc((0, 1), (0, 1), states), flip_source(0.1)


def key_tables(code, w, src):
    """{(codeword, sent key): table} of a pre-code's _key_tables rows."""
    words, ids, keys, tables = code._key_tables(w, src, DEFAULT_CAPS)
    return {(words[i], k): table for i, k, table in zip(ids, keys, tables)}


class TestRepetitionPrecode:
    SPECS = Path(__file__).resolve().parents[1] / "specs"

    # (instance, nu, keys); the |X| = 3 draw has iota = 4 and 16 receiver
    # blocks, so nu = 3 (l = 12) exceeds the default enumeration cap and only
    # nu = 2 runs, with keys 3 and 4 taking the non-majority decode
    CASES = [
        (name, nu, keys)
        for name in ("orthogonal-flip10", "separable-d3")
        for nu, keys in ((2, 2), (3, 2), (3, 4))
    ] + [("separable-X3", 2, keys) for keys in (2, 3, 4)]

    @pytest.fixture(scope="class")
    def instance(self, request):
        if request.param == "orthogonal-flip10":
            w = io.load_channel(self.SPECS / "orthogonal_channel.json")
            src = io.load_source(self.SPECS / "flip10_source.json")
        elif request.param == "separable-d3":
            w, src = separable_d3_instance()
        else:
            w, src = separable_instance(np.random.default_rng([2024, 3, 2]), 3, 2)
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp, seed=1)
        assert isinstance(cert, SeparationCertificate)
        return cert, gp, src, w

    @pytest.mark.parametrize("instance, nu, keys", CASES, indirect=["instance"])
    def test_matches_kron_chain(self, instance, nu, keys):
        cert, gp, src, w = instance
        code = repetition_precode(cert, gp, src, w, num_keys=keys, nu=nu)
        encoders, decoders = kron_chain_precode(cert, gp, src, w, keys, nu)
        assert [list(row) for row in code.encoders] == encoders
        assert code.decoders.tobytes() == decoders.tobytes()

    @pytest.mark.parametrize("keys", [3, 4])
    def test_key_words_at_distance_two(self, keys):
        _, _, pre = leaky_precode(3, keys)
        dists = [sum(a != b for a, b in zip(u, v)) for u, v in combinations(pre.key_words, 2)]
        assert min(dists) == 2

    @pytest.mark.parametrize("instance", ["separable-d3"], indirect=True)
    def test_product_dim_bounds_the_decoder_side(self, instance):
        cert, gp, src, w = instance
        with pytest.raises(DimOverflow, match="product dimension 9 exceeds cap 8"):
            repetition_precode(cert, gp, src, w, num_keys=2, nu=2, caps=Caps(product_dim=8))

    @pytest.mark.parametrize("instance, nu, keys", CASES, indirect=["instance"])
    def test_site_error_matches_dense(self, instance, nu, keys):
        cert, gp, src, w = instance
        assert_site_error_matches_dense(repetition_precode(cert, gp, src, w, keys, nu), w, src)

    @pytest.mark.parametrize("nx, d", [(nx, d) for nx in (2, 3, 4, 5) for d in (2, 3)])
    def test_site_error_matches_dense_on_separable_draws(self, nx, d):
        w, src = separable_instance(np.random.default_rng([2024, nx, d]), nx, d)
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp)
        assert isinstance(cert, SeparationCertificate)
        pre = repetition_precode(cert, gp, src, w, num_keys=2, nu=3 if gp.iota == 3 else 2)
        assert_site_error_matches_dense(pre, w, src)

    def test_site_form_builds_no_dense_stack(self, monkeypatch):
        w, src, pre, _ = toy_two_part()

        def no_dense(*args, **kwargs):
            raise AssertionError("dense decoder or product state built")

        monkeypatch.setattr(coding.RepetitionPrecode, "decoders", property(no_dense))
        monkeypatch.setattr(coding, "product_output", no_dense)
        correlation_code_error_informed(pre, w, src)
        res = cr_generation_run(w, src, pre, trials=40, seed=31)
        assert len(res["rows"]) == 40

    def test_two_part_with_a_site_pre_part_reads_no_dense_decoders(self, monkeypatch):
        w, src, pre, inner = toy_two_part(leak=0.2)

        def no_dense(*args, **kwargs):
            raise AssertionError("dense pre decoders read")

        monkeypatch.setattr(coding.RepetitionPrecode, "decoders", property(no_dense))
        err, jammer = two_part_error_informed(pre, inner, w, src)
        two = assemble_two_part(pre, inner, w, src)
        assert (two.assembled_error, two.jammer) == (err, jammer)

    @pytest.mark.parametrize("instance", ["flip", "leak", "separable-d3"])
    def test_site_and_dense_tables_agree(self, instance):
        # every (codeword, sent key, decoded key) entry, the off-diagonal
        # rows included, not only the rows the pre-code's own error reads
        if instance == "separable-d3":
            w, src = separable_d3_instance()
            gp = build_g_pair(src, w.x_alphabet)
            pre = repetition_precode(separation_test(w, src, gp, seed=1), gp, src, w)
        else:
            w, src, pre, _ = toy_two_part(**({"flip": 0.1} if instance == "flip" else {"leak": 0.2}))
        site, dense = (key_tables(code, w, src) for code in (pre, as_dense(pre)))
        assert site.keys() == dense.keys()
        assert max(np.abs(site[p] - dense[p]).max() for p in site) <= 1e-13
        sent_under = {}
        for xs, k in site:
            sent_under.setdefault(xs, set()).add(k)
        assert max(len(keys) for keys in sent_under.values()) >= 2

    @pytest.mark.parametrize("instance", ["orthogonal-flip10"], indirect=True)
    @pytest.mark.parametrize("which, defect, error, message", [
        ("m0", "nan", InvalidArgument,
         r"decoding operator 0 of measurement block 5 has a non-finite entry"),
        ("m0", "negative", NotPositive,
         r"decoding operator 0 has eigenvalue -5\.000e-01 < -1\.0e-09 in measurement block 5"),
        ("m1", "over-full", NotPositive,
         r"decoder sum exceeds the identity by 5\.000e-01 > 1\.0e-09 in measurement block 5"),
    ])
    def test_site_povm_check_names_the_block(self, instance, which, defect, error, message):
        cert, gp, src, w = instance
        m = np.array(cert.measurement)
        blk = m[5, ("m0", "m1").index(which)]   # receiver block 5's operator of that outcome
        if defect == "nan":
            blk[0, 0] = np.nan
        elif defect == "negative":
            blk[...] = -0.5 * np.eye(w.dim)
        else:
            blk += 0.5 * np.eye(w.dim)
        bad = dataclasses.replace(cert, measurement=m)
        with pytest.raises(error, match=message):
            repetition_precode(bad, gp, src, w, num_keys=2, nu=2)

    @pytest.mark.parametrize("instance", ["orthogonal-flip10"], indirect=True)
    def test_certificate_of_another_block_count_refused(self, instance):
        cert, gp, src, w = instance
        short = dataclasses.replace(cert, measurement=cert.measurement[:-1])
        message = r"shape \(7, 2, 2, 2\) does not hold 8 receiver blocks of side 2"
        with pytest.raises(DimensionMismatch, match=message):
            repetition_precode(short, gp, src, w, num_keys=2, nu=2)


class TestDeferredBuilds:
    """The error path builds no JammerStrategy, state-word list, word table
    or encoder; each is built, as before, when something reads it."""

    SPECS = TestRepetitionPrecode.SPECS

    def test_error_without_the_strategy_is_the_error_with_it(self):
        rng = np.random.default_rng(73)
        for k in range(16):
            n, j = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            w = random_avcqc(rng, ns=int(rng.integers(1, 4)))
            det = random_projective_code(rng, n, j, allow_duplicates=(k % 4 == 0))
            rand = RandomCode((det, random_projective_code(rng, n, j)))
            for evaluate, code in ((worst_case_error_informed, det),
                                   (random_code_error_informed, rand)):
                assert evaluate(code, w) == evaluate(code, w, return_strategy=True)[0]
        for nx, d in ((2, 2), (3, 2), (2, 3), (4, 3)):
            w, src = separable_instance(np.random.default_rng([2024, nx, d]), nx, d)
            gp = build_g_pair(src, w.x_alphabet)
            cert = separation_test(w, src, gp)
            pre = repetition_precode(cert, gp, src, w, num_keys=int(rng.integers(2, 5)), nu=2)
            for code in (pre, as_dense(pre)):
                err, _ = correlation_code_error_informed(code, w, src, return_strategy=True)
                assert correlation_code_error_informed(code, w, src) == err

    def test_error_path_builds_no_strategy_or_word_table(self, monkeypatch):
        w, src, pre, inner = toy_two_part(leak=0.2)

        def built(*args, **kwargs):
            raise AssertionError("built on the error path")

        for name in ("v_prime_words", "v_words", "encoders", "decoders"):
            monkeypatch.setattr(coding.RepetitionPrecode, name, property(built))
        two_part_error_informed(pre, inner, w, src)
        monkeypatch.setattr(coding, "JammerStrategy", built)
        correlation_code_error_informed(pre, w, src)
        worst_case_error_informed(inner.codes[0], w)
        random_code_error_informed(inner, w)

    def test_state_word_cap_without_the_strategy(self):
        w, src, pre, inner = toy_two_part()
        caps = Caps(jammer_states=7)          # |S|^3 = 8 state words
        for call in (
            lambda: worst_case_error_informed(inner.codes[0], w, caps),
            lambda: random_code_error_informed(inner, w, caps),
            lambda: correlation_code_error_informed(pre, w, src, caps),
        ):
            with pytest.raises(EnumerationOverflow,
                               match=r"^\|S\|\^n = 8 exceeds jammer enumeration cap 7$"):
                call()

    @pytest.mark.parametrize("nu, keys", [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_lazy_tables_are_the_eager_ones(self, nu, keys, tmp_path):
        w = io.load_channel(self.SPECS / "orthogonal_channel.json")
        src = io.load_source(self.SPECS / "flip10_source.json")
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp)
        l = nu * gp.iota
        encoders, decoders = kron_chain_precode(cert, gp, src, w, keys, nu)
        eager = CorrelationCode(
            l=l, n=nu, v_prime_words=tuple(iproduct(src.v_prime_alphabet, repeat=l)),
            v_words=tuple(iproduct(src.v_alphabet, repeat=l)), encoders=encoders,
            decoders=decoders,
        )
        code = repetition_precode(cert, gp, src, w, num_keys=keys, nu=nu)
        for name in ("v_prime_words", "v_words", "encoders"):
            assert getattr(code, name) == getattr(eager, name)
        io.dump_json(io.correlation_code_to_json(code), tmp_path / "lazy.json")
        io.dump_json(io.correlation_code_to_json(eager), tmp_path / "eager.json")
        assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()


class TestTwoPartDesign:
    def test_block_rule(self):
        from avcqc import two_part_design

        design = two_part_design(1.0, 8)
        assert design == {"nu": 9, "num_keys": 64}
        design = two_part_design(0.5, 4, c_k=2.0)
        assert design == {"nu": 12, "num_keys": 32}
        with pytest.raises(InvalidArgument):
            two_part_design(0.0, 8)

    @pytest.mark.parametrize("args, message", [
        ((np.inf, 8), "rate_r must be a finite number > 0, got inf"),
        ((np.nan, 8), "rate_r must be a finite number > 0, got nan"),
        ((-1.0, 8), "rate_r must be a finite number > 0"),
        (("1", 8), "rate_r must be a finite number > 0"),
        ((1.0, 2.5), r"n must be an integer >= 2, got 2\.5"),
        ((1.0, True), "n must be an integer >= 2, got True"),
        ((1.0, 1), "n must be an integer >= 2, got 1"),
        ((1.0, 8, -1.0), r"c_k must be a finite number > 0, got -1\.0"),
        ((1.0, 8, np.inf), "c_k must be a finite number > 0, got inf"),
        ((1.0, 8, np.nan), "c_k must be a finite number > 0, got nan"),
        ((1e-320, 8), "no finite design"),
        ((1.0, 8, 1e307), "no finite design"),
    ])
    def test_out_of_range_inputs_refused(self, args, message):
        from avcqc import two_part_design

        with pytest.raises(InvalidArgument, match=message):
            two_part_design(*args)

    def test_numpy_scalars_accepted(self):
        from avcqc import two_part_design

        assert two_part_design(np.float64(0.5), np.int64(4), c_k=np.float32(2.0)) == {
            "nu": 12, "num_keys": 32
        }


class TestCrGeneration:
    def test_noiseless_perfect_agreement(self):
        # perfectly correlated source indexing two bases over the orthogonal
        # channel: the receiver always picks the matching decoder
        w = orthogonal_channel()
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        dec0 = np.stack([ZERO, ONE])
        dec1 = np.stack([ONE, ZERO])
        code = CorrelationCode(
            l=1,
            n=1,
            v_prime_words=((0,), (1,)),
            v_words=((0,), (1,)),
            encoders=[[(0,), (1,)], [(1,), (0,)]],
            decoders=np.stack([dec0, dec1]),
        )
        res = cr_generation_run(w, src, code, trials=60, seed=17)
        assert res["agreement_rate"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= res["empirical_entropy"] <= 1.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_refused(self, trials):
        w = orthogonal_channel()
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        code = CorrelationCode(
            l=1, n=1, v_prime_words=((0,), (1,)), v_words=((0,), (1,)),
            encoders=[[(0,), (1,)], [(1,), (0,)]],
            decoders=np.stack([np.stack([ZERO, ONE]), np.stack([ONE, ZERO])]),
        )
        with pytest.raises(InvalidArgument, match=f"trials must be an integer >= 1, got {trials}"):
            cr_generation_run(w, src, code, trials=trials, seed=1)

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_trials_not_an_integer_refused(self, trials, monkeypatch):
        w, src, pre, _ = toy_two_part()

        def no_work(*args, **kwargs):
            raise AssertionError("computed before trials was checked")

        monkeypatch.setattr(coding, "correlation_code_error_informed", no_work)
        with pytest.raises(InvalidArgument, match="trials must be an integer"):
            cr_generation_run(w, src, pre, trials=trials, seed=1)

    def test_numpy_integer_trials_is_its_int(self):
        w, src, pre, _ = toy_two_part()
        got = cr_generation_run(w, src, pre, trials=np.int64(3), seed=1)
        want = cr_generation_run(w, src, pre, trials=3, seed=1)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("seed", [-1, None, True, 1.5, "7"])
    def test_seed_not_a_nonnegative_integer_refused(self, seed, monkeypatch):
        # refused before the jammer is computed; None would draw OS entropy
        w, src, pre, _ = toy_two_part()

        def no_work(*args, **kwargs):
            raise AssertionError("computed before the seed was checked")

        monkeypatch.setattr(coding, "correlation_code_error_informed", no_work)
        with pytest.raises(InvalidArgument, match="seed must be an integer >= 0"):
            cr_generation_run(w, src, pre, trials=3, seed=seed)

    def test_numpy_integer_seed_is_its_int(self):
        w, src, pre, _ = toy_two_part()
        assert cr_generation_run(w, src, pre, trials=5, seed=np.int64(3)) == cr_generation_run(
            w, src, pre, trials=5, seed=3
        )

    def test_constant_channel_guessing(self):
        w = constant_channel()
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        dec = np.stack([ZERO, ONE])
        code = CorrelationCode(
            l=1,
            n=1,
            v_prime_words=((0,), (1,)),
            v_words=((0,), (1,)),
            encoders=[[(0,), (1,)], [(0,), (1,)]],
            decoders=np.stack([dec, dec]),
        )
        trials = 400
        res = cr_generation_run(w, src, code, trials=trials, seed=23)
        # binomial 3 sigma around 1/2 for a two-message guessing game
        sigma = np.sqrt(0.5 * 0.5 / trials)
        assert abs(res["agreement_rate"] - 0.5) <= 3 * sigma

    def test_two_part_agreement_bound(self):
        w, src, pre, inner = toy_two_part()
        two = assemble_two_part(pre, inner, w, src)
        res = cr_generation_run(w, src, pre, trials=300, seed=29)
        bound = 1.0 - two.pre_error - two.inner_error
        sigma = np.sqrt(0.25 / 300)
        assert res["agreement_rate"] >= bound - 3 * sigma

    def test_assembled_code_agreement_under_active_jammer(self):
        # the jammer can leak 20% of either letter into the other; separation
        # still holds and the assembled two-part code meets its exact bound
        w, src, pre, inner = toy_two_part(leak=0.2)
        two = assemble_two_part(pre, inner, w, src)
        assert two.inner_error > 0  # the jammer really hurts the inner code
        trials = 300
        res = cr_generation_run(w, src, two, trials=trials, seed=37)
        sigma = np.sqrt(0.25 / trials)
        assert res["agreement_rate"] >= 1.0 - two.assembled_error - 3 * sigma

    def test_deterministic_under_seed(self):
        w, src, pre, _ = toy_two_part()
        a = cr_generation_run(w, src, pre, trials=40, seed=31)
        b = cr_generation_run(w, src, pre, trials=40, seed=31)
        assert a == b


# (nu, keys) designs of the repetition pre-code with keys <= 2^nu
SITE_DESIGNS = [(nu, keys) for nu in (1, 2, 3) for keys in (2, 3, 4) if keys <= 2 ** nu]


def leaky_precode(nu, keys):
    """Site-form pre-code over leaky_channel(0.2), where the jammer's picks
    change the outcome probabilities."""
    w, src = leaky_channel(0.2), flip_source(0.05)
    gp = build_g_pair(src, (0, 1))
    cert = separation_test(w, src, gp, seed=2)
    return w, src, repetition_precode(cert, gp, src, w, num_keys=keys, nu=nu)


def wide_dense_code():
    """Dense 12-message code on a random 3-letter channel: its 13-entry
    outcome vectors are past the 8 entries where numpy's sums switch to
    blocked pairwise summation."""
    rng = np.random.default_rng(41)
    w = random_avcqc(rng, nx=3, ns=2, dim=2)
    src = CorrelatedSource((0, 1), (0, 1), [[0.4, 0.1], [0.15, 0.35]])
    code = CorrelationCode(
        l=1, n=1, v_prime_words=((0,), (1,)), v_words=((0,), (1,)),
        encoders=[[(int(x),) for x in rng.integers(3, size=12)] for _ in range(2)],
        decoders=random_povm_stack(rng, 2, 12, 2),
    )
    return w, src, code


def code_instance(kind):
    """(w, src, code) of each code kind cr_generation_run accepts: a
    two-part code's pre part is site-form, or dense for "two-part-dense-pre"."""
    if kind == "site":
        return leaky_precode(3, 4)
    if kind == "dense":
        w, src, pre = leaky_precode(3, 4)
        return w, src, as_dense(pre)
    w, src, pre, inner = toy_two_part(leak=0.2)
    pre = as_dense(pre) if kind == "two-part-dense-pre" else pre
    return w, src, assemble_two_part(pre, inner, w, src)


def run_tables(monkeypatch, w, src, code, trials=200, seed=5):
    """(codeword, state word, decoders) of each row that cr_generation_run
    contracts in a _success_tables pass at one state word, codeword and
    state word as letter indices; the decoders are named by their address,
    which tells a code's equal decoders apart."""
    calls = []
    success_tables = coding._success_tables

    def spy(w, xi, ops, si=None):
        if si is not None:
            calls.extend((tuple(xs), tuple(ss), g.ctypes.data)
                         for xs, ss, g in zip(xi.tolist(), si.tolist(), ops))
        return success_tables(w, xi, ops, si)

    monkeypatch.setattr(coding, "_success_tables", spy)
    cr_generation_run(w, src, code, trials=trials, seed=seed)
    return calls


def assert_runs_match_reference(w, src, code, trials=(1, 7, 200), seeds=(3, 11, 2024)):
    for t in trials:
        for seed in seeds:
            got = cr_generation_run(w, src, code, trials=t, seed=seed)
            want = cr_generation_reference(w, src, code, trials=t, seed=seed)
            assert got == want
            assert repr(got) == repr(want)


class TestCrGenerationMatchesReference:
    """The batched run equals the per-trial rng.choice loop, record for record."""

    @pytest.mark.parametrize("dense", [False, True], ids=["site", "dense"])
    @pytest.mark.parametrize("nu, keys", SITE_DESIGNS)
    def test_precode(self, nu, keys, dense):
        w, src, pre = leaky_precode(nu, keys)
        assert_runs_match_reference(w, src, as_dense(pre) if dense else pre)

    @pytest.mark.parametrize("leak", [None, 0.2], ids=["toy", "active-jammer"])
    def test_two_part(self, leak):
        w, src, pre, inner = toy_two_part(leak=leak)
        assert_runs_match_reference(w, src, assemble_two_part(pre, inner, w, src))

    def test_wide_dense_code(self):
        assert_runs_match_reference(*wide_dense_code())


class TestCrGenerationStreams:
    @pytest.mark.parametrize("kind", ["site", "dense", "two-part"])
    def test_rows_do_not_depend_on_trials(self, kind):
        w, src, code = code_instance(kind)
        rows = cr_generation_run(w, src, code, trials=60, seed=5)["rows"]
        for m in (1, 23):
            assert cr_generation_run(w, src, code, trials=m, seed=5)["rows"] == rows[:m]

    @pytest.mark.parametrize("kind", ["site", "dense", "two-part"])
    def test_one_generator_per_run(self, kind, monkeypatch):
        w, src, code = code_instance(kind)
        made = []
        default_rng = np.random.default_rng

        def rng_spy(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        def no_seed_sequence(*args, **kwargs):
            raise AssertionError("a SeedSequence was built directly")

        monkeypatch.setattr(np.random, "default_rng", rng_spy)
        monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
        cr_generation_run(w, src, code, trials=200, seed=5)
        assert made == [(5,)]

    @pytest.mark.parametrize("kind", ["dense", "two-part"])
    def test_one_product_state_per_codeword(self, kind, monkeypatch):
        # a codeword's contraction at the jammer's state word is made once, not once per trial
        w, src, code = code_instance(kind)
        built = run_tables(monkeypatch, w, src, code, trials=2000)
        assert 0 < len(set(built)) == len(built) < 2000

    @pytest.mark.parametrize("kind", ["dense", "two-part", "two-part-dense-pre"])
    def test_builds_no_product_state(self, kind, monkeypatch):
        w, src, code = code_instance(kind)

        def refuse(*args, **kwargs):
            raise AssertionError("product state built")

        monkeypatch.setattr(coding, "product_output", refuse)
        monkeypatch.setattr(channels, "product_output", refuse)
        res = cr_generation_run(w, src, code, trials=200, seed=5)
        assert len(res["rows"]) == 200

    @pytest.mark.parametrize("kind", ["dense", "two-part", "two-part-dense-pre"])
    def test_product_dim_bounds_the_contracted_parts(self, kind):
        # each part has d^n = 8 > 4; the two-part codes were assembled under the default caps
        w, src, code = code_instance(kind)
        with pytest.raises(DimOverflow):
            cr_generation_run(w, src, code, trials=20, seed=5, caps=Caps(product_dim=4))


class TestCodeFitsSourceAndChannel:
    """A code whose words or letters do not fit raises before any work."""

    def _code(self, **change):
        w = orthogonal_channel()
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        fields = dict(
            l=2, n=1,
            v_prime_words=tuple(iproduct((0, 1), repeat=2)),
            v_words=tuple(iproduct((0, 1), repeat=2)),
            encoders=[[(0,), (1,)]] * 4,
            decoders=np.stack([np.stack([ZERO, ONE])] * 4),
        )
        fields.update(change)
        return w, src, CorrelationCode(**fields)

    @pytest.mark.parametrize("change, error, message", [
        ({"v_prime_words": ((0, 0), (0, 1), (1, 1), (1, 0))}, AlphabetMismatch,
         r"sender word 2 of the code is \(1, 1\), the source's is \(1, 0\)"),
        ({"v_prime_words": (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))}, AlphabetMismatch,
         r"sender word 0 of the code is \('a', 'a'\), the source's is \(0, 0\)"),
        ({"v_words": ((0, 0), (0, 1), (1, 0))}, AlphabetMismatch,
         r"receiver word 3 of the code is missing, the source's is \(1, 1\)"),
        ({"encoders": [[(0,), (1,)]] * 3 + [[(0,), (2,)]]}, AlphabetMismatch,
         r"encoder letter 2 of sender word 3, message 1 is not in the channel's input "
         r"alphabet \(0, 1\)"),
        ({"decoders": np.stack([np.stack([np.eye(4) / 2] * 2)] * 4)}, DimensionMismatch,
         r"decoder side 4 != d\^n = 2"),
    ], ids=["sender-order", "sender-labels", "receiver-count", "encoder-letter", "side"])
    def test_refused(self, change, error, message):
        w, src, code = self._code(**change)
        with pytest.raises(error, match=message):
            correlation_code_error_informed(code, w, src)
        with pytest.raises(error, match=message):
            cr_generation_run(w, src, code, trials=5, seed=1)

    def test_two_part_pre_code_checked(self):
        w, src, pre, inner = toy_two_part()
        two = assemble_two_part(pre, inner, w, src)
        relabelled = dataclasses.replace(
            two, pre=dataclasses.replace(as_dense(pre), v_words=pre.v_words[::-1])
        )
        with pytest.raises(AlphabetMismatch, match="receiver word 0 of the code"):
            cr_generation_run(w, src, relabelled, trials=5, seed=1)
        with pytest.raises(AlphabetMismatch, match="receiver word 0 of the code"):
            two_part_error_informed(relabelled.pre, inner, w, src)

    def test_site_form_letters_checked(self):
        w, src, pre, _ = toy_two_part()
        relabelled = Avcqc(("a", "b"), w.s_alphabet, w.states)
        message = r"letter 0 of sender block 0 is not in the channel's input alphabet \('a', 'b'\)"
        with pytest.raises(AlphabetMismatch, match=message):
            correlation_code_error_informed(pre, relabelled, src)
        with pytest.raises(AlphabetMismatch, match=message):
            cr_generation_run(relabelled, src, pre, trials=5, seed=1)

    def test_fitting_code_runs(self):
        w, src, code = self._code()
        assert correlation_code_error_informed(code, w, src) == pytest.approx(0.0, abs=1e-12)

    def test_decoder_rows_checked_after_the_words(self):
        w, src, code = self._code()
        short = dataclasses.replace(code, decoders=code.decoders[:3])
        with pytest.raises(DimensionMismatch, match="^3 decoder rows for 4 receiver words$"):
            correlation_code_error_informed(short, w, src)
        with pytest.raises(DimensionMismatch, match="^3 decoder rows for 4 receiver words$"):
            cr_generation_run(w, src, short, trials=5, seed=1)


class TestCorrelationCodeShapes:
    """A code whose tables do not match its words is refused when it is built."""

    SPECS = Path(__file__).resolve().parents[1] / "specs"
    KW = dict(l=1, n=1, v_prime_words=(("0",), ("1",)), v_words=(("0",), ("1",)),
              decoders=np.stack([np.stack([ZERO, ONE]), np.stack([ONE, ZERO])]))

    def test_full_table_is_error_free(self):
        # with one encoder row fewer the same code once read an error of 0.5
        w = io.load_channel(self.SPECS / "orthogonal_channel.json")
        src = io.load_source(self.SPECS / "perfect_source.json")
        code = CorrelationCode(encoders=[[("0",), ("1",)], [("1",), ("0",)]], **self.KW)
        assert correlation_code_error_informed(code, w, src) == 0.0

    @pytest.mark.parametrize("encoders, counts", [
        ([[("0",), ("1",)]], r"1 rows of \[2\] messages for 2 sender words"),
        ([[("0",), ("1",)]] * 3, r"3 rows of \[2\] messages for 2 sender words"),
        ([[("0",), ("1",)], [("1",)]], r"2 rows of \[1, 2\] messages for 2 sender words"),
        ([[], []], r"2 rows of \[0\] messages for 2 sender words"),
    ], ids=["short", "long", "ragged", "no-messages"])
    def test_encoder_table_refused(self, encoders, counts):
        with pytest.raises(DimensionMismatch, match=f"^encoders have {counts}: need one row"):
            CorrelationCode(encoders=encoders, **self.KW)

    @pytest.mark.parametrize("decoders, shape", [
        (np.stack([np.stack([ZERO, ONE, 0 * ONE])] * 2), r"\(2, 3\)"),
        (np.stack([ZERO, ONE]), r"\(2,\)"),
    ], ids=["three-outcomes", "one-povm"])
    def test_decoder_table_refused(self, decoders, shape):
        kw = dict(self.KW, decoders=decoders)
        with pytest.raises(DimensionMismatch, match=rf"^decoders of shape {shape} do not hold"):
            CorrelationCode(encoders=[[("0",), ("1",)], [("1",), ("0",)]], **kw)
