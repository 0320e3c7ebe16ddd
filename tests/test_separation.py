from collections import Counter
from itertools import product as iproduct
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

from avcqc import (
    Avcqc,
    BinaryAvc,
    CorrelatedSource,
    JammerKernel,
    NotSeparable,
    SeparationCertificate,
    binary_avc_positivity,
    build_g_pair,
    capacity_informed_jammer,
    ensemble_state,
    induced_binary_avc,
    separation_test,
)
from avcqc import coding, separation
from avcqc import serialize as io
from avcqc.config import DEFAULT_TOL, Caps
from avcqc.errors import (
    DimOverflow,
    Indeterminate,
    InvalidArgument,
    NonBinarySource,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    ZeroMutualInformation,
)
from avcqc.geometry import affine_set_distance, embed_stack
from avcqc.separation import (
    _block_weights,
    certificate_soundness_sweep,
    smallest_block_length,
)
from helpers import (
    ONE,
    ZERO,
    binary_entropy,
    bitflip_channel,
    constant_channel,
    encoder_generators,
    flip_source,
    kron_block_weights,
    orthogonal_channel,
    separable_instance,
    wishart_avcqc,
)


class TestBuildGPair:
    def test_block_length_formula(self):
        # direct evaluation of the halved binomial sums
        assert smallest_block_length(2) == 3   # kappa=2 gives 1 < 2; kappa=3 gives 2
        assert smallest_block_length(3) == 4   # kappa=3 gives 2 < 3; kappa=4 gives 7

    def test_binary_alphabet_pair(self):
        gp = build_g_pair(flip_source(0.1), (0, 1))
        assert gp.iota == 3
        assert set(gp.g0) == set(gp.g1)
        assert len(gp.g0) == 8

    def test_partition_and_exact_marginal_matching(self):
        src = flip_source(0.1)
        for alphabet in [(0, 1), (0, 1, 2)]:
            gp = build_g_pair(src, alphabet)
            words = list(gp.g0)
            # partition: every word mapped, letter marginals match exactly
            p_send = src.sender_marginal
            for x in alphabet:
                w0 = sum(
                    np.prod([p_send[u] for u in word])
                    for word, val in gp.g0.items()
                    if val == x
                )
                w1 = sum(
                    np.prod([p_send[u] for u in word])
                    for word, val in gp.g1.items()
                    if val == x
                )
                assert w0 == w1  # bitwise equality: identical weight multisets
            total = sum(
                np.prod([p_send[u] for u in word]) for word in words
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [2, 3, 5, 16, 40])
    def test_letter_counts_match_per_weight_class(self, alpha):
        # per Hamming weight the two encoders hit every letter equally often,
        # so the letter marginals match under any binary source
        gp = build_g_pair(flip_source(0.1), tuple(range(alpha)))
        c0, c1 = (Counter((sum(u), x) for u, x in g.items()) for g in (gp.g0, gp.g1))
        assert c0 == c1 and {x for _, x in c0} == set(range(alpha))

    def test_rejects_nonbinary_sender(self):
        src = CorrelatedSource((0, 1, 2), (0, 1), np.full((3, 2), 1 / 6))
        with pytest.raises(NonBinarySource):
            build_g_pair(src, (0, 1))

    def test_rejects_single_letter_alphabet(self):
        from avcqc.errors import AlphabetMismatch

        with pytest.raises(AlphabetMismatch):
            build_g_pair(flip_source(0.1), (0,))

    def test_rejects_independent_source(self):
        src = CorrelatedSource((0, 1), (0, 1), np.full((2, 2), 0.25))
        with pytest.raises(ZeroMutualInformation):
            build_g_pair(src, (0, 1))


class TestEnsembleState:
    @pytest.mark.parametrize("defect, error, message", [
        ("skew", NotHermitian, r"^at \[5\]: max \|m - m†\| entry is 1\.000e-03"),
        ("negative", NotPositive, r"^minimum eigenvalue -1\.000e-03 is below the floor -1\.0e-10$"),
        ("scaled", TraceNotOne, r"^trace is 1\.50*[0-9], \|trace - 1\| exceeds 1\.0e-10$"),
    ])
    def test_blocks_checked_as_one_density(self, monkeypatch, defect, error, message):
        # the dense state is checked on its blocks: each Hermitian and PSD,
        # their traces summing to 1
        build = separation._ensemble_blocks

        def defective(*args):
            blocks = np.array(build(*args))
            if defect == "skew":
                blocks[5, 0, 1] += 1e-3
            elif defect == "negative":
                blocks[5] = -1e-3 * np.eye(2)
            else:
                blocks *= 1.5
            return blocks

        monkeypatch.setattr(separation, "_ensemble_blocks", defective)
        src, w = flip_source(0.1), orthogonal_channel()
        g = build_g_pair(src, (0, 1)).g0
        with pytest.raises(error, match=message):
            ensemble_state(src, g, JammerKernel.uniform((0, 1), (0, 1)), w)

    def test_dense_side_charged_against_the_cap(self):
        src, w = flip_source(0.1), orthogonal_channel()
        g = build_g_pair(src, (0, 1)).g0
        q = JammerKernel.uniform((0, 1), (0, 1))
        with pytest.raises(DimOverflow,
                           match=r"^ensemble dimension 16 exceeds the product_dim cap 15$"):
            ensemble_state(src, g, q, w, caps=Caps(product_dim=15))
        assert ensemble_state(src, g, q, w, caps=Caps(product_dim=16)).matrix.shape == (16, 16)

    def test_constant_encoder_factorizes(self):
        src = flip_source(0.1)
        w = orthogonal_channel()
        g = {u: 0 for u in build_g_pair(src, (0, 1)).g0}
        q = JammerKernel.uniform((0, 1), (0, 1))
        ens = ensemble_state(src, g, q, w)
        # every block is P_V(v word) * rho(x0); receiver marginal is uniform
        for vi, block in enumerate(ens.blocks):
            assert np.allclose(block, (1 / 8) * ZERO, atol=1e-12)
        assert np.isclose(np.trace(ens.matrix).real, 1.0, atol=1e-12)

    def test_independent_source_weights_factorize(self):
        src = CorrelatedSource((0, 1), (0, 1), [[0.3 * 0.6, 0.3 * 0.4], [0.7 * 0.6, 0.7 * 0.4]])
        w = orthogonal_channel()
        g = {(0,): 0, (1,): 1}
        q = JammerKernel.uniform((0, 1), (0, 1))
        ens = ensemble_state(src, g, q, w)
        # conditional equals marginal: block v has weight P_V(v) * P_V'(g^{-1}(x))
        pv = src.receiver_marginal
        pvp = src.sender_marginal
        for vi in range(2):
            expected = pv[vi] * (pvp[0] * ZERO + pvp[1] * ONE)
            assert np.allclose(ens.blocks[vi], expected, atol=1e-12)

    def test_bitflip_blocks_by_hand(self):
        # one copy of the source, identity encoder, uniform kernel: each
        # block is P_V(v) * I/2 because the kernel mixes the flip pair
        src = flip_source(0.25)
        w = bitflip_channel()
        g = {(0,): 0, (1,): 1}
        q = JammerKernel.uniform((0, 1), (0, 1))
        ens = ensemble_state(src, g, q, w)
        for vi in range(2):
            assert np.allclose(ens.blocks[vi], 0.5 * np.eye(2) / 2, atol=1e-12)


class TestBlockWeights:
    """_block_weights gives the Kronecker-power reference's table bit for bit,
    one encoder at a time and from the pass g0 and g1 share."""

    @pytest.mark.parametrize("nx, d", [(nx, d) for nx in (2, 3, 4, 5) for d in (2, 3)])
    def test_fixed_draws(self, nx, d):
        w, src = separable_instance(np.random.default_rng([2024, nx, d]), nx, d)
        gp = build_g_pair(src, w.x_alphabet)
        shared = _block_weights(src, (gp.g0, gp.g1), gp.iota, w.x_alphabet)
        for g, pair_table in zip((gp.g0, gp.g1), shared):
            want = kron_block_weights(src, g, gp.iota, w.x_alphabet)
            for got in (_block_weights(src, [g], gp.iota, w.x_alphabet)[0], pair_table):
                assert got.shape == want.shape and (got == want).all()

    @pytest.mark.parametrize("joint", [
        [[0.3, 0.05, 0.12], [0.02, 0.33, 0.18]],
        [[0.4, 0.0, 0.1], [0.1, 0.0, 0.4]],
    ], ids=["three receiver symbols", "receiver marginal with a zero"])
    def test_receiver_alphabets(self, joint):
        src = CorrelatedSource(("u", "w"), ("a", "b", "c"), joint)
        for letters in (("x", "y"), ("x", "y", "z")):
            gp = build_g_pair(src, letters)
            shared = _block_weights(src, (gp.g0, gp.g1), gp.iota, letters)
            for g, pair_table in zip((gp.g0, gp.g1), shared):
                want = kron_block_weights(src, g, gp.iota, letters)
                for got in (_block_weights(src, [g], gp.iota, letters)[0], pair_table):
                    assert got.shape == (len(letters), 3 ** gp.iota)
                    assert (got == want).all()


class TestCertificateSpectrum:
    """lambda_top and lambda_floor come from the spectra of the certificate's
    d x d blocks; they are the extremes of the dense shifted operator built
    from those blocks within 4 ulps of max(1, |lambda|).  LAPACK rounds the
    dense and the block spectra differently, by a last bit on some draws,
    and which draws those are depends on the BLAS kernels: run with
    OpenBLAS's SkylakeX, Haswell, Prescott and Nehalem kernel sets."""

    SPECS = Path(__file__).resolve().parents[1] / "specs"

    @pytest.mark.parametrize(
        "case", [(nx, d) for nx in (2, 3, 4, 5) for d in (2, 3)] + ["orthogonal-flip10"], ids=str
    )
    def test_block_extremes_are_the_dense_ones(self, case):
        if case == "orthogonal-flip10":
            w = io.load_channel(self.SPECS / "orthogonal_channel.json")
            src = io.load_source(self.SPECS / "flip10_source.json")
        else:
            w, src = separable_instance(np.random.default_rng([2024, *case]), *case)
        cert = separation_test(w, src, build_g_pair(src, w.x_alphabet))
        assert isinstance(cert, SeparationCertificate)
        eigs = np.linalg.eigvalsh(cert.operator_a - cert.threshold_b * np.eye(cert.block_dim))
        for block, dense in ((cert.lambda_top, eigs[-1]), (cert.lambda_floor, min(0.0, eigs[0]))):
            assert abs(block - dense) <= 4 * np.spacing(max(1.0, abs(dense)))


class TestBlockForm:
    """The certificate and the ensemble state hold their d x d blocks: no
    dense (|V|^iota d)^2 operator is built on the way to a certificate, a
    pre-code, its error or a key-agreement run, each dense view is built
    on its first read, and the separation cap is charged before the solve."""

    @pytest.fixture
    def dense_builds(self, monkeypatch):
        shapes = []
        build = separation._block_diag
        monkeypatch.setattr(separation, "_block_diag", lambda b: shapes.append(b.shape) or build(b))
        return shapes

    def test_dense_views_only_on_read(self, dense_builds):
        # iota = 6: 64 receiver blocks of side 4
        w, src = separable_instance(np.random.default_rng([2024, 16, 4]), 16, 4)
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp)
        assert isinstance(cert, SeparationCertificate) and cert.block_dim == 256
        pre = coding.repetition_precode(cert, gp, src, w, num_keys=2, nu=1)
        coding.correlation_code_error_informed(pre, w, src)
        coding.cr_generation_run(w, src, pre, trials=20, seed=3)
        certificate_soundness_sweep(cert, w, src, gp, kernels=10)
        induced_binary_avc(cert, w, src, gp)
        assert dense_builds == []
        ens = ensemble_state(src, gp.g0, JammerKernel.uniform(w.x_alphabet, w.s_alphabet), w)
        assert dense_builds == []
        views = [(cert, "operator_a", cert.operator_blocks), (cert, "m0", cert.measurement[:, 0]),
                 (cert, "m1", cert.measurement[:, 1]), (ens, "matrix", ens.blocks)]
        for k, (owner, name, blocks) in enumerate(views, start=1):
            dense = getattr(owner, name)
            assert dense_builds == [(64, 4, 4)] * k
            assert getattr(owner, name) is dense and not dense.flags.writeable
            expected = np.zeros((256, 256), dtype=complex)
            for v, block in enumerate(blocks):
                expected[4 * v : 4 * v + 4, 4 * v : 4 * v + 4] = block
            assert np.array_equal(dense, expected)

    def test_cap_charged_before_the_solve(self, monkeypatch):
        # 8 receiver blocks of side 2: block_dim 16
        src, w = flip_source(0.1), orthogonal_channel()
        gp = build_g_pair(src, w.x_alphabet)

        def no_solve(*args, **kwargs):
            pytest.fail("the distance solve ran before the cap was charged")

        with monkeypatch.context() as m:
            m.setattr(separation, "_set_distance", no_solve)
            with pytest.raises(DimOverflow,
                               match=r"^ensemble dimension 16 exceeds the product_dim cap 15$"):
                separation_test(w, src, gp, caps=Caps(product_dim=15))
        cert = separation_test(w, src, gp, caps=Caps(product_dim=16))
        assert isinstance(cert, SeparationCertificate) and cert.block_dim == 16

    def test_joint_generators_built_once(self):
        # iota = 8: 256 receiver blocks of side 4, and the joint generator
        # matrix [gen0, -gen1] is 256 * 16 rows by 2 * 70 * 2 columns, 9.2 MB;
        # each half built apart, with their concatenation and a negated
        # copy, and the block weights gathered as a (256, 8, 256) array, the
        # traced peak was 22 MB
        w, src = separable_instance(np.random.default_rng([2024, 70, 4]), 70, 4)
        gp = build_g_pair(src, w.x_alphabet)
        tracemalloc.start()
        try:
            cert = separation_test(w, src, gp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(cert, SeparationCertificate) and cert.block_dim == 1024
        assert peak <= 15e6, peak


class TestEmbedding:
    def test_identity_norm(self):
        v = embed_stack(np.eye(2))
        assert v @ v == pytest.approx(2.0, abs=1e-12)

    def test_pauli_orthogonality(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert embed_stack(x) @ embed_stack(z) == pytest.approx(0.0, abs=1e-12)

    def test_gram_matrix_preserved(self):
        rng = np.random.default_rng(3)
        mats = []
        for _ in range(6):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mats.append(g + g.conj().T)
        for a in mats:
            for b in mats:
                assert embed_stack(a) @ embed_stack(b) == pytest.approx(
                    float(np.real(np.trace(a @ b))), abs=1e-12
                )

    def test_gram_factor_keeps_the_trace_inner_product(self, monkeypatch):
        # the matrix separation_test hands to the solve is [gen0, -gen1]:
        # column (x, s) of gen_i is the generator w_x(v) W(x, s) of every
        # block v, so gen0^T gen1 is sum_v w_x(v) w_x'(v) tr(W(x, s) W(x', s')).
        # Both halves equal helpers.encoder_generators bit for bit, which
        # pins the generators the geometry tests build to the solved ones.
        w, src = separable_instance(np.random.default_rng([2024, 3, 3]), 3, 3)
        gp = build_g_pair(src, w.x_alphabet)
        solve, seen = separation._set_distance, []

        def spy(joint, k0, *args, **kwargs):
            seen.append((joint.copy(), k0))
            return solve(joint, k0, *args, **kwargs)

        monkeypatch.setattr(separation, "_set_distance", spy)
        separation_test(w, src, gp)
        [(joint, k0)] = seen
        wgt0, wgt1 = _block_weights(src, (gp.g0, gp.g1), gp.iota, w.x_alphabet)
        embedded = embed_stack(w.states)
        assert k0 == 6 and joint.shape == (len(wgt0[0]) * 9, 12)
        gen0, gen1 = joint[:, :k0], -joint[:, k0:]
        assert gen0.tobytes() == encoder_generators(embedded, wgt0).tobytes()
        assert gen1.tobytes() == encoder_generators(embedded, wgt1).tobytes()
        traces = np.einsum("xsij,yrji->xsyr", w.states, w.states).real
        expected = np.einsum("xv,yv,xsyr->xsyr", wgt0, wgt1, traces).reshape(6, 6)
        assert np.allclose(gen0.T @ gen1, expected, atol=1e-15)


def leaky_channel():
    """The jammer can shrink but not close the gap: rho(x, 1) leaks 20% into
    the opposite basis state."""
    leak0 = 0.8 * ZERO + 0.2 * ONE
    leak1 = 0.8 * ONE + 0.2 * ZERO
    return Avcqc((0, 1), (0, 1), np.array([[ZERO, leak0], [ONE, leak1]]))


class TestSeparationTest:
    def test_constant_channel_not_separable(self):
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        res = separation_test(constant_channel(), src, gp, seed=0)
        assert isinstance(res, NotSeparable)
        assert res.witness_distance <= 1e-10

    def test_bitflip_not_separable(self):
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        res = separation_test(bitflip_channel(), src, gp, seed=0)
        assert isinstance(res, NotSeparable)
        assert res.witness_distance <= 1e-10
        # the witness kernels really do bring the sets together
        e0 = ensemble_state(src, gp.g0, res.witness_q0, bitflip_channel())
        e1 = ensemble_state(src, gp.g1, res.witness_q1, bitflip_channel())
        assert np.allclose(e0.matrix, e1.matrix, atol=1e-8)

    def test_orthogonal_channel_certificate(self):
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        cert = separation_test(orthogonal_channel(), src, gp, seed=0)
        assert isinstance(cert, SeparationCertificate)
        assert cert.margin > 0
        # measurement is a valid two-outcome POVM
        eig0 = np.linalg.eigvalsh(cert.m0)
        eig1 = np.linalg.eigvalsh(cert.m1)
        assert eig0.min() >= -1e-10 and eig1.min() >= -1e-10
        assert np.allclose(cert.m0 + cert.m1, np.eye(cert.block_dim), atol=1e-12)

    def test_certificate_soundness_sweep(self):
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        w = orthogonal_channel()
        cert = separation_test(w, src, gp, seed=0)
        assert certificate_soundness_sweep(cert, w, src, gp, kernels=1000, seed=11) == 0

    def test_swap_symmetry(self):
        src = flip_source(0.1)
        w = orthogonal_channel()
        gp = build_g_pair(src, (0, 1))
        swapped = type(gp)(iota=gp.iota, g0=gp.g1, g1=gp.g0, groups=gp.groups)
        a = separation_test(w, src, gp, seed=0)
        b = separation_test(w, src, swapped, seed=0)
        assert a.margin == pytest.approx(b.margin, abs=1e-9)
        shift_a = a.operator_a - a.threshold_b * np.eye(a.block_dim)
        shift_b = b.operator_a - b.threshold_b * np.eye(b.block_dim)
        assert np.allclose(shift_a, -shift_b, atol=1e-9)

    def test_kernel_dependent_instance_distance_is_exact(self):
        w = leaky_channel()
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        cert = separation_test(w, src, gp, seed=0)
        # the separating operator has unit Frobenius norm, so by
        # Cauchy-Schwarz the exact margin certifies the solver distance:
        # 2*margin <= true distance <= solver distance, and the margin is
        # computed by exact per-letter extremization
        assert cert.margin == pytest.approx(cert.distance / 2, abs=1e-9)
        # independent of the restart seed
        for seed in (1, 2, 3):
            again = separation_test(w, src, gp, seed=seed)
            assert again.distance == pytest.approx(cert.distance, abs=1e-9)
        # random feasible pairs only ever sit farther apart
        rng = np.random.default_rng(5)
        for _ in range(50):
            q0 = JammerKernel((0, 1), (0, 1), rng.dirichlet(np.ones(2), size=2))
            q1 = JammerKernel((0, 1), (0, 1), rng.dirichlet(np.ones(2), size=2))
            e0 = ensemble_state(src, gp.g0, q0, w).matrix
            e1 = ensemble_state(src, gp.g1, q1, w).matrix
            assert np.linalg.norm(e0 - e1) >= cert.distance - 1e-9

    def test_three_letter_qutrit_pipeline(self):
        # iota = 4 block pairing: 2 pinned pairs, 5 free pairs, 2 leftovers
        states = np.zeros((3, 2, 3, 3), dtype=complex)
        for x in range(3):
            for s in range(2):
                states[x, s, x, x] = 1.0
        w = Avcqc((0, 1, 2), (0, 1), states)
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1, 2))
        assert gp.iota == 4
        hist = {g: sum(1 for v in gp.groups.values() if v == g) for g in (1, 2, 3)}
        assert hist == {1: 4, 2: 10, 3: 2}
        cert = separation_test(w, src, gp, seed=0)
        assert cert.margin == pytest.approx(cert.distance / 2, abs=1e-9)
        assert cert.block_dim == 16 * 3
        bavc = induced_binary_avc(cert, w, src, gp)
        m00, m11 = bavc.min_correct
        assert m00 + m11 > 1.0
        assert binary_avc_positivity(bavc)["positive"]

    def test_dead_band_raises_indeterminate(self):
        # nearly identical outputs scale the set distance linearly into the band
        eps = 2e-6
        rho1 = (1 - eps) * ZERO + eps * ONE
        w = Avcqc((0, 1), (0, 1), np.array([[ZERO, ZERO], [rho1, rho1]]))
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        with pytest.raises(Indeterminate, match="dead band"):
            separation_test(w, src, gp, seed=0)


# set distances of the fixed separable draws separable_instance(default_rng([2024, |X|, d])),
# as the alternating 16-restart solver that the single convex solve replaced found them
PINNED_DISTANCES = {
    (2, 2): 0.12857246908794326,
    (2, 3): 0.1753330138066937,
    (3, 2): 0.12892877750871085,
    (3, 3): 0.1319375721861398,
    (4, 2): 0.15293740946276554,
    (4, 3): 0.12195612468039387,
    (5, 2): 0.06883318221017753,
    (5, 3): 0.13524008087710393,
}


def fixed_draw(nx, d):
    w, src = separable_instance(np.random.default_rng([2024, nx, d]), nx, d)
    return w, src, build_g_pair(src, w.x_alphabet)


class TestSetDistanceBracket:
    @pytest.mark.parametrize("nx, d", sorted(PINNED_DISTANCES))
    def test_fixed_draws_match_pinned_distances(self, nx, d):
        w, src, gp = fixed_draw(nx, d)
        cert = separation_test(w, src, gp, seed=0)
        assert isinstance(cert, SeparationCertificate)
        assert cert.distance == pytest.approx(PINNED_DISTANCES[nx, d], abs=1e-12)
        # the bracket: lower <= distance, and f - lower^2 is the closing gap
        assert cert.distance_lower <= cert.distance
        assert cert.distance**2 - cert.distance_lower**2 <= DEFAULT_TOL.quadratic_solver
        assert certificate_soundness_sweep(cert, w, src, gp, kernels=1000, seed=1) == 0

    @pytest.mark.parametrize("instance", ["orthogonal", "leak", "draw-X3-d2"])
    def test_random_pairs_never_closer_than_the_lower_bound(self, instance):
        if instance == "draw-X3-d2":
            w, src, gp = fixed_draw(3, 2)
        else:
            w = orthogonal_channel() if instance == "orthogonal" else leaky_channel()
            src = flip_source(0.1)
            gp = build_g_pair(src, (0, 1))
        cert = separation_test(w, src, gp, seed=0)
        rng = np.random.default_rng(9)
        nx, ns = len(w.x_alphabet), len(w.s_alphabet)
        for _ in range(40):
            q0, q1 = (JammerKernel(w.x_alphabet, w.s_alphabet, rng.dirichlet(np.ones(ns), size=nx))
                      for _ in range(2))
            e0 = ensemble_state(src, gp.g0, q0, w).matrix
            e1 = ensemble_state(src, gp.g1, q1, w).matrix
            assert np.linalg.norm(e0 - e1) >= cert.distance_lower - 1e-12

    def test_intersecting_sets_give_a_zero_bracket(self):
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        for w in (constant_channel(), bitflip_channel()):
            res = separation_test(w, src, gp, seed=7)
            assert isinstance(res, NotSeparable)
            assert 0.0 <= res.distance_lower <= res.witness_distance <= 1e-15

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_step_budget_leaves_a_valid_bracket(self, monkeypatch, max_iter):
        # the uniform start and the first Newton step leave the gap open;
        # the bracket still holds the pinned distance, and the separation
        # decision under that budget is a sound certificate or Indeterminate
        w, src, gp = fixed_draw(2, 2)
        wgt0, wgt1 = _block_weights(src, (gp.g0, gp.g1), gp.iota, w.x_alphabet)
        gens = tuple(encoder_generators(embed_stack(w.states), wgt) for wgt in (wgt0, wgt1))
        dist, lower, _, _ = affine_set_distance(*gens, 2, 2, max_iter=max_iter)
        assert dist**2 - lower**2 > DEFAULT_TOL.quadratic_solver
        assert lower <= PINNED_DISTANCES[2, 2] <= dist
        solve = separation._set_distance

        def budget(*args, **kwargs):
            return solve(*args, **kwargs, max_iter=max_iter)

        monkeypatch.setattr(separation, "_set_distance", budget)
        try:
            cert = separation_test(w, src, gp)
        except Indeterminate:
            return
        assert isinstance(cert, SeparationCertificate)
        assert cert.distance_lower <= PINNED_DISTANCES[2, 2] <= cert.distance
        assert certificate_soundness_sweep(cert, w, src, gp, kernels=1000, seed=1) == 0


class TestInducedBinaryAvc:
    def _cert_setup(self):
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        w = orthogonal_channel()
        cert = separation_test(w, src, gp, seed=0)
        return w, src, gp, cert

    def test_rows_are_distributions(self):
        w, src, gp, cert = self._cert_setup()
        bavc = induced_binary_avc(cert, w, src, gp)
        # V(j|i) = 1 - V(1-j|i), so the rows are distributions exactly when
        # both correct-decision intervals lie in [0, 1]
        for lo, hi in bavc.correct_intervals:
            assert -1e-9 <= lo <= hi <= 1.0 + 1e-9

    def test_orthogonal_channel_biased_correct(self):
        w, src, gp, cert = self._cert_setup()
        bavc = induced_binary_avc(cert, w, src, gp)
        m00, m11 = bavc.min_correct
        assert m00 > 0.5 and m11 > 0.5

    @pytest.mark.parametrize("case", ["orthogonal+flip10", "wishart3x3+flip05"])
    def test_intervals_match_deterministic_kernel_enumeration(self, case):
        # independent reference: V(i|i) is linear in the kernel, so its
        # extremes over the kernel polytope sit at its vertices, the
        # |S|^|X| deterministic kernels; each is evaluated as tr(sigma M1)
        # on the dense ensemble state
        if case == "orthogonal+flip10":
            w, src = orthogonal_channel(), flip_source(0.1)
        else:
            w, src = wishart_avcqc(np.random.default_rng(0), 3, 3, 2), flip_source(0.05)
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp, seed=0)
        nx, ns = len(w.x_alphabet), len(w.s_alphabet)
        v10, v11 = [], []
        for choice in iproduct(range(ns), repeat=nx):
            q = JammerKernel(w.x_alphabet, w.s_alphabet, np.eye(ns)[list(choice)])
            for g, out in ((gp.g0, v10), (gp.g1, v11)):
                out.append(np.trace(ensemble_state(src, g, q, w).matrix @ cert.m1).real)
        (lo0, hi0), (lo1, hi1) = induced_binary_avc(cert, w, src, gp).correct_intervals
        assert lo0 == pytest.approx(1.0 - max(v10), abs=1e-12)
        assert hi0 == pytest.approx(1.0 - min(v10), abs=1e-12)
        assert lo1 == pytest.approx(min(v11), abs=1e-12)
        assert hi1 == pytest.approx(max(v11), abs=1e-12)

    def test_exact_intervals_equal_the_grid_extremes(self):
        # the 16-step kernel grid contains every vertex of the kernel
        # polytope, so its extremes were already the exact ones
        w, src, gp, cert = self._cert_setup()
        (lo0, hi0), (lo1, hi1) = induced_binary_avc(cert, w, src, gp).correct_intervals
        assert lo0 == pytest.approx(0.642222222222222, abs=1e-15)
        assert hi0 == pytest.approx(0.6422222222222221, abs=1e-15)
        assert lo1 == pytest.approx(0.6822222222222223, abs=1e-15)
        assert hi1 == pytest.approx(0.6822222222222223, abs=1e-15)

    def test_interval_bounds_are_ordered(self):
        with pytest.raises(InvalidArgument):
            BinaryAvc(correct_intervals=((0.6, 0.5), (0.6, 0.6)))

    def test_margin_lower_bounds_correct_sum(self):
        w, src, gp, cert = self._cert_setup()
        bavc = induced_binary_avc(cert, w, src, gp)
        m00, m11 = bavc.min_correct
        bound = 1.0 + cert.margin / (cert.lambda_top - cert.lambda_floor)
        assert m00 + m11 >= bound - 1e-9


class TestBinaryAvcPositivity:
    def test_noiseless_rate_one(self):
        res = binary_avc_positivity(BinaryAvc(correct_intervals=((1.0, 1.0), (1.0, 1.0))))
        assert res["positive"] is True
        assert res["rate_r"] == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_noisy_rows(self):
        res = binary_avc_positivity(BinaryAvc(correct_intervals=((0.6, 0.6), (0.6, 0.6))))
        assert res["positive"] is True
        expected = 1.0 - binary_entropy(0.4)
        assert res["rate_r"] == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx(0.02905, abs=5e-5)

    def test_boundary_not_positive(self):
        res = binary_avc_positivity(BinaryAvc(correct_intervals=((0.5, 0.5), (0.5, 0.5))))
        assert res["positive"] is False

    def test_grid_positivity_hypothesis_exhaustive(self):
        # when positivity holds, every pair of reachable correct-decision
        # probabilities satisfies the strict sum bound
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        w = orthogonal_channel()
        cert = separation_test(w, src, gp, seed=0)
        bavc = induced_binary_avc(cert, w, src, gp)
        res = binary_avc_positivity(bavc)
        if res["positive"]:
            (lo00, _), (lo11, _) = bavc.correct_intervals
            assert lo00 + lo11 > 1.0
