"""Operators against dense loop-built matrices."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

import oracles
from convsense import operators
from convsense import sequences as seqs
from convsense.operators import (Basis, CirculantOperator, SamplingSet,
                                 SensingOperator, StackedOperator,
                                 equispaced_sampling, random_sampling,
                                 vector_to_csv)


def _rand_vec(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# circulant construction and round trips
# ---------------------------------------------------------------------------

def test_fft_sign_convention():
    # lock the transform convention: F[1, 1] must be -j at N=4
    f = oracles.dft_matrix(4)
    assert f[1, 1] == pytest.approx(-1j)
    # the circulant built from a spectrum must diagonalize in the same
    # convention: A = (1/sqrt(N)) F^* diag(sigma) F
    sigma = seqs.fzc(4, 1).values
    a = CirculantOperator.from_spectrum(sigma)
    want = f.conj().T @ np.diag(sigma) @ f / np.sqrt(4)
    assert np.allclose(oracles.circulant_from_filter(a.filter), want,
                       atol=1e-12)


@pytest.mark.parametrize("n", [4, 9, 16, 31])
def test_spectrum_filter_round_trip(n):
    sigma = _rand_vec(n, n)
    sigma /= np.abs(sigma)  # unimodular
    a = CirculantOperator.from_spectrum(sigma)
    b = CirculantOperator.from_filter(a.filter)
    assert np.allclose(a.spectrum, b.spectrum, atol=1e-10)
    assert np.allclose(a.filter, b.filter, atol=1e-10)
    for circ in (a, b):
        assert np.max(np.abs(np.abs(circ.spectrum) - 1.0)) <= 1e-9


def test_from_spectrum_rejects_non_unimodular():
    with pytest.raises(ValueError):
        CirculantOperator.from_spectrum(np.array([1.0, 2.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_constructors_reject_non_finite_entries(bad):
    sigma = seqs.fzc(8, 1).values.copy()
    sigma[3] = bad
    filt = CirculantOperator.from_spectrum(seqs.fzc(8, 1)).filter.copy()
    filt[5] = bad
    for build, vals in ((CirculantOperator.from_spectrum, sigma),
                        (CirculantOperator.from_filter, filt)):
        # an inf filter also makes numpy warn inside the FFT
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            build(vals)


def test_dense_matches_loop_circulant():
    # A applied to the rows of the identity is A as a matrix, transposed
    for n, seed in [(8, 0), (17, 1), (32, 2)]:
        a = CirculantOperator.from_spectrum(seqs.random_phase(n, seed))
        assert np.allclose(a.apply(np.eye(n)),
                           oracles.circulant_from_filter(a.filter).T,
                           atol=1e-12)


@pytest.mark.parametrize("kind,n", [("fzc", 64), ("golay", 52),
                                    ("legendre", 31)])
def test_apply_matches_dense(kind, n):
    s = getattr(seqs, kind)(n) if kind != "fzc" else seqs.fzc(n, 1)
    a = CirculantOperator.from_spectrum(s)
    dense = oracles.circulant_from_filter(a.filter)
    x = _rand_vec(n, 5)
    assert np.allclose(a.apply(x), dense @ x, atol=1e-9)


def test_unimodular_spectrum_gives_tight_frame():
    # A^* A = N I when |sigma_k| = 1 for all k
    n = 24
    a = CirculantOperator.from_spectrum(seqs.extended_polyphase(n))
    dense = oracles.circulant_from_filter(a.filter)
    assert np.allclose(dense.conj().T @ dense, n * np.eye(n), atol=1e-9)


def test_apply_batch_matches_single():
    a = CirculantOperator.from_spectrum(seqs.fzc(16, 3))
    block = np.stack([_rand_vec(16, i) for i in range(4)])
    got = a.apply_batch(block)
    for i in range(4):
        assert np.allclose(got[i], a.apply(block[i]), atol=1e-12)


def test_real_filter_flag():
    a = CirculantOperator.from_filter(seqs.m_sequence(4))
    assert np.max(np.abs(a.filter.imag)) <= 1e-10


def test_arrays_are_immutable():
    a = CirculantOperator.from_spectrum(seqs.fzc(8, 1))
    with pytest.raises((ValueError, RuntimeError)):
        a.spectrum[0] = 0


# ---------------------------------------------------------------------------
# sampling sets
# ---------------------------------------------------------------------------

def test_random_sampling_reproducible_sorted_unique():
    s1 = random_sampling(100, 30, 42)
    s2 = random_sampling(100, 30, 42)
    assert np.array_equal(s1.indices, s2.indices)
    assert np.all(np.diff(s1.indices) > 0)
    assert s1.indices.min() >= 0 and s1.indices.max() < 100


def test_random_sampling_accepts_generator():
    rng = np.random.default_rng(7)
    s = random_sampling(50, 10, rng)
    assert s.indices.size == 10


def _scalar_fisher_yates(n, m, rng):
    """Reference draw: one scalar ``integers(i, n)`` call per swap."""
    arr = np.arange(n, dtype=np.int64)
    for i in range(m):
        j = int(rng.integers(i, n))
        arr[i], arr[j] = arr[j], arr[i]
    return np.sort(arr[:m])


_SIZES = st.integers(1, 4096).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n)))


@settings(derandomize=True, max_examples=240, deadline=None)
@given(size=_SIZES, seed=st.integers(0, 2 ** 63 - 1))
@example(size=(1, 1), seed=0)
@example(size=(4096, 1), seed=1)
@example(size=(4096, 4096), seed=2)
def test_random_sampling_matches_scalar_draw_stream(size, seed):
    # M sorted, unique in-range indices; and the batched bounds draw must
    # consume the generator exactly like the scalar loop: later draws
    # (signal, noise) come from the same stream
    n, m = size
    idx = random_sampling(n, m, seed).indices
    assert idx.size == m and idx[0] >= 0 and idx[-1] < n
    assert np.all(np.diff(idx) > 0)
    ref = np.random.default_rng(seed)
    want = _scalar_fisher_yates(n, m, ref)
    assert np.array_equal(idx, want)
    rng = np.random.default_rng(seed)
    assert np.array_equal(random_sampling(n, m, rng).indices, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(0, 2 ** 63) == ref.integers(0, 2 ** 63)


def test_deterministic_and_equispaced_sampling():
    d = SamplingSet(20, [3, 1, 7])
    assert np.array_equal(d.indices, [1, 3, 7])
    e = equispaced_sampling(12, 4)
    assert np.array_equal(e.indices, [0, 3, 6, 9])  # floor(i*N/M)


def test_sampling_restrict():
    # with A = I (the filter a unit impulse) a stack's forward keeps the
    # sampled rows of its input, times 1/sqrt(M)
    s = SamplingSet(6, [1, 4])
    x = np.arange(6, dtype=np.complex128)
    impulse = CirculantOperator.from_filter(np.eye(6)[0])
    stack = StackedOperator.of([SensingOperator(impulse, s,
                                                Basis("identity"))])
    assert np.allclose(stack.forward(x[None])[0] * np.sqrt(2), [1, 4],
                       rtol=0, atol=1e-14)


def test_sampling_rejects_bad_shapes():
    with pytest.raises(ValueError):
        random_sampling(10, 11, 0)
    with pytest.raises(ValueError):
        SamplingSet(5, [0, 0, 2])
    with pytest.raises(ValueError):
        SamplingSet(5, [7])


def test_sampling_refuses_non_integer_indices():
    # 1.7 and 3.2 would otherwise be truncated to rows 1 and 3
    with pytest.raises(ValueError, match="must be integers"):
        SamplingSet(8, [1.7, 3.2])


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["identity", "inverse_fourier",
                                  "inverse_dct2"])
def test_basis_unitary_and_dense_consistent(kind):
    n = 24
    b = Basis(kind)
    dense = oracles.basis_matrix(kind, n)
    assert np.allclose(dense.conj().T @ dense, np.eye(n), atol=1e-10)
    x = _rand_vec(n, 3)
    assert np.allclose(b.apply(x), dense @ x, atol=1e-10)
    assert np.allclose(b.adjoint(x), dense.conj().T @ x, atol=1e-10)


def test_idct_matches_loop_formula():
    # the basis applied to the rows of the identity is Psi transposed
    n = 17
    assert np.allclose(Basis.inverse_dct2().apply(np.eye(n)),
                       oracles.idct2_matrix(n).T, atol=1e-12)


def test_dct_basis_bit_identical_to_split_real_imag_transforms():
    def split(transform, x):
        x = np.asarray(x, dtype=np.complex128)
        out = transform(x.real, type=2, norm="ortho").astype(np.complex128)
        out += 1j * transform(x.imag, type=2, norm="ortho")
        return out

    n, b = 64, 9
    rng = np.random.default_rng(4)
    block = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    # rows of a column-major block, as subspace pursuit's pruned
    # ccols[:, keep] holds its columns
    sliced = block.T[:, [0, 2, 3, 7]].T
    assert sliced.flags.c_contiguous and not sliced.flags.f_contiguous
    basis = Basis.inverse_dct2()
    for x in (_rand_vec(n, 5), rng.standard_normal(n), block, sliced):
        assert np.array_equal(basis.apply(x), split(scipy.fft.idct, x))
        assert np.array_equal(basis.adjoint(x), split(scipy.fft.dct, x))


def test_inverse_fourier_matches_loop_formula():
    # the basis applied to the rows of the identity is Psi transposed
    n = 12
    want = oracles.dft_matrix(n).conj().T / np.sqrt(n)
    assert np.allclose(Basis("inverse_fourier").apply(np.eye(n)), want.T,
                       atol=1e-12)


# ---------------------------------------------------------------------------
# composed sensing operator
# ---------------------------------------------------------------------------

def _member_columns(theta, idx):
    """Theta[:, idx] for a 1-D ``idx``, from the one-member stack of
    ``theta``."""
    return StackedOperator.of([theta]).columns(np.asarray(idx)[None])[0]


@pytest.mark.parametrize("basis_kind", ["identity", "inverse_fourier",
                                        "inverse_dct2"])
def test_sensing_forward_matches_dense_chain(basis_kind):
    n, m = 32, 12
    circ = CirculantOperator.from_spectrum(seqs.golay(n))
    samp = random_sampling(n, m, 1)
    theta = SensingOperator(circ, samp, Basis(basis_kind))
    sel = np.zeros((m, n))
    sel[np.arange(m), samp.indices] = 1.0
    dense_chain = (sel @ oracles.circulant_from_filter(circ.filter)
                   @ oracles.basis_matrix(basis_kind, n)) / np.sqrt(m)
    x = _rand_vec(n, 9)
    assert np.allclose(theta.forward(x), dense_chain @ x, atol=1e-9)
    y = _rand_vec(m, 10)
    assert np.allclose(theta.adjoint(y), dense_chain.conj().T @ y,
                       atol=1e-9)
    assert np.allclose(_member_columns(theta, np.arange(n)), dense_chain,
                       atol=1e-9)


def test_sensing_adjoint_inner_product_identity():
    n, m = 48, 16
    circ = CirculantOperator.from_spectrum(seqs.fzc(n, 5))
    theta = SensingOperator(circ, random_sampling(n, m, 3),
                            Basis("inverse_fourier"))
    f, y = _rand_vec(n, 0), _rand_vec(m, 1)
    lhs = np.vdot(y, theta.forward(f))
    rhs = np.vdot(theta.adjoint(y), f)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_forward_batch_matches_single():
    n, m = 24, 10
    theta = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(n, 1)),
                            random_sampling(n, m, 2), Basis.inverse_dct2())
    block = np.stack([_rand_vec(n, i) for i in range(3)])
    got = StackedOperator.of([theta] * 3).forward(block)
    for i in range(3):
        assert np.allclose(got[i], theta.forward(block[i]), atol=1e-12)


@pytest.mark.parametrize("basis_kind", ["identity", "inverse_fourier",
                                        "inverse_dct2"])
@pytest.mark.parametrize("domain", ["spectrum", "filter"])
@pytest.mark.parametrize("n,m", [(64, 32), (63, 20)])
def test_matrix_equals_every_column(n, m, domain, basis_kind):
    values = _rand_vec(n, n)
    if domain == "spectrum":
        circ = CirculantOperator.from_spectrum(values / np.abs(values))
    else:
        circ = CirculantOperator.from_filter(values)
    theta = SensingOperator(circ, random_sampling(n, m, 5), Basis(basis_kind))
    got = StackedOperator.of([theta]).matrix()
    want = _member_columns(theta, np.arange(n))
    assert got.shape == (m, n) and got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


_MATRIX_CIRCULANTS = {
    "fzc_512": lambda: CirculantOperator.from_spectrum(seqs.fzc(512, 1)),
    "fzc_127": lambda: CirculantOperator.from_spectrum(seqs.fzc(127, 1)),
    "complex_filter_64": lambda: CirculantOperator.from_filter(
        _rand_vec(64, 3)),
    "m_sequence_filter_127": lambda: CirculantOperator.from_filter(
        seqs.m_sequence(7)),
}


@pytest.mark.parametrize("basis_kind", ["identity", "inverse_fourier",
                                        "inverse_dct2"])
@pytest.mark.parametrize("circ_name", sorted(_MATRIX_CIRCULANTS))
def test_matrix_scales_as_the_division_by_sqrt_m(circ_name, basis_kind):
    # matrix() multiplies by 1/sqrt(M) where it divided by sqrt(M), kept
    # as oracles.sensing_matrix.  numpy divides a complex entry by a real
    # s as (re + im*0, im - re*0) times fl(1/s), so every nonzero part
    # keeps its bytes and an exact zero may change sign: array_equal on
    # the float parts says just that.  The real filter's Theta has zero
    # parts in every basis, FZC's a few under the Fourier and DCT bases,
    # and 1-3906 of them change sign under the Fourier and DCT bases
    circ = _MATRIX_CIRCULANTS[circ_name]()
    n = circ.n
    theta = SensingOperator(circ, random_sampling(n, n // 4, 1),
                            Basis(basis_kind))
    got = StackedOperator.of([theta]).matrix()
    want = oracles.sensing_matrix(theta)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


_COLUMN_CIRCULANTS = {
    "golay_256": lambda: CirculantOperator.from_spectrum(seqs.golay(256)),
    "fzc_257": lambda: CirculantOperator.from_spectrum(seqs.fzc(257, 1)),
    # non-unimodular spectrum: the Fourier closed form must still hold
    "m_sequence_filter_255": lambda: CirculantOperator.from_filter(
        seqs.m_sequence(8)),
}


@pytest.mark.parametrize("basis_kind", ["identity", "inverse_fourier",
                                        "inverse_dct2"])
@pytest.mark.parametrize("circ_name", sorted(_COLUMN_CIRCULANTS))
def test_columns_match_forward_batch(circ_name, basis_kind):
    circ = _COLUMN_CIRCULANTS[circ_name]()
    n = circ.n
    unimodular = np.max(np.abs(np.abs(circ.spectrum) - 1.0)) <= 1e-9
    assert unimodular == (circ_name != "m_sequence_filter_255")
    theta = SensingOperator(circ, random_sampling(n, 40, 3),
                            Basis(basis_kind))
    for idx in ([0, n - 1], [n - 1, 17, 0, 200, 5, 128], [],
                list(range(n))):
        idx = np.asarray(idx, dtype=np.int64)
        block = np.zeros((idx.size, n), dtype=np.complex128)
        block[np.arange(idx.size), idx] = 1.0
        got = _member_columns(theta, idx)
        assert got.shape == (theta.m, idx.size)
        if idx.size:
            stack = StackedOperator.of([theta] * idx.size)
            np.testing.assert_allclose(got, stack.forward(block).T,
                                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("basis_kind", ["identity", "inverse_fourier",
                                        "inverse_dct2"])
@pytest.mark.parametrize("circ_name", sorted(_COLUMN_CIRCULANTS))
def test_column_block_equals_its_one_column_builds(circ_name, basis_kind):
    # OMP appends one newly built column per round to the block of the
    # rounds before, so a block must equal its columns built one at a time
    # bit for bit (for inverse DCT-II: pocketfft transforms each column of
    # an (N, c) block as it transforms a single column)
    circ = _COLUMN_CIRCULANTS[circ_name]()
    n = circ.n
    rng = np.random.default_rng(11)
    theta = SensingOperator(circ, random_sampling(n, 60, rng),
                            Basis(basis_kind))
    for idx in (rng.permutation(n)[:16], [n - 1, 3, 0, 2, n - 2, 1],
                rng.permutation(n)[:33].tolist() + [n - 1]):
        idx = np.asarray(idx, dtype=np.int64)
        got = _member_columns(theta, idx)
        one_by_one = np.concatenate(
            [_member_columns(theta, idx[j:j + 1]) for j in range(idx.size)],
            axis=1)
        assert np.array_equal(got, one_by_one)
        # and every leading block, as OMP's block grows
        for c in (1, 2, 5, idx.size - 1):
            assert np.array_equal(_member_columns(theta, idx[:c]),
                                  got[:, :c])


def _reference_forward(theta, f):
    """Theta @ f[b] for each row of a (B, N) block by the one-operator
    chain the stacked forward replaced: Psi, FFT, spectrum, inverse FFT,
    sqrt(N), the sampled rows, / sqrt(M) (kept as the bit-for-bit
    reference)."""
    u = np.fft.fft(theta.basis.apply(np.asarray(f, dtype=np.complex128)))
    u = np.fft.ifft(theta.circulant.spectrum * u) * np.sqrt(theta.n)
    return u[..., theta.sampling.indices] / np.sqrt(theta.m)


def _reference_columns(theta, idx):
    """Theta[:, idx] by the one-operator formulas the stacked form replaced
    (kept as the bit-for-bit reference)."""
    rows = theta.sampling.indices[:, None]
    if theta.basis.kind == "identity":
        return theta.circulant.filter[(rows - idx) % theta.n] \
            / np.sqrt(theta.m)
    if theta.basis.kind == "inverse_fourier":
        phase = np.exp((2j * np.pi / theta.n) * ((rows * idx) % theta.n))
        return phase * (theta.circulant.spectrum[idx] / np.sqrt(theta.m))
    block = np.zeros((idx.size, theta.n), dtype=np.complex128)
    block[np.arange(idx.size), idx] = 1.0
    return _reference_forward(theta, block).T


@pytest.mark.parametrize("basis_kind", ["identity", "inverse_fourier",
                                        "inverse_dct2"])
@pytest.mark.parametrize("per_trial", ["sampling", "spectrum"])
def test_stacked_operator_equals_its_members(per_trial, basis_kind):
    # 16 members at N = 1024 make a 256 KiB block, the size at which numpy
    # starts reusing temporaries; a golay spectrum with per-trial sampling
    # or per-trial random-phase spectra with one equispaced set
    n, m, b = 1024, 64, 16
    golay = CirculantOperator.from_spectrum(seqs.golay(n))
    members = [SensingOperator(
        golay if per_trial == "sampling"
        else CirculantOperator.from_spectrum(seqs.random_phase(n, i)),
        random_sampling(n, m, i) if per_trial == "sampling"
        else equispaced_sampling(n, m), Basis(basis_kind))
        for i in range(b)]
    stack = StackedOperator.of(members)
    assert (len(stack), stack.n, stack.m) == (b, n, m)
    assert stack.spectra.shape[0] == (1 if per_trial == "sampling" else b)
    rng = np.random.default_rng(0)
    y = rng.standard_normal((b, m)) + 1j * rng.standard_normal((b, m))
    idx = np.sort(rng.choice(n, size=(b, 12)), axis=1)
    got_adj, got_cols = stack.adjoint(y), stack.columns(idx)
    assert got_adj.shape == (b, n) and got_cols.shape == (b, m, 12)
    for i, op in enumerate(members):
        assert np.array_equal(got_adj[i], op.adjoint(y[i]))
        want = _reference_columns(op, idx[i])
        assert np.array_equal(got_cols[i], want)
        assert np.array_equal(_member_columns(op, idx[i]), want)
    sel = np.array([3, 0, 9])
    assert np.array_equal(stack[sel].columns(idx[sel]), got_cols[sel])
    assert np.array_equal(stack[sel].adjoint(y[sel]), got_adj[sel])
    with pytest.raises(ValueError, match="share N, M and basis"):
        StackedOperator.of(members[:1] + [SensingOperator(
            golay, random_sampling(n, m + 1, 0), Basis(basis_kind))])


def test_roots_table_is_read_only_and_follows_n():
    # inverse-Fourier columns gather their phases from one cached table
    # per N; a write must raise, and a later N must not see an earlier N's
    # table, so columns at 256, 1024 and 256 again equal the formula's
    assert operators._roots.cache_info().maxsize <= 4
    with pytest.raises(ValueError, match="read-only"):
        operators._roots(256)[1] = 0.0
    for n in (256, 1024, 256):
        theta = SensingOperator(
            CirculantOperator.from_spectrum(seqs.random_phase(n, 3)),
            random_sampling(n, 48, n), Basis("inverse_fourier"))
        idx = np.random.default_rng(n).choice(n, size=20, replace=False)
        assert np.array_equal(_member_columns(theta, idx),
                              _reference_columns(theta, idx))


@pytest.mark.parametrize("basis_kind", ["identity", "inverse_fourier",
                                        "inverse_dct2"])
def test_no_column_indices_give_an_empty_block(basis_kind):
    # the edge of every column build: a (B, 0) index block gives a
    # (B, M, 0) column block, for each basis
    n, m = 64, 16
    stack = StackedOperator.of([SensingOperator(
        CirculantOperator.from_spectrum(seqs.random_phase(n, s)),
        random_sampling(n, m, s), Basis(basis_kind)) for s in range(3)])
    got = stack.columns(np.zeros((3, 0), dtype=np.int64))
    assert got.shape == (3, m, 0) and got.dtype == np.complex128


@pytest.mark.parametrize("n", [1024, 16384, 65536])
def test_stacked_adjoint_equals_the_member_adjoint_at_every_n(n):
    # a member's adjoint is its one-member stack's; each row of a stack of
    # several, with a circulant two members share, must equal it at every
    # N, as a block of subspace pursuits relies on
    circs = [CirculantOperator.from_spectrum(seqs.random_phase(n, s))
             for s in (1, 2)]
    members = [SensingOperator(circs[c], random_sampling(n, 256, s),
                               Basis("identity"))
               for s, c in enumerate((0, 1, 0))]
    y = np.stack([_rand_vec(256, s) for s in range(len(members))])
    got = StackedOperator.of(members).adjoint(y)
    for row, op, y_b in zip(got, members, y):
        assert np.array_equal(row, op.adjoint(y_b))


@pytest.mark.parametrize("circulants", [(0, 1, 0), (0, 0, 0)])
@pytest.mark.parametrize("n", [1024, 16384, 65536])
def test_stacked_forward_equals_the_member_forward_at_every_n(n, circulants):
    # each row of a stacked forward is its member's forward and the
    # one-operator chain's, bit for bit: on two circulants, one shared
    # (a spectrum per row), and on one (a spectrum broadcast)
    circs = [CirculantOperator.from_spectrum(seqs.random_phase(n, s))
             for s in (1, 2)]
    rng = np.random.default_rng(n)
    for basis in ("identity", "inverse_fourier", "inverse_dct2"):
        members = [SensingOperator(circs[c], random_sampling(n, 256, s),
                                   Basis(basis))
                   for s, c in enumerate(circulants)]
        f = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        got = StackedOperator.of(members).forward(f)
        assert got.shape == (3, 256)
        for row, op, f_b in zip(got, members, f):
            assert np.array_equal(row, op.forward(f_b))
            assert np.array_equal(row, _reference_forward(op, f_b))


def test_stacked_forward_works_in_one_block():
    # the forward's product runs in its one complex copy of Psi f: a
    # second (B, N) buffer for the FFT, the product, the inverse FFT, the
    # scale or a gather of the spectra would add 128 KiB here
    n, m, b = 1024, 64, 8
    stack = StackedOperator.of([SensingOperator(
        CirculantOperator.from_spectrum(seqs.random_phase(n, i)),
        random_sampling(n, m, i), Basis("identity")) for i in range(b)])
    rng = np.random.default_rng(0)
    f = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    stack.forward(f)
    tracemalloc.start()
    try:
        stack.forward(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * b * n * 16


def test_stacked_adjoint_works_in_one_block():
    # the (B, N) result is the only block-sized buffer: a copy of it for
    # the FFT, the product, the inverse FFT, the scale or a gather of the
    # conjugate spectra would each add 128 KiB here
    n, m, b = 1024, 64, 8
    stack = StackedOperator.of([SensingOperator(
        CirculantOperator.from_spectrum(seqs.random_phase(n, i)),
        random_sampling(n, m, i), Basis("identity")) for i in range(b)])
    rng = np.random.default_rng(0)
    y = rng.standard_normal((b, m)) + 1j * rng.standard_normal((b, m))
    stack.adjoint(y)
    tracemalloc.start()
    try:
        stack.adjoint(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * b * n * 16


def test_adjoints_refuse_measurements_of_the_wrong_shape():
    # a length-M vector on a one-member stack was once broadcast into a
    # (1, N) result
    n, m = 64, 16
    op = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(n, 1)),
                         random_sampling(n, m, 0), Basis("identity"))
    stack = StackedOperator.of([op, op, op])
    for sub, y in ((stack[:1], _rand_vec(m, 0)),
                   (stack, np.zeros((2, m))), (stack, np.zeros((3, m + 1))),
                   (stack, np.zeros((3, m, 1)))):
        with pytest.raises(ValueError, match=rf"expected a \({len(sub)}, "
                                             rf"{m}\) block of measurements"):
            sub.adjoint(y)
    with pytest.raises(ValueError, match="expected a 1-D vector"):
        op.adjoint(np.zeros((2, m)))
    with pytest.raises(ValueError, match=rf"expected a \(1, {m}\) block"):
        op.adjoint(np.zeros(m + 1))


def test_stacked_columns_refuse_indices_outside_n():
    # the identity basis gathers filter[(rows - j) mod N], which would
    # read -1, N and N + 1 as columns N - 1, 0 and 1
    n, m = 16, 6
    op = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(n, 1)),
                         random_sampling(n, m, 0), Basis("identity"))
    stack = StackedOperator.of([op, op])
    for bad in (-1, n, n + 1):
        with pytest.raises(ValueError, match=r"out of range \[0, 16\)"):
            stack.columns(np.array([[0, 1], [2, bad]]))
    with pytest.raises(ValueError, match=r"expected a \(2, c\) block"):
        stack.columns(np.array([0, 1]))


def test_an_empty_stack_is_refused():
    with pytest.raises(ValueError, match="empty member list"):
        StackedOperator.of([])


def test_one_member_stack_holds_the_member():
    # StackedOperator.of([op]) is built as every stack is: the member's
    # sampling set, spectrum and filter as one row each, and its basis
    op = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(64, 1)),
                         random_sampling(64, 16, 0), Basis("identity"))
    stack = StackedOperator.of([op])
    assert stack.circ.tolist() == [0] and stack.basis == op.basis
    for got, owner in ((stack.spectra, op.circulant.spectrum),
                       (stack.filters, op.circulant.filter),
                       (stack.rows, op.sampling.indices)):
        assert np.array_equal(got, owner[None])


def test_columns_reject_bad_indices():
    theta = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(16, 1)),
                            random_sampling(16, 6, 0), Basis("identity"))
    for bad in ([16], [-1], [[0, 1]]):
        with pytest.raises(ValueError):
            _member_columns(theta, bad)


def test_columns_refuse_non_integer_indices():
    # 1.7, 2.9 and 0.5 were once truncated to columns 1, 2 and 0; an
    # empty index list (float64 as a bare numpy array) is still no columns
    op = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(16, 1)),
                         random_sampling(16, 6, 0), Basis("identity"))
    stack = StackedOperator.of([op, op])
    for sub, bad in ((stack[:1], [[1.7]]), (stack, [[2.9], [0.5]]),
                     (stack, np.array([[1, 2], [3, 4]], dtype=np.float32)),
                     (stack, np.array([[True], [False]]))):
        with pytest.raises(ValueError, match="must be integers"):
            sub.columns(bad)
    for empty in ([[]], np.zeros((1, 0))):
        assert stack[:1].columns(empty).shape == (1, 6, 0)


def test_matrix_is_theta_of_a_one_member_stack():
    # a member sliced out of a stack of two circulants and two sampling
    # sets gives its own Theta, bit for bit; a stack of two has no one
    ops = [SensingOperator(
        CirculantOperator.from_spectrum(seqs.random_phase(16, s)),
        random_sampling(16, 6, s), Basis("inverse_dct2")) for s in (0, 1)]
    stack = StackedOperator.of(ops)
    for b, op in enumerate(ops):
        assert np.array_equal(stack[b:b + 1].matrix(),
                              StackedOperator.of([op]).matrix())
    with pytest.raises(ValueError, match="needs one member, got 2"):
        stack.matrix()


# ---------------------------------------------------------------------------
# vector CSV round trip
# ---------------------------------------------------------------------------

def test_vector_csv_bit_exact_round_trip():
    v = _rand_vec(33, 11)
    v[0] = 1e-300 + 1e300j  # extreme magnitudes survive repr round trip
    text = vector_to_csv(v)
    assert text.splitlines()[0] == "re,im"
    back = [complex(*map(float, line.split(",")))
            for line in text.splitlines()[1:]]
    assert np.array_equal(v, back)
