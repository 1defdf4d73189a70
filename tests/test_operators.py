"""Operators against dense loop-built matrices."""

import numpy as np
import pytest

import oracles
from convsense import sequences as seqs
from convsense.operators import (Basis, CirculantOperator, SamplingSet,
                                 SensingOperator, deterministic_sampling,
                                 equispaced_sampling, random_sampling,
                                 vector_from_csv, vector_to_csv)


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
    assert np.allclose(a.dense(), want, atol=1e-12)


@pytest.mark.parametrize("n", [4, 9, 16, 31])
def test_spectrum_filter_round_trip(n):
    sigma = _rand_vec(n, n)
    sigma /= np.abs(sigma)  # unimodular
    a = CirculantOperator.from_spectrum(sigma)
    b = CirculantOperator.from_filter(a.filter)
    assert np.allclose(a.spectrum, b.spectrum, atol=1e-10)
    assert np.allclose(a.filter, b.filter, atol=1e-10)
    assert a.unimodular and b.unimodular


def test_from_spectrum_rejects_non_unimodular():
    with pytest.raises(ValueError):
        CirculantOperator.from_spectrum(np.array([1.0, 2.0, 1.0, 1.0]))


def test_dense_matches_loop_circulant():
    for n, seed in [(8, 0), (17, 1), (32, 2)]:
        a = CirculantOperator.from_spectrum(seqs.random_phase(n, seed))
        assert np.allclose(a.dense(), oracles.circulant_from_filter(a.filter),
                           atol=1e-12)


@pytest.mark.parametrize("kind,n", [("fzc", 64), ("golay", 52),
                                    ("legendre", 31)])
def test_apply_matches_dense(kind, n):
    s = getattr(seqs, kind)(n) if kind != "fzc" else seqs.fzc(n, 1)
    a = CirculantOperator.from_spectrum(s)
    dense = oracles.circulant_from_filter(a.filter)
    x = _rand_vec(n, 5)
    assert np.allclose(a.apply(x), dense @ x, atol=1e-9)
    assert np.allclose(a.adjoint(x), dense.conj().T @ x, atol=1e-9)


def test_unimodular_spectrum_gives_tight_frame():
    # A^* A = N I when |sigma_k| = 1 for all k
    n = 24
    a = CirculantOperator.from_spectrum(seqs.extended_polyphase(n))
    dense = a.dense()
    assert np.allclose(dense.conj().T @ dense, n * np.eye(n), atol=1e-9)


def test_apply_batch_matches_single():
    a = CirculantOperator.from_spectrum(seqs.fzc(16, 3))
    block = np.stack([_rand_vec(16, i) for i in range(4)], axis=1)
    got = a.apply_batch(block)
    for i in range(4):
        assert np.allclose(got[:, i], a.apply(block[:, i]), atol=1e-12)
    gotA = a.adjoint(block)
    for i in range(4):
        assert np.allclose(gotA[:, i], a.adjoint(block[:, i]), atol=1e-12)


def test_real_filter_flag_and_real_output():
    a = CirculantOperator.from_filter(seqs.m_sequence(4))
    assert a.real_flag
    x = np.random.default_rng(0).standard_normal(15)
    y = a.apply(x, real_output=True)
    assert y.dtype == np.float64


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


def test_random_sampling_matches_scalar_draw_stream():
    # the batched bounds draw must consume the generator exactly like the
    # scalar loop: later draws (signal, noise) come from the same stream
    cases = np.random.default_rng(2024)
    for case in range(240):
        n = int(cases.integers(1, 4097))
        m = {0: 1, 1: n}.get(case % 4, int(cases.integers(1, n + 1)))
        seed = int(cases.integers(0, 2 ** 63))
        ref = np.random.default_rng(seed)
        want = _scalar_fisher_yates(n, m, ref)
        rng = np.random.default_rng(seed)
        assert np.array_equal(random_sampling(n, m, rng).indices, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2 ** 63) == ref.integers(0, 2 ** 63)
        assert np.array_equal(random_sampling(n, m, seed).indices, want)


def test_deterministic_and_equispaced_sampling():
    d = deterministic_sampling(20, [3, 1, 7])
    assert np.array_equal(d.indices, [1, 3, 7])
    e = equispaced_sampling(12, 4)
    assert np.array_equal(e.indices, [0, 3, 6, 9])  # floor(i*N/M)


def test_sampling_restrict_embed():
    s = deterministic_sampling(6, [1, 4])
    x = np.arange(6, dtype=np.complex128)
    assert np.array_equal(s.restrict(x), [1, 4])
    back = s.embed(np.array([10.0, 20.0]))
    assert np.array_equal(back, [0, 10, 0, 0, 20, 0])


def test_sampling_rejects_bad_shapes():
    with pytest.raises(ValueError):
        random_sampling(10, 11, 0)
    with pytest.raises(ValueError):
        deterministic_sampling(5, [0, 0, 2])
    with pytest.raises(ValueError):
        deterministic_sampling(5, [7])


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["identity", "inverse_fourier",
                                  "inverse_dct2"])
def test_basis_unitary_and_dense_consistent(kind):
    n = 24
    b = Basis(kind)
    dense = b.dense(n)
    assert np.allclose(dense.conj().T @ dense, np.eye(n), atol=1e-10)
    x = _rand_vec(n, 3)
    assert np.allclose(b.apply(x), dense @ x, atol=1e-10)
    assert np.allclose(b.adjoint(x), dense.conj().T @ x, atol=1e-10)


def test_idct_matches_loop_formula():
    n = 17
    assert np.allclose(Basis.inverse_dct2().dense(n),
                       oracles.idct2_matrix(n), atol=1e-12)


def test_inverse_fourier_matches_loop_formula():
    n = 12
    want = oracles.dft_matrix(n).conj().T / np.sqrt(n)
    assert np.allclose(Basis.inverse_fourier().dense(n), want, atol=1e-12)


# ---------------------------------------------------------------------------
# composed sensing operator
# ---------------------------------------------------------------------------

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
                   @ Basis(basis_kind).dense(n)) / np.sqrt(m)
    x = _rand_vec(n, 9)
    assert np.allclose(theta.forward(x), dense_chain @ x, atol=1e-9)
    y = _rand_vec(m, 10)
    assert np.allclose(theta.adjoint(y), dense_chain.conj().T @ y,
                       atol=1e-9)
    assert np.allclose(theta.dense(), dense_chain, atol=1e-9)


def test_sensing_adjoint_inner_product_identity():
    n, m = 48, 16
    circ = CirculantOperator.from_spectrum(seqs.fzc(n, 5))
    theta = SensingOperator(circ, random_sampling(n, m, 3),
                            Basis.inverse_fourier())
    f, y = _rand_vec(n, 0), _rand_vec(m, 1)
    lhs = np.vdot(y, theta.forward(f))
    rhs = np.vdot(theta.adjoint(y), f)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_forward_batch_matches_single():
    n, m = 24, 10
    theta = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(n, 1)),
                            random_sampling(n, m, 2), Basis.inverse_dct2())
    block = np.stack([_rand_vec(n, i) for i in range(3)], axis=1)
    got = theta.forward_batch(block)
    for i in range(3):
        assert np.allclose(got[:, i], theta.forward(block[:, i]),
                           atol=1e-12)


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
    assert circ.unimodular == (circ_name != "m_sequence_filter_255")
    theta = SensingOperator(circ, random_sampling(n, 40, 3),
                            Basis(basis_kind))
    for idx in ([0, n - 1], [n - 1, 17, 0, 200, 5, 128], [],
                list(range(n))):
        idx = np.asarray(idx, dtype=np.int64)
        block = np.zeros((n, idx.size), dtype=np.complex128)
        block[idx, np.arange(idx.size)] = 1.0
        got = theta.columns(idx)
        assert got.shape == (theta.m, idx.size)
        np.testing.assert_allclose(got, theta.forward_batch(block),
                                   rtol=0, atol=1e-13)


def test_columns_reject_bad_indices():
    theta = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(16, 1)),
                            random_sampling(16, 6, 0), Basis.identity())
    for bad in ([16], [-1], [[0, 1]]):
        with pytest.raises(ValueError):
            theta.columns(bad)


# ---------------------------------------------------------------------------
# vector CSV round trip
# ---------------------------------------------------------------------------

def test_vector_csv_bit_exact_round_trip():
    v = _rand_vec(33, 11)
    v[0] = 1e-300 + 1e300j  # extreme magnitudes survive repr round trip
    text = vector_to_csv(v)
    assert text.splitlines()[0] == "re,im"
    back = vector_from_csv(text)
    assert np.array_equal(v, back)


def test_vector_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        vector_from_csv("a,b\n1,2\n")
