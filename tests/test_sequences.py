"""Sequence generators against brute-force autocorrelation oracles."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from convsense import sequences as seqs


def _offpeak_max(values) -> float:
    n = len(values)
    return max(abs(oracles.periodic_autocorr(values, lag))
               for lag in range(1, n))


# ---------------------------------------------------------------------------
# perfect (zero off-peak autocorrelation) kinds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,gamma", [(16, 1), (17, 1), (64, 3), (63, 2),
                                     (121, 5)])
def test_fzc_perfect_autocorrelation(n, gamma):
    s = seqs.fzc(n, gamma)
    assert np.allclose(np.abs(s.values), 1.0, atol=1e-12)
    assert _offpeak_max(s.values) < 1e-9
    assert seqs.classify(s).label == "perfect"


def test_fzc_rejects_non_coprime_gamma():
    with pytest.raises(ValueError):
        seqs.fzc(12, 3)


@pytest.mark.parametrize("n", [16, 25, 36, 49, 100, 101])
def test_extended_polyphase_unimodular_real_filter(n):
    # quadratic-phase spectrum: unimodular, and conjugate-symmetric so
    # the circulant filter it induces is real
    s = seqs.extended_polyphase(n)
    assert np.allclose(np.abs(s.values), 1.0, atol=1e-12)
    filt = np.fft.ifft(s.values)
    assert np.max(np.abs(filt.imag)) < 1e-10
    # spot-check entries against the stated formula
    import cmath
    for k in (1, n // 2 - 1 if n % 2 == 0 else (n - 1) // 2):
        want = cmath.exp(-1j * cmath.pi * k * k / n)
        assert abs(s.values[k] - want) < 1e-10


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_perfect_binary_from_m_autocorrelation(degree):
    base = seqs.m_sequence(degree)
    s = seqs.perfect_binary_from_m(base)
    n = s.values.size
    assert n == 2 ** degree - 1
    # off-peak periodic autocorrelation is exactly zero
    assert _offpeak_max(s.values) < 1e-9
    # two amplitude levels only (the flipped construction is not bipolar)
    levels = np.unique(np.round(np.abs(s.values), 9))
    assert levels.size <= 2


# ---------------------------------------------------------------------------
# m-sequences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", [3, 4, 5, 7, 9])
def test_m_sequence_two_level_autocorrelation(degree):
    s = seqs.m_sequence(degree)
    n = 2 ** degree - 1
    assert s.values.size == n
    vals = s.values.real
    assert np.array_equal(np.abs(vals), np.ones(n))  # bipolar
    assert abs(int(np.sum(vals))) == 1               # balanced
    for lag in range(1, n):
        r = oracles.periodic_autocorr(vals, lag)
        assert abs(r.imag) < 1e-12
        assert round(r.real) == -1                   # two-level: N and -1


def test_m_sequence_period_is_maximal():
    # the LFSR state must not repeat before 2^d - 1 steps: all cyclic
    # shifts of the sequence are distinct
    s = seqs.m_sequence(5).values.real.astype(int)
    shifts = {tuple(np.roll(s, k)) for k in range(s.size)}
    assert len(shifts) == s.size


# sha256 of m_sequence(d).values (complex128 bytes): the sequences are
# frozen, so any change to the recurrence or the table shows here
_M_SEQUENCE_SHA256 = {
    2: "bbf5943b3f0558be4fe0ddb7391715d28be709e48ab35f1ce91fd68c2cde5fc9",
    3: "31014dd892a43d732006a484b46c8f725108be5eeea290bfb2d7b2b40f769007",
    4: "a37a33ec76b4c40b9f753640827ee2e3b2cebe65c471fdaee5b93ab6f94cf59a",
    5: "200569b58ea911f001c61ca7400bf22a7e0ffcb35c814ffb4bdb4af30eef1161",
    6: "bf505dfcb9427195ec6d778bd79e3963a5f40cd0ec420e06d8d7b403661fedd6",
    7: "976d73df990ea0c6e21b5250f2d2958d1b54641d5e275c2e73ac454294214a20",
    8: "ee0c261a0f27c8072a2681c2964f9de0403b994a6f9fba04c28c7f4202d8e531",
    9: "9c2eb8ddb26b83c53fd9ec7a0ca46a861337d5681aef88f0ad3e2e8b1ac39607",
    10: "b75bc8ac121178b9ded6cfabb86d72874a4f129dd2735191ce2142745b1fa99d",
    11: "b7558ae3a5b850e3b507f1f3c4692d5b7f742973eac8bc8b01701e57c7faa5e1",
    12: "b71d51eb97dbd994ec883d6acdae72e860914e4ce3de5b10ba7632d066c52db4",
    13: "c3171a357ed68ef41a6104978f9d445a5d7cc9fc918d5447235c70abc803cf18",
    14: "d0fe2709277af74436ec9c6a0106ba0c0a6c33cac285ab78c774e1e8ad00a138",
    15: "7f42f38e64554cf69954c5228f775a77498128317cf0b222163f4bc0a0a510c0",
    16: "5a7eb9b819913397526fee6356ff52f21e318231ad79bd55f52a9352f1f61b43",
    17: "4f6ac1387f28fa02114f94920a78833867fa879ff853495eee6f8a61c870e322",
    18: "74be91a7dc94fe9e1f1b49bb08785a9e0cedd0baa1069e86cdbc7342e7e23006",
    19: "6f96c119ed7b4e2e6d29210605a5c94381981983f5443c3039f7587707b6ca8b",
    20: "49d8a06b8e30d61a223cd32fe5aa896d087413cd65b1581f81847cae8943934c",
}


@pytest.mark.parametrize("degree", sorted(_M_SEQUENCE_SHA256))
def test_m_sequence_bytes_pinned(degree):
    s = seqs.m_sequence(degree)
    assert hashlib.sha256(s.values.tobytes()).hexdigest() == \
        _M_SEQUENCE_SHA256[degree]
    assert s.params == {"degree": degree,
                        "taps": seqs.PRIMITIVE_POLYNOMIALS[degree], "init": 1}


# x^5 + x^4 + x^3 + x^2 + x + 1 = (x + 1)(x^2 + x + 1)^2 is built bit by
# bit (N = 31 < 5 * 64); x^16 + x^15 + x^2 + 1 = (x + 1)(x^15 + x + 1)
# runs the stride recurrence past bit 16 * 64
_REDUCIBLE = {5: 0x3F, 16: 0x18005}


@pytest.mark.parametrize("degree", sorted(_REDUCIBLE))
def test_m_sequence_check_catches_a_bad_table_entry(monkeypatch, degree):
    monkeypatch.setitem(seqs.PRIMITIVE_POLYNOMIALS, degree,
                        _REDUCIBLE[degree])
    with pytest.raises(ValueError, match="maximum-length"):
        seqs.m_sequence(degree)


# every tabulated polynomial, and a reducible one at a stride degree:
# p(x)^64 = p(x^64) over GF(2) whether p is primitive or not
@pytest.mark.parametrize("degree,taps", sorted(
    seqs.PRIMITIVE_POLYNOMIALS.items()) + [(16, _REDUCIBLE[16])])
def test_recurrence_bits_match_a_clocked_register(degree, taps):
    n = (1 << degree) - 1
    assert seqs._recurrence_bits(taps, degree, n).tolist() == \
        oracles.lfsr_bits(taps, degree, n)


# ---------------------------------------------------------------------------
# Golay pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 8, 10, 16, 20, 26, 52, 104])
def test_golay_pair_complementary_exact(n):
    pair = seqs.golay_pair(n)
    assert oracles.is_complementary_pair(pair.a, pair.b)


# sha256 of golay_pair(n0).a bytes followed by .b bytes (int64): the
# pairs are frozen, so any change to the construction shows here
_GOLAY_PAIR_SHA256 = {
    2: "44e41c721ef7ad53582de3a2470e7bf6e74ea4471f54c42469817ef5844da195",
    10: "6d09f1bc9cfda03e3b97baa9efda93ac94236bb15a5acb6812ee2399bb8b50df",
    20: "092baeed78f704a035677f5d61b5c426be286c805cdf5f1a1c6627fd9254247f",
    26: "57517c1091e010e20206e944b3308f3505cc9a2396ac70ffe674fa3c4ee36a5a",
    52: "a1e7022d17c387b9f1bc267d9254473f16f84a9ad351cc149127cf17f2de775b",
    100: "f416eddc87e358f213c24120e94d4b1bf9c6b37bc217e9c674f1c81e871bda98",
    260: "67611d0ab80ed3164f0ffc98556fdd5b6a58176b6e3e8db52df519174c25beed",
    676: "16e5ebf399fe753bdc93b237a6512f3919c2ed4acd7e82b96445e9c86b1676a0",
    16384: "0bdeba4a07254fc45dee1ddc5b26e343077e1b680397f1e2f37a973e92302399",
}


@pytest.mark.parametrize("n0", sorted(_GOLAY_PAIR_SHA256))
def test_golay_pair_bytes_pinned(n0):
    pair = seqs.golay_pair(n0)
    assert pair.a.dtype == np.int64 and pair.b.dtype == np.int64
    assert hashlib.sha256(pair.a.tobytes() + pair.b.tobytes()).hexdigest() \
        == _GOLAY_PAIR_SHA256[n0]


@pytest.mark.parametrize("n0", [10, 20])
def test_golay_check_catches_a_bad_kernel(monkeypatch, n0):
    a, b = seqs._GOLAY_KERNELS[10]
    monkeypatch.setitem(seqs._GOLAY_KERNELS, 10, ([-a[0]] + a[1:], b))
    with pytest.raises(ValueError, match="complementary"):
        seqs.golay_pair(n0)


@pytest.mark.parametrize("n0", [1, 2, 10, 26, 260, 1024])
def test_golay_pair_checks_complementarity_once(monkeypatch, n0):
    calls = []
    check = seqs._complementary_exact

    def counted(a, b):
        calls.append(a.shape[0])
        return check(a, b)

    monkeypatch.setattr(seqs, "_complementary_exact", counted)
    seqs.golay_pair(n0)
    assert calls == [n0]


@pytest.mark.parametrize("bad", [1.4, -1.2, 1 + 0.3j])
def test_golay_pair_refuses_entries_that_are_not_plus_minus_one(bad):
    pair = seqs.golay_pair(10)
    a = pair.a.astype(type(bad))
    # exactly +/-1 in a float or complex array is still a valid member
    assert np.array_equal(seqs.GolayPair(a, pair.b).a, pair.a)
    a[0] = bad
    with pytest.raises(ValueError, match="exactly"):
        seqs.GolayPair(a, pair.b)


def _lag_sums_brute(a, b):
    return [oracles.aperiodic_autocorr(a, lag)
            + oracles.aperiodic_autocorr(b, lag) for lag in range(1, len(a))]


def _lag_sums_int(a, b):
    """Lags 1 .. N-1 by integer np.correlate, the check the FFT gate
    replaced."""
    n = a.shape[0]
    return (np.correlate(a, a, mode="full")
            + np.correlate(b, b, mode="full"))[n:]


@pytest.mark.parametrize("n0", [2, 10, 26, 1040, 4096])
def test_complementarity_gate_rejects_an_off_by_one_lag_sum(n0):
    # zeroing a[0] takes the term a[0]*a[l] out of every lag sum, so each
    # sum moves from 0 to -a[0]*a[l] = +/-1; with +/-1 entries every lag
    # sum is even, so only a zero entry can make an odd one
    pair = seqs.golay_pair(n0)
    a = pair.a.copy()
    a[0] = 0
    assert np.array_equal(np.abs(_lag_sums_int(a, pair.b)),
                          np.ones(n0 - 1, dtype=int))
    assert not seqs._complementary_exact(a, pair.b)


@pytest.mark.parametrize("a,b", [
    ([1, 1, 1, -1], [1, 1, 1, -1]),
    ([1, 1, 1, 1, 1, 1, -1, -1], [1, 1, -1, 1, -1, 1, -1, -1]),
])
def test_complementarity_gate_is_aperiodic(a, b):
    # the periodic autocorrelations of these pairs cancel but the
    # aperiodic ones do not, so a transform too short to hold every lag
    # of the aperiodic sum would wrongly accept them
    a, b = np.array(a), np.array(b)
    assert not any(a @ np.roll(a, -lag) + b @ np.roll(b, -lag)
                   for lag in range(1, a.size))
    assert any(_lag_sums_brute(a, b))
    with pytest.raises(ValueError, match="complementary"):
        seqs.GolayPair(a, b)


def _ternary(n):
    return st.lists(st.integers(-1, 1), min_size=n, max_size=n)


_TERNARY_PAIRS = st.integers(1, 64).flatmap(
    lambda n: st.tuples(_ternary(n), _ternary(n)))
_SMALL_PAIRS = [seqs.golay_pair(n0) for n0 in range(1, 65)
                if seqs.admissible_golay_length(n0)]


@st.composite
def _near_pairs(draw):
    """A complementary pair with up to three entries set to -1, 0 or 1,
    so lag sums of +/-1 and +/-2 occur as well as exact pairs."""
    pair = draw(st.sampled_from(_SMALL_PAIRS))
    ab = np.concatenate([pair.a, pair.b])
    for i, v in draw(st.lists(st.tuples(st.integers(0, ab.size - 1),
                                        st.integers(-1, 1)), max_size=3)):
        ab[i] = v
    return np.split(ab, 2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pair=st.one_of(_TERNARY_PAIRS, _near_pairs()))
def test_complementarity_gate_agrees_with_brute_force_lag_sums(pair):
    a, b = (np.array(x, dtype=np.int64) for x in pair)
    want = all(r == 0 for r in _lag_sums_brute(a, b))
    assert seqs._complementary_exact(a, b) == want


def test_complementarity_gate_accepts_every_admissible_pair_to_1040():
    sizes = [n0 for n0 in range(1, 1041) if seqs.admissible_golay_length(n0)]
    assert len(sizes) == 33
    for n0 in sizes:
        pair = seqs.golay_pair(n0)
        assert not _lag_sums_int(pair.a, pair.b).any()
        assert seqs._complementary_exact(pair.a, pair.b)


def test_golay_sequence_is_pair_member():
    pair = seqs.golay_pair(20)
    s = seqs.golay(20)
    assert np.array_equal(s.values.real.astype(int), pair.a)


@pytest.mark.parametrize("n", [3, 6, 12, 15, 50])
def test_golay_inadmissible_lengths_rejected(n):
    assert not seqs.admissible_golay_length(n)
    with pytest.raises(ValueError):
        seqs.golay_pair(n)


@pytest.mark.parametrize("n", [20, 21, 52, 53])
def test_extended_golay_lengths(n):
    s = seqs.extended_golay(n)
    assert s.values.size == n
    assert np.array_equal(np.abs(s.values.real), np.ones(n))


# ---------------------------------------------------------------------------
# Legendre
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [7, 11, 19, 31, 103])
def test_legendre_matches_euler_criterion(p):
    s = seqs.legendre(p)
    vals = s.values.real.astype(int)
    assert vals[0] == 1  # index 0 convention: +1
    for a in range(1, p):
        assert vals[a] == oracles.legendre_symbol(a, p)


def test_legendre_rejects_composite():
    with pytest.raises(ValueError):
        seqs.legendre(15)


# ---------------------------------------------------------------------------
# random baselines
# ---------------------------------------------------------------------------

def test_random_phase_reproducible_and_unimodular():
    a = seqs.random_phase(64, 7)
    b = seqs.random_phase(64, 7)
    c = seqs.random_phase(64, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.allclose(np.abs(a.values), 1.0, atol=1e-12)


def test_random_binary_reproducible_and_bipolar():
    a = seqs.random_binary(64, 3)
    b = seqs.random_binary(64, 3)
    assert np.array_equal(a.values, b.values)
    assert set(np.unique(a.values.real)) <= {-1.0, 1.0}


# ---------------------------------------------------------------------------
# autocorrelation helpers and classification
# ---------------------------------------------------------------------------

def test_autocorr_periodic_matches_loops():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    full = seqs.autocorr_periodic_all(x)
    for lag in range(17):
        want = oracles.periodic_autocorr(x, lag)
        got = seqs.autocorr_periodic(x, lag)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))
        assert abs(full[lag] - want) < 1e-9 * max(1.0, abs(want))


def test_autocorr_aperiodic_matches_loops():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    for lag in range(13):
        want = oracles.aperiodic_autocorr(x, lag)
        got = seqs.autocorr_aperiodic(x, lag)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_classify_labels():
    assert seqs.classify(seqs.fzc(32, 1)).label == "perfect"
    assert seqs.classify(seqs.m_sequence(5)).label == "nearly_perfect"
    rep = seqs.classify(seqs.random_phase(256, 0))
    assert rep.label == "neither"
    assert rep.claim_consistent is None


def _smallest(kind):
    """The family's Sequence at its smallest admissible N >= 5 (a length
    with a mirror pair k != N - k, k >= 1), random kinds at seed 0."""
    fam = seqs.FAMILIES[kind]
    n = next(n for n in range(5, 64) if fam.admissible(n, {}) is None)
    return fam.build(n, {"seed": 0} if "seed" in fam.reads() else {})


_CLAIMED = ("fzc", "m_sequence", "m_sequence_filter", "perfect_binary_filter")


@pytest.mark.parametrize("kind", sorted(seqs.FAMILIES))
def test_family_claim_consistent(kind):
    rep = seqs.classify(_smallest(kind))
    assert rep.claim_consistent is (True if kind in _CLAIMED else None)
    if kind.startswith("m_sequence"):
        assert rep.epsilon_observed == pytest.approx(1.0, abs=1e-9)


def _break(vals, how):
    vals = vals.copy()
    if how == "unimodular":
        vals[1] *= 1.5
    elif how == "bipolar":
        vals[1] = 0.5
    else:  # the mirror pair (1, N - 1), keeping every entry's modulus
        vals[1] = -vals[1]
    return vals


@pytest.mark.parametrize("kind,how", [
    (kind, how) for kind, fam in sorted(seqs.FAMILIES.items())
    for how in ([fam.entries] if fam.entries else [])
    + (["mirror"] if fam.conjugate_symmetric else [])])
def test_sequence_refuses_values_against_its_family_invariant(kind, how):
    vals = np.array(_smallest(kind).values)
    assert seqs.Sequence(vals, kind).kind == kind
    with pytest.raises(ValueError, match=f"^{kind} sequence must "):
        seqs.Sequence(_break(vals, how), kind)


def test_sequence_refuses_values_that_are_not_1d():
    with pytest.raises(ValueError, match="1-D"):
        seqs.Sequence(np.ones((2, 2)), "golay")


def test_sequence_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="no_such_kind"):
        seqs.Sequence(np.ones(4), "no_such_kind")


def test_sequence_values_immutable():
    s = seqs.fzc(8, 1)
    with pytest.raises((ValueError, RuntimeError)):
        s.values[0] = 0.0
