"""Deterministic and random sequence generators with autocorrelation checks.

Every sequence here is meant to serve as either the spectral (diagonal)
sequence ``sigma`` or the filter vector ``a`` of a circulant sensing
operator.  Generators validate their own defining properties at build time
(unimodularity, bipolarity, conjugate symmetry, two-valued autocorrelation,
complementarity), so a bad embedded constant or a bad argument fails loudly
instead of producing a silently wrong operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np


_UNIMODULAR_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
_PERFECT_TOL = 1e-9
_NEARLY_PERFECT = 4.0


@dataclass(frozen=True)
class Sequence:
    """A length-N complex vector tagged with how it was generated.

    Attributes
    ----------
    values : ndarray
        Complex vector of length N.  Immutable (the array is set
        non-writeable on construction).
    kind : str
        Its family's name in ``FAMILIES``, whose invariants it must meet.
    params : dict
        Kind-specific generation parameters (e.g. ``gamma`` for fzc,
        ``degree/taps/init`` for m_sequence, ``seed`` for random kinds).
    """

    values: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        _validate_sequence(self)


def _validate_sequence(seq: Sequence) -> None:
    fam = family(seq.kind)
    vals = seq.values
    if vals.ndim != 1 or vals.size < 1:
        raise ValueError("sequence must be 1-D of length >= 1, got shape "
                         f"{vals.shape}")
    n = vals.shape[0]
    if not np.all(np.isfinite(vals)):
        raise ValueError("sequence entries must be finite")
    if fam.entries == "unimodular":
        _require_unimodular(vals, f"{seq.kind} sequence must be unimodular")
    if fam.entries == "bipolar" and \
            not np.all((vals == 1.0) | (vals == -1.0)):
        raise ValueError(f"{seq.kind} sequence must be exactly +/-1")
    if fam.conjugate_symmetric and n >= 2:
        dev = np.max(np.abs(vals[1:] - np.conj(vals[::-1][: n - 1])))
        if dev > _SYMMETRY_TOL:
            raise ValueError(
                f"{seq.kind} sequence must satisfy "
                f"sigma_k = conj(sigma_(N-k)) (max deviation {dev:.3e})")


def _require_unimodular(vals: np.ndarray, what: str) -> None:
    """Refuse ``vals`` unless every |v| lies within _UNIMODULAR_TOL of 1,
    with ``what`` (naming the caller) as the message; a NaN is refused."""
    dev = float(np.max(np.abs(np.abs(vals) - 1.0), initial=0.0))
    if not dev <= _UNIMODULAR_TOL:
        raise ValueError(f"{what} (max | |v|-1 | = {dev:.3e})")


def _values(s) -> np.ndarray:
    return s.values if isinstance(s, Sequence) else np.asarray(s, dtype=np.complex128)


# ---------------------------------------------------------------------------
# polyphase generators
# ---------------------------------------------------------------------------

def fzc(n: int, gamma: int) -> Sequence:
    """Quadratic-phase polyphase sequence (constant amplitude, zero
    autocorrelation at every nonzero lag).

    s_k = exp(-j*pi*gamma*k^2/N) for even N, exp(-j*pi*gamma*k*(k+1)/N)
    for odd N, with gcd(gamma, N) = 1.

    Phases are reduced in integer arithmetic modulo 2N before the complex
    exponential is taken, so unimodularity and periodicity are exact at any
    supported length.
    """
    _require(_fzc_reason(n, {"gamma": gamma}))
    k = np.arange(n, dtype=np.int64)
    if n % 2 == 0:
        quad = (k * k) % (2 * n)
    else:
        quad = (k * (k + 1)) % (2 * n)
    g = gamma % (2 * n)
    phase = (g * quad) % (2 * n)
    vals = np.exp(-1j * np.pi * phase / n)
    return Sequence(vals, "fzc", {"gamma": int(gamma)})


def extended_polyphase(n: int) -> Sequence:
    """Conjugate-symmetric quadratic-phase sequence whose circulant filter
    is real.

    Even N:  [1, e^{-j pi k^2/N} (1 <= k <= N/2-1), 1 at k=N/2,
              e^{+j pi k^2/N} (upper half)].
    Odd N:   [1, e^{-j pi k^2/N} (1 <= k <= (N-1)/2),
              -e^{+j pi k^2/N} (upper half)].
    """
    _require(FAMILIES["extended_polyphase"].admissible(n, {}))
    k = np.arange(n, dtype=np.int64)
    quad = (k * k) % (2 * n)
    lower = np.exp(-1j * np.pi * quad / n)
    upper = np.exp(+1j * np.pi * quad / n)
    vals = np.empty(n, dtype=np.complex128)
    vals[0] = 1.0
    if n % 2 == 0:
        half = n // 2
        vals[1:half] = lower[1:half]
        vals[half] = 1.0
        vals[half + 1:] = upper[half + 1:]
    else:
        half = (n - 1) // 2
        vals[1:half + 1] = lower[1:half + 1]
        vals[half + 1:] = -upper[half + 1:]
    return Sequence(vals, "extended_polyphase", {})


# ---------------------------------------------------------------------------
# shift-register sequences
# ---------------------------------------------------------------------------

# Primitive polynomial bitmasks over GF(2), degree -> mask with bit i the
# coefficient of x^i (bit `degree` always set).  Each entry was validated by
# a full-period run plus the exact two-valued autocorrelation check that
# m_sequence() re-runs on every construction.
PRIMITIVE_POLYNOMIALS = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11D,
    9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443,
    15: 0x8003, 16: 0x1100B, 17: 0x20009, 18: 0x40081, 19: 0x80027,
    20: 0x100009,
}


# a power of two, as the stride recurrence rests on p(x)^s = p(x^s)
_STRIDE = 64


def _recurrence_bits(taps: int, degree: int, n: int) -> np.ndarray:
    """Bits 0..n-1 of the recurrence whose characteristic polynomial has
    bitmask ``taps`` (bit i the coefficient of x^i, i <= degree), from
    initial state 1: bits 0..degree-1 are 1, 0, ..., 0 and bit
    t + degree is the XOR of bits t + i over the terms x^i, i < degree.

    The first degree * s bits (s = _STRIDE) are run bit by bit.  Past
    them, b[t + degree*s] = XOR_i b[t + i*s], the recurrence of
    p(x^s) = p(x)^s, which every solution of p's recurrence also solves,
    primitive or not.  Each step of it fills (degree - max i) * s bits
    with one XOR of array slices per term.
    """
    terms = [i for i in range(degree) if (taps >> i) & 1]
    head = min(n, degree * _STRIDE)
    bits = [1] + [0] * (degree - 1)
    for t in range(head - degree):
        fb = 0
        for i in terms:
            fb ^= bits[t + i]
        bits.append(fb)
    out = np.zeros(n, dtype=np.uint8)
    out[:head] = bits[:head]
    step = (degree - max(terms)) * _STRIDE
    for start in range(head, n, step):
        stop = min(start + step, n)
        lo = start - degree * _STRIDE
        for i in terms:
            src = lo + i * _STRIDE
            out[start:stop] ^= out[src:src + stop - start]
    return out


def m_sequence(degree: int) -> Sequence:
    """Maximum-length +/-1 sequence of period N = 2^degree - 1 from the
    primitive polynomial tabulated for its degree (PRIMITIVE_POLYNOMIALS).

    Initial state 1 gives bits 0..degree-1 = 1, 0, ..., 0; after that
    bit t + degree is the XOR of bits t + i over the polynomial's terms
    x^i, i < degree (past bit degree * 64 through the equivalent stride
    recurrence of _recurrence_bits).  Output bit b is mapped to (-1)^b,
    so the sequence sums to -1.

    The exact two-valued autocorrelation gate verifies the table entry
    on every build: the periodic autocorrelation R(l) = r(l) + r(N - l)
    is read off the aperiodic autocorrelation r of _lag_sums (one
    power-of-two real FFT, error bound stated there), rounded to
    integers, and must lie within 1e-6 of them, with R(0) = N and every
    off-peak R(l) = -1.
    """
    taps = PRIMITIVE_POLYNOMIALS.get(degree)
    if taps is None:
        raise ValueError(f"no primitive polynomial tabulated for {degree=}")
    n = (1 << degree) - 1
    vals = 1.0 - 2.0 * _recurrence_bits(taps, degree, n)
    # exact two-valued autocorrelation gate: peak N, off-peak -1
    r = _lag_sums(vals)
    corr = r + np.append(0.0, r[:0:-1])  # R(l) = r(l) + r(N - l), r(N) = 0
    corr_int = np.rint(corr).astype(np.int64)
    if np.max(np.abs(corr - corr_int)) > 1e-6 or corr_int[0] != n or \
            not np.all(corr_int[1:] == -1):
        raise ValueError(
            f"taps=0x{taps:X} do not generate a maximum-length sequence "
            f"(off-peak autocorrelation is not uniformly -1)")
    params = {"degree": int(degree), "taps": int(taps), "init": 1}
    return Sequence(vals, "m_sequence", params)


def perfect_binary_from_m(m: Sequence) -> Sequence:
    """Two-valued real perfect sequence obtained by an affine remap of a
    maximum-length sequence.

    With a the +/-1 input of length N and S = sum(a) (= -1 for the standard
    bit mapping), the output is

        a~ = sqrt(N/(N+1)) * a + S * (1 - 1/sqrt(N+1)) / sqrt(N) * ones(N).

    The result has periodic autocorrelation exactly zero at every nonzero
    lag, energy ||a~||^2 = N, and a unimodular spectrum; the zero-lag
    perfectness is verified at build time to 1e-9.
    """
    if not isinstance(m, Sequence) or m.kind != "m_sequence":
        raise ValueError("input must be a Sequence of kind m_sequence")
    a = m.values.real
    n = a.shape[0]
    s_total = float(np.sum(a))
    alpha = math.sqrt(n / (n + 1))
    beta = s_total * (1.0 - 1.0 / math.sqrt(n + 1)) / math.sqrt(n)
    vals = alpha * a + beta
    seq = Sequence(vals.astype(np.complex128), "perfect_binary_filter",
                   {"degree": m.params.get("degree")})
    report = classify(seq)
    if report.label != "perfect":
        raise AssertionError(
            f"perfect_binary_from_m produced a non-perfect sequence "
            f"(max off-peak |R| = {report.epsilon_observed:.3e})")
    return seq


# ---------------------------------------------------------------------------
# complementary (Golay) sequences
# ---------------------------------------------------------------------------

# Kernels of the two non-doubling lengths.  Each was found by an exact
# backtracking search; golay_pair's exact FFT complementarity check on its
# result (error bound in _complementary_exact) verifies them on every use.
_GOLAY_KERNELS = {
    10: ([1, 1, -1, 1, -1, 1, -1, -1, 1, 1],
         [1, 1, -1, 1, 1, 1, 1, 1, -1, -1]),
    26: ([1, 1, 1, 1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1,
          1, 1, 1, -1, -1, 1, 1, 1],
         [1, 1, 1, 1, -1, 1, 1, -1, -1, 1, -1, 1, 1, 1, 1, 1, -1, 1,
          -1, -1, -1, 1, 1, -1, -1, -1]),
}


@dataclass(frozen=True)
class GolayPair:
    """Two +/-1 sequences whose aperiodic autocorrelations cancel exactly
    at every nonzero lag (and sum to 2N at lag zero).  Both members are
    checked to be exactly +/-1 and then complementary by the exact FFT
    check, whose error bound is stated in ``_complementary_exact``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = np.asarray(self.a), np.asarray(self.b)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("pair members must be 1-D of equal length")
        # on the raw values, so 1.4 or 1+0.3j is refused, not cast to 1
        if not all(np.all((x == 1) | (x == -1)) for x in (a, b)):
            raise ValueError("pair members must be exactly +/-1")
        a, b = a.real.astype(np.int64), b.real.astype(np.int64)
        if not _complementary_exact(a, b):
            raise ValueError("sequences are not a complementary pair "
                             "(aperiodic autocorrelations do not cancel)")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _complementary_exact(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact complementarity test of integer sequences a, b of length N:
    r(l) = r_a(l) + r_b(l) = 0 at every lag l = 1 .. N-1.

    r^ = _lag_sums(a, b)[1:N], and the pair is accepted when every
    |r^(l)| < 0.5.  Every true r(l) is an integer, and by the bound in
    _lag_sums the rounding error stays far below 0.5, so the test
    accepts exactly the complementary pairs.
    """
    n = a.shape[0]
    return bool(np.all(np.abs(_lag_sums(a, b)[1:n]) < 0.5))


def _lag_sums(*xs: np.ndarray) -> np.ndarray:
    """Summed aperiodic autocorrelations r(l) = sum_x sum_k x_k x_{k+l}
    of real integer sequences of one length N: entry l holds r(l) for
    l = 0 .. N-1.

    One zero-padded real FFT per sequence, of length L, the smallest
    power of two >= 2N - 1, gives r^ = irfft(sum_x |rfft(x, L)|^2, L),
    with no wrap-around at that length.

    Error bound.  For a radix-2 FFT of length L = 2^t with twiddle
    factors accurate to u = 2^-53, Higham, Accuracy and Stability of
    Numerical Algorithms (2nd ed., ch. 24, Thm 24.2), gives
    ||y^ - y||_2 <= c ||y||_2 with c = t*eta / (1 - t*eta) and
    eta = u + gamma_4 (sqrt(2) + u), about (1 + 4 sqrt(2)) u.  Carried
    through the forward transforms, |.|^2 and the sum (4u), and the
    inverse transform, it gives

      ||r^ - r||_inf <= C log2(L) u (sum_x ||x||^2 + ||r||_2)

    with C = 4 (1 + 4 sqrt(2)) + 4 < 31, up to second-order terms in
    log2(L) u.  r has 2N - 1 lags, none larger in magnitude than
    r(0) = sum_x ||x||^2, so with eps = C log2(L) u the error is at most
    eps r(0) (1 + sqrt(2N)).  numpy's FFT (pocketfft) is mixed-radix
    rather than the radix-2 algorithm of the theorem; the margins below
    leave room for a larger constant.

    * Golay pair (entries in {-1, 0, 1}, r(0) <= 2N): the error is at most
      eps 2N (1 + sqrt(2N)), 3.1e-7 at N = 16384 and below 0.3 for
      every N <= 10^8, so |r^(l)| < 0.5 exactly where r(l) = 0.
    * m-sequence (+/-1, r(0) = N): each periodic value
      R(l) = r(l) + r(N - l) is off by at most 2 eps N (1 + sqrt(2N)),
      2.2e-4 at N = 2^20 - 1, so rounding recovers every R(l) exactly.
      From N = 2^16 - 1 on, that worst case exceeds the gate's 1e-6
      closeness test, which could then refuse a valid table entry,
      though never accept a bad one; the deviation measured at every
      tabulated degree is at most 2.6e-11 (degree 20).
    """
    n = xs[0].shape[0]
    size = 1 << (2 * n - 2).bit_length()
    power = sum(np.abs(np.fft.rfft(x, size)) ** 2 for x in xs)
    return np.fft.irfft(power, size)[:n]


def admissible_golay_length(n0: int) -> bool:
    """True when n0 factors as 2^k1 * 10^k2 * 26^k3."""
    return _golay_factorization(n0) is not None


def _golay_factorization(n0: int) -> Optional[Tuple[int, int, int]]:
    """(k1, k2, k3) with n0 = 2^k1 * 10^k2 * 26^k3, or None."""
    if n0 < 1:
        return None
    k2 = 0
    m = n0
    while m % 5 == 0:
        m //= 5
        k2 += 1
    k3 = 0
    while m % 13 == 0:
        m //= 13
        k3 += 1
    # remaining must be a power of two covering the 2s of every 10 and 26
    k1 = m.bit_length() - 1 - k2 - k3
    if m & (m - 1) or k1 < 0:
        return None
    return k1, k2, k3


def golay_pair(n0: int) -> GolayPair:
    """Complementary pair of length n0 = 2^k1 * 10^k2 * 26^k3.

    Starting from ([1], [1]), Turyn's product with the length-26 kernel
    is taken k3 times and with the length-10 kernel k2 times, then the
    pair is doubled k1 times, (a, b) -> (a||b, a||-b).  The exact FFT
    complementarity check of GolayPair gates the returned pair.
    """
    _require(_golay_reason(n0, {}))
    k1, k2, k3 = _golay_factorization(n0)
    a = b = np.ones(1, dtype=np.int64)
    for kernel in [26] * k3 + [10] * k2:
        c, d = (np.array(v, dtype=np.int64) for v in _GOLAY_KERNELS[kernel])
        # Turyn's product of the length-r pair (a, b) with the length-s
        # kernel (c, d), block i of r entries at a time; entries stay
        # +/-1 because (a+b)/2 and (a-b)/2 have disjoint support
        half_sum, half_diff = (a + b) // 2, (a - b) // 2
        a = (np.outer(c, half_sum) + np.outer(d[::-1], half_diff)).ravel()
        b = (np.outer(d, half_sum) - np.outer(c[::-1], half_diff)).ravel()
    for _ in range(k1):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return GolayPair(a, b)


def golay(n0: int) -> Sequence:
    """The first member of the complementary pair of length n0, as a
    +/-1 sequence."""
    pair = golay_pair(n0)
    return Sequence(pair.a.astype(np.complex128), "golay", {"n0": int(n0)})


def extended_golay(n: int) -> Sequence:
    """Bipolar palindromic sequence built from a complementary sequence of
    length N0, for N = 2*N0 (even) or N = 2*N0 + 1 (odd).

    Even N:  [s_0..s_{N0-1}, s_0, s_{N0-1}..s_1].
    Odd N:   [s_0..s_{N0-1}, -s_0, -s_0, s_{N0-1}..s_1]  (the two adjacent
    middle entries are forced equal by conjugate symmetry; they are set
    to -s_0).  The odd-N coherence bound fails at some admissible N, the
    first N = 521 (:mod:`convsense.coherence`).

    The result is exactly +/-1 and conjugate-symmetric, so its circulant
    filter is real.
    """
    _require(_extended_golay_reason(n, {}))
    n0 = n // 2
    s = golay_pair(n0).a
    if n % 2 == 0:
        vals = np.concatenate([s, [s[0]], s[1:][::-1]])
    else:
        vals = np.concatenate([s, [-s[0], -s[0]], s[1:][::-1]])
    return Sequence(vals.astype(np.complex128), "extended_golay",
                    {"n0": int(n0)})


# ---------------------------------------------------------------------------
# number-theoretic and random generators
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def legendre(n: int) -> Sequence:
    """+/-1 sequence over an odd prime length from quadratic residues.

    s_0 = +1 and s_k = +1 exactly when k is a nonzero square modulo N.
    No off-peak autocorrelation level is claimed; classify() reports the
    observed one (it is 1 for N congruent to 3 mod 4).
    """
    _require(_legendre_reason(n, {}))
    k = np.arange(1, n, dtype=np.int64)
    residues = np.zeros(n, dtype=bool)
    residues[(k * k) % n] = True
    vals = np.where(residues, 1.0, -1.0)
    vals[0] = 1.0
    return Sequence(vals.astype(np.complex128), "legendre", {})


def random_phase(n: int, seed: int) -> Sequence:
    """Unimodular sequence sigma_k = exp(j*theta_k), theta_k ~ U[0, 2*pi).

    PRNG: numpy default_rng (PCG64) seeded with `seed`; one uniform draw
    per element in index order.
    """
    _require(FAMILIES["random_phase"].admissible(n, {}))
    return Sequence(_phase_draw(np.random.default_rng(seed), n),
                    "random_phase", {"seed": int(seed)})


def _phase_draw(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))


def random_binary(n: int, seed: int) -> Sequence:
    """+/-1 sequence with equiprobable entries.

    PRNG: numpy default_rng (PCG64) seeded with `seed`; one integers(0, 2)
    draw per element in index order, bit b mapped to 1 - 2*b.
    """
    _require(FAMILIES["random_binary"].admissible(n, {}))
    return Sequence(_sign_draw(np.random.default_rng(seed), n),
                    "random_binary", {"seed": int(seed)})


def _sign_draw(rng: np.random.Generator, n: int) -> np.ndarray:
    return (1.0 - 2.0 * rng.integers(0, 2, size=n)).astype(np.complex128)


# ---------------------------------------------------------------------------
# autocorrelation and classification
# ---------------------------------------------------------------------------

def autocorr_periodic(s, l: int) -> complex:
    """Periodic autocorrelation R(l) = sum_k s_k * conj(s_{(k+l) mod N})."""
    vals = _values(s)
    n = vals.shape[0]
    if not (0 <= l <= n - 1):
        raise ValueError(f"lag {l} out of range [0, {n - 1}]")
    return complex(np.sum(vals * np.conj(np.roll(vals, -l))))


def autocorr_aperiodic(s, l: int) -> complex:
    """Aperiodic autocorrelation r(l) = sum_{k=0}^{N-l-1} s_k * conj(s_{k+l})."""
    vals = _values(s)
    n = vals.shape[0]
    if not (0 <= l <= n - 1):
        raise ValueError(f"lag {l} out of range [0, {n - 1}]")
    return complex(np.sum(vals[:n - l] * np.conj(vals[l:])))


def autocorr_periodic_all(s) -> np.ndarray:
    """All periodic autocorrelation values [R(0), ..., R(N-1)] via FFT."""
    vals = _values(s)
    spec = np.fft.fft(vals)
    return np.conj(np.fft.ifft(np.abs(spec) ** 2))


@dataclass(frozen=True)
class ClassifyReport:
    label: str                 # "perfect" | "nearly_perfect" | "neither"
    epsilon_observed: float
    claim_consistent: Optional[bool]


def classify(s: Sequence) -> ClassifyReport:
    """Classify a sequence by its worst off-peak periodic autocorrelation.

    perfect when max_{l != 0} |R(l)| <= 1e-9; nearly_perfect when it is at
    most _NEARLY_PERFECT (4); neither otherwise.  When the sequence's
    family makes a claim, consistency (observed <= claim + 1e-9, so a
    claim of 0 holds exactly when the label is perfect) is reported.
    """
    corr = autocorr_periodic_all(s)
    n = corr.shape[0]
    eps = 0.0 if n == 1 else float(np.max(np.abs(corr[1:])))
    if eps <= _PERFECT_TOL:
        label = "perfect"
    elif eps <= _NEARLY_PERFECT:
        label = "nearly_perfect"
    else:
        label = "neither"
    claim = family(s.kind).claim
    consistent = None if claim is None else eps <= claim + _PERFECT_TOL
    return ClassifyReport(label, eps, consistent)


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One named family: ``build(n, params, rng=None)`` returns its
    Sequence, except that a random family given a Generator returns the
    raw draws (no per-trial Sequence checks); ``admissible(n, params)``
    returns why N is refused, or None; ``bound(n)``, when set, returns the
    closed bound on the circulant's coherence and its label.  Both take
    ``params`` over the family's defaults; ``build`` refuses any key
    outside ``reads(rng is None)``, and what labels or records params
    takes them from ``read_params``.  A Sequence of the family must meet
    its invariants (``entries``, conjugate symmetry), and classify()
    judges it against its ``claim``."""

    make: Callable  # build's, with the defaults filled in
    reason: Callable[[int, dict], Optional[str]]  # admissible's, likewise
    bound: Optional[Callable[[int], Tuple[float, str]]] = None
    domain: str = "spectrum"  # the sequence is A's spectrum, or "filter"
    random: bool = False  # drawn afresh from each trial's Generator
    # the params an experiment config records, with their defaults
    params: Dict[str, int] = field(default_factory=dict)
    entries: Optional[str] = None  # "unimodular", "bipolar" (+/-1) or None
    conjugate_symmetric: bool = False  # sigma_k = conj(sigma_(N-k))
    claim: Optional[float] = None  # promised max off-peak |R(l)|, or None

    def reads(self, standalone: bool = True) -> Tuple[str, ...]:
        """A config's params keys, and seed for a random build with no rng."""
        return tuple(self.params) + ("seed",) * (self.random and standalone)

    def build(self, n: int, params: dict, rng=None):
        _refuse_unread(params, self.reads(rng is None))
        return self.make(n, {**self.params, **params}, rng)

    def admissible(self, n: int, params: dict) -> Optional[str]:
        return self.reason(n, {**self.params, **params})


def read_params(kind: str, params: dict, standalone: bool = True,
                what: str = "params") -> dict:
    """``params`` over family ``kind``'s defaults, refusing (naming it,
    ``what`` naming the mapping) any key outside ``reads(standalone)``:
    the one rule for which params a family reads."""
    fam = family(kind)
    _refuse_unread(params, fam.reads(standalone), what, f"the {kind!r} family")
    return {**fam.params, **params}


def _refuse_unread(params: dict, reads, what: str = "params",
                   reader: str = "this family") -> None:
    for key in sorted(params):  # the same error for any key order
        if key not in reads:
            raise ValueError(f"{what} key {key!r} is not read by {reader}, "
                             f"which reads {', '.join(reads) or 'none'}")


def _require(reason: Optional[str]) -> None:
    if reason is not None:
        raise ValueError(reason)


def _at_least(lo: int) -> Callable[[int, dict], Optional[str]]:
    return lambda n, params: None if n >= lo else f"N must be >= {lo}"


def _fzc_reason(n: int, params: dict) -> Optional[str]:
    gamma = int(params["gamma"])
    if n < 1 or math.gcd(gamma, n) != 1:
        return f"gcd(gamma={gamma}, N={n}) != 1"
    return None


def _m_reason(n: int, params: dict) -> Optional[str]:
    deg = (n + 1).bit_length() - 1
    if (1 << deg) - 1 != n or deg not in PRIMITIVE_POLYNOMIALS:
        return f"N={n} is not 2^d - 1 for a tabulated degree"
    return None


def _m_degree(n: int) -> int:
    _require(_m_reason(n, {}))
    return (n + 1).bit_length() - 1


def _golay_reason(n: int, params: dict) -> Optional[str]:
    if not admissible_golay_length(n):
        return f"N={n} is not of the form 2^k1 * 10^k2 * 26^k3"
    return None


def _extended_golay_reason(n: int, params: dict) -> Optional[str]:
    if not admissible_golay_length(n // 2):
        return f"half-length {n // 2} is not a Golay length"
    return None


def _legendre_reason(n: int, params: dict) -> Optional[str]:
    return None if n >= 3 and _is_prime(n) else f"N={n} is not an odd prime"


def _parity_bound(even: tuple, odd: tuple) -> Callable[[int], tuple]:
    """c + d/sqrt(N) with (c, d, label) picked by the parity of N."""
    def bound(n: int) -> Tuple[float, str]:
        c, d, label = even if n % 2 == 0 else odd
        return c + d / math.sqrt(n), label
    return bound


def _random(draw: Callable, seeded: Callable, entries: str) -> Family:
    """``draw(rng, n)`` from a trial Generator, or without one the seeded
    Sequence ``seeded(n, params['seed'])``; both refuse N < 1."""
    admissible = _at_least(1)

    def build(n: int, params: dict, rng=None):
        if rng is not None:
            _require(admissible(n, params))
            return draw(rng, n)
        if "seed" not in params:
            raise ValueError("a random family needs a Generator or a seed")
        return seeded(n, int(params["seed"]))
    return Family(build, admissible, random=True, entries=entries)


# Entries call the generators through module globals looked up at call
# time, so a generator rebound on this module is the one that runs.
FAMILIES: Dict[str, Family] = {
    "fzc": Family(lambda n, p, rng=None: fzc(n, int(p["gamma"])),
                  _fzc_reason, lambda n: (1.0, "1"), params={"gamma": 1},
                  entries="unimodular", claim=0.0),
    "extended_polyphase": Family(
        lambda n, p, rng=None: extended_polyphase(n), _at_least(2),
        _parity_bound((4.0, 4.0, "4 + 4/sqrt(N)"),
                      (2.69, 8.15, "2.69 + 8.15/sqrt(N)")),
        entries="unimodular", conjugate_symmetric=True),
    "m_sequence": Family(
        lambda n, p, rng=None: m_sequence(_m_degree(n)), _m_reason,
        lambda n: (math.sqrt(1.0 + 1.0 / n), "sqrt(1 + 1/N)"),
        entries="bipolar", claim=1.0),
    # builds the Sequence of kind m_sequence, used as the filter
    "m_sequence_filter": Family(
        lambda n, p, rng=None: m_sequence(_m_degree(n)), _m_reason,
        domain="filter", entries="bipolar"),
    "perfect_binary_filter": Family(
        lambda n, p, rng=None: perfect_binary_from_m(
            m_sequence(_m_degree(n))), _m_reason, domain="filter",
        claim=0.0),
    "golay": Family(lambda n, p, rng=None: golay(n), _golay_reason,
                    lambda n: (math.sqrt(2.0), "sqrt(2)"), entries="bipolar"),
    # the odd-N bound fails at some admissible N (see convsense.coherence)
    "extended_golay": Family(
        lambda n, p, rng=None: extended_golay(n), _extended_golay_reason,
        _parity_bound((2.0, 2.0, "2 + 2/sqrt(N)"),
                      (2.0, 1.0, "2 + 1/sqrt(N)")),
        entries="bipolar", conjugate_symmetric=True),
    "legendre": Family(lambda n, p, rng=None: legendre(n), _legendre_reason,
                       entries="bipolar"),
    "random_phase": _random(_phase_draw,
                            lambda n, seed: random_phase(n, seed),
                            "unimodular"),
    "random_binary": _random(_sign_draw,
                             lambda n, seed: random_binary(n, seed),
                             "bipolar"),
}


def family(kind: str) -> Family:
    if kind not in FAMILIES:
        raise ValueError(f"unknown sequence kind {kind!r}")
    return FAMILIES[kind]
