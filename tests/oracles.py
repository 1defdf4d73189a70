"""Independent brute-force reference implementations.

Everything here is written the slow, obvious way (index loops, direct
``cmath`` sums, dense matrices built entry by entry) so the fast
library paths have something genuinely independent to agree with.
Where a fast path replaced a plain numpy one bit for bit, the plain one
is kept here as it was (``soft_threshold``, ``fista_stage``,
``sensing_matrix``).  Nothing imports from :mod:`convsense`.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import scipy.fft


def dft_matrix(n: int) -> np.ndarray:
    """F[p, q] = exp(-2j*pi*p*q/n), built entry by entry."""
    f = np.empty((n, n), dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            f[p, q] = cmath.exp(-2j * cmath.pi * p * q / n)
    return f


def circulant_from_filter(filt) -> np.ndarray:
    """A[p, q] = filt[(p - q) mod n], built entry by entry."""
    filt = np.asarray(filt)
    n = filt.shape[0]
    a = np.empty((n, n), dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            a[p, q] = filt[(p - q) % n]
    return a


def idct2_matrix(n: int) -> np.ndarray:
    """Unitary inverse DCT-II synthesis matrix from the entry formula:
    column 0 is 1/sqrt(n); column q>0 is sqrt(2/n)*cos(pi*(p+1/2)*q/n)."""
    m = np.empty((n, n), dtype=np.float64)
    for p in range(n):
        m[p, 0] = 1.0 / math.sqrt(n)
        for q in range(1, n):
            m[p, q] = math.sqrt(2.0 / n) * math.cos(
                math.pi * (p + 0.5) * q / n)
    return m


def basis_matrix(kind: str, n: int) -> np.ndarray:
    """The sparsity basis Psi named ``kind`` from the matrices above:
    identity, inverse Fourier (1/sqrt(n)) F^*, or inverse DCT-II."""
    if kind == "identity":
        return np.eye(n, dtype=np.complex128)
    if kind == "inverse_fourier":
        return dft_matrix(n).conj().T / math.sqrt(n)
    if kind == "inverse_dct2":
        return idct2_matrix(n).astype(np.complex128)
    raise ValueError(kind)


def periodic_autocorr(x, lag: int) -> complex:
    """R(lag) = sum_k x[k] * conj(x[(k + lag) mod n])."""
    x = np.asarray(x)
    n = x.shape[0]
    total = 0.0 + 0.0j
    for k in range(n):
        total += complex(x[k]) * complex(x[(k + lag) % n]).conjugate()
    return total


def aperiodic_autocorr(x, lag: int) -> complex:
    """C(lag) = sum_{k=0}^{n-lag-1} x[k] * conj(x[k + lag])."""
    x = np.asarray(x)
    n = x.shape[0]
    lag = abs(lag)
    total = 0.0 + 0.0j
    for k in range(n - lag):
        total += complex(x[k]) * complex(x[k + lag]).conjugate()
    return total


def is_complementary_pair(a, b) -> bool:
    """Integer exact check that aperiodic autocorrelations cancel."""
    a = [int(v) for v in a]
    b = [int(v) for v in b]
    n = len(a)
    for lag in range(1, n):
        ra = sum(a[k + lag] * a[k] for k in range(n - lag))
        rb = sum(b[k + lag] * b[k] for k in range(n - lag))
        if ra + rb != 0:
            return False
    return sum(v * v for v in a) + sum(v * v for v in b) == 2 * n


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion via modular exponentiation."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def gauss_sum_direct(kind: str, n: int, m: int) -> complex:
    """Partial exponential sums by direct floating-point cmath, no
    integer phase reduction (the library route)."""
    if kind == "gn":
        return sum(cmath.exp(2j * cmath.pi * k * k / n) for k in range(m))
    if kind == "g2n":
        return sum(cmath.exp(1j * cmath.pi * k * k / n) for k in range(m))
    if kind == "g8n":
        return sum(cmath.exp(1j * cmath.pi * k * k / (4 * n))
                   for k in range(m))
    if kind == "qn":
        return sum(cmath.exp(1j * cmath.pi * (2 * k + 1) ** 2 / (4 * n))
                   for k in range(m))
    raise ValueError(kind)


def complete_gauss_sum(n: int) -> complex:
    """sum_{k<n} e^{2 pi j (k^2 mod n)/n}, every one of the n terms
    evaluated and summed in index order by one np.sum."""
    k = np.arange(n, dtype=np.int64)
    return complex(np.sum(np.exp(2j * np.pi * ((k * k) % n) / n)))


def lfsr_bits(taps: int, degree: int, n: int) -> list:
    """n output bits of a Fibonacci shift register, one clock at a time:
    the register starts at 1 (bit j holds the j-th next output), shifts
    right each clock, and feeds back the parity of the register masked
    by the polynomial's terms below x^degree."""
    mask = taps & ((1 << degree) - 1)
    state = 1
    out = []
    for _ in range(n):
        out.append(state & 1)
        feedback = bin(state & mask).count("1") & 1
        state = (state >> 1) | (feedback << (degree - 1))
    return out


def papr_direct(sigma, oversample: int) -> float:
    """Peak instantaneous power of (1/sqrt(n)) * sum_k sigma_k
    e^{2*pi*j*k*t/(n*L)} over t = 0..n*L-1, divided by the mean tone
    power ||sigma||^2 / n."""
    sigma = np.asarray(sigma, dtype=np.complex128)
    n = sigma.shape[0]
    total = n * oversample
    peak = 0.0
    for t in range(total):
        s = sum(sigma[k] * cmath.exp(2j * cmath.pi * k * t / total)
                for k in range(n)) / math.sqrt(n)
        peak = max(peak, abs(s) ** 2)
    return peak / (float(np.sum(np.abs(sigma) ** 2)) / n)


def least_squares_on_support(mat: np.ndarray, y: np.ndarray,
                             support) -> np.ndarray:
    """Dense lstsq restricted to the given columns, embedded back."""
    support = list(support)
    coef, *_ = np.linalg.lstsq(mat[:, support], y, rcond=None)
    out = np.zeros(mat.shape[1], dtype=np.complex128)
    out[support] = coef
    return out


def binomial_half_tails(n: int) -> list:
    """[P(X >= w) for w = 0..n], X ~ Bin(n, 1/2), as exact Fractions: the
    pmf from n convolutions with (1/2, 1/2), summed from the top."""
    pmf = [Fraction(1)]
    for _ in range(n):
        pmf = [(a + b) / 2 for a, b in zip(pmf + [0], [0] + pmf)]
    tails = [Fraction(0)] * (n + 2)
    for w in range(n, -1, -1):
        tails[w] = tails[w + 1] + pmf[w]
    return tails[:n + 1]


def soft_threshold(u: np.ndarray, tau: float) -> np.ndarray:
    mags = np.abs(u)
    scale = np.maximum(1.0 - tau / np.maximum(mags, 1e-300), 0.0)
    return u * scale


def fista_stage(theta, y: np.ndarray, L: float, lam: float, f: np.ndarray,
                rf: np.ndarray, stop_rel: float, max_iters: int):
    """FISTA at one lambda from f (rf = Theta f), with momentum starting
    afresh at f, Theta applied by the (forward, adjoint) pair ``theta``;
    returns (f, Theta f, iterations, converged).  Every step allocates
    its result."""
    forward, adjoint = theta

    def objective(f, rf):
        return 0.5 * float(np.linalg.norm(y - rf)) ** 2 \
            + lam * float(np.sum(np.abs(f)))

    def step(z, rz):
        """The proximal step from z (rz = Theta z): (f, Theta f, objective)."""
        f_new = soft_threshold(z - adjoint(rz - y) / L, lam / L)
        rf_new = forward(f_new)
        return f_new, rf_new, objective(f_new, rf_new)

    obj = objective(f, rf)
    z, rz = f, rf  # the momentum point and Theta z
    t = 1.0
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        f_new, rf_new, obj_new = step(z, rz)
        if obj_new > obj:
            # restart momentum at the last good point
            t = 1.0
            f_new, rf_new, obj_new = step(f, rf)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = f_new + beta * (f_new - f)
        rz = rf_new + beta * (rf_new - rf)
        rel_drop = abs(obj - obj_new)
        f, rf, t = f_new, rf_new, t_new
        if rel_drop <= stop_rel * max(obj, 1e-300):
            return f, rf, iterations, True
        obj = min(obj, obj_new)
    return f, rf, iterations, False


def _basis_adjoint_columns(kind: str, g: np.ndarray) -> np.ndarray:
    """Psi^* @ g for each column of an (N, c) block: numpy's FFT or
    scipy's DCT along axis 0, as the library calls them along its rows."""
    if kind == "identity":
        return g
    if kind == "inverse_fourier":
        return np.fft.fft(g, axis=0) / np.sqrt(g.shape[0])
    return scipy.fft.dct(g, type=2, norm="ortho", axis=0)


def sensing_matrix(op) -> np.ndarray:
    """Theta of a one-member ``SensingOperator`` built row-wise and scaled
    by a division by sqrt(M)."""
    n = op.n
    rev = np.conj(op.filters[op.circ[0], ::-1])
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((rev, rev)), n)
    rows = windows[n - 1 - op.rows[0]]
    theta = np.ascontiguousarray(
        _basis_adjoint_columns(op.basis.kind, rows.T).T)
    np.conj(theta, out=theta)
    theta /= np.sqrt(op.m)
    return theta
