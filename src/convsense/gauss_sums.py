"""Incomplete quadratic exponential sums: values, identities and bounds.

Four families of partial sums are provided, distinguished by their phase:

======  =======================  ==========================
kind    term phase               m domain
======  =======================  ==========================
gn      2*pi*k^2 / N             0 <= m <= N
g2n     pi*k^2 / N               0 <= m <= 2N
g8n     pi*k^2 / (4N)            0 <= m <= 8N
qn      pi*(2k+1)^2 / (4N)       0 <= m <= N
======  =======================  ==========================

Phases are reduced in integer arithmetic modulo the period before the
complex exponential is evaluated, and single-point sums use compensated
(fsum) summation, so the 1e-8*sqrt(N) identity tolerances hold far past
the desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

# kind -> (phase period, largest m), both as multiples of N; term k has
# numerator k^2, or (2k+1)^2 for qn
_KINDS = {"gn": (1, 1), "g2n": (2, 2), "g8n": (8, 8), "qn": (8, 1)}


def _phase_ints(kind: str, n: int, m: int) -> tuple:
    """Integer phase numerators (mod `period`) and the period, such that
    term k has phase 2*pi*nums[k]/period."""
    if n < 1:
        raise ValueError("N must be >= 1")
    period = _KINDS[kind][0] * n
    k = np.arange(m, dtype=np.int64)
    if kind == "qn":
        k = 2 * k + 1
    return (k * k) % period, period


def _check_domain(kind: str, n: int, m: Optional[int] = None) -> int:
    """m, or the top of kind's m domain when None, after refusing an
    unknown kind or an m outside the domain."""
    if kind not in _KINDS:
        raise ValueError(
            f"unknown kind {kind!r}; expected one of {tuple(_KINDS)}")
    limit = _KINDS[kind][1] * n
    m = limit if m is None else m
    if not (0 <= m <= limit):
        raise ValueError(f"m={m} out of domain [0, {limit}] for kind {kind!r}")
    return m


def gauss_sum(kind: str, n: int, m: int) -> complex:
    """Partial sum of m quadratic-phase terms, compensated summation.

    See the module table for the phase of each kind.  The k*k (or
    (2k+1)^2) numerators are reduced modulo the phase period in int64
    before multiplication by 2*pi/period, so each term is evaluated at
    its exactly-reduced angle.
    """
    _check_domain(kind, n, m)
    if m == 0:
        return 0j
    nums, period = _phase_ints(kind, n, m)
    ang = (2.0 * np.pi / period) * nums
    return complex(math.fsum(np.cos(ang)), math.fsum(np.sin(ang)))


def gauss_sum_sweep(kind: str, n: int, m_max: Optional[int] = None) -> np.ndarray:
    """Vector of partial sums for m = 0 .. m_max (inclusive) via a
    cumulative sum.  Error grows like m*eps, far below the identity
    tolerances at desk scale."""
    m_max = _check_domain(kind, n, m_max)
    nums, period = _phase_ints(kind, n, m_max)
    terms = np.exp(2j * np.pi * nums / period)
    out = np.empty(m_max + 1, dtype=np.complex128)
    out[0] = 0.0
    np.cumsum(terms, out=out[1:])
    return out


def complete_gauss_closed_form(n: int) -> complex:
    """Closed form of the complete sum of N terms with phase 2*pi*k^2/N,
    selected by N mod 4: (1+j)sqrt(N), sqrt(N), 0, j*sqrt(N)."""
    if n < 1:
        raise ValueError("N must be >= 1")
    r = math.sqrt(n)
    return {0: complex(r, r), 1: complex(r, 0.0),
            2: 0j, 3: complex(0.0, r)}[n % 4]


def complete_gauss_sum(n: int) -> complex:
    """sum_{k<N} e^{2 pi j k^2/N}.  k and N - k share the residue k^2
    mod N, so the terms for k <= N/2 are evaluated and mirrored: the
    same elements in the same order, hence the same pairwise sum."""
    k = np.arange(n // 2 + 1, dtype=np.int64)
    half = np.exp(2j * np.pi * ((k * k) % n) / n)
    return complex(np.sum(np.concatenate((half, half[1:(n + 1) // 2][::-1]))))


def reflection_identity_residual(n: int) -> np.ndarray:
    """|G(m) + G(N-m+1) - 1 - G(N)| for the gn family at m = 1 .. (N+1)/2
    (entry m - 1), from one sweep.

    The residual contract is <= 1e-8*sqrt(N)."""
    g = gauss_sum_sweep("gn", n, n)
    m = np.arange(1, (n + 1) // 2 + 1)
    return np.abs(g[m] + g[n - m + 1] - 1.0 - g[n])


def q_identity_residual(n: int) -> np.ndarray:
    """|Q(m) - (G8(2m) - G2(m))| at m = 0 .. N (entry m): the odd/even
    split of the eighth-period sum into the quarter-period and
    half-integer families, from one sweep of each.

    The residual contract is <= 1e-8*sqrt(N)."""
    g8 = gauss_sum_sweep("g8n", n, 2 * n)
    m = np.arange(n + 1)
    return np.abs(gauss_sum_sweep("qn", n, n)
                  - (g8[2 * m] - gauss_sum_sweep("g2n", n, n)[m]))


# ---------------------------------------------------------------------------
# bound sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheckRecord:
    """Worst observed magnitude of a sum family at one size vs its bound.

    `hard` is False for the one case whose additive constant is left open
    (quarter-period N = 4k+1); such records report the margin against a
    fitted constant and never count as violations.
    """

    kind: str
    case: str
    n: int
    worst_m: int
    observed: float
    bound: float
    hard: bool = True

    @property
    def margin(self) -> float:
        return self.bound - self.observed

    @property
    def passed(self) -> bool:
        return (not self.hard) or self.observed <= self.bound + 1e-9


_SOFT_BASE_4K1 = 1.07

# kind -> (summed family, smallest N, records grouped by case or in order
# of N, cases); a case is (name, (modulus, residue) of the N it covers,
# scale(N) on |S(m)|, m range searched (lo, hi)(N), bound(N, c), hard),
# with c the additive constant fitted over the sweep's soft-case sizes
_BOUND_CASES = {
    "gn_normalized": ("gn", 4, True, (
        ("quarter0", (4, 0), lambda n: 2.0 / math.sqrt(n),
         lambda n: (0, n // 2), lambda n, c: math.sqrt(2.0), True),
        ("quarter1_soft", (4, 1), lambda n: 2.0 / math.sqrt(n),
         lambda n: (0, (n - 1) // 2),
         lambda n, c: _SOFT_BASE_4K1 + c / math.sqrt(n), False),
        ("quarter2", (4, 2), lambda n: 2.0 / math.sqrt(n), lambda n: (0, n),
         lambda n, c: 0.95 + (101.0 / 40.0) / math.sqrt(n), True),
        ("quarter3_half_normalized", (4, 3), lambda n: 1.0 / math.sqrt(n),
         lambda n: (0, (n - 1) // 2),
         lambda n, c: math.sqrt(1.0 + 1.0 / n), True))),
    "g2n": ("g2n", 2, False, (
        ("even_head", (2, 0), lambda n: 1.0, lambda n: (0, n),
         lambda n, c: math.sqrt(n), True),
        ("even_tail", (2, 0), lambda n: 1.0, lambda n: (n + 1, 2 * n),
         lambda n, c: 3.0 * math.sqrt(n) + 1.0, True),
        ("odd_full", (2, 1), lambda n: 1.0, lambda n: (0, 2 * n),
         lambda n, c: math.sqrt(2.0 * n) / 2.0
         * (0.95 + (101.0 / 40.0) / math.sqrt(n)), True))),
    "qn": ("qn", 1, False, (
        ("full", (1, 0), lambda n: 1.0, lambda n: (0, n),
         lambda n, c: 3.0 * math.sqrt(n), True),)),
}


def bound_check(kind: str, n_values: Iterable[int]) -> list:
    """Exhaustively evaluate a normalized-sum family over sizes and report
    the worst observed value against its bound per case (the table
    _BOUND_CASES; sizes below a kind's smallest N are skipped).

    'gn_normalized' (N >= 4), g(m) = 2|G(m)|/sqrt(N), one case per N mod 4:
    N = 4k, m <= N/2: sqrt(2); N = 4k+1, m < N/2: 1.07 + c/sqrt(N), c
    fitted over the sweep (soft: reported, never failed, as the additive
    constant is open); N = 4k+2, m <= N: 0.95 + (101/40)/sqrt(N); N = 4k+3,
    m < N/2: half-normalized |G(m)|/sqrt(N) <= sqrt(1 + 1/N), as the
    doubled normalization provably fails there.  Records come grouped by
    N mod 4, in that order.  'g2n' (N >= 2): |G2(m)| against sqrt(N) for
    m <= N and 3 sqrt(N) + 1 for N < m <= 2N (N even), and
    (sqrt(2N)/2)(0.95 + (101/40)/sqrt(N)) for m <= 2N (N odd).  'qn'
    (N >= 1): |Q(m)| <= 3 sqrt(N) for m <= N.  Records of 'g2n' and 'qn'
    come in order of N.
    """
    if kind not in _BOUND_CASES:
        raise ValueError(f"unknown bound family {kind!r}")
    family, smallest_n, by_case, cases = _BOUND_CASES[kind]
    found = []  # (case index, N, worst m, observed)
    for n in n_values:
        if n < smallest_n:
            continue
        mags = np.abs(gauss_sum_sweep(family, n))
        for i, (_, (mod, res), scale, m_range, _, _) in enumerate(cases):
            if n % mod == res:
                lo, hi = m_range(n)
                vals = scale(n) * mags[lo:hi + 1]
                worst = int(np.argmax(vals))
                found.append((i, n, lo + worst, float(vals[worst])))
    c_fit = max([0.0] + [(obs - _SOFT_BASE_4K1) * math.sqrt(n)
                         for i, n, _, obs in found if not cases[i][5]])
    if by_case:
        found.sort(key=lambda row: row[0])
    return [BoundCheckRecord(kind, cases[i][0], n, worst_m, obs,
                             cases[i][4](n, c_fit), cases[i][5])
            for i, n, worst_m, obs in found]
