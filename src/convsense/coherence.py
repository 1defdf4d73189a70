"""Coherence of circulant operators and verification of the bound table.

For a circulant A with filter a, the coherence is mu(A) = max_k |a_k|;
for a basis Psi it is the largest entry magnitude of A @ Psi.  Each
deterministic spectrum family carries a closed-form bound:

=====================  ==========================  =====================
kind                   admissible N                bound on mu(A)
=====================  ==========================  =====================
fzc                    gcd(gamma, N) = 1           1
m_sequence             2^d - 1 (d in table)        sqrt(1 + 1/N)
golay                  2^k1 * 10^k2 * 26^k3        sqrt(2)
extended_polyphase     even N                      4 + 4/sqrt(N)
                       odd N                       2.69 + 8.15/sqrt(N)
extended_golay         even N, N/2 Golay           2 + 2/sqrt(N)
                       odd N, (N-1)/2 Golay        2 + 1/sqrt(N) (*)
=====================  ==========================  =====================

Bounds are checked as non-strict inequalities with +1e-9 slack.  The
admissible sizes, bounds and labels live in the family registry
(:data:`convsense.sequences.FAMILIES`).

(*) Not a proven bound: it holds at every admissible odd N below 521 but
fails at 24 of the 66 admissible odd N <= 32769 (N=521: mu = 2.07004
against 2.04381; N=32769: 2.00731 against 2.00552), and such rows report
pass = false.  The even-N bound holds at all 66 admissible even
N <= 32768.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Union

import numpy as np

from . import sequences as seqs
from .operators import (Basis, CirculantOperator, _csv, _unit_block,
                        build_circulant)
from .sequences import Sequence

_PASS_SLACK = 1e-9


@dataclass(frozen=True)
class CoherenceReport:
    """One (kind, N) row: observed coherence against its bound."""

    kind: str
    n: int
    mu_observed: float
    bound: float
    bound_label: str
    note: str = ""
    skipped: bool = False

    @property
    def margin(self) -> float:
        return self.bound - self.mu_observed

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        return self.mu_observed <= self.bound + _PASS_SLACK


def coherence_circulant(a: CirculantOperator) -> float:
    """mu(A) = max |a_k| over the filter (first-column) entries."""
    return float(np.max(np.abs(a.filter)))


def mutual_coherence(a: CirculantOperator, psi: Basis,
                     block: int = 128) -> float:
    """Largest entry magnitude of A @ Psi, streamed in column blocks of
    Psi so memory stays O(N * block) at any size."""
    n = a.n
    worst = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        prod = a.apply_batch(psi.apply(_unit_block(n, np.arange(lo, hi))))
        worst = max(worst, float(np.max(np.abs(prod))))
    return worst


def autocorrelation_bound_check(s: Sequence) -> CoherenceReport:
    """For a unimodular sequence used as spectrum, verify
    mu(A) <= sqrt(1 + epsilon_observed) with epsilon_observed the worst
    off-peak periodic autocorrelation magnitude."""
    a = CirculantOperator.from_spectrum(s)
    rep = seqs.classify(s)
    eps = rep.epsilon_observed
    return CoherenceReport(
        kind=s.kind.value, n=s.values.size,
        mu_observed=coherence_circulant(a),
        bound=math.sqrt(1.0 + eps),
        bound_label="sqrt(1 + epsilon_observed)",
        note=f"label={rep.label}, epsilon_observed={eps:.6g}")


# ---------------------------------------------------------------------------
# the bound table
# ---------------------------------------------------------------------------

def _skipped(kind: str, n: int, reason: str) -> CoherenceReport:
    return CoherenceReport(kind=kind, n=n, mu_observed=float("nan"),
                           bound=float("nan"), bound_label="",
                           note=f"skipped: {reason}", skipped=True)


def bound_table_report(n_lists: Dict[str, Iterable[int]],
                  fzc_gamma: int = 1) -> List[CoherenceReport]:
    """One CoherenceReport per (kind, N) for families with a closed
    bound.  Inadmissible sizes produce a skipped row (note says why,
    never counted as a failure)."""
    params = {"gamma": fzc_gamma}
    reports = []
    for kind, ns in n_lists.items():
        fam = seqs.family(kind)
        if fam.bound is None:
            raise ValueError(f"{kind!r} has no closed coherence bound")
        for n in ns:
            n = int(n)
            reason = fam.admissible(n, params)
            if reason is not None:
                reports.append(_skipped(kind, n, reason))
                continue
            mu = coherence_circulant(build_circulant(kind, n, params))
            bound, label = fam.bound(n)
            reports.append(CoherenceReport(kind=kind, n=n, mu_observed=mu,
                                           bound=bound, bound_label=label))
    return reports


def dct_coherence_report(n_list: Iterable[int],
                    gammas: Union[Iterable[int], int] = 1
                    ) -> List[CoherenceReport]:
    """mu(A @ InverseDCT2) for FZC spectra against the 6*sqrt(2) bound;
    one row per (N, gamma), non-coprime pairs skipped."""
    if isinstance(gammas, int):
        gammas = [gammas]
    gammas = list(gammas)
    psi = Basis.inverse_dct2()
    reports = []
    for n in n_list:
        for g in gammas:
            kind = f"fzc(gamma={g})+inverse_dct2"
            reason = seqs.FAMILIES["fzc"].admissible(int(n), {"gamma": g})
            if reason is not None:
                reports.append(_skipped(kind, int(n), reason))
                continue
            a = CirculantOperator.from_spectrum(seqs.fzc(int(n), g))
            mu = mutual_coherence(a, psi)
            reports.append(CoherenceReport(
                kind=kind, n=int(n), mu_observed=mu,
                bound=6.0 * math.sqrt(2.0), bound_label="6*sqrt(2)"))
    return reports


# ---------------------------------------------------------------------------
# CSV emission (frozen schema: kind,N,mu_observed,bound,margin,pass)
# ---------------------------------------------------------------------------

def bound_table_csv(reports: Iterable[CoherenceReport]) -> str:
    """Skipped rows are not emitted; pass is lowercase true/false."""
    return _csv(["kind", "N", "mu_observed", "bound", "margin", "pass"],
                ([r.kind, r.n, r.mu_observed, r.bound, r.margin, r.passed]
                 for r in reports if not r.skipped))
