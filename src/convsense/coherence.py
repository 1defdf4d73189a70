"""Coherence of circulant operators and verification of the bound table.

For a circulant A with filter a, the coherence is mu(A) = max_k |a_k|;
for a basis Psi it is the largest entry magnitude of A @ Psi.  Each
deterministic spectrum family's admissible sizes and closed-form bound
on mu(A) live in the family registry
(:data:`convsense.sequences.FAMILIES`), tabulated in docs/formats.md.
Bounds are checked as non-strict inequalities with +1e-9 slack.

The odd-N extended_golay bound 2 + 1/sqrt(N) is not a proven bound: it
holds at every admissible odd N below 521 but fails at 24 of the 66
admissible odd N <= 32769 (N=521: mu = 2.07004 against 2.04381;
N=32769: 2.00731 against 2.00552), and such rows report pass = false.
The even-N bound 2 + 2/sqrt(N) holds at all 66 admissible even
N <= 32768.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Union

import numpy as np

from . import sequences as seqs
from .operators import (Basis, CirculantOperator, _csv, _unit_block,
                        build_circulant)
from .sequences import Sequence

_PASS_SLACK = 1e-9
_COLUMN_BLOCK = 128  # columns of Psi per block in mutual_coherence


@dataclass(frozen=True)
class CoherenceReport:
    """One (kind, N) row: observed coherence against its bound."""

    kind: str
    n: int
    mu_observed: float
    bound: float
    bound_label: str
    note: str = ""
    # always False, as an inadmissible N is refused; kept for perfbench's
    # certify workload, which reads it
    skipped: bool = False

    @property
    def margin(self) -> float:
        return self.bound - self.mu_observed

    @property
    def passed(self) -> bool:
        return self.mu_observed <= self.bound + _PASS_SLACK


def coherence_circulant(a: CirculantOperator) -> float:
    """mu(A) = max |a_k| over the filter (first-column) entries."""
    return float(np.max(np.abs(a.filter)))


def mutual_coherence(a: CirculantOperator, psi: Basis) -> float:
    """Largest entry magnitude of A @ Psi, streamed in blocks of 128
    columns of Psi so memory stays O(N) at any size."""
    n = a.n
    worst = 0.0
    for lo in range(0, n, _COLUMN_BLOCK):
        hi = min(lo + _COLUMN_BLOCK, n)
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
        kind=s.kind, n=s.values.size,
        mu_observed=coherence_circulant(a),
        bound=math.sqrt(1.0 + eps),
        bound_label="sqrt(1 + epsilon_observed)",
        note=f"label={rep.label}, epsilon_observed={eps:.6g}")


# ---------------------------------------------------------------------------
# the bound table
# ---------------------------------------------------------------------------

def coherence_row(kind: str, n: int, params: dict,
                  basis: str = "identity") -> CoherenceReport:
    """The row of family `kind` at length N against `basis`: mu (the
    largest entry of A, or of A @ Psi) against the family's closed bound
    for the identity basis, 6*sqrt(2) for FZC against the inverse DCT-II,
    and an informational infinite bound otherwise.  An unknown basis and
    an unread param are refused first, then an inadmissible N, with the
    registry's reason."""
    fam, psi = seqs.family(kind), Basis(basis)
    params = seqs.read_params(kind, params)
    if basis == "identity":
        label, bound = kind, fam.bound
    elif kind == "fzc" and basis == "inverse_dct2":
        label = f"fzc(gamma={params['gamma']})+inverse_dct2"
        bound = lambda _: (6.0 * math.sqrt(2.0), "6*sqrt(2)")
    else:
        label, bound = f"{kind}+{basis}", None
    a = build_circulant(kind, n, params)
    mu = coherence_circulant(a) if basis == "identity" \
        else mutual_coherence(a, psi)
    if bound is None:
        return CoherenceReport(kind=label, n=n, mu_observed=mu,
                               bound=math.inf, bound_label="",
                               note="no closed bound for this combination")
    value, bound_label = bound(n)
    return CoherenceReport(kind=label, n=n, mu_observed=mu, bound=value,
                           bound_label=bound_label)


def bound_table_report(n_lists: Dict[str, Iterable[int]]
                       ) -> List[CoherenceReport]:
    """One CoherenceReport per (kind, N) for families with a closed
    bound, FZC at gamma = 1.  An inadmissible size raises ValueError with
    the family's reason."""
    for kind in n_lists:
        if seqs.family(kind).bound is None:
            raise ValueError(f"{kind!r} has no closed coherence bound")
    return [coherence_row(kind, int(n), {})
            for kind, ns in n_lists.items() for n in ns]


def dct_coherence_report(n_list: Iterable[int],
                    gammas: Union[Iterable[int], int] = 1
                    ) -> List[CoherenceReport]:
    """mu(A @ InverseDCT2) for FZC spectra against the 6*sqrt(2) bound;
    one row per (N, gamma), a non-coprime pair refused.  ``gammas`` is
    one integer of any integer type or an iterable of them."""
    gammas = [operator.index(g) for g in np.atleast_1d(gammas)]
    return [coherence_row("fzc", int(n), {"gamma": g}, "inverse_dct2")
            for n in n_list for g in gammas]


# ---------------------------------------------------------------------------
# CSV emission (frozen schema: kind,N,mu_observed,bound,margin,pass)
# ---------------------------------------------------------------------------

def bound_table_csv(reports: Iterable[CoherenceReport]) -> str:
    """One line per report; pass is lowercase true/false."""
    return _csv(["kind", "N", "mu_observed", "bound", "margin", "pass"],
                ([r.kind, r.n, r.mu_observed, r.bound, r.margin, r.passed]
                 for r in reports))
