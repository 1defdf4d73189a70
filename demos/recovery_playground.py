"""Sparse recovery with each solver, then a phase-transition slice.

First part: one K-sparse problem, solved by orthogonal matching
pursuit, subspace pursuit, and FISTA, noiseless and at 20 dB.  All
three should nail the support; the greedy solvers refit exactly on it
while FISTA trades a little bias for its convex formulation.

Second part: a success-rate slice across M at fixed K, run in both the
time-sparse (identity basis) and frequency-sparse (inverse Fourier
basis) domains.  The two curves should be nearly identical — the
operator treats both domains the same — with a sharp transition once M
clears a small multiple of K.
"""

import numpy as np

from convsense import (Basis, CirculantOperator, ExperimentConfig,
                       RecoveryProblem, SOLVERS, golay, random_sampling,
                       run_phase_transition)
from convsense.operators import SensingOperator

N, M, K, SEED = 256, 64, 5, 7


def build_problem(snr_db=None):
    rng = np.random.default_rng(SEED)
    theta = SensingOperator(CirculantOperator.from_spectrum(golay(N)),
                            random_sampling(N, M, SEED), Basis.identity())
    support = rng.choice(N, size=K, replace=False)
    f = np.zeros(N, dtype=np.complex128)
    f[support] = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    y = theta.forward(f)
    if snr_db is not None:
        e = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        e *= np.linalg.norm(y) * 10 ** (-snr_db / 20) / np.linalg.norm(e)
        y = y + e
    return theta, f, support, y


def main() -> None:
    for snr in (None, 20.0):
        theta, f, support, y = build_problem(snr)
        label = "noiseless" if snr is None else f"{snr:g} dB"
        print(f"One K={K} problem at N={N}, M={M} ({label}):")
        for name in ("omp", "sp", "fista"):
            res = SOLVERS[name](RecoveryProblem(operator=theta, y=y, k=K))
            rel = np.linalg.norm(res.f_hat - f) / np.linalg.norm(f)
            hit = set(res.support.tolist()) >= set(support.tolist())
            print(f"  {name:6s} rel error {rel:9.2e}  "
                  f"support {'found' if hit else 'missed':6s}  "
                  f"iterations {res.iterations}")
        print()

    print("Success rate vs. M (100 noiseless trials per cell, K = 5):")
    cfg = ExperimentConfig(
        experiment="phase", n=N, m=M, k=K, sequence_kind="fzc",
        sequence_params={"gamma": 1}, solver="sp", trials=100,
        master_seed=0,
        extra={"k_grid": [K], "m_grid": [12, 16, 20, 24, 32, 48],
               "bases": ["identity", "inverse_fourier"]})
    report = run_phase_transition(cfg)
    rates = {}
    for cell in report.cells:
        rates.setdefault(cell.m, {})[cell.basis] = cell.success_rate
    print(f"  {'M':>4s} {'time-sparse':>12s} {'freq-sparse':>12s}")
    for m in sorted(rates):
        row = rates[m]
        print(f"  {m:4d} {row['identity']:12.2f} "
              f"{row['inverse_fourier']:12.2f}")


if __name__ == "__main__":
    main()
