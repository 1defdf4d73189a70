"""Every closed coherence bound in the package, checked live.

The coherence of the sensing operator controls how many measurements
sparse recovery needs, so each sequence family ships with a closed
bound on mu(A) (or on mu(A @ Psi) for the DCT basis).  This demo
rebuilds the full bound table at several sizes, prints observed vs.
bound with the margin, and then shows two supporting facts:

* the Fourier-basis coherence of any unimodular spectrum is exactly 1
  (which is why frequency-sparse recovery works as well as time-sparse
  recovery with these operators), and
* the general-purpose inequality mu(A) <= sqrt(1 + eps) for a
  unimodular spectrum whose off-peak autocorrelation is at most eps —
  evaluated on a family with no tabulated row (Legendre).
"""

import math

from convsense import (Basis, CirculantOperator, fzc, legendre,
                       autocorrelation_bound_check, mutual_coherence, bound_table_report,
                       dct_coherence_report)

SIZES = {
    "fzc": [64, 255, 1024],
    "m_sequence": [31, 127, 511],
    "golay": [20, 52, 104],
    "extended_polyphase": [100, 101, 256],
    "extended_golay": [52, 53, 65],
}


def main() -> None:
    print(f"{'kind':22s} {'N':>5s} {'observed':>10s} {'bound':>10s} "
          f"{'margin':>10s}  bound form")
    for rep in bound_table_report(SIZES):
        print(f"{rep.kind:22s} {rep.n:5d} {rep.mu_observed:10.6f} "
              f"{rep.bound:10.6f} {rep.margin:10.6f}  {rep.bound_label}")

    print()
    print("DCT-basis coherence of the quadratic-phase operator "
          "(bound 6*sqrt(2) = %.4f):" % (6 * math.sqrt(2)))
    for rep in dct_coherence_report([64, 256, 1024], gammas=[1, 3]):
        print(f"  {rep.kind:28s} N={rep.n:5d}  mu = {rep.mu_observed:.4f}"
              f"  margin = {rep.margin:.4f}")

    print()
    print("Fourier-basis coherence is exactly 1 for unimodular spectra:")
    for n in (64, 255):
        a = CirculantOperator.from_spectrum(fzc(n, 1))
        mu = mutual_coherence(a, Basis("inverse_fourier"))
        print(f"  fzc N={n:4d}: mu(A @ InverseFourier) = {mu:.12f}")

    print()
    print("Autocorrelation inequality on an untabulated family:")
    rep = autocorrelation_bound_check(legendre(103))
    print(f"  legendre N=103: mu = {rep.mu_observed:.6f} <= "
          f"{rep.bound:.6f} = {rep.bound_label}  ({rep.note})")


if __name__ == "__main__":
    main()
