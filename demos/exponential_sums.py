"""Why incomplete quadratic exponential sums stay small.

The Golay/extended bounds in this package ultimately rest on partial
sums of e^{j*pi*k^2/N}-type terms never growing much past sqrt(N).
This demo makes that visible:

1. the complete sum collapses to a closed form that depends only on
   N mod 4;
2. a reflection identity folds the second half of the partial-sum
   range onto the first, halving what needs bounding;
3. normalized partial-sum magnitudes sweep well under their closed
   bounds, with N = 4k nearly touching sqrt(2) (that bound is tight).
"""

import math

import numpy as np

from convsense import (bound_check, complete_gauss_closed_form, gauss_sum,
                       gauss_sum_sweep, q_identity_residual,
                       reflection_identity_residual)


def main() -> None:
    print("Complete sums vs. closed form (branch chosen by N mod 4):")
    for n in (64, 81, 102, 127):
        direct = gauss_sum("gn", n, n)
        closed = complete_gauss_closed_form(n)
        print(f"  N={n:4d} (mod 4 = {n % 4})  direct = "
              f"{direct.real:+9.4f}{direct.imag:+9.4f}j   closed = "
              f"{closed.real:+9.4f}{closed.imag:+9.4f}j   "
              f"|diff| = {abs(direct - closed):.2e}")

    print()
    print("Identity residuals (should sit at machine precision):")
    n = 256
    worst_refl = reflection_identity_residual(n).max()
    worst_q = q_identity_residual(n).max()
    print(f"  reflection identity, N={n}: worst residual {worst_refl:.2e}")
    print(f"  quarter-phase split, N={n}: worst residual {worst_q:.2e}")

    print()
    print("Worst normalized partial sums |G(m)|/sqrt(N) by N mod 4:")
    print(f"  {'case':24s} {'N':>5s} {'worst m':>8s} {'observed':>9s} "
          f"{'bound':>8s}")
    for rec in bound_check("gn_normalized", [256, 257, 258, 259]):
        print(f"  {rec.case:24s} {rec.n:5d} {rec.worst_m:8d} "
              f"{rec.observed:9.4f} {rec.bound:8.4f}"
              + ("   (soft)" if not rec.hard else ""))

    print()
    print("How close N = 4k comes to its sqrt(2) bound as N grows:")
    for n in (64, 256, 1024, 4096):
        sweep = np.abs(gauss_sum_sweep("gn", n)) / math.sqrt(n)
        print(f"  N={n:5d}: max_m |G(m)|/sqrt(N) = {sweep.max():.6f} "
              f"(bound {math.sqrt(2):.6f})")


if __name__ == "__main__":
    main()
