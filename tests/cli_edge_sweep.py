"""Edge sweep for the convsense CLI: thousands of runs at the edges of
every flag, each expected to end cleanly.

    PYTHONPATH=src python3 tests/cli_edge_sweep.py

Every run goes through ``convsense.cli.main(argv)`` in this one process,
with stdout and stderr captured and ``warnings.simplefilter("error")``
in force, so a numpy overflow or any other warning surfaces as an
exception.  The grid: ``recover`` for every family, every N from 1 to
32, extreme (M, K) pairs, all three solvers and no noise or
``--snr-list=`` 0, -300 and 300 dB; then ``gen-seq``, ``coherence`` (at
every basis) and ``papr --seq`` for every family at every N from -1 to
33, admissible or not.  A run fails if it exits outside {0, 1, 2} or
raises anything ``main`` does not turn into an exit code, a warning
included.  The script prints the count of runs per exit code and one
line per failure, and exits 1 on any failure, else 0.  It takes under
a minute on one core.  The name keeps pytest from collecting it.
"""

from __future__ import annotations

import collections
import contextlib
import io
import sys
import traceback
import warnings

from convsense.cli import main as cli_main
from convsense.sequences import FAMILIES

SOLVERS = ("sp", "omp", "fista")
BASES = ("identity", "inverse_fourier", "inverse_dct2")
SNRS = (None, "0", "-300", "300")


def _edge_shapes(n: int):
    """(M, K) at the edges for length N: the smallest and largest M,
    K = 1 and K = M, and one M and one K past N."""
    return dict.fromkeys(((1, 1), (n, 1), (n, n), (n + 1, 1), (1, n + 1)))


def _runs():
    """The sweep: argv lists."""
    for kind in FAMILIES:
        for n in range(1, 33):
            for m, k in _edge_shapes(n):
                for solver in SOLVERS:
                    for snr in SNRS:
                        noise = () if snr is None else (f"--snr-list={snr}",)
                        yield ["recover", "--seq", kind, "--n", str(n),
                               "--m", str(m), "--k", str(k),
                               "--solver", solver, *noise]
    for kind in FAMILIES:
        for n in range(-1, 34):
            size = ("--seq", kind, "--n", str(n))
            yield ["gen-seq", *size]
            yield ["papr", *size]
            for basis in BASES:
                yield ["coherence", *size, "--basis", basis]


def _run(argv):
    """The exit code of one run, or the text of what escaped ``main``."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(argv)
        except SystemExit as exc:  # argparse refusing a flag value
            return exc.code
        except Exception:  # every escape, a warning included, is a finding
            return traceback.format_exc(limit=-1).strip().splitlines()[-1]


def main() -> int:
    codes = collections.Counter()
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in _runs():
            outcome = _run(argv)
            if outcome in (0, 1, 2):
                codes[outcome] += 1
            else:
                failures.append((argv, outcome))
    for argv, outcome in failures:
        print(f"FAILS: {' '.join(argv)}: {outcome}")
    total = sum(codes.values()) + len(failures)
    print(f"{total} runs: " + ", ".join(
        f"{codes[c]} exit {c}" for c in (0, 1, 2))
        + f", {len(failures)} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
