"""Traced per-call times beside the ROADMAP baseline table.

    python3 perfbench/crosscheck.py

Each row runs a small traced job through the public API and reports the
median and quartiles of the matching span's duration, so the table in
ROADMAP.md ("Baseline") can be checked with the benchmark's own tracer.
Results and the explanation of rows that differ are in README.md.
"""

from __future__ import annotations

import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from convsense import harness, sequences  # noqa: E402
import tracing  # noqa: E402


def _phase(basis: str, solver: str, m: int, k: int, trials: int):
    cfg = harness.ExperimentConfig(
        experiment="phase", n=1024, m=m, k=k, sequence_kind="golay",
        basis=basis, solver=solver, trials=trials, master_seed=7,
        sampling_mode="random")
    return lambda: harness.run_phase_transition(cfg)


# (row label, ROADMAP value, span name, job)
ROWS = [
    ("forward identity N=1024", "45 us", "operators.forward",
     _phase("identity", "sp", 128, 4, 200)),
    ("forward inverse_fourier N=1024", "65 us", "operators.forward",
     _phase("inverse_fourier", "sp", 128, 4, 200)),
    ("forward inverse_dct2 N=1024", "120 us", "operators.forward",
     _phase("inverse_dct2", "sp", 128, 4, 200)),
    ("random_sampling N=1024 M=64", "0.21 ms", "operators.random_sampling",
     _phase("identity", "sp", 64, 6, 200)),
    ("random_sampling N=1024 M=512", "1.27 ms", "operators.random_sampling",
     _phase("identity", "sp", 512, 4, 200)),
    ("subspace_pursuit N=1024 M=64 K=6", "1.3 ms", "recovery.sp",
     _phase("identity", "sp", 64, 6, 200)),
    ("omp N=1024 M=64 K=6", "2.0 ms", "recovery.omp",
     _phase("identity", "omp", 64, 6, 200)),
    ("audit_gauss", "640 ms", "harness.audit_gauss",
     lambda: [harness.audit_gauss() for _ in range(5)]),
    ("audit_coherence_bounds", "79 ms", "harness.audit_coherence_bounds",
     lambda: [harness.audit_coherence_bounds() for _ in range(5)]),
    ("audit_papr", "82 ms", "harness.audit_papr",
     lambda: [harness.audit_papr() for _ in range(5)]),
    ("m_sequence(16)", "83 ms", "sequences.m_sequence",
     lambda: [sequences.m_sequence(16) for _ in range(10)]),
]


def _fmt(ms: float) -> str:
    return f"{ms * 1e3:.0f} us" if ms < 1.0 else f"{ms:.3g} ms"


def main() -> int:
    print("| row | ROADMAP | traced median | quartiles | calls |")
    print("|---|---|---|---|---|")
    for label, roadmap, span, job in ROWS:
        job()  # warm-up, untraced
        tracer = tracing.Tracer()
        with tracer.installed():
            job()
        ms = tracer.durations_ms(span)
        q1, med, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 \
            else (ms[0], ms[0], ms[0])
        print(f"| {label} | {roadmap} | {_fmt(med)} | "
              f"{_fmt(q1)} to {_fmt(q3)} | {len(ms)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
