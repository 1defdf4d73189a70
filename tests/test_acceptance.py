"""Acceptance criteria: the checks this package must pass, with their
tolerances and runtime budgets.  Each test pins one criterion; budgets
are asserted with wall-clock measurements around the whole body."""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from convsense import sequences as seqs
from convsense.coherence import (coherence_circulant, bound_table_report,
                                 dct_coherence_report)
from convsense.harness import (ExperimentConfig, audit_gauss,
                               build_circulant, ofdm_reference_config,
                               papr, run_dct_experiment,
                               run_ofdm_experiment, run_phase_transition)
from convsense.operators import (Basis, CirculantOperator, SensingOperator,
                                 StackedOperator, random_sampling)


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s over {seconds}s budget"


# ---------------------------------------------------------------------------
# 1. coherence exactness: quadratic-phase spectra give mu(A) = 1
# ---------------------------------------------------------------------------

def test_01_fzc_coherence_exactly_one():
    with budget(1.0):
        for n in (64, 255, 256, 1024):
            for gamma in (1, 3, 5):
                if math.gcd(gamma, n) != 1:
                    continue
                a = CirculantOperator.from_spectrum(seqs.fzc(n, gamma))
                assert abs(coherence_circulant(a) - 1.0) <= 1e-10, \
                    (n, gamma)


# ---------------------------------------------------------------------------
# 2. coherence exactness: m-sequence spectra give mu(A) = sqrt((N+1)/N)
# ---------------------------------------------------------------------------

def test_02_m_sequence_coherence_value():
    with budget(1.0):
        for n in (7, 31, 127, 511):
            degree = (n + 1).bit_length() - 1
            a = CirculantOperator.from_spectrum(seqs.m_sequence(degree))
            want = math.sqrt((n + 1) / n)
            assert abs(coherence_circulant(a) - want) <= 1e-9, n


# ---------------------------------------------------------------------------
# 3. bound suite: every closed coherence bound holds
# ---------------------------------------------------------------------------

def test_03_bound_suite():
    with budget(30.0):
        sizes = {
            "golay": [20, 52, 104],
            "extended_polyphase": [100, 256, 101, 255],
            "extended_golay": [20, 52, 64, 21, 53, 65],
        }
        for rep in bound_table_report(sizes):
            assert not rep.skipped, (rep.kind, rep.n, rep.note)
            assert rep.passed, (rep.kind, rep.n, rep.mu_observed, rep.bound)
        for rep in dct_coherence_report([64, 256, 1024], gammas=1):
            assert rep.passed, (rep.n, rep.mu_observed)
            assert rep.bound == pytest.approx(6 * math.sqrt(2))


# ---------------------------------------------------------------------------
# 4. exponential-sum audit: closed forms, identities, bound sweeps
# ---------------------------------------------------------------------------

def test_04_gauss_sum_audit():
    with budget(60.0):
        res = audit_gauss(closed_form_max=4096, identity_max=256,
                          sweep_max=512)
        assert res.ok, res.failures
        # tolerances are baked into the audit: closed forms and both
        # identities at 1e-8*sqrt(N), sweeps against their closed bounds
        rows = res.csv.splitlines()[1:]
        kinds = {r.split(",")[0] for r in rows}
        assert {"gn_closed_form", "gn_reflection", "qn_split"} <= kinds
        # the full-size CSV is frozen: the digest the certify benchmark
        # holds for audit_gauss.csv
        assert hashlib.sha256(res.csv.encode()).hexdigest() == (
            "1e157a28b434ed021b3beb7a7a625ccc074e43e79223402c034751170e780c54")


# ---------------------------------------------------------------------------
# 5. operator equivalence: FFT forward vs Theta as a matrix of its columns
# ---------------------------------------------------------------------------

def test_05_fft_path_matches_dense():
    with budget(30.0):
        rng = np.random.default_rng(123)
        bases = ("identity", "inverse_fourier", "inverse_dct2")
        builders = (
            lambda n: seqs.fzc(n, 1),
            lambda n: seqs.extended_polyphase(n),
            lambda n: seqs.random_phase(n, 7),
        )
        for _ in range(50):
            n = int(rng.integers(16, 513))
            m = int(rng.integers(4, n + 1))
            circ = CirculantOperator.from_spectrum(
                builders[rng.integers(3)](n))
            theta = SensingOperator(
                circ, random_sampling(n, m, int(rng.integers(1 << 31))),
                Basis(bases[rng.integers(3)]))
            dense = StackedOperator.of([theta]).columns(
                np.arange(n)[None])[0]
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got, want = theta.forward(x), dense @ x
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        # adjoint identity <Theta f, y> = <f, Theta^* y>
        n, m = 256, 64
        theta = SensingOperator(
            CirculantOperator.from_spectrum(seqs.golay(n)),
            random_sampling(n, m, 0), Basis("inverse_fourier"))
        for _ in range(100):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            lhs = np.vdot(theta.forward(f), y)
            rhs = np.vdot(f, theta.adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# 6. filter equivalence: the perfect-binary filter acts as the scaled
#    m-sequence filter on zero-mean inputs
# ---------------------------------------------------------------------------

def test_06_scaled_filter_equivalence():
    with budget(10.0):
        for n in (63, 255):
            a = build_circulant("m_sequence_filter", n, {})
            b = build_circulant("perfect_binary_filter", n, {})
            scale = math.sqrt(n / (n + 1))
            rng = np.random.default_rng(n)
            for _ in range(100):
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x -= np.mean(x)
                lhs, rhs = b.apply(x), scale * a.apply(x)
                assert (np.linalg.norm(lhs - rhs)
                        <= 1e-9 * np.linalg.norm(rhs))


# ---------------------------------------------------------------------------
# 7. noiseless recovery succeeds equally in time and frequency domains
# ---------------------------------------------------------------------------

def test_07_noiseless_recovery_domain_parity():
    with budget(120.0):
        for kind in ("fzc", "golay"):
            cfg = ExperimentConfig(
                experiment="phase", n=256, m=64, k=5,
                sequence_kind=kind,
                sequence_params={"gamma": 1} if kind == "fzc" else {},
                solver="sp", trials=200, master_seed=0,
                extra={"k_grid": [5], "m_grid": [64],
                       "bases": ["identity", "inverse_fourier"]})
            cells = {c.basis: c.success_rate
                     for c in run_phase_transition(cfg).cells}
            assert cells["identity"] >= 0.95, (kind, cells)
            assert cells["inverse_fourier"] >= 0.95, (kind, cells)
            assert abs(cells["identity"]
                       - cells["inverse_fourier"]) <= 0.05, (kind, cells)


# ---------------------------------------------------------------------------
# 8. channel-estimation benchmark and peak-to-average power
# ---------------------------------------------------------------------------

def test_08_ofdm_benchmark_and_papr():
    with budget(600.0):
        targets = {0.0: 5.44, 10.0: 14.34, 20.0: 37.48, 30.0: 45.61}
        report = run_ofdm_experiment(ofdm_reference_config("proposed",
                                                           trials=500))
        for row in report.rows:
            want = targets[row.input_snr_db]
            assert abs(row.mean_output_snr_db - want) <= 3.0, \
                (row.input_snr_db, row.mean_output_snr_db, want)
        for n in (256, 512, 1024):
            assert papr(seqs.golay(n).values) == pytest.approx(2.0,
                                                               abs=0.01)
        random_min = min(papr(seqs.random_phase(1024, s).values)
                         for s in range(100))
        assert random_min >= 6.0


# ---------------------------------------------------------------------------
# 9. DCT-domain recovery beats the deterministic-sampling baseline
# ---------------------------------------------------------------------------

def test_09_dct_domain_recovery():
    with budget(180.0):
        cfg = ExperimentConfig(
            experiment="dct", n=512, m=128, k=8, sequence_kind="fzc",
            sequence_params={"gamma": 1}, basis="inverse_dct2",
            solver="sp", trials=200, master_seed=0)
        report = run_dct_experiment(cfg)
        proposed, baseline = report.rows
        assert proposed.scheme == "fzc+random"
        assert proposed.successes / proposed.trials >= 0.90
        assert baseline.successes < proposed.successes
        assert report.sign_test_p < 0.01


# ---------------------------------------------------------------------------
# 10. reproducibility: identical configs produce byte-identical CSV
# ---------------------------------------------------------------------------

def test_10_reproducibility():
    ofdm_cfg = ExperimentConfig(
        experiment="ofdm", n=256, m=48, k=6, sequence_kind="golay",
        solver="sp", snr_list=(10.0,), trials=5, master_seed=3,
        sampling_mode="random", extra={"real_taps": True})
    a, b = run_ofdm_experiment(ofdm_cfg), run_ofdm_experiment(ofdm_cfg)
    assert a.summary_csv() == b.summary_csv()
    assert a.trials_csv() == b.trials_csv()

    phase_cfg = ExperimentConfig(
        experiment="phase", n=64, m=24, k=3, sequence_kind="fzc",
        sequence_params={"gamma": 1}, solver="sp", trials=5,
        master_seed=1, extra={"k_grid": [3], "m_grid": [24],
                              "bases": ["identity"]})
    assert (run_phase_transition(phase_cfg).csv()
            == run_phase_transition(phase_cfg).csv())

    dct_cfg = ExperimentConfig(
        experiment="dct", n=128, m=48, k=6, sequence_kind="fzc",
        sequence_params={"gamma": 1}, basis="inverse_dct2", solver="sp",
        trials=5, master_seed=2)
    assert run_dct_experiment(dct_cfg).csv() \
        == run_dct_experiment(dct_cfg).csv()
