"""Experiment harness: determinism, schemas, audits, PGM ingestion."""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from convsense import gauss_sums, harness, recovery
from convsense import sequences as seqs
from convsense.harness import (PAPR_OVERSAMPLE, ExperimentConfig,
                               OfdmReport, SnrRow, attc_channel, audit_gauss,
                               audit_papr, audit_papr_sequence,
                               audit_coherence_bounds, build_circulant,
                               ofdm_reference_config, papr, read_pgm,
                               run_dct_experiment, run_ofdm_experiment,
                               run_phase_transition, run_recover, trial_seed)
from convsense.operators import (Basis, SensingOperator, StackedOperator,
                                 random_sampling)


# ---------------------------------------------------------------------------
# seeds, hashes, channel, papr
# ---------------------------------------------------------------------------

def test_trial_seed_derivation():
    digest = hashlib.sha256(b"0:3").digest()
    assert trial_seed(0, 3) == int.from_bytes(digest[:8], "big")
    assert trial_seed(0, 3) != trial_seed(0, 4) != trial_seed(1, 3)


def test_config_refuses_counts_below_one():
    for field, value in (("n", 0), ("m", 0), ("k", 0), ("trials", 0),
                         ("trials", -2)):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            _small_ofdm_cfg(**{field: value})


@pytest.mark.parametrize("field, value, name", [("k", 257, "K"),
                                                ("m", 300, "M")])
def test_config_refuses_sizes_above_n(field, value, name):
    # K or M above N once surfaced as numpy's sampling message
    with pytest.raises(ValueError, match=f"require 1 <= {name} <= N, got "
                                         f"{name}={value}, N=256"):
        _small_ofdm_cfg(**{field: value})
    assert getattr(_small_ofdm_cfg(**{field: 256}), field) == 256


@pytest.mark.parametrize("field, value", [
    ("n", 256.0), ("m", 16.5), ("k", 6.0), ("trials", 2.5),
    ("master_seed", 1.5), ("master_seed", "0")])
def test_config_refuses_non_integer_sizes_by_name(field, value):
    # m=16.5 once hashed as "m":16, then failed inside the sampling draw
    with pytest.raises(TypeError, match=f"^{field} must be an integer, "
                                        f"got {value!r}$"):
        _small_ofdm_cfg(**{field: value})
    assert _small_ofdm_cfg(**{field: np.int64(int(value))}).config_hash()


@pytest.mark.parametrize("extra, name", [
    ({"k_grid": [2.5]}, "k_grid entry"),
    ({"k_grid": [2], "m_grid": [16, 16.9]}, "m_grid entry")])
def test_config_refuses_non_integer_grid_entries_by_name(extra, name):
    # this grid once ran, its cells labelled K=2 and M=16
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        ExperimentConfig(experiment="phase", n=64, m=16, k=2,
                         sequence_kind="golay", trials=2, extra=extra)


@pytest.mark.parametrize("over", [
    {"basis": "nope"},
    {"experiment": "phase", "extra": {"bases": ["identity", "nope"]}}],
    ids=["basis", "bases"])
def test_config_refuses_an_unknown_basis_by_name(over):
    # both once built a config and hashed it; the run refused it later
    with pytest.raises(ValueError, match="unknown basis 'nope'"):
        _small_ofdm_cfg(**over)


@pytest.mark.parametrize("snr", [float("nan"), float("inf"), -float("inf")])
def test_config_refuses_non_finite_snrs(snr):
    # inf labels the noiseless row; as an input it skipped the noiseless
    # gate, and NaN failed only inside the solve
    with pytest.raises(ValueError, match=f"snr_list entries must be finite "
                                         f"dB, got {snr:g}"):
        _small_ofdm_cfg(snr_list=(10.0, snr))
    assert _small_ofdm_cfg(snr_list=(None, 10.0)).snr_list == (None, 10.0)


def test_config_hash_is_canonical_json_sha256():
    cfg = ExperimentConfig(experiment="ofdm", n=64, m=16, k=2,
                           sequence_kind="golay")
    payload = json.loads(cfg.canonical_json())
    again = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert cfg.canonical_json() == again
    assert cfg.config_hash() == hashlib.sha256(again.encode()).hexdigest()
    # any field change moves the hash
    other = dataclasses.replace(cfg, m=17)
    assert other.config_hash() != cfg.config_hash()


def test_attc_channel_taps():
    h = attc_channel(1024)
    assert h.shape == (1024,)
    assert list(h.nonzero()[0]) == [0, 2, 17, 36, 75, 137]
    assert list(harness._ATTC_DELAYS) == [0, 2, 17, 36, 75, 137]
    assert h[0] == pytest.approx(1.0)
    assert h[2] == pytest.approx(0.3162)
    assert np.count_nonzero(h) == 6
    with pytest.raises(ValueError):
        attc_channel(100)  # delay spread exceeds N


def test_papr_matches_direct_evaluation():
    sigma = seqs.golay(8).values
    assert papr(sigma) == pytest.approx(
        oracles.papr_direct(sigma, PAPR_OVERSAMPLE), rel=1e-9)
    rng_sigma = seqs.random_phase(12, 0).values
    assert papr(rng_sigma) == pytest.approx(
        oracles.papr_direct(rng_sigma, PAPR_OVERSAMPLE), rel=1e-9)


def test_papr_all_ones_is_n():
    # a flat spectrum concentrates all power in one time sample
    assert papr(np.ones(16)) == pytest.approx(16.0, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, 1.5])
def test_papr_refuses_a_value_off_the_unit_circle(bad):
    # NaN too: max| |v| - 1 | is NaN there, which no tolerance admits
    with pytest.raises(ValueError, match="unimodular/bipolar input"):
        papr([bad, 1, 1, 1])


def test_build_circulant_kinds():
    for kind, n in [("fzc", 16), ("golay", 20), ("extended_golay", 21),
                    ("extended_polyphase", 15), ("legendre", 31),
                    ("m_sequence", 31), ("m_sequence_filter", 31),
                    ("perfect_binary_filter", 31)]:
        a = build_circulant(kind, n, {})
        assert a.n == n
    rng = np.random.default_rng(0)
    r = build_circulant("random_phase", 16, {}, rng)
    assert np.max(np.abs(np.abs(r.spectrum) - 1.0)) <= 1e-12
    with pytest.raises(ValueError):
        build_circulant("random_phase", 16, {})  # needs a Generator
    with pytest.raises(ValueError):
        build_circulant("nope", 16, {})


def test_build_circulant_refuses_a_key_no_family_reads():
    # unread keys are refused by name, the first in sorted order
    with pytest.raises(ValueError, match="params key 'bogus' is not read"):
        build_circulant("golay", 64, {"gamma": 7, "bogus": 1})
    with pytest.raises(ValueError, match="params key 'gama' is not read"):
        build_circulant("fzc", 64, {"gama": 3})


@pytest.mark.parametrize("kind, params, key", [
    ("golay", {"gamma": 7}, "gamma"),
    ("fzc", {"gamma": 3, "seed": 9}, "seed"),
    ("random_phase", {"gamma": 3}, "gamma"),
])
def test_build_circulant_refuses_a_key_its_family_does_not_read(
        kind, params, key):
    # a key another family reads is refused too: a build reads only its
    # own family's keys, and a seed only with no Generator
    with pytest.raises(ValueError, match=f"params key '{key}' is not read"):
        build_circulant(kind, 64, params, np.random.default_rng(0))


@pytest.mark.parametrize("kind, params, key", [
    ("golay", {"seed": 1}, "seed"),
    ("fzc", {"gamma": 3, "seed": 9}, "seed"),
    ("random_phase", {"seed": 1, "gamma": 3}, "gamma"),
])
def test_audit_papr_sequence_refuses_a_param_its_family_does_not_read(
        kind, params, key):
    # the row's label names every param it is given
    with pytest.raises(ValueError, match=f"params key '{key}' is not read"):
        audit_papr_sequence(kind, 64, params)


def test_papr_rows_are_labelled_with_the_family_defaults():
    # fzc's root defaults to 1 in the registry, and the label says so
    assert audit_papr_sequence("fzc", 64, {}).csv.splitlines()[1] \
        .startswith("fzc(gamma=1),64,")


# ---------------------------------------------------------------------------
# OFDM experiment
# ---------------------------------------------------------------------------

def _small_ofdm_cfg(**over):
    base = dict(experiment="ofdm", n=256, m=48, k=6,
                sequence_kind="golay", solver="sp",
                snr_list=(10.0, 30.0), trials=8, master_seed=0,
                sampling_mode="random", extra={"real_taps": True})
    base.update(over)
    return ExperimentConfig(**base)


def test_ofdm_reports_are_byte_identical_across_reruns():
    cfg = _small_ofdm_cfg()
    a, b = run_ofdm_experiment(cfg), run_ofdm_experiment(cfg)
    assert a.summary_csv() == b.summary_csv()
    assert a.trials_csv() == b.trials_csv()


def test_ofdm_summary_schema():
    report = run_ofdm_experiment(_small_ofdm_cfg())
    lines = report.summary_csv().splitlines()
    assert lines[0] == ("config_hash,sequence_kind,sampling_mode,"
                        "input_snr_db,mean_output_snr_db,se_output_snr_db,"
                        "support_exact_rate,mean_iterations,trials")
    assert len(lines) == 3  # two SNR rows
    first = lines[1].split(",")
    assert first[0] == report.config.config_hash()
    assert first[1] == "golay" and first[2] == "random"
    tlines = report.trials_csv().splitlines()
    assert tlines[0] == ("config_hash,input_snr_db,trial,seed,"
                         "output_snr_db,support_exact,iterations")
    assert len(tlines) == 1 + 2 * 8


def test_ofdm_noiseless_runs_and_caps():
    cfg = _small_ofdm_cfg(snr_list=())
    report = run_ofdm_experiment(cfg)
    row = report.rows[0]
    assert row.input_snr_db == float("inf")
    # exact-support recovery leaves only solver roundoff
    assert 200.0 <= row.mean_output_snr_db <= 300.0
    assert "inf" in report.summary_csv()
    # literally zero error engages the 300 dB cap instead of inf
    from convsense.harness import _output_snr_db
    x = np.ones(4, dtype=np.complex128)
    assert _output_snr_db(x, x) == 300.0


def test_ofdm_output_improves_with_input():
    report = run_ofdm_experiment(_small_ofdm_cfg(trials=20))
    snrs = [r.mean_output_snr_db for r in report.rows]
    assert snrs[1] > snrs[0] + 10  # 30 dB input beats 10 dB by >10 dB


def test_ofdm_baseline_scheme_runs():
    cfg = _small_ofdm_cfg(sequence_kind="random_phase",
                          sampling_mode="equispaced", trials=5)
    report = run_ofdm_experiment(cfg)
    assert len(report.records) == 2 * 5


def test_ofdm_reference_config_shape():
    cfg = ofdm_reference_config("proposed", trials=10)
    assert (cfg.n, cfg.m, cfg.k) == (1024, 64, 6)
    assert cfg.sequence_kind == "golay" and cfg.sampling_mode == "random"
    base = ofdm_reference_config("baseline", trials=10)
    assert base.sequence_kind == "random_phase"
    assert base.sampling_mode == "equispaced"
    with pytest.raises(ValueError):
        ofdm_reference_config("nope")


@pytest.mark.parametrize("solver, snrs", [("sp", (None, 10.0, 30.0)),
                                          ("omp", (None, 10.0, 30.0)),
                                          ("fista", (10.0,))])
@pytest.mark.parametrize("kind, sampling", [("golay", "random"),
                                            ("random_phase", "equispaced")])
def test_ofdm_blocks_equal_a_per_trial_replay(kind, sampling, solver, snrs,
                                              monkeypatch):
    # a block is the trials whose SNR rows fill _OFDM_BLOCK_PROBLEMS, all
    # rows solved in one _solve; with 3 more trials the last block is
    # short, and each record must still be its trial replayed alone, with
    # its own draw, noise and a one-problem solve (FISTA at a large
    # lambda, which it solves in few iterations)
    per_block = max(1, harness._OFDM_BLOCK_PROBLEMS // len(snrs))
    cfg = _small_ofdm_cfg(sequence_kind=kind, sampling_mode=sampling,
                          solver=solver, snr_list=snrs,
                          solver_params={"lam_rel": 0.05}
                          if solver == "fista" else {},
                          trials=per_block + 3)
    sizes = []
    solve = harness._solve

    def counted(cfg, stack, ys, k=None):
        sizes.append(len(stack))
        return solve(cfg, stack, ys, k)

    monkeypatch.setattr(harness, "_solve", counted)
    report = run_ofdm_experiment(cfg)
    assert sizes == [per_block * len(snrs), 3 * len(snrs)]
    assert [rec.index for rec in report.records] == \
        list(range(cfg.trials)) * len(snrs)
    x = attc_channel(cfg.n)
    taps = x.nonzero()[0]
    draw = harness._operator_draw(cfg)
    for rec in report.records:
        rng = np.random.default_rng(rec.seed)
        theta = draw(rng)
        y = theta.forward(x)
        if rec.input_snr_db != np.inf:
            y = harness._add_noise(y, harness._noise(rng, cfg.m),
                                   rec.input_snr_db)
        result, = solve(cfg, StackedOperator.of([theta]), y[None],
                        taps.size)
        assert (rec.output_snr_db, rec.support_exact, rec.iterations) == (
            harness._output_snr_db(x, result.f_hat),
            np.array_equal(result.support, taps),
            result.iterations)
        assert rec.wall_time > 0


@pytest.mark.parametrize("solver", ["sp", "omp", "fista"])
def test_solve_stacks_its_block_once(solver, monkeypatch):
    # each block is stacked once, by its runner, which runs its one
    # forward on that stack, and _solve builds no stack: a 25-trial
    # reference call makes one StackedOperator.of per block (six of 4
    # trials, then one of 1), and each block's solve runs on its trials'
    # stack, one member per SNR row, sharing its spectra.  run_recover
    # makes one of in all and solves on it repeated per SNR row; the DCT
    # experiment makes one two-member of per trial, (proposed, baseline),
    # and the phase grid one of per trial, each solved as it is
    built, forwarded, solved = [], [], []
    of, forward = StackedOperator.of.__func__, StackedOperator.forward
    solve = harness._solve

    def counted_of(cls, members):
        built.append(of(cls, members))
        return built[-1]

    def spied_forward(self, f):
        forwarded.append(self)
        return forward(self, f)

    def spied_solve(cfg, stack, ys, k=None):
        before = len(built)
        results = solve(cfg, stack, ys, k)
        solved.append((stack, len(built) - before))
        return results

    def check(run, cfg, sizes, rows_per_member=1):
        """run(cfg) stacks blocks of ``sizes`` members, forwards each
        once, and solves each with its members repeated per row."""
        for log in (built, forwarded, solved):
            log.clear()
        run(cfg)
        assert [len(stack) for stack in built] == sizes
        assert [made for _, made in solved] == [0] * len(sizes)
        for trials, (stack, _) in zip(built, solved):
            assert sum(f is trials for f in forwarded) == 1
            assert stack.spectra is trials.spectra
            assert np.array_equal(stack.rows, np.repeat(
                trials.rows, rows_per_member, axis=0))

    # FISTA at a lambda it solves in one plain stage of few iterations
    params = {"lam_rel": 0.5} if solver == "fista" else {}
    cfg = dataclasses.replace(ofdm_reference_config("proposed", trials=25),
                              solver=solver, solver_params=params)
    monkeypatch.setattr(StackedOperator, "of", classmethod(counted_of))
    monkeypatch.setattr(StackedOperator, "forward", spied_forward)
    monkeypatch.setattr(harness, "_solve", spied_solve)
    check(run_ofdm_experiment, cfg, [4] * 6 + [1], rows_per_member=4)
    assert [(len(stack), made) for stack, made in solved] == \
        [(16, 0)] * 6 + [(4, 0)]
    for snrs in ((), (0.0, 10.0, 30.0)):
        check(run_recover, ExperimentConfig(
            experiment="recover", n=64, m=32, k=3, sequence_kind="golay",
            solver=solver, solver_params=params, snr_list=snrs), [1],
            rows_per_member=len(snrs) or 1)
    check(run_dct_experiment, ExperimentConfig(
        experiment="dct", n=64, m=32, k=3, sequence_kind="fzc",
        basis="inverse_dct2", solver=solver, solver_params=params,
        trials=3), [2] * 3)
    check(run_phase_transition, ExperimentConfig(
        experiment="phase", n=64, m=16, k=2, sequence_kind="golay",
        solver=solver, solver_params=params, trials=2,
        extra={"bases": ["identity", "inverse_dct2"], "m_grid": [16, 32]}),
        [1] * 8)


@pytest.mark.parametrize("solver", ["sp", "omp", "fista"])
def test_runners_apply_theta_only_through_their_stacks(solver, tmp_path,
                                                       monkeypatch):
    # every runner measures and solves on the stacks it builds: with the
    # vector methods of SensingOperator refusing to run, each report is
    # unchanged
    path = str(tmp_path / "img.pgm")
    _write_pgm(path, "P5", np.arange(0, 256, 4).reshape(8, 8))
    params = {"solver": solver,
              "solver_params": {"lam_rel": 0.05} if solver == "fista"
              else {}}
    dct = dict(experiment="dct", n=64, m=32, k=4, sequence_kind="fzc",
               basis="inverse_dct2", trials=3, **params)
    runs = [
        (run_phase_transition, ExperimentConfig(
            experiment="phase", n=64, m=16, k=2, sequence_kind="golay",
            trials=2, extra={"bases": ["identity", "inverse_fourier",
                                       "inverse_dct2"]}, **params)),
        (run_recover, ExperimentConfig(
            experiment="recover", n=64, m=32, k=3, sequence_kind="golay",
            **params)),
        (run_recover, ExperimentConfig(
            experiment="recover", n=64, m=32, k=3, sequence_kind="golay",
            snr_list=(0.0, 20.0), **params)),
        (run_dct_experiment, ExperimentConfig(**dct)),
        (run_dct_experiment, ExperimentConfig(**dct, extra={"image": path})),
        (run_ofdm_experiment, _small_ofdm_cfg(trials=5, **params)),
    ]
    wants = [run(cfg) for run, cfg in runs]

    def refused(*args):
        raise AssertionError("a runner called a SensingOperator method")
    for name in ("forward", "adjoint", "forward_batch"):
        monkeypatch.setattr(SensingOperator, name, refused)
    for (run, cfg), want in zip(runs, wants):
        got = run(cfg)
        if run is run_recover:
            assert got == want
        else:
            assert _report_bytes(got) == _report_bytes(want)


def _report_bytes(report) -> str:
    """Every CSV a runner's report writes."""
    if isinstance(report, OfdmReport):
        return report.summary_csv() + report.trials_csv()
    return report.csv()


@pytest.mark.parametrize("scheme", ["proposed", "baseline"])
def test_ofdm_reference_call_peaks_within_one_block(scheme):
    # what a block keeps alive is a 16-problem SP block, whose (16, 1024)
    # complex buffers are 256 KiB each, and its stacked refit; blocks of
    # 20 problems (1.86 MiB) or of 8 trials per SNR row (1.93 MiB) fail,
    # so a larger block shows its memory cost here
    cfg = ofdm_reference_config(scheme, trials=25)
    run_ofdm_experiment(cfg)
    tracemalloc.start()
    try:
        run_ofdm_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 2 ** 20


def test_ofdm_real_tap_refit_beats_complex_fit():
    # the channel taps are real, so the real-constrained refit must not
    # lose to the plain complex fit on average
    noisy = dict(snr_list=(10.0,), trials=30)
    with_refit = run_ofdm_experiment(_small_ofdm_cfg(**noisy))
    plain = run_ofdm_experiment(_small_ofdm_cfg(extra={}, **noisy))
    assert (with_refit.rows[0].mean_output_snr_db
            >= plain.rows[0].mean_output_snr_db)


def test_ofdm_high_snr_rows_equal_the_oracle_refit():
    # why the 20 and 30 dB reference rows pass: SP finds the true support
    # in every trial, so each estimate is the real-coefficient least
    # squares on the true taps, which no solver change can beat
    cfg = ofdm_reference_config("proposed", trials=40, master_seed=0)
    report = run_ofdm_experiment(cfg)
    for row in report.rows[2:]:
        assert row.input_snr_db in (20.0, 30.0)
        assert row.support_exact_rate == 1.0
    x = attc_channel(cfg.n)
    taps = x.nonzero()[0]
    draw = harness._operator_draw(cfg)
    tap_cols = {}  # a trial draws the same Theta at every SNR
    checked = 0
    for rec in report.records:
        if rec.input_snr_db < 20.0:
            continue
        rng = np.random.default_rng(rec.seed)
        theta = draw(rng)
        y0 = theta.forward(x)
        y = harness._add_noise(y0, harness._noise(rng, y0.size),
                               rec.input_snr_db)
        if rec.index not in tap_cols:
            tap_cols[rec.index] = \
                StackedOperator.of([theta]).columns(taps[None])[0]
        cols = tap_cols[rec.index]
        coef, *_ = np.linalg.lstsq(np.vstack([cols.real, cols.imag]),
                                   np.concatenate([y.real, y.imag]),
                                   rcond=None)
        oracle = np.zeros(cfg.n, dtype=np.complex128)
        oracle[taps] = coef
        assert abs(rec.output_snr_db
                   - harness._output_snr_db(x, oracle)) <= 1e-7
        checked += 1
    assert checked == 2 * 40


# sha256 of the reference-config CSVs at trials=25, master_seed=0; the
# same bytes are pinned as round 0 of the benchmark's ofdm_ref workload
_OFDM_REFERENCE_SHA256 = {
    "proposed": (
        "7f4bf0710679f47a22d297d80036b96ce3dfce6ac2ebccec1ae4641686cb0dd4",
        "444b91b47eadc6b05f16308f43e8c93b6c23c85c437a75739440febdd836a453"),
    "baseline": (
        "2ece21049a98d30d6f4fe21442abdcdba364ff64c248d477cbd5d03b8de56747",
        "05880033d80d14131fba044feb50890c9bd241dab9778febdca7bbc5950b1ecf"),
}


@pytest.mark.parametrize("scheme", sorted(_OFDM_REFERENCE_SHA256))
def test_ofdm_reference_csv_bytes_pinned(scheme):
    rep = run_ofdm_experiment(
        ofdm_reference_config(scheme, trials=25, master_seed=0))
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (rep.summary_csv(), rep.trials_csv()))
    assert got == _OFDM_REFERENCE_SHA256[scheme]


def _without_columns(csv_text, names):
    rows = [line.split(",") for line in csv_text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in names]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


def test_ofdm_fista_real_tap_csv_bytes_pinned():
    # FISTA keeps its top K = 6 LASSO atoms and refits them once over
    # real coefficients; summary and trials CSV sha256, in full and with
    # the iteration columns removed, so a change to FISTA's schedule
    # that moves only its iteration counts shows as such
    rep = run_ofdm_experiment(_small_ofdm_cfg(solver="fista", trials=3))
    texts = (rep.summary_csv(), rep.trials_csv())
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert got == (
        "1c1c922dfadec1e4df7a428f2490dbad1dbbf4f0c7638488de28100997d5b79d",
        "10757fa9b751b1a06426f5a90bbb3caddb029a2bd9129632f3bde299343c0bee")
    stripped = tuple(
        hashlib.sha256(_without_columns(
            text, ("mean_iterations", "iterations")).encode()).hexdigest()
        for text in texts)
    assert stripped == (
        "9b4d3bae3bbeb6cdf7df305c4f7d8330c9af7d1ec41ac0c13d4950ed6f74cf6f",
        "f75996054d422552e3aadf0f553e67ed33967503df5fc0da4046b4fbc838a767")


def test_solve_refuses_an_unknown_solver_by_name():
    with pytest.raises(ValueError, match=r"unknown solver 'cosamp'; expected "
                                         r"one of \['fista', 'omp', 'sp'\]"):
        harness._solve(_small_ofdm_cfg(solver="cosamp"), [])


def test_operator_draw_refuses_an_unknown_sampling_mode_by_name():
    with pytest.raises(ValueError, match="unknown sampling mode 'uniform'"):
        harness._operator_draw(_small_ofdm_cfg(sampling_mode="uniform"))


def test_recover_fails_a_noiseless_run_that_misses():
    # OMP at M = 2K misses this Golay draw: the noiseless row fails the
    # success test, so the run's verdict is a failure
    cfg = ExperimentConfig(experiment="recover", n=64, m=8, k=4,
                           sequence_kind="golay", solver="omp")
    csv_text, ok = run_recover(cfg)
    assert ok is False
    assert csv_text.splitlines()[1].startswith("inf,omp,1.55086124879,false,")


def test_solve_keeps_the_top_k_atoms_of_a_larger_greedy_estimate():
    # OFDM solves with K = 8 but keeps at most the channel's 6 taps:
    # the six largest subspace-pursuit atoms, refit by least squares
    rng = np.random.default_rng(4)
    cfg = ExperimentConfig(experiment="ofdm", n=128, m=40, k=8,
                           sequence_kind="golay", solver="sp")
    theta = harness._operator_draw(cfg)(rng)
    f, _ = harness._sparse_signal(rng, 128, 8)
    y0 = theta.forward(f)
    y = harness._add_noise(y0, harness._noise(rng, y0.size), 20.0)
    sp = recovery.subspace_pursuit(recovery.RecoveryProblem(theta, y, k=8))
    stack = StackedOperator.of([theta])
    result, = harness._solve(cfg, stack, y[None], 6)
    support = np.sort(np.argsort(-np.abs(sp.f_hat), kind="stable")[:6])
    assert np.array_equal(result.support, support)
    expected = oracles.least_squares_on_support(
        stack.columns(np.arange(theta.n)[None])[0], y, support)
    assert np.allclose(result.f_hat, expected, rtol=0, atol=1e-9)
    # keeping all K atoms, the greedy estimate stands as it is
    assert np.array_equal(harness._solve(cfg, stack, y[None])[0].f_hat,
                          sp.f_hat)


# ---------------------------------------------------------------------------
# phase transitions
# ---------------------------------------------------------------------------

def test_recovered_means_relative_error_at_most_1e_4():
    # the documented success test of every noiseless run: a relative error
    # of 5e-5 is a recovery and one of 2e-4 is not, at any scale of f
    f, _ = harness._sparse_signal(np.random.default_rng(2), 256, 8)
    e = np.random.default_rng(3).standard_normal(256) + 0j
    for scale in (1e-3, 1.0, 1e3):
        for rel, want in ((5e-5, True), (2e-4, False)):
            f_hat = scale * (f + e * (rel * np.linalg.norm(f)
                                      / np.linalg.norm(e)))
            assert harness._recovered(scale * f, f_hat) is want, (scale, rel)


def test_phase_grid_and_infeasible_cells():
    cfg = ExperimentConfig(
        experiment="phase", n=64, m=16, k=2, sequence_kind="golay",
        solver="sp", trials=6, master_seed=0,
        extra={"k_grid": [2, 12], "m_grid": [16, 40],
               "bases": ["identity"]})
    report = run_phase_transition(cfg)
    cells = {(c.k, c.m): c for c in report.cells}
    assert len(cells) == 4
    assert cells[(2, 16)].success_rate == 1.0
    assert cells[(12, 16)].success_rate == 0.0  # infeasible: 2K > M
    assert cells[(12, 40)].success_rate >= 0.5
    lines = report.csv().splitlines()
    assert lines[0] == ("config_hash,sequence_kind,basis,k,m,trials,"
                        "successes,success_rate")
    assert report.csv() == run_phase_transition(cfg).csv()


def test_phase_infeasible_cells_skip_the_solver(monkeypatch):
    # OMP needs K <= M and SP 2K <= M; past that a cell scores zero
    # without solving, at the boundary it is solved
    for solver, k_grid, feasible in (("sp", [8, 9], 8), ("omp", [16, 17], 16)):
        calls = []
        real = recovery.SOLVERS[solver]

        def counted(p, real=real):
            calls.append(p.k)
            return real(p)

        monkeypatch.setitem(recovery.SOLVERS, solver, counted)
        cfg = ExperimentConfig(
            experiment="phase", n=64, m=16, k=2, sequence_kind="golay",
            solver=solver, trials=3, master_seed=0,
            extra={"k_grid": k_grid, "m_grid": [16], "bases": ["identity"]})
        rows = run_phase_transition(cfg).csv().splitlines()[1:]
        assert calls == [feasible] * 3
        assert rows[1] == (f"{cfg.config_hash()},golay,identity,"
                           f"{k_grid[1]},16,3,0,0")


@pytest.mark.parametrize("solver", ["omp", "sp"])
def test_greedy_row_needs_are_one_table(monkeypatch, solver):
    # raise a solver's rows per atom in recovery's table: the solver then
    # refuses a shape it took, and the phase grid skips that cell unsolved
    monkeypatch.setitem(recovery.ROWS_PER_ATOM, solver, 4)
    k, m = 5, 16  # 2K <= M < 4K
    theta = SensingOperator(build_circulant("golay", 64, {}),
                            random_sampling(64, m, 0), Basis("identity"))
    with pytest.raises(ValueError, match=f"K={k}"):
        recovery.SOLVERS[solver](
            recovery.RecoveryProblem(theta, np.ones(m), k=k))

    def unreachable(p):
        raise AssertionError("an infeasible cell was solved")

    monkeypatch.setitem(recovery.SOLVERS, solver, unreachable)
    cfg = ExperimentConfig(experiment="phase", n=64, m=m, k=k,
                           sequence_kind="golay", solver=solver, trials=2)
    assert run_phase_transition(cfg).cells[0].successes == 0


def test_phase_solver_errors_propagate(monkeypatch):
    def broken(p):
        raise ValueError("solver bug")

    monkeypatch.setitem(recovery.SOLVERS, "sp", broken)
    cfg = ExperimentConfig(
        experiment="phase", n=64, m=16, k=2, sequence_kind="golay",
        solver="sp", trials=2, master_seed=0)
    with pytest.raises(ValueError, match="solver bug"):
        run_phase_transition(cfg)


def test_phase_grid_is_checked_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setitem(recovery.SOLVERS, "sp", calls.append)
    base = dict(experiment="phase", n=64, m=16, k=2, sequence_kind="golay",
                solver="sp", trials=2)
    for grid, message in (({"bases": ["identity", "nope"]}, "nope"),
                          ({"m_grid": [16, 128]}, "M=128"),
                          ({"k_grid": [2, 65]}, "K=65")):
        with pytest.raises(ValueError, match=message):
            run_phase_transition(ExperimentConfig(**base, extra=grid))
    assert calls == []


# sha256 of phase-grid CSVs: a random-phase cell (spectrum drawn per
# trial) and a Golay grid with one equispaced set per M
_PHASE_SHA256 = {
    "random_phase": (
        "3ba6e24d0b429f8e2b09b8b988fe813ba67b88b1a7d9bd9840533938e84c75e7"),
    "golay_equispaced": (
        "f0e0e3ee384e9e488dd7bf6a58091c9a8415204273c801405414fbaaece26271"),
}


@pytest.mark.parametrize("case", sorted(_PHASE_SHA256))
def test_phase_csv_bytes_pinned(case):
    if case == "random_phase":
        cfg = ExperimentConfig(
            experiment="phase", n=128, m=24, k=8,
            sequence_kind="random_phase", solver="sp", trials=12,
            master_seed=5)
    else:
        cfg = ExperimentConfig(
            experiment="phase", n=128, m=32, k=4, sequence_kind="golay",
            solver="omp", trials=10, master_seed=1,
            sampling_mode="equispaced",
            extra={"k_grid": [2, 4], "m_grid": [32, 64],
                   "bases": ["identity", "inverse_dct2"]})
    csv = run_phase_transition(cfg).csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == _PHASE_SHA256[case]


@pytest.mark.parametrize("field, mapping", [
    ("extra", {"zero_mean": True}),   # a retired phase-grid mode
    ("extra", {"k-grid": [2]}),       # a misspelt grid key
    ("solver_params", {"lam": 1.0}),  # FISTA reads lam_rel
    ("sequence_params", {"gamma": 7}),  # only fzc reads gamma
    ("sequence_params", {"zzz": 1}),
], ids=["zero_mean", "k-grid", "lam", "gamma", "zzz"])
def test_config_refuses_keys_that_nothing_reads(field, mapping):
    # an unread key would change only the config hash, not the run
    key, = mapping
    with pytest.raises(ValueError, match=f"{field} key '{key}'"):
        ExperimentConfig(experiment="phase", n=63, m=32, k=3,
                         sequence_kind="m_sequence_filter",
                         **{field: mapping})


def test_config_takes_the_sequence_params_its_family_reads():
    # fzc reads gamma; an unknown family is refused at construction
    ExperimentConfig(experiment="phase", n=63, m=32, k=3,
                     sequence_kind="fzc", sequence_params={"gamma": 2})
    with pytest.raises(ValueError, match="unknown sequence kind 'nope'"):
        ExperimentConfig(experiment="phase", n=63, m=32, k=3,
                         sequence_kind="nope")


@pytest.mark.parametrize("experiment, extra, key", [
    ("ofdm", {"real_taps": True, "k_grid": [2], "image": "none.pgm"},
     "k_grid"),
    ("ofdm", {"real_taps": True, "image": "none.pgm"}, "image"),
    ("dct", {"m_grid": [16]}, "m_grid"),
    ("recover", {"bases": ["identity"]}, "bases"),
    ("phase", {"image": "none.pgm"}, "image"),
], ids=["ofdm-k_grid", "ofdm-image", "dct-m_grid", "recover-bases",
        "phase-image"])
def test_config_refuses_keys_its_experiment_does_not_read(experiment, extra,
                                                          key):
    # a key another experiment reads would change only this run's hash
    with pytest.raises(ValueError, match=f"extra key '{key}' is read only "
                                         f"by the '.+' experiment, not "
                                         f"'{experiment}'"):
        ExperimentConfig(experiment=experiment, n=256, m=32, k=6,
                         sequence_kind="golay", extra=extra)


@pytest.mark.parametrize("solver", ["sp", "omp"],
                         ids=lambda solver: f"lam_rel-{solver}")
def test_config_refuses_solver_params_its_solver_does_not_read(solver):
    # only FISTA reads lam_rel; under a greedy solver it would change only
    # the config hash
    with pytest.raises(ValueError, match=f"solver_params key 'lam_rel' is "
                                         f"read only by the 'fista' solver, "
                                         f"not '{solver}'"):
        ExperimentConfig(experiment="dct", n=128, m=32, k=4,
                         sequence_kind="fzc", basis="inverse_dct2",
                         solver=solver, solver_params={"lam_rel": 0.5})


_RUNNERS = {"ofdm": run_ofdm_experiment, "phase": run_phase_transition,
            "dct": run_dct_experiment, "recover": run_recover}


@pytest.mark.parametrize("runner, label", [
    (runner, label) for runner in _RUNNERS
    for label in ("ofdm", "phase", "dct", "recover") if label != runner])
def test_runners_refuse_a_config_labelled_for_another_experiment(runner,
                                                                  label):
    # the config hash would name an experiment that is not what ran
    cfg = ExperimentConfig(experiment=label, n=64, m=16, k=2,
                           sequence_kind="golay", basis="inverse_dct2",
                           trials=2)
    with pytest.raises(ValueError, match=f"the '{runner}' experiment "
                                         f"refuses a config labelled for "
                                         f"the '{label}' experiment"):
        _RUNNERS[runner](cfg)


def test_reference_violations_keep_the_band_of_the_scheme_table():
    cfg = ofdm_reference_config("baseline", trials=1)

    def row(snr, mean):
        return SnrRow(snr, mean, 0.0, 1.0, 1.0, 1)
    # 0 dB is 3.01 below its 5.32, 10 dB exactly 3 above its 13.98, 5 dB
    # is not in the table, and a NaN mean is out of every band
    report = OfdmReport(cfg, (row(0.0, 2.31), row(10.0, 16.98),
                              row(5.0, 99.0), row(30.0, np.nan)), ())
    assert report.config.scheme == "random_phase+equispaced"
    assert report.reference_violations() == [
        "random_phase+equispaced @ 0 dB: 2.31 vs 5.32 (diff -3.01)",
        "random_phase+equispaced @ 30 dB: nan vs 45.22 (diff +nan)"]


def test_reference_violations_refuse_a_scheme_without_a_table():
    cfg = dataclasses.replace(ofdm_reference_config(trials=1),
                              sequence_kind="fzc")
    report = OfdmReport(cfg, (SnrRow(0.0, 5.0, 0.0, 1.0, 1.0, 1),), ())
    with pytest.raises(ValueError, match=r"scheme 'fzc\+random' has no "
                       r"reference table; the reference schemes are "
                       r"\['golay\+random', 'random_phase\+equispaced'\]"):
        report.reference_violations()


def test_config_accepts_the_keys_its_experiment_reads():
    for experiment, extra in (
            ("ofdm", {"real_taps": True}),
            ("phase", {"real_taps": False, "k_grid": [2], "m_grid": [16],
                       "bases": ["identity"]}),
            ("dct", {"real_taps": False, "image": "none.pgm"})):
        ExperimentConfig(experiment=experiment, n=256, m=32, k=6,
                         sequence_kind="golay", extra=extra)


# ---------------------------------------------------------------------------
# DCT experiment and PGM ingestion
# ---------------------------------------------------------------------------

def test_dct_experiment_refuses_other_basis_or_sampling():
    # its rows are labelled as inverse DCT-II with random sampling
    base = dict(experiment="dct", n=64, m=24, k=3, sequence_kind="fzc",
                sequence_params={"gamma": 1}, basis="inverse_dct2",
                solver="sp", trials=1)
    for over in ({"basis": "identity"}, {"sampling_mode": "equispaced"}):
        with pytest.raises(ValueError, match="inverse_dct2"):
            run_dct_experiment(ExperimentConfig(**{**base, **over}))


_DCT_SP_WITH_WINS = ExperimentConfig(
    experiment="dct", n=128, m=48, k=6, sequence_kind="fzc",
    sequence_params={"gamma": 1}, basis="inverse_dct2", solver="sp",
    trials=12, master_seed=0)


def test_dct_experiment_schema_and_pairing():
    cfg = _DCT_SP_WITH_WINS
    report = run_dct_experiment(cfg)
    lines = report.csv().splitlines()
    assert lines[0] == ("config_hash,scheme,k,m,trials,successes,"
                        "success_rate,mean_output_snr_db,sign_test_p")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "fzc+random"
    assert lines[2].split(",")[1] == "random_phase+equispaced"
    # 12 of 12 recovered against 11 of 12: one win, no loss
    assert [row.successes for row in report.rows] == [12, 11]
    assert report.sign_test_p == 0.5
    assert report.csv() == run_dct_experiment(cfg).csv()


def test_sign_test_p_is_the_exact_binomial_tail():
    assert harness._sign_test_p(0, 0) == 1.0
    for n in range(61):
        tails = oracles.binomial_half_tails(n)
        for wins in range(n + 1):
            assert harness._sign_test_p(wins, n - wins) == float(tails[wins])


def test_dct_synthetic_csv_bytes_pinned():
    # OMP wins 17 pairs and loses none: sign_test_p = 2^-17
    cfg = ExperimentConfig(
        experiment="dct", n=256, m=64, k=6, sequence_kind="fzc",
        sequence_params={"gamma": 1}, basis="inverse_dct2", solver="omp",
        trials=40, master_seed=0)
    report = run_dct_experiment(cfg)
    assert report.sign_test_p == 2.0 ** -17
    assert hashlib.sha256(report.csv().encode()).hexdigest() == \
        "9f59a1a2d1013ce677c5aefbc6d43a4047dd60064ed0a4e64296034f230dfa45"


def test_dct_fista_successes_measure_recovery():
    # without the least-squares refit the LASSO bias alone fails every
    # trial of the 1e-4 relative-error test (0 of 3 here)
    cfg = dataclasses.replace(_DCT_SP_WITH_WINS, solver="fista", trials=3)
    proposed, _ = run_dct_experiment(cfg).rows
    assert proposed.successes > 0


# the dct_fista benchmark workload's own size, at its round seeds 0-3 at
# seed 0: csv() sha256, taken before FISTA's stage worked in place
_DCT_FISTA_WORKLOAD_SHA256 = (
    "94d6e2af94e4b77ddddf9ce69facda6f0e5b7e06f08b71d3d5debb3879b58559",
    "16992fadd8f1ce03cc0c5dd8fd75b8aa53fb27e127e5916184311347aded2872",
    "b3e3705049bb73816993cb629d729a73daee7bf89a9b30e32d420190a9e70932",
    "8a62d15eb4f1aafdedc3ec39fe78204fbade7d25a951ed5eca795ed85c231f9b",
)


@pytest.mark.parametrize("seed", range(4))
def test_dct_fista_at_the_workload_size_bytes_pinned(seed):
    # N=512, M=128 runs FISTA on its dense path at the benchmark's size;
    # its SNR columns move on a last-bit change of any iterate
    report = run_dct_experiment(ExperimentConfig(
        experiment="dct", n=512, m=128, k=8, sequence_kind="fzc",
        sequence_params={"gamma": 1}, basis="inverse_dct2", solver="fista",
        trials=1, master_seed=seed))
    assert hashlib.sha256(report.csv().encode()).hexdigest() == \
        _DCT_FISTA_WORKLOAD_SHA256[seed]
    assert [row.unconverged for row in report.rows] == [0, 0]


@pytest.mark.parametrize("solver, n, m, k, trials, counts", [
    ("omp", 128, 32, 4, 10, [0, 3]),
    ("fista", 256, 64, 6, 4, [0, 1]),
])
def test_dct_rows_count_unconverged_solves(monkeypatch, solver, n, m, k,
                                           trials, counts):
    # each trial solves the proposed scheme, then the baseline
    flags = []
    solve = harness._solve

    def recorded(*args, **kwargs):
        results = solve(*args, **kwargs)
        flags.extend(result.converged for result in results)
        return results

    monkeypatch.setattr(harness, "_solve", recorded)
    report = run_dct_experiment(ExperimentConfig(
        experiment="dct", n=n, m=m, k=k, sequence_kind="fzc",
        sequence_params={"gamma": 1}, basis="inverse_dct2", solver=solver,
        trials=trials, master_seed=0))
    assert [row.unconverged for row in report.rows] == \
        [flags[0::2].count(False), flags[1::2].count(False)] == counts
    assert "unconverged" not in report.csv()


def test_fista_refit_is_least_squares_on_the_top_k_support():
    rng = np.random.default_rng(3)
    cfg = ExperimentConfig(experiment="recover", n=64, m=32, k=3,
                           sequence_kind="fzc", solver="fista")
    theta = SensingOperator(build_circulant("fzc", 64, {}),
                            random_sampling(64, 32, rng),
                            Basis("inverse_dct2"))
    f, _ = harness._sparse_signal(rng, 64, 3)
    y0 = theta.forward(f)
    y = harness._add_noise(y0, harness._noise(rng, y0.size), 20.0)
    lasso = recovery.fista_lasso(recovery.RecoveryProblem(theta, y))
    stack = StackedOperator.of([theta])
    result, = harness._solve(cfg, stack, y[None])
    support = np.sort(np.argsort(-np.abs(lasso.f_hat), kind="stable")[:3])
    assert np.array_equal(result.support, support)
    assert (result.iterations, result.converged) == \
        (lasso.iterations, lasso.converged)
    expected = oracles.least_squares_on_support(
        stack.columns(np.arange(theta.n)[None])[0], y, support)
    assert np.allclose(result.f_hat, expected, rtol=0, atol=1e-9)


def _loaded_in_fresh_interpreter(module, run=""):
    """(module loaded, scipy loaded) after ``import convsense`` and the
    statements ``run`` in a fresh interpreter."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (f"import convsense, sys\n{run}\n"
            f"print({module!r} in sys.modules, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_import_convsense_does_not_load_scipy_stats():
    # the sign test is an exact integer tail, so nothing in the package
    # needs scipy.stats, which alone is about 38 MB and most of the import
    assert _loaded_in_fresh_interpreter("scipy.stats") == ["False", "True"]


def test_dct_sign_test_does_not_load_scipy_stats():
    # this run has a differing pair, so the sign test is computed
    fields = dataclasses.asdict(_DCT_SP_WITH_WINS)
    run = ("from convsense.harness import ExperimentConfig, "
           "run_dct_experiment\n"
           f"cfg = ExperimentConfig(**{fields!r})\n"
           "assert run_dct_experiment(cfg).sign_test_p == 0.5")
    assert _loaded_in_fresh_interpreter("scipy.stats", run) == \
        ["False", "True"]


def test_import_convsense_does_not_load_scipy_fft():
    # scipy loads the submodule on first attribute access, which is the
    # first inverse-DCT basis transform, so ofdm_ref never pays for it
    assert _loaded_in_fresh_interpreter("scipy.fft") == ["False", "True"]


def test_import_convsense_does_not_load_scipy_linalg():
    # its one caller is the real-tap refit, so a run without one never
    # pays for it
    assert _loaded_in_fresh_interpreter("scipy.linalg") == ["False", "True"]


def test_refit_runs_do_not_load_scipy_linalg():
    # the real-tap refit and the FISTA debias both solve through
    # recovery's least squares, so no run needs scipy.linalg
    run = ("from convsense.harness import (ExperimentConfig, ofdm_config, "
           "run_ofdm_experiment, run_recover)\n"
           "cfg = ofdm_config(n=256, m=48, k=6, sequence_kind='golay', "
           "trials=1, snr_list=[10.0])\n"
           "assert run_ofdm_experiment(cfg).rows\n"
           "cfg = ExperimentConfig(experiment='recover', n=64, m=32, k=3, "
           "sequence_kind='fzc', solver='fista', snr_list=(20.0,))\n"
           "assert run_recover(cfg)[0]")
    assert _loaded_in_fresh_interpreter("scipy.linalg", run) == \
        ["False", "True"]


def _write_pgm(path, kind, pixels):
    h, w = pixels.shape
    if kind == "P5":
        with open(path, "wb") as fh:
            fh.write(b"P5\n# comment\n%d %d\n255\n" % (w, h))
            fh.write(pixels.astype(np.uint8).tobytes())
    else:
        rows = [" ".join(str(int(v)) for v in row) for row in pixels]
        with open(path, "w") as fh:
            fh.write("P2\n# comment\n%d %d\n255\n%s\n"
                     % (w, h, "\n".join(rows)))


@pytest.mark.parametrize("kind", ["P2", "P5"])
def test_read_pgm(tmp_path, kind):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(6, 9))
    path = os.path.join(tmp_path, "img.pgm")
    _write_pgm(path, kind, pixels)
    img = read_pgm(path)
    assert img.shape == (6, 9)
    assert np.allclose(img, pixels / 255.0)


def test_read_pgm_rejects_other_formats(tmp_path):
    path = os.path.join(tmp_path, "bad.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        read_pgm(path)


@pytest.mark.parametrize("data, message", [
    (b"P5\n3 2\n", "truncated PGM header"),
    (b"P5\n3 2\n0\n" + bytes(6), "only 8-bit PGM"),
    (b"P5\n3 2\n300\n" + bytes(6), "only 8-bit PGM"),
    (b"P2\n3 2\n255\n1 2 3\n4 5\n", "truncated PGM pixel data"),
    (b"P5\n3 2\n255\n" + bytes(5), "truncated PGM pixel data"),
    (b"P2\n2 1\n255\n1 300\n", "range"),
    (b"P2\n2 1\n15\n20 3\n", "sample 20 exceeds maxval 15"),
    (b"P5\n1 1\n15\n" + bytes([200]), "sample 200 exceeds maxval 15"),
], ids=["truncated-header", "maxval-0", "maxval-300", "short-p2",
        "short-p5", "p2-sample-above-255", "p2-sample-above-maxval",
        "p5-sample-above-maxval"])
def test_read_pgm_refuses_malformed_files(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message):
        read_pgm(str(path))


@pytest.mark.parametrize("kind, pixels", [("P2", b"0 255\n51\n"),
                                          ("P5", bytes([0, 255, 51]))])
def test_read_pgm_reads_a_comment_between_size_and_maxval(tmp_path, kind,
                                                          pixels):
    path = tmp_path / "img.pgm"
    path.write_bytes(kind.encode() + b" 3\t1\n# maxval next\n255\n" + pixels)
    assert np.array_equal(read_pgm(str(path)), [[0.0, 1.0, 0.2]])


def test_dct_image_mode(tmp_path):
    yy, xx = np.mgrid[0:16, 0:16]
    smooth = ((np.cos(np.pi * yy / 15) * np.cos(np.pi * xx / 15) * 0.5
               + 0.5) * 255).astype(np.uint8)
    path = os.path.join(tmp_path, "img.pgm")
    _write_pgm(path, "P5", smooth)
    cfg = ExperimentConfig(
        experiment="dct", n=256, m=96, k=12, sequence_kind="fzc",
        sequence_params={"gamma": 1}, basis="inverse_dct2", solver="sp",
        trials=6, master_seed=0, extra={"image": path})
    report = run_dct_experiment(cfg)
    snrs = [row.mean_output_snr_db for row in report.rows]
    assert all(np.isfinite(snrs))
    # image mode compares output SNRs: the proposed scheme wins all 6
    # pairs, while no trial of either scheme is an exact recovery
    assert [row.successes for row in report.rows] == [0, 0]
    assert report.sign_test_p == 2.0 ** -6
    with pytest.raises(ValueError):
        bad = dataclasses.replace(cfg, n=128)
        run_dct_experiment(bad)  # pixel count mismatch


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_audit_coherence_bounds():
    res = audit_coherence_bounds()
    assert res.ok and not res.failures
    lines = res.csv.splitlines()
    assert lines[0] == "kind,N,mu_observed,bound,margin,pass"
    assert len(lines) == 28  # 24 sequence rows + 3 dct rows


def test_audit_gauss_small():
    res = audit_gauss(closed_form_max=64, identity_max=32, sweep_max=64)
    assert res.ok and not res.failures
    assert res.csv.splitlines()[0] == "kind,N,worst_m,observed,bound,margin"


@pytest.mark.parametrize("name, kind, m_lo, line", [
    ("reflection_identity_residual", "gn_reflection", 1, "reflection"),
    ("q_identity_residual", "qn_split", 0, "q split")])
def test_audit_gauss_fails_a_residual_above_tolerance(monkeypatch, name, kind,
                                                      m_lo, line):
    # one residual entry at N = 5 raised above 1e-8*sqrt(N): the audit
    # fails on that identity alone and its row names the worst m
    real = getattr(gauss_sums, name)

    def spiked(n):
        res = real(n)
        if n == 5:
            res[2] = 1.0
        return res
    monkeypatch.setattr(gauss_sums, name, spiked)
    res = audit_gauss(closed_form_max=4, identity_max=8, sweep_max=4)
    assert res.ok is False
    assert res.failures == (f"{line} N=5: residual 1.000e+00",)
    rows = [ln.split(",") for ln in res.csv.splitlines()[1:]]
    row, = [r for r in rows if r[:2] == [kind, "5"]]
    assert int(row[2]) == m_lo + 2 and float(row[3]) == 1.0


def test_audit_papr_small():
    res = audit_papr(golay_sizes=(64,), random_seeds=5)
    assert res.ok
    lines = res.csv.splitlines()
    assert lines[0] == "kind,N,oversample,papr"
    assert any(ln.startswith("golay,64") for ln in lines)
    assert any(ln.startswith("random_phase(seed=0)") for ln in lines)


@pytest.mark.parametrize("kwargs, name", [
    (dict(golay_sizes=()), "golay_sizes"),
    (dict(random_seeds=0), "random_seeds"),
])
def test_audit_papr_refuses_to_check_nothing(kwargs, name):
    with pytest.raises(ValueError, match=name):
        audit_papr(**kwargs)


@pytest.mark.parametrize("name", ["closed_form_max", "identity_max",
                                  "sweep_max"])
def test_audit_gauss_refuses_to_check_nothing(name):
    sizes = dict(closed_form_max=4, identity_max=4, sweep_max=4)
    sizes[name] = 0
    with pytest.raises(ValueError, match=name):
        audit_gauss(**sizes)


def test_golay_papr_verdict_is_one_rule(monkeypatch):
    # the audit's Golay rows and a single Golay sequence fail alike
    real_papr = harness.papr
    monkeypatch.setattr(harness, "papr", lambda sigma: 2.5 if getattr(
        sigma, "kind", None) == "golay" else real_papr(sigma))
    one = audit_papr_sequence("golay", 64, {})
    assert one.ok is False
    assert one.failures == ("golay N=64: PAPR 2.5 > 2.01",)
    assert one.csv == "kind,N,oversample,papr\ngolay,64,16,2.5\n"
    res = audit_papr(golay_sizes=(64,), random_seeds=1)
    assert res.ok is False and res.failures == one.failures
    assert audit_papr_sequence("fzc", 64, {"gamma": 1}).ok


def test_audit_papr_fails_when_random_phase_papr_drops_below_4(monkeypatch):
    real_papr = harness.papr

    def low_random_rows(sigma):
        if getattr(sigma, "kind", None) == "random_phase":
            return 3.0
        return real_papr(sigma)

    monkeypatch.setattr(harness, "papr", low_random_rows)
    res = audit_papr(golay_sizes=(64,), random_seeds=3)
    assert res.ok is False
    assert any("random_phase" in f for f in res.failures)
