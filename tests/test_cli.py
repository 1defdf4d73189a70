"""CLI subcommands run in-process: exit codes, schemas, file output."""

import functools
import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from convsense import cli, recovery
from convsense.cli import main
from convsense.harness import audit_papr, ofdm_reference_config
from convsense.sequences import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_vector(text):
    """The values of a re,im vector CSV."""
    lines = text.splitlines()
    assert lines[0] == "re,im"
    return np.array([complex(*map(float, ln.split(","))) for ln in lines[1:]])


# ---------------------------------------------------------------------------
# gen-seq
# ---------------------------------------------------------------------------

def test_gen_seq_csv_round_trip(capsys):
    code, out, err = run(capsys, "gen-seq", "--seq", "fzc", "--n", "16")
    assert code == 0
    v = read_vector(out)
    assert v.size == 16 and np.allclose(np.abs(v), 1.0)
    assert "perfect" in err


def test_gen_seq_json(capsys):
    code, out, _ = run(capsys, "gen-seq", "--seq", "golay", "--n", "20",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "golay" and doc["n"] == 20
    assert len(doc["values"]) == 20


def test_gen_seq_reports_the_family_name(capsys):
    code, out, err = run(capsys, "gen-seq", "--seq", "perfect_binary_filter",
                         "--n", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "perfect_binary_filter"
    assert doc["claim_consistent"] is True and doc["label"] == "perfect"
    assert err.startswith("perfect_binary_filter N=7: perfect, ")


def test_gen_seq_missing_flags(capsys):
    code, _, err = run(capsys, "gen-seq", "--seq", "fzc")
    assert code == 2 and "--n" in err


def test_gen_seq_bad_size(capsys):
    code, _, err = run(capsys, "gen-seq", "--seq", "golay", "--n", "12")
    assert code == 2 and "error" in err


def test_golay_length_is_refused_with_one_reason(capsys):
    # golay_pair refuses through the family's own admissibility rule, so
    # gen-seq and coherence name the same reason
    _, _, gen = run(capsys, "gen-seq", "--seq", "golay", "--n", "7")
    _, _, coh = run(capsys, "coherence", "--seq", "golay", "--n", "7")
    reason = "N=7 is not of the form 2^k1 * 10^k2 * 26^k3\n"
    assert (gen, coh) == ("error: " + reason, "error: skipped: " + reason)


def test_gen_seq_writes_file(capsys, tmp_path):
    out_dir = str(tmp_path / "artifacts")
    code, out, _ = run(capsys, "gen-seq", "--seq", "legendre", "--n", "31",
                       "--out", out_dir)
    assert code == 0
    path = os.path.join(out_dir, "sequence.csv")
    assert out.strip() == path and os.path.exists(path)
    with open(path) as fh:
        assert read_vector(fh.read()).size == 31


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def test_coherence_pass(capsys):
    code, out, _ = run(capsys, "coherence", "--seq", "golay", "--n", "52")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,N,mu_observed,bound,margin,pass"
    assert lines[1].endswith(",true")


def test_coherence_dct_basis(capsys):
    code, out, _ = run(capsys, "coherence", "--seq", "fzc", "--n", "64",
                       "--basis", "inverse_dct2")
    assert code == 0 and "fzc(gamma=1)+inverse_dct2" in out


def test_coherence_informational_row(capsys):
    code, out, _ = run(capsys, "coherence", "--seq", "random_phase",
                       "--n", "64", "--seed", "5")
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "inf"


def test_extended_golay_odd_bound_violation_stays_visible(capsys):
    # 2 + 1/sqrt(N) is exceeded at N=521 (mu 2.07004 > 2.04381)
    code, out, _ = run(capsys, "coherence", "--seq", "extended_golay",
                       "--n", "521")
    assert code == 1
    assert out.splitlines()[1].endswith(",false")


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_every_seq_choice_works_everywhere_it_is_offered(capsys, kind):
    # the smallest admissible N above the OFDM channel's last tap (137)
    n = str(next(n for n in range(138, 300)
                 if FAMILIES[kind].admissible(n, {"gamma": 1}) is None))
    code, out, err = run(capsys, "recover", "--n", n, "--m", "32", "--k",
                         "4", "--seq", kind)
    assert code in (0, 1), err
    assert out.splitlines()[1].startswith("inf,sp,")
    for basis in ("identity", "inverse_fourier", "inverse_dct2"):
        code, out, err = run(capsys, "coherence", "--seq", kind, "--n", n,
                             "--basis", basis)
        assert code in (0, 1), err
        assert len(out.splitlines()) == 2
    for argv in (("exp-phase", "--k", "2", "--m", "32"),
                 ("exp-dct", "--k", "3", "--m", "32"),
                 ("exp-ofdm", "--k", "6", "--m", "32", "--snr-list", "20")):
        code, out, err = run(capsys, *argv, "--n", n, "--seq", kind,
                             "--trials", "2")
        assert code == 0, err


def test_coherence_inadmissible_is_usage_error(capsys):
    code, _, err = run(capsys, "coherence", "--seq", "m_sequence",
                       "--n", "100")
    assert code == 2 and "skipped" in err
    # the registry's reason, for rows without a closed bound as well
    code, _, err = run(capsys, "coherence", "--seq", "extended_polyphase",
                       "--n", "1", "--basis", "inverse_fourier")
    assert code == 2 and err == "error: skipped: N must be >= 2\n"


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_gauss_audit(capsys):
    code, out, _ = run(capsys, "gauss-audit", "--n", "64")
    assert code == 0
    assert out.splitlines()[0] == "kind,N,worst_m,observed,bound,margin"


def test_gauss_audit_json(capsys, tmp_path):
    out_dir = str(tmp_path)
    code, _, _ = run(capsys, "gauss-audit", "--n", "32", "--out", out_dir,
                     "--format", "json")
    assert code == 0
    with open(os.path.join(out_dir, "gauss_audit.json")) as fh:
        doc = json.load(fh)
    assert doc["ok"] is True and doc["rows"]


def test_papr_single_sequence(capsys):
    code, out, _ = run(capsys, "papr", "--seq", "golay", "--n", "256")
    assert code == 0
    value = float(out.splitlines()[1].split(",")[3])
    assert value == pytest.approx(2.0, abs=0.01)


def usage_error(capsys, *argv):
    """stderr of a run that must end in a usage error (exit 2), refused
    by argparse or by the command."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("exp-ofdm", "--seq", "golay", "--trials", "2"), "--n, --m, --k"),
    (("exp-phase", "--n", "64", "--k", "", "--m", "16"), "--k"),
    (("exp-phase", "--n", "64", "--k", "2", "--m", "16", "--trials", "-2"),
     "--trials"),
    (("exp-ofdm", "--trials", "-1"), "--trials"),
    (("exp-dct", "--n", "64", "--m", "16", "--k", "2", "--trials", "0"),
     "--trials"),
    (("papr", "--trials", "0"), "--trials"),
    (("gauss-audit", "--n", "0"), "--n"),
    # one name per solver and per family: the dropped aliases are refused
    (("recover", "--n", "64", "--m", "16", "--k", "2", "--seq", "golay",
      "--solver", "subspace_pursuit"), "--solver"),
    (("gen-seq", "--n", "63", "--seq", "perfect_binary_from_m"), "--seq"),
    # the reference run reads none of these: refused, not ignored
    (("exp-ofdm", "--n", "64"), "--n"),
    (("exp-ofdm", "--m", "16"), "--m"),
    (("exp-ofdm", "--k", "3"), "--k"),
    (("exp-ofdm", "--snr-list", "5"), "--snr-list"),
    (("exp-ofdm", "--solver", "omp"), "--solver"),
    (("exp-ofdm", "--gamma", "7"), "--gamma"),
    (("exp-ofdm", "--trials", "2"), "--trials"),
    (("exp-ofdm", "--trials", "2", "--solver", "omp", "--snr-list", "5",
      "--n", "64", "--m", "16", "--k", "3", "--gamma", "7"),
     "--n, --m, --k, --snr-list, --solver, --gamma, --trials"),
    # golay does not read gamma: a gamma other than 1 is refused
    (("exp-phase", "--n", "64", "--k", "2", "--m", "16", "--seq", "golay",
      "--trials", "3", "--gamma", "7"), "--gamma"),
    (("exp-dct", "--n", "64", "--m", "24", "--k", "2", "--seq", "golay",
      "--trials", "2", "--gamma", "7"), "--gamma"),
    (("recover", "--n", "64", "--m", "16", "--k", "2", "--seq", "golay",
      "--gamma", "7"), "--gamma"),
    # an empty list is refused, not read as an omitted flag
    (("recover", "--n", "64", "--m", "16", "--k", "2", "--seq", "golay",
      "--snr-list", ""), "--snr-list"),
    (("exp-ofdm", "--seq", "golay", "--n", "256", "--m", "48", "--k", "6",
      "--trials", "2", "--snr-list", ","), "--snr-list"),
    (("exp-phase", "--n", "64", "--k", "2", "--m", "16", "--basis", ""),
     "--basis"),
], ids=["ofdm-seq-without-sizes", "phase-empty-k", "phase-trials-negative",
        "ofdm-trials-negative", "dct-trials-zero", "papr-trials-zero",
        "gauss-audit-n-zero", "recover-solver-alias", "gen-seq-family-alias",
        "ofdm-reference-n", "ofdm-reference-m", "ofdm-reference-k",
        "ofdm-reference-snr-list", "ofdm-reference-solver",
        "ofdm-reference-gamma", "ofdm-reference-trials", "ofdm-reference-all",
        "phase-unread-gamma", "dct-unread-gamma", "recover-unread-gamma",
        "recover-empty-snr-list", "ofdm-empty-snr-list",
        "phase-empty-basis"])
def test_missing_and_nonpositive_counts_are_usage_errors(capsys, argv, flag):
    assert flag in usage_error(capsys, *argv)


def test_papr_audit_mode(capsys):
    code, out, _ = run(capsys, "papr", "--trials", "3")
    lines = out.splitlines()
    assert lines[0] == "kind,N,oversample,papr"
    # three Golay rows, three FZC rows, three random-phase seeds
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["golay"] * 3 + ["fzc(gamma=1)"] * 3 + \
        [f"random_phase(seed={s})" for s in range(3)]
    res = audit_papr(random_seeds=3)
    assert out == res.csv
    assert code == (0 if res.ok else 1)


@pytest.mark.parametrize("argv", [
    ("--seq", "golay", "--n", "256"),
    ("--seq", "fzc", "--n", "512", "--gamma", "1"),
    ("--seq", "random_phase", "--n", "1024", "--seed", "2"),
])
def test_papr_seq_row_is_the_audit_row(capsys, argv):
    # one labelling rule: a single-sequence row reads as the audit's row
    # for the same family, length and params
    code, out, _ = run(capsys, "papr", *argv)
    assert code == 0
    row = out.splitlines()[1]
    assert row in audit_papr(random_seeds=3).csv.splitlines()


def test_papr_requires_n_with_seq(capsys):
    code, _, err = run(capsys, "papr", "--seq", "golay")
    assert code == 2 and "--n" in err


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------

def test_recover_noiseless_success(capsys):
    code, out, _ = run(capsys, "recover", "--n", "128", "--m", "48",
                       "--k", "5", "--seq", "fzc", "--solver", "sp")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("input_snr_db,solver,rel_error,support_exact,"
                        "iterations,converged")
    cells = lines[1].split(",")
    assert cells[0] == "inf" and float(cells[2]) <= 1e-4


def test_recover_noisy_rows(capsys):
    code, out, _ = run(capsys, "recover", "--n", "128", "--m", "48",
                       "--k", "5", "--seq", "golay", "--solver", "omp",
                       "--snr-list", "20,40")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_recover_fista_poses_a_lambda(capsys):
    # FISTA needs lambda > 0; recover poses it as the experiments do, and
    # refits on the top-K support, so a noiseless run meets the success
    # test (the LASSO estimate alone reads 1.7e-4 here)
    code, out, err = run(capsys, "recover", "--n", "256", "--m", "64",
                         "--k", "5", "--seq", "fzc", "--solver", "fista")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].split(",")[:2] == ["inf", "fista"]
    assert float(lines[1].split(",")[2]) < 1e-10


def test_recover_csv_bytes_pinned(capsys):
    # recover draws Theta like the experiments; its draw order (sampling,
    # spectrum, support, values, noise) is frozen, so are these bytes
    code, out, _ = run(capsys, "recover", "--n", "256", "--m", "64",
                       "--k", "5", "--seq", "fzc", "--gamma", "3",
                       "--basis", "inverse_dct2", "--snr-list", "10,20")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b31d982d77ad53dd79c879324b31feca461dff1a2118c402bad6c047c72d163b")


def test_recover_random_phase_csv_bytes_pinned(capsys):
    # a random family draws its spectrum after the sampling indices
    code, out, _ = run(capsys, "recover", "--n", "256", "--m", "64",
                       "--k", "5", "--seq", "random_phase", "--seed", "7",
                       "--basis", "inverse_fourier", "--snr-list", "15")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9e83aaf634f81547e9955a51b4e083144b02e00749fc3eda70ab79ce6cc8aaec")


def test_recover_fista_threshold_does_not_overflow(capsys):
    # at -300 dB lambda / L exceeds 1.8e8, and the soft threshold once
    # divided it by an exact zero entry floored at 1e-300, which overflows;
    # the row's bytes are those the run printed beside that warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "recover", "--seq", "golay", "--n", "8",
                             "--m", "1", "--k", "1", "--solver", "fista",
                             "--snr-list=-300")
    assert code == 0, err
    assert out.splitlines()[1] == \
        "-300,fista,3.82683432365e+14,false,383,true"


def test_negative_snr_list_runs_in_the_equals_form(capsys):
    # a list starting below 0 is joined to its flag, as docs/formats.md
    # says
    code, out, err = run(capsys, "recover", "--n", "64", "--m", "16",
                         "--k", "2", "--seq", "golay", "--snr-list=-10,0")
    assert code == 0, err
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == \
        ["-10", "0"]


def test_recover_infeasible_shape_is_usage_error(capsys):
    code, _, err = run(capsys, "recover", "--n", "64", "--m", "16",
                       "--k", "12", "--seq", "fzc", "--solver", "sp")
    assert code == 2 and "2K" in err


def test_recover_failing_noiseless_run_exits_one(capsys):
    # OMP at M = 2K misses this Golay draw: an acceptance violation
    code, out, _ = run(capsys, "recover", "--seq", "golay", "--n", "64",
                       "--m", "8", "--k", "4", "--solver", "omp")
    assert code == 1
    assert out.splitlines()[1].startswith("inf,omp,1.55086124879,false,")


@pytest.mark.parametrize("snrs, value", [("inf", "inf"), ("nan", "nan"),
                                         ("-inf", "-inf"), ("10,inf", "inf")])
def test_recover_non_finite_snr_is_usage_error(capsys, snrs, value):
    # inf is how a noiseless row prints, not an input: given as one, this
    # failing OMP run printed its noiseless row's bytes and exited 0
    code, out, err = run(capsys, "recover", "--seq", "golay", "--n", "64",
                         "--m", "8", "--k", "4", "--solver", "omp",
                         f"--snr-list={snrs}")
    assert (code, out) == (2, "")
    assert err == (f"error: snr_list entries must be finite dB, got {value} "
                   "(None is the noiseless row)\n")


@pytest.mark.parametrize("argv, reason", [
    (("recover", "--seq", "golay", "--n", "64", "--m", "32", "--k", "100",
      "--solver", "fista"), "--k: require 1 <= K <= N, got K=100, N=64"),
    (("exp-dct", "--n", "64", "--m", "32", "--k", "80", "--trials", "2",
      "--solver", "fista"), "--k: require 1 <= K <= N, got K=80, N=64"),
    (("recover", "--seq", "fzc", "--n", "64", "--m", "65", "--k", "4"),
     "--m: require 1 <= M <= N, got M=65, N=64"),
    (("exp-ofdm", "--seq", "golay", "--n", "256", "--m", "300", "--k", "6",
      "--trials", "2"), "--m: require 1 <= M <= N, got M=300, N=256"),
], ids=["recover-k", "dct-k", "recover-m", "ofdm-m"])
def test_sizes_above_n_are_usage_errors(capsys, argv, reason):
    # these once ended in numpy's "Cannot take a larger sample than
    # population" message; each names its flag, as exp-phase's grids do
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: argument {reason}\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_exp_ofdm_custom_scheme(capsys, tmp_path):
    out_dir = str(tmp_path)
    code, _, _ = run(capsys, "exp-ofdm", "--seq", "golay", "--n", "256",
                     "--m", "48", "--k", "6", "--trials", "4",
                     "--snr-list", "20", "--out", out_dir)
    assert code == 0
    with open(os.path.join(out_dir, "ofdm_summary.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("config_hash,sequence_kind,sampling_mode")
    assert len(lines) == 2
    assert os.path.exists(os.path.join(out_dir, "ofdm_trials.csv"))


def test_exp_ofdm_json(capsys):
    code, out, _ = run(capsys, "exp-ofdm", "--seq", "fzc", "--n", "256",
                       "--m", "48", "--k", "6", "--trials", "3",
                       "--snr-list", "30", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["sequence_kind"] == "fzc"
    assert len(doc["rows"]) == 1


def test_exp_ofdm_random_phase_json_bytes_pinned(capsys):
    # custom mode runs the baseline's family as the baseline does
    # (equispaced sampling, real-tap refit, inputs 0/10/20/30 dB)
    code, out, err = run(capsys, "exp-ofdm", "--seq", "random_phase",
                         "--n", "256", "--m", "48", "--k", "6",
                         "--trials", "3", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["config"]["sampling_mode"] == "equispaced"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e85c459373d300b9279d234aa7de9a1efc73c6d5a149e790ffb3341434d7196c")


def test_exp_ofdm_benchmark_mode(capsys, tmp_path):
    # the one 500-trial reference run of the suite
    code, out, err = run(capsys, "exp-ofdm", "--format", "json")
    doc = json.loads(out)
    assert sorted(doc) == ["schemes", "tolerance_db", "violations"]
    assert doc["tolerance_db"] == 3.0
    assert [s["scheme"] for s in doc["schemes"]] == ["proposed", "baseline"]
    misses = 0
    for scheme in doc["schemes"]:
        assert sorted(scheme) == ["config", "reference_output_snr_db",
                                  "rows", "scheme"]
        assert scheme["config"]["trials"] == 500
        ref = {float(snr): value for snr, value
               in scheme["reference_output_snr_db"].items()}
        assert [row["input_snr_db"] for row in scheme["rows"]] == \
            list(ref) == [0.0, 10.0, 20.0, 30.0]
        misses += sum(abs(row["mean_output_snr_db"]
                          - ref[row["input_snr_db"]]) > 3.0
                      for row in scheme["rows"])
    assert len(doc["violations"]) == misses
    assert err.count("violation:") == misses
    assert code == (1 if doc["violations"] else 0)
    # --out writes both CSVs through the write a custom run shares
    out_dir = str(tmp_path)
    assert run(capsys, "exp-ofdm", "--seq", "golay", "--n", "256", "--m",
               "48", "--k", "6", "--trials", "2", "--out", out_dir)[0] == 0
    with open(os.path.join(out_dir, "ofdm_summary.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 4
    with open(os.path.join(out_dir, "ofdm_trials.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 4 * 2


def test_exp_phase_grid(capsys):
    code, out, _ = run(capsys, "exp-phase", "--n", "64", "--k", "2,4",
                       "--m", "16,32", "--seq", "golay", "--trials", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("config_hash,sequence_kind,basis,k,m,trials,"
                        "successes,success_rate")
    assert len(lines) == 5


@pytest.mark.parametrize("flag, value, message", [
    ("--basis", "identity,inverse_fourier,nope", "argument --basis"),
    ("--m", "16,128", "M=128"),
    ("--k", "2,65", "K=65"),
], ids=["basis", "m-above-n", "k-above-n"])
def test_exp_phase_checks_its_whole_grid_before_solving(
        capsys, monkeypatch, flag, value, message):
    calls = []
    monkeypatch.setitem(recovery.SOLVERS, "sp", calls.append)
    grid = {"--k": "2", "--m": "16", "--basis": "identity", flag: value}
    argv = [tok for item in grid.items() for tok in item]
    assert message in usage_error(capsys, "exp-phase", "--n", "64", *argv)
    assert calls == []


@pytest.mark.parametrize("flag, grid", [
    ("--m", ("--k", "2", "--m", "16,128")),
    ("--k", ("--k", "2,65", "--m", "16")),
], ids=["m-above-n", "k-above-n"])
def test_exp_phase_grid_range_error_names_its_flag(capsys, flag, grid):
    message = usage_error(capsys, "exp-phase", "--n", "64", *grid)
    assert f"argument {flag}: require 1 <=" in message


def test_exp_dct(capsys):
    code, out, _ = run(capsys, "exp-dct", "--n", "128", "--m", "48",
                       "--k", "6", "--trials", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert "fzc+random" in lines[1]
    assert "random_phase+equispaced" in lines[2]


def test_exp_dct_json_reports_unconverged_solves(capsys):
    argv = ("exp-dct", "--n", "128", "--m", "32", "--k", "4", "--trials",
            "10", "--solver", "omp")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [(row["scheme"], row["unconverged"]) for row in doc["rows"]] == \
        [("fzc+random", 0), ("random_phase+equispaced", 3)]
    _, csv_out, _ = run(capsys, *argv)
    assert "unconverged" not in csv_out


def test_exp_dct_fista_json_bytes_pinned(capsys):
    # the FISTA DCT comparison: its unconverged counts and its two SNR rows
    # at 212-239 dB move on a last-bit change of any FISTA iterate
    code, out, err = run(capsys, "exp-dct", "--n", "128", "--m", "48",
                         "--k", "6", "--solver", "fista", "--trials", "6",
                         "--format", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "194659820f1f6e5f586bfff957c686af1fb41b8ec1f58c19793ba190ac595132")


def test_exp_dct_image(capsys, tmp_path):
    pixels = np.linspace(0, 255, 64).astype(np.uint8).reshape(8, 8)
    path = os.path.join(tmp_path, "img.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n8 8\n255\n" + pixels.tobytes())
    code, out, _ = run(capsys, "exp-dct", "--n", "64", "--m", "32",
                       "--k", "6", "--trials", "4", "--image", path)
    assert code == 0 and len(out.splitlines()) == 3


def test_exp_dct_refuses_an_all_zero_image(capsys, tmp_path):
    # a black image has no output SNR or relative error (0/0): it was
    # scored as 0 successes at 300 dB and exited 0
    path = os.path.join(tmp_path, "black.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n8 8\n255\n" + bytes(64))
    code, out, err = run(capsys, "exp-dct", "--n", "64", "--m", "32",
                         "--k", "6", "--trials", "4", "--image", path)
    assert (code, out) == (2, "")
    assert f"image {path} is all zero" in err


# ---------------------------------------------------------------------------
# every flag changes its run
# ---------------------------------------------------------------------------

_MODES = {
    "gen-seq": ("gen-seq", "--seq", "golay", "--n", "20"),
    "gen-seq-fzc": ("gen-seq", "--seq", "fzc", "--n", "16"),
    "gen-seq-random": ("gen-seq", "--seq", "random_phase", "--n", "20"),
    "coherence": ("coherence", "--seq", "golay", "--n", "52"),
    "coherence-fzc": ("coherence", "--seq", "fzc", "--n", "64", "--basis",
                      "inverse_dct2"),
    "coherence-random": ("coherence", "--seq", "random_phase", "--n", "64"),
    "gauss-audit": ("gauss-audit", "--n", "32"),
    "papr": ("papr", "--trials", "3"),
    "papr-seq": ("papr", "--seq", "golay", "--n", "64"),
    "papr-seq-fzc": ("papr", "--seq", "fzc", "--n", "64"),
    "papr-seq-random": ("papr", "--seq", "random_phase", "--n", "64"),
    "recover": ("recover", "--n", "64", "--m", "16", "--k", "2", "--seq",
                "golay"),
    "recover-fzc": ("recover", "--n", "64", "--m", "16", "--k", "2",
                    "--seq", "fzc"),
    "exp-ofdm": ("exp-ofdm",),
    "exp-ofdm-seq": ("exp-ofdm", "--seq", "golay", "--n", "256", "--m", "48",
                     "--k", "6", "--trials", "2", "--snr-list", "20"),
    "exp-ofdm-seq-fzc": ("exp-ofdm", "--seq", "fzc", "--n", "256", "--m",
                         "48", "--k", "6", "--trials", "2", "--snr-list",
                         "20"),
    "exp-phase": ("exp-phase", "--n", "64", "--k", "2", "--m", "16",
                  "--trials", "3"),
    "exp-phase-fzc": ("exp-phase", "--n", "64", "--k", "2", "--m", "16",
                      "--trials", "3", "--seq", "fzc"),
    "exp-dct": ("exp-dct", "--n", "64", "--m", "24", "--k", "2", "--trials",
                "2"),
    "exp-dct-golay": ("exp-dct", "--n", "64", "--m", "24", "--k", "2",
                      "--trials", "2", "--seq", "golay"),
}
_SHARED = (("--out", "DIR"), ("--format", "json"))

# (mode, flag and value set after the mode's own, read or refused); a
# read flag changes the stdout bytes, a refused one exits 2 naming it
_FLAG_CASES = [
    ("gen-seq", ("--n", "26"), "read"),
    ("gen-seq", ("--seq", "fzc"), "read"),
    ("gen-seq", ("--gamma", "7"), "refused"),
    ("gen-seq", ("--seed", "5"), "refused"),
    ("gen-seq-fzc", ("--gamma", "3"), "read"),
    ("gen-seq-fzc", ("--seed", "5"), "refused"),
    ("gen-seq-random", ("--seed", "5"), "read"),
    ("gen-seq-random", ("--gamma", "3"), "refused"),
    ("coherence", ("--n", "20"), "read"),
    ("coherence", ("--seq", "fzc"), "read"),
    ("coherence", ("--basis", "inverse_fourier"), "read"),
    ("coherence", ("--gamma", "7"), "refused"),
    ("coherence", ("--seed", "9"), "refused"),
    ("coherence-fzc", ("--gamma", "3"), "read"),
    ("coherence-fzc", ("--seed", "9"), "refused"),
    ("coherence-random", ("--seed", "9"), "read"),
    ("coherence-random", ("--gamma", "3"), "refused"),
    ("gauss-audit", ("--n", "64"), "read"),
    ("papr", ("--trials", "4"), "read"),
    ("papr", ("--n", "64"), "refused"),
    ("papr", ("--gamma", "5"), "refused"),
    ("papr", ("--seed", "4"), "refused"),
    ("papr-seq", ("--n", "128"), "read"),
    ("papr-seq", ("--seq", "legendre", "--n", "67"), "read"),
    ("papr-seq", ("--trials", "9"), "refused"),
    ("papr-seq", ("--gamma", "7"), "refused"),
    ("papr-seq", ("--seed", "3"), "refused"),
    ("papr-seq-fzc", ("--gamma", "5"), "read"),
    # roots 1 and N - 1 give one PAPR: only the row label tells them
    # apart (one token, so the case id differs from the one above)
    ("papr-seq-fzc", ("--gamma=63",), "read"),
    ("papr-seq-random", ("--seed", "3"), "read"),
    ("recover", ("--n", "128"), "read"),
    ("recover", ("--m", "24"), "read"),
    ("recover", ("--k", "3"), "read"),
    ("recover", ("--seq", "fzc"), "read"),
    ("recover", ("--basis", "inverse_fourier"), "read"),
    ("recover", ("--solver", "omp"), "read"),
    ("recover", ("--snr-list", "20"), "read"),
    ("recover", ("--seed", "1"), "read"),
    ("recover", ("--gamma", "7"), "refused"),
    ("recover-fzc", ("--gamma", "3"), "read"),
    ("exp-ofdm", ("--seq", "golay", "--n", "256", "--m", "48", "--k", "6"),
     "read"),
    ("exp-ofdm", ("--seed", "1"), "read"),
    ("exp-ofdm", ("--n", "256"), "refused"),
    ("exp-ofdm", ("--m", "48"), "refused"),
    ("exp-ofdm", ("--k", "6"), "refused"),
    ("exp-ofdm", ("--snr-list", "20"), "refused"),
    ("exp-ofdm", ("--solver", "omp"), "refused"),
    ("exp-ofdm", ("--gamma", "3"), "refused"),
    ("exp-ofdm", ("--trials", "2"), "refused"),
    ("exp-ofdm-seq", ("--n", "260"), "read"),
    ("exp-ofdm-seq", ("--m", "40"), "read"),
    ("exp-ofdm-seq", ("--k", "5"), "read"),
    ("exp-ofdm-seq", ("--seq", "fzc"), "read"),
    ("exp-ofdm-seq", ("--solver", "omp"), "read"),
    ("exp-ofdm-seq", ("--snr-list", "10"), "read"),
    ("exp-ofdm-seq", ("--trials", "3"), "read"),
    ("exp-ofdm-seq", ("--seed", "1"), "read"),
    ("exp-ofdm-seq", ("--gamma", "7"), "refused"),
    ("exp-ofdm-seq-fzc", ("--gamma", "3"), "read"),
    ("exp-phase", ("--n", "128"), "read"),
    ("exp-phase", ("--k", "3"), "read"),
    ("exp-phase", ("--m", "20"), "read"),
    ("exp-phase", ("--seq", "fzc"), "read"),
    ("exp-phase", ("--solver", "omp"), "read"),
    ("exp-phase", ("--trials", "4"), "read"),
    ("exp-phase", ("--seed", "1"), "read"),
    ("exp-phase", ("--basis", "inverse_fourier"), "read"),
    ("exp-phase", ("--gamma", "7"), "refused"),
    ("exp-phase-fzc", ("--gamma", "3"), "read"),
    ("exp-dct", ("--n", "128"), "read"),
    ("exp-dct", ("--m", "32"), "read"),
    ("exp-dct", ("--k", "3"), "read"),
    ("exp-dct", ("--seq", "golay"), "read"),
    ("exp-dct", ("--gamma", "3"), "read"),
    ("exp-dct", ("--solver", "omp"), "read"),
    ("exp-dct", ("--trials", "3"), "read"),
    ("exp-dct", ("--seed", "1"), "read"),
    ("exp-dct", ("--image", "PGM"), "read"),
    ("exp-dct-golay", ("--gamma", "7"), "refused"),
] + [(mode, flag, "read") for mode in ("gen-seq", "coherence",
                                       "gauss-audit", "papr", "papr-seq",
                                       "recover", "exp-ofdm",
                                       "exp-ofdm-seq", "exp-phase", "exp-dct")
     for flag in _SHARED]

_BASE_RUNS = {}


def _flag_run(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("mode, flag, expect", _FLAG_CASES, ids=[
    f"{mode}{flag[0]}" for mode, flag, _ in _FLAG_CASES])
def test_every_flag_changes_its_run_or_is_refused(capsys, monkeypatch,
                                                  tmp_path, mode, flag,
                                                  expect):
    # the reference runs at 2 trials here: what it reads does not depend
    # on its trial count, and test_exp_ofdm_benchmark_mode runs all 500
    monkeypatch.setattr(cli, "ofdm_reference_config", functools.partial(
        ofdm_reference_config, trials=2))
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(b"P5\n8 8\n255\n" + bytes(range(0, 256, 4)))
    extra = [{"DIR": str(tmp_path / "out"), "PGM": str(pgm)}.get(tok, tok)
             for tok in flag]
    code, out, err = _flag_run(capsys, _MODES[mode] + tuple(extra))
    if expect == "refused":
        assert code == 2 and flag[0] in err, err
        return
    if mode not in _BASE_RUNS:
        _BASE_RUNS[mode] = _flag_run(capsys, _MODES[mode])
    assert code in (0, 1) and _BASE_RUNS[mode][0] in (0, 1), err
    assert out != _BASE_RUNS[mode][1]


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
