"""CLI subcommands run in-process: exit codes, schemas, file output."""

import json
import os

import numpy as np
import pytest

from convsense.cli import main
from convsense.operators import vector_from_csv
from convsense.sequences import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# gen-seq
# ---------------------------------------------------------------------------

def test_gen_seq_csv_round_trip(capsys):
    code, out, err = run(capsys, "gen-seq", "--seq", "fzc", "--n", "16")
    assert code == 0
    v = vector_from_csv(out)
    assert v.size == 16 and np.allclose(np.abs(v), 1.0)
    assert "perfect" in err


def test_gen_seq_json(capsys):
    code, out, _ = run(capsys, "gen-seq", "--seq", "golay", "--n", "20",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "golay" and doc["n"] == 20
    assert len(doc["values"]) == 20


def test_gen_seq_missing_flags(capsys):
    code, _, err = run(capsys, "gen-seq", "--seq", "fzc")
    assert code == 2 and "--n" in err


def test_gen_seq_bad_size(capsys):
    code, _, err = run(capsys, "gen-seq", "--seq", "golay", "--n", "12")
    assert code == 2 and "error" in err


def test_gen_seq_writes_file(capsys, tmp_path):
    out_dir = str(tmp_path / "artifacts")
    code, out, _ = run(capsys, "gen-seq", "--seq", "legendre", "--n", "31",
                       "--out", out_dir)
    assert code == 0
    path = os.path.join(out_dir, "sequence.csv")
    assert out.strip() == path and os.path.exists(path)
    with open(path) as fh:
        assert vector_from_csv(fh.read()).size == 31


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
    # FISTA needs lambda > 0; recover poses it as the experiments do
    code, out, err = run(capsys, "recover", "--n", "256", "--m", "64",
                         "--k", "5", "--seq", "fzc", "--solver", "fista")
    assert code in (0, 1), err
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].split(",")[:2] == ["inf", "fista"]


def test_recover_infeasible_shape_is_usage_error(capsys):
    code, _, err = run(capsys, "recover", "--n", "64", "--m", "16",
                       "--k", "12", "--seq", "fzc", "--solver", "sp")
    assert code == 2 and "2K" in err


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


def test_exp_phase_grid(capsys):
    code, out, _ = run(capsys, "exp-phase", "--n", "64", "--k", "2,4",
                       "--m", "16,32", "--seq", "golay", "--trials", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("config_hash,sequence_kind,basis,k,m,trials,"
                        "successes,success_rate")
    assert len(lines) == 5


def test_exp_dct(capsys):
    code, out, _ = run(capsys, "exp-dct", "--n", "128", "--m", "48",
                       "--k", "6", "--trials", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert "fzc+random" in lines[1]
    assert "random_phase+equispaced" in lines[2]


def test_exp_dct_image(capsys, tmp_path):
    pixels = np.linspace(0, 255, 64).astype(np.uint8).reshape(8, 8)
    path = os.path.join(tmp_path, "img.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n8 8\n255\n" + pixels.tobytes())
    code, out, _ = run(capsys, "exp-dct", "--n", "64", "--m", "32",
                       "--k", "6", "--trials", "4", "--image", path)
    assert code == 0 and len(out.splitlines()) == 3


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
