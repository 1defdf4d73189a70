"""Coherence computations against dense-matrix evaluation."""

import hashlib
import math

import numpy as np
import pytest

import oracles
from convsense import coherence, sequences as seqs
from convsense.coherence import (CoherenceReport, coherence_circulant,
                                 autocorrelation_bound_check,
                                 mutual_coherence, bound_table_csv,
                                 bound_table_report, coherence_row,
                                 dct_coherence_report)
from convsense.operators import Basis, CirculantOperator


def test_coherence_is_max_filter_entry():
    a = CirculantOperator.from_spectrum(seqs.golay(26))
    dense = oracles.circulant_from_filter(a.filter)
    # every column of the circulant holds the same entries, so the
    # largest matrix entry is the largest filter entry
    assert coherence_circulant(a) == pytest.approx(
        np.max(np.abs(dense)), abs=1e-12)


@pytest.mark.parametrize("basis_kind", ["inverse_fourier", "inverse_dct2"])
def test_mutual_coherence_matches_dense(basis_kind):
    # two column blocks, the second one partial
    n = 200
    assert n > coherence._COLUMN_BLOCK and n % coherence._COLUMN_BLOCK
    a = CirculantOperator.from_spectrum(seqs.fzc(n, 3))
    psi = Basis(basis_kind)
    want = np.max(np.abs(oracles.circulant_from_filter(a.filter)
                         @ oracles.basis_matrix(basis_kind, n)))
    assert mutual_coherence(a, psi) == pytest.approx(want, rel=1e-10)


def test_fourier_basis_coherence_is_one_for_unimodular():
    # A @ InverseFourier has every entry magnitude exactly |sigma_q|
    a = CirculantOperator.from_spectrum(seqs.extended_polyphase(30))
    assert mutual_coherence(a, Basis("inverse_fourier")) == pytest.approx(
        1.0, abs=1e-10)


@pytest.mark.parametrize("build", [lambda: seqs.fzc(64, 1),
                                   lambda: seqs.legendre(31),
                                   lambda: seqs.random_phase(128, 0)])
def test_autocorrelation_bound_holds(build):
    rep = autocorrelation_bound_check(build())
    assert rep.passed
    assert rep.mu_observed <= rep.bound + 1e-9


# ---------------------------------------------------------------------------
# bound table rows
# ---------------------------------------------------------------------------

def test_bound_table_rows_pass_and_label_bounds():
    sizes = {"fzc": [64, 255], "m_sequence": [31, 127],
             "golay": [20, 52], "extended_polyphase": [100, 101],
             "extended_golay": [52, 53]}
    reports = bound_table_report(sizes)
    assert len(reports) == 10
    by_kind = {}
    for r in reports:
        assert r.passed, (r.kind, r.n, r.mu_observed, r.bound)
        by_kind.setdefault(r.kind, []).append(r)
    assert by_kind["fzc"][0].bound == 1.0
    assert by_kind["m_sequence"][0].bound == pytest.approx(
        math.sqrt(1 + 1 / 31))
    assert by_kind["golay"][0].bound == pytest.approx(math.sqrt(2))
    # parity selects the extended bounds
    even, odd = by_kind["extended_polyphase"]
    assert even.bound == pytest.approx(4 + 4 / math.sqrt(100))
    assert odd.bound == pytest.approx(2.69 + 8.15 / math.sqrt(101))
    geven, godd = by_kind["extended_golay"]
    assert geven.bound == pytest.approx(2 + 2 / math.sqrt(52))
    assert godd.bound == pytest.approx(2 + 1 / math.sqrt(53))


# sha256 of the Golay-path certify outputs, rendered as the benchmark's
# certify workload renders them; the same bytes are its pinned round-0
# digests
_GOLAY_CERTIFY_SHA256 = {
    "bound_table.golay.csv":
        "d80de3a0696b4ce65f673194d46851ef18932768b35ed07d9d3d2e2860771e04",
    "bound_table.extended_golay.csv":
        "c9fca447418d44447403bcc540355836cc91cb831c3e2497c2ebae25e17c7ed0",
    "classify.golay.16384.txt":
        "98f8b6e3f5b151af9782a654bdeda91eb3c077797b8c55dcd0ee58c41708eb21",
    "classify.extended_golay.32769.txt":
        "23851f6013ca9ed3524dd04c3f3047ed9a97cad79de15102a34e40f0719f5b8d",
}


def test_golay_certify_bytes_pinned():
    texts = {}
    for kind, sizes in (("golay", (16384,)),
                        ("extended_golay", (32768, 32769))):
        texts[f"bound_table.{kind}.csv"] = bound_table_csv(
            bound_table_report({kind: sizes}))
    for kind, n in (("golay", 16384), ("extended_golay", 32769)):
        rep = seqs.classify(getattr(seqs, kind)(n))
        texts[f"classify.{kind}.{n}.txt"] = "%s,%d,%s,%.12g,%s\n" % (
            kind, n, rep.label, rep.epsilon_observed, rep.claim_consistent)
    got = {name: hashlib.sha256(text.encode()).hexdigest()
           for name, text in texts.items()}
    assert got == _GOLAY_CERTIFY_SHA256


def test_fzc_coherence_exactly_one():
    for n, g in [(64, 1), (255, 2), (256, 3)]:
        rep = coherence_row("fzc", n, {"gamma": g})
        assert rep.mu_observed == pytest.approx(1.0, abs=1e-10)


def test_pass_slack_is_rounding_and_no_more():
    # an observed coherence is an FFT-computed maximum: on the audited
    # rows that meet their bound it reads at most 7e-16 above it, so 1e-9
    # of slack passes every rounding, and a row 1e-8 over its bound,
    # thousands of times any rounding, fails
    for bound in (1.0, 1.0 + 1.0 / 127, 6.0 * math.sqrt(2.0)):
        def row(mu):
            return CoherenceReport(kind="fzc", n=64, mu_observed=mu,
                                   bound=bound, bound_label="test")
        assert row(bound + 1e-9).passed
        assert not row(bound + 1e-8).passed
    excess = max(r.mu_observed - r.bound for r in bound_table_report(
        {"fzc": (255, 1024), "m_sequence": (127, 511)}))
    assert excess <= 1e-12


def test_inadmissible_sizes_are_refused_with_the_family_reason():
    with pytest.raises(ValueError, match=r"^N=12 is not of the form "):
        bound_table_report({"golay": [12]})
    # one outcome for every family and basis: the registry's reason
    for kind, fam in seqs.FAMILIES.items():
        params = {"seed": 1} if fam.random else {}
        sizes = [n for n in range(40) if fam.admissible(n, params)]
        assert sizes, kind
        for n in sizes:
            for basis in ("identity", "inverse_fourier"):
                with pytest.raises(ValueError) as err:
                    coherence_row(kind, n, params, basis)
                assert str(err.value) == fam.admissible(n, params)


def test_dct_coherence_rows():
    reports = dct_coherence_report([64, 256], gammas=[1, 3])
    for r in reports:
        assert r.bound == pytest.approx(6 * math.sqrt(2))
        assert r.passed
    # a non-coprime pair is refused with the FZC family's reason
    with pytest.raises(ValueError, match=r"^gcd\(gamma=2, N=64\) != 1$"):
        dct_coherence_report([64], gammas=[2])


@pytest.mark.parametrize("gammas, as_list", [
    (np.int64(3), [3]), (np.array(3), [3]),
    (np.array([1, 3], dtype=np.int32), [1, 3]),
])
def test_dct_coherence_report_takes_numpy_integers(gammas, as_list):
    assert bound_table_csv(dct_coherence_report([64], gammas)) == \
        bound_table_csv(dct_coherence_report([64], as_list))
    with pytest.raises(TypeError):
        dct_coherence_report([64], 2.5)


def test_coherence_row_labels_and_bounds():
    rep = coherence_row("golay", 52, {})
    assert (rep.kind, rep.bound, rep.bound_label) == ("golay", math.sqrt(2),
                                                      "sqrt(2)")
    rep = coherence_row("fzc", 64, {"gamma": 3}, "inverse_dct2")
    assert rep.kind == "fzc(gamma=3)+inverse_dct2"
    assert rep.bound == 6 * math.sqrt(2) and rep.passed
    for kind, basis, label in (("legendre", "identity", "legendre"),
                               ("golay", "inverse_fourier",
                                "golay+inverse_fourier")):
        rep = coherence_row(kind, 52 if kind == "golay" else 31, {}, basis)
        assert rep.kind == label and rep.bound == math.inf and rep.passed
    # admissibility is decided before the bound: the extended-polyphase
    # bound divides by sqrt(N), and N=0 is refused by the registry
    for basis in ("identity", "inverse_fourier"):
        with pytest.raises(ValueError, match="^N must be >= 2$"):
            coherence_row("extended_polyphase", 0, {}, basis)


def test_coherence_row_refuses_an_unknown_basis_before_admissibility():
    # N=7 is no Golay length: the basis is refused, not the length
    with pytest.raises(ValueError, match="unknown basis 'bogus'"):
        coherence_row("golay", 7, {}, "bogus")


@pytest.mark.parametrize("kind, params, basis, key", [
    ("golay", {"gamma": 7}, "identity", "gamma"),
    ("fzc", {"gamma": 3, "seed": 9}, "inverse_dct2", "seed"),
    ("random_phase", {"seed": 4, "bogus": 1}, "identity", "bogus"),
])
def test_coherence_row_refuses_a_param_its_family_does_not_read(
        kind, params, basis, key):
    # the row would be labelled or built as if the param took effect
    with pytest.raises(ValueError, match=f"params key '{key}' is not read"):
        coherence_row(kind, 64, params, basis)


def test_dct_coherence_matches_dense():
    n = 32
    rep = dct_coherence_report([n], gammas=1)[0]
    a = CirculantOperator.from_spectrum(seqs.fzc(n, 1))
    want = np.max(np.abs(oracles.circulant_from_filter(a.filter)
                         @ oracles.idct2_matrix(n)))
    assert rep.mu_observed == pytest.approx(want, rel=1e-10)


def test_csv_schema():
    text = bound_table_csv(bound_table_report({"golay": [20]}))
    lines = text.splitlines()
    assert lines[0] == "kind,N,mu_observed,bound,margin,pass"
    cells = lines[1].split(",")
    assert cells[0] == "golay" and cells[1] == "20"
    assert cells[5] in ("true", "false")
