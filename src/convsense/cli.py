"""Command-line interface.

Subcommands
-----------
gen-seq      generate a sequence and classify its autocorrelation
coherence    coherence of one circulant (optionally against a basis)
gauss-audit  exponential-sum identity and bound audit
papr         peak-to-average power ratio audit (or one sequence)
recover      one synthetic sparse-recovery run
exp-ofdm     sparse channel estimation benchmark
exp-phase    noiseless phase-transition grid
exp-dct      DCT-domain recovery vs. the deterministic-sampling baseline

Exit codes: 0 all checks passed, 1 a bound/acceptance check failed,
2 usage error (argparse errors exit 2 as well).

Every CSV/JSON schema emitted here is frozen in docs/formats.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import List, Optional

import numpy as np

from . import sequences as seqs
from .coherence import (CoherenceReport, coherence_circulant,
                        mutual_coherence, bound_table_report, bound_table_csv,
                        dct_coherence_report)
from .harness import (ExperimentConfig, REFERENCE_OFDM_OUTPUT_SNR_DB,
                      audit_gauss, audit_papr, ofdm_reference_config,
                      papr as papr_of, run_dct_experiment,
                      run_ofdm_experiment, run_phase_transition,
                      _add_noise, _rel_error, _solve, _sparse_signal)
from .operators import (Basis, SensingOperator, build_circulant,
                        random_sampling, _BASIS_KINDS, _csv, vector_to_csv)
from .recovery import SOLVERS

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_REFERENCE_TOL_DB = 3.0


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _seq_params(args) -> dict:
    """--gamma and --seed as family build params (a random family reads
    the seed only when it is not given a Generator)."""
    return {"gamma": args.gamma, "seed": args.seed}


def _experiment_config(args, experiment: str, kind: str, trials: int,
                       **fields) -> ExperimentConfig:
    """Config from the shared flags.  Only families that read gamma record
    it in sequence_params, and so in the config hash."""
    fam = seqs.family(kind)
    params = {"gamma": args.gamma} if "gamma" in fam.params else {}
    return ExperimentConfig(
        experiment=experiment, n=args.n, sequence_kind=kind,
        sequence_params=params, solver=args.solver,
        trials=args.trials or trials, master_seed=args.seed, **fields)


def _write(out_dir: Optional[str], name: str, text: str) -> None:
    """Write `text` to out_dir/name, or to stdout when no directory."""
    if out_dir is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


_INT_RE = re.compile(r"^-?\d+$")


def _cell_value(text: str):
    """CSV cell -> JSON value (ints, floats, booleans; inf/nan stay
    strings so the JSON remains strictly parseable)."""
    if text in ("true", "false"):
        return text == "true"
    if _INT_RE.match(text):
        return int(text)
    try:
        v = float(text)
    except ValueError:
        return text
    return text if math.isinf(v) or math.isnan(v) else v


def _csv_to_rows(csv_text: str) -> List[dict]:
    lines = [ln for ln in csv_text.splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, (_cell_value(c) for c in ln.split(","))))
            for ln in lines[1:]]


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _parse_float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _emit(args, name: str, csv_text: str, payload=None,
          csv_name: Optional[str] = None) -> None:
    """--format csv writes csv_text as <csv_name or name>.csv; json writes
    payload (default: the CSV rows) as <name>.json."""
    if args.format == "csv":
        _write(args.out, f"{csv_name or name}.csv", csv_text)
    else:
        _write(args.out, f"{name}.json", _json_dump(
            _csv_to_rows(csv_text) if payload is None else payload))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_seq(args) -> int:
    s = seqs.family(args.seq).build(args.n, _seq_params(args))
    rep = seqs.classify(s)
    payload = {
        "kind": s.kind.value,
        "n": int(s.values.size),
        "params": {k: _cell_value(str(v)) for k, v in s.params.items()},
        "label": rep.label,
        "epsilon_observed": rep.epsilon_observed,
        "claim_consistent": rep.claim_consistent,
        "values": [[float(v.real), float(v.imag)] for v in s.values],
    }
    _emit(args, "sequence", vector_to_csv(s.values), payload)
    print(f"{s.kind.value} N={s.values.size}: {rep.label}, "
          f"epsilon_observed={rep.epsilon_observed:.6g}", file=sys.stderr)
    if rep.claim_consistent is False:
        return EXIT_VIOLATION
    return EXIT_OK


def _coherence_report(args) -> CoherenceReport:
    if args.basis == "identity" and seqs.family(args.seq).bound is not None:
        rep = bound_table_report({args.seq: [args.n]}, fzc_gamma=args.gamma)[0]
    elif args.basis == "inverse_dct2" and args.seq == "fzc":
        rep = dct_coherence_report([args.n], gammas=args.gamma)[0]
    else:
        # no closed bound for this combination: informational row (bound inf)
        a = build_circulant(args.seq, args.n, _seq_params(args))
        if args.basis == "identity":
            mu, kind = coherence_circulant(a), args.seq
        else:
            mu = mutual_coherence(a, Basis(args.basis))
            kind = f"{args.seq}+{args.basis}"
        rep = CoherenceReport(kind=kind, n=args.n, mu_observed=mu,
                              bound=math.inf, bound_label="",
                              note="no closed bound for this combination")
    if rep.skipped:
        raise ValueError(rep.note)
    return rep


def _cmd_coherence(args) -> int:
    rep = _coherence_report(args)
    _emit(args, "coherence", bound_table_csv([rep]))
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _cmd_gauss_audit(args) -> int:
    res = audit_gauss(closed_form_max=args.n or 4096)
    _emit(args, "gauss_audit", res.csv, {
        "ok": res.ok, "failures": list(res.failures),
        "rows": _csv_to_rows(res.csv)})
    return EXIT_OK if res.ok else EXIT_VIOLATION


def _cmd_papr(args) -> int:
    if args.seq is None:
        res = audit_papr(random_seeds=args.trials or 100)
        csv_text, ok = res.csv, res.ok
    else:
        if args.n is None:
            raise ValueError("--n is required with --seq")
        s = seqs.family(args.seq).build(args.n, _seq_params(args))
        value = papr_of(s.values)
        csv_text = _csv(["kind", "N", "oversample", "papr"],
                        [[args.seq, args.n, 16, value]])
        ok = value <= 2.01 if args.seq == "golay" else True
    _emit(args, "papr", csv_text)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_recover(args) -> int:
    """One synthetic recovery per SNR (noiseless when --snr-list is
    omitted).  Draw order per run: sampling, spectrum (random kinds),
    support, values, noise.  Solves are posed as in the experiments (FISTA
    with lambda = 1e-4 * max|Theta^* y|).  Noiseless failure (rel error
    > 1e-4) is an acceptance violation."""
    cfg = ExperimentConfig(experiment="recover", n=args.n, m=args.m,
                           k=args.k, sequence_kind=args.seq,
                           solver=args.solver)
    rng = np.random.default_rng(args.seed)
    samp = random_sampling(args.n, args.m, rng)
    circ = build_circulant(args.seq, args.n, _seq_params(args), rng)
    theta = SensingOperator(circ, samp, Basis(args.basis))
    f, support = _sparse_signal(rng, args.n, args.k, zero_mean=False)
    y0 = theta.forward(f)
    rows, ok = [], True
    for snr in args.snr_list or [None]:
        y = y0 if snr is None else _add_noise(rng, y0, snr)
        result = _solve(cfg, theta, y)
        rel = _rel_error(f, result.f_hat)
        if snr is None and rel > 1e-4:
            ok = False
        rows.append([math.inf if snr is None else snr, args.solver, rel,
                     set(result.support.tolist()) == set(support.tolist()),
                     result.iterations, result.converged])
    _emit(args, "recover", _csv(["input_snr_db", "solver", "rel_error",
                                 "support_exact", "iterations", "converged"],
                                rows))
    return EXIT_OK if ok else EXIT_VIOLATION


def _reference_violations(scheme: str, rows) -> List[str]:
    ref = REFERENCE_OFDM_OUTPUT_SNR_DB[scheme]
    out = []
    for row in rows:
        target = ref.get(row.input_snr_db)
        if target is None:
            continue
        diff = row.mean_output_snr_db - target
        if abs(diff) > _REFERENCE_TOL_DB:
            out.append(f"{scheme} @ {row.input_snr_db:g} dB: "
                       f"{row.mean_output_snr_db:.2f} vs {target:.2f} "
                       f"(diff {diff:+.2f})")
    return out


def _concat_csv(blocks: List[str]) -> str:
    """CSV blocks with one shared header concatenated under it."""
    body = [ln for blk in blocks for ln in blk.splitlines()[1:]]
    return "\n".join([blocks[0].splitlines()[0]] + body) + "\n"


def _cmd_exp_ofdm(args) -> int:
    if args.seq is None:
        # benchmark mode: both reference schemes, checked to +/-3 dB
        cfgs = [ofdm_reference_config(scheme=scheme,
                                      trials=args.trials or 500,
                                      master_seed=args.seed)
                for scheme in ("proposed", "baseline")]
    else:
        # custom mode: one scheme, reported without a reference check
        mode = "equispaced" if args.seq == "random_phase" else "random"
        cfgs = [_experiment_config(
            args, "ofdm", args.seq, 100, m=args.m, k=args.k,
            snr_list=tuple(args.snr_list or (0.0, 10.0, 20.0, 30.0)),
            sampling_mode=mode, extra={"real_taps": True})]
    reports = [run_ofdm_experiment(cfg) for cfg in cfgs]
    violations = []
    if args.seq is None:
        payload = {"schemes": [], "tolerance_db": _REFERENCE_TOL_DB,
                   "violations": violations}
        for scheme, cfg, report in zip(("proposed", "baseline"), cfgs,
                                       reports):
            key = f"{cfg.sequence_kind}+{cfg.sampling_mode}"
            violations += _reference_violations(key, report.rows)
            payload["schemes"].append({
                "scheme": scheme,
                "config": json.loads(cfg.canonical_json()),
                "rows": _csv_to_rows(report.summary_csv()),
                "reference_output_snr_db": REFERENCE_OFDM_OUTPUT_SNR_DB[key],
            })
    else:
        payload = {"config": json.loads(cfgs[0].canonical_json()),
                   "rows": _csv_to_rows(reports[0].summary_csv())}
    _emit(args, "ofdm", _concat_csv([r.summary_csv() for r in reports]),
          payload, csv_name="ofdm_summary")
    if args.format == "csv" and args.out is not None:
        _write(args.out, "ofdm_trials.csv",
               _concat_csv([r.trials_csv() for r in reports]))
    for v in violations:
        print("violation:", v, file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_exp_phase(args) -> int:
    cfg = _experiment_config(
        args, "phase", args.seq or "golay", 50, m=args.m_list[0],
        k=args.k_list[0], extra={"k_grid": args.k_list,
                                 "m_grid": args.m_list,
                                 "bases": args.basis_list})
    report = run_phase_transition(cfg)
    _emit(args, "phase", report.csv(), {
        "config": json.loads(cfg.canonical_json()),
        "cells": _csv_to_rows(report.csv())})
    return EXIT_OK


def _cmd_exp_dct(args) -> int:
    extra = {}
    if args.image is not None:
        extra["image"] = args.image
    cfg = _experiment_config(args, "dct", args.seq or "fzc", 100, m=args.m,
                             k=args.k, basis="inverse_dct2", extra=extra)
    report = run_dct_experiment(cfg)
    _emit(args, "dct", report.csv(), {
        "config": json.loads(cfg.canonical_json()),
        "rows": _csv_to_rows(report.csv()),
        "sign_test_p": report.sign_test_p})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "n" in names:
        p.add_argument("--n", type=int, help="vector length N")
    if "m" in names:
        p.add_argument("--m", type=int, help="number of measurements M")
    if "k" in names:
        p.add_argument("--k", type=int, help="sparsity K")
    if "seq" in names:
        p.add_argument("--seq", choices=tuple(seqs.FAMILIES),
                       help="sequence family")
    if "gamma" in names:
        p.add_argument("--gamma", type=int, default=1,
                       help="fzc root parameter (coprime with N)")
    if "basis" in names:
        p.add_argument("--basis", default="identity", choices=_BASIS_KINDS,
                       help="sparsity basis")
    if "solver" in names:
        p.add_argument("--solver", default="sp", choices=sorted(SOLVERS),
                       help="recovery solver")
    if "snr-list" in names:
        p.add_argument("--snr-list", type=_parse_float_list, default=None,
                       metavar="DB[,DB...]", dest="snr_list",
                       help="input SNRs in dB (omit for noiseless)")
    if "trials" in names:
        p.add_argument("--trials", type=int, default=None,
                       help="number of Monte Carlo trials")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write outputs into DIR instead of stdout")
    p.add_argument("--format", default="csv", choices=("csv", "json"),
                   help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsense",
        description="Deterministic-sequence convolutional compressed "
                    "sensing: sequences, coherence audits, recovery, "
                    "experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-seq", help="generate and classify a sequence")
    _add_common(p, "n", "seq", "gamma", "seed")
    p.set_defaults(func=_cmd_gen_seq, require=("n", "seq"))

    p = sub.add_parser("coherence", help="coherence vs. its closed bound")
    _add_common(p, "n", "seq", "gamma", "basis", "seed")
    p.set_defaults(func=_cmd_coherence, require=("n", "seq"))

    p = sub.add_parser("gauss-audit",
                       help="exponential-sum identities and bounds")
    _add_common(p, "n")
    p.set_defaults(func=_cmd_gauss_audit, require=())

    p = sub.add_parser("papr", help="peak-to-average power ratio")
    _add_common(p, "n", "seq", "gamma", "trials", "seed")
    p.set_defaults(func=_cmd_papr, require=())

    p = sub.add_parser("recover", help="one synthetic recovery run")
    _add_common(p, "n", "m", "k", "seq", "gamma", "basis", "solver",
                "snr-list", "seed")
    p.set_defaults(func=_cmd_recover, require=("n", "m", "k", "seq"))

    p = sub.add_parser("exp-ofdm", help="sparse channel estimation "
                       "benchmark (no --seq: both reference schemes, "
                       "checked to +/-3 dB)")
    _add_common(p, "n", "m", "k", "seq", "gamma", "solver", "snr-list",
                "trials", "seed")
    p.set_defaults(func=_cmd_exp_ofdm, require=())

    p = sub.add_parser("exp-phase", help="noiseless phase-transition grid "
                       "(--k/--m/--basis accept comma lists)")
    _add_common(p, "n", "seq", "gamma", "solver", "trials", "seed")
    p.add_argument("--k", type=_parse_int_list, dest="k_list",
                   metavar="K[,K...]", required=True)
    p.add_argument("--m", type=_parse_int_list, dest="m_list",
                   metavar="M[,M...]", required=True)
    p.add_argument("--basis", type=lambda s: s.split(","),
                   dest="basis_list", default=["identity"],
                   metavar="B[,B...]")
    p.set_defaults(func=_cmd_exp_phase, require=("n",))

    p = sub.add_parser("exp-dct", help="DCT-domain recovery vs. baseline")
    _add_common(p, "n", "m", "k", "seq", "gamma", "solver", "trials",
                "seed")
    p.add_argument("--image", default=None, metavar="PGM",
                   help="measure this 8-bit PGM instead of synthetic "
                        "sparse signals")
    p.set_defaults(func=_cmd_exp_dct, require=("n", "m", "k"))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    missing = [f"--{name}" for name in args.require
               if getattr(args, name, None) is None]
    if missing:
        print(f"error: {args.command} requires {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
