"""Command-line interface: one subcommand per entry of ``_COMMANDS``.

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

from . import sequences as seqs
from .coherence import bound_table_csv, coherence_row
from .harness import (ExperimentConfig, REFERENCE_OFDM_OUTPUT_SNR_DB,
                      REFERENCE_OFDM_TOL_DB, audit_gauss, audit_papr,
                      audit_papr_sequence, ofdm_config,
                      ofdm_reference_config, run_dct_experiment,
                      run_ofdm_experiment, run_phase_transition, run_recover,
                      _grid_reason)
from .operators import _BASIS_KINDS, Basis, vector_to_csv
from .recovery import SOLVERS

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _check_flags(args, what: str, needs=(), unread=None) -> None:
    """Refuse a run (usage error) that lacks a flag it needs, or that sets
    one it does not read (``unread``: dest -> default) off its default."""
    missing = ["--" + dest for dest in needs if getattr(args, dest) is None]
    ignored = ["--" + dest.replace("_", "-")
               for dest, default in (unread or {}).items()
               if getattr(args, dest) != default]
    problems = [f"{verb} {', '.join(flags)}" for verb, flags in (
        ("requires", missing), ("does not read", ignored)) if flags]
    if problems:
        raise ValueError(f"{what} {' and '.join(problems)}")


def _defaults(*dests: str) -> dict:
    """``_check_flags``'s ``unread``: each flag at its parser default."""
    return {dest: _COMMON_FLAGS[dest.replace("_", "-")].get("default")
            for dest in dests}


def _given(**kwargs) -> dict:
    """The arguments whose flags were set: the library's defaults stand."""
    return {key: val for key, val in kwargs.items() if val is not None}


def _seq_params(args, kind: str, flags=("gamma", "seed")) -> dict:
    """Family `kind`'s params from the `flags` it reads; others default."""
    reads = seqs.family(kind).reads()
    _check_flags(args, f"the {kind!r} family", unread=_defaults(
        *(flag for flag in flags if flag not in reads)))
    return {flag: getattr(args, flag) for flag in flags if flag in reads}


def _experiment_config(args, kind: str, make=ExperimentConfig,
                       **fields) -> ExperimentConfig:
    """``make``'s config from the shared flags; --seed is the master seed.
    A K or M outside [1, N] is refused naming its flag."""
    for key in ("k", "m"):
        grid = fields.get("extra", {}).get(f"{key}_grid", [fields[key]])
        reason = _grid_reason(key.upper(), grid, args.n)
        if reason is not None:
            raise ValueError(f"argument --{key}: {reason}")
    return make(n=args.n, sequence_kind=kind,
                sequence_params=_seq_params(args, kind, ("gamma",)),
                solver=args.solver, master_seed=args.seed, **fields)


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


def _count(text: str) -> int:
    """A count flag: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _list_of(convert, what: str):
    """A comma-list flag type: at least one value, each ``convert``ed."""
    def parse(text: str) -> list:
        try:
            values = [convert(tok) for tok in text.split(",") if tok]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {what}")
        return values
    return parse


def _emit(args, name: str, csv_text: str, payload=None,
          csv_name: Optional[str] = None) -> None:
    """--format csv writes csv_text as <csv_name or name>.csv; json writes
    payload (default: the CSV rows) as <name>.json."""
    if args.format == "csv":
        _write(args.out, f"{csv_name or name}.csv", csv_text)
    else:
        _write(args.out, f"{name}.json", json.dumps(
            _csv_to_rows(csv_text) if payload is None else payload,
            indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_seq(args) -> int:
    s = seqs.family(args.seq).build(args.n, _seq_params(args, args.seq))
    rep = seqs.classify(s)
    payload = {
        "kind": s.kind,
        "n": int(s.values.size),
        "params": {k: _cell_value(str(v)) for k, v in s.params.items()},
        "label": rep.label,
        "epsilon_observed": rep.epsilon_observed,
        "claim_consistent": rep.claim_consistent,
        "values": [[float(v.real), float(v.imag)] for v in s.values],
    }
    _emit(args, "sequence", vector_to_csv(s.values), payload)
    print(f"{s.kind} N={s.values.size}: {rep.label}, "
          f"epsilon_observed={rep.epsilon_observed:.6g}", file=sys.stderr)
    if rep.claim_consistent is False:
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_coherence(args) -> int:
    rep = coherence_row(args.seq, args.n, _seq_params(args, args.seq),
                        args.basis)
    _emit(args, "coherence", bound_table_csv([rep]))
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _cmd_gauss_audit(args) -> int:
    res = audit_gauss(**_given(closed_form_max=args.n))
    _emit(args, "gauss_audit", res.csv, {
        "ok": res.ok, "failures": list(res.failures),
        "rows": _csv_to_rows(res.csv)})
    return EXIT_OK if res.ok else EXIT_VIOLATION


def _cmd_papr(args) -> int:
    if args.seq is None:
        _check_flags(args, "papr without --seq",
                     unread=_defaults("n", "gamma", "seed"))
        res = audit_papr(**_given(random_seeds=args.trials))
    else:
        _check_flags(args, "papr --seq", needs=("n",),
                     unread={"trials": None})
        res = audit_papr_sequence(args.seq, args.n,
                                  _seq_params(args, args.seq))
    _emit(args, "papr", res.csv)
    return EXIT_OK if res.ok else EXIT_VIOLATION


def _cmd_recover(args) -> int:
    # a noiseless run that fails is an acceptance violation
    csv_text, ok = run_recover(_experiment_config(
        args, args.seq, experiment="recover", m=args.m, k=args.k,
        basis=args.basis, snr_list=tuple(args.snr_list or ())))
    _emit(args, "recover", csv_text)
    return EXIT_OK if ok else EXIT_VIOLATION


def _concat_csv(blocks: List[str]) -> str:
    """CSV blocks with one shared header concatenated under it."""
    body = [ln for blk in blocks for ln in blk.splitlines()[1:]]
    return "\n".join([blocks[0].splitlines()[0]] + body) + "\n"


def _cmd_exp_ofdm(args) -> int:
    if args.seq is None:
        # benchmark mode: both reference schemes, checked to +/-3 dB
        # the bands were set for the reference as it stands, 500 trials
        # included, so every flag that would change it is refused
        cfgs = [ofdm_reference_config(scheme=scheme, master_seed=args.seed)
                for scheme in ("proposed", "baseline")]
        _check_flags(args, "exp-ofdm without --seq", unread=_defaults(
            "n", "m", "k", "snr_list", "solver", "gamma", "trials"))
    else:
        # custom mode: one scheme, reported without a reference check
        _check_flags(args, "exp-ofdm --seq", needs=("n", "m", "k"))
        cfgs = [_experiment_config(args, args.seq, ofdm_config, m=args.m,
                                   k=args.k, snr_list=args.snr_list,
                                   **_given(trials=args.trials))]
    reports = [run_ofdm_experiment(cfg) for cfg in cfgs]
    docs = [{"config": json.loads(r.config.canonical_json()),
             "rows": _csv_to_rows(r.summary_csv())} for r in reports]
    if args.seq is None:
        violations = [v for r in reports for v in r.reference_violations()]
        schemes = [dict(doc, scheme=scheme, reference_output_snr_db=(
            REFERENCE_OFDM_OUTPUT_SNR_DB[r.config.scheme])) for scheme, doc, r
            in zip(("proposed", "baseline"), docs, reports)]
        payload = {"schemes": schemes, "tolerance_db": REFERENCE_OFDM_TOL_DB,
                   "violations": violations}
    else:
        violations, payload = [], docs[0]
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
        args, args.seq, experiment="phase", m=args.m_list[0],
        k=args.k_list[0], trials=args.trials,
        extra={"k_grid": args.k_list, "m_grid": args.m_list,
               "bases": args.basis_list})
    report = run_phase_transition(cfg)
    _emit(args, "phase", report.csv(), {
        "config": json.loads(cfg.canonical_json()),
        "cells": _csv_to_rows(report.csv())})
    return EXIT_OK


def _cmd_exp_dct(args) -> int:
    extra = {} if args.image is None else {"image": args.image}
    cfg = _experiment_config(args, args.seq, experiment="dct",
                             m=args.m, k=args.k, basis="inverse_dct2",
                             extra=extra, **_given(trials=args.trials))
    report = run_dct_experiment(cfg)
    rows = _csv_to_rows(report.csv())
    for row, scheme_row in zip(rows, report.rows):
        row["unconverged"] = scheme_row.unconverged
    _emit(args, "dct", report.csv(), {
        "config": json.loads(cfg.canonical_json()),
        "rows": rows,
        "sign_test_p": report.sign_test_p})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the flags the subcommands share, in help order: name -> add_argument
# keywords; every subcommand takes --out and --format
_COMMON_FLAGS = {
    "n": dict(type=int, help="vector length N"),
    "m": dict(type=int, help="number of measurements M"),
    "k": dict(type=int, help="sparsity K"),
    "seq": dict(choices=tuple(seqs.FAMILIES), help="sequence family"),
    "gamma": dict(type=int, default=seqs.FAMILIES["fzc"].params["gamma"],
                  help="fzc root parameter (coprime with N)"),
    "basis": dict(default="identity", choices=_BASIS_KINDS,
                  help="sparsity basis"),
    "solver": dict(default="sp", choices=sorted(SOLVERS),
                   help="recovery solver"),
    "snr-list": dict(type=_list_of(float, "value"), default=None,
                     metavar="DB[,DB...]",
                     help="input SNRs in dB (omit for noiseless); a list "
                          "starting below 0 takes the = form, "
                          "--snr-list=-10,0"),
    "trials": dict(type=_count, default=None,
                   help="number of Monte Carlo trials"),
    "seed": dict(type=int, default=0,
                 help="master seed (random families: their seed)"),
    "out": dict(default=None, metavar="DIR",
                help="write outputs into DIR instead of stdout"),
    "format": dict(default="csv", choices=("csv", "json"),
                   help="output format"),
}


# subcommand -> (help, handler, the shared flags it takes besides --out
# and --format, the flags it requires), in help order
_COMMANDS = {
    "gen-seq": ("generate and classify a sequence", _cmd_gen_seq,
                ("n", "seq", "gamma", "seed"), ("n", "seq")),
    "coherence": ("coherence vs. its closed bound", _cmd_coherence,
                  ("n", "seq", "gamma", "basis", "seed"), ("n", "seq")),
    "gauss-audit": ("exponential-sum identities and bounds",
                    _cmd_gauss_audit, (), ()),
    "papr": ("peak-to-average power ratio", _cmd_papr,
             ("n", "seq", "gamma", "trials", "seed"), ()),
    "recover": ("one synthetic recovery run", _cmd_recover,
                ("n", "m", "k", "seq", "gamma", "basis", "solver",
                 "snr-list", "seed"), ("n", "m", "k", "seq")),
    "exp-ofdm": ("sparse channel estimation benchmark (no --seq: both "
                 "reference schemes, checked to +/-3 dB)", _cmd_exp_ofdm,
                 ("n", "m", "k", "seq", "gamma", "solver", "snr-list",
                  "trials", "seed"), ()),
    "exp-phase": ("noiseless phase-transition grid (--k/--m/--basis "
                  "accept comma lists)", _cmd_exp_phase,
                  ("n", "seq", "gamma", "solver", "trials", "seed"), ("n",)),
    "exp-dct": ("DCT-domain recovery vs. baseline", _cmd_exp_dct,
                ("n", "m", "k", "seq", "gamma", "solver", "trials", "seed"),
                ("n", "m", "k")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsense",
        description="Deterministic-sequence convolutional compressed "
                    "sensing: sequences, coherence audits, recovery, "
                    "experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, (text, func, flags, require) in _COMMANDS.items():
        p = subs[name] = sub.add_parser(name, help=text)
        for flag, kwargs in _COMMON_FLAGS.items():
            if flag in flags + ("out", "format"):
                p.add_argument("--" + flag, **kwargs)
        p.set_defaults(func=func, require=require)
    subs["gauss-audit"].add_argument(
        "--n", type=_count, help="largest N of the closed-form check")
    p = subs["exp-phase"]
    p.set_defaults(seq="golay", trials=50)
    p.add_argument("--k", type=_list_of(_count, "count"), dest="k_list",
                   metavar="K[,K...]", required=True)
    p.add_argument("--m", type=_list_of(_count, "count"), dest="m_list",
                   metavar="M[,M...]", required=True)
    p.add_argument("--basis", type=_list_of(lambda b: Basis(b).kind,
                                             "basis"),
                   dest="basis_list", default=["identity"],
                   metavar="B[,B...]")
    subs["exp-dct"].set_defaults(seq="fzc")
    subs["exp-dct"].add_argument(
        "--image", default=None, metavar="PGM",
        help="measure this 8-bit PGM instead of synthetic sparse signals")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args, args.command, needs=args.require)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
