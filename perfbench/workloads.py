"""The benchmark workloads, driven only through convsense's public API.

A workload is a sequence of *rounds*; round ``r`` of a run with seed ``s``
always makes the same inputs (master seed ``s * 1_000_000 + r``), so a run
is a closed loop of whole rounds and every round has the same mix of work.
Each round is a list of *calls*.  A call runs one public entry point plus
the CSV rendering of its result, is timed as a whole, and reports how many
*ops* (the unit behind ``ops_per_s``) it completed.  Why each workload was
chosen is in README.md.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from convsense import coherence, harness, operators, sequences

ROUND_SEED_STRIDE = 1_000_000

# Quality floors, checked on every call at every seed.  A call below one
# counts all its ops as failed.  Each floor sits well below the worst call
# measured over 20-30 seeds at full size (README.md, "Quality floors").
# ofdm_ref, the row at the highest input SNR (30 dB): share of trials with
# the exact support (measured 1.0) and output minus input SNR (>= 13.4 dB)
OFDM_MIN_TOP_EXACT = 0.9
OFDM_MIN_TOP_GAIN_DB = 6.0
# phase_grid: share of noiseless trials recovered (measured 1.0)
PHASE_MIN_SUCCESS = 0.9
# dct_fista: mean output SNR of the proposed scheme (measured >= 69.5 dB)
DCT_MIN_SNR_DB = 60.0


@dataclass
class CallResult:
    """What one timed public call produced."""

    label: str
    seconds: float
    ops: int
    latencies_ms: List[float] = field(default_factory=list)
    trials: int = 0          # experiment trials the harness ran
    csvs: Dict[str, str] = field(default_factory=dict)
    checks: int = 0          # quality checks evaluated
    passes: int = 0          # ... of which passed
    snr_db: List[float] = field(default_factory=list)
    failed: int = 0          # ops that failed a check, see _judge
    why: str = ""            # ... and which checks they failed


def _judge(res: CallResult, nonfinite: int, shortfalls: List[str]) \
        -> CallResult:
    """Set the failed ops of a call: all of them when its output misses a
    quality floor, else those whose result was not finite."""
    res.failed = res.ops if shortfalls else nonfinite
    if nonfinite:
        shortfalls = shortfalls + [f"{nonfinite} non-finite results"]
    res.why = "; ".join(shortfalls)
    return res


@dataclass
class Call:
    label: str
    expected_ops: int
    run: Callable[[], CallResult]


def round_seed(seed: int, r: int) -> int:
    return seed * ROUND_SEED_STRIDE + r


def _timed(fn: Callable[[], object]):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# ofdm_ref
# ---------------------------------------------------------------------------

def _ofdm_calls(seed: int, r: int, tiny: bool) -> List[Call]:
    trials = 1 if tiny else 25
    calls = []
    for scheme in ("proposed", "baseline"):
        cfg = harness.ofdm_reference_config(
            scheme, trials=trials, master_seed=round_seed(seed, r))
        ops = trials * len(cfg.snr_list)

        def run(cfg=cfg, scheme=scheme):
            def body():
                rep = harness.run_ofdm_experiment(cfg)
                return rep, {f"{scheme}.summary.csv": rep.summary_csv(),
                             f"{scheme}.trials.csv": rep.trials_csv()}
            (rep, csvs), dt = _timed(body)
            recs = rep.records
            top = max(rep.rows, key=lambda row: row.input_snr_db)
            shortfalls = []
            if not top.support_exact_rate >= OFDM_MIN_TOP_EXACT:
                shortfalls.append(
                    f"support exact {top.support_exact_rate} at "
                    f"{top.input_snr_db} dB < {OFDM_MIN_TOP_EXACT}")
            gain = top.mean_output_snr_db - top.input_snr_db
            if not gain >= OFDM_MIN_TOP_GAIN_DB:
                shortfalls.append(f"SNR gain {gain:.2f} dB at "
                                  f"{top.input_snr_db} dB < "
                                  f"{OFDM_MIN_TOP_GAIN_DB} dB")
            return _judge(CallResult(
                label=f"ofdm.{scheme}", seconds=dt, ops=len(recs),
                trials=len(recs),
                latencies_ms=[rec.wall_time * 1e3 for rec in recs],
                csvs=csvs, checks=len(recs),
                passes=sum(rec.support_exact for rec in recs),
                snr_db=[row.mean_output_snr_db for row in rep.rows]),
                sum(not math.isfinite(rec.output_snr_db) for rec in recs),
                shortfalls)
        calls.append(Call(f"ofdm.{scheme}", ops, run))
    return calls


def _ofdm_static() -> None:
    harness.build_circulant("golay", 1024, {})
    operators.equispaced_sampling(1024, 64)
    operators.Basis("identity")
    harness.attc_channel(1024)


# ---------------------------------------------------------------------------
# phase_grid
# ---------------------------------------------------------------------------

_PHASE_BASES = ["identity", "inverse_fourier", "inverse_dct2"]


def _phase_calls(seed: int, r: int, tiny: bool) -> List[Call]:
    k_grid = [4] if tiny else [4, 16]
    m_grid = [128] if tiny else [128, 512]
    cfgs = [harness.ExperimentConfig(
        experiment="phase", n=1024, m=m_grid[0], k=k_grid[0],
        sequence_kind="golay", solver=solver, trials=1,
        master_seed=round_seed(seed, r), sampling_mode="random",
        extra={"k_grid": k_grid, "m_grid": m_grid, "bases": _PHASE_BASES})
        for solver in ("sp", "omp")]
    ops = len(cfgs) * len(k_grid) * len(m_grid) * len(_PHASE_BASES)

    def run():
        def body():
            reps = [harness.run_phase_transition(cfg) for cfg in cfgs]
            return reps, {f"{cfg.solver}.phase.csv": rep.csv()
                          for cfg, rep in zip(cfgs, reps)}
        (reps, csvs), dt = _timed(body)
        cells = [c for rep in reps for c in rep.cells]
        done = sum(c.trials for c in cells)
        passes = sum(c.successes for c in cells)
        shortfalls = []
        if not passes >= PHASE_MIN_SUCCESS * done:
            shortfalls.append(f"{passes}/{done} trials recovered < "
                              f"{PHASE_MIN_SUCCESS}")
        return _judge(CallResult(
            label="phase.sp+omp", seconds=dt, ops=done, trials=done,
            csvs=csvs, checks=done, passes=passes), 0, shortfalls)
    return [Call("phase.sp+omp", ops, run)]


def _phase_static() -> None:
    harness.build_circulant("golay", 1024, {})
    for b in _PHASE_BASES:
        operators.Basis(b)


# ---------------------------------------------------------------------------
# dct_fista
# ---------------------------------------------------------------------------

def _dct_calls(seed: int, r: int, tiny: bool) -> List[Call]:
    n, m, k = (128, 48, 6) if tiny else (512, 128, 8)
    cfg = harness.ExperimentConfig(
        experiment="dct", n=n, m=m, k=k, sequence_kind="fzc",
        sequence_params={"gamma": 1}, basis="inverse_dct2", solver="fista",
        trials=1, master_seed=round_seed(seed, r))

    def run():
        def body():
            rep = harness.run_dct_experiment(cfg)
            return rep, {"dct.csv": rep.csv()}
        (rep, csvs), dt = _timed(body)
        proposed = rep.rows[0]
        snrs = [row.mean_output_snr_db for row in rep.rows]
        shortfalls = []
        if not proposed.mean_output_snr_db >= DCT_MIN_SNR_DB:
            shortfalls.append(f"{proposed.scheme} output SNR "
                              f"{proposed.mean_output_snr_db:.2f} dB < "
                              f"{DCT_MIN_SNR_DB} dB")
        return _judge(CallResult(
            label="dct.fista", seconds=dt, ops=proposed.trials,
            trials=proposed.trials, latencies_ms=[dt * 1e3], csvs=csvs,
            checks=proposed.trials, passes=proposed.successes, snr_db=snrs),
            sum(not math.isfinite(v) for v in snrs), shortfalls)
    return [Call("dct.fista", 1, run)]


def _dct_static() -> None:
    harness.build_circulant("fzc", 512, {"gamma": 1})
    operators.equispaced_sampling(512, 128)
    operators.Basis.inverse_dct2()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# the bound-table families at large admissible lengths
_CERTIFY_TABLES = {
    "golay": (16384,),
    "extended_golay": (32768, 32769),
    "m_sequence": (65535,),
    "fzc": (65536, 65537),
    "extended_polyphase": (65536, 65535),
}
_CERTIFY_TABLES_TINY = {
    "golay": (1024,),
    "extended_golay": (64, 65),
    "m_sequence": (1023,),
    "fzc": (1024, 1031),
    "extended_polyphase": (1024, 1023),
}


def _build_sequence(kind: str, n: int) -> sequences.Sequence:
    if kind == "fzc":
        return sequences.fzc(n, 1)
    if kind == "m_sequence":
        return sequences.m_sequence((n + 1).bit_length() - 1)
    return getattr(sequences, kind)(n)


def _audit_call(name: str, audit: Callable[[], harness.AuditResult]) -> Call:
    def run():
        res, dt = _timed(audit)
        rows = res.csv.count("\n") - 1
        return CallResult(label=f"certify.{name}", seconds=dt, ops=1,
                          csvs={f"{name}.csv": res.csv}, checks=rows,
                          passes=rows - len(res.failures))
    return Call(f"certify.{name}", 1, run)


def _certify_calls(seed: int, r: int, tiny: bool) -> List[Call]:
    if tiny:
        audits = (
            ("audit_coherence_bounds", harness.audit_coherence_bounds),
            ("audit_papr", lambda: harness.audit_papr(golay_sizes=(256,),
                                                      random_seeds=3)),
            ("audit_gauss", lambda: harness.audit_gauss(
                closed_form_max=64, identity_max=16, sweep_max=32)),
        )
    else:
        audits = (("audit_coherence_bounds", harness.audit_coherence_bounds),
                  ("audit_papr", harness.audit_papr),
                  ("audit_gauss", harness.audit_gauss))
    calls = [_audit_call(name, fn) for name, fn in audits]
    tables = _CERTIFY_TABLES_TINY if tiny else _CERTIFY_TABLES

    for kind, sizes in tables.items():
        def run_table(kind=kind, sizes=sizes):
            def body():
                reports = coherence.bound_table_report({kind: sizes})
                return reports, coherence.bound_table_csv(reports)
            (reports, text), dt = _timed(body)
            rows = [rep for rep in reports if not rep.skipped]
            return _judge(CallResult(
                label=f"certify.bound_table.{kind}", seconds=dt, ops=1,
                csvs={f"bound_table.{kind}.csv": text}, checks=len(rows),
                passes=sum(rep.passed for rep in rows)),
                sum(not math.isfinite(rep.mu_observed) for rep in rows), [])
        calls.append(Call(f"certify.bound_table.{kind}", 1, run_table))

    for kind, sizes in tables.items():
        for n in sizes:
            holder: Dict[str, sequences.Sequence] = {}

            def run_build(kind=kind, n=n, holder=holder):
                s, dt = _timed(lambda: _build_sequence(kind, n))
                holder["seq"] = s
                return CallResult(label=f"certify.build.{kind}.{n}",
                                  seconds=dt, ops=1)

            def run_classify(kind=kind, n=n, holder=holder):
                rep, dt = _timed(lambda: sequences.classify(holder["seq"]))
                # the benchmark's own rendering of the report, so it can be
                # digested like the CSVs
                text = "%s,%d,%s,%.12g,%s\n" % (
                    kind, n, rep.label, rep.epsilon_observed,
                    rep.claim_consistent)
                judged = rep.claim_consistent is not None
                return _judge(CallResult(
                    label=f"certify.classify.{kind}.{n}", seconds=dt, ops=1,
                    csvs={f"classify.{kind}.{n}.txt": text},
                    checks=int(judged),
                    passes=int(bool(rep.claim_consistent))),
                    int(not math.isfinite(rep.epsilon_observed)), [])

            calls.append(Call(f"certify.build.{kind}.{n}", 1, run_build))
            calls.append(Call(f"certify.classify.{kind}.{n}", 1,
                              run_classify))
    return calls


def _certify_static() -> None:
    """Every certify input is built inside a timed call, so its set-up is
    the import alone."""


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int, int, bool], List[Call]]
    static_setup: Callable[[], None]
    # rough untraced seconds per full-size round on a 2-CPU x86 box; it
    # fixes how many rounds a traced run makes, so traced counts repeat
    nominal_round_s: float
    seeded: bool = True
    # Latency samples come from the calls (False) or are one per round,
    # the round's time per op (True).  Per-trial times of phase_grid are
    # not visible through the public API with tracing off, and certify's
    # calls differ by 1000x, so a percentile over them falls on whichever
    # two call kinds straddle it; a round has the same mix every time.
    round_latency: bool = False
    # round-0 CSV digests pinned at the default seed
    pinned: bool = True


WORKLOADS: Dict[str, Workload] = {
    "ofdm_ref": Workload("ofdm_ref", _ofdm_calls, _ofdm_static, 1.1),
    "phase_grid": Workload("phase_grid", _phase_calls, _phase_static, 0.4,
                           round_latency=True),
    "dct_fista": Workload("dct_fista", _dct_calls, _dct_static, 0.7,
                          pinned=False),
    "certify": Workload("certify", _certify_calls, _certify_static, 4.0,
                        seeded=False, round_latency=True),
}
