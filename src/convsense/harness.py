"""Experiment harness: the OFDM channel, PAPR, Monte-Carlo experiments
and audit sweeps, with deterministic CSV emission.

Reproducibility contract
------------------------
* Trial ``i`` of any experiment uses the derived seed
  ``int.from_bytes(sha256(f"{master_seed}:{i}").digest()[:8], "big")``,
  so trial subsets are stable when the trial count changes and rows are
  paired across SNR points and schemes.  ``run_recover``'s one run is
  seeded by ``master_seed`` itself.
* Within a trial the Generator is consumed in a fixed, documented order:
  (1) random sampling indices, (2) random spectrum draws, (3) signal
  support, (4) signal values, (5) baseline spectrum draws, (6) noise.
  Steps that do not apply to a configuration are skipped.  Every
  experiment draws Theta (steps 1-2 and 5) through ``_operator_draw``,
  measures on the one stack a block's draws make and forms every
  estimate through ``_solve`` on that stack.
* CSV cells are written with the %.12g format (booleans as true/false),
  so identical configs give byte-identical files.  Wall times are kept
  on TrialRecord only and never written to CSV.
* Per-trial output SNRs are capped at 300 dB (the exact-recovery
  ceiling), keeping noiseless-run aggregates finite.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import gauss_sums
from . import sequences as seqs
from .coherence import bound_table_report, bound_table_csv, dct_coherence_report
from .operators import (Basis, build_circulant, equispaced_sampling,
                        random_sampling, SensingOperator, StackedOperator,
                        _csv)
from .recovery import (ROWS_PER_ATOM, RecoveryProblem, RecoveryResult,
                       SOLVERS, _embed, _least_squares, _top_indices,
                       subspace_pursuit, subspace_pursuit_block)

_SNR_CAP_DB = 300.0

# the PAPR table's columns, its envelope grid (points per tone), and the
# most a Golay row may read
PAPR_HEADER = ["kind", "N", "oversample", "papr"]
PAPR_OVERSAMPLE = 16
GOLAY_PAPR_LIMIT = 2.01


# ---------------------------------------------------------------------------
# OFDM channel and PAPR
# ---------------------------------------------------------------------------

# the 6-tap ATTC/Grand-Alliance DTV ensemble-E static response: tap
# delays (ascending) and their real gains
_ATTC_DELAYS = np.array([0, 2, 17, 36, 75, 137])
_ATTC_GAINS = np.array([1.0, 0.3162, 0.1995, 0.1296, 0.1, 0.1])


def attc_channel(n: int) -> np.ndarray:
    """The length-N complex impulse response of the ATTC channel."""
    if n <= 137:
        raise ValueError("N must exceed 137 to hold the last tap")
    x = np.zeros(n, dtype=np.complex128)
    x[_ATTC_DELAYS] = _ATTC_GAINS
    return x


def papr(sigma) -> float:
    """Peak-to-average power of the length-N tone sum
    (1/sqrt(N)) sum_n sigma_n exp(2j pi n t / T), evaluated on a
    PAPR_OVERSAMPLE*N uniform grid via a zero-padded inverse FFT."""
    vals = seqs._values(sigma)
    n = vals.size
    seqs._require_unimodular(
        vals, "PAPR defined here for unimodular/bipolar input")
    grid = PAPR_OVERSAMPLE * n
    padded = np.zeros(grid, dtype=np.complex128)
    padded[:n] = vals
    envelope = np.fft.ifft(padded) * grid / np.sqrt(n)
    avg_power = float(np.linalg.norm(vals) ** 2) / n
    return float(np.max(np.abs(envelope) ** 2) / avg_power)


def _papr_row(kind: str, n: int, params: dict) -> list:
    """A PAPR table row for family ``kind`` built at length N, labelled
    with the params it reads (``seqs.read_params``): ``golay``,
    ``fzc(gamma=1)``, ``random_phase(seed=3)``."""
    params = seqs.read_params(kind, params)
    label = kind + "".join(f"({key}={val})" for key, val in params.items())
    sigma = seqs.family(kind).build(n, params)
    return [label, n, PAPR_OVERSAMPLE, papr(sigma)]


# ---------------------------------------------------------------------------
# configs, seeds, trial records
# ---------------------------------------------------------------------------

def _require_counts(**counts: int) -> None:
    """Refuse a non-integer count or one below 1, by name, as the CLI does:
    a run over zero sizes or trials would report a pass checking nothing."""
    for name, value in counts.items():
        _require_int(name, value)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _require_int(name: str, value) -> None:
    """Refuse a non-integer size, count or seed by name: a float would be
    hashed as its integer part, then fail or run as another size."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _grid_reason(name: str, grid: List[int], n: int) -> Optional[str]:
    """Why a K or M grid is refused (a value outside [1, N]), or None."""
    for v in grid:
        if not 1 <= v <= n:
            return f"require 1 <= {name} <= N, got {name}={v}, N={n}"
    return None


# the keys something reads: a config that sets another is refused, as a
# misspelt or retired key would only change the config hash (a
# sequence_params key is one its family reads, ``seqs.read_params``);
# each extra key maps to the one experiment that reads it (None: every
# one), each solver_params key to the one solver that reads it
_EXTRA_READERS = {"real_taps": None, "k_grid": "phase", "m_grid": "phase",
                  "bases": "phase", "image": "dct"}
_SOLVER_PARAM_READERS = {"lam_rel": "fista"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment's output bytes."""

    experiment: str
    n: int
    m: int
    k: int
    sequence_kind: str
    sequence_params: dict = field(default_factory=dict)
    basis: str = "identity"
    solver: str = "sp"
    solver_params: dict = field(default_factory=dict)
    snr_list: Tuple[Optional[float], ...] = ()
    trials: int = 100
    master_seed: int = 0
    sampling_mode: str = "random"  # "random" | "equispaced"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_int("master_seed", self.master_seed)
        _require_counts(n=self.n, m=self.m, k=self.k, trials=self.trials)
        for snr in self.snr_list:
            if snr is not None and not math.isfinite(snr):
                raise ValueError(f"snr_list entries must be finite dB, got "
                                 f"{snr:g} (None is the noiseless row)")
        seqs.read_params(self.sequence_kind, self.sequence_params,
                         standalone=False, what="sequence_params")
        for name, readers, role, own in (
                ("extra", _EXTRA_READERS, "experiment", self.experiment),
                ("solver_params", _SOLVER_PARAM_READERS, "solver",
                 self.solver)):
            for key in getattr(self, name):
                if key not in readers:
                    raise ValueError(f"unknown {name} key {key!r}; "
                                     f"expected one of {tuple(readers)}")
                if readers[key] not in (None, own):
                    raise ValueError(
                        f"{name} key {key!r} is read only by the "
                        f"{readers[key]!r} {role}, not {own!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; "
                             f"expected one of {sorted(SOLVERS)}")
        if self.sampling_mode not in ("random", "equispaced"):
            raise ValueError(f"unknown sampling mode {self.sampling_mode!r}")
        for basis in (self.basis, *self.extra.get("bases", ())):
            Basis(basis)  # refuses an unknown basis
        for name, key, value in (("K", "k_grid", self.k),
                                 ("M", "m_grid", self.m)):
            grid = [value, *self.extra.get(key, ())]
            for v in grid:
                _require_int(f"{key} entry", v)
            reason = _grid_reason(name, grid, self.n)
            if reason is not None:
                raise ValueError(reason)

    @property
    def scheme(self) -> str:
        """The scheme's label: family and sampling, as ``golay+random``."""
        return f"{self.sequence_kind}+{self.sampling_mode}"

    def canonical_json(self) -> str:
        payload = dataclasses.asdict(self)
        for key in ("n", "m", "k", "trials", "master_seed"):
            payload[key] = int(payload[key])
        payload["snr_list"] = [None if s is None else float(s)
                               for s in self.snr_list]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def trial_seed(master_seed: int, i: int) -> int:
    """Derived per-trial seed: first 8 bytes (big endian) of
    sha256("{master_seed}:{i}")."""
    digest = hashlib.sha256(f"{master_seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _require_experiment(cfg: ExperimentConfig, experiment: str) -> None:
    """Refuse a config labelled for another experiment: its hash and its
    extra keys would describe a run that is not the one made."""
    if cfg.experiment != experiment:
        raise ValueError(f"the {experiment!r} experiment refuses a config "
                         f"labelled for the {cfg.experiment!r} experiment")


def _trial_rngs(master_seed: int, trials: int):
    """(index, seed, Generator) for trials 0 .. trials-1."""
    for t in range(trials):
        seed = trial_seed(master_seed, t)
        yield t, seed, np.random.default_rng(seed)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    input_snr_db: float
    output_snr_db: float
    support_exact: bool
    iterations: int
    # in memory only, never in a CSV: the time of the record's block of
    # trials, draws included, divided by the records in the block
    wall_time: float


def _output_snr_db(x: np.ndarray, x_hat: np.ndarray) -> float:
    err = float(np.linalg.norm(x - x_hat))
    ref = float(np.linalg.norm(x))
    if err == 0.0:
        return _SNR_CAP_DB
    return min(10.0 * math.log10(ref * ref / (err * err)), _SNR_CAP_DB)


# ---------------------------------------------------------------------------
# one trial step: the operator draw and the estimate
# ---------------------------------------------------------------------------

def _operator_draw(cfg: ExperimentConfig):
    """``draw(rng, m=cfg.m, basis=cfg.basis)``, the one way a trial gets
    its Theta.  What no trial draws is built here once: a deterministic
    family's circulant and, in equispaced mode, the sampling set of each
    M.  A draw takes from ``rng`` in the contract's order: random
    sampling indices first, then a random family's spectrum."""
    fixed_circ = None if seqs.family(cfg.sequence_kind).random else \
        build_circulant(cfg.sequence_kind, cfg.n, cfg.sequence_params)
    equispaced = functools.lru_cache(maxsize=None)(
        lambda m: equispaced_sampling(cfg.n, m))

    def draw(rng: np.random.Generator, m: int = cfg.m,
             basis: str = cfg.basis) -> SensingOperator:
        samp = random_sampling(cfg.n, m, rng) \
            if cfg.sampling_mode == "random" else equispaced(m)
        circ = fixed_circ if fixed_circ is not None else build_circulant(
            cfg.sequence_kind, cfg.n, cfg.sequence_params, rng)
        return SensingOperator(circ, samp, Basis(basis))

    return draw


def _solve(cfg: ExperimentConfig, stack: StackedOperator, ys: np.ndarray,
           k: Optional[int] = None) -> List[RecoveryResult]:
    """The one place estimates are formed, one per member of the stack
    and row of its (B, M) measurements ``ys``: solve (K = cfg.k, with
    cfg.solver_params), keep the k (default cfg.k) largest atoms and
    refit once by least squares on them, over real coefficients when
    cfg.extra["real_taps"] is set.  The refit debiases FISTA (GPSR:
    Figueiredo, Nowak & Wright, 2007); a greedy estimate with at most k
    atoms stands unless a real refit is asked for.  Iterations, residual
    and convergence flag stay the solver's.  Subspace pursuit solves the
    stack in lockstep, any other solver member by member; the refits of
    one support size are one ``_least_squares`` on a slice of the
    stack.  The lockstep test is on the solver, not on cfg.solver, so a
    fake put in ``SOLVERS["sp"]`` is solved member by member."""
    solver = SOLVERS[cfg.solver]
    k = cfg.k if k is None else k
    real = bool(cfg.extra.get("real_taps"))
    results = subspace_pursuit_block(stack, ys, cfg.k) \
        if solver is subspace_pursuit else [
            solver(RecoveryProblem(stack[b:b + 1], y, k=cfg.k,
                                   **cfg.solver_params))
            for b, y in enumerate(ys)]
    refits: Dict[int, List[int]] = {}  # support size -> problems
    for i, res in enumerate(results):
        if cfg.solver == "fista" or real or res.support.size > k:
            refits.setdefault(min(res.support.size, k), []).append(i)
    for members in refits.values():
        support = np.stack([
            results[i].support if results[i].support.size <= k
            else _top_indices(np.abs(results[i].f_hat), k) for i in members])
        cols = stack[members].columns(support)
        y = ys[members]
        if real:  # real coefficients: real and imaginary rows stacked
            cols = np.concatenate([cols.real, cols.imag], axis=1)
            y = np.concatenate([y.real, y.imag], axis=1)
        coef = _least_squares(cols, y)
        for j, i in enumerate(members):
            results[i] = dataclasses.replace(
                results[i], f_hat=_embed(stack.n, support[j], coef[j]),
                support=support[j])
    return results


# ---------------------------------------------------------------------------
# OFDM channel-estimation experiment
# ---------------------------------------------------------------------------

REFERENCE_OFDM_OUTPUT_SNR_DB = {
    # benchmark configuration N=1024, M=64, K=6, subspace pursuit,
    # real-tap refit enabled
    "golay+random": {0.0: 5.44, 10.0: 14.34, 20.0: 37.48, 30.0: 45.61},
    "random_phase+equispaced": {0.0: 5.32, 10.0: 13.98, 20.0: 37.53,
                                30.0: 45.22},
}
# the band (dB) a reference run's mean output SNR must keep to its table
REFERENCE_OFDM_TOL_DB = 3.0


def _baseline(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` on the comparison baseline: random phase at equispaced rows."""
    return dataclasses.replace(cfg, sequence_kind="random_phase",
                               sequence_params={},
                               sampling_mode="equispaced")


def ofdm_config(snr_list: Optional[List[float]] = None,
                **fields) -> ExperimentConfig:
    """The OFDM set-up for config ``fields`` (n, m, k, sequence_kind, ...):
    inputs 0/10/20/30 dB unless ``snr_list`` names others, real-tap refit,
    random sampling but for the baseline's family (``_baseline``)."""
    snrs = (0.0, 10.0, 20.0, 30.0) if snr_list is None else snr_list
    cfg = ExperimentConfig(experiment="ofdm", snr_list=tuple(snrs),
                           extra={"real_taps": True}, **fields)
    baseline = _baseline(cfg)
    return baseline if cfg.sequence_kind == baseline.sequence_kind else cfg


def ofdm_reference_config(scheme: str = "proposed", trials: int = 500,
                          master_seed: int = 0) -> ExperimentConfig:
    """The benchmark configuration behind REFERENCE_OFDM_OUTPUT_SNR_DB,
    ``ofdm_config`` at N=1024, M=64, K=6 under subspace pursuit: Golay
    with random sampling ('proposed') or the baseline (``_baseline``)."""
    if scheme not in ("proposed", "baseline"):
        raise ValueError("scheme must be 'proposed' or 'baseline'")
    cfg = ofdm_config(n=1024, m=64, k=6, sequence_kind="golay",
                      trials=trials, master_seed=master_seed)
    return cfg if scheme == "proposed" else _baseline(cfg)


@dataclass(frozen=True)
class SnrRow:
    input_snr_db: float
    mean_output_snr_db: float
    se_output_snr_db: float
    support_exact_rate: float
    mean_iterations: float
    trials: int


@dataclass(frozen=True)
class OfdmReport:
    config: ExperimentConfig
    rows: Tuple[SnrRow, ...]
    records: Tuple[TrialRecord, ...]

    def summary_csv(self) -> str:
        h = self.config.config_hash()
        header = ["config_hash", "sequence_kind", "sampling_mode",
                  "input_snr_db", "mean_output_snr_db", "se_output_snr_db",
                  "support_exact_rate", "mean_iterations", "trials"]
        rows = [[h, self.config.sequence_kind, self.config.sampling_mode,
                 r.input_snr_db, r.mean_output_snr_db, r.se_output_snr_db,
                 r.support_exact_rate, r.mean_iterations, r.trials]
                for r in self.rows]
        return _csv(header, rows)

    def trials_csv(self) -> str:
        h = self.config.config_hash()
        header = ["config_hash", "input_snr_db", "trial", "seed",
                  "output_snr_db", "support_exact", "iterations"]
        rows = [[h, r.input_snr_db, r.index, r.seed, r.output_snr_db,
                 r.support_exact, r.iterations] for r in self.records]
        return _csv(header, rows)

    def reference_violations(self) -> List[str]:
        """The rows of a reference run (``ofdm_reference_config``) whose
        mean output SNR is more than REFERENCE_OFDM_TOL_DB off its scheme's
        table (a scheme without one is refused); input SNRs the table lacks
        are not checked."""
        key, tables = self.config.scheme, REFERENCE_OFDM_OUTPUT_SNR_DB
        if key not in tables:
            raise ValueError(f"scheme {key!r} has no reference table; the "
                             f"reference schemes are {sorted(tables)}")
        ref = tables[key]
        out = []
        for row in self.rows:
            target = ref.get(row.input_snr_db)
            if target is None:
                continue
            diff = row.mean_output_snr_db - target
            if not abs(diff) <= REFERENCE_OFDM_TOL_DB:
                out.append(f"{key} @ {row.input_snr_db:g} dB: "
                           f"{row.mean_output_snr_db:.2f} vs {target:.2f} "
                           f"(diff {diff:+.2f})")
        return out


def _aggregate(snr: float, recs: List[TrialRecord]) -> SnrRow:
    """Mean output SNR = dB of the mean linear SNR ratio; its standard
    error maps the linear-scale SE through the log (delta method)."""
    lin = np.array([10.0 ** (r.output_snr_db / 10.0) for r in recs])
    mean_lin = float(np.mean(lin))
    if len(lin) > 1 and mean_lin > 0:
        se_lin = float(np.std(lin, ddof=1) / math.sqrt(len(lin)))
        se_db = 10.0 / math.log(10.0) * se_lin / mean_lin
    else:
        se_db = 0.0
    return SnrRow(
        input_snr_db=snr,
        mean_output_snr_db=10.0 * math.log10(mean_lin),
        se_output_snr_db=se_db,
        support_exact_rate=float(np.mean([r.support_exact for r in recs])),
        mean_iterations=float(np.mean([r.iterations for r in recs])),
        trials=len(recs))


# problems in one run_ofdm_experiment _solve, every SNR row of its trials:
# the largest SP block whose (16, 1024) buffers, 256 KiB each, do not grow
# a run's peak RSS; 20 ran 4% faster on a 2-vCPU VM but held 1 MB more
_OFDM_BLOCK_PROBLEMS = 16


def run_ofdm_experiment(cfg: ExperimentConfig) -> OfdmReport:
    """Per input SNR: 'trials' seeded channel-estimation runs on the
    6-tap static channel; aggregates mean output SNR with standard
    error, support-exactness rate and iteration counts.  Each estimate
    keeps at most min(K, 6) atoms (``_solve``), refit once over real
    coefficients when cfg.extra["real_taps"] is set.

    Every SNR row re-seeds trial t, so the trial's Theta, Theta x and
    unit noise are the same in every row: they are drawn once and the
    noise is scaled per row.  A block of trials, every SNR row of each,
    is one ``_solve`` of up to ``_OFDM_BLOCK_PROBLEMS`` problems."""
    _require_experiment(cfg, "ofdm")
    x = attc_channel(cfg.n)
    draw = _operator_draw(cfg)
    k = min(_ATTC_DELAYS.size, cfg.k)
    snrs = cfg.snr_list if cfg.snr_list else (None,)
    in_snrs = [math.inf if snr is None else float(snr) for snr in snrs]
    recs: List[List[TrialRecord]] = [[] for _ in snrs]
    rngs = _trial_rngs(cfg.master_seed, cfg.trials)
    per_block = max(1, _OFDM_BLOCK_PROBLEMS // len(snrs))
    for _ in range(0, cfg.trials, per_block):
        tic = time.perf_counter()
        trials = [(t, seed, draw(rng), _noise(rng, cfg.m))
                  for t, seed, rng in itertools.islice(rngs, per_block)]
        stack = StackedOperator.of([theta for _, _, theta, _ in trials])
        y0s = stack.forward(np.broadcast_to(x, (len(trials), cfg.n)))
        ys = np.stack([y0 if snr is None else _add_noise(y0, e, snr)
                       for (*_, e), y0 in zip(trials, y0s) for snr in snrs])
        results = _solve(cfg, stack[np.repeat(np.arange(len(trials)),
                                              len(snrs))], ys, k)
        wall = (time.perf_counter() - tic) / len(results)
        for i, (row, in_snr) in enumerate(zip(recs, in_snrs)):
            row.extend(TrialRecord(
                t, seed, in_snr, _output_snr_db(x, res.f_hat),
                bool(np.array_equal(res.support, _ATTC_DELAYS)),
                res.iterations, wall)
                for (t, seed, *_), res in zip(trials, results[i::len(snrs)]))
    rows = tuple(_aggregate(in_snr, row) for in_snr, row in zip(in_snrs, recs))
    return OfdmReport(config=cfg, rows=rows,
                      records=tuple(rec for row in recs for rec in row))


# ---------------------------------------------------------------------------
# phase-transition experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseCell:
    basis: str
    k: int
    m: int
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class PhaseReport:
    config: ExperimentConfig
    cells: Tuple[PhaseCell, ...]

    def csv(self) -> str:
        h = self.config.config_hash()
        header = ["config_hash", "sequence_kind", "basis", "k", "m",
                  "trials", "successes", "success_rate"]
        rows = [[h, self.config.sequence_kind, c.basis, c.k, c.m,
                 c.trials, c.successes, c.success_rate]
                for c in self.cells]
        return _csv(header, rows)


def _sparse_signal(rng: np.random.Generator, n: int, k: int,
                   real_values: bool = False
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """(signal, support).  Draw order: support via choice(n, k,
    replace=False), then one standard-normal block (complex: real then
    imaginary)."""
    support = rng.choice(n, size=k, replace=False)
    f = np.zeros(n, dtype=np.complex128)
    vals = rng.standard_normal(k).astype(np.complex128)
    if not real_values:
        vals += 1j * rng.standard_normal(k)
    f[support] = vals
    return f, support


def _noise(rng: np.random.Generator, m: int) -> np.ndarray:
    """Complex Gaussian noise: a real block, then an imaginary block."""
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _add_noise(y0: np.ndarray, e: np.ndarray, snr_db: float) -> np.ndarray:
    """y0 plus the noise e scaled so that 10*log10(||y0||^2/||e||^2) is
    exactly snr_db."""
    return y0 + e * (float(np.linalg.norm(y0)) * 10.0 ** (-snr_db / 20.0)
                     / float(np.linalg.norm(e)))


def _rel_error(f: np.ndarray, f_hat: np.ndarray) -> float:
    return float(np.linalg.norm(f - f_hat) / np.linalg.norm(f))


def _recovered(f: np.ndarray, f_hat: np.ndarray) -> bool:
    """The success test of every noiseless run (phase grid, DCT, recover)."""
    return _rel_error(f, f_hat) <= 1e-4


def _sign_test_p(wins: int, losses: int) -> float:
    """Exact one-sided sign test P(X >= wins), X ~ Bin(wins + losses, 1/2),
    in integers up to one correctly rounded division; 1.0 at n = 0."""
    n = wins + losses
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2 ** n


def run_phase_transition(cfg: ExperimentConfig) -> PhaseReport:
    """Noiseless success rates (``_recovered``) over a grid of
    (basis, K, M) cells; grids come from cfg.extra (k_grid, m_grid,
    bases) and default to the single configured cell.  The
    same per-trial seeds are reused in every cell, pairing the grid.
    Cells the greedy solver cannot attempt (``ROWS_PER_ATOM`` * K > M)
    score zero successes without solving; any error raised while
    solving a feasible cell propagates."""
    _require_experiment(cfg, "phase")
    draw = _operator_draw(cfg)
    cells: List[PhaseCell] = []
    for basis_kind in cfg.extra.get("bases", [cfg.basis]):
        for k in cfg.extra.get("k_grid", [cfg.k]):
            cell_cfg = dataclasses.replace(cfg, k=k)
            for m in cfg.extra.get("m_grid", [cfg.m]):
                successes = 0
                feasible = ROWS_PER_ATOM.get(cfg.solver, 0) * k <= m
                trials = cfg.trials if feasible else 0
                for _, _, rng in _trial_rngs(cfg.master_seed, trials):
                    stack = StackedOperator.of([draw(rng, m, basis_kind)])
                    f, _ = _sparse_signal(rng, cfg.n, k)
                    result, = _solve(cell_cfg, stack, stack.forward(f[None]))
                    successes += _recovered(f, result.f_hat)
                cells.append(PhaseCell(basis=basis_kind, k=k, m=m,
                                       trials=cfg.trials,
                                       successes=successes))
    return PhaseReport(config=cfg, cells=tuple(cells))


def run_recover(cfg: ExperimentConfig) -> Tuple[str, bool]:
    """The recover CSV, one row per input SNR of cfg.snr_list (noiseless
    when empty), and whether every noiseless row meets ``_recovered``.
    One Generator, seeded by cfg.master_seed itself, draws Theta, the
    signal's support and values, then one noise per SNR in order.  The
    rows are one ``_solve`` on Theta's stack repeated per row."""
    _require_experiment(cfg, "recover")
    rng = np.random.default_rng(cfg.master_seed)
    stack = StackedOperator.of([_operator_draw(cfg)(rng)])
    f, support = _sparse_signal(rng, cfg.n, cfg.k)
    y0, = stack.forward(f[None])
    snrs = cfg.snr_list or (None,)
    ys = np.stack([y0 if snr is None else
                   _add_noise(y0, _noise(rng, cfg.m), snr) for snr in snrs])
    results = _solve(cfg, stack[np.zeros(len(snrs), dtype=int)], ys)
    rows, ok = [], True
    for snr, result in zip(snrs, results):
        if snr is None and not _recovered(f, result.f_hat):
            ok = False
        rows.append([math.inf if snr is None else snr, cfg.solver,
                     _rel_error(f, result.f_hat),
                     set(result.support.tolist()) == set(support.tolist()),
                     result.iterations, result.converged])
    return _csv(["input_snr_db", "solver", "rel_error", "support_exact",
                 "iterations", "converged"], rows), ok


# ---------------------------------------------------------------------------
# DCT-domain experiment
# ---------------------------------------------------------------------------

# an 8-bit PGM header: the magic, then width, height and maxval, each
# after whitespace or comment lines, then one whitespace byte
_PGM_HEADER = re.compile(rb"(P[25])" + 3 * rb"(?:\s|#[^\n]*\n)+(\d+)" + rb"\s")


def read_pgm(path: str) -> np.ndarray:
    """8-bit grayscale PGM (P2 ascii or P5 binary) as floats in [0, 1];
    a sample above the header's maxval is refused."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"not a PGM file (magic {data[:2]!r})"
                         if data[:2] not in (b"P2", b"P5")
                         else "truncated PGM header")
    width, height, maxval = (int(v) for v in header.group(2, 3, 4))
    if maxval <= 0 or maxval > 255:
        raise ValueError("only 8-bit PGM supported")
    count = width * height
    pixels = data[header.end():]
    if header.group(1) == b"P2":
        pixels = bytes(int(v) for v in pixels.split()[:count])
    if len(pixels) < count:
        raise ValueError("truncated PGM pixel data")
    pix = np.frombuffer(pixels, dtype=np.uint8, count=count)
    if np.any(pix > maxval):
        raise ValueError(f"PGM sample {int(pix.max())} exceeds maxval "
                         f"{maxval}")
    return pix.reshape(height, width).astype(np.float64) / maxval


@dataclass(frozen=True)
class DctSchemeRow:
    scheme: str
    trials: int
    successes: int
    mean_output_snr_db: float
    unconverged: int  # solves whose ``converged`` is false; not in the CSV

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class DctReport:
    config: ExperimentConfig
    rows: Tuple[DctSchemeRow, ...]
    sign_test_p: float

    def csv(self) -> str:
        h = self.config.config_hash()
        header = ["config_hash", "scheme", "k", "m", "trials", "successes",
                  "success_rate", "mean_output_snr_db", "sign_test_p"]
        rows = [[h, r.scheme, self.config.k, self.config.m, r.trials,
                 r.successes, r.success_rate, r.mean_output_snr_db,
                 self.sign_test_p] for r in self.rows]
        return _csv(header, rows)


def run_dct_experiment(cfg: ExperimentConfig) -> DctReport:
    """Paired comparison of DCT-domain recovery: the configured operator
    with random sampling vs the comparison baseline (``_baseline``) on
    identical signals.  Synthetic mode draws K-sparse real DCT
    coefficient vectors; image mode (cfg.extra['image']) measures a PGM
    image, recovers a K-sparse DCT approximation, and scores output SNR
    against the original pixels.

    Each trial records (success, output SNR, solver converged) for both
    schemes, and every reported number comes from that one list.  The
    exact one-sided sign test (``_sign_test_p``) asks whether the
    configured scheme beats the baseline on one paired outcome: success
    in synthetic mode, output SNR in image mode."""
    _require_experiment(cfg, "dct")
    if (cfg.basis, cfg.sampling_mode) != ("inverse_dct2", "random"):
        raise ValueError("the DCT experiment runs basis 'inverse_dct2' with "
                         "'random' sampling, as its rows are labelled")
    basis = Basis(cfg.basis)
    baseline = _baseline(cfg)
    draw_proposed = _operator_draw(cfg)
    draw_baseline = _operator_draw(baseline)
    image_path = cfg.extra.get("image")
    if image_path is not None:
        x_img = read_pgm(str(image_path)).reshape(-1).astype(np.complex128)
        if x_img.size != cfg.n:
            raise ValueError(
                f"image has {x_img.size} pixels but config N={cfg.n}")
        if not np.any(x_img):
            raise ValueError(f"image {image_path} is all zero: no output "
                             f"SNR or relative error can be scored")

    outcomes = []
    for _, _, rng in _trial_rngs(cfg.master_seed, cfg.trials):
        # (1) proposed sampling and random-family spectrum, (2) signal,
        # (3) baseline spectrum
        theta_p = draw_proposed(rng)
        if image_path is None:
            f_true, _ = _sparse_signal(rng, cfg.n, cfg.k, real_values=True)
            x_ref = basis.apply(f_true)
        else:
            x_ref = x_img
            f_true = basis.adjoint(x_ref)
        stack = StackedOperator.of([theta_p, draw_baseline(rng)])
        results = _solve(cfg, stack,
                         stack.forward(np.broadcast_to(f_true, (2, cfg.n))))
        outcomes.append([(_recovered(f_true, result.f_hat),
                          _output_snr_db(x_ref, basis.apply(result.f_hat)),
                          result.converged) for result in results])
    compared = 0 if image_path is None else 1
    wins = sum(p[compared] > b[compared] for p, b in outcomes)
    losses = sum(b[compared] > p[compared] for p, b in outcomes)
    schemes = (cfg.scheme, baseline.scheme)
    rows = tuple(
        DctSchemeRow(scheme=scheme, trials=cfg.trials,
                     successes=sum(ok for ok, _, _ in scheme_outcomes),
                     mean_output_snr_db=float(np.mean(
                         [snr for _, snr, _ in scheme_outcomes])),
                     unconverged=sum(not c for _, _, c in scheme_outcomes))
        for scheme, scheme_outcomes in zip(schemes, zip(*outcomes)))
    return DctReport(config=cfg, rows=rows,
                     sign_test_p=_sign_test_p(wins, losses))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditResult:
    name: str
    ok: bool
    csv: str
    failures: Tuple[str, ...] = ()


_DEFAULT_TABLE1_SIZES: Dict[str, Tuple[int, ...]] = {
    "fzc": (64, 255, 256, 1024),
    "m_sequence": (7, 31, 127, 511),
    "golay": (8, 10, 20, 26, 52, 104),
    "extended_polyphase": (100, 101, 255, 256),
    "extended_golay": (20, 21, 52, 53, 64, 65),
}


def audit_coherence_bounds() -> AuditResult:
    """Coherence-bound table at ``_DEFAULT_TABLE1_SIZES`` plus the
    6*sqrt(2) DCT mutual-coherence rows at N = 64, 256, 1024 (FZC with
    gamma = 1 throughout)."""
    reports = bound_table_report(_DEFAULT_TABLE1_SIZES)
    reports += dct_coherence_report((64, 256, 1024))
    failures = tuple(
        f"{r.kind} N={r.n}: mu={r.mu_observed:.9g} > bound={r.bound:.9g}"
        for r in reports if not r.passed)
    return AuditResult(name="coherence_bounds", ok=not failures,
                       csv=bound_table_csv(reports), failures=failures)


def audit_gauss(closed_form_max: int = 4096, identity_max: int = 256,
                sweep_max: int = 512) -> AuditResult:
    """Closed forms vs direct sums, the two identity sweeps, and the
    three bound families; CSV rows are worst-per-(kind, N)."""
    _require_counts(closed_form_max=closed_form_max,
                    identity_max=identity_max, sweep_max=sweep_max)
    header = ["kind", "N", "worst_m", "observed", "bound", "margin"]
    rows: List[list] = []
    failures: List[str] = []

    # one CSV row; a failed one adds `why`, formatted with the row's cells
    def check(kind, n, worst_m, observed, bound, passed, why):
        rows.append([kind, n, worst_m, observed, bound, bound - observed])
        if not passed:
            failures.append(why.format(kind=kind, n=n, observed=observed,
                                       bound=bound))

    for n in range(1, closed_form_max + 1):
        tol = 1e-8 * math.sqrt(n)
        resid = abs(gauss_sums.complete_gauss_sum(n)
                    - gauss_sums.complete_gauss_closed_form(n))
        check("gn_closed_form", n, n, resid, tol, resid <= tol,
              "closed form N={n}: residual {observed:.3e}")

    # (kind, residual by m, m of its first entry, failure line)
    identities = (
        ("gn_reflection", gauss_sums.reflection_identity_residual, 1,
         "reflection N={n}: residual {observed:.3e}"),
        ("qn_split", gauss_sums.q_identity_residual, 0,
         "q split N={n}: residual {observed:.3e}"))
    for n in range(1, identity_max + 1):
        tol = 1e-8 * math.sqrt(n)
        for kind, residual, m_lo, why in identities:
            res = residual(n)
            worst = int(np.argmax(res))
            resid = float(res[worst])
            check(kind, n, m_lo + worst, resid, tol, resid <= tol, why)

    sweeps = (gauss_sums.bound_check("gn_normalized",
                                     range(4, sweep_max + 1))
              + gauss_sums.bound_check("g2n", range(2, sweep_max + 1))
              + gauss_sums.bound_check("qn", range(1, sweep_max + 1)))
    for rec in sweeps:
        check(f"{rec.kind}:{rec.case}", rec.n, rec.worst_m, rec.observed,
              rec.bound, rec.passed,
              "{kind} N={n}: {observed:.6g} > {bound:.6g}")
    return AuditResult(name="gauss", ok=not failures,
                       csv=_csv(header, rows), failures=tuple(failures))


def audit_papr(golay_sizes: Tuple[int, ...] = (256, 512, 1024),
               random_seeds: int = 100) -> AuditResult:
    """PAPR table: Golay rows must sit within 2 +/- 0.01 and the smallest
    random-phase PAPR at N = 1024 over the seed set must be at least 4."""
    if not golay_sizes:
        raise ValueError("golay_sizes must name at least one size")
    _require_counts(random_seeds=random_seeds)
    random_n = 1024
    golay_rows = [_papr_row("golay", n, {}) for n in golay_sizes]
    fzc_rows = [_papr_row("fzc", n, {}) for n in golay_sizes]
    random_rows = [_papr_row("random_phase", random_n, {"seed": s})
                   for s in range(random_seeds)]
    random_min = min(row[-1] for row in random_rows)
    failures = [f"random_phase N={random_n}: min PAPR {random_min:.6g} < 4"
                ] if random_min < 4.0 else []
    return _papr_audit(golay_rows + fzc_rows + random_rows, *failures)


def audit_papr_sequence(kind: str, n: int, params: dict) -> AuditResult:
    """``audit_papr``'s table and Golay check for family ``kind`` at N."""
    return _papr_audit([_papr_row(kind, n, params)])


def _papr_audit(rows: List[list], *failures: str) -> AuditResult:
    """The PAPR table of ``_papr_row`` rows, failing each Golay row (its
    label's family ``golay``) above GOLAY_PAPR_LIMIT, then ``failures``."""
    failures = tuple(f"golay N={n}: PAPR {val:.6g} > {GOLAY_PAPR_LIMIT}"
                     for label, n, _, val in rows
                     if label.split("(")[0] == "golay"
                     and not val <= GOLAY_PAPR_LIMIT) + failures
    return AuditResult(name="papr", ok=not failures,
                       csv=_csv(PAPR_HEADER, rows), failures=failures)
