"""Experiment harness: channel models, PAPR, Monte-Carlo experiments
and audit sweeps, with deterministic CSV emission.

Reproducibility contract
------------------------
* Trial ``i`` of any experiment uses the derived seed
  ``int.from_bytes(sha256(f"{master_seed}:{i}").digest()[:8], "big")``,
  so trial subsets are stable when the trial count changes and rows are
  paired across SNR points and schemes.
* Within a trial the Generator is consumed in a fixed, documented order:
  (1) random sampling indices, (2) random spectrum draws, (3) signal
  support, (4) signal values, (5) baseline spectrum draws, (6) noise.
  Steps that do not apply to a configuration are skipped.
* CSV cells are written with the %.12g format (booleans as true/false),
  so identical configs give byte-identical files.  Wall times are kept
  on TrialRecord only and never written to CSV.
* Per-trial output SNRs are capped at 300 dB (the exact-recovery
  ceiling), keeping noiseless-run aggregates finite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.stats import binomtest

from . import gauss_sums
from . import sequences as seqs
from .coherence import bound_table_report, bound_table_csv, dct_coherence_report
from .operators import (Basis, CirculantOperator, SamplingSet,
                        build_circulant, equispaced_sampling,
                        random_sampling, SensingOperator, _csv, _unit_block)
from .recovery import RecoveryProblem, SOLVERS

_SNR_CAP_DB = 300.0


# ---------------------------------------------------------------------------
# channel model and PAPR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelModel:
    """Sparse impulse response: distinct tap delays with real gains."""

    n: int
    taps: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        delays = [d for d, _ in self.taps]
        if len(set(delays)) != len(delays):
            raise ValueError("tap delays must be distinct")
        if any(not (0 <= d < self.n) for d in delays):
            raise ValueError("tap delays must lie in [0, N)")
        if any(a == 0 for _, a in self.taps):
            raise ValueError("tap amplitudes must be nonzero")

    @property
    def k(self) -> int:
        return len(self.taps)

    @property
    def support(self) -> np.ndarray:
        return np.sort(np.array([d for d, _ in self.taps], dtype=np.int64))

    def impulse_response(self) -> np.ndarray:
        x = np.zeros(self.n, dtype=np.complex128)
        for d, a in self.taps:
            x[d] = a
        return x


_ATTC_TAPS = ((0, 1.0), (2, 0.3162), (17, 0.1995), (36, 0.1296),
              (75, 0.1), (137, 0.1))


def attc_channel(n: int) -> ChannelModel:
    """The 6-tap ATTC/Grand-Alliance DTV ensemble-E static response."""
    if n <= 137:
        raise ValueError("N must exceed 137 to hold the last tap")
    return ChannelModel(n=n, taps=_ATTC_TAPS)


def papr(sigma, oversample: int = 16) -> float:
    """Peak-to-average power of the length-N tone sum
    (1/sqrt(N)) sum_n sigma_n exp(2j pi n t / T), evaluated on an
    oversample*N uniform grid via a zero-padded inverse FFT."""
    if oversample < 4:
        raise ValueError("oversample < 4 aliases the envelope peak")
    vals = sigma.values if isinstance(sigma, seqs.Sequence) \
        else np.asarray(sigma, dtype=np.complex128)
    n = vals.size
    dev = float(np.max(np.abs(np.abs(vals) - 1.0)))
    if dev > 1e-12:
        raise ValueError(
            f"PAPR defined here for unimodular/bipolar input (dev {dev:.2e})")
    grid = oversample * n
    padded = np.zeros(grid, dtype=np.complex128)
    padded[:n] = vals
    envelope = np.fft.ifft(padded) * grid / np.sqrt(n)
    avg_power = float(np.linalg.norm(vals) ** 2) / n
    return float(np.max(np.abs(envelope) ** 2) / avg_power)


# ---------------------------------------------------------------------------
# configs, seeds, trial records
# ---------------------------------------------------------------------------

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
    wall_time: float  # in-memory only; excluded from CSV


def _output_snr_db(x: np.ndarray, x_hat: np.ndarray) -> float:
    err = float(np.linalg.norm(x - x_hat))
    ref = float(np.linalg.norm(x))
    if err == 0.0:
        return _SNR_CAP_DB
    return min(10.0 * math.log10(ref * ref / (err * err)), _SNR_CAP_DB)


# ---------------------------------------------------------------------------
# operator assembly (fixed per-trial draw order)
# ---------------------------------------------------------------------------

def _trial_operator(cfg: ExperimentConfig, rng: np.random.Generator,
                    static_circ: Optional[CirculantOperator],
                    static_samp: Optional[SamplingSet],
                    basis: Basis) -> SensingOperator:
    """Draw order: sampling indices first, then spectrum draws."""
    samp = static_samp if static_samp is not None else \
        random_sampling(cfg.n, cfg.m, rng)
    circ = static_circ if static_circ is not None else \
        build_circulant(cfg.sequence_kind, cfg.n, cfg.sequence_params, rng)
    return SensingOperator(circ, samp, basis)


def _static_parts(cfg: ExperimentConfig):
    circ = None
    if not seqs.family(cfg.sequence_kind).random:
        circ = build_circulant(cfg.sequence_kind, cfg.n, cfg.sequence_params)
    samp = None
    if cfg.sampling_mode == "equispaced":
        samp = equispaced_sampling(cfg.n, cfg.m)
    elif cfg.sampling_mode != "random":
        raise ValueError(f"unknown sampling mode {cfg.sampling_mode!r}")
    return circ, samp


def _solve(cfg: ExperimentConfig, theta, y: np.ndarray):
    solver = SOLVERS.get(cfg.solver)
    if solver is None:
        raise ValueError(f"unknown solver {cfg.solver!r}; "
                         f"expected one of {sorted(SOLVERS)}")
    if cfg.solver == "fista":
        lam_rel = float(cfg.solver_params.get("lam_rel", 1e-4))
        lam = lam_rel * float(np.max(np.abs(theta.adjoint(y))))
        prob = RecoveryProblem(theta, y, lam=max(lam, 1e-300))
    else:
        prob = RecoveryProblem(theta, y, k=cfg.k)
    return solver(prob)


def _estimate_support(result, k: int) -> np.ndarray:
    """Top-k support of an estimate (greedy results already have <= k)."""
    if result.support.size <= k:
        return np.sort(result.support)
    mags = np.abs(result.f_hat)
    order = np.argsort(-mags, kind="stable")[:k]
    return np.sort(order)


# ---------------------------------------------------------------------------
# OFDM channel-estimation experiment
# ---------------------------------------------------------------------------

NOISE_CONVENTION_NOTE = (
    "noise: complex circular Gaussian drawn per trial and rescaled so the "
    "measurement-domain SNR 10*log10(||Theta x||^2/||e||^2) equals the "
    "target exactly; per-trial output SNR is "
    "10*log10(||x||^2/||x - x_hat||^2) on the channel estimate; the "
    "'mean output SNR' row value is the dB of the MEAN LINEAR SNR ratio "
    "over trials. The reference configuration refits real tap gains on "
    "the recovered support (the benchmark channel is real). Reference "
    "bands are +/-3 dB wide because the original tabulation does not "
    "state its noise convention.")

REFERENCE_OFDM_OUTPUT_SNR_DB = {
    # benchmark configuration N=1024, M=64, K=6, subspace pursuit,
    # real-tap refit enabled
    "golay+random": {0.0: 5.44, 10.0: 14.34, 20.0: 37.48, 30.0: 45.61},
    "random_phase+equispaced": {0.0: 5.32, 10.0: 13.98, 20.0: 37.53,
                                30.0: 45.22},
}


def ofdm_reference_config(scheme: str = "proposed", trials: int = 500,
                          master_seed: int = 0) -> ExperimentConfig:
    """The benchmark configuration behind REFERENCE_OFDM_OUTPUT_SNR_DB:
    N=1024, M=64, K=6, subspace pursuit, inputs 0/10/20/30 dB, real-tap
    refit on.  'proposed' = Golay spectrum + random sampling;
    'baseline' = per-trial random-phase spectrum + equispaced sampling."""
    if scheme == "proposed":
        kind, mode = "golay", "random"
    elif scheme == "baseline":
        kind, mode = "random_phase", "equispaced"
    else:
        raise ValueError("scheme must be 'proposed' or 'baseline'")
    return ExperimentConfig(
        experiment="ofdm", n=1024, m=64, k=6, sequence_kind=kind,
        solver="sp", snr_list=(0.0, 10.0, 20.0, 30.0), trials=trials,
        master_seed=master_seed, sampling_mode=mode,
        extra={"real_taps": True})


def _refit_real_taps(theta: SensingOperator, y: np.ndarray,
                     support: np.ndarray) -> np.ndarray:
    """Least-squares refit constrained to real coefficients on a fixed
    support (stacked real/imaginary normal equations, tiny ridge)."""
    f = np.zeros(theta.n, dtype=np.complex128)
    if support.size == 0:
        return f
    cols = theta.forward_batch(_unit_block(theta.n, support))
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([y.real, y.imag])
    gram = a.T @ a
    gram[np.diag_indices_from(gram)] += 1e-12
    f[support] = scipy.linalg.solve(gram, a.T @ b, assume_a="pos")
    return f


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
    note: str = NOISE_CONVENTION_NOTE

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


def run_ofdm_experiment(cfg: ExperimentConfig) -> OfdmReport:
    """Per input SNR: 'trials' seeded channel-estimation runs on the
    6-tap static channel; aggregates mean output SNR with standard
    error, support-exactness rate and iteration counts."""
    channel = attc_channel(cfg.n)
    x = channel.impulse_response()
    true_support = channel.support
    static_circ, static_samp = _static_parts(cfg)
    basis = Basis(cfg.basis)
    rows: List[SnrRow] = []
    records: List[TrialRecord] = []
    snrs = cfg.snr_list if cfg.snr_list else (None,)
    for snr in snrs:
        recs: List[TrialRecord] = []
        for t, seed, rng in _trial_rngs(cfg.master_seed, cfg.trials):
            tic = time.perf_counter()
            theta = _trial_operator(cfg, rng, static_circ, static_samp,
                                    basis)
            y0 = theta.forward(x)
            if snr is None:
                y, in_snr = y0, math.inf
            else:
                y, in_snr = _add_noise(rng, y0, snr), float(snr)
            result = _solve(cfg, theta, y)
            support = _estimate_support(result, channel.k)
            f_hat = result.f_hat
            if cfg.extra.get("real_taps"):
                f_hat = _refit_real_taps(theta, y, support)
            out = _output_snr_db(x, f_hat)
            exact = bool(np.array_equal(support, true_support))
            recs.append(TrialRecord(t, seed, in_snr, out, exact,
                                    result.iterations,
                                    time.perf_counter() - tic))
        rows.append(_aggregate(math.inf if snr is None else float(snr),
                               recs))
        records.extend(recs)
    return OfdmReport(config=cfg, rows=tuple(rows), records=tuple(records))


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
                   zero_mean: bool, real_values: bool = False
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """(signal, support).  Draw order: support via choice(n, k,
    replace=False), then one standard-normal block (complex: real then
    imaginary).  Zero-mean mode subtracts the support mean (keeps the
    support, kills the DC component)."""
    support = rng.choice(n, size=k, replace=False)
    f = np.zeros(n, dtype=np.complex128)
    vals = rng.standard_normal(k).astype(np.complex128)
    if not real_values:
        vals += 1j * rng.standard_normal(k)
    f[support] = vals
    if zero_mean:
        f[support] -= np.mean(f[support])
    return f, support


def _add_noise(rng: np.random.Generator, y0: np.ndarray,
               snr_db: float) -> np.ndarray:
    """y0 plus complex Gaussian noise (real block, then imaginary block)
    scaled so that 10*log10(||y0||^2/||e||^2) is exactly snr_db."""
    e = rng.standard_normal(y0.size) + 1j * rng.standard_normal(y0.size)
    e *= float(np.linalg.norm(y0)) * 10.0 ** (-snr_db / 20.0) \
        / float(np.linalg.norm(e))
    return y0 + e


def _rel_error(f: np.ndarray, f_hat: np.ndarray) -> float:
    return float(np.linalg.norm(f - f_hat) / np.linalg.norm(f))


# measurements a greedy solver needs per atom: OMP solves with K columns
# (K <= M), subspace pursuit with up to 2K candidates (2K <= M)
_ROWS_PER_ATOM = {"omp": 1, "sp": 2, "subspace_pursuit": 2}


def run_phase_transition(cfg: ExperimentConfig) -> PhaseReport:
    """Noiseless success rates (relative error <= 1e-4) over a grid of
    (basis, K, M) cells; grids come from cfg.extra (k_grid, m_grid,
    bases, zero_mean) and default to the single configured cell.  The
    same per-trial seeds are reused in every cell, pairing the grid.
    Cells the greedy solver cannot attempt (K > M for OMP, 2K > M for
    subspace pursuit) score zero successes without solving; any error
    raised while solving a feasible cell propagates."""
    k_grid = [int(v) for v in cfg.extra.get("k_grid", [cfg.k])]
    m_grid = [int(v) for v in cfg.extra.get("m_grid", [cfg.m])]
    bases = list(cfg.extra.get("bases", [cfg.basis]))
    zero_mean = bool(cfg.extra.get("zero_mean", False))
    static_circ, _ = _static_parts(cfg)
    cells: List[PhaseCell] = []
    for basis_kind in bases:
        basis = Basis(basis_kind)
        for k in k_grid:
            for m in m_grid:
                cell_cfg = dataclasses.replace(cfg, k=k, m=m,
                                               basis=basis_kind)
                static_samp = equispaced_sampling(cfg.n, m) \
                    if cfg.sampling_mode == "equispaced" else None
                successes = 0
                feasible = _ROWS_PER_ATOM.get(cfg.solver, 0) * k <= m
                trials = cfg.trials if feasible else 0
                for _, _, rng in _trial_rngs(cfg.master_seed, trials):
                    theta = _trial_operator(cell_cfg, rng, static_circ,
                                            static_samp, basis)
                    f, _ = _sparse_signal(rng, cfg.n, k, zero_mean)
                    result = _solve(cell_cfg, theta, theta.forward(f))
                    successes += _rel_error(f, result.f_hat) <= 1e-4
                cells.append(PhaseCell(basis=basis_kind, k=k, m=m,
                                       trials=cfg.trials,
                                       successes=successes))
    return PhaseReport(config=cfg, cells=tuple(cells))


# ---------------------------------------------------------------------------
# DCT-domain experiment
# ---------------------------------------------------------------------------

def read_pgm(path: str) -> np.ndarray:
    """8-bit grayscale PGM (P2 ascii or P5 binary) as floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens: List[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        # skip whitespace and comment lines
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if len(tokens) < 4:
        raise ValueError("truncated PGM header")
    magic, w_s, h_s, maxval_s = tokens
    width, height, maxval = int(w_s), int(h_s), int(maxval_s)
    if maxval <= 0 or maxval > 255:
        raise ValueError("only 8-bit PGM supported")
    count = width * height
    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        pix = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    elif magic == b"P2":
        vals = data[pos:].split()
        if len(vals) < count:
            raise ValueError("truncated PGM pixel data")
        pix = np.array([int(v) for v in vals[:count]], dtype=np.uint8)
    else:
        raise ValueError(f"not a PGM file (magic {magic!r})")
    return pix.reshape(height, width).astype(np.float64) / maxval


@dataclass(frozen=True)
class DctSchemeRow:
    scheme: str
    trials: int
    successes: int
    mean_output_snr_db: float

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
    with random sampling vs the random-phase + equispaced baseline on
    identical signals.  Synthetic mode draws K-sparse real DCT
    coefficient vectors; image mode (cfg.extra['image']) measures a PGM
    image, recovers a K-sparse DCT approximation, and scores output SNR
    against the original pixels.

    The one-sided sign test asks whether the configured scheme beats the
    baseline on paired per-trial outcomes (success indicators in
    synthetic mode, output SNRs in image mode)."""
    basis = Basis.inverse_dct2()
    static_circ, _ = _static_parts(cfg)
    baseline_samp = equispaced_sampling(cfg.n, cfg.m)
    image_path = cfg.extra.get("image")
    if image_path is not None:
        img = read_pgm(str(image_path))
        x_img = img.reshape(-1)
        if x_img.size != cfg.n:
            raise ValueError(
                f"image has {x_img.size} pixels but config N={cfg.n}")

    prop_succ = base_succ = 0
    prop_snrs: List[float] = []
    base_snrs: List[float] = []
    wins = losses = 0
    for _, _, rng in _trial_rngs(cfg.master_seed, cfg.trials):
        # (1) proposed sampling and random-family spectrum, (2) signal,
        # (3) baseline spectrum
        theta_p = _trial_operator(cfg, rng, static_circ, None, basis)
        if image_path is None:
            f_true, _ = _sparse_signal(rng, cfg.n, cfg.k, zero_mean=False,
                                       real_values=True)
            x_ref = basis.apply(f_true)
        else:
            x_ref = x_img.astype(np.complex128)
            f_true = basis.adjoint(x_ref)
        base_circ = build_circulant("random_phase", cfg.n, {}, rng)
        theta_b = SensingOperator(base_circ, baseline_samp, basis)
        outcomes = []
        for theta in (theta_p, theta_b):
            y = theta.forward(f_true)
            result = _solve(cfg, theta, y)
            x_hat = basis.apply(result.f_hat)
            snr = _output_snr_db(x_ref, x_hat)
            outcomes.append((_rel_error(f_true, result.f_hat) <= 1e-4, snr))
        (p_ok, p_snr), (b_ok, b_snr) = outcomes
        prop_succ += p_ok
        base_succ += b_ok
        prop_snrs.append(p_snr)
        base_snrs.append(b_snr)
        if image_path is None:
            wins += p_ok and not b_ok
            losses += b_ok and not p_ok
        else:
            wins += p_snr > b_snr
            losses += b_snr > p_snr
    if wins + losses == 0:
        p_value = 1.0
    else:
        p_value = float(binomtest(wins, wins + losses, 0.5,
                                  alternative="greater").pvalue)
    scheme_p = f"{cfg.sequence_kind}+random"
    rows = (
        DctSchemeRow(scheme=scheme_p, trials=cfg.trials,
                     successes=prop_succ,
                     mean_output_snr_db=float(np.mean(prop_snrs))),
        DctSchemeRow(scheme="random_phase+equispaced", trials=cfg.trials,
                     successes=base_succ,
                     mean_output_snr_db=float(np.mean(base_snrs))),
    )
    return DctReport(config=cfg, rows=rows, sign_test_p=p_value)


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


def audit_coherence_bounds(sizes: Optional[Dict[str, Tuple[int, ...]]] = None,
                 fzc_gamma: int = 1,
                 dct_sizes: Tuple[int, ...] = (64, 256, 1024)
                 ) -> AuditResult:
    """Coherence-bound table plus the 6*sqrt(2) DCT mutual-coherence rows."""
    reports = bound_table_report(sizes or _DEFAULT_TABLE1_SIZES,
                            fzc_gamma=fzc_gamma)
    reports += dct_coherence_report(dct_sizes, fzc_gamma)
    failures = tuple(
        f"{r.kind} N={r.n}: mu={r.mu_observed:.9g} > bound={r.bound:.9g}"
        for r in reports if not r.passed)
    return AuditResult(name="coherence_bounds", ok=not failures,
                       csv=bound_table_csv(reports), failures=failures)


def _complete_sum(n: int) -> complex:
    k = np.arange(n, dtype=np.int64)
    return complex(np.sum(np.exp(2j * np.pi * ((k * k) % n) / n)))


def audit_gauss(closed_form_max: int = 4096, identity_max: int = 256,
                sweep_max: int = 512) -> AuditResult:
    """Closed forms vs direct sums, the two identity sweeps, and the
    three bound families; CSV rows are worst-per-(kind, N)."""
    header = ["kind", "N", "worst_m", "observed", "bound", "margin"]
    rows: List[list] = []
    failures: List[str] = []

    for n in range(1, closed_form_max + 1):
        tol = 1e-8 * math.sqrt(n)
        resid = abs(_complete_sum(n)
                    - gauss_sums.complete_gauss_closed_form(n))
        rows.append(["gn_closed_form", n, n, resid, tol, tol - resid])
        if resid > tol:
            failures.append(f"closed form N={n}: residual {resid:.3e}")

    for n in range(1, identity_max + 1):
        tol = 1e-8 * math.sqrt(n)
        g = gauss_sums.gauss_sum_sweep("gn", n, n)
        m_hi = (n + 1) // 2
        ref = np.abs(g[1:m_hi + 1] + g[n - np.arange(1, m_hi + 1) + 1]
                     - 1.0 - g[n])
        worst = int(np.argmax(ref)) + 1
        rows.append(["gn_reflection", n, worst, float(ref[worst - 1]), tol,
                     tol - float(ref[worst - 1])])
        if ref[worst - 1] > tol:
            failures.append(f"reflection N={n}: residual {ref[worst-1]:.3e}")
        q = gauss_sums.gauss_sum_sweep("qn", n, n)
        g8 = gauss_sums.gauss_sum_sweep("g8n", n, 2 * n)
        g2 = gauss_sums.gauss_sum_sweep("g2n", n, n)
        m = np.arange(n + 1)
        qres = np.abs(q - (g8[2 * m] - g2[m]))
        worst = int(np.argmax(qres))
        rows.append(["qn_split", n, worst, float(qres[worst]), tol,
                     tol - float(qres[worst])])
        if qres[worst] > tol:
            failures.append(f"q split N={n}: residual {qres[worst]:.3e}")

    sweeps = (gauss_sums.bound_check("gn_normalized",
                                     range(4, sweep_max + 1))
              + gauss_sums.bound_check("g2n", range(2, sweep_max + 1))
              + gauss_sums.bound_check("qn", range(1, sweep_max + 1)))
    for rec in sweeps:
        rows.append([f"{rec.kind}:{rec.case}", rec.n, rec.worst_m,
                     rec.observed, rec.bound, rec.margin])
        if not rec.passed:
            failures.append(f"{rec.kind}:{rec.case} N={rec.n}: "
                            f"{rec.observed:.6g} > {rec.bound:.6g}")
    return AuditResult(name="gauss", ok=not failures,
                       csv=_csv(header, rows), failures=tuple(failures))


def audit_papr(golay_sizes: Tuple[int, ...] = (256, 512, 1024),
               random_n: int = 1024, random_seeds: int = 100,
               oversample: int = 16) -> AuditResult:
    """PAPR table: Golay rows must sit within 2 +/- 0.01 and the smallest
    random-phase PAPR over the seed set must be at least 4."""
    header = ["kind", "N", "oversample", "papr"]
    rows: List[list] = []
    failures: List[str] = []
    for n in golay_sizes:
        val = papr(seqs.golay(n), oversample)
        rows.append(["golay", n, oversample, val])
        if not (val <= 2.01):
            failures.append(f"golay N={n}: PAPR {val:.6g} > 2.01")
    for n in golay_sizes:
        rows.append(["fzc(gamma=1)", n, oversample,
                     papr(seqs.fzc(n, 1), oversample)])
    random_vals = [papr(seqs.random_phase(random_n, s), oversample)
                   for s in range(random_seeds)]
    rows += [[f"random_phase(seed={s})", random_n, oversample, val]
             for s, val in enumerate(random_vals)]
    if random_vals and min(random_vals) < 4.0:
        failures.append(f"random_phase N={random_n}: min PAPR "
                        f"{min(random_vals):.6g} < 4")
    return AuditResult(name="papr", ok=not failures,
                       csv=_csv(header, rows), failures=tuple(failures))
