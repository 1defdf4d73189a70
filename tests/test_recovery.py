"""Sparse solvers: exact recovery, dense least-squares agreement, guards."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from convsense import harness, recovery
from convsense import sequences as seqs
from convsense.operators import (Basis, CirculantOperator, SensingOperator,
                                 StackedOperator, build_circulant,
                                 equispaced_sampling, random_sampling)
from convsense.recovery import (_OMP_STOP_REL, RecoveryProblem,
                                RecoveryResult, SOLVERS, _embed,
                                _fista_applications, _fista_stage,
                                _least_squares, _step_bound, _top_indices,
                                fista_lasso, omp, subspace_pursuit,
                                subspace_pursuit_block)


def _problem(n=64, m=24, k=3, seed=0, basis="identity", snr_db=None):
    rng = np.random.default_rng(seed)
    theta = SensingOperator(
        CirculantOperator.from_spectrum(seqs.fzc(n, 1)),
        random_sampling(n, m, seed), Basis(basis))
    support = rng.choice(n, size=k, replace=False)
    f = np.zeros(n, dtype=np.complex128)
    f[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y = theta.forward(f)
    if snr_db is not None:
        e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        e *= np.linalg.norm(y) * 10 ** (-snr_db / 20) / np.linalg.norm(e)
        y = y + e
    return theta, f, support, y


def _dense(theta):
    """Theta as every column of its one-member stack."""
    return StackedOperator.of([theta]).columns(np.arange(theta.n)[None])[0]


# ---------------------------------------------------------------------------
# greedy solvers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solver", [omp, subspace_pursuit])
def test_noiseless_exact_recovery(solver):
    for seed in range(5):
        theta, f, support, y = _problem(seed=seed)
        res = solver(RecoveryProblem(operator=theta, y=y, k=3))
        assert np.linalg.norm(res.f_hat - f) < 1e-8 * np.linalg.norm(f)
        assert set(res.support.tolist()) == set(support.tolist())
        assert res.converged


def test_omp_selects_largest_correlation_first():
    theta, f, support, y = _problem(seed=1, k=1)
    corr = np.abs(theta.adjoint(y))
    res = omp(RecoveryProblem(operator=theta, y=y, k=1))
    assert res.support[0] == int(np.argmax(corr))


def test_omp_refit_matches_lstsq():
    theta, f, support, y = _problem(seed=2, snr_db=20)
    res = omp(RecoveryProblem(operator=theta, y=y, k=3))
    want = oracles.least_squares_on_support(_dense(theta), y, res.support)
    assert np.allclose(res.f_hat, want, atol=1e-7)


def test_sp_refit_matches_lstsq():
    theta, f, support, y = _problem(seed=4, snr_db=20)
    res = subspace_pursuit(RecoveryProblem(operator=theta, y=y, k=3))
    want = oracles.least_squares_on_support(_dense(theta), y, res.support)
    assert np.allclose(res.f_hat, want, atol=1e-7)


@pytest.mark.parametrize("solver", [omp, subspace_pursuit, fista_lasso])
def test_results_deterministic(solver):
    theta, f, support, y = _problem(seed=5, snr_db=15)
    pose = {"lam_rel": 1e-2} if solver is fista_lasso else {"k": 3}
    a = solver(RecoveryProblem(operator=theta, y=y, **pose))
    b = solver(RecoveryProblem(operator=theta, y=y, **pose))
    assert np.array_equal(a.f_hat, b.f_hat)
    assert np.array_equal(a.support, b.support)
    assert a.iterations == b.iterations


def test_noisy_recovery_stays_close():
    theta, f, support, y = _problem(seed=6, snr_db=30)
    res = subspace_pursuit(RecoveryProblem(operator=theta, y=y, k=3))
    rel = np.linalg.norm(res.f_hat - f) / np.linalg.norm(f)
    assert rel < 0.1


def test_guards():
    theta, f, support, y = _problem()
    with pytest.raises(ValueError):
        omp(RecoveryProblem(operator=theta, y=y, k=25))  # K > M
    with pytest.raises(ValueError):
        subspace_pursuit(RecoveryProblem(operator=theta, y=y, k=13))
    with pytest.raises(ValueError):
        omp(RecoveryProblem(operator=theta, y=y, k=None))
    with pytest.raises(ValueError, match="lam_rel > 0"):
        fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=0.0))


def test_dense_matrix_operator_is_refused():
    with pytest.raises(TypeError, match="SensingOperator"):
        RecoveryProblem(np.eye(4), np.ones(4), k=1)


def test_a_problem_holds_one_member_stack():
    # a SensingOperator is held as its one-member stack, field for field
    # StackedOperator.of([theta]); a one-member stack as it is; a stack
    # of several is not one problem
    theta, f, support, y = _problem()
    held = RecoveryProblem(theta, y, k=3).operator
    want = StackedOperator.of([theta])
    for name in ("rows", "circ", "spectra", "filters"):
        assert np.array_equal(getattr(held, name), getattr(want, name))
    assert held.basis == want.basis
    stack = StackedOperator.of([theta, theta])
    member = stack[1:]
    assert RecoveryProblem(member, y, k=3).operator is member
    with pytest.raises(ValueError, match="one-member stack, got 2"):
        RecoveryProblem(stack, y, k=3)


@pytest.mark.parametrize("dense", [True, False])
def test_solvers_apply_theta_only_through_its_stack(dense, monkeypatch):
    # every solver computes on the problem's stack: with the vector
    # methods of SensingOperator refusing to run, each solve is unchanged
    if not dense:
        monkeypatch.setattr(recovery, "_FISTA_DENSE_MAX", 0)
    theta, f, support, y = _problem(n=64, m=32, k=3, seed=12,
                                    basis="inverse_dct2", snr_db=20)
    cases = [(omp, RecoveryProblem(theta, y, k=3)),
             (subspace_pursuit, RecoveryProblem(theta, y, k=3)),
             (fista_lasso, RecoveryProblem(theta, y, lam_rel=1e-3))]
    wants = [solver(p) for solver, p in cases]

    def refused(*args):
        raise AssertionError("a solver called a SensingOperator method")
    for name in ("forward", "adjoint", "forward_batch"):
        monkeypatch.setattr(SensingOperator, name, refused)
    for (solver, p), want in zip(cases, wants):
        got = solver(p)
        assert np.array_equal(got.f_hat, want.f_hat)
        assert got.iterations == want.iterations


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_measurements_of_another_shape_are_refused(solver):
    theta, f, support, y = _problem()  # M = 24
    for bad in (np.stack([y, y], axis=1), y[:-1]):
        with pytest.raises(ValueError, match=re.escape(
                f"shape (24,), got {bad.shape}")):
            SOLVERS[solver](RecoveryProblem(operator=theta, y=bad, k=3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_measurements_are_refused(bad):
    theta, f, support, y = _problem()
    y = y.copy()
    y[4] = bad
    with pytest.raises(ValueError, match="finite"):
        RecoveryProblem(operator=theta, y=y, k=3)


def test_sp_block_refuses_what_a_problem_refuses():
    # the block solver takes a stack and a (B, M) block, not problems, so
    # it makes RecoveryProblem's measurement and K checks itself
    theta, f, support, y = _problem()  # M = 24
    stack = StackedOperator.of([theta, theta])
    ys = np.stack([y, y])
    for bad in (np.nan, np.inf):
        nonfinite = ys.copy()
        nonfinite[1, 4] = bad
        with pytest.raises(ValueError, match="measurements y must be finite"):
            subspace_pursuit_block(stack, nonfinite, 3)
    for bad in (y, ys[:1], ys[:, :-1], ys[..., None]):
        with pytest.raises(ValueError, match=re.escape(
                f"measurements y must have shape (2, 24), got {bad.shape}")):
            subspace_pursuit_block(stack, bad, 3)
    for k in (0, -1):
        with pytest.raises(ValueError, match="positive sparsity K"):
            subspace_pursuit_block(stack, ys, k)
    with pytest.raises(ValueError, match=r"needs 2K <= M, got K=13 M=24"):
        subspace_pursuit_block(stack, ys, 13)
    # 2K = M is the largest K it solves
    assert len(subspace_pursuit_block(stack, ys, 12)) == 2


def _sp_block(thetas, problems):
    """Subspace pursuit on a list of problems of one K, as one block on
    the stack of their operators ``thetas``."""
    return subspace_pursuit_block(StackedOperator.of(thetas),
                                  np.stack([p.y for p in problems]),
                                  problems[0].k)


# The one-problem subspace pursuit the lockstep solver replaced, with the
# helpers it called, kept verbatim as the bit-for-bit reference.

def _reference_least_squares(cols, y):
    cols_h = cols.conj().T
    gram = cols_h @ cols
    gram.flat[::gram.shape[0] + 1] += 1e-12
    return np.linalg.solve(gram, cols_h @ y)


def _reference_top_indices(mags, k):
    neg = -mags
    kth = np.partition(neg, k - 1)[k - 1]
    better = np.flatnonzero(neg < kth)
    tied = np.flatnonzero(neg == kth)[:k - better.size]
    return np.concatenate((better, tied))


def _reference_subspace_pursuit(p):
    op, y, k = p.operator, p.y, p.k
    support = np.sort(_reference_top_indices(np.abs(op.adjoint(y[None])[0]),
                                             k).astype(np.int64))
    cols = op.columns(support[None])[0]
    coef = _reference_least_squares(cols, y)
    r = y - cols @ coef
    rnorm = float(np.linalg.norm(r))
    iterations = 0
    converged = False
    for _ in range(50):
        iterations += 1
        cand = np.union1d(support, _reference_top_indices(
            np.abs(op.adjoint(r[None])[0]), k))
        ccols = op.columns(cand[None])[0]
        ccoef = _reference_least_squares(ccols, y)
        keep = np.sort(_reference_top_indices(np.abs(ccoef), k))
        new_support = cand[keep]
        ncols = ccols[:, keep]
        ncoef = _reference_least_squares(ncols, y)
        nres = y - ncols @ ncoef
        nnorm = float(np.linalg.norm(nres))
        if nnorm > rnorm:
            converged = True
            break
        moved = rnorm - nnorm
        support, coef, r, rnorm = new_support, ncoef, nres, nnorm
        if moved <= 1e-7 * max(rnorm, 1e-300):
            converged = True
            break
    f_hat = np.zeros(op.n, dtype=np.complex128)
    f_hat[support] = coef
    return RecoveryResult(f_hat=f_hat, support=support,
                          iterations=iterations, residual_norm=rnorm,
                          converged=converged)


@pytest.mark.parametrize("basis", ["identity", "inverse_fourier",
                                   "inverse_dct2"])
@pytest.mark.parametrize("kind, sampling", [("golay", "random"),
                                            ("random_phase", "equispaced")])
def test_sp_block_equals_the_one_problem_reference(basis, kind, sampling):
    # per-trial sampling sets (golay) or per-trial spectra (random phase),
    # noisy enough that the trials of a block stop at different rounds
    cfg = harness.ExperimentConfig(experiment="sp", n=256, m=40, k=5,
                                   sequence_kind=kind, basis=basis,
                                   sampling_mode=sampling)
    draw = harness._operator_draw(cfg)
    thetas, problems = [], []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        thetas.append(draw(rng))
        f, _ = harness._sparse_signal(rng, cfg.n, cfg.k)
        y0 = thetas[-1].forward(f)
        y = harness._add_noise(y0, harness._noise(rng, cfg.m), 8.0 + seed)
        problems.append(RecoveryProblem(thetas[-1], y, k=cfg.k))
    want = [_reference_subspace_pursuit(p) for p in problems]
    assert len({w.iterations for w in want}) > 1
    for b, lo in ((1, 0), (3, 1), (8, 4)):
        got = _sp_block(thetas[lo:lo + b], problems[lo:lo + b])
        assert len(got) == b
        for g, w in zip(got, want[lo:lo + b]):
            for name in ("f_hat", "support", "iterations", "residual_norm",
                         "converged"):
                assert np.array_equal(getattr(g, name), getattr(w, name)), \
                    name


@pytest.mark.parametrize("basis", ["identity", "inverse_fourier",
                                   "inverse_dct2"])
def test_sp_round_without_new_atoms_equals_the_reference(basis,
                                                         monkeypatch):
    # with every row sampled Theta is unitary, so the noiseless first
    # support is exact and the ridge leaves the largest correlations of
    # its residual on that support: a round whose candidates are its
    # support (K of them, no new atom) must still solve as the reference
    n, k = 64, 4
    theta = SensingOperator(
        CirculantOperator.from_spectrum(seqs.fzc(n, 1)),
        equispaced_sampling(n, n), Basis(basis))
    problems = []
    for seed in range(4):
        f, _ = harness._sparse_signal(np.random.default_rng(seed), n, k)
        problems.append(RecoveryProblem(theta, theta.forward(f), k=k))
    wants = [_reference_subspace_pursuit(p) for p in problems]
    widths = []
    columns = StackedOperator.columns

    def counted(self, idx):
        widths.append(np.shape(idx)[-1])
        return columns(self, idx)
    monkeypatch.setattr(StackedOperator, "columns", counted)
    for seed, (p, want) in enumerate(zip(problems, wants)):
        widths.clear()
        got = subspace_pursuit(p)
        for name in ("f_hat", "support", "iterations", "residual_norm",
                     "converged"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                (seed, name)
        # the first support, then one candidate set per round
        assert widths[0] == k and len(widths) == got.iterations + 1
        assert k in widths[1:], seed


def test_sp_stops_by_its_stated_rule_on_the_ofdm_reference(monkeypatch):
    # the documented rule: a problem stops after the first round whose
    # residual drop is <= 1e-7 of the new residual, or that raised the
    # residual (reverted, so the drop reads 0), and not before.  Each
    # problem's residual after round j is its result with the round cap
    # at j.  The 60 reference trials at every SNR row hold rounds whose
    # drop is between 1e-7 and 1e-3 (trials 42, 53 and 57 at 0 and 10 dB)
    cfg = harness.ofdm_reference_config("proposed", trials=60)
    x = harness.attc_channel(cfg.n)
    draw = harness._operator_draw(cfg)
    thetas, problems = [], []
    for _, _, rng in harness._trial_rngs(cfg.master_seed, cfg.trials):
        theta = draw(rng)
        y0 = theta.forward(x)
        e = harness._noise(rng, cfg.m)
        thetas += [theta] * len(cfg.snr_list)
        problems += [RecoveryProblem(theta, harness._add_noise(y0, e, snr),
                                     k=cfg.k) for snr in cfg.snr_list]
    final = _sp_block(thetas, problems)
    assert all(res.converged for res in final)
    capped = []
    for cap in range(max(res.iterations for res in final)):
        monkeypatch.setattr(recovery, "_SP_MAX_ITERS", cap)
        capped.append(_sp_block(thetas, problems))
    for b, res in enumerate(final):
        norms = [capped[j][b].residual_norm for j in range(res.iterations)]
        norms.append(res.residual_norm)
        for j in range(1, res.iterations):
            assert norms[j - 1] - norms[j] > 1e-7 * norms[j], (b, j)
        assert norms[-2] - norms[-1] <= 1e-7 * norms[-1], b


# The OMP that rebuilt its whole support's columns every round, kept
# verbatim as the bit-for-bit reference for the one that appends a column.

def _reference_omp(p: RecoveryProblem) -> RecoveryResult:
    if p.k is None or p.k < 1:
        raise ValueError("omp requires a positive sparsity K")
    op = p.operator
    if p.k > op.m:
        raise ValueError(f"K={p.k} exceeds M={op.m}")
    y = p.y
    ynorm = float(np.linalg.norm(y))
    support: list = []
    coef = np.zeros(0, dtype=np.complex128)
    r = y.copy()
    iterations = 0
    for _ in range(p.k):
        if float(np.linalg.norm(r)) <= _OMP_STOP_REL * ynorm:
            break
        mags = np.abs(op.adjoint(r[None])[0])
        if support:
            mags[np.asarray(support)] = -1.0
        support.append(int(np.argmax(mags)))
        cols = op.columns(np.asarray(support, dtype=np.int64)[None])[0]
        coef = _least_squares(cols, y)
        r = y - cols @ coef
        iterations += 1
    sup = np.asarray(support, dtype=np.int64)
    order = np.argsort(sup)
    f_hat = _embed(op.n, sup[order], coef[order])
    res = float(np.linalg.norm(r))
    return RecoveryResult(f_hat=f_hat, support=np.sort(sup),
                          iterations=iterations, residual_norm=res,
                          converged=res <= _OMP_STOP_REL * ynorm)


@pytest.mark.parametrize("basis", ["identity", "inverse_fourier",
                                   "inverse_dct2"])
@pytest.mark.parametrize("kind, sampling", [("golay", "random"),
                                            ("random_phase", "equispaced")])
def test_omp_equals_the_rebuild_every_column_reference(basis, kind,
                                                       sampling):
    # N = 1024 as in the phase grid; noiseless signals sparser than K stop
    # early at the 1e-6 residual, noisy ones run all K rounds
    cfg = harness.ExperimentConfig(experiment="omp", n=1024, m=128, k=16,
                                   sequence_kind=kind, basis=basis,
                                   sampling_mode=sampling)
    draw = harness._operator_draw(cfg)
    early = 0
    for seed, (k_signal, k, snr) in enumerate([
            (5, 16, None), (16, 16, None), (4, 4, None), (16, 16, 20.0),
            (3, 8, 10.0), (10, 16, 30.0)]):
        rng = np.random.default_rng(seed)
        theta = draw(rng)
        f, _ = harness._sparse_signal(rng, cfg.n, k_signal)
        y = theta.forward(f)
        if snr is not None:
            y = harness._add_noise(y, harness._noise(rng, cfg.m), snr)
        p = RecoveryProblem(theta, y, k=k)
        got, want = omp(p), _reference_omp(p)
        early += want.converged and want.iterations < k
        for name in ("f_hat", "support", "iterations", "residual_norm",
                     "converged"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                (seed, name)
    assert early > 0


def test_omp_builds_each_column_once(monkeypatch):
    # a K-round solve builds K columns; rebuilding the support every round
    # built K(K+1)/2 (136 at K = 16)
    theta, f, support, y = _problem(n=256, m=128, k=16, seed=3,
                                    basis="inverse_dct2")
    built = []
    real = StackedOperator.columns

    def counted(self, idx):
        built.append(np.shape(idx)[-1])
        return real(self, idx)
    monkeypatch.setattr(StackedOperator, "columns", counted)
    res = omp(RecoveryProblem(operator=theta, y=y, k=16))
    assert res.iterations == 16 and res.converged
    assert set(res.support.tolist()) == set(support.tolist())
    assert built == [1] * 16


def test_omp_stops_at_its_stated_residual():
    # the documented rule: OMP stops after the first round whose residual
    # is <= 1e-6 ||y||, and not before.  A weak atom at about 1e-4 of
    # ||f|| leaves a residual between 1e-6 and 1e-3 of ||y|| until OMP
    # picks it, so a rule 1000x looser stops a round early.  OMP's picks
    # do not depend on K, so its residual after round j is its result at
    # K = j
    cfg = harness.ExperimentConfig(experiment="omp", n=1024, m=128, k=16,
                                   sequence_kind="golay",
                                   basis="inverse_dct2")
    draw = harness._operator_draw(cfg)
    weak_rounds = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        theta = draw(rng)
        f, support = harness._sparse_signal(rng, cfg.n, 8)
        if seed % 2:
            f[support[0]] *= 1e-4 * np.linalg.norm(f) / abs(f[support[0]])
        y = theta.forward(f)
        ynorm = float(np.linalg.norm(y))
        res = omp(RecoveryProblem(theta, y, k=cfg.k))
        norms = [ynorm] + [omp(RecoveryProblem(theta, y, k=j)).residual_norm
                           for j in range(1, res.iterations + 1)]
        assert norms[-1] == res.residual_norm
        assert res.converged and norms[-1] <= 1e-6 * ynorm, seed
        assert all(r > 1e-6 * ynorm for r in norms[:-1]), seed
        weak_rounds += any(1e-6 * ynorm < r <= 1e-3 * ynorm
                           for r in norms[:-1])
    assert weak_rounds == 3


def test_frequency_domain_recovery():
    theta, f, support, y = _problem(basis="inverse_fourier", seed=7)
    res = subspace_pursuit(RecoveryProblem(operator=theta, y=y, k=3))
    assert np.linalg.norm(res.f_hat - f) < 1e-8 * np.linalg.norm(f)


# ---------------------------------------------------------------------------
# FISTA
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(seqs.FAMILIES))
def test_fista_step_bound_is_the_squared_operator_norm(kind):
    # Theta Theta^* = (N/M) R F_u^* diag(|sigma|^2) F_u R^*: its top
    # eigenvalue is (N/M) max|sigma|^2 for every family, whatever the
    # basis and the sampling
    n = next(n for n in range(16, 100)
             if seqs.FAMILIES[kind].admissible(n, {}) is None)
    rng = np.random.default_rng(4)
    circ = build_circulant(kind, n, {}, rng)
    for sampling in (random_sampling(n, n // 3, rng),
                     equispaced_sampling(n, n // 3)):
        for basis in ("identity", "inverse_fourier", "inverse_dct2"):
            theta = SensingOperator(circ, sampling, Basis(basis))
            norm2 = np.linalg.norm(_dense(theta), 2) ** 2
            assert _step_bound(StackedOperator.of([theta])) / (1.0 + 1e-3) == \
                pytest.approx(norm2, rel=1e-12, abs=0)


def test_fista_step_bound_is_safe_for_an_uneven_spectrum():
    # a Gaussian filter's spectrum is uneven: the bound is above
    # ||Theta||^2, which keeps 1/L a safe step
    for seed in range(3):
        theta, _ = _fista_case("gaussian_filter", seed, None)
        matrix = _dense(theta)
        assert _step_bound(StackedOperator.of([theta])) >= \
            np.linalg.norm(matrix, 2) ** 2


def test_fista_step_bound_is_the_member_s_own():
    # a member sliced out of a stack of uneven spectra keeps its own
    # bound, not the largest in the stack
    rng = np.random.default_rng(5)
    ops = [SensingOperator(
        CirculantOperator.from_filter(scale * rng.standard_normal(64)),
        random_sampling(64, 32, rng), Basis("identity"))
        for scale in (1.0, 3.0)]
    stack = StackedOperator.of(ops)
    for b, op in enumerate(ops):
        assert _step_bound(stack[b:b + 1]) == \
            _step_bound(StackedOperator.of([op]))
    assert _step_bound(stack[:1]) < _step_bound(stack[1:])


def test_fista_recovers_support_and_obeys_kkt():
    theta, f, support, y = _problem(n=64, m=32, k=3, seed=8)
    res = fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1e-3))
    lam = 1e-3 * float(np.max(np.abs(theta.adjoint(y))))
    assert set(support.tolist()) <= set(res.support.tolist())
    # KKT for lasso: |Theta^*(y - Theta f)| <= lam + slack off-support,
    # = lam on the support (up to solver tolerance)
    grad = theta.adjoint(y - theta.forward(res.f_hat))
    assert np.max(np.abs(grad)) <= lam * 1.05 + 1e-8


def test_fista_null_condition():
    theta, f, support, y = _problem(seed=9)
    res = fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1.01))
    assert np.allclose(res.f_hat, 0.0)
    assert res.support.size == 0


def test_fista_objective_beats_soft_start():
    theta, f, support, y = _problem(seed=10, snr_db=20)
    res = fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1e-2))
    lam = 1e-2 * float(np.max(np.abs(theta.adjoint(y))))

    def objective(x):
        r = y - theta.forward(x)
        return 0.5 * np.vdot(r, r).real + lam * np.sum(np.abs(x))

    assert objective(res.f_hat) <= objective(np.zeros_like(res.f_hat))
    assert res.converged


def _fista_three_applications(operator, y, lam_rel):
    """Reference FISTA that recomputes Theta z each iteration (two forwards
    and one adjoint) under the same lambda-continuation as ``fista_lasso``:
    six geometric stages from 0.5 max|Theta^* y| down to
    lam = lam_rel max|Theta^* y| (lam alone when lam is not below that),
    with the closed-form step bound, each restarting momentum from the last
    stage's solution, intermediate stages stopping at 1e-5 relative
    objective change or 200 iterations, the last at 1e-8, and 2000
    iterations over all stages; the same iterates up to rounding.
    Returns (f_hat, iterations, converged, restarts), ``converged`` that
    of the last stage."""
    L = _step_bound(StackedOperator.of([operator]))
    top = float(np.max(np.abs(operator.adjoint(y))))
    lam, lam0 = lam_rel * top, 0.5 * top
    lams = [lam] if lam >= lam0 else \
        [float(v) for v in np.geomspace(lam0, lam, 6)[:-1]] + [lam]

    def objective(f, rf, stage_lam):
        return 0.5 * float(np.linalg.norm(y - rf)) ** 2 \
            + stage_lam * float(np.sum(np.abs(f)))

    f = np.zeros(operator.n, dtype=np.complex128)
    rf = operator.forward(f)
    iterations = restarts = 0
    for stage, stage_lam in enumerate(lams):
        last = stage == len(lams) - 1
        stop_rel, cap = (1e-8, 2000 - iterations) if last else (1e-5, 200)
        obj = objective(f, rf, stage_lam)
        z, t, converged = f, 1.0, False
        for _ in range(cap):
            iterations += 1
            grad = operator.adjoint(operator.forward(z) - y)
            f_new = oracles.soft_threshold(z - grad / L, stage_lam / L)
            rf_new = operator.forward(f_new)
            obj_new = objective(f_new, rf_new, stage_lam)
            if obj_new > obj:
                restarts += 1
                t = 1.0
                grad = operator.adjoint(rf - y)
                f_new = oracles.soft_threshold(f - grad / L, stage_lam / L)
                rf_new = operator.forward(f_new)
                obj_new = objective(f_new, rf_new, stage_lam)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = f_new + ((t - 1.0) / t_new) * (f_new - f)
            drop = abs(obj - obj_new)
            f, rf, t = f_new, rf_new, t_new
            if drop <= stop_rel * max(obj, 1e-300):
                converged = True
                break
            obj = min(obj, obj_new)
    return f, iterations, converged, restarts


def _fista_case(basis, seed, snr_db):
    if basis == "gaussian_filter":
        # a non-unimodular spectrum, so Theta Theta^* is not (N/M) I and
        # the step bound is above ||Theta||^2
        rng = np.random.default_rng(seed)
        circ = CirculantOperator.from_filter(
            rng.standard_normal(64) + 1j * rng.standard_normal(64))
        theta = SensingOperator(circ, random_sampling(64, 32, rng),
                                Basis("identity"))
        f = np.zeros(64, dtype=np.complex128)
        f[rng.choice(64, size=3, replace=False)] = rng.standard_normal(3)
        y = theta.forward(f)
    else:
        theta, f, support, y = _problem(n=64, m=32, k=3, seed=seed,
                                        basis=basis, snr_db=snr_db)
    return theta, y


def test_fista_makes_one_forward_and_one_adjoint_per_iteration(monkeypatch):
    theta, y = _fista_case("inverse_dct2", 1, 20)
    _, _, _, restarts = _fista_three_applications(theta, y, 1e-3)
    assert restarts > 0  # the restart branch runs too
    calls = {"forward": 0, "adjoint": 0}

    def counted(name, apply):
        def wrapper(x):
            calls[name] += 1
            return apply(x)
        return wrapper

    def applications(op):
        forward, adjoint = _fista_applications(op)
        return counted("forward", forward), counted("adjoint", adjoint)

    # FISTA applies Theta only through the pair this seam returns
    monkeypatch.setattr(recovery, "_fista_applications", applications)
    res = fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1e-3))
    # one adjoint more, for max|Theta^* y|; the zero start needs no forward
    n_apps = res.iterations + restarts
    assert calls == {"forward": n_apps, "adjoint": n_apps + 1}


@pytest.mark.parametrize("basis", ["identity", "inverse_fourier",
                                   "inverse_dct2", "gaussian_filter"])
def test_fista_matches_three_application_reference(basis):
    for seed, snr_db in ((0, None), (1, 20), (2, 20)):
        theta, y = _fista_case(basis, seed, snr_db)
        f_ref, iterations, converged, restarts = \
            _fista_three_applications(theta, y, 1e-3)
        res = fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1e-3))
        assert restarts > 0
        assert res.iterations == iterations
        assert res.converged == converged
        assert np.array_equal(res.support, np.flatnonzero(np.abs(f_ref) > 0))
        assert np.max(np.abs(res.f_hat - f_ref)) \
            <= 1e-12 * np.linalg.norm(f_ref)


@pytest.mark.parametrize("basis", ["identity", "inverse_fourier",
                                   "inverse_dct2", "gaussian_filter"])
def test_fista_above_the_dense_cap_solves_alike(basis, monkeypatch):
    # these 32 x 64 problems apply Theta as a matrix; with the cap at 0
    # they run on the operator's own FFT-backed forward and adjoint
    cases = [_fista_case(basis, seed, snr_db)
             for seed, snr_db in ((0, None), (1, 20), (2, 20))]
    dense = [fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1e-3))
             for theta, y in cases]
    monkeypatch.setattr(recovery, "_FISTA_DENSE_MAX", 0)
    applied = []
    for name in ("forward", "adjoint"):
        apply = getattr(StackedOperator, name)
        monkeypatch.setattr(StackedOperator, name,
                            lambda self, x, apply=apply, name=name:
                            applied.append(name) or apply(self, x))
    for (theta, y), want in zip(cases, dense):
        # the pair is the stack's own FFT-backed forward and adjoint
        stack = StackedOperator.of([theta])
        forward, adjoint = _fista_applications(stack)
        f = theta.adjoint(y)
        applied.clear()
        assert np.array_equal(forward(f), stack.forward(f[None])[0])
        assert np.array_equal(adjoint(y), stack.adjoint(y[None])[0])
        assert applied == ["forward"] * 2 + ["adjoint"] * 2
        got = fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1e-3))
        assert (got.iterations, got.converged) == \
            (want.iterations, want.converged)
        assert np.array_equal(got.support, want.support)
        assert np.max(np.abs(got.f_hat - want.f_hat)) \
            <= 1e-12 * np.linalg.norm(want.f_hat)


@pytest.mark.parametrize("dense", [True, False])
def test_fista_stage_matches_the_allocating_stage_bit_for_bit(dense,
                                                              monkeypatch):
    # the in-place stage against the one it replaced, kept as
    # oracles.fista_stage: every stage of these solves, and one cut by
    # max_iters, returns the same f and Theta f bytes, iterations and
    # stop, on either application pair, leaving its inputs and every
    # array the pair returned as they were
    if not dense:
        monkeypatch.setattr(recovery, "_FISTA_DENSE_MAX", 0)
    stages = []

    def checked(theta, y, L, lam, f, rf, stop_rel, max_iters):
        inputs = [(a, a.tobytes()) for a in (y, f, rf)]
        returned = []

        def kept(apply):
            def wrapper(x):
                out = apply(x)
                returned.append((out, out.tobytes()))
                return out
            return wrapper

        got = _fista_stage((kept(theta[0]), kept(theta[1])), y, L, lam, f,
                           rf, stop_rel, max_iters)
        want = oracles.fista_stage(theta, y, L, lam, f, rf, stop_rel,
                                   max_iters)
        assert [a.tobytes() for a in got[:2]] == \
            [a.tobytes() for a in want[:2]]
        assert got[2:] == want[2:]
        assert all(a.tobytes() == b for a, b in inputs + returned)
        forwards = len(returned) // 2  # one adjoint per forward
        stages.append((got[2], max_iters, got[3], forwards))
        return got

    monkeypatch.setattr(recovery, "_fista_stage", checked)
    for basis in ("identity", "inverse_fourier", "inverse_dct2",
                  "gaussian_filter"):
        theta, y = _fista_case(basis, 1, 20)
        fista_lasso(RecoveryProblem(operator=theta, y=y, lam_rel=1e-3))
        zeros = np.zeros(theta.n, dtype=np.complex128)
        stack = StackedOperator.of([theta])
        checked(_fista_applications(stack), y, _step_bound(stack),
                1e-3 * float(np.max(np.abs(theta.adjoint(y)))), zeros,
                theta.forward(zeros), 1e-8, 5)
    # some stage restarted (a forward more than its iterations), and the
    # capped ones stopped at max_iters unconverged
    assert any(forwards > used for used, _, _, forwards in stages)
    assert sum(used == cap and not converged
               for used, cap, converged, _ in stages) >= 4


def test_fista_solve_at_the_dct_experiment_size_stays_small():
    # Theta as a 128 x 512 matrix is 1 MiB, and building it holds one
    # more 1 MiB block while the basis transforms it (2.03 MiB in all);
    # an (N, M) gather index (2.50 MiB) or a stored Theta^H (3.00 MiB)
    # would show here
    n, m = 512, 128
    theta = SensingOperator(CirculantOperator.from_spectrum(seqs.fzc(n, 1)),
                            random_sampling(n, m, 0), Basis.inverse_dct2())
    f, _ = harness._sparse_signal(np.random.default_rng(0), n, 8,
                                  real_values=True)
    problem = RecoveryProblem(operator=theta, y=theta.forward(f))
    tracemalloc.start()
    try:
        fista_lasso(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2 ** 20


def _dct_baseline_draw(trial):
    """Theta and y of one baseline solve of ``run_dct_experiment`` at
    N=128, M=32, K=4, seed 0 (random phase, equispaced sampling, inverse
    DCT-II), drawn in the experiment's order."""
    cfg = harness.ExperimentConfig(
        experiment="dct", n=128, m=32, k=4, sequence_kind="fzc",
        sequence_params={"gamma": 1}, basis="inverse_dct2", solver="fista",
        trials=trial + 1, master_seed=0)
    draw_proposed = harness._operator_draw(cfg)
    draw_baseline = harness._operator_draw(dataclasses.replace(
        cfg, sequence_kind="random_phase", sequence_params={},
        sampling_mode="equispaced"))
    for _, _, rng in harness._trial_rngs(0, trial + 1):
        draw_proposed(rng)
        f, _ = harness._sparse_signal(rng, 128, 4, real_values=True)
        theta = draw_baseline(rng)
    return theta, theta.forward(f)


@pytest.mark.parametrize("trial", [0, 2, 7])
def test_fista_continuation_finishes_solves_plain_fista_capped(trial):
    # plain FISTA from zero at lambda = 1e-4 max|Theta^* y| stopped at
    # the 2000-iteration cap on each of these draws; under continuation
    # they converge (783, 383 and 684 iterations) and the LASSO
    # optimality condition holds at the posed lambda
    theta, y = _dct_baseline_draw(trial)
    res = fista_lasso(RecoveryProblem(operator=theta, y=y))
    assert res.converged and res.iterations < 2000
    lam = 1e-4 * float(np.max(np.abs(theta.adjoint(y))))
    grad = theta.adjoint(y - theta.forward(res.f_hat))
    assert np.max(np.abs(grad)) <= 1.05 * lam


@pytest.mark.parametrize("basis", ["identity", "inverse_fourier",
                                   "inverse_dct2"])
def test_fista_at_a_large_lambda_is_one_plain_stage(basis):
    # lambda >= lambda_0 = 0.5 max|Theta^* y|: no continuation, the
    # result is plain FISTA from zero at lambda, bit for bit
    for seed in range(3):
        theta, f, support, y = _problem(n=64, m=32, k=3, seed=seed,
                                        basis=basis, snr_db=20)
        stack = StackedOperator.of([theta])
        pair = _fista_applications(stack)  # the pair fista_lasso uses
        top = float(np.max(np.abs(pair[1](y))))
        for lam_rel in (0.5, 0.6, 0.9):  # lambda_0 times 1, 1.2 and 1.8
            res = fista_lasso(RecoveryProblem(operator=theta, y=y,
                                              lam_rel=lam_rel))
            f_ref, _, iterations, converged = _fista_stage(
                pair, y, _step_bound(stack), lam_rel * top,
                np.zeros(64, dtype=np.complex128),
                np.zeros(32, dtype=np.complex128), 1e-8, 2000)
            assert res.support.size > 0
            assert np.array_equal(res.f_hat, f_ref)
            assert (res.iterations, res.converged) == (iterations, converged)


def test_solver_registry():
    assert set(SOLVERS) >= {"omp", "sp", "fista"}


def test_no_two_solver_names_run_one_function():
    # a second name would run the same solves under another config hash
    assert len({id(fn) for fn in SOLVERS.values()}) == len(SOLVERS)


def test_top_indices_same_set_as_stable_argsort():
    # integer-valued magnitudes give many ties; every k must pick the
    # lowest-index members of the tied group, like a stable argsort
    # (a 2-D block is taken row by row, each row its own ties)
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 33, 64):
        for levels in (1, 2, 5, 1000):
            for shape in ((n,), (4, n)):
                mags = rng.integers(0, levels, size=shape).astype(float)
                rows = mags.reshape(-1, n)
                order = np.argsort(-rows, axis=1, kind="stable")
                for k in range(1, n + 1):
                    got = _top_indices(mags, k)
                    assert got.shape == shape[:-1] + (k,)
                    for row, want in zip(got.reshape(-1, k), order):
                        assert np.array_equal(row, np.sort(want[:k]))
