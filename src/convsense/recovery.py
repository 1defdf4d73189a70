"""Sparse recovery solvers: OMP, subspace pursuit, and FISTA.

Each solver computes in complex arithmetic on a ``SensingOperator``: a
``RecoveryProblem`` holds a one-member Theta, and subspace pursuit also
solves the members of a larger one in lockstep.  The greedy solvers
use Theta's FFT-backed ``adjoint`` and ``columns``; FISTA applies
``matrix()`` when M*N <= 2^17 and ``forward``/``adjoint`` above it.
Greedy solvers take a sparsity K; FISTA minimizes 0.5*||y - Theta f||^2 +
lambda*||f||_1, warm-started along a short geometric lambda path down to
the posed lambda.  A FISTA stage writes only into buffers it makes
itself, never into the point it starts from or into an array Theta's
applications return.

Deterministic by construction: correlation and magnitude ties always
break to the lowest index, and the FISTA step size is read off the
circulant's spectrum in closed form, so reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .operators import SensingOperator

_RIDGE = 1e-12
_OMP_STOP_REL = 1e-6
_SP_STOP_REL = 1e-7
_SP_MAX_ITERS = 50
_FISTA_STOP_REL = 1e-8
_FISTA_MAX_ITERS = 2000
# lambda-continuation schedule; fista_lasso's docstring says why
_FISTA_STAGES = 6
_FISTA_LAM0_FACTOR = 0.5
_FISTA_STAGE_STOP_REL = 1e-5
_FISTA_STAGE_MAX_ITERS = 200
# largest M*N at which FISTA applies Theta as a matrix (2 MiB of complex128)
_FISTA_DENSE_MAX = 1 << 17
# measurements a greedy solver needs per atom: OMP solves with K columns
# (K <= M), subspace pursuit with up to 2K candidates (2K <= M)
ROWS_PER_ATOM = {"omp": 1, "sp": 2}


@dataclass(frozen=True)
class RecoveryProblem:
    """Measurements plus a sparsity K (greedy) or, for the LASSO, the
    penalty as a fraction ``lam_rel`` of max|Theta^* y|: FISTA solves at
    lambda = lam_rel * max|Theta^* y| (FPC's convention: Hale, Yin &
    Zhang, 2008), so one setting poses every problem alike."""

    operator: SensingOperator
    y: np.ndarray
    k: Optional[int] = None
    lam_rel: float = 1e-4

    def __post_init__(self):
        op = self.operator
        if not isinstance(op, SensingOperator):
            raise TypeError("operator must be a SensingOperator, "
                            f"got {type(op).__name__}")
        if len(op) != 1:
            raise ValueError(f"expected a one-member operator, got {len(op)}")
        object.__setattr__(self, "y", _measurements(self.y, (op.m,)))


def _measurements(y, shape: Tuple[int, ...]) -> np.ndarray:
    """y as C-contiguous complex128, refused unless finite and of
    ``shape``."""
    y = np.ascontiguousarray(y, dtype=np.complex128)
    if y.shape != shape:
        raise ValueError(f"measurements y must have shape {shape}, "
                         f"got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements y must be finite")
    return y


@dataclass(frozen=True)
class RecoveryResult:
    f_hat: np.ndarray
    support: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def _least_squares(cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normal equations with a tiny ridge (supports are <= 2K columns),
    for one (M, c) system or a (B, M, c) stack with (B, M) measurements."""
    cols_h = np.swapaxes(cols.conj(), -1, -2)
    gram = cols_h @ cols
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] += _RIDGE
    return np.linalg.solve(gram, np.matvec(cols_h, y)[..., None])[..., 0]


def _norms(r: np.ndarray) -> np.ndarray:
    """Norm of each row of a complex block, summed as ``np.linalg.norm``
    sums one vector's (a dot of the real parts plus one of the imaginary
    parts), so each equals that vector's norm bit for bit."""
    return np.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))


def _top_indices(mags: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k largest magnitudes of a vector, or of
    each row of a (B, N) block as a (B, k) block, ties broken to the
    lowest index: the same set as ``argsort(-mags, kind="stable")[:k]``."""
    kth = np.partition(mags, -k, axis=-1)[..., -k, None]
    keep = mags >= kth
    if np.count_nonzero(keep) > k * (mags.size // mags.shape[-1]):
        # a row ties at its k-th value: keep the lowest-index tied ones
        tied = mags == kth
        room = k - np.count_nonzero(mags > kth, axis=-1, keepdims=True)
        keep &= ~tied | (np.cumsum(tied, axis=-1) <= room)
    return np.nonzero(keep)[-1].reshape(mags.shape[:-1] + (k,))


def _embed(n: int, support: np.ndarray, coef: np.ndarray) -> np.ndarray:
    f = np.zeros(n, dtype=np.complex128)
    f[support] = coef
    return f


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """Complex z * 2^e, exact wherever the result is normal; z's last
    axis is contiguous, as ``view`` needs."""
    return np.ldexp(z.view(np.float64), e).view(np.complex128)


def _unit_scale(y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(y * 2^-e, e) with e per row putting max|y| in [0.5, 1), 0 for a
    zero row: OMP and SP, linear in y, solve there and scale back, the
    same bits at every normal scale with no norm over- or underflowing."""
    e = np.frexp(np.max(np.abs(y), axis=-1))[1]
    return _ldexp(y, -e[..., None]), e


def omp(p: RecoveryProblem) -> RecoveryResult:
    """Orthogonal matching pursuit: K rounds of pick-the-most-correlated
    atom, least-squares refit, stopping early at residual 1e-6*||y||.

    Each round builds only the new atom's column and appends it to the
    (M, i) block kept from the rounds before; the least squares is then
    re-solved on the whole block, so a K-round solve builds K columns.

    ``converged`` reports whether that residual threshold was reached
    (always true on noiseless solvable instances, false under noise)."""
    if p.k is None or p.k < 1:
        raise ValueError("omp requires a positive sparsity K")
    op = p.operator
    if ROWS_PER_ATOM["omp"] * p.k > op.m:
        raise ValueError(f"K={p.k} exceeds M={op.m}")
    y, e = _unit_scale(p.y)
    ynorm = float(np.linalg.norm(y))
    support: list = []
    coef = np.zeros(0, dtype=np.complex128)
    cols = np.zeros((op.m, 0), dtype=np.complex128)
    r = y.copy()
    iterations = 0
    for _ in range(p.k):
        if float(np.linalg.norm(r)) <= _OMP_STOP_REL * ynorm:
            break
        mags = np.abs(op.adjoint(r[None])[0])
        if support:
            mags[np.asarray(support)] = -1.0
        support.append(int(np.argmax(mags)))
        # concatenate keeps the C-contiguous (M, i) layout ``columns``
        # returns; the layout picks the BLAS kernel, and so the rounding
        cols = np.concatenate((cols, op.columns([support[-1:]])[0]), axis=1)
        coef = _least_squares(cols, y)
        r = y - cols @ coef
        iterations += 1
    sup = np.asarray(support, dtype=np.int64)
    order = np.argsort(sup)
    f_hat = _embed(op.n, sup[order], coef[order])
    res = float(np.linalg.norm(r))
    return RecoveryResult(f_hat=_ldexp(f_hat, e), support=np.sort(sup),
                          iterations=iterations,
                          residual_norm=float(np.ldexp(res, e)),
                          converged=res <= _OMP_STOP_REL * ynorm)


def subspace_pursuit_block(stack: SensingOperator, y: np.ndarray, k: int
                           ) -> List[RecoveryResult]:
    """Subspace pursuit on the problems (Theta_b, y[b]) of the members of
    ``stack`` and a (B, M) block, in lockstep: keep a size-K support,
    each round merge in the top-K correlations of the residual (candidate
    <= 2K), least-squares, prune back to K, refit; stop when the residual
    stops decreasing (1e-7 relative) and revert if it increased; at most
    50 rounds.

    A round makes one block adjoint over the problems still running, and
    one stacked least squares per candidate size for the candidates and
    one for the pruned supports, so each result is bit for bit the one its
    problem would get alone."""
    if k is None or k < 1:
        raise ValueError("subspace pursuit requires a positive sparsity K")
    if ROWS_PER_ATOM["sp"] * k > stack.m:
        raise ValueError(
            f"candidate least squares needs 2K <= M, got K={k} M={stack.m}")
    y = _measurements(y, (len(stack), stack.m))
    y, e = _unit_scale(y)
    support = _top_indices(np.abs(stack.adjoint(y)), k)
    cols = stack.columns(support)
    coef = _least_squares(cols, y)
    r = y - np.matvec(cols, coef)
    rnorm = _norms(r)
    iterations = np.zeros(len(stack), dtype=np.int64)
    converged = np.zeros(len(stack), dtype=bool)
    running = np.arange(len(stack))
    for _ in range(_SP_MAX_ITERS):
        if not running.size:
            break
        iterations[running] += 1
        top = _top_indices(np.abs(stack[running].adjoint(r[running])), k)
        merged = np.sort(np.concatenate((support[running], top), axis=1))
        fresh = np.ones(merged.shape, dtype=bool)
        fresh[:, 1:] = merged[:, 1:] != merged[:, :-1]
        sizes = fresh.sum(axis=1)
        for size in sorted(set(sizes.tolist())):
            group = sizes == size
            rows = running[group]
            cand = merged[group][fresh[group]].reshape(-1, size)
            ccols = stack[rows].columns(cand)
            keep = _top_indices(np.abs(_least_squares(ccols, y[rows])), k)
            picked = np.arange(rows.size)[:, None], keep
            # each (M, K) slice column-major, as ccols[:, keep] is for one
            # problem: the layout picks the BLAS kernel, hence the rounding
            ncols = np.swapaxes(np.swapaxes(ccols, 1, 2)[picked], 1, 2)
            ncoef = _least_squares(ncols, y[rows])
            nres = y[rows] - np.matvec(ncols, ncoef)
            nnorm = _norms(nres)
            # a residual that went up reverts and stops the problem
            down = nnorm <= rnorm[rows]
            moved = rnorm[rows] - nnorm
            better = rows[down]
            support[better] = cand[picked][down]
            coef[better], r[better], rnorm[better] = \
                ncoef[down], nres[down], nnorm[down]
            stop = ~down | (moved <= _SP_STOP_REL * np.maximum(nnorm, 1e-300))
            converged[rows[stop]] = True
        running = running[~converged[running]]
    rnorm, coef = np.ldexp(rnorm, e), _ldexp(coef, e[:, None])
    return [RecoveryResult(f_hat=_embed(stack.n, support[b], coef[b]),
                           support=support[b], iterations=int(iterations[b]),
                           residual_norm=float(rnorm[b]),
                           converged=bool(converged[b]))
            for b in range(len(stack))]


def subspace_pursuit(p: RecoveryProblem) -> RecoveryResult:
    """Subspace pursuit on one problem, a block of one."""
    return subspace_pursuit_block(p.operator, p.y[None], p.k)[0]


def _step_bound(op: SensingOperator) -> float:
    """FISTA's L, (N/M) max|sigma|^2 inflated 0.1% (``fista_lasso``)."""
    return op.n / op.m * float(np.max(np.abs(op.spectra[op.circ]) ** 2)) \
        * (1.0 + 1e-3)


def _fista_applications(op: SensingOperator) -> Tuple[Callable, Callable]:
    """The vector (forward, adjoint) pair FISTA applies a one-member
    Theta by: products with ``op.matrix()`` when M*N <=
    ``_FISTA_DENSE_MAX``, else its own FFT-backed block pair."""
    if op.m * op.n > _FISTA_DENSE_MAX:
        return (lambda f: op.forward(f[None])[0]), \
            (lambda r: op.adjoint(r[None])[0])
    theta = op.matrix()
    return (lambda f: theta @ f), (lambda r: np.conj(np.conj(r) @ theta))


def _fista_stage(theta: Tuple[Callable, Callable], y: np.ndarray, L: float,
                 lam: float, f: np.ndarray, rf: np.ndarray, stop_rel: float,
                 max_iters: int):
    """FISTA at one lambda from f (rf = Theta f), with momentum starting
    afresh at f, Theta applied by the (forward, adjoint) pair ``theta``;
    returns (f, Theta f, iterations, converged).

    The stage writes only into buffers it makes (``out=``): candidates
    alternate between two f slots, so a restart still has the current
    point, and the momentum point (z, Theta z) has its own.  It never
    writes into the f and rf it is given or into an array the pair
    returns.  Each step makes the plain step's operations in its order:
    ``np.linalg.norm`` as its sqrt(re.re + im.im), ``np.sum`` as
    ``np.add.reduce``, and / L as * (1/L), which numpy's complex division
    by a real scalar equals in every nonzero component."""
    forward, adjoint = theta
    slots = (np.empty_like(f), np.empty_like(f))
    z_slot, rz_slot = np.empty_like(f), np.empty_like(rf)
    r = np.empty_like(rf)  # rz - y for the gradient, y - rf for the objective
    r_re, r_im = r.real, r.imag
    mags = np.empty(f.shape)
    inv_L, tau = 1.0 / L, lam / L
    floor = max(tau, 1e-300)  # tau / floor <= 1: no overflow at |out| = 0

    def objective(f, rf):
        np.subtract(y, rf, out=r)
        np.abs(f, out=mags)
        return 0.5 * math.sqrt(r_re.dot(r_re) + r_im.dot(r_im)) ** 2 \
            + lam * float(np.add.reduce(mags))

    def step(z, rz, out):
        """The proximal step from z (rz = Theta z): (out, Theta out, obj)."""
        np.subtract(rz, y, out=r)
        np.multiply(adjoint(r), inv_L, out=out)
        np.subtract(z, out, out=out)
        # soft threshold: out * max(1 - tau / max(|out|, tau, 1e-300), 0)
        np.abs(out, out=mags)
        np.maximum(mags, floor, out=mags)
        np.divide(tau, mags, out=mags)
        np.subtract(1.0, mags, out=mags)
        np.maximum(mags, 0.0, out=mags)
        np.multiply(out, mags, out=out)
        rf_new = forward(out)
        return out, rf_new, objective(out, rf_new)

    obj = objective(f, rf)
    z, rz = f, rf  # the momentum point and Theta z
    t = 1.0
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        candidate = slots[iterations % 2]  # not the current point's slot
        f_new, rf_new, obj_new = step(z, rz, candidate)
        if obj_new > obj:
            # restart momentum at the last good point
            t = 1.0
            f_new, rf_new, obj_new = step(f, rf, candidate)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        for new, old, out in ((f_new, f, z_slot), (rf_new, rf, rz_slot)):
            # out = new + beta * (new - old)
            np.subtract(new, old, out=out)
            np.multiply(beta, out, out=out)
            np.add(new, out, out=out)
        z, rz = z_slot, rz_slot
        rel_drop = abs(obj - obj_new)
        f, rf, t = f_new, rf_new, t_new
        if rel_drop <= stop_rel * max(obj, 1e-300):
            return f, rf, iterations, True
        obj = min(obj, obj_new)
    return f, rf, iterations, False


def fista_lasso(p: RecoveryProblem) -> RecoveryResult:
    """FISTA on 0.5||y - Theta f||^2 + lambda ||f||_1 with complex
    soft-thresholding and momentum restart on objective increase, run
    under warm-started lambda-continuation (FPC: Hale, Yin & Zhang, 2008;
    SpaRSA: Wright, Nowak & Figueiredo, 2009).

    The posed lambda is max(lam_rel max|Theta^* y|, 1e-300).  Stages
    solve at lambdas falling geometrically from
    lambda_0 = 0.5 max|Theta^* y| to the posed lambda, each from the
    last stage's solution with momentum restarted.  An intermediate stage
    stops at 1e-5 relative objective change or 200 iterations; the last,
    at the posed lambda, stops at 1e-8 relative objective change.  At
    most 2000 iterations are made over all stages, and ``converged``
    reports the last stage's stop.  When lambda >= lambda_0 there is one
    stage, plain FISTA at lambda from zero.

    Why these constants: a small posed lambda leaves plain FISTA a flat,
    ill-conditioned objective from zero, so it spends its iterations on
    the bulk of the dense iterate; a large lambda is solved in a few
    steps with a sparse iterate.  ``_FISTA_LAM0_FACTOR`` (0.5) starts
    where the solution has only the strongest atoms (every lambda above
    max|Theta^* y| gives zero); ``_FISTA_STAGES`` (6) steps lambda down
    by a factor of (lambda/lambda_0)^(1/5), about 5.5 at the default
    lam_rel = 1e-4, small enough that each stage's support grows a
    little past the last; ``_FISTA_STAGE_STOP_REL`` (1e-5) only
    has to bring an intermediate stage near its path point, since the
    next stage moves it again; ``_FISTA_STAGE_MAX_ITERS`` (200) bounds the
    intermediate stages to half the 2000-iteration total, so the last
    stage always has at least 1000.

    The step is 1/L with L = (N/M) max|sigma|^2 (1 + 1e-3), sigma the
    circulant's spectrum, the 0.1% margin keeping 1/L safe when
    max|sigma|^2 is rounded.  Theta Theta^* = (N/M) R F_u^* diag(|sigma|^2)
    F_u R^* (R the sampling, F_u the unitary DFT), so ||Theta||^2 <=
    (N/M) max|sigma|^2, with equality for a unimodular spectrum (every
    other family) and for ``m_sequence_filter`` (|sigma|^2 =
    1 + 1/N off bin 0, so the restricted matrix is (1 + 1/N) I -
    (1/N) 11^*, top eigenvalue 1 + 1/N for M >= 2).  A hand-built
    ``from_filter`` circulant with an uneven spectrum gets a safe but
    larger L, and so more iterations, than ||Theta||^2 would give.

    The set-up is one adjoint, which poses both lambda and lambda_0; the
    start f = 0 has Theta f = 0 without a forward.  Each iteration makes
    one forward and one adjoint (a restart one more of each): Theta z is
    carried by linearity beside the momentum point z, as the same
    combination of the two latest forwards, so its rounding does not
    build up, and a stage starts from the last one's Theta f
    (applications: ``_fista_applications``)."""
    if not p.lam_rel > 0:
        raise ValueError(f"fista requires lam_rel > 0, got {p.lam_rel}")
    op = p.operator
    y = p.y
    theta = _fista_applications(op)
    top = float(np.max(np.abs(theta[1](y))))  # theta[1] is the adjoint
    lam = max(float(p.lam_rel) * top, 1e-300)
    lam0 = _FISTA_LAM0_FACTOR * top
    L = _step_bound(op)
    # the intermediate stages; the last one runs at lam itself
    path = np.geomspace(lam0, lam, _FISTA_STAGES)[:-1] if lam < lam0 else []
    f = np.zeros(op.n, dtype=np.complex128)
    rf = np.zeros(op.m, dtype=np.complex128)
    iterations = 0
    for stage_lam in path:
        f, rf, used, _ = _fista_stage(theta, y, L, float(stage_lam), f, rf,
                                      _FISTA_STAGE_STOP_REL,
                                      _FISTA_STAGE_MAX_ITERS)
        iterations += used
    f, rf, used, converged = _fista_stage(theta, y, L, lam, f, rf,
                                          _FISTA_STOP_REL,
                                          _FISTA_MAX_ITERS - iterations)
    iterations += used
    support = np.flatnonzero(np.abs(f) > 0)
    res = float(np.linalg.norm(y - rf))
    return RecoveryResult(f_hat=f, support=support, iterations=iterations,
                          residual_norm=res, converged=converged)


SOLVERS = {
    "omp": omp,
    "sp": subspace_pursuit,
    "fista": fista_lasso,
}
