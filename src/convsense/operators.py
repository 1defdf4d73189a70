"""Circulant sensing operators, subsampling, and sparsity bases.

The measurement chain is

    y = (1/sqrt(M)) * restrict(A * (Psi @ f))

where A is an N x N circulant applied in O(N log N) through its
eigenvalue sequence (the spectrum sigma), restrict keeps the M sampled
rows, and Psi is one of three unitary bases.  The DFT convention
throughout is F(p,q) = exp(-2j*pi*p*q/N) (numpy's ``fft``), so

    A = (1/sqrt(N)) F^* diag(sigma) F,      a = (1/sqrt(N)) F^* sigma,

with ``a`` the first column (the filter).  For unimodular sigma,
A^* A = N I.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence as TypingSequence, Union

import numpy as np
import scipy

from . import sequences as seqs
from .sequences import Sequence

_ROUNDTRIP_TOL = 1e-10

ArrayLike = Union[Sequence, np.ndarray, TypingSequence[complex]]


def _as_array(x: ArrayLike, n: Optional[int] = None) -> np.ndarray:
    """x as complex128.  Without ``n`` it must be a 1-D vector; with ``n``
    it may be a length-n vector or a (B, n) block of row vectors."""
    vals = seqs._values(x)
    if n is None:
        if vals.ndim != 1:
            raise ValueError("expected a 1-D vector")
    elif vals.ndim not in (1, 2) or vals.shape[-1] != n:
        raise ValueError(f"expected a length-{n} vector or (B, {n}) block, "
                         f"got shape {vals.shape}")
    return vals


def _circular(spectrum, x: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """sqrt(N) * ifft(spectrum * fft(x)) along the last axis (a vector or
    the rows of a (B, N) block, given one spectrum or one per row), all in
    one buffer: ``out``, which may be ``x``.  ``np.multiply`` keeps the
    spectrum the left operand: numpy's complex multiply is not commutative
    bit for bit."""
    u = np.fft.fft(x, out=out)
    if isinstance(spectrum, np.ndarray):
        np.multiply(spectrum, u, out=u)
    else:
        for sigma, row in zip(spectrum, u):
            np.multiply(sigma, row, out=row)
    np.fft.ifft(u, out=u)
    u *= np.sqrt(u.shape[-1])
    return u


def _unit_block(n: int, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of the N x N identity as a real (len(idx), N) block,
    for ``StackedOperator.columns`` and ``coherence.mutual_coherence``:
    ``Basis.apply`` gives real atoms the bits of complex ones' real half."""
    block = np.zeros((idx.size, n))
    block[np.arange(idx.size), idx] = 1.0
    return block


@functools.lru_cache(maxsize=4)
def _roots(n: int) -> np.ndarray:
    """The read-only table exp(2j*pi*k/N), k = 0..N-1: one ``exp`` per
    entry, the same bits as ``exp`` on any integer k mod N."""
    table = np.exp((2j * np.pi / n) * np.arange(n))
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class CirculantOperator:
    """Circulant A = (1/sqrt(N)) F^* diag(spectrum) F with its filter,
    the first column of A, cached."""

    n: int
    spectrum: np.ndarray
    filter: np.ndarray

    def __post_init__(self):
        spec = np.ascontiguousarray(self.spectrum, dtype=np.complex128)
        filt = np.ascontiguousarray(self.filter, dtype=np.complex128)
        if spec.shape != (self.n,) or filt.shape != (self.n,):
            raise ValueError("spectrum and filter must have length n")
        if not (np.all(np.isfinite(spec)) and np.all(np.isfinite(filt))):
            raise ValueError("spectrum and filter must be finite")
        rt = np.fft.fft(filt) / np.sqrt(self.n)
        err = float(np.max(np.abs(rt - spec)))
        if err > _ROUNDTRIP_TOL * max(1.0, float(np.max(np.abs(spec)))):
            raise ValueError(f"spectrum/filter round-trip off by {err:.3e}")
        spec.flags.writeable = False
        filt.flags.writeable = False
        object.__setattr__(self, "spectrum", spec)
        object.__setattr__(self, "filter", filt)

    # -- constructors -------------------------------------------------
    @classmethod
    def from_spectrum(cls, sigma: ArrayLike) -> "CirculantOperator":
        """Frequency-domain construction; sigma must be unimodular."""
        vals = _as_array(sigma)
        n = vals.size
        seqs._require_unimodular(vals, "spectrum is not unimodular")
        filt = np.sqrt(n) * np.fft.ifft(vals)
        return cls(n=n, spectrum=vals, filter=filt)

    @classmethod
    def from_filter(cls, a: ArrayLike) -> "CirculantOperator":
        """Time-domain construction; the spectrum may be non-unimodular,
        in which case A is not a scaled isometry."""
        vals = _as_array(a)
        n = vals.size
        return cls(n=n, spectrum=np.fft.fft(vals) / np.sqrt(n), filter=vals)

    # -- application --------------------------------------------------
    def apply(self, x: ArrayLike) -> np.ndarray:
        """A @ x via FFT, for a length-N vector or each row of a (B, N)
        block."""
        return _circular(self.spectrum, _as_array(x, self.n))

    # block callers and the benchmark tracer use this name
    apply_batch = apply


def build_circulant(kind: str, n: int, params: dict,
                    rng: Optional[np.random.Generator] = None
                    ) -> CirculantOperator:
    """Circulant for a named family (``sequences.FAMILIES``), built from
    its spectrum or its filter.  Random families draw from ``rng`` with the
    same element-order streams as their standalone generators."""
    fam = seqs.family(kind)
    values = fam.build(n, params, rng)
    if fam.domain == "filter":
        return CirculantOperator.from_filter(values)
    return CirculantOperator.from_spectrum(values)


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingSet:
    """M distinct row indices out of [0, N), stored sorted ascending."""

    n: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("sampling set must contain at least one index")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"sampling indices must be integers, got "
                             f"dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        if idx.size > self.n:
            raise ValueError(f"M={idx.size} exceeds N={self.n}")
        if np.any(idx < 0) or np.any(idx >= self.n):
            raise ValueError("sampling indices out of range [0, N)")
        srt = np.sort(idx)
        if np.any(np.diff(srt) == 0):
            raise ValueError("sampling indices contain duplicates")
        srt.flags.writeable = False
        object.__setattr__(self, "indices", srt)

    @property
    def m(self) -> int:
        return int(self.indices.size)


def random_sampling(n: int, m: int, seed) -> SamplingSet:
    """M indices uniform without replacement via a partial Fisher-Yates
    shuffle: for i in 0..M-1 swap position i with j_i ~ Uniform{i..N-1}.
    All M bounds come from one ``integers(arange(M), N)`` call on
    ``default_rng(seed)``, which consumes the generator exactly like M
    scalar ``integers(i, N)`` calls in order, so later draws from the same
    generator are unchanged.

    ``seed`` may also be a live Generator (``default_rng`` returns it
    unchanged), in which case the draws come from its current state."""
    if not (1 <= m <= n):
        raise ValueError(f"require 1 <= M <= N, got M={m}, N={n}")
    rng = np.random.default_rng(seed)
    # swaps on a Python list: indexing an int64 array makes numpy scalars
    arr = list(range(n))
    for i, j in enumerate(rng.integers(np.arange(m), n).tolist()):
        arr[i], arr[j] = arr[j], arr[i]
    return SamplingSet(n=n, indices=np.array(arr[:m], dtype=np.int64))


def equispaced_sampling(n: int, m: int) -> SamplingSet:
    """The deterministic comparison pattern: index i -> floor(i*N/M)."""
    if not (1 <= m <= n):
        raise ValueError(f"require 1 <= M <= N, got M={m}, N={n}")
    return SamplingSet(n=n, indices=(np.arange(m, dtype=np.int64) * n) // m)


# ---------------------------------------------------------------------------
# sparsity bases
# ---------------------------------------------------------------------------

_BASIS_KINDS = ("identity", "inverse_fourier", "inverse_dct2")


@dataclass(frozen=True)
class Basis:
    """Unitary sparsity basis Psi: identity, inverse Fourier
    (1/sqrt(N)) F^*, or unitary inverse DCT-II with entries
    1/sqrt(N) in column 0 and sqrt(2/N) cos(pi (p + 1/2) q / N) else."""

    kind: str

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise ValueError(
                f"unknown basis {self.kind!r}; expected one of {_BASIS_KINDS}")

    @classmethod
    def inverse_dct2(cls) -> "Basis":
        return cls("inverse_dct2")

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Psi @ f, for a vector or each row of a (B, N) block.  For the
        identity basis the result may share memory with ``f``.  Real
        input stays real under the identity and DCT bases."""
        f = np.asarray(f, dtype=float if np.isrealobj(f) else complex)
        if self.kind == "identity":
            return f
        if self.kind == "inverse_fourier":
            return np.sqrt(f.shape[-1]) * np.fft.ifft(f)
        # scipy transforms the real and imaginary parts of complex input
        # separately, straight into the two halves of the output
        return scipy.fft.idct(f, type=2, norm="ortho")

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """Psi^* @ g (= Psi^T for the real DCT basis), for a vector or each
        row of a (B, N) block.  For the identity basis the result may
        share memory with ``g``."""
        g = np.asarray(g, dtype=np.complex128)
        if self.kind == "identity":
            return g
        if self.kind == "inverse_fourier":
            return np.fft.fft(g) / np.sqrt(g.shape[-1])
        return scipy.fft.dct(g, type=2, norm="ortho")


# ---------------------------------------------------------------------------
# composed sensing operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensingOperator:
    """Theta = (1/sqrt(M)) restrict . A . Psi  (M x N as a matrix), one
    member of a ``StackedOperator``; its vector ``forward`` and
    ``adjoint`` build the one-member stack on each call."""

    circulant: CirculantOperator
    sampling: SamplingSet
    basis: Basis

    def __post_init__(self):
        if self.sampling.n != self.circulant.n:
            raise ValueError("sampling set and circulant disagree on N")

    @property
    def n(self) -> int:
        return self.circulant.n

    @property
    def m(self) -> int:
        return self.sampling.m

    def forward(self, f: ArrayLike) -> np.ndarray:
        """Theta @ f for a length-N vector."""
        return StackedOperator.of([self]).forward(_as_array(f)[None])[0]

    def adjoint(self, y: ArrayLike) -> np.ndarray:
        """Theta^* @ y for a length-M vector."""
        return StackedOperator.of([self]).adjoint(_as_array(y)[None])[0]

    # the benchmark tracer spans this name
    forward_batch = forward


@dataclass(frozen=True)
class StackedOperator:
    """B sensing operators of one N, M and basis, applied together.

    Member b samples rows ``rows[b]`` of circulant ``circ[b]`` (a row of
    ``spectra`` and ``filters``, shared by the members that share it), so
    per-trial sampling sets and per-trial spectra stack alike, and
    ``stack[sel]`` selects members without copying a spectrum.  Blocks
    hold a row per member."""

    rows: np.ndarray     # (B, M)
    circ: np.ndarray     # (B,)
    spectra: np.ndarray  # (C, N), one row per distinct circulant
    filters: np.ndarray  # (C, N)
    basis: Basis

    @classmethod
    def of(cls, members: TypingSequence[SensingOperator]
           ) -> "StackedOperator":
        """The stack of ``members``, each distinct circulant stored once."""
        if len(members) == 0:
            raise ValueError("a stack needs member operators, got an empty "
                             "member list")
        first = members[0]
        if any((op.n, op.m, op.basis) != (first.n, first.m, first.basis)
               for op in members):
            raise ValueError("stacked operators must share N, M and basis")
        circs = {id(op.circulant): op.circulant for op in members}
        row_of = {key: i for i, key in enumerate(circs)}
        return cls(np.stack([op.sampling.indices for op in members]),
                   np.array([row_of[id(op.circulant)] for op in members]),
                   np.stack([c.spectrum for c in circs.values()]),
                   np.stack([c.filter for c in circs.values()]),
                   first.basis)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, sel) -> "StackedOperator":
        return StackedOperator(self.rows[sel], self.circ[sel], self.spectra,
                               self.filters, self.basis)

    @property
    def n(self) -> int:
        return self.filters.shape[1]

    @property
    def m(self) -> int:
        return self.rows.shape[1]

    def _require_block(self, x, width: int, what: str) -> None:
        """Refuse ``x`` unless it is a (B, width) block, naming ``what``."""
        if np.shape(x) != (len(self), width):
            raise ValueError(f"expected a ({len(self)}, {width}) block of "
                             f"{what}, got shape {np.shape(x)}")

    def _spectrum(self, conj: bool):
        """``_circular``'s spectrum, conjugated for the adjoint: the one
        spectrum, broadcast, if the stack has one circulant, else each
        member's in turn (conjugated into one buffer)."""
        if self.spectra.shape[0] == 1:
            return np.conj(self.spectra[0]) if conj else self.spectra[0]
        sigma = np.empty(self.n, dtype=np.complex128)
        return (np.conj(self.spectra[c], out=sigma) if conj
                else self.spectra[c] for c in self.circ)

    def forward(self, f: np.ndarray) -> np.ndarray:
        """Theta_b @ f[b] for every member b: a (B, N) block in, a (B, M)
        block out, the product done in one complex copy of Psi f."""
        self._require_block(f, self.n, "coefficients")
        u = self.basis.apply(f).astype(np.complex128)
        _circular(self._spectrum(conj=False), u, out=u)
        return u[np.arange(len(self))[:, None], self.rows] / np.sqrt(self.m)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Theta_b^* @ y[b] for every member b: a (B, M) block in, a (B, N)
        block out, each member's product done in place along its row."""
        self._require_block(y, self.m, "measurements")
        u = np.zeros((len(self), self.n), dtype=np.complex128)
        u[np.arange(len(self))[:, None], self.rows] = y / np.sqrt(self.m)
        return self.basis.adjoint(_circular(self._spectrum(conj=True), u,
                                            out=u))

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """Theta_b[:, idx[b]] for every member b: (B, c) integer indices
        in, a (B, M, c) block out.

        Identity and inverse-Fourier columns have closed forms and need no
        FFT: Theta[:, j] = filter[(rows - j) mod N] / sqrt(M) for the
        identity basis, and, because Fourier vectors are eigenvectors of
        every circulant, Theta[:, j] = exp(2j*pi*rows*j/N) * sigma_j /
        sqrt(M) for the inverse-Fourier basis, its phases read from
        ``_roots``.  DCT columns are one ``forward`` of real unit atoms
        (half the work of complex ones), a member's repeated c times."""
        idx = np.asarray(idx)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"column indices must be integers: {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        if idx.ndim != 2 or idx.shape[0] != len(self):
            raise ValueError(f"expected a ({len(self)}, c) block of column "
                             f"indices, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError(f"column indices out of range [0, {self.n})")
        if self.basis.kind == "inverse_dct2":
            b, c = idx.shape
            cols = self[np.repeat(np.arange(b), c)].forward(
                _unit_block(self.n, idx.reshape(-1)))
            # C-contiguous, as the layout picks the BLAS kernel of the
            # least squares and so its rounding
            return np.ascontiguousarray(
                cols.reshape(b, c, self.m).swapaxes(1, 2))
        idx = idx[:, None, :]
        rows = self.rows[:, :, None]
        circ = self.circ[:, None, None]
        if self.basis.kind == "identity":
            # one flat index gathers faster than a (circ, position) pair
            flat = circ * self.n + (rows - idx) % self.n
            return np.take(self.filters, flat) / np.sqrt(self.m)
        phase = _roots(self.n)[(rows * idx) % self.n]
        return phase * (self.spectra[circ, idx] / np.sqrt(self.m))

    def matrix(self) -> np.ndarray:
        """Theta of a one-member stack as a C-contiguous (M, N) array,
        built row-wise.

        Row p of A is the filter read backwards from p, so the sampled
        rows of A, conjugated, are the length-N windows of the reversed,
        conjugated filter written twice that start at N - 1 - p.  As
        Psi^T = conj . Psi^* . conj, their block times Psi is one
        ``basis.adjoint`` on the block's rows, conjugated."""
        if len(self) != 1:
            raise ValueError(f"matrix() needs one member, got {len(self)}")
        n = self.n
        rev = np.conj(self.filters[self.circ[0], ::-1])
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((rev, rev)), n)
        theta = self.basis.adjoint(windows[n - 1 - self.rows[0]])
        np.conj(theta, out=theta)
        theta *= 1.0 / np.sqrt(self.m)
        return theta


# ---------------------------------------------------------------------------
# serialization: %.12g CSV tables, re,im vectors (as sequence values)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """One CSV cell: booleans as true/false, integers exactly, every other
    number with %.12g."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def _csv(header: TypingSequence[str], rows) -> str:
    """Header line plus one line per row; string cells are written as-is."""
    lines = [",".join(header)]
    lines.extend(",".join(c if isinstance(c, str) else _fmt(c) for c in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def vector_to_csv(v: np.ndarray) -> str:
    vals = np.asarray(v, dtype=np.complex128)
    lines = ["re,im"]
    lines.extend(f"{float(x.real)!r},{float(x.imag)!r}" for x in vals)
    return "\n".join(lines) + "\n"

