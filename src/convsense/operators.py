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

from dataclasses import dataclass
from typing import Optional, Sequence as TypingSequence, Union

import numpy as np
import scipy.linalg

from . import sequences as seqs
from .sequences import Sequence

_DENSE_GUARD = 4096
_UNIMODULAR_TOL = 1e-12
_REAL_FLAG_TOL = 1e-10
_ROUNDTRIP_TOL = 1e-10

ArrayLike = Union[Sequence, np.ndarray, TypingSequence[complex]]


def _as_array(x: ArrayLike, n: Optional[int] = None) -> np.ndarray:
    """x as complex128.  Without ``n`` it must be a 1-D vector; with ``n``
    it may be a length-n vector or an (n, B) block of column vectors."""
    vals = np.asarray(x.values if isinstance(x, Sequence) else x,
                      dtype=np.complex128)
    if n is None:
        if vals.ndim != 1:
            raise ValueError("expected a 1-D vector")
    elif vals.ndim not in (1, 2) or vals.shape[0] != n:
        raise ValueError(f"expected a length-{n} vector or ({n}, B) block, "
                         f"got shape {vals.shape}")
    return vals


def _circular(spectrum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sqrt(N) * ifft(spectrum * fft(x)) down axis 0: the circulant with
    this spectrum applied to a vector or to each column of a block."""
    if x.ndim == 2:
        spectrum = spectrum[:, None]
    return np.sqrt(x.shape[0]) * np.fft.ifft(
        spectrum * np.fft.fft(x, axis=0), axis=0)


def _unit_block(n: int, idx: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of the N x N identity as an (N, len(idx)) block."""
    block = np.zeros((n, idx.size), dtype=np.complex128)
    block[idx, np.arange(idx.size)] = 1.0
    return block


@dataclass(frozen=True)
class CirculantOperator:
    """Circulant A = (1/sqrt(N)) F^* diag(spectrum) F with cached filter.

    ``filter`` is the first column of A; ``real_flag`` marks an exactly
    real filter (conjugate-symmetric spectrum); ``unimodular`` records
    whether |spectrum| = 1 everywhere, i.e. whether A^*A = N I holds.
    """

    n: int
    spectrum: np.ndarray
    filter: np.ndarray
    real_flag: bool
    unimodular: bool
    source: str

    def __post_init__(self):
        spec = np.ascontiguousarray(self.spectrum, dtype=np.complex128)
        filt = np.ascontiguousarray(self.filter, dtype=np.complex128)
        if spec.shape != (self.n,) or filt.shape != (self.n,):
            raise ValueError("spectrum and filter must have length n")
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
        dev = float(np.max(np.abs(np.abs(vals) - 1.0))) if n else 0.0
        if dev > _UNIMODULAR_TOL:
            raise ValueError(
                f"spectrum is not unimodular (max | |sigma|-1 | = {dev:.3e})")
        filt = np.sqrt(n) * np.fft.ifft(vals)
        return cls(n=n, spectrum=vals, filter=filt,
                   real_flag=float(np.max(np.abs(filt.imag))) <= _REAL_FLAG_TOL,
                   unimodular=True, source="spectrum")

    @classmethod
    def from_filter(cls, a: ArrayLike) -> "CirculantOperator":
        """Time-domain construction; spectrum may be non-unimodular, in
        which case A is not a scaled isometry (recorded in .unimodular)."""
        vals = _as_array(a)
        n = vals.size
        spec = np.fft.fft(vals) / np.sqrt(n)
        dev = float(np.max(np.abs(np.abs(spec) - 1.0))) if n else 0.0
        return cls(n=n, spectrum=spec, filter=vals,
                   real_flag=float(np.max(np.abs(vals.imag))) <= _REAL_FLAG_TOL,
                   unimodular=dev <= 1e-9, source="filter")

    # -- application --------------------------------------------------
    def apply(self, x: ArrayLike, real_output: bool = False) -> np.ndarray:
        """A @ x via FFT, for a length-N vector or each column of an (N, B)
        block.  With real_output, assert the result is real to 1e-10 and
        drop the imaginary part (requires a real filter)."""
        y = _circular(self.spectrum, _as_array(x, self.n))
        if real_output:
            worst = float(np.max(np.abs(y.imag))) if y.size else 0.0
            if worst > _REAL_FLAG_TOL * max(1.0, float(np.max(np.abs(y)))):
                raise ValueError(
                    f"output is not real (max imag {worst:.3e})")
            return np.ascontiguousarray(y.real)
        return y

    def adjoint(self, y: ArrayLike) -> np.ndarray:
        """A^* @ y via FFT (conjugate spectrum), vector or (N, B) block."""
        return _circular(np.conj(self.spectrum), _as_array(y, self.n))

    # block callers and the benchmark tracer use this name
    apply_batch = apply

    def dense(self) -> np.ndarray:
        """Explicit N x N matrix, A(p, q) = filter[(p - q) mod N]."""
        if self.n > _DENSE_GUARD:
            raise ValueError(
                f"dense materialization refused for N={self.n} > {_DENSE_GUARD}")
        return scipy.linalg.circulant(self.filter)


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
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("sampling set must contain at least one index")
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

    def restrict(self, u: np.ndarray) -> np.ndarray:
        return u[self.indices]

    def embed(self, y: np.ndarray) -> np.ndarray:
        u = np.zeros((self.n,) + y.shape[1:], dtype=np.complex128)
        u[self.indices] = y
        return u


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
    arr = np.arange(n, dtype=np.int64)
    for i, j in enumerate(rng.integers(np.arange(m), n).tolist()):
        arr[i], arr[j] = arr[j], arr[i]
    return SamplingSet(n=n, indices=arr[:m])


def deterministic_sampling(n: int, indices) -> SamplingSet:
    return SamplingSet(n=n, indices=np.asarray(indices, dtype=np.int64))


def equispaced_sampling(n: int, m: int) -> SamplingSet:
    """The deterministic comparison pattern: index i -> floor(i*N/M)."""
    if not (1 <= m <= n):
        raise ValueError(f"require 1 <= M <= N, got M={m}, N={n}")
    idx = (np.arange(m, dtype=np.int64) * n) // m
    return deterministic_sampling(n, idx)


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
    def identity(cls) -> "Basis":
        return cls("identity")

    @classmethod
    def inverse_fourier(cls) -> "Basis":
        return cls("inverse_fourier")

    @classmethod
    def inverse_dct2(cls) -> "Basis":
        return cls("inverse_dct2")

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Psi @ f (column-wise on 2-D blocks)."""
        f = np.asarray(f, dtype=np.complex128)
        n = f.shape[0]
        if self.kind == "identity":
            return f.copy()
        if self.kind == "inverse_fourier":
            return np.sqrt(n) * np.fft.ifft(f, axis=0)
        out = scipy.fft.idct(f.real, type=2, norm="ortho", axis=0).astype(
            np.complex128)
        out += 1j * scipy.fft.idct(f.imag, type=2, norm="ortho", axis=0)
        return out

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """Psi^* @ g (= Psi^T for the real DCT basis)."""
        g = np.asarray(g, dtype=np.complex128)
        n = g.shape[0]
        if self.kind == "identity":
            return g.copy()
        if self.kind == "inverse_fourier":
            return np.fft.fft(g, axis=0) / np.sqrt(n)
        out = scipy.fft.dct(g.real, type=2, norm="ortho", axis=0).astype(
            np.complex128)
        out += 1j * scipy.fft.dct(g.imag, type=2, norm="ortho", axis=0)
        return out

    def dense(self, n: int) -> np.ndarray:
        """Explicit Psi from the defining entries (reference form)."""
        if n > _DENSE_GUARD:
            raise ValueError(
                f"dense materialization refused for N={n} > {_DENSE_GUARD}")
        if self.kind == "identity":
            return np.eye(n, dtype=np.complex128)
        p = np.arange(n)
        if self.kind == "inverse_fourier":
            return np.exp(2j * np.pi * np.outer(p, p) / n) / np.sqrt(n)
        mat = np.sqrt(2.0 / n) * np.cos(
            np.pi * np.outer(p + 0.5, p) / n).astype(np.complex128)
        mat[:, 0] = 1.0 / np.sqrt(n)
        return mat


# ---------------------------------------------------------------------------
# composed sensing operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensingOperator:
    """Theta = (1/sqrt(M)) restrict . A . Psi  (M x N as a matrix)."""

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
        """Theta @ f for a length-N vector or each column of an (N, B)
        block."""
        u = self.circulant.apply(self.basis.apply(_as_array(f, self.n)))
        return self.sampling.restrict(u) / np.sqrt(self.m)

    def adjoint(self, y: ArrayLike) -> np.ndarray:
        """Theta^* @ y for a length-M vector or each column of an (M, B)
        block."""
        u = self.sampling.embed(_as_array(y, self.m) / np.sqrt(self.m))
        return self.basis.adjoint(self.circulant.adjoint(u))

    # column synthesis, the refit and the benchmark tracer use this name
    forward_batch = forward

    def columns(self, idx) -> np.ndarray:
        """Theta[:, idx] as an M x len(idx) block.

        Identity and inverse-Fourier columns have closed forms and need no
        FFT: Theta[:, j] = filter[(rows - j) mod N] / sqrt(M) for the
        identity basis, and, because Fourier vectors are eigenvectors of
        every circulant, Theta[:, j] = exp(2j*pi*rows*j/N) * sigma_j /
        sqrt(M) for the inverse-Fourier basis.  DCT columns go through
        ``forward_batch`` on an identity block."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("column indices must be a 1-D vector")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError(f"column indices out of range [0, {self.n})")
        rows = self.sampling.indices[:, None]
        if self.basis.kind == "identity":
            return self.circulant.filter[(rows - idx) % self.n] \
                / np.sqrt(self.m)
        if self.basis.kind == "inverse_fourier":
            phase = np.exp((2j * np.pi / self.n) * ((rows * idx) % self.n))
            return phase * (self.circulant.spectrum[idx] / np.sqrt(self.m))
        return self.forward_batch(_unit_block(self.n, idx))

    def dense(self, block: int = 256) -> np.ndarray:
        """Explicit M x N matrix: columns are forward images of the
        standard basis, computed in FFT batches."""
        if self.n > _DENSE_GUARD:
            raise ValueError(
                f"dense materialization refused for N={self.n} > {_DENSE_GUARD}")
        out = np.empty((self.m, self.n), dtype=np.complex128)
        for lo in range(0, self.n, block):
            hi = min(lo + block, self.n)
            out[:, lo:hi] = self.forward_batch(
                _unit_block(self.n, np.arange(lo, hi)))
        return out


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


def vector_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip().lower() != "re,im":
        raise ValueError("expected a re,im CSV header")
    out = np.empty(len(lines) - 1, dtype=np.complex128)
    for i, ln in enumerate(lines[1:]):
        re_s, im_s = ln.split(",")
        out[i] = complex(float(re_s), float(im_s))
    return out
