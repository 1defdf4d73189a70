"""Byte battery for the convsense CLI: one fixed command list, run against
two checkouts, every difference reported.

    python3 tests/cli_battery.py OLD_CHECKOUT NEW_CHECKOUT

Each command runs as ``python -m convsense ...`` on the checkout's
``src``, from a fresh temporary directory that holds its ``--out``
directory and its input image under the same relative names for both
trees (an image path is part of the config hash), with bytecode writing
off, so nothing is written into either checkout.  For every command the
exit code, stdout and stderr (the temporary directory masked) and every
output file must match, and no command may be refused as a usage error
(exit 2) on either tree, as every command here is meant to run.  The
script prints one line per command and exits 1 on any difference or
refusal, else 0.  The name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile

PGM = "img.pgm"
OUT = "out"

SOLVERS = ("sp", "omp", "fista")
BASES = ("identity", "inverse_fourier", "inverse_dct2")
NOISY = ("--snr-list", "0,10,20,30")


def _commands():
    """The battery: (label, argv) pairs."""
    for seed in (0, 11):  # seed 11 fails the reference check: exit 1
        yield f"exp-ofdm seed {seed}", (
            "exp-ofdm", "--seed", str(seed), "--out", OUT)
    for solver in ("sp", "omp"):
        yield f"exp-phase {solver}", (
            "exp-phase", "--n", "1024", "--k", "4,16", "--m", "128,512",
            "--basis", ",".join(BASES), "--trials", "3", "--solver", solver)
    for solver in SOLVERS:
        yield f"exp-dct {solver}", (
            "exp-dct", "--n", "512", "--m", "128", "--k", "8", "--trials",
            "10", "--solver", solver)
        yield f"exp-dct --image {solver}", (
            "exp-dct", "--n", "256", "--m", "96", "--k", "8", "--trials", "4",
            "--solver", solver, "--image", PGM, "--format", "json")
    for solver in SOLVERS:
        for basis in BASES:
            for noise in ((), NOISY):
                yield f"recover {solver} {basis}{' noisy' if noise else ''}", (
                    "recover", "--n", "256", "--m", "64", "--k", "5", "--seq",
                    "golay", "--basis", basis, "--solver", solver, *noise)
    # M * N above FISTA's dense cap: its FFT-backed forward and adjoint
    for noise in ((), NOISY):
        yield f"recover fista FFT path{' noisy' if noise else ''}", (
            "recover", "--n", "1024", "--m", "256", "--k", "8", "--seq", "fzc",
            "--basis", "inverse_dct2", "--solver", "fista", *noise)
    yield "exp-ofdm fista FFT path", (
        "exp-ofdm", "--seq", "fzc", "--n", "1024", "--m", "256", "--k", "6",
        "--solver", "fista", "--trials", "10")
    # one circulant per trial: the multi-circulant stack
    for solver in SOLVERS:
        yield f"exp-ofdm random_phase {solver}", (
            "exp-ofdm", "--seq", "random_phase", "--n", "1024", "--m", "64",
            "--k", "8", "--trials", "25", "--solver", solver)
    # the filter-domain families: circulants built from_filter
    yield "recover m_sequence_filter sp", (
        "recover", "--n", "255", "--m", "64", "--k", "5", "--seq",
        "m_sequence_filter", "--solver", "sp")
    yield "recover perfect_binary_filter fista noisy", (
        "recover", "--n", "255", "--m", "64", "--k", "5", "--seq",
        "perfect_binary_filter", "--solver", "fista", *NOISY)
    yield "exp-ofdm perfect_binary_filter", (
        "exp-ofdm", "--seq", "perfect_binary_filter", "--n", "255", "--m",
        "64", "--k", "6", "--trials", "10")
    yield "exp-dct m_sequence_filter", (
        "exp-dct", "--seq", "m_sequence_filter", "--n", "255", "--m", "96",
        "--k", "6", "--trials", "4")


def _write_pgm(path: pathlib.Path) -> None:
    """A smooth 16 x 16 8-bit P5 image (N = 256)."""
    pixels = bytes((7 * r + 5 * c + (r * c) % 11) % 256
                   for r in range(16) for c in range(16))
    path.write_bytes(b"P5\n16 16\n255\n" + pixels)


def _run(checkout: pathlib.Path, argv):
    """(exit code, stdout, stderr, {output file: bytes}) of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = pathlib.Path(tmp)
        _write_pgm(cwd / PGM)
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "convsense", *argv],
                              cwd=cwd, env=env, capture_output=True)
        out = cwd / OUT
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()} \
            if out.is_dir() else {}
        mask = lambda text: text.replace(os.fsencode(tmp), b"<DIR>")
        return proc.returncode, mask(proc.stdout), mask(proc.stderr), files


def _differences(old, new):
    """What differs between two ``_run`` results, as short phrases."""
    names = ("exit code", "stdout", "stderr")
    diffs = [f"{name} ({a!r} vs {b!r})" if name == "exit code" else name
             for name, a, b in zip(names, old[:3], new[:3]) if a != b]
    for name in sorted(set(old[3]) | set(new[3])):
        if old[3].get(name) != new[3].get(name):
            diffs.append(f"file {name}")
    return diffs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_tree, new_tree = (pathlib.Path(p).resolve() for p in argv)
    for tree in (old_tree, new_tree):
        if not (tree / "src" / "convsense").is_dir():
            print(f"error: {tree} has no src/convsense", file=sys.stderr)
            return 2
    failing = 0
    commands = list(_commands())
    for label, cmd in commands:
        old, new = _run(old_tree, cmd), _run(new_tree, cmd)
        diffs = _differences(old, new)
        if 2 in (old[0], new[0]):  # the battery itself is at fault
            diffs.append("usage error: " + (old[2] or new[2]).decode(
                errors="replace").strip())
        failing += bool(diffs)
        status = "FAILS: " + ", ".join(diffs) if diffs else "same"
        print(f"{label}: exit {old[0]}, {len(old[3])} files, {status}")
    print(f"{len(commands)} commands, {failing} failing")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
