"""convsense benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload ofdm_ref --seed 3 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` it times
the workload untraced and prints the end-to-end metrics; with
``--trace 1`` it runs every call untraced and traced, back to back, and
prints the per-layer metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60

# The VM this benchmark was built on changes speed by up to 1.7x over
# seconds to minutes (other tenants on the host), which no amount of
# averaging inside a run removes.  An untraced run therefore times this
# fixed kernel, numpy FFTs plus a pure-Python loop, before and after every
# call, and scales the call by REF_KERNEL_S / (mean kernel time): times are
# reported as on a machine where the kernel takes REF_KERNEL_S.  The raw
# figures are printed on the "raw" line.
REF_KERNEL_S = 0.005
_KERNEL_INPUT = np.exp(2j * np.pi * np.arange(1024) / 7.0)


def speed_kernel() -> float:
    t0 = time.perf_counter()
    y = _KERNEL_INPUT
    for _ in range(100):
        y = np.fft.ifft(np.fft.fft(y))
    total = 0
    for i in range(20000):
        total += i
    return time.perf_counter() - t0


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "trial_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import convsense from this checkout's src/ only; exit with an error
    otherwise."""
    if not os.path.isfile(os.path.join(SRC, "convsense", "__init__.py")):
        sys.exit(f"perfbench: no convsense sources under {SRC}")
    sys.path.insert(0, SRC)
    import convsense
    where = os.path.realpath(convsense.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: convsense imported from {where}, not {SRC}")


def _blas_info() -> dict:
    """BLAS libraries as built and as loaded, with the thread count each
    reports.  Read-only: nothing here changes a thread setting."""
    import ctypes
    info = {"env": {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy_build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["numpy_build"] = None
    loaded = {}
    with open("/proc/self/maps") as fh:
        paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        loaded[os.path.basename(path)] = entry
    info["loaded"] = loaded
    return info


def machine_block() -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas": _blas_info(),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def setup_seconds(workload: str, probes: int) -> list:
    """Set-up times of fresh interpreters, each timing its own import of
    convsense plus the workload's static parts (setup_probe.py), raw."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                             timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


class Tally:
    """Everything the benchmark keeps about the calls of one phase."""

    def __init__(self, round_latency: bool, calibrate: bool = False):
        self.round_latency = round_latency
        self.calibrate = calibrate
        self._kernel_s = 0.0
        self.raw_seconds = 0.0
        self.raw_latencies_ms = []
        self.seconds = 0.0          # kernel-scaled when calibrating
        self.ops = 0                # ops of the calls that returned
        self.trials = 0
        self.attempted = 0          # ... plus those of calls that raised
        self.failed = 0
        self.latencies_ms = []
        self.checks = 0
        self.passes = 0
        self.snr_db = []
        self.round_digests = []     # one {csv name: sha256} per round
        self.round_ops = []
        self.round_seconds = []
        self.call_seconds = []      # None for a call that raised
        self.errors = []

    def start_round(self) -> None:
        self._digests = {}
        self._ops0, self._seconds0 = self.ops, self.seconds
        self._raw0 = self.raw_seconds
        if self.calibrate:
            self._kernel_s = speed_kernel()

    def run_call(self, call) -> None:
        try:
            res = call.run()
        except Exception as exc:   # an op that raises counts as failed
            self.attempted += call.expected_ops
            self.failed += call.expected_ops
            self.errors.append(f"{call.label}: {exc!r}")
            self.call_seconds.append(None)
            return
        scale = 1.0
        if self.calibrate:
            after = speed_kernel()
            scale = REF_KERNEL_S / (0.5 * (self._kernel_s + after))
            self._kernel_s = after
        self.call_seconds.append(res.seconds)
        self.raw_seconds += res.seconds
        self.seconds += res.seconds * scale
        self.ops += res.ops
        self.attempted += res.ops
        self.trials += res.trials
        self.failed += res.failed
        if res.why:
            self.errors.append(f"{call.label}: {res.why}")
        self.raw_latencies_ms += res.latencies_ms
        self.latencies_ms += [v * scale for v in res.latencies_ms]
        self.checks += res.checks
        self.passes += res.passes
        self.snr_db += res.snr_db
        self._digests.update({k: _sha256(v) for k, v in res.csvs.items()})

    def end_round(self) -> None:
        self.round_digests.append(self._digests)
        self.round_ops.append(self.ops - self._ops0)
        self.round_seconds.append(self.seconds - self._seconds0)
        if self.round_latency and self.round_ops[-1]:
            self.latencies_ms.append(
                self.round_seconds[-1] * 1e3 / self.round_ops[-1])
            self.raw_latencies_ms.append(
                (self.raw_seconds - self._raw0) * 1e3 / self.round_ops[-1])

    def run_round(self, calls) -> None:
        self.start_round()
        for call in calls:
            self.run_call(call)
        self.end_round()


def run_rounds(wl, seed: int, tiny: bool, *, seconds=None, rounds=None,
               calibrate=False):
    """Closed loop of whole rounds: until ``seconds`` of timed calls (wall
    time) have accumulated, or exactly ``rounds`` rounds."""
    tally = Tally(wl.round_latency, calibrate)
    r = 0
    while True:
        tally.run_round(wl.calls(seed, r, tiny))
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and tally.raw_seconds >= seconds:
            break
    return tally


def run_paired(wl, seed: int, tiny: bool, n_rounds: int, tracer):
    """``n_rounds`` rounds in which every call runs untraced and traced back
    to back, the order alternating, so drift in machine speed hits both
    sides alike.  Returns the untraced and the traced tally."""
    plain, traced = Tally(wl.round_latency), Tally(wl.round_latency)
    for r in range(n_rounds):
        plain_calls = wl.calls(seed, r, tiny)
        with tracer.installed():   # so the calls bind the wrappers
            traced_calls = wl.calls(seed, r, tiny)
        plain.start_round()
        traced.start_round()
        for i, (p_call, t_call) in enumerate(zip(plain_calls, traced_calls)):
            if (r + i) % 2:
                with tracer.installed():
                    traced.run_call(t_call)
                plain.run_call(p_call)
            else:
                plain.run_call(p_call)
                with tracer.installed():
                    traced.run_call(t_call)
        plain.end_round()
        traced.end_round()
    return plain, traced


def check_outputs(wl, args, tally, rerun_digests) -> list:
    """Correctness problems found in the outputs (empty when correct)."""
    problems = []
    first = tally.round_digests[0]
    pinned = None
    if wl.pinned and (args.seed == DEFAULT_SEED or not wl.seeded):
        with open(os.path.join(HERE, "digests.json")) as fh:
            pinned = json.load(fh)["tiny" if args.tiny else "full"][wl.name]
    for name, digest in sorted(first.items()):
        status = "not pinned"
        if pinned is not None:
            status = "pinned ok" if pinned.get(name) == digest \
                else f"MISMATCH (pinned {pinned.get(name)})"
            if pinned.get(name) != digest:
                problems.append(f"{name}: digest differs from pinned value")
        print(f"csv_sha256 {wl.name} round0 {name} {digest} [{status}]")
    if pinned is not None and set(pinned) != set(first):
        problems.append(f"pinned CSV names {sorted(pinned)} != emitted "
                        f"{sorted(first)}")
    if rerun_digests is not None and rerun_digests != first:
        problems.append("round 0 rerun gave different CSV bytes")
    if not wl.seeded and any(d != first for d in tally.round_digests):
        problems.append("seed-independent rounds gave different CSV bytes")
    return problems


def quality_block(tally, failed: int, attempted: int) -> dict:
    return {
        "success_rate": tally.passes / tally.checks if tally.checks else None,
        "success_checks": tally.checks,
        "mean_output_snr_db": (statistics.fmean(tally.snr_db)
                               if tally.snr_db else None),
        "snr_rows": len(tally.snr_db),
        "error_rate": failed / attempted if attempted else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, one round (the smoke test)")
    args = ap.parse_args(argv)

    _import_package()
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; expected one of "
                 f"{sorted(workloads.WORKLOADS)}")
    print("machine: " + json.dumps(machine_block(), sort_keys=True))
    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tiny={args.tiny}")
    if args.trace == 0:
        setup = setup_seconds(
            wl.name, 1 if args.tiny else SETUP_PROBES)

    # warm-up: one tiny round, untimed (lazy imports, BLAS thread start)
    run_rounds(wl, args.seed, True, rounds=1)

    if args.trace == 0:
        tally = run_rounds(wl, args.seed, args.tiny,
                           rounds=1 if args.tiny else None,
                           seconds=None if args.tiny else args.seconds,
                           calibrate=True)
        rerun = None
        if wl.seeded:
            again = run_rounds(wl, args.seed, args.tiny, rounds=1)
            rerun = again.round_digests[0]
    else:
        import tracing
        n_rounds = 1 if args.tiny else max(
            1, round(args.seconds / 2 / wl.nominal_round_s))
        tracer = tracing.Tracer()
        plain, tally = run_paired(wl, args.seed, args.tiny, n_rounds, tracer)
        rerun = plain.round_digests[0]

    problems = check_outputs(wl, args, tally, rerun)
    attempted = tally.attempted
    failed = attempted if problems else tally.failed
    for err in tally.errors:
        print(f"error: {err}")
    for p in problems:
        print(f"incorrect: {p}")
    quality = quality_block(tally, failed, attempted)
    print("quality: " + json.dumps(quality, sort_keys=True))
    print("rounds: " + json.dumps({"ops": tally.round_ops,
                                   "seconds": tally.round_seconds}))

    if args.trace == 0:
        # set-up is scaled by the run's mean kernel scale, not per probe:
        # see README.md, "Set-up time"
        kernel_scale = (tally.seconds / tally.raw_seconds
                        if tally.raw_seconds else 1.0)
        metrics = {
            "setup_s": statistics.median(setup) * kernel_scale,
            "ops_per_s": tally.ops / tally.seconds if tally.seconds else 0.0,
            "trial_ms_p50": _percentile(tally.latencies_ms, 50),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        samples = {"setup_s": len(setup), "ops_per_s": tally.ops,
                   "trial_ms_p50": len(tally.latencies_ms),
                   "peak_rss_mb": 1}
        # printed, not bounded: see README.md "End-to-end metrics"
        print(f"info trial_ms_p90 = "
              f"{_percentile(tally.latencies_ms, 90)!r} ms  "
              f"(n={len(tally.latencies_ms)})")
        print("raw: " + json.dumps({
            "setup_s": statistics.median(setup),
            "ops_per_s": (tally.ops / tally.raw_seconds
                          if tally.raw_seconds else 0.0),
            "trial_ms_p50": _percentile(tally.raw_latencies_ms, 50),
            "trial_ms_p90": _percentile(tally.raw_latencies_ms, 90),
            "timed_s": tally.raw_seconds,
            "kernel_scale": kernel_scale}))
    else:
        layer = tracer.metrics()
        traced_ms = layer.pop("traced_ms")
        wall_ms = tally.seconds * 1e3
        plain_ms = plain.seconds * 1e3
        layer["harness.trials"] = tally.trials
        layer["bench.ops"] = tally.ops
        layer["bench.self_ms"] = wall_ms - traced_ms
        # median over call pairs run back to back: robust to the machine's
        # speed changing between one call and the next
        layer["bench.trace_overhead"] = statistics.median(
            t / p for p, t in zip(plain.call_seconds, tally.call_seconds)
            if p and t) - 1.0
        names = tracing.per_layer_names()
        metrics = {k: layer[k] for k in names}
        units = {k: _layer_unit(k) for k in names}
        samples = {}
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"spans-{wl.name}.jsonl")
        tracer.write(span_path)
        print(f"spans: {len(tracer.names)} written to "
              f"{os.path.relpath(span_path, ROOT)}")
        print(f"accounting: layer self times {traced_ms:.1f} ms + bench "
              f"{wall_ms - traced_ms:.1f} ms = traced {wall_ms:.1f} ms; "
              f"untraced {plain_ms:.1f} ms; self times / untraced = "
              f"{traced_ms / plain_ms:.4f}; rounds {n_rounds}")

    for name, value in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"metric {name} = {value!r} {units[name]}{n}")
    print(json.dumps({
        "correct": not problems and tally.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith(("_ratio", "_overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
