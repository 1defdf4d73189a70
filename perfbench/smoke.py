"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload, that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric with its unit, that an altered pinned digest and
unreachable quality floors each turn the run's ops into failures, and that
the benchmark refuses to run without the package sources next to it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_out", "smoke")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd, text=True,
                          capture_output=True, timeout=180)


def _bench(workload, trace, root=ROOT):
    proc = _run([os.path.join(root, "perfbench", "run.py"), "--workload",
                 workload, "--seed", "0", "--seconds", "1", "--trace",
                 str(trace), "--tiny"], cwd=root)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _expect_metrics(result, lines, spec, where):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    assert got == want, f"{where}: metrics/units {got} != {want}"
    for name in want:
        assert any(line.startswith(f"metric {name} = ") for line in lines), \
            f"{where}: no printed line for {name}"


def _edited_copy(name, filename, edit):
    """A copy of the benchmark, beside a link to this checkout's src/, in
    which ``filename`` is replaced by ``edit(its text)``.  Returns its
    root."""
    root = os.path.join(WORK_DIR, name)
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), os.path.join(root, "src"))
    path = os.path.join(root, "perfbench", filename)
    with open(path) as fh:
        text = edit(fh.read())
    with open(path, "w") as fh:
        fh.write(text)
    return root


def _expect_all_failed(lines, result):
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] > 0, result
    quality = next(json.loads(line[len("quality: "):])
                   for line in lines if line.startswith("quality: "))
    assert quality["error_rate"] == 1.0, quality


def _zero_first_ofdm_pin(text):
    table = json.loads(text)
    pins = table["tiny"]["ofdm_ref"]
    pins[sorted(pins)[0]] = "0" * 64
    return json.dumps(table)


def _unreachable_floors(text):
    for name in ("OFDM_MIN_TOP_EXACT", "OFDM_MIN_TOP_GAIN_DB",
                 "PHASE_MIN_SUCCESS", "DCT_MIN_SNR_DB"):
        text, n = re.subn(rf"^{name} = .*$", f"{name} = 1e9", text,
                          flags=re.M)
        assert n == 1, f"no single definition of {name} in workloads.py"
    return text


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(WORK_DIR, exist_ok=True)
    failures = []

    def check(label, fn):
        try:
            fn()
            print(f"ok   {label}")
        except AssertionError as exc:
            failures.append(label)
            print(f"FAIL {label}: {exc}")

    for wl in (w["name"] for w in bench["workloads"]):
        def untraced(wl=wl):
            lines, result = _bench(wl, 0)
            assert result["correct"] and result["failed"] == 0, result
            _expect_metrics(result, lines, bench["end_to_end"], wl)
            assert any(line.startswith("machine: ") for line in lines)
            assert any(line.startswith("csv_sha256 ") for line in lines)
            quality = next(json.loads(line[len("quality: "):])
                           for line in lines if line.startswith("quality: "))
            assert {"success_rate", "mean_output_snr_db",
                    "error_rate"} <= set(quality), quality

        def traced(wl=wl):
            lines, result = _bench(wl, 1)
            assert result["correct"] and result["failed"] == 0, result
            _expect_metrics(result, lines, bench["per_layer"], wl)

        check(f"{wl} untraced prints end-to-end metrics", untraced)
        check(f"{wl} traced prints per-layer metrics", traced)

    def altered_digest():
        root = _edited_copy("altered-digest", "digests.json",
                            _zero_first_ofdm_pin)
        _expect_all_failed(*_bench("ofdm_ref", 0, root))

    check("altered pinned digest raises error_rate", altered_digest)

    floors_root = _edited_copy("floors", "workloads.py", _unreachable_floors)
    for wl in ("ofdm_ref", "phase_grid", "dct_fista"):
        def floors(wl=wl):
            lines, result = _bench(wl, 0, floors_root)
            _expect_all_failed(lines, result)
            assert any(line.startswith("error: ") and " < " in line
                       for line in lines), "no quality-floor error printed"

        check(f"{wl} unreachable quality floor raises error_rate", floors)

    def bare_directory():
        bare = os.path.join(WORK_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run([*bench["command"][1:], "--workload", "ofdm_ref",
                     "--seed", "0", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
        assert proc.returncode != 0, "ran without the package sources"
        assert '"metrics"' not in proc.stdout, "printed a result"

    check("refuses to run without src/", bare_directory)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print("smoke: " + ("FAILED " + ", ".join(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
