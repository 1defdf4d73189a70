"""The benchmark in perfbench/ wraps convsense entry points by name; this
keeps every name it looks up present, and keeps sequence generators called
through the registry visible to its tracer."""

import hashlib
import importlib.util
import json
import os
import sys

from convsense import harness

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name, monkeypatch):
    path = os.path.join(_PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_sees_registry_builds(monkeypatch):
    tracer = _load("tracing", monkeypatch).Tracer()
    try:
        tracer.install()
        harness.build_circulant("golay", 64, {})
        harness.build_circulant("perfect_binary_filter", 63, {})
    finally:
        tracer.uninstall()
    assert tracer.names.count("sequences.golay") == 1
    assert tracer.names.count("sequences.m_sequence") == 1
    assert tracer.names.count("sequences.perfect_binary_from_m") == 1


def test_workload_static_setups_run(monkeypatch):
    for workload in _load("workloads", monkeypatch).WORKLOADS.values():
        workload.static_setup()


def test_tiny_round_zero_matches_pinned_digests(monkeypatch):
    """Round 0 of the tiny certify, ofdm_ref and phase_grid calls at seed 0
    gives the CSV bytes pinned in perfbench/digests.json."""
    workloads = _load("workloads", monkeypatch)
    with open(os.path.join(_PERFBENCH, "digests.json")) as fh:
        pinned = json.load(fh)["tiny"]
    for name in ("certify", "ofdm_ref", "phase_grid"):
        csvs = {}
        for call in workloads.WORKLOADS[name].calls(0, 0, True):
            csvs.update(call.run().csvs)
        digests = {key: hashlib.sha256(text.encode()).hexdigest()
                   for key, text in csvs.items()}
        assert digests == pinned[name], name


def test_tiny_dct_fista_meets_its_quality_floor(monkeypatch):
    """Round 0 of the tiny dct_fista call at seed 0 clears the benchmark's
    output-SNR floor for the proposed scheme, so a solver change that
    loses it shows in the test suite, not only in a benchmark run."""
    workloads = _load("workloads", monkeypatch)
    (call,) = workloads.WORKLOADS["dct_fista"].calls(0, 0, True)
    res = call.run()
    assert res.failed == 0, res.why
    # the debiased FISTA solve meets the harness's success test
    assert res.passes == res.checks == 1


def test_traced_tiny_round_zero_keeps_its_bytes(monkeypatch):
    """Round 0 of every workload at the tiny size and seed 0, run under
    the tracer with its calls built inside it as ``run_paired`` builds
    them: the pinned digests hold, dct_fista clears its floor, and solver
    spans are recorded, so a traced run survives a change to the layers
    it wraps.  ``SensingOperator``, whose forward and adjoint the tracer
    spans, is the Theta every runner and solver applies, so both spans
    count calls on ofdm_ref and phase_grid."""
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    with open(os.path.join(_PERFBENCH, "digests.json")) as fh:
        pinned = json.load(fh)["tiny"]
    spans = []
    for name, workload in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        with tracer.installed():
            results = [call.run() for call in workload.calls(0, 0, True)]
        spans += tracer.names
        if name in ("ofdm_ref", "phase_grid"):
            metrics = tracer.metrics()
            assert metrics["operators.forward.calls"] > 0, name
            assert metrics["operators.adjoint.calls"] > 0, name
        if name == "dct_fista":
            (res,) = results
            assert res.failed == 0, res.why
            assert res.passes == res.checks == 1
            continue
        digests = {key: hashlib.sha256(text.encode()).hexdigest()
                   for res in results for key, text in res.csvs.items()}
        assert digests == pinned[name], name
    assert any(span.startswith("recovery.") for span in spans)
