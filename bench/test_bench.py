"""Tests of the benchmark itself: input determinism, the output gate and
its negative controls, and the tracer's counts and clean removal.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.prepare()

import so3g2  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from so3g2 import verify  # noqa: E402
from workloads import CheckFailed, WORKLOADS  # noqa: E402

# digests of the inputs at the held-out seed, recorded when the benchmark
# was defined; a change here means the workloads no longer match old results
HOLDOUT_DIGESTS = {
    "acceptance": "9187e662d66328730e4f08284676fec22bb1c88cbe3b694b5a80c7cdfc94ab4f",
    "curvature-scan": "e1cc5836e5aefae56a8ab4ae8e28ca7773a1b47270184c68a1e53edaa9663651",
    "flow-g2": "282f7f9882c9adf5e209be339e72c06f2a3419626a8d87ecf5a1fd98b52907ae",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_byte_identical_per_seed(name):
    make = WORKLOADS[name].make_requests
    a, b = make(run.HOLDOUT_SEED), make(run.HOLDOUT_SEED)
    assert json.dumps(a) == json.dumps(b)
    assert workloads.inputs_digest(a) == HOLDOUT_DIGESTS[name]
    if name != "acceptance":   # the suites carry their own seeds
        assert workloads.inputs_digest(make(1)) != workloads.inputs_digest(a)


# -- negative controls: each checker rejects a perturbed answer ---------------

def test_curvature_check_rejects_one_perturbed_ricci_entry():
    req = WORKLOADS["curvature-scan"].make_requests(1)[0]
    text = workloads.serve_curvature(req)
    workloads.check_curvature(req, text)
    rep = json.loads(text)
    rep["ricci"][2][3] += 1e-7 * max(1.0, abs(rep["scalar"]))
    with pytest.raises(CheckFailed):
        workloads.check_curvature(req, json.dumps(rep))


@pytest.fixture(scope="module")
def flow_case():
    req = WORKLOADS["flow-g2"].make_requests(1)[0]
    out = workloads.serve_flow(req)
    workloads.check_flow(req, out)
    return req, out


def test_flow_check_rejects_one_perturbed_flow_row(flow_case):
    req, out = flow_case
    data = json.loads(out.flow_text)
    data["rows"][5][6] *= 1 + 1e-8   # detg of one row
    with pytest.raises(CheckFailed, match="clock"):
        workloads.check_flow(req, dataclasses.replace(out, flow_text=json.dumps(data)))


def test_flow_check_rejects_a_perturbed_dphi(flow_case):
    req, out = flow_case
    with pytest.raises(CheckFailed, match="d phi"):
        workloads.check_flow(req, dataclasses.replace(out, dphi=2e-6))


def test_flow_check_rejects_a_perturbed_oracle_sample(flow_case):
    req, out = flow_case
    qs = list(out.oracle.qs)
    qs[30] = qs[30] + so3g2.BinaryForm(3, [0.0, 1e-7, 0.0, 0.0])
    oracle = dataclasses.replace(out.oracle, qs=qs)
    with pytest.raises(CheckFailed, match="oracle"):
        workloads.check_flow(req, dataclasses.replace(out, oracle=oracle))


@pytest.mark.xfail(strict=True, reason="known defect: flow._polish_root moves the simple "
                   "boundary root 3.9696 to 4.0798, so so3g2 flow samples past it")
def test_flow_with_default_range_stops_at_the_boundary():
    # the line of flow-g2 seed 7, request 10; the workload passes --s-max
    # at the boundary it locates itself, so this stays visible here
    req = WORKLOADS["flow-g2"].make_requests(7)[10]
    argv = [a for a in req["flow_argv"] if not a.startswith("--s-max=")]
    rows = json.loads(workloads.call_cli(argv))["rows"]
    assert min(row[7] for row in rows) > -1e-10   # Delta never negative


def test_suite_check_expects_case2_red_and_the_rest_green():
    red = verify.SuiteResult("case2-stated", False, 0.66, 1e-8)
    green = verify.SuiteResult("jacobi", True, 0.0, 0.0)
    workloads.check_suite("case2-stated", red)
    workloads.check_suite("jacobi", green)
    with pytest.raises(CheckFailed):
        workloads.check_suite("case2-stated", dataclasses.replace(red, passed=True))
    with pytest.raises(CheckFailed):
        workloads.check_suite("jacobi", dataclasses.replace(green, passed=False))
    with pytest.raises(CheckFailed):
        workloads.check_suite("curvature", verify.SuiteResult("curvature-oracle", True, 2e-10, 1e-10))


def test_acceptance_refuses_a_missing_suite(monkeypatch):
    suites = dict(verify.ALL_SUITES)
    del suites["killing"]
    monkeypatch.setattr(verify, "ALL_SUITES", suites)
    with pytest.raises(CheckFailed):
        workloads.acceptance_requests(1)


def test_zero_evaluated_requests_is_not_correct():
    assert not run.verdict(run.Stream())


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    def wrong(req, out):
        raise CheckFailed("planted")

    wl = dataclasses.replace(WORKLOADS["curvature-scan"], check=wrong)
    monkeypatch.setitem(WORKLOADS, "curvature-scan", wl)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    rc = run.main(["--workload", "curvature-scan", "--seed", "1", "--seconds", "0.05"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] > 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    root = Path(run.ROOT)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "curvature-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tracing: counts repeat exactly, outputs unchanged, wrappers removed ------

def _bindings():
    return {(name, attr): val for name, mod in sys.modules.items()
            if name == "so3g2" or name.startswith("so3g2.")
            for attr, val in vars(mod).items()}


COUNTS = ("variety.killing_form_calls", "exterior.d_squared_residual_calls",
          "exterior.apply_d_calls_per_op", "stableform.hitchin_dual_calls_per_op")


def _small_killing():
    # the killing suite at 25 samples: det, rank and signature each rebuild the form
    return dataclasses.replace(
        WORKLOADS["acceptance"], name="killing-small",
        make_requests=lambda seed: [["killing"]],
        serve=lambda names: [verify.suite_killing(n_samples=25)])


@pytest.mark.parametrize("make", [
    lambda: dataclasses.replace(WORKLOADS["curvature-scan"], batch=1, trace_block=20),
    lambda: dataclasses.replace(WORKLOADS["flow-g2"], batch=1, trace_block=2),
    _small_killing,
], ids=["curvature-scan", "flow-g2", "killing"])
def test_traced_counts_repeat_and_outputs_match(make):
    wl = make()
    before = _bindings()
    reqs = wl.make_requests(3)
    runs = []
    for _ in range(2):
        stream = run.measure(wl, reqs, 0.0, min_ops=wl.trace_block)
        metrics = run.per_layer(wl, reqs, stream)
        # per_layer compares the traced outputs with the untraced ones
        assert stream.failures == []
        runs.append({k: metrics[k][0] for k in COUNTS})
        assert _bindings() == before
    assert runs[0] == runs[1]
    if wl.name == "killing-small":
        assert 50 < runs[0]["variety.killing_form_calls"] <= 75
    else:
        assert runs[0]["exterior.apply_d_calls_per_op"] > 0


def test_tracer_patches_every_importing_module():
    t = tracer.Tracer()
    with t:
        from so3g2 import flow, stableform
        assert stableform.wedge is flow.wedge is so3g2.exterior.wedge
        assert so3g2.exterior.wedge.__wrapped__ is not None
        with t.op():
            flow.wedge(stableform.SIGMA, stableform.SIGMA)
    assert not hasattr(so3g2.exterior.wedge, "__wrapped__")
    assert t.calls("exterior.wedge") == 1
