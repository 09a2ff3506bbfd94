import contextlib
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import so3g2
from so3g2 import cli
from so3g2.binaryform import BinaryForm, GL2
from so3g2.cli import build_parser, main, parse_scalar
from so3g2.flow import FlowState, integrate_line, lowest_term
from so3g2.g2 import assemble_g2
from so3g2.verify import ALL_SUITES, SAMPLED_SUITES
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_scalar_rational_pipeline():
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar("-4") == Fraction(-4)
    assert parse_scalar("0.25") == 0.25


def test_classify_table_rows(capsys):
    code, out = run_cli(capsys, "classify", "--x", "1,0", "--y", "1,0,-1")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "SO3xSO3"
    assert data["delta"] == 4 and data["resultant"] == -1
    assert data["detKilling"] == 4096
    assert data["half_flat"] is True

    code, out = run_cli(capsys, "classify", "--x", "1,0", "--y", "1,0,1")
    assert json.loads(out)["class"] == "SO3C"
    code, out = run_cli(capsys, "classify", "--x", "1,0", "--y", "1,0,0")
    assert json.loads(out)["class"] == "Nilpotent"


def test_classify_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--x", "0,0", "--y", "1,0,0"])
    assert exc.value.code == 2


def test_classify_rational_inputs_stay_exact(capsys):
    code, out = run_cli(capsys, "classify", "--x", "1/2,0", "--y", "1/3,0,-1/3")
    data = json.loads(out)
    assert data["class"] == "SO3xSO3"
    assert data["delta"] == "4/9"


def test_classify_decimal_inputs_give_float_det(capsys):
    code, out = run_cli(capsys, "classify", "--x=0.3,0.7", "--y=1.1,0.2,-0.9")
    assert code == 0
    data = json.loads(out)
    det = data["detKilling"]
    assert isinstance(det, float)
    want = (4 * data["delta"] * data["resultant"] ** 2) ** 3
    assert abs(det - want) <= 1e-9 * abs(want)
    assert abs(det - 21.2285) < 1e-4


@pytest.mark.filterwarnings("default:trajectory truncated:UserWarning")
def test_warning_is_one_stderr_line(capsys, monkeypatch):
    # a command whose G2 samples run past the boundary: assemble_g2 truncates them
    def cmd_classify(args):
        p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
        traj = integrate_line(p, BinaryForm(3, [1 / 3, 0.0, -1.0, 0.0]), [0.0, 0.1])
        traj.states.append(FlowState(q=BinaryForm(3, [1.0, 0.0, 1.0, 0.0]), p=p,
                                     s=9.0, t=9.0, detg=0.0))
        traj.frames.append(GL2.identity())
        assert len(assemble_g2(traj)) == 2
        return 0

    monkeypatch.setattr(cli, "cmd_classify", cmd_classify)
    code = main(["classify", "--x", "1,0", "--y", "1,0,1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == ""
    assert captured.err.splitlines() == [
        "warning: trajectory truncated at t = 9.0: 3-form no longer stable of complex type"]


def test_classify_report_agrees_with_its_invariants(capsys):
    # Delta = -4e-14 and R = 1e-7 of the rationals the decimals round to
    code = main(["classify", "--x", "1,0", "--y", "1e-7,0,1e-7"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 0 and captured.err == ""
    assert data["class"] == "SO3C"
    assert data["delta"] < 0 and data["resultant"] != 0 and data["detKilling"] < 0


def test_closed_stdout_exits_0_quietly():
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(so3g2.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "so3g2.cli", "flow", "--p", "1,0,-1,0", "--q0", "1,0,0,0",
             "--steps", "8", "--g2-samples"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_curvature_report(capsys):
    code, out = run_cli(capsys, "curvature", "--x", "1,0", "--y", "1,0,-1")
    data = json.loads(out)
    assert abs(data["scalar"] - 6.0) < 1e-10
    assert data["ricci_traceless_norm"] < 1e-12
    assert data["weyl_norm"] > 0.1


def test_flow_case2_csv(capsys):
    code, out = run_cli(capsys, "flow", "--p", "0,0,1,0", "--q0", "1,0,0,0",
                        "--s-max", "1", "--steps", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s", "t", "q1", "q2", "q3", "q4", "detg", "Delta"]
    # the admissible side of this line is s < 0; the clock closed form
    # is s = -t^2 (3 lam)^(1/3)/4
    for row in rows[1:]:
        s, t = float(row[0]), float(row[1])
        assert s < 0
        assert abs(s + 0.25 * t * t * 3.0 ** (1.0 / 3.0)) < 1e-8


def test_flow_bs_trajectory_with_endpoint(capsys):
    code, out = run_cli(capsys, "flow", "--p", "1,0,-1,0", "--q0", "1,0,0,0",
                        "--s-max", "2", "--steps", "6")
    data = json.loads(out)
    assert code == 0
    # positive side, no boundary within range: endpoint report empty
    assert data["endpoint"] == {}
    assert all(row[7] > 0 for row in data["rows"])
    # starting inside and running down hits the triple-root boundary
    code, out = run_cli(capsys, "flow", "--p=-1,0,1,0", "--q0", "2,0,-1,0",
                        "--s-max", "3", "--steps", "6")
    data = json.loads(out)
    assert data["endpoint"]["kind"] == "TripleRootDividingP"


def test_flow_g2_samples_for_a_direction_without_rational_factor(capsys):
    # p = u1^3 + u1 u2^2 + 3 u2^3 has one real linear factor, irrational;
    # the boundary root ends the rows and has no frame, so no G2 sample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "flow", "--p", "1,0,1,3", "--q0", "1/3,0,-1,0",
                            "--g2-samples")
    assert code == 0
    data = json.loads(out)
    assert len(data["g2_samples"]) == len(data["rows"]) - 1


def test_flow_g2_samples_stop_before_an_exact_boundary_root(capsys):
    code, out = run_cli(capsys, "flow", "--p", "0,0,1,0", "--q0", "1/3,0,-1,0",
                        "--steps", "5", "--g2-samples")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][-1][7] == 0
    assert len(data["g2_samples"]) == 4


def test_flow_g2_samples_are_those_of_the_sampled_line(capsys):
    argv = ["flow", "--p", "1,0,-1,0", "--q0", "1/3,0,-1,0", "--s-max", "0.5", "--steps", "5"]
    _, plain = run_cli(capsys, *argv)
    _, with_g2 = run_cli(capsys, *argv, "--g2-samples")
    data = json.loads(with_g2)
    samples = data.pop("g2_samples")
    assert data == json.loads(plain)
    traj = integrate_line(BinaryForm(3, [1.0, 0.0, -1.0, 0.0]), BinaryForm(3, [1 / 3, 0.0, -1.0, 0.0]),
                          [row[0] for row in data["rows"]])
    assert samples == json.loads(json.dumps(assemble_g2(traj).to_json()))


@pytest.mark.parametrize("argv", [
    ["--p", "1,0,-1,0", "--q0", "1/3,0,-1,0", "--s-max", "0.5", "--steps", "5"],
    ["--p", "1/2,1/5,-1,1/5", "--q0", "1/3,0,-1,0", "--s-max", "1.5", "--steps", "7"],
    ["--p=-1,0,0,0", "--q0", "1/3,0,-1,0", "--direction", "1", "--steps", "6"],
])
def test_flow_g2_sample_times_are_the_row_times(capsys, argv):
    code, out = run_cli(capsys, "flow", *argv, "--g2-samples")
    assert code == 0
    data = json.loads(out)
    rows, samples = data["rows"], data["g2_samples"]
    assert samples
    assert [g["t"] for g in samples] == [row[1] for row in rows[:len(samples)]]


def test_flow_g2_samples_stop_before_a_row_with_delta_not_positive(capsys):
    # s-max lies within rounding below the line's root, so no boundary is
    # hit, and the float Delta of the last row is -5.6e-17
    code, out = run_cli(capsys, "flow",
                        "--p=0.25574561836315185,-0.4586838092953731,1.0358638360176367,"
                        "-0.4586838092953731", "--q0=1/3,0,-1,0",
                        "--s-max=0.4089819534927689", "--g2-samples")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 80 and data["rows"][-1][7] <= 0
    assert data["endpoint"] == {}
    assert len(data["g2_samples"]) == 79


def test_flow_stops_at_a_boundary_root_next_to_the_start(capsys):
    # Delta = 4 (10^-13 - s): the simple root at s = 10^-13 ends the line
    code, out = run_cli(capsys, "flow", "--p=-1,0,0,0", "--q0=1/10000000000000,0,-1,0",
                        "--direction", "1", "--steps", "4")
    assert code == 0
    data = json.loads(out)
    assert [row[0] for row in data["rows"]][-1] == 1e-13
    assert all(row[7] >= 0 for row in data["rows"])
    assert data["endpoint"]["kind"] == "not attained"


def test_flow_from_an_admissible_endpoint_leaves_s_0(capsys):
    # Delta = -4 (2 + s) s^3: the triple root s = 0 is the start, not a boundary;
    # its lowest term -8 s^3 is negative, so the flow leaves to the left
    assert lowest_term(BinaryForm(3, [2, 0, 0, 0]), BinaryForm(3, [1, 0, 1, 0])) == (3, -1)
    code, out = run_cli(capsys, "flow", "--q0", "2,0,0,0", "--p", "1,0,1,0", "--steps", "4")
    assert code == 0
    assert [row[0] for row in json.loads(out)["rows"]] == [-0.5, -1.0, -1.5, -2.0]


def test_flow_direction_0_is_the_sign_at_s_0(capsys):
    # Delta = 4 (1/2000000 - s): positive at s = 0, with a simple root 5e-7
    # beyond it, so direction 0 takes the right side and stops at the root
    code, out = run_cli(capsys, "flow", "--p=-1,0,0,0", "--q0=1/2000000,0,-1,0", "--steps", "4")
    assert code == 0
    data = json.loads(out)
    assert [row[0] for row in data["rows"]] == [1.25e-7, 2.5e-7, 3.75e-7, 5e-7]
    assert data["endpoint"] == {"kind": "not attained",
                                "reason": "invalid endpoint: double root that is not triple"}


def test_flow_rejects_bad_initial_data(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--p", "1,0,0,0", "--q0", "1,0,0,0", "--s-max", "1"])
    assert exc.value.code == 2


def test_bs_metric_csv(capsys):
    code, out = run_cli(capsys, "bs-metric", "--lam", "1", "--z", "0,1",
                        "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["z", "base_coefficient", "fibre_coefficient"]
    assert abs(float(rows[1][1]) - 3.0 ** (2.0 / 3.0)) < 1e-12


def test_endpoints_command(capsys):
    code, out = run_cli(capsys, "endpoints", "--p", "1,0,1,0", "--q", "2,0,0,0")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] and data["kind"] == "TripleRootDividingP"
    code, out = run_cli(capsys, "endpoints", "--p", "1,0,0,0", "--q", "1,0,0,0")
    assert code == 1
    assert not json.loads(out)["valid"]


def test_endpoints_input_is_decided_as_the_rational_it_represents(capsys):
    # 0.1, 0.3, 0.3, 0.1 are floats off (u1 + u2)^3 / 10: Delta = -8.6e-51
    code, out = run_cli(capsys, "endpoints", "--p", "1,0,-1,0", "--q", "0.1,0.3,0.3,0.1")
    assert code == 1
    assert json.loads(out) == {"valid": False,
                               "reason": "endpoint must have vanishing discriminant"}
    code, out = run_cli(capsys, "endpoints", "--p", "1,0,-1,0", "--q", "1/10,3/10,3/10,1/10")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] and data["kind"] == "TripleRootDividingP"
    assert all(abs(v - 0.5 ** 0.5) < 1e-15 for v in data["root"])
    assert abs(data["lambda"] - 0.2 * 2 ** 0.5) < 1e-15


def test_endpoints_with_a_cube_beyond_the_float_range_is_a_usage_error(capsys):
    # 10^400 u1^3 is an admissible endpoint whose lambda no float holds
    code = main(["endpoints", "--p", "1,0,1,0", "--q", f"{10 ** 400},0,0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the cube's coefficient lambda is beyond the float range"]


def test_flow_with_roots_beyond_the_float_range_is_a_usage_error(capsys):
    # the line's discriminant has its double root at s = -10^400
    code = main(["flow", "--p", "1,0,-1,0", "--q0", f"{10 ** 400},0,-1,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: real roots bounded only by 2^1329, beyond the float range"]


BEYOND_FLOAT = str(10 ** 400)


def test_curvature_beyond_the_float_range_is_a_usage_error(capsys):
    code = main(["curvature", "--x", f"{BEYOND_FLOAT},0", "--y", "1,0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: a form coefficient is beyond the float range"]


def test_flow_with_p_beyond_the_float_range_is_a_usage_error(capsys):
    code = main(["flow", "--p", f"{BEYOND_FLOAT},0,-{BEYOND_FLOAT},0", "--q0", "1,0,-1,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: a binary form coefficient is beyond the float range"]


@pytest.mark.parametrize("argv", [
    ["classify", "--x", "1e300,1e300", "--y", "1e300,0,1e300"],
    ["curvature", "--x", "1e200,0", "--y", "1e200,0,1"],
    ["curvature", "--x", f"{BEYOND_FLOAT},0", "--y", "1,0,1.5"],
])
def test_float_structure_constants_beyond_the_float_range_are_a_usage_error(capsys, argv):
    # x * y overflows in floats (the last point: a Fraction times a float)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the structure constants of this point are beyond the float range"]


def test_classify_beyond_the_float_range_is_exact(capsys):
    # no float norm is taken of exact input, and det F prints all its 4805 digits
    code = main(["classify", "--x", f"{BEYOND_FLOAT},0", "--y", "1,0,1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        data = json.loads(captured.out)
    finally:
        sys.set_int_max_str_digits(limit)
    b = 10 ** 400
    assert data == {
        "class": "SO3C", "label": "so(3,C)", "delta": -4, "resultant": b * b,
        "detKilling": (4 * -4 * b ** 4) ** 3, "torsion": [b, 0, b, 0],
        "half_flat": True, "hermitian": True}


def test_contract_command(capsys):
    code, out = run_cli(capsys, "contract", "--a", "1", "--b", "0", "--c", "0",
                        "--lam", "1,2,3,4", "--planes")
    data = json.loads(out)
    assert data["invariant_halfflat_plane"] is True
    assert data["field_value"] == ["3", "2", "-3", "-12"]
    assert len(data["planes"]) == 3
    code, out = run_cli(capsys, "contract", "--a", "1", "--b", "1", "--c", "0")
    assert json.loads(out)["invariant_halfflat_plane"] is False


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "endpoints")
    assert code == 0
    assert "[PASS] endpoints" in out


def test_verify_perturb_jacobi_fails(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "jacobi",
                        "--n-samples", "20", "--perturb-jacobi")
    assert code == 1
    assert "[FAIL] jacobi" in out


def test_verify_n_samples_reaches_every_sampled_suite(capsys):
    assert main(["verify", "--suite", "classification", "--n-samples", "5"]) == 0
    assert "5 orbit pairs" in capsys.readouterr().out
    assert main(["verify", "--suite", "killing", "--n-samples", "20"]) == 0
    assert "20 exact samples" in capsys.readouterr().out


def test_verify_known_defect_not_counted(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "case2-stated")
    assert code == 0
    assert "[FAIL] case2-stated" in out
    assert "known defect" in out


def test_output_file_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "classify", "--x", "1,0", "--y", "0,1,0",
                      "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["class"] == "SO3directR3"


def test_verify_deterministic_given_seed(capsys):
    _, out1 = run_cli(capsys, "verify", "--suite", "non-completeness", "--seed", "7")
    _, out2 = run_cli(capsys, "verify", "--suite", "non-completeness", "--seed", "7")
    assert out1 == out2


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def outcome(run, argv):
    """(exit code, stdout) of run(argv), with stderr swallowed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_build_parser_is_shared():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_state_between_calls():
    """The same argv gives the same exit code and output whatever ran
    before it in the process, --format csv included."""
    curvature = ["curvature", "--x", "1,0", "--y", "1,0,-1"]
    missing_y = ["curvature", "--x", "1,0"]
    classify = ["classify", "--x", "1/2,0", "--y", "1/3,0,-1/3"]
    as_csv = ["bs-metric", "--z", "0,1", "--format", "csv"]
    as_json = ["bs-metric", "--z", "0,1"]
    first = {tuple(a): outcome(main, a)
             for a in (curvature, missing_y, classify, as_csv, as_json)}
    second = {tuple(a): outcome(main, a)
              for a in (as_csv, as_json, missing_y, classify, curvature)}
    assert first == second
    assert first[tuple(curvature)][0] == 0 and first[tuple(missing_y)] == (2, "")
    assert json.loads(first[tuple(as_json)][1])["rows"][1][0] == 1.0
    assert first[tuple(as_csv)][1].startswith("z,base_coefficient")


@pytest.mark.parametrize("command", [[], ["classify"], ["curvature"], ["flow"], ["bs-metric"],
                                     ["endpoints"], ["contract"], ["verify"]])
def test_help_of_shared_parser_matches_a_fresh_one(command):
    argv = command + ["--help"]
    code, text = outcome(main, argv)
    assert code == 0 and text.startswith("usage: so3g2")
    assert (code, text) == outcome(build_parser.__wrapped__().parse_args, argv)


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_curvature", lambda args: seen.append(args) or 7)
    assert main(["curvature", "--x", "1,0", "--y", "1,0,-1"]) == 7
    assert [(a.x, a.y) for a in seen] == [("1,0", "1,0,-1")]


def test_parse_scalar_rejects_non_finite():
    for text in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(ValueError):
            parse_scalar(text)


@pytest.mark.parametrize("argv", [
    ["einstein-scan"],                                    # removed: verify --suite einstein
    ["contract", "--scan"],                               # removed: verify --suite contractions
    ["classify", "--x", "1,0", "--y", "1,0,-1", "--tol", "1e-3"],
    ["classify", "--x", "1,0", "--y", "1,0,-1", "--seed", "3"],
    ["classify", "--x", "1,0", "--y", "1,0,-1", "--format", "csv"],
    ["verify", "--suite", "endpoints", "--output", "x.json"],
    ["verify", "--suite", "nonsense"],
    ["verify", "--suite", "endpoints", "--seed", "1"],
    ["verify", "--suite", "g2", "--n-samples", "5"],
    ["verify", "--suite", "killing", "--perturb-jacobi"],
    ["verify", "--suite", "killing", "--n-samples", "0"],
    ["classify", "--x", "1,0,0", "--y", "1,0,-1"],
    ["contract", "--a", "inf"],
    ["flow", "--p", "1,0,-1,0", "--q0", "1,0,0,0", "--s-max", "nan"],
    ["flow", "--p", "1,0,-1,0", "--q0", "1,0,0,0", "--s-max", "-1"],
    ["flow", "--p", "1,0,-1,0", "--q0", "1,0,0,0", "--steps", "0"],
    ["flow", "--p", "1,0,-1,0", "--q0", "1,0,0,0", "--g2-samples", "--format", "csv"],
    ["bs-metric", "--lam", "0", "--z", "0,1"],
    ["bs-metric", "--z", "0,nan"],
    ["endpoints", "--p", "nan,0,1,0", "--q", "2,0,0,0"],
    ["classify", "--x", "1,0", "--y", "1,0,-1", "--output", "no-such-dir/report.json"],
])
def test_usage_errors_exit_2(argv, capsys):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err and "error:" in err[-1], err


def test_suites_take_seed_and_n_samples_iff_sampled():
    assert SAMPLED_SUITES <= set(ALL_SUITES)
    for name, fn in ALL_SUITES.items():
        params = set(inspect.signature(fn).parameters) - {"perturb"}
        assert params == ({"seed", "n_samples"} if name in SAMPLED_SUITES else set()), name


def test_bare_verify_runs_the_suite_default_seeds(capsys):
    for suite, seed in (("non-completeness", "7"), ("hamiltonian", "9")):
        _, bare = run_cli(capsys, "verify", "--suite", suite)
        _, seeded = run_cli(capsys, "verify", "--suite", suite, "--seed", seed)
        assert bare == seeded


def test_verify_n_samples_reaches_einstein(capsys):
    assert main(["verify", "--suite", "einstein", "--n-samples", "27"]) == 0
    assert "27 grid points" in capsys.readouterr().out


ATOMS = "0 1 -1 1/2 -1/3 0.5 1e-9 1e9 nan inf -inf abc 1/0".split()
# per command: required and optional flags -> number of comma-separated
# values (0 for a flag that takes none)
CLI_FLAGS = {
    "classify": ({"--x": 2, "--y": 3}, {}),
    "curvature": ({"--x": 2, "--y": 3}, {}),
    "flow": ({"--p": 4, "--q0": 4},
             {"--s-max": 1, "--steps": 1, "--g2-samples": 0, "--format=csv": 0}),
    "bs-metric": ({"--z": 3}, {"--lam": 1, "--format=csv": 0}),
    "endpoints": ({"--p": 4, "--q": 4}, {}),
    "contract": ({}, {"--a": 1, "--b": 1, "--c": 1, "--lam": 4, "--planes": 0}),
}


def test_cli_fuzz_exit_codes_and_finite_output():
    """Every argv drawn from small atoms, with right and wrong value
    counts, ends with exit 0, 1 or 2 and no traceback; a successful run
    prints no NaN or infinity."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def argvs(draw):
        cmd = draw(st.sampled_from(sorted(CLI_FLAGS)))
        required, optional = CLI_FLAGS[cmd]
        flags = list(required.items())
        flags += [(f, n) for f, n in optional.items() if draw(st.booleans())]
        argv = [cmd]
        for flag, n in flags:
            if n == 0:
                argv.append(flag)
                continue
            count = n if draw(st.booleans()) else draw(st.integers(1, 5))
            values = draw(st.lists(st.sampled_from(ATOMS), min_size=count, max_size=count))
            argv.append(f"{flag}={','.join(values)}")
        return argv

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @hypothesis.given(argvs())
    def check(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = exit_code(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            assert not re.search(r"NaN|Infinity|\bnan\b|\binf\b", out.getvalue()), argv

    check()
