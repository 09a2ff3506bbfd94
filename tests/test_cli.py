import csv
import io
import json

import pytest

from so3g2.cli import main, parse_scalar
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
