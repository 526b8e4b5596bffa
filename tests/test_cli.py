import contextlib
import io
import json
import warnings

import pytest

from rgw import analytic, cli, verify


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_cli_err(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_rate_json_values():
    code, out = run_cli(["rate", "--law", "1:0.5,2:0.5", "--q", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["law"] == {"1": 0.5, "2": 0.5}
    r = doc["rate"]
    assert abs(r["m"] - 1.682949) < 1e-5
    assert r["beta"] == 1.5
    assert abs(r["mean_limit"] - 2 / 3) < 1e-4
    assert r["lower"] == 1.5 and r["upper"] == 1.75


def test_rate_csv_has_config_header():
    code, out = run_cli(["rate", "--law", "1:0.5,2:0.5", "--q", "0.5",
                         "--format", "csv"])
    assert code == 0
    assert out.startswith("#")
    assert "law={'1': 0.5, '2': 0.5}" in out or "q=0.5" in out
    assert "key,value" in out


def test_moments_csv_binary_constant_scaled_column():
    code, out = run_cli(["moments", "--law", "0:0.5,2:0.5", "--q", "0.5",
                         "--n", "10", "--initial", "law", "--format", "csv"])
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "n,EZ,scaled"
    scaled = [float(r.split(",")[2]) for r in rows[2:]]  # n >= 1
    for s in scaled:
        assert abs(s - 2 / 3) < 1e-9


def test_moments_urn_matches_spine():
    _, out_a = run_cli(["moments", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "8"])
    _, out_b = run_cli(["moments", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "8",
                        "--method", "urn"])
    ma = json.loads(out_a)["moments"]
    mb = json.loads(out_b)["moments"]
    for ra, rb in zip(ma, mb):
        assert ra["EZ"] == pytest.approx(rb["EZ"], rel=1e-9)


def test_simulate_spine_estimate():
    code, out = run_cli(["simulate", "--law", "1:0.5,2:0.5", "--q", "0.5",
                         "--n", "5", "--engine", "spine", "--replicas", "2000",
                         "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    est = doc["estimate"]
    assert est["replicas_used"] == 2000
    assert est["seed"] == 7
    assert est["mean"] > 0


def test_simulate_population_csv():
    code, out = run_cli(["simulate", "--law", "0:0.5,2:0.5", "--q", "0.5",
                         "--n", "3", "--replicas", "5", "--seed", "1",
                         "--format", "csv"])
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "replica,generation,Z"


def test_yule_functional_and_marginal():
    code, out = run_cli(["yule", "--law", "1:0.5,2:0.5", "--q", "0.5",
                         "--t", "0.5", "--c", "0.3", "--ell", "2",
                         "--replicas", "3000", "--seed", "2"])
    assert code == 0
    assert json.loads(out)["estimate"]["mean"] > 0
    code, out = run_cli(["yule", "--law", "1:0.5,2:0.5", "--q", "0.5",
                         "--t", "1.0", "--replicas", "3000", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)["population"]
    assert abs(doc["mean"] - doc["expected_mean"]) < 0.3


def test_ode_check_json():
    code, out = run_cli(["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5"])
    assert code == 0
    doc = json.loads(out)["ode"]
    assert doc["criticality"] == "critical"
    assert doc["sup_rel_err_vs_closed_form"] < 1e-6
    assert doc["ratio_monotone"] is True


def test_asymptotics_values():
    code, out = run_cli(["asymptotics", "--law", "1:0.5,2:0.5", "--q", "0.5",
                         "--n", "32"])
    assert code == 0
    doc = json.loads(out)["asymptotics"]
    assert abs(doc["gamma"] - 1.3091926759) < 1e-6
    assert abs(doc["gamma"] - doc["gamma_closed_form"]) < 1e-6
    assert abs(doc["conditional_limits"]["2"] - 4 / 3) < 1e-9
    assert "16" in doc["scaled_trend"]["1"]


def test_verify_single_suite_and_exit_code():
    code, out = run_cli(["verify", "--suite", "rates", "--seed", "42"])
    assert code == 0
    assert "PASS c01" in out
    assert "report-digest sha256=" in out


def test_verify_reports_are_byte_identical():
    _, a = run_cli(["verify", "--suite", "rates", "--seed", "42"])
    _, b = run_cli(["verify", "--suite", "rates", "--seed", "42"])
    assert a == b


def test_verify_json_report():
    code, out = run_cli(["verify", "--suite", "rates", "--seed", "42",
                         "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {r["id"] for r in doc["results"]} == {"c01", "c02", "c03", "c04", "c05"}


def test_usage_errors_exit_one():
    code, _, err = run_cli_err(["rate", "--law", "1:0.5,2:0.5"])  # missing --q
    assert code == 1 and "error" in err
    code, _, err = run_cli_err(["rate", "--q", "0.5"])  # no law source
    assert code == 1
    code, _, err = run_cli_err(["rate", "--law", "1:abc", "--q", "0.5"])
    assert code == 1 and "error" in err
    code, _, err = run_cli_err(["nonsense"])
    assert code == 1


def test_verify_csv_rejected_before_suite_runs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_suite must not be called")

    monkeypatch.setattr(verify, "run_suite", never)
    code, out, err = run_cli_err(["verify", "--suite", "rates", "--format", "csv"])
    assert code == 1 and out == ""
    assert "rgw: error:" in err


@pytest.mark.parametrize("argv", [
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--weights", "1-2"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--weights", "1:x,2:1"],
    ["moments", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "4", "--initial", "foo"],
    ["yule", "--law", "1:0.5,2:0.5", "--q", "0.5", "--t", "0.5", "--initial", "foo"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--t", "nan"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--rel-tol", "nan"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--rel-tol", "-1"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--c", "nan"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--weights", "1:nan,2:1"],
    ["yule", "--law", "1:0.5,2:0.5", "--q", "0.5", "--t", "1", "--c", "nan", "--ell", "1"],
    ["rate", "--law-file", "/nonexistent/law.json"],
    ["rate", "--law-file", "."],
])
def test_bad_values_exit_one(argv):
    code, out, err = run_cli_err(argv)
    assert code == 1 and out == ""
    assert err.startswith("rgw: error:")


def test_deep_population_run_hits_cap_without_overflow():
    # m ** 2000 overflows a float; the run must still size its batches
    code, out, err = run_cli_err(["simulate", "--law", "1:0.5,2:0.5", "--q", "0.5",
                                  "--n", "2000", "--replicas", "10", "--cap", "100"])
    assert code == 1 and out == ""
    assert err.strip() == "rgw: error: all replicas hit the population cap"


@pytest.mark.parametrize("law, q", [
    ("6:0.3,7:0.4,8:0.3", "0.3"),
    ("0:0.05,6:0.3,7:0.35,8:0.3", "0.9"),
])
def test_spine_overflow_exits_one(law, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli_err(["simulate", "--engine", "spine", "--law", law,
                                      "--q", q, "--n", "400", "--replicas", "2000",
                                      "--seed", "1"])
    assert code == 1 and out == ""
    assert err.startswith("rgw: error:") and "overflow" in err


def test_inconsistent_rate_quadrature_exits_one(monkeypatch):
    class Broken:
        def __init__(self, params, a):
            self.i_total = 1e3  # m = q / i_total falls far below its lower bound

    monkeypatch.setattr(analytic, "AnalyticContext", Broken)
    code, out, err = run_cli_err(["rate", "--law", "1:0.5,2:0.5", "--q", "0.5"])
    assert code == 1 and out == ""
    assert err.startswith("rgw: error: rate quadrature inconsistent")


def test_law_file_source(tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"law": {"0": 0.5, "2": 0.5}, "q": 0.5}))
    code, out = run_cli(["rate", "--law-file", str(path)])
    assert code == 0
    assert abs(json.loads(out)["rate"]["m"] - 1.5) < 1e-10


def test_law_file_not_utf8_exits_one(tmp_path):
    path = tmp_path / "law.json"
    path.write_bytes(b'\xff\xfe{"law"')
    code, out, err = run_cli_err(["rate", "--law-file", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("rgw: error: invalid JSON")


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(["rate", "--law", "0:0.5,2:0.5", "--q", "0.5",
                         "--out", str(path)])
    assert code == 0 and out == ""
    assert abs(json.loads(path.read_text())["rate"]["m"] - 1.5) < 1e-10
