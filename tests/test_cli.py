import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rgw import analytic, cli, ode, sim, verify
from rgw.errors import DomainError


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


def test_asymptotics_where_the_flow_route_does_not_settle():
    # beta = 50.5: gamma_constant is unsettled at T = 512, the closed form is not
    code, out = run_cli(["asymptotics", "--law", "1:0.5,2:0.5", "--q", "0.01"])
    assert code == 0
    doc = json.loads(out)["asymptotics"]
    assert doc["gamma"] is None
    assert all(math.isfinite(v) for v in doc["conditional_limits"].values())
    assert math.isfinite(doc["gamma_closed_form"])


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


def test_verify_json_reports_a_numpy_failure(monkeypatch):
    # c08 and c09 compare numpy floats, so a failing gate is np.False_
    def failing(seed):
        return verify.CheckResult("c01", "fake", np.False_, "detail")

    monkeypatch.setitem(verify.SUITES, "rates", (failing,))
    code, out, err = run_cli_err(["verify", "--suite", "rates", "--seed", "42",
                                  "--format", "json"])
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["passed"] is False and doc["results"][0]["passed"] is False
    assert '"passed": false' in out


def test_mc_check_with_zero_spread_is_an_infinite_deviation(monkeypatch):
    # no spine lineage survives: the mean is 0 with zero spread, an infinite
    # miss, and the check says so without a division warning
    monkeypatch.setattr(sim, "simulate_spine",
                        lambda params, n, config: sim.Estimate(0.0, 0.0, config.replicas, 0.0))
    real = sim.simulate_rgw
    monkeypatch.setattr(sim, "simulate_rgw", lambda params, n, config: real(
        params, n, sim.SimConfig(seed=config.seed, replicas=200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = verify.check_mc_consistency(702)
    assert res.passed is False
    assert res.detail == "worst_deviation=inf sigma over 6 configurations"


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
    ["rate", "--law", "1:0.5,2:0.5", "--q", "0.5", "--out", "/nonexistent/x"],
    ["asymptotics", "--law", "1:0.5,2:0.5", "--q", "0.5", "--format", "csv"],
    ["yule", "--law", "1:0.5,2:0.5", "--q", "0.5", "--t", "1", "--c", "0.3", "--ell", "1",
     "--format", "csv"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--weights", "1:1,1:2,2:1"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--weights", "1:1,2:1", "--c", "2"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--weights", "1:1,2:1", "--t", "800"],
    ["verify", "--suite", "rates", "--seed", "-1"],
    ["asymptotics", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "0"],
    ["rate", "--law", "1:0.5,2:0.5", "--q", "1e-20"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5", "--rel-tol", "1e-20"],
    ["simulate", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "5", "--replicas", "100",
     "--seed", "-1"],
    ["simulate", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "5", "--replicas", "100",
     "--seed", "18446744073709551616"],
    ["yule", "--law", "1:0.5,2:0.5", "--q", "0.5", "--t", "1", "--c", "0.3", "--ell", "2",
     "--initial", "1"],
    ["simulate", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "5", "--engine", "spine",
     "--cap", "5"],
    ["asymptotics", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "4"],
    ["asymptotics", "--law", "0:0.5,2:0.5", "--q", "0.5", "--ell", "0", "--n", "16"],
    ["moments", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "4000000"],
    ["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.98", "--format", "csv", "--t", "1e300"],
    ["ode-check", "--law", "0:0.5,2:0.5", "--q", "0.999999", "--format", "csv", "--c", "1e300",
     "--rel-tol", "1e-12"],
    ["rate", "--law", "1:0.5,2:0.5", "--q", "1e-30"],
    ["asymptotics", "--law", "4:0.999,5:0.001", "--q", "5e-6"],
    ["yule", "--law", "1:0.5,2:0.5", "--q", "0.5", "--t", "3", "--c", "1e300", "--ell", "2",
     "--replicas", "50", "--seed", "1"],
    ["yule", "--law", "0:0.5,2:0.5", "--q", "0.5", "--t", "3", "--c", "1e200", "--ell", "2",
     "--replicas", "50", "--seed", "1"],
    ["yule", "--law", "1:0.5,2:0.5", "--q", "0.5", "--t", "0.5", "--c", "0.6", "--ell", "5",
     "--replicas", "100", "--seed", "1"],
])
def test_bad_values_exit_one(argv):
    code, out, err = run_cli_err(argv)
    assert code == 1 and out == ""
    assert err.startswith("rgw: error:")
    assert err.count("rgw: error:") == 1


def test_ode_check_names_the_users_time(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrate_M must not be called")

    monkeypatch.setattr(ode, "integrate_M", never)
    code, out, err = run_cli_err(["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5",
                                  "--weights", "1:1,2:1", "--t", "800"])
    assert code == 1 and out == ""
    assert err.startswith("rgw: error: t=800.0 is too large")


def test_ode_check_start_guess_does_not_overflow():
    # E = 499.5 with a_max = 6: a_max**E overflows a float
    code, out, err = run_cli_err(["ode-check", "--law", "1:0.5,6:0.5", "--q", "0.001",
                                  "--weights", "1:1,6:6"])
    assert code == 0 and err == ""
    doc = json.loads(out)["ode"]
    assert 0.0 <= doc["sup_rel_err_vs_closed_form"] < 1e-6
    assert math.isfinite(doc["explosion_time"])


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


@pytest.mark.parametrize("law", [[0.5, 0.5], "0:0.5,2:0.5"])
def test_law_file_law_not_a_map_exits_one(law, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"law": law, "q": 0.5}))
    code, out, err = run_cli_err(["rate", "--law-file", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("rgw: error:")


@pytest.mark.parametrize("law", [
    {"1": 0.3, "01": 0.5, "2": 0.5}, {}, {"2000000": 1.0}, {"x": 1.0}, {"1": "abc"},
    {"1": None},
])
def test_law_file_bad_map_exits_one(law, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"law": law, "q": 0.5}))
    code, out, err = run_cli_err(["rate", "--law-file", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("rgw: error:")


def test_population_runs_where_the_rate_quadrature_fails():
    # malthusian_rate raises NotConverged at this q; batches are sized from
    # the measured generation widths, and neither engine needs the rate
    argv = ["simulate", "--law", "1:0.5,2:0.5", "--q", "1e-20", "--n", "5", "--replicas", "100"]
    code, out, err = run_cli_err(argv)
    assert code == 0 and err == ""
    est = json.loads(out)["estimate"]
    assert est["replicas_used"] == 100 and est["capped_fraction"] == 0.0


def test_unknown_verify_suite_is_a_domain_error():
    with pytest.raises(DomainError):
        verify.run_suite("nonsense")


def test_verify_seed_past_the_offset_range_exits_one():
    # c12 would seed its engine at 2**64 + 996, a seed the user never typed
    code, out, err = run_cli_err(["verify", "--suite", "montecarlo",
                                  "--seed", "18446744073709551615"])
    assert code == 1 and out == ""
    assert err.startswith("rgw: error:")
    assert "18446744073709551615" in err and str(verify.MAX_SEED) in err
    with pytest.raises(DomainError):
        verify.run_suite("montecarlo", verify.MAX_SEED + 1)
    # a float or a bool seed is no integer seed, and fails before any check runs
    for seed in (1.5, True):
        with pytest.raises(DomainError, match="integer"):
            verify.run_suite("all", seed)


def test_verify_accepts_the_largest_seed(monkeypatch):
    seen = []

    def stub(seed):
        seen.append(seed)
        return verify.CheckResult("c00", "stub", True, "")

    monkeypatch.setattr(verify, "SUITES", {name: (stub,) for name in verify.SUITE_ORDER})
    code, out = run_cli(["verify", "--seed", str(verify.MAX_SEED)])
    assert code == 0 and seen == [verify.MAX_SEED] * len(verify.SUITE_ORDER)
    assert f"seed={verify.MAX_SEED}" in out


def test_verify_timings_file(tmp_path):
    path = tmp_path / "timings.json"
    code, out = run_cli(["verify", "--suite", "rates", "--seed", "42",
                         "--timings", str(path)])
    _, plain = run_cli(["verify", "--suite", "rates", "--seed", "42"])
    assert code == 0 and out == plain
    timings = json.loads(path.read_text())
    assert list(timings) == ["c01", "c02", "c03", "c04", "c05"]
    assert all(isinstance(s, float) and s >= 0.0 for s in timings.values())


_SCIPY_PROBE = """
import contextlib, io, json, sys
import rgw, rgw.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

law = ["--law", "1:0.5,2:0.5", "--q", "0.5"]
seen, codes = {"import": scipy_modules()}, []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(rgw.cli.main(["simulate", "--engine", "spine", *law, "--n", "3",
                               "--replicas", "20"]))
    codes.append(rgw.cli.main(["yule", *law, "--t", "0.3", "--replicas", "20"]))
    codes.append(rgw.cli.main(["simulate", *law, "--n", "3", "--replicas", "20"]))
    seen["monte_carlo"] = scipy_modules()
    codes.append(rgw.cli.main(["rate", *law]))
    seen["rate"] = scipy_modules()
    codes.append(rgw.cli.main(["moments", *law, "--n", "20"]))
    seen["moments"] = scipy_modules()
    codes.append(rgw.cli.main(["asymptotics", *law, "--n", "16"]))
    seen["asymptotics"] = scipy_modules()
print(json.dumps({"codes": codes, **seen}))
"""


def test_only_the_callers_of_scipy_load_it():
    # a fresh interpreter: importing rgw and running the Monte Carlo
    # subcommands or the rate subcommands loads no scipy module
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0, 0, 0, 0]
    assert seen["import"] == [] and seen["monte_carlo"] == []
    assert seen["rate"] == [] and seen["moments"] == [] and seen["asymptotics"] == []


def test_moments_past_float_range_are_inf_without_warnings():
    # m is about 300, so E[Z(150)] lies past the float range while the scaled column does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli_err(["moments", "--law", "1:0.5,400:0.5", "--q", "0.5",
                                      "--n", "150"])
    assert (code, err) == (0, "")
    last = json.loads(out)["moments"][-1]
    assert last["EZ"] == "inf" and math.isfinite(last["scaled"])


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(["rate", "--law", "0:0.5,2:0.5", "--q", "0.5",
                         "--out", str(path)])
    assert code == 0 and out == ""
    assert abs(json.loads(path.read_text())["rate"]["m"] - 1.5) < 1e-10


# ---------------------------------------------------------------------------
# output tables
# ---------------------------------------------------------------------------

def test_moment_table_csv(mixed_params):
    code, out = run_cli(["moments", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "3",
                         "--format", "csv"])
    assert code == 0
    lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert lines[0] == "n,EZ,scaled"
    assert len(lines) == 5
    n, ez, sc = lines[2].split(",")
    scale = analytic.malthusian_rate(mixed_params).m
    assert n == "1" and float(ez) == pytest.approx(1.5, rel=1e-10)
    assert float(sc) == pytest.approx(1.5 / scale, rel=1e-10)


def test_solution_csv():
    code, out = run_cli(["ode-check", "--law", "1:0.5,2:0.5", "--q", "0.5",
                         "--weights", "1:1,2:2", "--t", "0.2", "--format", "csv"])
    assert code == 0
    lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert lines[0] == "t,M_1,M_2"
    assert lines[1] == "0,1,2"
    assert len(lines) == 1 + 33


def test_rgw_csv():
    code, out = run_cli(["simulate", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "3",
                         "--replicas", "4", "--seed", "1", "--format", "csv"])
    assert code == 0
    lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert lines[0] == "replica,generation,Z"
    assert lines[1] == "0,0,1"
    assert len(lines) == 1 + 4 * 4


def test_estimate_json_shape():
    code, out = run_cli(["simulate", "--law", "1:0.5,2:0.5", "--q", "0.5", "--n", "3",
                         "--engine", "spine", "--replicas", "100", "--seed", "1"])
    assert code == 0
    d = json.loads(out)["estimate"]
    assert set(d) == {"mean", "std_error", "replicas_used", "capped_fraction", "seed"}
    assert d["seed"] == 1


# Exact stdout of small runs, recorded before the tables moved into cli: the
# config lines, 12-digit cells, "inf" for a non-explosive rate and a capped
# replica whose rows stop at its cap generation (replicas 1 and 5 of the
# capped simulate run).  The yule entries were recorded again when Yule
# births moved to the shared step rule, which draws other variates.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())
GOLDEN_IDS = [f"{i}-{case['argv'][0]}" for i, case in enumerate(GOLDEN)]


@pytest.mark.parametrize("case", GOLDEN, ids=GOLDEN_IDS)
def test_output_matches_golden(case):
    code, out, err = run_cli_err(case["argv"])
    assert (code, err) == (0, "")
    assert out == case["stdout"]


@pytest.mark.parametrize("argv", [case["argv"] for case in GOLDEN], ids=GOLDEN_IDS)
def test_out_file_matches_stdout(argv, tmp_path):
    _, expected = run_cli(argv)
    path = tmp_path / "out"
    code, out = run_cli([*argv, "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_bytes() == expected.encode("utf-8")
