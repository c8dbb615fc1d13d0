import json
import subprocess
import sys

import pytest

from hardy.cli import main


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "hardy", *argv],
                          capture_output=True, text=True)


def test_cont_eval():
    proc = run_cli("cont", "eval", "--fn", "f0", "--x", "2.5")
    assert proc.returncode == 0
    assert float(proc.stdout) == 0.0  # between the two bumps
    proc = run_cli("cont", "eval", "--fn", "f0", "--x", "1.5")
    assert float(proc.stdout) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_cont_eval_family_syntax():
    proc = run_cli("cont", "eval", "--fn", "power_tail(beta=2)", "--x", "1")
    assert proc.returncode == 0
    assert float(proc.stdout) == 0.25


def test_cont_report_schema(tmp_path):
    out = tmp_path / "rep.json"
    proc = run_cli("cont", "report", "--fn", "theta", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["function"] == "theta"
    for key in ("total_integral", "l1_norm", "weighted_norm",
                "l1_norm_modified", "i1", "i2", "equivalence_ratio",
                "tolerances"):
        assert key in payload
    assert payload["weighted_norm"]["value"] == pytest.approx(2.0, abs=1e-9)


def test_disc_report_schema():
    proc = run_cli("disc", "report", "--seq", "lambda")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["total_sum"]["exact"] == "1"
    assert payload["l1_norm_modified"]["value"] == 0.0


def test_disc_hardy_ratio():
    proc = run_cli("disc", "hardy-ratio", "--seq", "powcut(alpha=0.5,N=100000)",
                   "--p", "2", "--n", "100000")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["under_bound"] is True
    assert payload["bound"] == 4.0


def test_cont_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("cont", "sweep", "--family", "power_tail",
                   "--param", "beta=1.5:2.5:0.5", "--emit", "csv",
                   "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    for col in ("beta", "l1_norm", "weighted_norm", "l1_norm_modified",
                "i1", "i2", "equivalence_ratio"):
        assert col in header
    assert len(lines) == 5  # header + 3 rows + footer
    assert lines[-1].startswith("# ratio_min=")


def test_disc_sweep_m_shortcut():
    proc = run_cli("disc", "sweep", "--family", "em", "--m", "1:5:2",
                   "--emit", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert [row["m"] for row in payload["rows"]] == [1, 3, 5]


def test_top_level_sweep_dispatch():
    proc = run_cli("sweep", "--family", "em", "--m", "1:2", "--emit", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["family"] == "em"


def test_unknown_function_exits_2():
    proc = run_cli("cont", "eval", "--fn", "nosuch", "--x", "1")
    assert proc.returncode == 2


def test_bad_usage_exits_2():
    proc = run_cli("cont", "eval", "--fn", "theta")
    assert proc.returncode == 2


def test_corrupt_config_exits_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{ not json")
    proc = run_cli("verify", "--config", str(bad))
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"relative_tolerance": 1e-8}')
    proc = run_cli("verify", "--config", str(bad))
    assert proc.returncode == 2


def test_verify_filtered_runs_green(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"claims": "disc.cesaro.*", "seed": 7}')
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["seed"] == 7
    assert payload["summary"]["fail"] == 0
    assert [c["claim_id"] for c in payload["claims"]] == ["disc.cesaro.kernel"]


def test_verify_claim_filter_flag(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("verify", "--claims", "disc.harmonic.*", "--format", "csv",
                   "--out", str(out))
    assert proc.returncode == 0
    assert "disc.harmonic.asymptotic,PASS" in out.read_text()


def test_main_callable_in_process(capsys):
    code = main(["cont", "eval", "--fn", "theta", "--x", "1"])
    assert code == 0
    assert float(capsys.readouterr().out) == 0.25


@pytest.mark.parametrize("flags", [
    ("--max-depth", "5"), ("--rel-tol", "nan"), ("--abs-tol", "inf"),
    ("--sharp-n", str(10 ** 7 + 1)), ("--seq-horizon", str(10 ** 7 + 1)),
])
def test_bad_settings_exit_2_before_any_claim(flags):
    proc = run_cli("verify", *flags)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr
    assert proc.stdout == ""  # no claim line


@pytest.mark.parametrize("text", ['{"max_depth": 5}', '{"rel_tol": NaN}',
                                  '{"abs_tol": Infinity}', '{"rel_tol": "1e-8"}',
                                  '{"max_depth": 60.5}', '{"seed": true}'])
def test_bad_config_file_settings_exit_2_before_any_claim(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    proc = run_cli("verify", "--config", str(cfg))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("disc", "report", "--seq", f"powcut(alpha=0.5,N={10 ** 7 + 1})"),
    ("disc", "hardy-ratio", "--seq", "lambda", "--p", "2", "--n", str(10 ** 7 + 1)),
    ("disc", "report", "--seq", "em(m=1000000000)"),
])
def test_oversized_float_arrays_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "exceed the cap" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--m", "1:nan"), ("--m", "nan:3"), ("--m", "1:3:nan"), ("--m", "1:inf"),
    ("--m", "1:3:1e-300"), ("--m", "1:1000000000"),
    ("--param", "alpha=0:1:0.5", "--fix", "foo"),
    ("--param", "alpha=0:1:0.5", "--fix", "N=abc"),
    ("--param", "alpha=0:1:0.5", "--fix", "N=nan"),
])
def test_bad_sweep_grid_or_fix_exits_2(argv):
    family = "em" if argv[0] == "--m" else "powcut"
    proc = run_cli("disc", "sweep", "--family", family, *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("report", "--seq", "em(m=2.5)"),
    ("report", "--seq", "logdecay(beta=2.5,start=3.7)"),
    ("report", "--seq", "powcut(alpha=0.5,N=2.5)"),
    ("sweep", "--family", "powcut", "--param", "alpha=0:0.5:0.5", "--fix", "N=2.5"),
    ("sweep", "--family", "em", "--m", "1.5:3.7"),
    ("sweep", "--family", "em", "--param", "m=1:2:0.5"),
])
def test_non_integral_integer_parameters_exit_2(argv):
    proc = run_cli("disc", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must be an integer" in proc.stderr
    assert proc.stdout == ""
