import json
import math
import subprocess
import sys
import time
import warnings

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


def test_disc_report_omits_exact_values_too_long_to_print():
    # the denominator of H_m - 1 + 1/m passes the int-to-str digit limit
    proc = run_cli("disc", "report", "--seq", "em(m=12000)")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["total_sum"]["exact"] == "1"
    norm = payload["l1_norm_modified"]
    assert "exact" not in norm and norm["verdict"] == "converged"
    assert norm["value"] > 0.0 and norm["err"] == 0.0


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


@pytest.mark.parametrize("family,param,fix", [("powcut", "N", "alpha=0.5"),
                                               ("logdecay", "start", "beta=2")])
def test_swept_integer_parameters_are_integers(family, param, fix):
    proc = run_cli("disc", "sweep", "--family", family, "--param", f"{param}=10:11",
                   "--fix", fix, "--emit", "json")
    assert proc.returncode == 0
    values = [row[param] for row in json.loads(proc.stdout)["rows"]]
    assert values == [10, 11] and all(type(v) is int for v in values)


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


@pytest.mark.parametrize("fn,x", [
    ("fe", "1e-320"), ("abs(fe)", "5e-324"), ("power_cutoff(alpha=0.99,T=1e300)", "5e-324"),
])
def test_cont_eval_past_the_float_range_prints_inf(capsys, fn, x):
    assert main(["cont", "eval", "--fn", fn, "--x", x]) == 0
    assert capsys.readouterr().out == "inf\n"


def test_cont_eval_exits_0_or_2_over_the_float_range(capsys):
    fns = ("theta", "f0", "fe", "abs(f0)", "abs(fe)", "power_tail(beta=1.5)",
           "log_tail(beta=1.5)", "box(lo=1,hi=2)", "power_cutoff(alpha=0.5,T=1)",
           "power_cutoff(alpha=0.99,T=1e300)")
    for fn in fns:
        for x in ("5e-324", "1e-320", "1e-300", "1", "1e300", "1.7e308", "inf"):
            code = main(["cont", "eval", "--fn", fn, "--x", x])  # raises nothing
            out, err = capsys.readouterr()
            if code == 0:
                assert err == "" and not math.isnan(float(out)), (fn, x)
            else:
                assert code == 2 and out == "" and err.count("\n") == 1, (fn, x)


@pytest.mark.parametrize("m", [10 ** 5 + 1, 10 ** 7])
def test_exact_sums_past_the_support_cap_exit_2_at_once(capsys, m):
    t0 = time.perf_counter()
    code = main(["disc", "report", "--seq", f"em(m={m})"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2  # returned, so no traceback
    out, err = capsys.readouterr()
    assert out == "" and "exceed the cap" in err


@pytest.mark.parametrize("command", [("verify",), ("cont", "report", "--fn", "theta")])
@pytest.mark.parametrize("flag", [("--rel-tol", "1e-8"), ("--abs-tol", "1e-12"),
                                  ("--max-depth", "40"), ("--seq-horizon", "1000"),
                                  ("--sharp-n", "1000")])
def test_precision_flags_do_not_exist(command, flag):
    # the precision is fixed; a flag that would set it is a usage error
    proc = run_cli(*command, *flag)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments" in proc.stderr
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
    ("sweep", "--family", "logdecay", "--param", "beta=1.5:2:0.5", "--fix", "start=3.5"),
    ("sweep", "--family", "em", "--m", "1.5:3.7"),
    ("sweep", "--family", "em", "--param", "m=1:2:0.5"),
])
def test_non_integral_integer_parameters_exit_2(argv):
    proc = run_cli("disc", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must be an integer" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("disc", "report", "--seq", "logdecay(beta=nan)"),
    ("disc", "report", "--seq", "power(alpha=nan)"),
    ("disc", "report", "--seq", "powcut(alpha=nan,N=10)"),
    ("disc", "report", "--seq", "power(alpha=inf)"),
    ("cont", "report", "--fn", "power_tail(beta=nan)"),
    ("cont", "report", "--fn", "power_tail(beta=inf)"),
    ("cont", "report", "--fn", "log_tail(beta=inf)"),
])
def test_non_finite_family_parameters_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must be finite" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("cont", "sweep", "--family", "power_tail", "--m", "1:2"),
    ("cont", "sweep", "--family", "power_tail", "--param", "foo=1:2"),
    ("disc", "sweep", "--family", "em", "--param", "foo=1:2"),
    ("cont", "sweep", "--family", "box", "--param", "lo=1:2"),
])
def test_sweep_parameter_names_are_checked_before_any_row(capsys, argv):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "configuration error" in err and "expects parameters" in err


@pytest.mark.parametrize("name,content,where", [
    ("missing.txt", None, ""), ("dir", None, ""),
    ("binary.txt", b"\xff\xfe\n", ""), ("zero.txt", b"1\n1/0\n", ":2:"),
    # past the int-string limit of Python, and a sum past the float range
    pytest.param("long.txt", b"1\n" + b"1" * 4301 + b"\n", ":2:", id="long.txt"),
    pytest.param("huge.txt", b"1" + b"0" * 400, "", id="huge.txt"),
])
def test_bad_sequence_files_exit_2(tmp_path, capsys, name, content, where):
    path = tmp_path / name
    if name == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert main(["disc", "report", "--seq-file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{path}{where}" in err  # names the path, and the line


@pytest.mark.parametrize("fn", [
    "power_tail(beta=1075)", "log_tail(beta=1e308)",
    # a breakpoint whose reciprocal overflows: the origin is walked in u = 1/t
    "power_cutoff(alpha=0,T=1e-310)", "power_cutoff(alpha=0.5,T=1e-310)",
    "box(lo=1e-310,hi=1e-309)", "box(lo=1e-320,hi=1)",
    # functionals past the float range: an infinite value, or a walk that overflows
    "box(lo=1,hi=1e307)", "box(lo=1,hi=1e308)", "power_cutoff(alpha=0,T=1e308)",
])
def test_unrepresentable_envelopes_exit_2(capsys, fn):
    assert main(["cont", "report", "--fn", fn]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("fn", ["box(lo=1e200,hi=1e250)", "box(lo=1e300,hi=1e305)"])
def test_far_range_reports_are_strict_json(capsys, fn):
    # T(t) t overflows long before T(t) does; the I2 density must not carry
    # that overflow into an Infinity value or a NaN error estimate
    assert main(["cont", "report", "--fn", fn]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert payload["i2"]["verdict"] == "converged"


def test_disc_hardy_ratio_refuses_a_power_sum_past_the_float_range(tmp_path, capsys):
    # (10**300)**2 is past the float range: refused, not printed as NaN, and
    # with no overflow warning on the way
    path = tmp_path / "big.txt"
    path.write_text("1" + "0" * 300 + "\n" + "0\n" * 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["disc", "hardy-ratio", "--p", "2", "--n", "300",
                     "--seq-file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: a sum of p-th powers, p=2, is past the float range\n"


@pytest.mark.parametrize("p,n", [("2", "-5"), ("inf", "100")])
def test_disc_hardy_ratio_refuses_bad_n_and_p(p, n):
    proc = run_cli("disc", "hardy-ratio", "--seq", "em(m=1)", "--p", p, "--n", n)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: the ratio needs")


def test_logdecay_start_below_3_is_refused(capsys):
    assert main(["disc", "report", "--seq", "logdecay(beta=2.5,start=1)"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "start >= 3" in err
    argv = ["disc", "sweep", "--family", "logdecay", "--param", "start=1:3",
            "--fix", "beta=2.5", "--emit", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [("error" in row) for row in rows] == [True, True, False]


def test_unrepresentable_envelope_is_an_error_cell_in_a_sweep(capsys):
    argv = ["cont", "sweep", "--family", "power_tail", "--param", "beta=1000:1100:50",
            "--emit", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [("error" in row) for row in rows] == [False, False, True]


@pytest.mark.parametrize("argv", [("verify", "--claims", "disc.cesaro*"),
                                  ("cont", "report", "--fn", "theta")])
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_out_into_a_missing_directory_exits_2_before_any_work(tmp_path, capsys, argv, target):
    t0 = time.perf_counter()
    assert main([*argv, "--out", str(tmp_path / target)]) == 2
    assert time.perf_counter() - t0 < 0.1
    out, err = capsys.readouterr()
    assert out == "" and "is not a file in an existing directory" in err
