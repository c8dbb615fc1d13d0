import ast
import importlib.util
import inspect
import json
import multiprocessing
import os
import signal
from importlib import resources
from pathlib import Path

import pytest

from hardy import cont_ops, funcspace, harness, quad, seq_ops
from hardy.cli import main

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the claim pool forks its workers")

# the closed, documented enumeration of claim ids; a new claim must be added
# here deliberately, a dropped one is a regression
EXPECTED_CLAIM_IDS = [
    "cont.average.oracle_f0",
    "cont.average.oracle_fe",
    "cont.characterization.divergent",
    "cont.characterization.finite",
    "cont.equivalence.corrected",
    "cont.kernel.identities",
    "cont.mean_zero.necessity",
    "cont.modified.values",
    "cont.pnorm.sharp_bound",
    "cont.split.order_exchange",
    "disc.cesaro.kernel",
    "disc.characterization.divergent",
    "disc.characterization.finite",
    "disc.equivalence.corrected",
    "disc.harmonic.asymptotic",
    "disc.mean_zero.necessity",
    "disc.pnorm.sharp_bound",
    "disc.split.exact_identities",
    "disc.weight.values",
]


def test_claim_enumeration_is_closed_and_total():
    assert harness.claim_ids() == EXPECTED_CLAIM_IDS
    # both operator sides and every claim family are represented
    prefixes = {cid.split(".")[0] for cid in EXPECTED_CLAIM_IDS}
    assert prefixes == {"cont", "disc"}
    for needle in ("characterization", "mean_zero", "pnorm", "equivalence",
                   "split"):
        assert any(needle in cid for cid in EXPECTED_CLAIM_IDS), needle


def test_config_validation():
    with pytest.raises(harness.ConfigError):
        harness.SuiteConfig(fmt="xml")


def test_config_records_the_fixed_precision():
    # meta.config names the constants the functionals actually compute at
    conf = harness.SuiteConfig().to_dict()
    assert conf == {"rel_tol": quad.DEFAULT_CONFIG.rel_tol,
                    "abs_tol": quad.DEFAULT_CONFIG.abs_tol,
                    "max_depth": quad.DEFAULT_CONFIG.max_depth,
                    "seq_horizon": seq_ops.SEQ_HORIZON, "sharp_n": 10 ** 6,
                    "claims": "*", "seed": 20240801}
    assert (conf["rel_tol"], conf["abs_tol"], conf["max_depth"]) == (1e-10, 1e-14, 60)
    for fn in (seq_ops.l1_norm_mod, seq_ops.disc_equivalence_ratio, seq_ops.build_report):
        assert inspect.signature(fn).parameters["horizon"].default == conf["seq_horizon"]
    for name in ("rel_tol", "abs_tol", "max_depth", "seq_horizon", "sharp_n"):
        with pytest.raises(TypeError):
            harness.SuiteConfig(**{name: conf[name]})


def test_filter_matches_nothing_is_an_error():
    with pytest.raises(harness.ConfigError):
        harness.run_suite(harness.SuiteConfig(claims="nope.*"))


def test_run_filtered_subset():
    cfg = harness.SuiteConfig(claims="cont.average.*")
    records = harness.run_suite(cfg)
    assert [r.claim_id for r in records] == ["cont.average.oracle_f0",
                                             "cont.average.oracle_fe"]
    assert all(r.verdict == harness.PASS for r in records)
    assert harness.exit_code(records) == 0


def test_divergence_claims_get_their_own_verdict():
    cfg = harness.SuiteConfig(claims="*.characterization.divergent")
    records = harness.run_suite(cfg)
    assert len(records) == 2
    assert all(r.verdict == harness.DIVERGENT_OK for r in records)
    assert all(r.passed for r in records)


def test_verdicts_of_failed_and_crashed_runners(monkeypatch):
    def failing(cfg):
        return [harness._chk("value", False, 0.5, "1", "test")]

    def unresolved(cfg):
        return [harness._chk("verdict", False, "inconclusive", "converged", "test")]

    def crashing(cfg):
        raise harness.seq_ops.SequenceError("lambda: total sum is inconclusive")

    monkeypatch.setattr(harness, "_CLAIMS", {
        "t.fail": ("fails", failing, False),
        "t.inconclusive": ("does not resolve", unresolved, False),
        "t.crash": ("crashes", crashing, True),
    })
    records = harness.run_suite(harness.SuiteConfig(claims="t.*"))
    verdicts = {r.claim_id: r.verdict for r in records}
    assert verdicts == {"t.crash": harness.FAIL, "t.fail": harness.FAIL,
                        "t.inconclusive": harness.INCONCLUSIVE}
    crash = records[0].checks
    assert [c.name for c in crash] == ["runner completed"]
    assert "total sum is inconclusive" in crash[0].computed
    assert harness.exit_code(records) == 1


def test_report_determinism_in_process():
    cfg = harness.SuiteConfig(claims="disc.cesaro.*")
    r1 = harness.render_report(harness.run_suite(cfg), cfg, timestamp="T")
    r2 = harness.render_report(harness.run_suite(cfg), cfg, timestamp="T")
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["schema_version"] == harness.SCHEMA_VERSION
    assert payload["meta"]["seed"] == cfg.seed


@needs_fork
def test_pool_report_is_byte_identical_to_the_in_process_one(monkeypatch):
    cfg = harness.SuiteConfig()
    reports = {}
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        records = harness.run_suite(cfg)
        assert multiprocessing.active_children() == []
        assert [r.claim_id for r in records] == harness.claim_ids()
        reports[cpus] = harness.render_report(records, cfg, timestamp="T")
    assert reports[1] == reports[2]
    assert json.loads(reports[2])["summary"]["fail"] == 0


@needs_fork
def test_verdicts_do_not_depend_on_the_harmonic_memo(monkeypatch):
    # the forked workers inherit the parent's memo: cleared, then warmed
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = harness.SuiteConfig(claims="disc.[es]*")
    seq_ops._harmonic_node.cache_clear()
    seq_ops._harmonic_prefixes.clear()
    cold = [r.to_dict() for r in harness.run_suite(cfg)]
    seq_ops.harmonic(5000)  # a prefix, built from the blocks below it
    assert seq_ops._harmonic_node.cache_info().currsize > 0
    assert len(seq_ops._harmonic_prefixes) == 1
    warm = [r.to_dict() for r in harness.run_suite(cfg)]
    assert [r["claim_id"] for r in cold] == ["disc.equivalence.corrected",
                                             "disc.split.exact_identities"]
    assert all(r["verdict"] == harness.PASS for r in cold)
    assert warm == cold


@needs_fork
def test_verdicts_do_not_depend_on_the_cumulative_cache(monkeypatch):
    # the forked workers inherit the parent's cache: cleared, then warmed
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = harness.SuiteConfig(claims="cont.*")
    cont_ops._cached.cache_clear()
    cold = [r.to_dict() for r in harness.run_suite(cfg)]
    cont_ops.build_report(funcspace.catalog("f0"))
    assert cont_ops._cached.cache_info().currsize == 2  # f0 and |f0|
    warm = [r.to_dict() for r in harness.run_suite(cfg)]
    assert [r["claim_id"] for r in cold] == [c for c in harness.claim_ids()
                                             if c.startswith("cont.")]
    assert all(r["verdict"] in (harness.PASS, harness.DIVERGENT_OK) for r in cold)
    assert warm == cold


def _replace_a_cont_runner(monkeypatch, cpus, runner):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    desc, _, divergence = harness._CLAIMS["cont.kernel.identities"]
    monkeypatch.setitem(harness._CLAIMS, "cont.kernel.identities", (desc, runner, divergence))


@needs_fork
def test_a_dead_worker_fails_its_claim_without_a_traceback(monkeypatch, capsys):
    _replace_a_cont_runner(monkeypatch, 2, lambda cfg: os._exit(3))
    records = harness.run_suite(harness.SuiteConfig(claims="cont.*"))
    assert multiprocessing.active_children() == []
    assert [r.claim_id for r in records] == [c for c in harness.claim_ids()
                                             if c.startswith("cont.")]
    dead = {r.claim_id: r for r in records}["cont.kernel.identities"]
    assert dead.verdict == harness.FAIL
    assert [c.name for c in dead.checks] == ["runner completed"]
    assert dead.checks[0].computed.startswith("BrokenProcessPool(")
    assert main(["verify", "--claims", "cont.*"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert multiprocessing.active_children() == []


@needs_fork
def test_workers_leave_interrupts_to_the_caller(monkeypatch):
    def handler(cfg):
        return [harness._chk("SIGINT ignored", signal.getsignal(signal.SIGINT)
                             is signal.SIG_IGN, "", "", "test")]

    _replace_a_cont_runner(monkeypatch, 2, handler)
    records = harness.run_suite(harness.SuiteConfig(claims="cont.*"))
    assert all(r.passed for r in records)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_an_interrupt_is_one_clean_exit(monkeypatch, capsys, cpus):
    # the runner interrupts the process that called run_suite, in a worker
    # or in-process, as Ctrl-C would
    caller = os.getpid()
    _replace_a_cont_runner(monkeypatch, cpus,
                           lambda cfg: os.kill(caller, signal.SIGINT) or [])
    assert main(["verify", "--claims", "cont.*"]) == 130
    out, err = capsys.readouterr()
    assert err == "interrupted\n"
    assert "Traceback" not in out
    assert multiprocessing.active_children() == []


def test_report_csv_format():
    cfg = harness.SuiteConfig(claims="disc.cesaro.*", fmt="csv")
    text = harness.render_report(harness.run_suite(cfg), cfg, timestamp="T")
    lines = text.strip().splitlines()
    assert lines[0] == "claim_id,verdict,checks,failed,description"
    assert lines[1].startswith("disc.cesaro.kernel,PASS")


def test_parse_grid():
    assert harness.parse_grid("1:5") == [1.0, 2.0, 3.0, 4.0, 5.0]
    vals = harness.parse_grid("1.1:1.4:0.1")
    assert vals == pytest.approx([1.1, 1.2, 1.3, 1.4])
    with pytest.raises(harness.ConfigError):
        harness.parse_grid("5:1")
    with pytest.raises(harness.ConfigError):
        harness.parse_grid("1:2:0")
    with pytest.raises(harness.ConfigError):
        harness.parse_grid("1")
    # non-finite entries, and grids above the term cap, fail before any list
    # is built
    for text in ("1:nan", "nan:3", "1:3:nan", "1:inf", "1:3:1e-300", "1:1000000000"):
        with pytest.raises(harness.ConfigError):
            harness.parse_grid(text)


def test_sweep_cont_rows_and_footer():
    cfg = harness.SuiteConfig()
    rows, footer = harness.sweep_cont("power_tail", "beta", [1.5, 2.0, 3.0], cfg)
    assert len(rows) == 3
    for row in rows:
        assert row["weighted_verdict"] == "converged"
        assert row["equivalence_ratio"] is not None
    assert footer["ratio_min"] <= footer["ratio_max"]
    # beta = 2 is the annihilated kernel: ratio exactly 1/2 up to quadrature
    mid = [r for r in rows if r["beta"] == 2.0][0]
    assert mid["equivalence_ratio"] == pytest.approx(0.5, abs=1e-9)


def test_sweep_cont_divergent_rows_carry_verdicts():
    cfg = harness.SuiteConfig()
    rows, footer = harness.sweep_cont("log_tail", "beta", [1.5], cfg)
    assert rows[0]["weighted_verdict"] == "divergent"
    assert rows[0]["equivalence_ratio"] is None
    assert footer["ratio_min"] is None


@pytest.mark.parametrize("family,param,value,fixed", [
    ("power_cutoff", "alpha", 0.25, {"T": 0.5}),
    ("log_tail", "beta", 2.5, {}),  # converges through the closed power-log tail
])
def test_sweep_row_is_a_view_of_its_report(family, param, value, fixed):
    rows, _ = harness.sweep_cont(family, param, [value], harness.SuiteConfig(), fixed)
    rep = cont_ops.build_report(funcspace.catalog(family, **fixed, **{param: value})).to_dict()

    def cell(key):
        return rep[key]["value"] if rep[key]["verdict"] == "converged" else None

    assert rows[0] == {
        "family": family, param: value, "l1_norm": rep["l1_norm"]["value"],
        "weighted_norm": cell("weighted_norm"),
        "weighted_verdict": rep["weighted_norm"]["verdict"],
        "l1_norm_modified": cell("l1_norm_modified"),
        "modified_verdict": rep["l1_norm_modified"]["verdict"],
        "i1": cell("i1"), "i2": cell("i2"),
        "equivalence_ratio": rep["equivalence_ratio"],
    }


def test_sweep_disc_rows():
    cfg = harness.SuiteConfig()
    rows, footer = harness.sweep_disc("em", "m", [1, 10, 100], cfg)
    assert [row["m"] for row in rows] == [1, 10, 100]
    assert footer["ratio_max"] == pytest.approx(1.5743533488445738, rel=1e-12)
    ratios = [row["equivalence_ratio"] for row in rows]
    assert ratios == sorted(ratios, reverse=True)


@pytest.mark.parametrize("family,param,values,fixed", [
    ("em", "m", [1, 2, 129, 4000], {}),
    ("power", "alpha", [1.5, 2.0, 3.0], {}),
    ("powcut", "alpha", [0.0, 0.5, 1.0], {"N": 1000}),
    ("logdecay", "beta", [1.5, 2.5], {}),
])
def test_sweep_disc_row_is_a_view_of_its_report(monkeypatch, family, param, values, fixed):
    def cell(res):
        return res.value if res.verdict == "converged" else None

    expected = []
    for value in values:
        params = {**seq_ops.SEQ_DEFAULTS.get(family, {}), **fixed, param: value}
        rep = seq_ops.build_report(seq_ops.catalog_seq(family, **params))
        expected.append({
            "family": family, param: value, "total_sum": cell(rep.total),
            "log_weight": cell(rep.log_weight), "weight_verdict": rep.log_weight.verdict,
            "l1_norm_modified": cell(rep.l1_norm_mod),
            "norm_verdict": rep.l1_norm_mod.verdict,
            "equivalence_ratio": rep.equivalence_ratio,
        })

    def unread(seq):
        raise AssertionError(f"a sweep row summed J1 or J2 of {seq.name}")

    monkeypatch.setattr(seq_ops, "j1_sum", unread)
    monkeypatch.setattr(seq_ops, "j2_sum", unread)
    rows, _ = harness.sweep_disc(family, param, values, harness.SuiteConfig(), fixed)
    assert rows == expected


def test_sweep_unknown_family():
    cfg = harness.SuiteConfig()
    with pytest.raises(harness.ConfigError):
        harness.sweep_cont("nope", "x", [1.0], cfg)
    with pytest.raises(harness.ConfigError):
        harness.sweep_disc("nope", "x", [1], cfg)


def test_sweep_bad_point_recorded_not_raised():
    cfg = harness.SuiteConfig()
    rows, _ = harness.sweep_cont("power_tail", "beta", [0.5, 2.0], cfg)
    assert "error" in rows[0]
    assert rows[1]["equivalence_ratio"] is not None


def test_golden_data_is_packaged():
    gold = harness.golden()
    assert set(gold) == {"meta", "disc"}
    assert set(gold["disc"]) == {"l1_log_weight_lambda", "sharpness"}
    assert gold["disc"]["l1_log_weight_lambda"]["value"] == pytest.approx(
        1.2577468869443698, rel=1e-12)
    assert set(gold["disc"]["sharpness"]) == {"1.25", "1.5", "2", "3", "10"}


def test_golden_json_is_what_the_tool_writes():
    # the tool's oracles import nothing from the library they check, and
    # their output is the packaged file byte for byte
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parent.parent / "tools" / "gen_golden.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or ".").split(".")[0])
    assert "hardy" not in imported and "" not in imported
    spec = importlib.util.spec_from_file_location("gen_golden", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    packaged = resources.files("hardy").joinpath("data/golden.json").read_bytes()
    assert tool.golden_text().encode() == packaged
