"""The names and call forms the benchmark relies on.

``benchmark/tracer.py`` and ``benchmark/units.py`` patch library functions
by name and call a few entry points positionally.  A refactor that renames
or reshapes one of them breaks only the benchmark run, so this file checks
them against the benchmark's own lists and inputs.
"""

import sys
from dataclasses import replace
from pathlib import Path

from hardy import cont_ops, envelopes, funcspace, harness, quad, seq_ops

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
import inputs  # noqa: E402
import tracer  # noqa: E402
import units  # noqa: E402


def test_hooked_names_resolve():
    for mod, names in ((seq_ops, tracer.SEQ_OPS), (cont_ops, tracer.CONT_OPS),
                       (quad, tracer.QUAD), (funcspace, tracer.FUNCSPACE_BUILD),
                       (envelopes, tracer.ENVELOPE_FUNCS),
                       (cont_ops, units.CONT_FUNCTIONALS), (seq_ops, units.SEQ_FUNCTIONALS)):
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
    for name in tracer.ENVELOPE_METHODS:
        assert callable(getattr(envelopes.Envelope, name, None)), name
    for name in tracer.TESTFUNCTION_METHODS:  # read from the class's own __dict__
        assert callable(funcspace.TestFunction.__dict__.get(name)), name
    assert quad.DEFAULT_CONFIG.max_panels > 0


def test_benchmark_call_forms():
    cfg = harness.SuiteConfig()
    assert replace(cfg, claims="disc.cesaro.kernel").claims == "disc.cesaro.kernel"
    family, param, value, fixed = inputs.cont_block(1, 0)[0]
    rows, _ = harness.sweep_cont(family, param, [value], cfg, fixed)
    assert "error" not in rows[0]
    # the columns benchmark/oracles.py reads: the verdicts of a log_tail row,
    # and the error cell of a point the family refuses
    rows, _ = harness.sweep_cont("log_tail", "beta", [2.5], cfg, {})
    assert {"weighted_verdict", "modified_verdict"} <= set(rows[0])
    rows, _ = harness.sweep_cont("power_tail", "beta", [0.5], cfg, {})
    assert "error" in rows[0]
    rows, _ = harness.sweep_disc("em", "m", [inputs.sparse_block(1, 0)[0]], cfg)
    assert "error" not in rows[0]
    seq = seq_ops.finite_sequence("dense-0", inputs.dense_block(1, 0)[0])
    rep = seq_ops.build_report(seq, cfg.seq_horizon).to_dict()
    assert rep["j1_sum"]["exact"] == str(seq_ops.j1_sum_by_weights(seq).exact)


def test_log_tail_band_of_a_block_resolves():
    # the band 2 < beta < 3 of cont-sweep, whose unresolved functionals
    # would lower the benchmark's resolved_ratio
    cfg = harness.SuiteConfig()
    band = [(family, param, value, fixed) for family, param, value, fixed
            in inputs.cont_block(1, 0) if family == "log_tail" and 2.0 < value < 3.0]
    assert band
    for family, param, value, fixed in band:
        rows, _ = harness.sweep_cont(family, param, [value], cfg, fixed)
        assert rows[0]["weighted_verdict"] == rows[0]["modified_verdict"] == "converged"
        assert rows[0]["i2"] is not None


def test_a_single_claim_runs_in_the_calling_process():
    # the tracer's per-claim spans and units.Capture hook this process only
    calls = [0]
    orig = seq_ops.cesaro
    counter = tracer.Tracer.counted(calls, orig)
    tracer.rebind(orig, counter)
    try:
        records = harness.run_suite(replace(harness.SuiteConfig(), claims="disc.cesaro.kernel"))
    finally:
        tracer.rebind(counter, orig)
    assert records[0].verdict == harness.PASS
    assert calls[0] > 0
