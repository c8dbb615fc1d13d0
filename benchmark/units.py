"""The work of one sample: one block of a workload, timed op by op.

Only the library call of each op is timed.  Peak RSS is read before the
oracle checks, so memory the checks use is not charged to the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import time
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
from tracer import Tracer, rebind

CONT_FUNCTIONALS = {"log_weight_norm": "W", "l1_norm_modified": "H",
                    "split_i1": "I1", "split_i2": "I2"}
SEQ_FUNCTIONALS = ("total_sum", "l1_log_weight", "l1_norm_mod", "j1_sum", "j2_sum",
                   "j1_sum_by_weights", "j2_sum_by_weights")
UNRESOLVED = ("not-converged", "inconclusive")
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


class Capture:
    """Keeps the results of the outermost functional calls of the current op,
    for the oracles and for the resolved share."""

    def __init__(self):
        self.depth = 0
        self.results: list[tuple[str, object]] = []
        self.functionals = 0
        self.unresolved = 0

    def install(self) -> None:
        from hardy import cont_ops, seq_ops

        for mod, names in ((cont_ops, CONT_FUNCTIONALS), (seq_ops, SEQ_FUNCTIONALS)):
            for name in names:
                orig = getattr(mod, name)
                rebind(orig, self._hook(name, orig))

    def _hook(self, name, fn):
        def captured(*args, **kwargs):
            self.depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self.depth -= 1
            if self.depth == 0:
                self.results.append((name, out))
            return out

        return captured

    def take(self) -> list[tuple[str, object]]:
        """Results of the op that just ended; counts them as attempted."""
        got, self.results = self.results, []
        self.functionals += len(got)
        self.unresolved += sum(getattr(r, "verdict", None) in UNRESOLVED for _, r in got)
        return got


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verify(seed: int, cap: Capture, scratch: Path):
    from hardy import cli, harness

    out = scratch / f"verify-{os.getpid()}.json"
    argv = ["verify", "--seed", str(seed), "--out", str(out)]
    failures = []
    n_claims = len(harness.claim_ids())
    printed = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed run of every claim
        code = None
        failures.append(f"verify raised {exc!r}")
    dt = time.perf_counter() - t0
    rss = _peak_rss_mb()
    cap.take()
    if code is not None and not out.exists():
        failures.append(f"verify exited {code} without a report")
    if failures:  # no report: every claim counts as failed
        return [dt], n_claims, n_claims, failures, "", rss
    text = out.read_text()
    out.unlink()
    for claim in json.loads(text)["claims"]:
        if claim["verdict"] not in (harness.PASS, harness.DIVERGENT_OK):
            failures.append(f"{claim['claim_id']}: {claim['verdict']}")
    if code != 0 and not failures:
        failures.append(f"verify exited {code}")
    digest = hashlib.sha256(_TIMESTAMP.sub('"timestamp": ""', text).encode()).hexdigest()
    return [dt], n_claims, len(failures), failures, digest, rss


def _cont(seed: int, block: int, cap: Capture):
    from hardy import harness

    cfg = harness.SuiteConfig()
    points = inputs.cont_block(seed, block)
    times, outputs = [], []
    for family, param, value, fixed in points:
        t0 = time.perf_counter()
        try:
            rows, footer = harness.sweep_cont(family, param, [value], cfg, fixed)
        except Exception as exc:
            rows, footer = [{"error": f"raised {exc!r}"}], {}
        times.append(time.perf_counter() - t0)
        got = {CONT_FUNCTIONALS[name]: res for name, res in cap.take()
               if name in CONT_FUNCTIONALS}
        outputs.append((rows[0], footer, got))
    rss = _peak_rss_mb()
    failures, digest = [], hashlib.sha256()
    for (family, _param, value, fixed), (row, footer, got) in zip(points, outputs):
        reason = oracles.check_cont_point(family, value, fixed, row, got)
        if reason:
            failures.append(reason)
        digest.update((dumps([row, footer]) + "\n").encode())
    return times, len(points), len(failures), failures, digest.hexdigest(), rss


def _sparse(seed: int, block: int, cap: Capture):
    from hardy import harness

    cfg = harness.SuiteConfig()
    ms = inputs.sparse_block(seed, block)
    times, outputs = [], []
    for m in ms:
        t0 = time.perf_counter()
        try:
            rows, footer = harness.sweep_disc("em", "m", [m], cfg)
        except Exception as exc:
            rows, footer = [{"error": f"raised {exc!r}"}], {}
        times.append(time.perf_counter() - t0)
        norm = [res for name, res in cap.take() if name == "l1_norm_mod"]
        outputs.append((rows[0], footer, norm[0].exact if norm else None))
    rss = _peak_rss_mb()
    h = oracles.Harmonic(max(ms))
    failures, digest = [], hashlib.sha256()
    for m, (row, footer, exact) in zip(ms, outputs):
        expected = oracles.em_norm(h, m)
        if "error" in row:
            failures.append(f"em({m}): {row['error']}")
        elif exact != expected:
            off = "no exact value" if exact is None else f"off by {float(exact - expected):.3g}"
            failures.append(f"em({m}): l1_norm_mod is not H_m - 1 + 1/m, {off}")
        digest.update((dumps([row, footer]) + "\n").encode())
    return times, len(ms), len(failures), failures, digest.hexdigest(), rss


def _dense(seed: int, block: int, cap: Capture):
    from hardy import harness, seq_ops

    cfg = harness.SuiteConfig()
    seqs = inputs.dense_block(seed, block)
    times, outputs = [], []
    for i, values in enumerate(seqs):
        t0 = time.perf_counter()
        try:
            seq = seq_ops.finite_sequence(f"dense-{i}", values)
            rep = seq_ops.build_report(seq, cfg.seq_horizon).to_dict()
            j1w = seq_ops.j1_sum_by_weights(seq).exact
            j2w = seq_ops.j2_sum_by_weights(seq).exact
            out = (rep, j1w, j2w)
        except Exception as exc:
            out = (None, f"raised {exc!r}", None)
        times.append(time.perf_counter() - t0)
        cap.take()
        outputs.append(out)
    rss = _peak_rss_mb()
    failures, digest = [], hashlib.sha256()
    for i, (rep, j1w, j2w) in enumerate(outputs):
        if rep is None:
            failures.append(f"dense-{i}: {j1w}")
            continue
        j1 = rep["j1_sum"].get("exact")
        j2 = rep["j2_sum"].get("exact")
        if j1 is None or Fraction(j1) != j1w or j2 is None or Fraction(j2) != j2w:
            failures.append(f"dense-{i}: operator-side and rearranged sums differ")
        digest.update((dumps([rep, str(j1w), str(j2w)]) + "\n").encode())
    return times, len(seqs), len(failures), failures, digest.hexdigest(), rss


def run(workload: str, seed: int, block: int, trace: bool, out_dir: Path) -> dict:
    cap = Capture()
    cap.install()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    if workload == "verify":
        res = _verify(seed, cap, out_dir)
    elif workload == "cont-sweep":
        res = _cont(seed, block, cap)
    elif workload == "disc-sparse":
        res = _sparse(seed, block, cap)
    elif workload == "disc-dense":
        res = _dense(seed, block, cap)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    times, ops, failed, failures, digest, rss = res
    out = {"op_s": times, "ops": ops, "failed": failed, "failures": failures[:5],
           "digest": digest, "rss_mb": rss,
           "functionals": cap.functionals, "unresolved": cap.unresolved}
    if tracer is not None:
        out["layer_times"], out["layer_counts"] = tracer.layer_metrics()
        path = out_dir / f"spans-{workload}-{seed}.jsonl"
        tracer.write_spans(path)
        out["spans_file"] = str(path)
    return out
