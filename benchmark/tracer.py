"""Spans and counters around the public functions of each ``hardy`` module,
installed from outside the library by rebinding module and class attributes.

A span is [name, start, end, parent index]; spans are kept in memory and
written out once, when the sample ends.  Self time is a span's duration
minus the durations of its direct children.  The hottest calls (expression
and test-function evaluation) are only counted, not spanned.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

SEQ_OPS = ("l1_norm_mod", "j1_sum", "j2_sum", "j1_sum_by_weights", "j2_sum_by_weights",
           "total_sum", "l1_log_weight", "cesaro", "modified_cesaro", "harmonic",
           "hardy_ratio", "disc_mean_check", "scan_gamma_residual", "build_report",
           "finite_sequence")
CONT_OPS = ("log_weight_norm", "l1_norm_modified", "split_i1", "split_i2",
            "fubini_check_cont", "cont_hardy_ratio", "equivalence_ratio",
            "mean_limit_check", "hardy_avg", "modified_hardy", "total_integral")
QUAD = ("integrate_halfline", "integrate", "probe_divergence")
FUNCSPACE_BUILD = ("catalog", "parse_function", "add", "scale", "absolute")
ENVELOPE_FUNCS = ("sum_remainder", "sum_v_for_remainder")
ENVELOPE_METHODS = ("remainder", "v_for_remainder")
EXPR_METHODS = ("eval", "eval_ext", "log_eval")
# TestFunction.__call__ is an alias of eval bound at class creation
TESTFUNCTION_METHODS = ("eval", "__call__", "log_eval")
_PANEL_SPANS = ("quad.integrate", "quad.integrate_halfline")


def rebind(orig, new) -> None:
    """Replace every binding of ``orig`` in the loaded hardy modules, so that
    names taken with ``from .quad import ...`` are patched too."""
    for name, mod in list(sys.modules.items()):
        if name != "hardy" and not name.startswith("hardy."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.funcspace_evals = [0]
        self.expression_evals = [0]
        self.panels = 0
        self.outer_results = 0
        self.outer_converged = 0
        self.budget_hits = 0
        self.den_bits = 0
        self._default_cfg = None

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return functools.update_wrapper(traced, fn)

    @staticmethod
    def counted(cell, fn):
        def counter(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counter, fn)

    def _span_module_funcs(self, mod, short, names, on_result=None):
        for fn_name in names:
            orig = getattr(mod, fn_name)
            rebind(orig, self.wrap(f"{short}.{fn_name}", orig, on_result))

    # -- result hooks ---------------------------------------------------------

    def _exact_bits(self, out, args, kwargs):
        q = out if isinstance(out, Fraction) else getattr(out, "exact", None)
        if isinstance(q, Fraction):
            self.den_bits = max(self.den_bits, q.denominator.bit_length())

    def _quad_result(self, out, args, kwargs):
        subdivisions = getattr(out, "subdivisions", None)
        if subdivisions is None:
            return
        if any(self.spans[i][0] in _PANEL_SPANS for i in self._stack):
            return  # counted in the enclosing result
        self.panels += subdivisions
        verdict = getattr(out, "verdict", None)
        if verdict is None:
            verdict = "converged" if out.converged else "not-converged"
        if verdict in ("converged", "not-converged"):
            self.outer_results += 1
            self.outer_converged += verdict == "converged"
        cfg = kwargs.get("cfg") or next(
            (a for a in args if hasattr(a, "max_panels")), self._default_cfg)
        if subdivisions >= cfg.max_panels:
            self.budget_hits += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from hardy import (cli, cont_ops, envelopes, expressions, funcspace, harness,
                           quad, seq_ops)

        self._default_cfg = quad.DEFAULT_CONFIG
        self._span_module_funcs(seq_ops, "seq_ops", SEQ_OPS, self._exact_bits)
        self._span_module_funcs(cont_ops, "cont_ops", CONT_OPS)
        self._span_module_funcs(quad, "quad", QUAD, self._quad_result)
        self._span_module_funcs(funcspace, "funcspace", FUNCSPACE_BUILD)
        self._span_module_funcs(envelopes, "envelopes", ENVELOPE_FUNCS)
        for meth in ENVELOPE_METHODS:
            orig = getattr(envelopes.Envelope, meth)
            setattr(envelopes.Envelope, meth,
                    self.wrap(f"envelopes.Envelope.{meth}", orig))

        for meth in TESTFUNCTION_METHODS:
            orig = funcspace.TestFunction.__dict__[meth]
            setattr(funcspace.TestFunction, meth,
                    self.counted(self.funcspace_evals, orig))
        for obj in vars(expressions).values():
            if (isinstance(obj, type) and issubclass(obj, expressions.Expr)
                    and obj is not expressions.Expr):
                for meth in EXPR_METHODS:
                    if meth in obj.__dict__:
                        setattr(obj, meth,
                                self.counted(self.expression_evals, obj.__dict__[meth]))

        run_suite = harness.run_suite
        claim_runs = {}

        def run_suite_by_claim(cfg):
            ids = [cid for cid in harness.claim_ids() if fnmatch.fnmatch(cid, cfg.claims)]
            if not ids:
                return run_suite(cfg)
            records = []
            for cid in ids:
                if cid not in claim_runs:
                    claim_runs[cid] = self.wrap(f"harness.claim.{cid}", run_suite)
                records.extend(claim_runs[cid](replace(cfg, claims=cid)))
            return records

        rebind(run_suite, self.wrap("harness.run_suite", run_suite_by_claim))
        rebind(harness.render_report,
               self.wrap("harness.render_report", harness.render_report))
        rebind(cli.main, self.wrap("cli.main", cli.main))

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """(times, counts): times vary from run to run, counts must not."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start

        times: dict[str, float] = {}
        counts: dict[str, float] = {}
        claims = {n: t for n, t in total_s.items() if n.startswith("harness.claim.")}
        for name, t in claims.items():
            times["harness.claim_s." + name[len("harness.claim."):]] = t
        times["harness.claims_total_s"] = sum(claims.values())
        times["harness.render_s"] = total_s["harness.render_report"]
        times["cli.self_s"] = (total_s["cli.main"] - total_s["harness.run_suite"]
                               - total_s["harness.render_report"])
        for short, names in (("seq_ops", SEQ_OPS), ("cont_ops", CONT_OPS), ("quad", QUAD)):
            for fn in names:
                counts[f"{short}.{fn}.calls"] = calls[f"{short}.{fn}"]
                times[f"{short}.{fn}.self_s"] = self_s[f"{short}.{fn}"]
        counts["seq_ops.exact_denominator_bits"] = self.den_bits
        counts["quad.panels"] = self.panels
        counts["quad.converged_ratio"] = (self.outer_converged / self.outer_results
                                          if self.outer_results else 0.0)
        counts["quad.budget_hits"] = self.budget_hits
        build = [f"funcspace.{fn}" for fn in FUNCSPACE_BUILD]
        counts["funcspace.build.calls"] = sum(calls[n] for n in build)
        times["funcspace.build.self_s"] = sum(self_s[n] for n in build)
        counts["funcspace.evals"] = self.funcspace_evals[0]
        counts["expressions.evals"] = self.expression_evals[0]
        env = ([f"envelopes.{fn}" for fn in ENVELOPE_FUNCS]
               + [f"envelopes.Envelope.{m}" for m in ENVELOPE_METHODS])
        counts["envelopes.calls"] = sum(calls[n] for n in env)
        times["envelopes.self_s"] = sum(self_s[n] for n in env)
        counts["trace.spans"] = len(self.spans)
        return times, counts

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")
