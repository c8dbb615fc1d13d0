"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines as they complete.
"""

import itertools
import json
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

from hardy import cont_ops as co
from hardy import funcspace as fs
from hardy import seq_ops as so
from hardy.harness import golden
from hardy.quad import integrate_halfline

LN2 = math.log(2.0)
LN32 = math.log(1.5)


def _criterion(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _log_points(rng, n, lo, hi, avoid):
    pts = []
    span = math.log10(hi / lo)
    while len(pts) < n:
        x = lo * 10.0 ** (span * rng.random())
        if all(abs(x - b) > 1e-9 * max(1.0, b) for b in avoid):
            pts.append(x)
    return pts


def test_criterion_01_closed_form_oracles():
    start = time.perf_counter()
    rng = random.Random(20240801)
    worst = 0.0
    for name, oracle in (("f0", co.oracle_qf0), ("fe", co.oracle_qfe)):
        f = fs.catalog(name)
        for x in _log_points(rng, 500, 1e-3, 1e3, f.breakpoints):
            worst = max(worst, abs(co.hardy_avg(f, x) - oracle(x)))
    elapsed = time.perf_counter() - start
    _criterion(1, worst <= 1e-10 and elapsed < 10.0,
               f"oracle agreement at 500 points each (worst {worst:.2e}, "
               f"{elapsed:.2f}s < 10s)")


def test_criterion_02_kernel_identities():
    theta = fs.catalog("theta")
    rng = random.Random(2)
    worst = max(abs(co.hardy_avg(theta, x) - 1.0 / (1.0 + x))
                for x in _log_points(rng, 50, 1e-3, 1e4, ()))
    total = integrate_halfline(
        lambda v: math.exp(theta.log_eval(v)[0] + v),
        origin_envs=(theta.origin,),
        tail_envs=(theta.tail,))
    hnorm = co.l1_norm_modified(theta)
    ok = (worst <= 1e-12
          and abs(total.value - 1.0) <= 1e-12
          and hnorm.verdict == "converged" and abs(hnorm.value) < 1e-10)
    _criterion(2, ok, f"average 1/(1+x) ({worst:.1e}), unit integral "
                      f"({total.value - 1.0:+.1e}), annihilation "
                      f"({hnorm.value:.1e})")


def test_criterion_03_order_exchange_identities():
    start = time.perf_counter()
    ok = True
    for name in ("theta", "abs(f0)", "power_tail(beta=2)", "power_tail(beta=3)"):
        rep = co.fubini_check_cont(fs.parse_function(name))
        ok = ok and rep.passed
    elapsed = time.perf_counter() - start
    _criterion(3, ok and elapsed < 60.0,
               f"both splits match their weighted forms on four functions "
               f"({elapsed:.2f}s < 60s)")


def test_criterion_04_characterization_suite():
    finite = ("theta", "power_tail(beta=1.5)", "power_tail(beta=2)",
              "power_tail(beta=3)", "abs(f0)", "box(lo=1,hi=2)",
              "power_cutoff(alpha=0.5,T=1)")
    divergent = ("log_tail(beta=1.5)", "log_tail(beta=2)", "abs(fe)")
    ok = True
    inconclusive = 0
    for name in finite:
        f = fs.parse_function(name)
        w = co.log_weight_norm(f)
        h = co.l1_norm_modified(f)
        i1, i2 = co.split_i1(f), co.split_i2(f)
        inconclusive += sum(r.verdict == "inconclusive" for r in (w, h, i1, i2))
        ok = ok and w.verdict == "converged" and h.verdict == "converged"
        ok = ok and h.value <= i1.value + i2.value + 10.0 * (
            h.total_error + i1.total_error + i2.total_error)
    for name in divergent:
        f = fs.parse_function(name)
        w = co.log_weight_norm(f)
        h = co.l1_norm_modified(f)
        inconclusive += sum(r.verdict == "inconclusive" for r in (w, h))
        ok = ok and w.verdict == "divergent" and h.verdict == "divergent"
    _criterion(4, ok and inconclusive == 0,
               f"finite side bounded by the splits, divergent side certified, "
               f"{inconclusive} inconclusive verdicts")


def test_criterion_05_mean_zero_necessity():
    ok = True
    details = []
    cases = (("f0", fs.catalog("f0")), ("theta", fs.catalog("theta")),
             ("2*theta", fs.scale(fs.catalog("theta"), 2.0)))
    for name, f in cases:
        rep = co.mean_limit_check(f)
        good = (rep.probe is not None and rep.probe.verdict == "divergent-log"
                and abs(rep.probe.last_increment - rep.probe_rate_target)
                <= 0.1 * rep.probe_rate_target)
        ok = ok and good and rep.consistent
        details.append(f"{name}:{rep.probe.last_increment:.4f}")
    fe = fs.catalog("fe")
    rep = co.mean_limit_check(fe)  # samples reach past 10^6
    ok = ok and rep.xs[-1] >= 1e6 and abs(rep.total_integral) < 1e-6 \
        and rep.consistent
    _criterion(5, ok, "log-divergence at rate |total|*ln2 ("
               + ", ".join(details) + f"); certified zero limit for fe "
               f"({rep.total_integral:.1e})")


def test_criterion_06_exact_discrete_identities():
    start = time.perf_counter()
    rng = random.Random(606)
    failures = 0
    for i in range(200):
        support = rng.randint(1, 50)
        values = [Fraction(rng.randint(0, 1000), rng.randint(1, 1000))
                  for _ in range(support)]
        if not any(values):
            values[0] = Fraction(1, 2)
        seq = so.finite_sequence(f"acc6-{i}", values)
        n0 = len(values)
        if so.j1_sum(seq).exact != so.j1_sum_by_weights(seq).exact:
            failures += 1
            continue
        if so.j2_sum(seq).exact != so.j2_sum_by_weights(seq).exact:
            failures += 1
            continue
        total = so.total_sum(seq).exact
        pre = list(itertools.accumulate(values, initial=Fraction(0)))
        for n in range(1, 201):
            s_n = pre[min(n, n0)]
            if s_n / Fraction(n) - total / (n + 1) != (
                    s_n / (Fraction(n) * (n + 1)) - (total - s_n) / (n + 1)):
                failures += 1
                break
    elapsed = time.perf_counter() - start
    _criterion(6, failures == 0 and elapsed < 30.0,
               f"200 random rational sequences, zero-tolerance identities "
               f"({failures} failures, {elapsed:.2f}s < 30s)")


def test_criterion_07_discrete_kernel_and_goldens():
    lam = so.catalog_seq("lambda")
    e1 = so.catalog_seq("em", m=1)
    ns = list(range(1, 129)) + [10 ** 3, 10 ** 4]
    ok = all(so.cesaro(lam, n) == Fraction(1, n + 1) for n in ns)
    ok = ok and all(so.modified_cesaro(lam, n) == 0 for n in ns)
    norm = so.l1_norm_mod(e1)
    ok = ok and norm.exact == 1
    _criterion(7, ok, "kernel means 1/(n+1) and corrected kernel 0 exactly; "
                      "impulse norm exactly 1")


def test_criterion_08_discrete_sharp_bound():
    start = time.perf_counter()
    n = 10 ** 6
    ps = (1.25, 1.5, 2.0, 3.0, 10.0)
    suite = ("lambda", "em(m=1)", f"powcut(alpha=0.5,N={n})",
             f"powcut(alpha=0.8,N={n})", "power(alpha=1.5)")
    ok = True
    for name in suite:
        seq = so.parse_sequence(name)
        for p in ps:
            if so.hardy_ratio(seq, p, n) > (p / (p - 1.0)) ** p:
                ok = False
    gold = golden()["disc"]["sharpness"]
    for p in ps:
        seq = so.catalog_seq("powcut", alpha=1.0 / p, N=n)
        prev = 0.0
        for n_chk in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            r = so.hardy_ratio(seq, p, n_chk)
            expected = gold[f"{p:g}"][str(n_chk)]
            if not (abs(r - expected) <= 1e-7 * expected and r > prev):
                ok = False
            prev = r
    elapsed = time.perf_counter() - start
    _criterion(8, ok and elapsed < 120.0,
               f"ratio under (p/(p-1))^p across the suite at N=10^6; "
               f"near-extremal family strictly increasing on frozen values "
               f"({elapsed:.1f}s < 120s)")


def test_criterion_09_corrected_equivalence():
    # power_tail's R(beta) spans [R(2), R(4)] = [1/2, 15/13] over the sweep
    lo = hi = None
    beta = 1.1
    while beta < 4.05:
        r = co.equivalence_ratio(fs.catalog("power_tail", beta=round(beta, 10)))
        lo = r if lo is None else min(lo, r)
        hi = r if hi is None else max(hi, r)
        beta += 0.1
    ok = lo >= 0.5 - 1e-9 and hi <= 15.0 / 13.0 + 1e-9

    # em(m)'s ratio from ||Gm e_m||_1 = H_m - 1 + 1/m, with H_m summed here
    ratios, closed, h = [], [], Fraction(0)
    for m in range(1, 1001):
        norm = so.l1_norm_mod(so.catalog_seq("em", m=m)).exact
        h += Fraction(1, m)
        log_w = so.EULER_GAMMA + math.log(m + 1.0)
        ratios.append((float(norm) + 1.0) / log_w)
        closed.append((float(h - 1 + Fraction(1, m)) + 1.0) / log_w)
    dlo, dhi = min(ratios), max(ratios)
    ok = ok and min(closed) > 0.0 and math.isfinite(max(closed)) \
        and dlo >= min(closed) - 1e-12 and dhi <= max(closed) + 1e-12

    theta = fs.catalog("theta")
    h = co.l1_norm_modified(theta)
    w = co.log_weight_norm(theta)
    ok = ok and abs(h.value) < 1e-10 and abs(w.value - 2.0) <= 1e-9

    lam = so.catalog_seq("lambda")
    kernel_zero = all(so.modified_cesaro(lam, nn) == 0 for nn in (1, 5, 64, 512))
    weighted = so.EULER_GAMMA + so.l1_log_weight(lam).value
    ok = ok and kernel_zero and weighted > 0.6
    _criterion(9, ok,
               f"sweep ratios inside closed-form intervals (cont [{lo:.4f},{hi:.4f}], "
               f"disc [{dlo:.6f},{dhi:.6f}]); annihilated kernels defeat the "
               f"uncorrected comparison ({weighted:.3f} > 0.6)")


def test_criterion_10_harmonic_asymptotic():
    start = time.perf_counter()
    ok, worst_lo, worst_hi = so.scan_gamma_residual(2, 10 ** 6)
    elapsed = time.perf_counter() - start
    _criterion(10, ok and elapsed < 5.0,
               f"residual inside (1/(2(n+1)), 1/(2n)) on [2, 10^6] "
               f"(margins {worst_lo:.1e}/{worst_hi:.1e}, {elapsed:.2f}s < 5s)")


def test_criterion_11_report_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hardy", "verify", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    pattern = re.compile(rb'"timestamp": "[^"]*"')
    normalized = [pattern.sub(b'"timestamp": "-"', blob) for blob in outs]
    identical = normalized[0] == normalized[1]
    payload = json.loads(outs[0])
    ok = identical and payload["summary"]["fail"] == 0 \
        and payload["summary"]["inconclusive"] == 0
    _criterion(11, ok, "two full verify runs byte-identical outside the "
                       "timestamp field, all claims green")
