"""Verification suite: every statement the library is built to check is a
registered claim with a stable id, a deterministic runner, and a verdict.

Verdicts
--------
PASS                    all checks of the claim hold
DIVERGENT-AS-EXPECTED   all checks hold and the claim's content is a
                        certified divergence (a passing outcome)
FAIL                    at least one check is violated
INCONCLUSIVE            a verdict the runner could not resolve either way

Two runs with the same :class:`SuiteConfig` produce byte-identical reports,
whatever the number of forked workers that run the claims (one per usable
CPU); the only nondeterministic field (a wall-clock timestamp) lives in the
report's metadata block, outside the claim records.
"""

from __future__ import annotations

import csv
import fnmatch
import io
import json
import math
import os
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import ClassVar

from . import cont_ops, funcspace, seq_ops
from .envelopes import Envelope, EnvelopeError
from .quad import DEFAULT_CONFIG, integrate_halfline

__all__ = [
    "SuiteConfig", "ClaimCheck", "ClaimRecord", "ConfigError",
    "claim_ids", "run_suite", "report_dict", "render_report", "exit_code",
    "sweep_cont", "sweep_disc", "parse_grid", "golden",
]

SCHEMA_VERSION = 1

PASS = "PASS"
FAIL = "FAIL"
DIVERGENT_OK = "DIVERGENT-AS-EXPECTED"
INCONCLUSIVE = "INCONCLUSIVE"

_LN2 = math.log(2.0)


class ConfigError(ValueError):
    """Invalid suite configuration; reported before any check runs."""


@dataclass(frozen=True)
class SuiteConfig:
    """Which claims run, with which seed, and where the report goes.  The
    precision is fixed (the class constants); ``to_dict`` records it too."""
    rel_tol: ClassVar[float] = DEFAULT_CONFIG.rel_tol
    abs_tol: ClassVar[float] = DEFAULT_CONFIG.abs_tol
    max_depth: ClassVar[int] = DEFAULT_CONFIG.max_depth
    seq_horizon: ClassVar[int] = seq_ops.SEQ_HORIZON
    sharp_n: ClassVar[int] = 10 ** 6
    claims: str = "*"
    seed: int = 20240801
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown report format {self.fmt!r}")

    def to_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol, "abs_tol": self.abs_tol,
            "max_depth": self.max_depth, "seq_horizon": self.seq_horizon,
            "sharp_n": self.sharp_n, "claims": self.claims, "seed": self.seed,
        }


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    ok: bool
    computed: str
    expected: str
    provenance: str

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "computed": self.computed,
                "expected": self.expected, "provenance": self.provenance}


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    description: str
    verdict: str
    checks: tuple[ClaimCheck, ...]

    @property
    def passed(self) -> bool:
        return self.verdict in (PASS, DIVERGENT_OK)

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "description": self.description,
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
        }


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _chk(name, ok, computed, expected, provenance) -> ClaimCheck:
    return ClaimCheck(name, bool(ok), _fmt(computed), _fmt(expected), provenance)


def _near(name, computed, expected, tol, provenance) -> ClaimCheck:
    ok = abs(computed - expected) <= tol
    return _chk(name, ok, computed, f"{_fmt(expected)} +- {tol:g}", provenance)


@lru_cache(maxsize=1)
def golden() -> dict:
    path = resources.files("hardy").joinpath("data/golden.json")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# claim runners
# ---------------------------------------------------------------------------

def _log_points(rng: random.Random, n: int, lo: float, hi: float,
                avoid: tuple[float, ...]) -> list[float]:
    pts = []
    span = math.log10(hi) - math.log10(lo)
    while len(pts) < n:
        x = lo * 10.0 ** (span * rng.random())
        if all(abs(x - b) > 1e-6 * max(1.0, b) for b in avoid):
            pts.append(x)
    return pts


def _claim_oracle(name: str, oracle, cfg: SuiteConfig):
    f = funcspace.catalog(name)
    # derive the stream from the bytes of the name: hash() of a str is
    # process-randomized and would break report determinism
    rng = random.Random(cfg.seed + zlib.crc32(name.encode()))
    pts = _log_points(rng, 500, 1e-3, 1e3, f.breakpoints)
    worst = max(abs(cont_ops.hardy_avg(f, x) - oracle(x)) for x in pts)
    return [_chk(f"max |avg - closed form| over 500 log-spaced points",
                 worst <= 1e-10, worst, "<= 1e-10", "closed-form")]


def _claim_theta(cfg: SuiteConfig):
    theta = funcspace.catalog("theta")
    checks = []
    rng = random.Random(cfg.seed + 3)
    worst = max(abs(cont_ops.hardy_avg(theta, x) - 1.0 / (1.0 + x))
                for x in _log_points(rng, 40, 1e-3, 1e4, ()))
    checks.append(_chk("running average equals 1/(1+x)", worst <= 1e-12,
                       worst, "<= 1e-12", "closed-form"))
    total = integrate_halfline(
        lambda v: math.exp(theta.log_eval(v)[0] + v),
        origin_envs=(theta.origin,), tail_envs=(theta.tail,))
    checks.append(_near("quadrature total integral", total.value, 1.0, 1e-12,
                        "closed-form"))
    hnorm = cont_ops.l1_norm_modified(theta)
    checks.append(_chk("corrected image has vanishing l1 norm",
                       hnorm.verdict == "converged" and abs(hnorm.value) < 1e-10,
                       hnorm.value, "< 1e-10", "kernel annihilation"))
    w = cont_ops.log_weight_norm(theta)
    checks.append(_near("weighted norm", w.value, 2.0, 1e-9, "closed-form"))
    return checks


def _claim_modified(cfg: SuiteConfig):
    theta = funcspace.catalog("theta")
    f0 = funcspace.catalog("f0")
    fe = funcspace.catalog("fe")
    checks = []
    rng = random.Random(cfg.seed + 4)
    xs = _log_points(rng, 40, 1e-3, 1e5, ())
    worst = max(abs(cont_ops.modified_hardy(theta, x)) for x in xs)
    checks.append(_chk("pointwise annihilation of the kernel profile",
                       worst < 1e-12, worst, "< 1e-12", "closed-form"))
    checks.append(_near("corrected value of the two-bump example at x=5",
                        cont_ops.modified_hardy(f0, 5.0),
                        math.log(1.5) / 30.0, 1e-12, "closed-form"))
    checks.append(_near("mean-zero example keeps its running average at x=1",
                        cont_ops.modified_hardy(fe, 1.0), 1.0, 1e-12,
                        "closed-form"))
    combo = funcspace.add(funcspace.scale(f0, 2.0), funcspace.scale(theta, -0.5))
    worst = max(abs(cont_ops.modified_hardy(combo, x)
                    - (2.0 * cont_ops.modified_hardy(f0, x)
                       - 0.5 * cont_ops.modified_hardy(theta, x)))
                for x in xs[:10])
    checks.append(_chk("linearity over a two-term combination", worst <= 1e-10,
                       worst, "<= 1e-10", "linearity"))
    return checks


_FUBINI_SET = ("theta", "abs(f0)", "power_tail(beta=2)", "power_tail(beta=3)")


def _claim_fubini(cfg: SuiteConfig):
    checks = []
    for name in _FUBINI_SET:
        f = funcspace.parse_function(name)
        rep = cont_ops.fubini_check_cont(f)
        budget1 = 10.0 * (rep.i1_double.total_error + rep.i1_single.total_error)
        budget2 = 10.0 * (rep.i2_double.total_error + rep.i2_single.total_error)
        checks.append(_chk(
            f"{name}: split one equals its weighted form", rep.i1_pass,
            f"|{rep.i1_double.value!r} - {rep.i1_single.value!r}|",
            f"<= {budget1:.3e}", "independent quadratures"))
        checks.append(_chk(
            f"{name}: split two equals its weighted form", rep.i2_pass,
            f"|{rep.i2_double.value!r} - {rep.i2_single.value!r}|",
            f"<= {budget2:.3e}", "independent quadratures"))
    return checks


_FINITE_SUITE = ("theta", "power_tail(beta=1.5)", "power_tail(beta=2)",
                 "power_tail(beta=3)", "abs(f0)", "box(lo=1,hi=2)",
                 "power_cutoff(alpha=0.5,T=1)")
_DIVERGENT_SUITE = ("log_tail(beta=1.5)", "log_tail(beta=2)", "abs(fe)")


def _claim_char_finite(cfg: SuiteConfig):
    checks = []
    for name in _FINITE_SUITE:
        f = funcspace.parse_function(name)
        w = cont_ops.log_weight_norm(f)
        h = cont_ops.l1_norm_modified(f)
        i1 = cont_ops.split_i1(f)
        i2 = cont_ops.split_i2(f)
        ok_w = w.verdict == "converged"
        ok_h = h.verdict == "converged"
        checks.append(_chk(f"{name}: weighted norm finite", ok_w,
                           w.verdict, "converged", "quadrature"))
        checks.append(_chk(f"{name}: corrected image integrable", ok_h,
                           h.verdict, "converged", "quadrature"))
        if ok_h and i1.verdict == "converged" and i2.verdict == "converged":
            bound = i1.value + i2.value + 10.0 * (
                h.total_error + i1.total_error + i2.total_error)
            checks.append(_chk(f"{name}: triangle bound against the splits",
                               h.value <= bound, h.value, f"<= {bound!r}",
                               "independent quadratures"))
    return checks


def _claim_char_divergent(cfg: SuiteConfig):
    checks = []
    for name in _DIVERGENT_SUITE:
        f = funcspace.parse_function(name)
        w = cont_ops.log_weight_norm(f)
        h = cont_ops.l1_norm_modified(f)
        checks.append(_chk(f"{name}: weighted norm divergent",
                           w.verdict == "divergent", w.verdict, "divergent",
                           "certified envelope"))
        checks.append(_chk(f"{name}: corrected image not integrable",
                           h.verdict == "divergent", h.verdict, "divergent",
                           "certified envelope"))
    return checks


def _claim_mean_zero(cfg: SuiteConfig):
    checks = []
    cases = [("f0", funcspace.catalog("f0")),
             ("theta", funcspace.catalog("theta")),
             ("2*theta", funcspace.scale(funcspace.catalog("theta"), 2.0))]
    for name, f in cases:
        rep = cont_ops.mean_limit_check(f)
        checks.append(_chk(f"{name}: samples consistent with the total",
                           rep.consistent, rep.scaled_values[-1],
                           f"{rep.total_integral!r} within certified tail",
                           "identity x*avg = cumulative"))
        checks.append(_chk(
            f"{name}: |average| has log-divergent integral at rate |total|*ln2",
            rep.probe is not None and rep.probe.verdict == "divergent-log"
            and rep.probe_rate_ok,
            None if rep.probe is None else rep.probe.last_increment,
            f"{rep.probe_rate_target!r} +- 10%", "doubling probe"))
    fe = funcspace.catalog("fe")
    rep = cont_ops.mean_limit_check(fe)
    checks.append(_chk("fe: certified limit of x*avg vanishes",
                       abs(rep.total_integral) < 1e-6 and rep.consistent,
                       rep.total_integral, "|.| < 1e-6", "certified limit"))
    return checks


def _claim_cont_hardy(cfg: SuiteConfig):
    checks = []
    chi = funcspace.catalog("power_cutoff", alpha=0.0, T=1.0)
    r = cont_ops.cont_hardy_ratio(chi, 2.0)
    checks.append(_near("indicator of (0,1], p=2", r, 2.0, 1e-9, "closed-form"))
    checks.append(_chk("indicator ratio under the sharp bound", r <= 4.0,
                       r, "<= 4", "sharp constant"))
    prev = 0.0
    for alpha in (0.35, 0.40, 0.45):
        f = funcspace.catalog("power_cutoff", alpha=alpha, T=1.0)
        r = cont_ops.cont_hardy_ratio(f, 2.0)
        checks.append(_near(f"near-extremal cutoff alpha={alpha:g}, p=2",
                            r, 2.0 / (1.0 - alpha), 1e-8, "closed-form"))
        checks.append(_chk(f"alpha={alpha:g}: ratio grows toward the bound",
                           prev < r < 4.0, r, f"in ({prev!r}, 4)", "sharpness trend"))
        prev = r
    pt = funcspace.catalog("power_tail", beta=3.0)
    for p in (1.5, 2.0, 3.0):
        r = cont_ops.cont_hardy_ratio(pt, p)
        bound = (p / (p - 1.0)) ** p
        checks.append(_chk(f"power tail beta=3, p={p:g} under the bound",
                           r <= bound + 1e-9, r, f"<= {bound!r}", "sharp constant"))
    return checks


def _claim_cont_equiv(cfg: SuiteConfig):
    checks = []
    theta = funcspace.catalog("theta")
    h = cont_ops.l1_norm_modified(theta)
    w = cont_ops.log_weight_norm(theta)
    checks.append(_chk("annihilated kernel: corrected norm below 1e-10 while "
                       "the weighted norm stays near 2",
                       abs(h.value) < 1e-10 and abs(w.value - 2.0) <= 1e-9,
                       (h.value, w.value), "(~0, 2 +- 1e-9)", "counterexample"))
    # R(beta) = s(|D| + 1)/(2 + sD), s = beta - 1, D = psi(s) + gamma, spans
    # [R(2), R(4)] = [1/2, 15/13] over the sweep
    interval = (0.5, 15.0 / 13.0)
    lo = hi = None
    beta = 1.1
    while beta < 4.05:
        f = funcspace.catalog("power_tail", beta=round(beta, 10))
        r = cont_ops.equivalence_ratio(f)
        lo = r if lo is None else min(lo, r)
        hi = r if hi is None else max(hi, r)
        beta += 0.1
    margin = 1e-9 * max(1.0, abs(interval[1]))
    inside = (lo >= interval[0] - margin) and (hi <= interval[1] + margin)
    checks.append(_chk("power-tail sweep ratios inside [R(2), R(4)] = [1/2, 15/13]",
                       inside, (lo, hi), interval, "closed-form"))
    checks.append(_chk("interval bounded away from 0 and infinity",
                       interval[0] > 0.0 and math.isfinite(interval[1]),
                       interval, "(0, inf)", "closed-form"))
    return checks


def _claim_disc_kernel(cfg: SuiteConfig):
    lam = seq_ops.catalog_seq("lambda")
    e1 = seq_ops.catalog_seq("em", m=1)
    checks = []
    ns = list(range(1, 65)) + [10 ** 3, 10 ** 4]
    kernel = {n: seq_ops.pointwise_numerators(lam, n) for n in ns}  # (G a)_n = (n+1) J1(n)
    ok = all((n + 1) ** 2 * j1 == den for n, (_, j1, _, den) in kernel.items())
    checks.append(_chk("Cesaro mean of the kernel sequence is 1/(n+1), exact",
                       ok, "checked n in 1..64, 1e3, 1e4", "1/(n+1)", "exact rational"))
    ok = all(gm == 0 for gm, _, _, _ in kernel.values())
    checks.append(_chk("corrected kernel sequence vanishes exactly", ok,
                       "checked n in 1..64, 1e3, 1e4", "0", "exact rational"))
    norm = seq_ops.l1_norm_mod(e1)
    checks.append(_chk("corrected unit impulse has l1 norm exactly 1",
                       norm.exact == 1, norm.exact, "1", "exact rational"))
    ok = all(seq_ops.cesaro(e1, n) == Fraction(1, n) for n in (1, 2, 7, 50))
    checks.append(_chk("unit impulse means are 1/n", ok, "checked", "1/n",
                       "exact rational"))
    ones = seq_ops.finite_sequence("ones", [1] * 64)
    ok = all(seq_ops.cesaro(ones, n) == 1 for n in (1, 5, 64))
    checks.append(_chk("means of ones are 1 inside the support", ok, "checked",
                       "1", "exact rational"))
    return checks


def _claim_disc_fubini(cfg: SuiteConfig):
    rng = random.Random(cfg.seed)
    bad = 0
    n_seqs = 200
    for i in range(n_seqs):
        support = rng.randint(1, 50)
        values = [Fraction(rng.randint(0, 1000), rng.randint(1, 1000))
                  for _ in range(support)]
        if not any(values):
            values[rng.randrange(support)] = Fraction(1, 3)
        seq = seq_ops.finite_sequence(f"random-{i}", values)
        j1 = seq_ops.j1_sum(seq).exact
        j1w = seq_ops.j1_sum_by_weights(seq).exact
        j2 = seq_ops.j2_sum(seq).exact
        j2w = seq_ops.j2_sum_by_weights(seq).exact
        if j1 != j1w or j2 != j2w:
            bad += 1
            continue
        if any(gm != p1 - p2 for gm, p1, p2, _ in
               (seq_ops.pointwise_numerators(seq, n) for n in range(1, 201))):
            bad += 1
    return [_chk(f"{n_seqs} random nonnegative rational sequences satisfy "
                 "the telescoping and rearrangement identities exactly",
                 bad == 0, f"{bad} failures", "0 failures", "exact rational")]


def _claim_disc_mean(cfg: SuiteConfig):
    checks = []
    lam = seq_ops.catalog_seq("lambda")
    rep = seq_ops.disc_mean_check(lam)
    all_close = all(abs(inc - rep.target) <= 0.1 * rep.target
                    for inc in rep.increments)
    checks.append(_chk("kernel sequence: doubling blocks of |means| near ln 2",
                       all_close and rep.rate_ok, rep.increments[-1],
                       f"{rep.target!r} +- 10%", "doubling blocks"))
    lam2 = seq_ops.SeqSpec(
        name="2*lambda", gen=lambda k: Fraction(2, k * (k + 1)),
        decay=Envelope(2.0, 2.0, valid_from=3, lower=1.0),
        exact_sum=Fraction(2),
        vec=lambda ks: 2.0 / (ks * (ks + 1.0)))
    rep2 = seq_ops.disc_mean_check(lam2)
    checks.append(_chk("doubled kernel: blocks near 2 ln 2", rep2.rate_ok,
                       rep2.increments[-1], f"{rep2.target!r} +- 10%",
                       "doubling blocks"))
    pair = seq_ops.finite_sequence("pair", [1, -1])
    norm_pair = math.fsum(
        abs(float(seq_ops.cesaro(pair, n))) for n in range(1, 200))
    checks.append(_chk("zero-sum pair: means vanish beyond the support and "
                       "the l1 norm is 1", abs(norm_pair - 1.0) < 1e-12,
                       norm_pair, "1", "cancellation"))
    return checks


_DISC_RATIO_SUITE = ("lambda", "em(m=1)", "powcut(alpha=0.5,N={n})",
                     "powcut(alpha=0.8,N={n})", "power(alpha=1.5)")


def _claim_disc_hardy(cfg: SuiteConfig):
    checks = []
    n = cfg.sharp_n
    ps = (1.25, 1.5, 2.0, 3.0, 10.0)
    n_chks = [n_chk for n_chk in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6) if n_chk <= n]
    ratios = {}  # sequence text -> its ratios at every n_chk, each sequence built once
    for template in _DISC_RATIO_SUITE:
        text = template.format(n=n)
        seq = seq_ops.parse_sequence(text)
        ratios[text] = seq_ops.hardy_ratios(seq, ps, n_chks)
        for p in ps:
            r, bound = ratios[text][(p, n)], (p / (p - 1.0)) ** p
            checks.append(_chk(f"{seq.name}, p={p:g} under the sharp bound",
                               r <= bound, r, f"<= {bound!r}", "sharp constant"))
    gold = golden()["disc"]["sharpness"]
    for p in ps:
        marks = gold[f"{p:g}"]
        text = f"powcut(alpha={1.0 / p!r},N={n})"  # p = 1.25 and 2 are in the suite
        table = ratios.get(text) or seq_ops.hardy_ratios(seq_ops.parse_sequence(text), (p,), n_chks)
        prev = 0.0
        for n_chk in n_chks:
            r = table[(p, n_chk)]
            expected = marks[str(n_chk)]
            ok = abs(r - expected) <= 1e-7 * max(1.0, abs(expected)) and r > prev
            checks.append(_chk(
                f"near-extremal family p={p:g}, N={n_chk}: frozen value and growth",
                ok, r, expected, "frozen oracle"))
            prev = r
    return checks


def _claim_disc_weight(cfg: SuiteConfig):
    checks = []
    e1 = seq_ops.catalog_seq("em", m=1)
    L = seq_ops.l1_log_weight(e1)
    checks.append(_near("single impulse weight is ln 2", L.value, _LN2, 1e-12,
                        "closed-form"))
    lam = seq_ops.catalog_seq("lambda")
    L = seq_ops.l1_log_weight(lam)
    gold = golden()["disc"]["l1_log_weight_lambda"]
    ok = abs(L.value - gold["value"]) <= L.err + gold["abs_err"]
    checks.append(_chk("kernel sequence weighted sum matches the frozen oracle "
                       "within its certified bound", ok, L.value,
                       f"{gold['value']!r} +- {L.err + gold['abs_err']:.3e}",
                       "frozen oracle"))
    L = seq_ops.l1_log_weight(seq_ops.catalog_seq("logdecay", beta=2.0))
    checks.append(_chk("borderline log-decay sequence has divergent weighted sum",
                       L.verdict == "divergent", L.verdict, "divergent",
                       "certified envelope"))
    return checks


def _claim_disc_char_finite(cfg: SuiteConfig):
    checks = []
    for name in ("lambda", "em(m=10)", "power(alpha=1.5)", "power(alpha=2)",
                 "powcut(alpha=0.5,N=10000)"):
        seq = seq_ops.parse_sequence(name)
        L = seq_ops.l1_log_weight(seq)
        norm = seq_ops.l1_norm_mod(seq, cfg.seq_horizon)
        checks.append(_chk(f"{seq.name}: weighted sum finite",
                           L.verdict == "converged", L.verdict, "converged",
                           "integral-test remainder"))
        checks.append(_chk(f"{seq.name}: corrected image summable",
                           norm.verdict == "converged", norm.verdict, "converged",
                           "telescoping tail"))
    return checks


def _claim_disc_char_divergent(cfg: SuiteConfig):
    checks = []
    for name in ("logdecay(beta=1.5)", "logdecay(beta=2)"):
        seq = seq_ops.parse_sequence(name)
        L, norm = seq_ops.l1_log_weight(seq), seq_ops.l1_norm_mod(seq)
        checks.append(_chk(f"{seq.name}: weighted sum divergent", L.verdict == "divergent",
                           L.verdict, "divergent", "certified envelope"))
        checks.append(_chk(f"{seq.name}: corrected image not summable",
                           norm.verdict == "divergent", norm.verdict, "divergent",
                           "harmonic comparison"))
    return checks


def _claim_harmonic(cfg: SuiteConfig):
    checks = []
    checks.append(_chk("fourth harmonic number", seq_ops.harmonic(4) == Fraction(25, 12),
                       seq_ops.harmonic(4), "25/12", "exact rational"))
    checks.append(_near("residual at n=1", seq_ops.gamma_residual(1),
                        1.0 - seq_ops.EULER_GAMMA, 1e-15, "closed-form"))
    ok, worst_lo, worst_hi = seq_ops.scan_gamma_residual(2, 10 ** 6)
    checks.append(_chk("residual trapped between 1/(2(n+1)) and 1/(2n) on "
                       "[2, 10^6]", ok, f"margins ({worst_lo:.3e}, {worst_hi:.3e})",
                       "both > 0", "compensated summation"))
    return checks


def _claim_disc_equiv(cfg: SuiteConfig):
    checks = []
    lam = seq_ops.catalog_seq("lambda")
    ok = all(seq_ops.modified_cesaro(lam, n) == 0 for n in (1, 2, 3, 10, 100))
    L = seq_ops.l1_log_weight(lam)
    denom = seq_ops.EULER_GAMMA * 1.0 + L.value
    checks.append(_chk("kernel counterexample: corrected image is exactly zero "
                       "while the weighted side exceeds 0.6",
                       ok and denom > 0.6, denom, "> 0.6", "counterexample"))
    r1 = seq_ops.disc_equivalence_ratio(seq_ops.catalog_seq("em", m=1))
    checks.append(_near("unit impulse ratio 2/(gamma + ln 2)", r1,
                        2.0 / (seq_ops.EULER_GAMMA + math.log(2.0)), 1e-12, "closed-form"))
    m_max, ratios, closed, mismatched, h = 1000, [], [], [], Fraction(0)
    for m in range(1, m_max + 1):
        norm = seq_ops.l1_norm_mod(seq_ops.catalog_seq("em", m=m)).exact
        h += Fraction(1, m)  # H_m, summed here apart from seq_ops
        expected = h - 1 + Fraction(1, m)
        if norm != expected:
            mismatched.append(m)
        log_w = seq_ops.EULER_GAMMA + math.log(m + 1.0)
        ratios.append((float(norm) + 1.0) / log_w)
        closed.append((float(expected) + 1.0) / log_w)
    lo, hi = min(ratios), max(ratios)
    interval = (min(closed), max(closed))
    inside = (lo >= interval[0] - 1e-12) and (hi <= interval[1] + 1e-12)
    checks.append(_chk("impulse sweep ratios inside the interval of H_m - 1 + 1/m",
                       inside, (lo, hi), interval, "closed-form"))
    checks.append(_chk(f"impulse sweep norms equal H_m - 1 + 1/m exactly at each m "
                       f"in 1..{m_max}", not mismatched,
                       f"{len(mismatched)} differ, the first at m = {mismatched[0]}"
                       if mismatched else "all equal", "all equal", "closed-form"))
    checks.append(_chk("impulse interval bounded away from 0 and infinity",
                       interval[0] > 0 and math.isfinite(interval[1]),
                       interval, "(0, inf)", "closed-form"))
    return checks


# id -> (description, runner, divergence-flavored)
_CLAIMS = {
    "cont.average.oracle_f0": (
        "running average of the two-bump example matches its closed piecewise form",
        lambda cfg: _claim_oracle("f0", cont_ops.oracle_qf0, cfg), False),
    "cont.average.oracle_fe": (
        "running average of the mean-zero example matches its closed piecewise form",
        lambda cfg: _claim_oracle("fe", cont_ops.oracle_qfe, cfg), False),
    "cont.kernel.identities": (
        "kernel profile: average 1/(1+x), unit total, annihilation, weighted norm 2",
        _claim_theta, False),
    "cont.modified.values": (
        "corrected operator: closed-form values and linearity",
        _claim_modified, False),
    "cont.split.order_exchange": (
        "both splits equal their weighted single-integral forms",
        _claim_fubini, False),
    "cont.characterization.finite": (
        "finite weighted norm forces an integrable corrected image (with the "
        "triangle bound against the splits)",
        _claim_char_finite, False),
    "cont.characterization.divergent": (
        "infinite weighted norm forces a non-integrable corrected image",
        _claim_char_divergent, True),
    "cont.mean_zero.necessity": (
        "nonzero total makes the average non-integrable at a log rate; the "
        "mean-zero example keeps a vanishing limit",
        _claim_mean_zero, False),
    "cont.pnorm.sharp_bound": (
        "averaging ratio stays under (p/(p-1))^p and climbs toward it on the "
        "near-extremal cutoff family",
        _claim_cont_hardy, False),
    "cont.equivalence.corrected": (
        "corrected two-sided comparison: sweep ratios inside the closed-form "
        "interval; the kernel profile defeats the uncorrected form",
        _claim_cont_equiv, False),
    "disc.cesaro.kernel": (
        "Cesaro means of the kernel sequence and unit impulses, exact",
        _claim_disc_kernel, False),
    "disc.split.exact_identities": (
        "random rational sequences satisfy the telescoping and rearrangement "
        "identities with zero tolerance",
        _claim_disc_fubini, False),
    "disc.mean_zero.necessity": (
        "nonzero sums force log-divergent mean sequences at rate |sum| ln 2",
        _claim_disc_mean, False),
    "disc.pnorm.sharp_bound": (
        "Cesaro ratio stays under (p/(p-1))^p at N=10^6 and grows along the "
        "near-extremal family per the frozen oracle",
        _claim_disc_hardy, False),
    "disc.weight.values": (
        "log-weighted sums: impulse, kernel sequence, borderline divergence",
        _claim_disc_weight, False),
    "disc.characterization.finite": (
        "finite weighted sum forces a summable corrected image",
        _claim_disc_char_finite, False),
    "disc.characterization.divergent": (
        "divergent weighted sum forces a non-summable corrected image",
        _claim_disc_char_divergent, True),
    "disc.harmonic.asymptotic": (
        "harmonic residual H_n - ln n - gamma trapped in (1/(2(n+1)), 1/(2n))",
        _claim_harmonic, False),
    "disc.equivalence.corrected": (
        "corrected discrete comparison: impulse sweep inside the closed-form "
        "interval; the kernel sequence defeats the uncorrected form",
        _claim_disc_equiv, False),
}


def claim_ids() -> list[str]:
    return sorted(_CLAIMS)


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _crashed(cid: str, exc: BaseException) -> ClaimRecord:
    check = _chk("runner completed", False, repr(exc), "no exception", "runner")
    return ClaimRecord(cid, _CLAIMS[cid][0], FAIL, (check,))


def _run_claim(cid: str, cfg: SuiteConfig) -> ClaimRecord:
    description, runner, divergence = _CLAIMS[cid]
    try:
        checks = tuple(runner(cfg))
    except Exception as exc:  # a crashed runner is a failed claim
        return _crashed(cid, exc)
    if all(c.ok for c in checks):
        verdict = DIVERGENT_OK if divergence else PASS
    elif any(c.computed == "inconclusive" for c in checks if not c.ok):
        verdict = INCONCLUSIVE
    else:
        verdict = FAIL
    return ClaimRecord(cid, description, verdict, checks)


def run_suite(cfg: SuiteConfig) -> list[ClaimRecord]:
    selected = [cid for cid in claim_ids() if fnmatch.fnmatch(cid, cfg.claims)]
    if not selected:
        raise ConfigError(f"claim filter {cfg.claims!r} matches nothing")
    workers = min(len(selected), _usable_cpus()) if hasattr(os, "fork") else 1
    if workers == 1:
        return [_run_claim(cid, cfg) for cid in selected]
    import multiprocessing
    import signal
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    if any(cid.startswith("disc.") for cid in selected):  # seq_ops loads numpy
        import numpy  # noqa: F401  (once, before the fork, for every worker)

    def result(cid, future):
        try:
            return future.result()
        except BrokenExecutor as exc:  # the worker died: the claim failed
            return _crashed(cid, exc)

    # fork carries _CLAIMS; the long disc.* claims, last in id order, go first
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        try:
            futures = {cid: pool.submit(_run_claim, cid, cfg) for cid in reversed(selected)}
            return [result(cid, futures[cid]) for cid in selected]
        finally:  # on an interrupt, start no further claim
            pool.shutdown(cancel_futures=True)


def exit_code(records: list[ClaimRecord]) -> int:
    return 0 if all(r.passed for r in records) else 1


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def report_dict(records: list[ClaimRecord], cfg: SuiteConfig, timestamp: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {"timestamp": timestamp, "seed": cfg.seed, "config": cfg.to_dict()},
        "claims": [r.to_dict() for r in records],
        "summary": {
            "total": len(records),
            "pass": sum(r.verdict == PASS for r in records),
            "divergent_as_expected": sum(r.verdict == DIVERGENT_OK for r in records),
            "fail": sum(r.verdict == FAIL for r in records),
            "inconclusive": sum(r.verdict == INCONCLUSIVE for r in records),
        },
    }


def render_report(records: list[ClaimRecord], cfg: SuiteConfig, timestamp: str) -> str:
    if cfg.fmt == "json":
        return json.dumps(report_dict(records, cfg, timestamp),
                          indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["claim_id", "verdict", "checks", "failed", "description"])
    for r in records:
        writer.writerow([r.claim_id, r.verdict, len(r.checks),
                         sum(not c.ok for c in r.checks), r.description])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def parse_grid(text: str):
    """'lo:hi:step' (or 'lo:hi' with step 1) -> inclusive list of values,
    refused before it is built when it would exceed MAX_FLOAT_TERMS points."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"grid must be lo:hi[:step], got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts + ["1"] * (3 - len(parts)))
    except ValueError as exc:
        raise ConfigError(f"grid entries must be numbers, got {text!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ConfigError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"empty or descending grid {text!r}")
    span = (hi - lo) / step  # inf when the quotient overflows
    if not span < seq_ops.MAX_FLOAT_TERMS:
        raise ConfigError(
            f"grid {text!r} has more than {seq_ops.MAX_FLOAT_TERMS} points")
    n = int(round(span))
    values = [round(lo + i * step, 12) for i in range(n + 1) if lo + i * step <= hi + 1e-12]
    if not values:
        raise ConfigError(f"empty grid {text!r}")
    return values


def _converged(res) -> float | None:
    """A functional's value when it converged; None otherwise."""
    return res.value if res.verdict == "converged" else None


def _cont_row(family: str, params: dict) -> dict:
    rep = cont_ops.build_report(funcspace.catalog(family, **params))
    return {
        "l1_norm": rep.l1_norm,
        "weighted_norm": _converged(rep.weighted_norm),
        "weighted_verdict": rep.weighted_norm.verdict,
        "l1_norm_modified": _converged(rep.l1_norm_modified),
        "modified_verdict": rep.l1_norm_modified.verdict,
        "i1": _converged(rep.i1),
        "i2": _converged(rep.i2),
        "equivalence_ratio": rep.equivalence_ratio,
    }


def _disc_row(family: str, params: dict) -> dict:
    """The report's columns a row shows, without the J1 and J2 it does not."""
    total, norm, weight, ratio = seq_ops.equivalence_sums(seq_ops.catalog_seq(family, **params))
    return {
        "total_sum": _converged(total),
        "log_weight": _converged(weight),
        "weight_verdict": weight.verdict,
        "l1_norm_modified": _converged(norm),
        "norm_verdict": norm.verdict,
        "equivalence_ratio": ratio,
    }


def _sweep(table: dict, kind: str, family: str, param: str, values, fixed: dict,
           row_of, errors) -> tuple[list[dict], dict]:
    """Rows over ``values`` of ``param``, each read by ``row_of`` from the
    report of one family member, and the range of their ratios.  Every
    point's parameters are checked and typed by ``table`` before any row is
    computed; a point that the family's builder or the report refuses with
    one of ``errors`` records it in its row."""
    if family not in table:
        raise ConfigError(f"unknown {kind} family {family!r}")
    points = [funcspace.check_params(table, family, {**fixed, param: v}, ConfigError)
              for v in values]
    rows = []
    for params in points:
        row = {"family": family, param: params[param]}
        try:
            row.update(row_of(family, params))
        except errors as exc:
            row["error"] = str(exc)
        rows.append(row)
    ratios = [r["equivalence_ratio"] for r in rows
              if r.get("equivalence_ratio") is not None]
    return rows, {"ratio_min": min(ratios) if ratios else None,
                  "ratio_max": max(ratios) if ratios else None}


def sweep_cont(family: str, param: str, values, cfg: SuiteConfig,
               fixed: dict | None = None) -> tuple[list[dict], dict]:
    return _sweep(funcspace.FAMILIES, "continuous", family, param, values, fixed or {},
                  _cont_row, (funcspace.ParameterError, funcspace.DomainError, EnvelopeError))


def sweep_disc(family: str, param: str, values, cfg: SuiteConfig,
               fixed: dict | None = None) -> tuple[list[dict], dict]:
    """Rows over ``values`` of ``param``; integer parameters, swept or fixed,
    must be integral and are recorded as integers."""
    defaults = seq_ops.SEQ_DEFAULTS.get(family, {})
    return _sweep(seq_ops.SEQ_FAMILIES, "discrete", family, param, values,
                  {**defaults, **(fixed or {})}, _disc_row, seq_ops.SequenceError)


def sweep_to_csv(rows: list[dict], footer: dict) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    cols = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    buf.write(f"# ratio_min={footer['ratio_min']!r} ratio_max={footer['ratio_max']!r}\n")
    return buf.getvalue()
