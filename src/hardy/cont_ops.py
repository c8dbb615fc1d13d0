"""The averaging operator on (0, inf), its mean-zero correction, and the
logarithmically weighted norm that characterizes when the corrected image is
integrable.

Notation used throughout this module:

    Q f(x) = (1/x) * int_0^x f(t) dt               (running average)
    H f(x) = Q f(x) - (int_0^inf f) / (1 + x)      (mean-zero correction)
    w(t)   = ln(1 + 1/t) + ln(1 + t)               (two-sided log weight)
    W(f)   = int_0^inf |f(t)| w(t) dt
    I1     = int_0^inf (1/x - 1/(x+1)) (int_0^x |f|) dx
    I2     = int_0^inf (x+1)^-1 (int_x^inf |f|) dx

The splits I1 and I2 are computed as genuine iterated double integrals (outer
quadrature over an inner cumulative integral); the single-integral identities
I1 = int |f| ln(1+1/t) dt and I2 = int |f| ln(1+t) dt are computed separately
so the two routes can be compared as an order-of-integration check.

Each half-line functional is written once, as its density d(v) = g(e**v) e**v
in v = ln t on the whole real line (see :func:`hardy.quad.integrate_halfline`);
where the far tail and the origin need different cancellation-free forms,
the density branches on the sign of v.  Cumulative integrals F and T come
exactly from the piecewise antiderivatives, so every piece must carry one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .envelopes import Envelope
from .funcspace import DomainError, TestFunction, absolute, total_integral_exact
from .quad import (
    DEFAULT_CONFIG, HalflineResult, ProbeResult, QuadConfig, integrate_halfline,
    probe_divergence,
)

__all__ = [
    "hardy_avg", "oracle_qf0", "oracle_qfe", "modified_hardy",
    "log_weight_norm", "split_i1", "split_i2", "fubini_check_cont",
    "l1_norm_modified", "mean_limit_check", "equivalence_ratio",
    "cont_hardy_ratio", "total_integral",
    "FubiniReport", "MeanLimitReport", "ContReport", "build_report",
]

_E = math.e

# w(t) <= (1 + ln 2 + 1/e) ln t for t >= e, and w is symmetric under t -> 1/t
_W_UP = 1.0 + math.log(2.0) + 1.0 / _E


def weight(t: float) -> float:
    """The two-sided logarithmic weight ln(1 + 1/t) + ln(1 + t)."""
    if t <= 0.0:
        raise DomainError("weight defined for t > 0")
    return math.log1p(1.0 / t) + math.log1p(t)


def _weight_logarg(v: float) -> float:
    """weight(e**v), stable for any v; symmetric in v -> -v."""
    av = abs(v)
    return av + 2.0 * math.log1p(math.exp(-av))


def _ln1p_exp(v: float) -> float:
    """ln(1 + e**v), stable for large |v|."""
    if v > 35.0:
        return v + math.log1p(math.exp(-v))
    return math.log1p(math.exp(v))


def _is_nonnegative(f: TestFunction) -> bool:
    return all(p.sign is not None and p.sign >= 0 for p in f.pieces)


def _probe_start(f: TestFunction) -> float:
    anchors = [_E] + list(f.breakpoints)
    if f.tail.kind == "compact":
        anchors.append(f.tail.support_end)
    else:
        anchors.append(f.tail.valid_from)
    return 2.0 * max(anchors)


# ---------------------------------------------------------------------------
# cumulative integrals through the piecewise antiderivatives
# ---------------------------------------------------------------------------

def _require_antiderivatives(f: TestFunction) -> None:
    for p in f.pieces:
        if p.antiderivative is None:
            raise DomainError(
                f"{f.name}: piece on ({p.lo}, {p.hi}] has no antiderivative")


class _Cumulative:
    """F(x) = int_0^x f and T(x) = int_x^inf f, exact within each piece."""

    def __init__(self, f: TestFunction):
        _require_antiderivatives(f)
        self.f = f
        # prefix[i] = int_0^{lo_i} f
        prefix = [0.0]
        for p in f.pieces[:-1]:
            lo = p.antiderivative.eval(p.lo)
            hi = p.antiderivative.eval(p.hi)
            prefix.append(prefix[-1] + (hi - lo))
        self._prefix = prefix
        self._first_base = f.pieces[0].antiderivative.eval(0.0)
        last = f.pieces[-1]
        self._last_inf = last.antiderivative.eval(math.inf)
        self.total = prefix[-1] + (self._last_inf - last.antiderivative.eval(last.lo))

    def value(self, x: float) -> float:
        if x <= 0.0:
            raise DomainError("cumulative integral needs x > 0")
        i = self.f.piece_index(x)
        p = self.f.pieces[i]
        base = self._first_base if i == 0 else p.antiderivative.eval(p.lo)
        return self._prefix[i] + (p.antiderivative.eval(x) - base)

    def value_logarg(self, v: float) -> float:
        """F(e**v), stable far beyond the float range of e**v itself."""
        if v > 690.0:
            p = self.f.pieces[-1]
            la, s = p.antiderivative.log_eval(v)
            aval = s * math.exp(la)
            return self._prefix[-1] + (aval - p.antiderivative.eval(p.lo))
        if v < -690.0:
            p = self.f.pieces[0]
            la, s = p.antiderivative.log_eval(v)
            return s * math.exp(la) - self._first_base
        return self.value(math.exp(v))

    def tail(self, x: float) -> float:
        """int_x^inf f, computed without subtracting nearly equal totals."""
        pieces = self.f.pieces
        i = self.f.piece_index(x)
        last = pieces[-1]
        if i == len(pieces) - 1:
            return self._last_inf - last.antiderivative.eval(x)
        p = pieces[i]
        out = p.antiderivative.eval(p.hi) - p.antiderivative.eval(x)
        for q in pieces[i + 1:-1]:
            out += q.antiderivative.eval(q.hi) - q.antiderivative.eval(q.lo)
        return out + (self._last_inf - last.antiderivative.eval(last.lo))

    def tail_logarg(self, v: float) -> float:
        if v > 690.0:
            p = self.f.pieces[-1]
            la, s = p.antiderivative.log_eval(v)
            return self._last_inf - s * math.exp(la)
        return self.tail(math.exp(v))


def _cumulative_abs(f: TestFunction) -> _Cumulative:
    """The cumulatives of |f|."""
    return _Cumulative(f if _is_nonnegative(f) else absolute(f))


def total_integral(f: TestFunction) -> float:
    """int_0^inf f, exact through the piecewise antiderivatives."""
    _require_antiderivatives(f)
    exact = total_integral_exact(f)
    if math.isinf(exact):
        raise DomainError(f"{f.name}: total integral diverges")
    return exact


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def hardy_avg(f: TestFunction, x: float) -> float:
    """Q f(x): the average of f over (0, x)."""
    if x <= 0.0:
        raise DomainError("hardy_avg needs x > 0")
    return _Cumulative(f).value(x) / x


def modified_hardy(f: TestFunction, x: float) -> float:
    """H f(x) = Q f(x) - (int_0^inf f) / (1 + x)."""
    if x <= 0.0:
        raise DomainError("modified_hardy needs x > 0")
    m = total_integral(f)
    return _Cumulative(f).value(x) / x - m / (1.0 + x)


def oracle_qf0(x: float) -> float:
    """Closed form of Q f0 for f0 = (1_(1,2] - 1_(3,4])/t."""
    if x <= 0.0:
        raise DomainError("needs x > 0")
    if x <= 1.0:
        return 0.0
    if x <= 2.0:
        return math.log(x) / x
    if x <= 3.0:
        return math.log(2.0) / x
    if x <= 4.0:
        return (math.log(6.0) - math.log(x)) / x
    return math.log(1.5) / x


def oracle_qfe(x: float) -> float:
    """Closed form of Q fe for fe = (1_(0,1/e) - 1_(e,inf)) / (t ln(t)**2)."""
    if x <= 0.0:
        raise DomainError("needs x > 0")
    if x <= 1.0 / _E:
        return -1.0 / (x * math.log(x))
    if x < _E:
        return 1.0 / x
    return 1.0 / (x * math.log(x))


# ---------------------------------------------------------------------------
# weighted norm and the I1 / I2 split
# ---------------------------------------------------------------------------

def _abs_density(f: TestFunction):
    """v -> |f(e**v)| e**v, the density of int |f| dt in v = ln t."""
    def density(v: float) -> float:
        return math.exp(f.log_eval(v)[0] + v)
    return density


def _env_weight_full(env: Envelope) -> Envelope:
    """Envelope after multiplying by the full weight w(t) (or w(1/u))."""
    return Envelope(env.coeff * _W_UP, env.power, env.logpow + 1.0,
                    env.valid_from, lower=env.lower)


def log_weight_norm(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG) -> HalflineResult:
    """W(f) = int |f| w dt; DIVERGENT when a declared lower envelope or the
    doubling probe certifies it."""
    abs_density = _abs_density(f)
    return integrate_halfline(
        lambda v: abs_density(v) * _weight_logarg(v), cfg,
        origin_envs=(_env_weight_full(f.origin.envelope_reciprocal()),),
        tail_envs=(_env_weight_full(f.tail.envelope()),),
        probe_start=_probe_start(f), breakpoints=f.breakpoints,
    )


def _over_t(env: Envelope) -> Envelope:
    """Envelope of g/t from that of g (of g/u at the origin, in u = 1/t)."""
    return Envelope(env.coeff, env.power + 1.0, env.logpow, env.valid_from)


def _single_weight_result(f: TestFunction, side: str, cfg: QuadConfig) -> HalflineResult:
    """int |f| ln(1+1/t) dt (side='small') or int |f| ln(1+t) dt (side='large').

    Each weight grows like a logarithm at one end (``Envelope.weighted_log``)
    and, by ln(1 + x) <= x, decays at least like 1/t or 1/u at the other.
    """
    abs_density = _abs_density(f)
    env_o = f.origin.envelope_reciprocal()
    env_t = f.tail.envelope()
    if side == "small":
        # ln(1 + 1/t) = ln(1 + e**-v) = ln(1 + u)
        density = lambda v: abs_density(v) * _ln1p_exp(-v)
        origin, tail = env_o.weighted_log(), _over_t(env_t)
    elif side == "large":
        density = lambda v: abs_density(v) * _ln1p_exp(v)
        origin, tail = _over_t(env_o), env_t.weighted_log()
    else:
        raise ValueError(side)
    return integrate_halfline(density, cfg, origin_envs=(origin,), tail_envs=(tail,),
                              probe_start=_probe_start(f), breakpoints=f.breakpoints)


def split_i1(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG) -> HalflineResult:
    """I1 as the iterated double integral int (1/x - 1/(x+1)) F(x) dx,
    F(x) = int_0^x |f|."""
    cum = _cumulative_abs(f)

    def density(v: float) -> float:
        # F(e^v) / (e^v + 1)
        if v > 690.0:
            return cum.value_logarg(v) * math.exp(-v)
        if v < -690.0:
            return cum.value_logarg(v)
        t = math.exp(v)
        return cum.value(t) / (t + 1.0)

    # F(x)/(x(x+1)) <= F(x)/x at the origin and <= total/x**2 at infinity
    tail_env = Envelope(max(cum.total, 1e-300), 2.0, 0.0)
    return integrate_halfline(density, cfg, origin_envs=(f.origin.averaged_envelope(),),
                              tail_envs=(tail_env,), probe_start=_probe_start(f),
                              breakpoints=f.breakpoints)


def split_i2(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG) -> HalflineResult:
    """I2 as the iterated double integral int (x+1)^-1 T(x) dx,
    T(x) = int_x^inf |f|."""
    cum = _cumulative_abs(f)

    def density(v: float) -> float:
        # T(e^v) * e^v / (e^v + 1)
        if v > 690.0:
            return cum.tail_logarg(v)
        if v < -690.0:
            return 0.0  # T(t) t / (t+1) <= m * e^v, below any tolerance here
        t = math.exp(v)
        return cum.tail(t) * t / (t + 1.0)

    # T(x)/(x+1) <= T(x)/x at infinity and <= total/u**2 at the origin
    origin_env = Envelope(max(cum.total, 1e-300), 2.0, 0.0)
    return integrate_halfline(density, cfg, origin_envs=(origin_env,),
                              tail_envs=(f.tail.averaged_envelope(),),
                              probe_start=_probe_start(f),
                              breakpoints=f.breakpoints)


@dataclass(frozen=True)
class FubiniReport:
    name: str
    i1_double: HalflineResult
    i1_single: HalflineResult
    i2_double: HalflineResult
    i2_single: HalflineResult

    @staticmethod
    def _agrees(a: HalflineResult, b: HalflineResult) -> bool:
        if a.verdict == b.verdict == "divergent":
            return True
        if a.verdict not in ("converged", "not-converged"):
            return False
        if b.verdict not in ("converged", "not-converged"):
            return False
        return abs(a.value - b.value) <= 10.0 * (a.total_error + b.total_error)

    @property
    def i1_pass(self) -> bool:
        return self._agrees(self.i1_double, self.i1_single)

    @property
    def i2_pass(self) -> bool:
        return self._agrees(self.i2_double, self.i2_single)

    @property
    def passed(self) -> bool:
        return self.i1_pass and self.i2_pass


def fubini_check_cont(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG) -> FubiniReport:
    """Order-of-integration check: each split equals its weighted single
    integral within ten times the combined error estimates."""
    return FubiniReport(
        name=f.name,
        i1_double=split_i1(f, cfg),
        i1_single=_single_weight_result(f, "small", cfg),
        i2_double=split_i2(f, cfg),
        i2_single=_single_weight_result(f, "large", cfg),
    )


# ---------------------------------------------------------------------------
# L1 norm of the corrected image
# ---------------------------------------------------------------------------

def _modified_envelopes(f: TestFunction, m: float):
    """Upper (and where derivable, lower) envelopes for |H f|.

    Tail side, from H f(x) = m/(x(x+1)) - T(x)/x with T(x) = int_x^inf f:
        |H f(x)| <= |m| x^-2 + T(x) / x,
    bounded by the kernel term and the tail class's averaged envelope A.
    When A carries a divergence certificate and f >= 0, T(x)/x >= 2 A_lower(x)
    (see ``funcspace._averaged_lower``), so
        |H f(x)| >= T(x)/x - |m| x^-2 >= A_lower(x)
    from the first doubling of valid_from where x^2 A_lower(x) >= |m|.  The
    origin side is the same in u = 1/x, with F(x) = int_0^x f in place of T;
    a bounded origin folds the kernel term into its own u^-2 envelope.
    """
    am = abs(m)
    nonneg = _is_nonnegative(f)

    def side(avg: Envelope) -> tuple[Envelope, ...]:
        if nonneg and avg.certified_divergent():
            x0 = avg.valid_from  # A_lower is the upper bound scaled by lower/coeff
            while avg.value(x0) * x0 * x0 * avg.lower / avg.coeff < am and x0 < 1e300:
                x0 *= 2.0
            return (replace(avg, valid_from=x0),)
        kernel = Envelope(max(am, 1e-300), 2.0, 0.0)
        return (kernel,) if avg.is_compact else (kernel, replace(avg, lower=None))

    org_avg = f.origin.averaged_envelope()
    if f.origin.kind == "bounded":
        origin_envs = (Envelope(org_avg.coeff + am, 2.0, 0.0, org_avg.valid_from),)
    else:
        origin_envs = side(org_avg)
    return origin_envs, side(f.tail.averaged_envelope())


def l1_norm_modified(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG) -> HalflineResult:
    """int_0^inf |H f(x)| dx, with DIVERGENT as a first-class outcome."""
    m = total_integral(f)
    cum = _Cumulative(f)

    def density(v: float) -> float:
        if v >= 0.0:
            # |H f(e^v)| e^v = |m/(e^v + 1) - T(e^v)|
            if v > 690.0:
                return abs(math.exp(math.log(abs(m)) - v) - cum.tail_logarg(v)) \
                    if m != 0.0 else abs(cum.tail_logarg(v))
            t = math.exp(v)
            return abs(m / (t + 1.0) - cum.tail(t))
        # |H f(e^v)| e^v = |F(e^v) - m e^v/(1 + e^v)|
        t = math.exp(v) if v > -690.0 else 0.0
        return abs(cum.value_logarg(v) - m * t / (1.0 + t))

    origin_envs, tail_envs = _modified_envelopes(f, m)
    return integrate_halfline(density, cfg, origin_envs=origin_envs,
                              tail_envs=tail_envs, probe_start=_probe_start(f),
                              breakpoints=f.breakpoints)


# ---------------------------------------------------------------------------
# mean-limit diagnostics and ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanLimitReport:
    name: str
    xs: tuple[float, ...]
    scaled_values: tuple[float, ...]          # x * Qf(x) = int_0^x f
    total_integral: float
    limit_estimate: float                     # exact lim x Qf(x), the total
    tail_bound_at_last: float
    consistent: bool                          # |last sample - total| within bounds
    probe: ProbeResult | None
    probe_rate_target: float                  # |limit| * ln 2
    probe_rate_ok: bool

    @property
    def limit_is_zero(self) -> bool:
        return abs(self.limit_estimate) <= 1e-12


def mean_limit_check(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG,
                     decades: float = 6.0) -> MeanLimitReport:
    """Samples x Qf(x) across >= 4 decades and checks convergence to the
    total integral within the certified tail bound.

    The limit itself is estimated through the total integral (the identity
    x Qf(x) = int_0^x f makes the two interchangeable); the samples then
    corroborate it within the declared tail remainder.  When the limit is
    nonzero the doubling probe must flag |Qf| as logarithmically divergent
    with increments near |limit| * ln 2.
    """
    if decades < 4.0:
        raise ValueError("need at least four decades of samples")
    m = total_integral(f)
    cum = _Cumulative(f)
    n = int(2 * decades) + 1
    xs = tuple(10.0 ** (decades * i / (n - 1)) * 1.0137 for i in range(n))
    values = tuple(cum.value(x) for x in xs)

    tail_bound = f.tail.remainder(xs[-1])
    consistent = abs(values[-1] - m) <= tail_bound + 1e-6 * max(1.0, abs(m))

    probe = None
    rate_target = abs(m) * math.log(2.0)
    rate_ok = True
    if abs(m) > 1e-9:
        probe = probe_divergence(lambda x: abs(cum.value(x) / x), _probe_start(f), cfg,
                                 breakpoints=f.breakpoints)
        rate_ok = (probe.verdict == "divergent-log"
                   and abs(probe.last_increment - rate_target) <= 0.1 * rate_target)
    return MeanLimitReport(
        name=f.name, xs=xs, scaled_values=values,
        total_integral=m, limit_estimate=m,
        tail_bound_at_last=tail_bound, consistent=consistent,
        probe=probe, probe_rate_target=rate_target, probe_rate_ok=rate_ok,
    )


def equivalence_ratio(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """R(f) = (l1 norm of H f + l1 norm of f) / W(f) for nonnegative f.

    The l1 norm of f is added on the left because the correction kernel
    (theta) annihilates under H while carrying W(theta) = 2, so the bare
    quotient admits no universal lower constant.
    """
    if not _is_nonnegative(f):
        raise DomainError("equivalence ratio defined for nonnegative functions")
    wf = log_weight_norm(f, cfg)
    if wf.verdict not in ("converged", "not-converged"):
        raise DomainError(f"{f.name}: weighted norm is {wf.verdict}")
    if wf.value <= wf.total_error:
        raise DomainError(f"{f.name}: weighted norm vanishes; function is a.e. zero")
    hf = l1_norm_modified(f, cfg).require_value()
    l1 = total_integral(absolute(f))
    return (hf + l1) / wf.value


def cont_hardy_ratio(f: TestFunction, p: float,
                     cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """[int (Qf)^p] / [int f^p] for nonnegative f; bounded by (p/(p-1))^p."""
    if not 1.0 < p < math.inf:
        raise DomainError("exponent must lie in (1, inf)")
    if not _is_nonnegative(f):
        raise DomainError("ratio defined for nonnegative functions")
    org = f.origin
    if org.kind == "power_log" or (org.kind == "power" and p * org.alpha >= 1.0):
        raise DomainError(f"{f.name} is not p-integrable near the origin for p={p}")
    m = total_integral(f)
    cum = _Cumulative(f)

    def num_density(v: float) -> float:
        # (F(e^v) / e^v)^p e^v
        F = cum.value_logarg(v)
        if F <= 0.0:
            return 0.0
        if v >= 0.0:
            return math.exp(p * math.log(F) + (1.0 - p) * v)
        return math.exp(p * (math.log(F) - v) + v)

    # in u = 1/t, (F(1/u) u)^p / u**2 and |f(1/u)|^p / u**2 are at most the
    # averaged and the declared constant, to the p, times u^(p alpha - 2)
    # (a bounded origin has alpha = 0)
    avg = org.averaged_envelope()
    power = 2.0 - p * org.alpha
    num_origin = Envelope(avg.coeff ** p, power, 0.0, avg.valid_from)
    den_origin = Envelope(org.coeff ** p, power, 0.0, avg.valid_from)
    num_tail = Envelope(max(abs(m) ** p, 1e-300), p, 0.0)
    env = f.tail.envelope()  # raised to the p for |f|^p at infinity
    den_tail = Envelope(env.coeff ** p, p * env.power, p * env.logpow, env.valid_from)

    num = integrate_halfline(num_density, cfg, origin_envs=(num_origin,),
                             tail_envs=(num_tail,), breakpoints=f.breakpoints)
    if num.verdict not in ("converged", "not-converged"):
        raise ArithmeticError(
            f"{f.name}: p-norm of the average did not resolve ({num.verdict}); "
            "this contradicts the averaging bound and flags a defect")

    den = integrate_halfline(lambda v: math.exp(p * f.log_eval(v)[0] + v), cfg,
                             origin_envs=(den_origin,), tail_envs=(den_tail,),
                             breakpoints=f.breakpoints)
    den_val = den.require_value()
    if den_val <= den.total_error:
        raise DomainError(f"{f.name}: p-norm denominator vanishes")
    return num.require_value() / den_val


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _functional_dict(res: HalflineResult) -> dict:
    out = {"verdict": res.verdict}
    if res.verdict in ("converged", "not-converged"):
        out["value"] = res.value
        out["err_est"] = res.err_est
        out["tail_bound"] = res.tail_bound
    if res.divergent_side is not None:
        out["divergent_side"] = res.divergent_side
    return out


@dataclass(frozen=True)
class ContReport:
    name: str
    total_integral: float
    l1_norm: dict
    weighted_norm: dict
    l1_norm_modified: dict
    i1: dict
    i2: dict
    equivalence_ratio: float | None
    rel_tol: float
    abs_tol: float

    def to_dict(self) -> dict:
        return {
            "function": self.name,
            "total_integral": {"value": self.total_integral, "err_est": 0.0},
            "l1_norm": self.l1_norm,
            "weighted_norm": self.weighted_norm,
            "l1_norm_modified": self.l1_norm_modified,
            "i1": self.i1,
            "i2": self.i2,
            "equivalence_ratio": self.equivalence_ratio,
            "tolerances": {"rel_tol": self.rel_tol, "abs_tol": self.abs_tol},
        }


def build_report(f: TestFunction, cfg: QuadConfig = DEFAULT_CONFIG) -> ContReport:
    m = total_integral(f)
    l1_cum = _cumulative_abs(f)
    wf = log_weight_norm(f, cfg)
    hf = l1_norm_modified(f, cfg)
    i1 = split_i1(f, cfg)
    i2 = split_i2(f, cfg)
    ratio = None
    if _is_nonnegative(f) and wf.verdict in ("converged", "not-converged") \
            and wf.value > wf.total_error and hf.verdict in ("converged", "not-converged"):
        ratio = (hf.value + l1_cum.total) / wf.value
    return ContReport(
        name=f.name,
        total_integral=m,
        # exact through the antiderivatives of |f|
        l1_norm={"verdict": "converged", "value": l1_cum.total,
                 "err_est": 0.0, "tail_bound": 0.0},
        weighted_norm=_functional_dict(wf),
        l1_norm_modified=_functional_dict(hf),
        i1=_functional_dict(i1),
        i2=_functional_dict(i2),
        equivalence_ratio=ratio,
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
    )
