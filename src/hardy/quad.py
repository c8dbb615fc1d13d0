"""Adaptive quadrature on (0, inf) with certified tail handling.

The finite-interval workhorse is QUADPACK's Gauss(7)/Kronrod(15) pair QK15
(Piessens et al., 1983), driven by a worst-panel-first heap; panels never
straddle caller-supplied breakpoints, so jump discontinuities cost nothing.

The half line is integrated in the one coordinate v = ln t, which maps
(0, inf) onto the whole real line, the map double-exponential quadrature
(Takahasi & Mori, 1974) starts from.  The two ends of (0, inf) become the
two ends of one line: power decay t**-a at infinity becomes exponential
decay e**-(a-1)v as v -> +inf, and the origin becomes the mirror tail
v -> -inf, walked in w = -v = ln(1/t).  A caller therefore writes one
log-stable density d(v) = g(e**v) * e**v.  Each tail's truncation point is
chosen from a declared decay envelope and the discarded remainder enters the
result as an explicit, auditable ``tail_bound``.

Divergence is a first-class verdict, produced two ways: a declared lower
envelope whose integral diverges (a certificate), or the doubling-scale
probe of partial integrals (a numerical witness of harmonic-type growth).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from .envelopes import Envelope, sum_remainder, sum_v_for_remainder

__all__ = [
    "QuadConfig", "QuadResult", "HalflineResult",
    "ProbeResult", "EvaluationError",
    "integrate", "integrate_halfline", "probe_divergence",
    "DEFAULT_CONFIG", "SAFETY",
]

# Gauss(7)/Kronrod(15) abscissae and weights on [-1, 1].
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)

SAFETY = 10.0  # converged guarantees err_est + tail_bound <= SAFETY * tolerance

# fraction of each side's error budget spent on the truncated tail
_TAIL_SHARE = 0.25
# soft / hard caps on ln(T) when extending a truncation point
_TAIL_V_SOFT = 2.0e5
_TAIL_V_HARD = 1.0e12
_PROBE_DOUBLINGS = 20

_EPS = 2.220446049250313e-16


class EvaluationError(RuntimeError):
    """The integrand produced NaN inside a panel."""


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 60
    max_panels: ClassVar[int] = 4000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_depth < 10:
            raise ValueError("max_depth must be at least 10")

    def tolerance(self, value: float) -> float:
        return max(self.rel_tol * abs(value), self.abs_tol)


DEFAULT_CONFIG = QuadConfig()


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    subdivisions: int
    converged: bool


# ---------------------------------------------------------------------------
# finite intervals
# ---------------------------------------------------------------------------

def _panel(g: Callable[[float], float], lo: float, hi: float):
    """One GK15 panel: returns (k15, err, resabs)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = []
    for x in _XGK:
        if x == 0.0:
            fv.append((g(c),))
        else:
            fv.append((g(c - h * x), g(c + h * x)))
    k15 = g7 = resabs = 0.0
    for i, vals in enumerate(fv):
        s = math.fsum(vals)
        if math.isnan(s):
            raise EvaluationError(f"integrand returned NaN in [{lo}, {hi}]")
        k15 += _WGK[i] * s
        resabs += _WGK[i] * math.fsum(abs(v) for v in vals)
        if i % 2 == 1 or i == 7:
            g7 += _WG[i // 2] * s
    k15 *= h
    g7 *= h
    resabs *= h
    mean = k15 / (hi - lo)
    resasc = h * math.fsum(
        _WGK[i] * math.fsum(abs(v - mean) for v in vals) for i, vals in enumerate(fv))
    diff = abs(k15 - g7)
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    err = max(err, 50.0 * _EPS * resabs)
    return k15, err, resabs


def integrate(
    g: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Adaptive GK15 integral of g over [a, b], 0 < a < b < inf.

    Panels are seeded so that none straddles a supplied breakpoint.  The
    worst panel (largest error estimate) is bisected until the summed error
    meets the tolerance, a panel hits ``max_depth``, or the panel budget runs
    out; the last two cases yield ``converged=False`` and the caller decides.
    """
    if not (0.0 < a < b < math.inf):
        raise ValueError(f"need 0 < a < b < inf, got [{a}, {b}]")
    return _integrate_core(g, a, b, cfg, breakpoints)


def _integrate_core(
    g: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    # same as integrate() but for substituted coordinates (v = ln t can be
    # zero or negative); requires only -inf < a < b < inf
    if not (-math.inf < a < b < math.inf):
        raise ValueError(f"need a finite nonempty interval, got [{a}, {b}]")
    cuts = sorted({a, b} | {p for p in breakpoints if a < p < b})
    heap = []
    frozen = []  # panels at max depth, no longer refinable
    serial = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err, _ = _panel(g, lo, hi)
        heap.append((-err, serial, lo, hi, val, err, 0))
        serial += 1
    heapq.heapify(heap)
    subdivisions = len(heap)

    def totals():
        vals = [item[4] for item in heap] + [item[4] for item in frozen]
        errs = [item[5] for item in heap] + [item[5] for item in frozen]
        return math.fsum(vals), math.fsum(errs)

    while heap:
        value, err_total = totals()
        if err_total <= 0.5 * cfg.tolerance(value):
            break
        if subdivisions >= cfg.max_panels:
            break
        _, _, lo, hi, val, err, depth = heapq.heappop(heap)
        if depth >= cfg.max_depth or (hi - lo) <= 4.0 * _EPS * max(abs(lo), abs(hi)):
            frozen.append((0.0, 0, lo, hi, val, err, depth))
            continue
        mid = 0.5 * (lo + hi)
        for s, e in ((lo, mid), (mid, hi)):
            val, err, _ = _panel(g, s, e)
            heapq.heappush(heap, (-err, serial, s, e, val, err, depth + 1))
            serial += 1
        subdivisions += 1

    panels = sorted(list(heap) + list(frozen), key=lambda item: item[2])
    value = math.fsum(item[4] for item in panels)
    err_est = math.fsum(item[5] for item in panels)
    converged = err_est <= SAFETY * cfg.tolerance(value)
    return QuadResult(value, err_est, subdivisions, converged)


# ---------------------------------------------------------------------------
# half-line integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    verdict: str  # "divergent-log" | "convergent" | "inconclusive"
    partials: tuple[float, ...]
    increments: tuple[float, ...]
    start: float
    floor: float

    @property
    def last_increment(self) -> float:
        return self.increments[-1]


@dataclass(frozen=True)
class HalflineResult:
    verdict: str  # "converged" | "not-converged" | "divergent" | "inconclusive"
    value: float = math.nan
    err_est: float = math.inf
    tail_bound: float = math.inf
    subdivisions: int = 0
    divergent_side: str | None = None
    probe: ProbeResult | None = None

    @property
    def total_error(self) -> float:
        return self.err_est + self.tail_bound

    def require_value(self) -> float:
        if self.verdict not in ("converged", "not-converged"):
            raise ArithmeticError(f"no value available, verdict is {self.verdict}")
        return self.value


def _geometric_seeds(v0: float, v1: float) -> tuple[float, ...]:
    pts = []
    step = max(1.0, 1e-3 * abs(v0))
    v = v0 + step
    while v < v1:
        pts.append(v)
        step *= 2.0
        v = v + step
    return tuple(pts)


def _spot_check_lower(density, envs: tuple[Envelope, ...], v_from: float) -> None:
    """Derived divergence certificates are re-checked against the integrand."""
    for env in envs:
        if not env.certified_divergent():
            continue
        v_lo = max(v_from, math.log(env.valid_from)) + 1e-6
        for i in range(8):
            v = v_lo + i * 1.25
            floor = env.lower * math.exp((1.0 - env.power) * v) * v ** env.logpow
            if density(v) < 0.98 * floor:
                raise ValueError(
                    "declared lower envelope exceeds the integrand; "
                    f"certificate rejected at v={v:.3f}")


def _tail_side(density, v0: float, envs: tuple[Envelope, ...], cfg: QuadConfig):
    """Integrate a log-coordinate tail from v0 with a certified remainder.

    Returns (value, err, tail_bound, subdivisions).
    """
    if not envs:
        raise ValueError("tail integration requires at least one envelope")
    if all(env.is_compact for env in envs):
        v_end = max(math.log(env.valid_from) for env in envs)
        if v_end <= v0:
            return 0.0, 0.0, 0.0, 0
        res = _integrate_core(density, v0, v_end, cfg,
                              breakpoints=_geometric_seeds(v0, v_end))
        return res.value, res.err_est, 0.0, res.subdivisions

    target = cfg.abs_tol * _TAIL_SHARE
    V = min(sum_v_for_remainder(envs, target), _TAIL_V_SOFT)
    V = max(V, v0 + 1e-9)
    res = _integrate_core(density, v0, V, cfg, breakpoints=_geometric_seeds(v0, V))
    value, err, subdivisions = res.value, res.err_est, res.subdivisions
    bound = sum_remainder(envs, V)

    # One extension round: the relative tolerance may allow a much looser
    # remainder than abs_tol (this matters for slowly decaying tails), or the
    # soft cap may have been too tight for the final scale of the value.
    final_target = cfg.tolerance(value) * _TAIL_SHARE
    if bound > final_target:
        V2 = min(sum_v_for_remainder(envs, final_target), _TAIL_V_HARD)
        if V2 > V:
            ext = _integrate_core(density, V, V2, cfg,
                                  breakpoints=_geometric_seeds(V, V2))
            value += ext.value
            err += ext.err_est
            subdivisions += ext.subdivisions
            bound = sum_remainder(envs, V2)
    return value, err, bound, subdivisions


def integrate_halfline(
    density: Callable[[float], float],
    cfg: QuadConfig = DEFAULT_CONFIG,
    origin_envs: tuple[Envelope, ...] = (),
    tail_envs: tuple[Envelope, ...] = (),
    probe_start: float | None = None,
    breakpoints: Sequence[float] = (),
) -> HalflineResult:
    """Integral over (0, inf) of g, given as its density d(v) = g(e**v) * e**v
    on the whole real line; ``breakpoints`` are jumps of g, given in t.

    The tail walks d(v) from ln B0 and the origin walks d(-w) from ln(1/A0),
    each against its envelopes (origin envelopes bound g(1/u) / u**2 in
    u = 1/t); the middle [ln A0, ln B0] is integrated in v.  A lower
    envelope whose integral diverges yields the DIVERGENT verdict (after the
    certificate is spot-checked against the density); an upper envelope
    that fails to integrate and carries no certificate triggers the doubling
    probe, whose inconclusive outcome is reported as such, never silently
    converted.
    """
    if not origin_envs or not tail_envs:
        raise ValueError("half-line integration needs envelopes on both sides")

    def origin_density(w: float) -> float:
        return density(-w)

    for side, envs, side_density in (("origin", origin_envs, origin_density),
                                     ("tail", tail_envs, density)):
        if any(env.certified_divergent() for env in envs):
            certified = tuple(e for e in envs if e.certified_divergent())
            _spot_check_lower(side_density, certified, math.log(certified[0].valid_from))
            return HalflineResult(verdict="divergent", divergent_side=side)

    for side, envs, side_density in (("tail", tail_envs, density),
                                     ("origin", origin_envs, origin_density)):
        if all(env.integrable() for env in envs):
            continue
        # no certificate and no integrable bound: fall back to the probe,
        # first in t (or u = 1/t), where g(t) = d(ln t) / t
        start = probe_start if (probe_start is not None and side == "tail") else math.e
        probe = probe_divergence(lambda t: side_density(math.log(t)) / t, start, cfg)
        if probe.verdict == "divergent-log":
            return HalflineResult(verdict="divergent", divergent_side=side, probe=probe)
        if probe.verdict == "inconclusive":
            # second look on the doubly logarithmic scale
            probe2 = probe_divergence(side_density, max(math.e, math.log(start) + 1.0), cfg)
            if probe2.verdict == "divergent-log":
                return HalflineResult(verdict="divergent", divergent_side=side, probe=probe2)
            return HalflineResult(verdict="inconclusive", divergent_side=side, probe=probe2)
        return HalflineResult(verdict="inconclusive", divergent_side=side, probe=probe)

    bps = tuple(sorted(breakpoints))
    u_valid = max(env.valid_from for env in origin_envs)
    A0 = min([1.0, 1.0 / u_valid] + [b for b in bps if b > 0.0])
    B0 = max([1.0] + list(bps) + [
        env.valid_from for env in tail_envs if not env.is_compact])
    w0, v0 = math.log(1.0 / A0), math.log(B0)
    inner = tuple(math.log(b) for b in bps if A0 < b < B0)

    middle = _integrate_core(density, -w0, v0, cfg, breakpoints=inner)
    t_val, t_err, t_bound, t_sub = _tail_side(density, v0, tail_envs, cfg)
    o_val, o_err, o_bound, o_sub = _tail_side(origin_density, w0, origin_envs, cfg)

    value = math.fsum((middle.value, t_val, o_val))
    err = math.fsum((middle.err_est, t_err, o_err))
    bound = t_bound + o_bound
    subdivisions = middle.subdivisions + t_sub + o_sub
    converged = (err + bound) <= SAFETY * cfg.tolerance(value)
    return HalflineResult(
        verdict="converged" if converged else "not-converged",
        value=value, err_est=err, tail_bound=bound, subdivisions=subdivisions)


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------

def probe_divergence(
    g: Callable[[float], float],
    start: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> ProbeResult:
    """Classify the tail of a (eventually nonnegative) integrand.

    Computes the partial integrals P(k) over [start, start * 2**k] for
    k = 1..K and inspects the doubling increments:

    * increments settled in a stable positive band  -> "divergent-log"
      (the signature of a c/t tail, whose increments approach c * ln 2);
    * increments decaying geometrically             -> "convergent";
    * anything else                                 -> "inconclusive".
    """
    if start <= 0.0:
        raise ValueError("probe start must be positive")
    probe_cfg = QuadConfig(rel_tol=max(cfg.rel_tol, 1e-9), abs_tol=cfg.abs_tol,
                           max_depth=cfg.max_depth)
    increments = []
    lo = start
    for _ in range(_PROBE_DOUBLINGS):
        hi = lo * 2.0
        window = [p for p in breakpoints if lo < p < hi]
        increments.append(integrate(g, lo, hi, probe_cfg, breakpoints=window).value)
        lo = hi
    partials = []
    acc = 0.0
    for inc in increments:
        acc += inc
        partials.append(acc)

    floor = max(1e3 * cfg.abs_tol, 1e-6 * max(increments, default=0.0))
    late = increments[-5:]
    verdict = "inconclusive"
    if min(increments) < -10.0 * cfg.abs_tol:
        verdict = "inconclusive"  # integrand not eventually nonnegative
    elif max(late) <= floor:
        verdict = "convergent"
    elif all(d > 0 for d in late) and all(
            late[i + 1] / late[i] <= 0.8 for i in range(len(late) - 1)):
        verdict = "convergent"
    elif min(late) >= floor and max(late) <= 2.5 * min(late):
        verdict = "divergent-log"
    return ProbeResult(verdict, tuple(partials), tuple(increments), start, floor)
