"""Adaptive quadrature on (0, inf) with certified tail handling.

The finite-interval workhorse is QUADPACK's Gauss(7)/Kronrod(15) pair QK15
(Piessens et al., 1983), driven by a worst-panel-first heap; panels never
straddle caller-supplied breakpoints, so jump discontinuities cost nothing.
A walk stops at a worst panel that cannot be split: depth 60 or 4 eps wide.

The half line is integrated in the one coordinate v = ln t, which maps
(0, inf) onto the whole real line, the map double-exponential quadrature
(Takahasi & Mori, 1974) starts from.  The two ends of (0, inf) become the
two ends of one line: power decay t**-a at infinity becomes exponential
decay e**-(a-1)v as v -> +inf, and the origin becomes the mirror tail
v -> -inf, walked in w = -v = ln(1/t).  A caller therefore writes one
log-stable density d(v) = g(e**v) * e**v.  An end is either closed or walked
against its envelopes.  A caller hands over an end with a closed form past a
cut (``closed_tail``, ``closed_origin``): a power-log tail, whose walk can
run to v = 1e12, or an end where g is a kernel term or 0; then only the part
up to the cut is integrated.  Any other end's truncation point is chosen from
its declared decay envelopes and the discarded remainder enters the result
as an explicit, auditable ``tail_bound``.

Divergence is a first-class verdict, and only a proof issues it: a declared
lower envelope whose integral diverges, spot-checked against the density.
An end whose upper envelopes do not integrate and that carries no such
certificate is ``inconclusive``.  The doubling-scale probe of partial
integrals (``probe_divergence``) is a numerical witness of harmonic-type
growth, read as a rate diagnostic, never as a verdict of a half-line integral.

Half-line integrals run at the one fixed precision ``DEFAULT_CONFIG``, apart
from a tail's extension round, which is walked to its share of the whole
integral's budget; ``integrate`` takes a config, as the probe's windows run
looser.
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
    max_depth: ClassVar[int] = 60
    max_panels: ClassVar[int] = 4000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")

    def tolerance(self, value: float) -> float:
        return max(self.rel_tol * abs(value), self.abs_tol)


DEFAULT_CONFIG = QuadConfig()
_PROBE_CONFIG = QuadConfig(rel_tol=1e-9)


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    subdivisions: int
    converged: bool


# ---------------------------------------------------------------------------
# finite intervals
# ---------------------------------------------------------------------------

def _fsum_pair(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    """(a + b, |a| + |b|) by ``math.fsum``, which raises on an overflow or on
    inf - inf; a NaN is an EvaluationError."""
    s = math.fsum((a, b))
    if s != s:
        raise EvaluationError(f"integrand returned NaN in [{lo}, {hi}]")
    return s, math.fsum((abs(a), abs(b)))


def _panel(g: Callable[[float], float], lo: float, hi: float):
    """One GK15 panel: returns (k15, err, resabs).

    g runs at the left then the right point of each abscissa pair, and at
    the centre last.  Each pair is summed with a plain +, which for finite
    values is the correctly rounded sum that ``math.fsum`` gives.  Where a
    sum is not finite (a NaN, an infinity or an overflow), ``fsum`` decides
    each pair in turn, so it raises or returns as it always has.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pairs = [(g(c - h * x), g(c + h * x)) for x in _XGK[:7]]
    fc = g(c)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6) = pairs
    s0, s1, s2, s3, s4, s5, s6 = a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6
    r0, r1, r2, r3 = abs(a0) + abs(b0), abs(a1) + abs(b1), abs(a2) + abs(b2), abs(a3) + abs(b3)
    r4, r5, r6 = abs(a4) + abs(b4), abs(a5) + abs(b5), abs(a6) + abs(b6)
    if not r0 + r1 + r2 + r3 + r4 + r5 + r6 < math.inf:
        (s0, r0), (s1, r1), (s2, r2), (s3, r3), (s4, r4), (s5, r5), (s6, r6) = [
            _fsum_pair(a, b, lo, hi) for a, b in pairs]
    if fc != fc:
        raise EvaluationError(f"integrand returned NaN in [{lo}, {hi}]")
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    # each weighted sum runs from 0.0 in index order, as an accumulating loop
    # would, so it rounds alike and a sum of -0.0 terms is +0.0
    k15 = h * (0.0 + w0 * s0 + w1 * s1 + w2 * s2 + w3 * s3 + w4 * s4 + w5 * s5 + w6 * s6
               + w7 * fc)
    g7 = h * (0.0 + _WG[0] * s1 + _WG[1] * s3 + _WG[2] * s5 + _WG[3] * fc)
    resabs = h * (0.0 + w0 * r0 + w1 * r1 + w2 * r2 + w3 * r3 + w4 * r4 + w5 * r5 + w6 * r6
                  + w7 * abs(fc))
    mean = k15 / (hi - lo)
    asc = [w * (abs(a - mean) + abs(b - mean)) for (a, b), w in zip(pairs, _WGK)]
    asc.append(w7 * abs(fc - mean))
    resasc = math.fsum(asc)
    if not resasc < math.inf:
        resasc = math.fsum([w * math.fsum((abs(a - mean), abs(b - mean)))
                            for (a, b), w in zip(pairs, _WGK)] + [w7 * abs(fc - mean)])
    resasc *= h
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
    meets half the tolerance, the panel budget runs out, or that panel cannot
    be split (it is at depth ``max_depth`` = 60, or 4 eps wide); in every case
    ``converged`` means err_est <= SAFETY * tolerance, and the caller decides.
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
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err, _ = _panel(g, lo, hi)
        heap.append((-err, len(heap), lo, hi, val, err, 0))
    heapq.heapify(heap)
    subdivisions = serial = len(heap)

    while True:
        value = math.fsum(item[4] for item in heap)
        err_est = math.fsum(item[5] for item in heap)
        if not (math.isfinite(value) and math.isfinite(err_est)):
            break  # an infinite or NaN total ends the walk, not converged
        if err_est <= 0.5 * cfg.tolerance(value) or subdivisions >= cfg.max_panels:
            break
        _, _, lo, hi, _, _, depth = heap[0]
        if depth >= cfg.max_depth or (hi - lo) <= 4.0 * _EPS * max(abs(lo), abs(hi)):
            break  # the worst panel cannot be split, and its error stays in the total
        heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for s, e in ((lo, mid), (mid, hi)):
            val, err, _ = _panel(g, s, e)
            heapq.heappush(heap, (-err, serial, s, e, val, err, depth + 1))
            serial += 1
        subdivisions += 1

    converged = math.isfinite(value) and err_est <= SAFETY * cfg.tolerance(value)
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


def _spot_check_lower(density, envs: tuple[Envelope, ...]) -> None:
    """Derived divergence certificates are re-checked against the integrand."""
    for env in envs:
        if not env.certified_divergent():
            continue
        v_lo = math.log(env.valid_from) + 1e-6
        for i in range(8):
            v = v_lo + i * 1.25
            floor = env.lower * math.exp((1.0 - env.power) * v) * v ** env.logpow
            if density(v) < 0.98 * floor:
                raise ValueError(
                    "declared lower envelope exceeds the integrand; "
                    f"certificate rejected at v={v:.3f}")


def _tail_side(density, v0: float, envs: tuple[Envelope, ...], closed=None):
    """Integrate a log-coordinate tail from v0, closed or walked: a
    ``closed`` tail only up to its cut V >= v0, none of it when V = v0 (see
    ``integrate_halfline``); any other up to where the remainder of ``envs``
    meets its target, that remainder being its bound (0 from a compact
    envelope's valid_from, which the middle reaches up to rounding).

    Returns (value, err, tail_bound, subdivisions).
    """
    if closed is not None:
        V, c_val, c_err, c_bound = closed
        if V <= v0:
            return c_val, c_err, c_bound, 0
        res = _integrate_core(density, v0, V, breakpoints=_geometric_seeds(v0, V))
        return res.value + c_val, res.err_est + c_err, c_bound, res.subdivisions

    target = DEFAULT_CONFIG.abs_tol * _TAIL_SHARE
    V = max(min(sum_v_for_remainder(envs, target), _TAIL_V_SOFT), v0)
    res = (_integrate_core(density, v0, V, breakpoints=_geometric_seeds(v0, V)) if V > v0
           else QuadResult(0.0, 0.0, 0, True))
    value, err, subdivisions = res.value, res.err_est, res.subdivisions
    bound = sum_remainder(envs, V)

    # One extension round: the relative tolerance may allow a much looser
    # remainder than abs_tol (this matters for slowly decaying tails), or the
    # soft cap may have been too tight for the final scale of the value.  The
    # extension is walked to that budget of the whole integral, not to a
    # tolerance relative to its own, often far smaller, value.
    final_target = DEFAULT_CONFIG.tolerance(value) * _TAIL_SHARE
    if bound > final_target:
        V2 = min(sum_v_for_remainder(envs, final_target), _TAIL_V_HARD)
        if V2 > V:
            ext = _integrate_core(density, V, V2, cfg=QuadConfig(abs_tol=final_target),
                                  breakpoints=_geometric_seeds(V, V2))
            value += ext.value
            err += ext.err_est
            subdivisions += ext.subdivisions
            bound = sum_remainder(envs, V2)
    return value, err, bound, subdivisions


def integrate_halfline(
    density: Callable[[float], float],
    origin_envs: tuple[Envelope, ...] = (),
    tail_envs: tuple[Envelope, ...] = (),
    breakpoints: Sequence[float] = (),
    closed_tail: tuple[float, float, float, float] | None = None,
    closed_origin: tuple[float, float, float, float] | None = None,
) -> HalflineResult:
    """Integral over (0, inf) of g, given as its density d(v) = g(e**v) * e**v
    on the whole real line; ``breakpoints`` are jumps or kinks of g, given
    in t.

    The middle [ln A0, ln B0] is integrated in v; it spans every breakpoint
    and each envelope's valid_from (an origin envelope's at t = 1/u).  Each
    end is closed or walked: the tail walks d(v) from ln B0 and the origin
    walks d(-w) from -ln A0, each against its envelopes (origin envelopes
    bound g(1/u) / u**2 in u = 1/t).  A lower envelope whose integral
    diverges yields the DIVERGENT verdict (after the certificate is
    spot-checked against the density); an end with an upper envelope that
    fails to integrate and no certificate is INCONCLUSIVE, with that end as
    ``divergent_side``.  ``closed_tail`` = (V, value, err,
    bound) hands over the tail past v = V in closed form, with its rounding
    and remainder; ``closed_origin`` = (W, value, err, bound) is its mirror,
    the origin past w = -v = W.  A closed end at or inside the middle ends
    the middle there and replaces that end's walk; one farther out is walked
    up to its cut.  The divergence checks still run first.  A value or error
    that is not finite is never ``converged``.
    """
    if not origin_envs or not tail_envs:
        raise ValueError("half-line integration needs envelopes on both sides")

    def origin_density(w: float) -> float:
        return density(-w)

    for side, envs, side_density in (("origin", origin_envs, origin_density),
                                     ("tail", tail_envs, density)):
        if any(env.certified_divergent() for env in envs):
            _spot_check_lower(side_density, envs)
            return HalflineResult(verdict="divergent", divergent_side=side)

    for side, envs in (("tail", tail_envs), ("origin", origin_envs)):
        if not all(env.integrable() for env in envs):
            return HalflineResult(verdict="inconclusive", divergent_side=side)

    bps = tuple(sorted(breakpoints))
    u_valid = max(env.valid_from for env in origin_envs)
    A0 = min([1.0, 1.0 / u_valid] + [b for b in bps if b > 0.0])
    B0 = max([1.0] + list(bps) + [env.valid_from for env in tail_envs])
    w0, v0 = -math.log(A0), math.log(B0)
    if closed_origin is not None:
        w0 = min(w0, closed_origin[0])
    if closed_tail is not None:
        v0 = min(v0, closed_tail[0])
    inner = tuple(math.log(b) for b in bps if A0 < b < B0)

    middle = (_integrate_core(density, -w0, v0, breakpoints=inner) if -w0 < v0
              else QuadResult(0.0, 0.0, 0, True))
    t_val, t_err, t_bound, t_sub = _tail_side(density, v0, tail_envs, closed_tail)
    o_val, o_err, o_bound, o_sub = _tail_side(origin_density, w0, origin_envs, closed_origin)

    value = math.fsum((middle.value, t_val, o_val))
    err = math.fsum((middle.err_est, t_err, o_err))
    bound = t_bound + o_bound
    subdivisions = middle.subdivisions + t_sub + o_sub
    converged = (math.isfinite(value) and math.isfinite(err)
                 and (err + bound) <= SAFETY * DEFAULT_CONFIG.tolerance(value))
    return HalflineResult(
        verdict="converged" if converged else "not-converged",
        value=value, err_est=err, tail_bound=bound, subdivisions=subdivisions)


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------

def probe_divergence(
    g: Callable[[float], float],
    start: float,
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
    increments = []
    lo = start
    for _ in range(_PROBE_DOUBLINGS):
        hi = lo * 2.0
        window = [p for p in breakpoints if lo < p < hi]
        increments.append(integrate(g, lo, hi, _PROBE_CONFIG, breakpoints=window).value)
        lo = hi
    partials = []
    acc = 0.0
    for inc in increments:
        acc += inc
        partials.append(acc)

    floor = max(1e3 * DEFAULT_CONFIG.abs_tol, 1e-6 * max(increments, default=0.0))
    late = increments[-5:]
    verdict = "inconclusive"
    if min(increments) < -10.0 * DEFAULT_CONFIG.abs_tol:
        verdict = "inconclusive"  # integrand not eventually nonnegative
    elif max(late) <= floor:
        verdict = "convergent"
    elif all(d > 0 for d in late) and all(
            late[i + 1] / late[i] <= 0.8 for i in range(len(late) - 1)):
        verdict = "convergent"
    elif min(late) >= floor and max(late) <= 2.5 * min(late):
        verdict = "divergent-log"
    return ProbeResult(verdict, tuple(partials), tuple(increments), start, floor)
