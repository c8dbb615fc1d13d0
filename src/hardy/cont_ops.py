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
A last piece that declares a log moment has its far tails closed exactly
past a cut (``_closed_tail``) instead of walked.  Where f vanishes, before
its first nonzero piece and past its last, the integrands of ||Hf||_1, I1
and I2 are kernel terms, closed in form too (``_closed_ends``); the
||Hf||_1 walk is cut where Hf changes sign, at the kink of |Hf|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

from .envelopes import Envelope
from .funcspace import DomainError, TestFunction, _is_zero, abs_piece, total_integral_exact
from .quad import (
    _EPS, _TAIL_SHARE, DEFAULT_CONFIG, HalflineResult, ProbeResult,
    integrate_halfline, probe_divergence,
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


def _require_nonnegative(f: TestFunction, what: str) -> None:
    if not _is_nonnegative(f):
        raise DomainError(f"{what} defined for nonnegative functions")


def _probe_start(f: TestFunction) -> float:
    # valid_from >= e, and a compact tail's is max(support_end, e)
    return 2.0 * max((f.tail.valid_from, *f.breakpoints))


# ---------------------------------------------------------------------------
# cumulative integrals through the piecewise antiderivatives
# ---------------------------------------------------------------------------

def _require_antiderivatives(f: TestFunction) -> None:
    for p in f.pieces:
        if p.antiderivative is None:
            raise DomainError(
                f"{f.name}: piece on ({p.lo}, {p.hi}] has no antiderivative")


# reads (i, A_i(x)) kept per cumulative: about 130 bytes each, 2.1 MiB when full
_MEMO_CAP = 1 << 14


class _Cumulative:
    """F(x) = int_0^x f and T(x) = int_x^inf f, exact within each piece; with
    ``of_abs`` those of |f|, read piece by piece without building |f|.

    A point is read as (i, A_i there): the piece that holds it and that
    piece's antiderivative at it.  The first _MEMO_CAP reads are kept, so a
    walk that meets a point another walk has read gets the same pair back.
    F and T add to A_i the widths of the pieces before or after i, read
    once, so T never subtracts nearly equal totals.  Past |v| = 690, where
    e**v leaves the float range, the piece of t = e**v comes from
    ``TestFunction.log_piece_index``."""

    def __init__(self, f: TestFunction, of_abs: bool = False):
        pieces = [abs_piece(f, p) for p in f.pieces] if of_abs else f.pieces
        _require_antiderivatives(f)
        self.f = f
        self._anti = [p.antiderivative for p in pieces]
        self._at_lo = [A.eval(p.lo) for A, p in zip(self._anti, f.pieces)]
        self._at_hi = [A.eval(p.hi) for A, p in zip(self._anti, f.pieces)]
        self._widths = [hi - lo for lo, hi in zip(self._at_lo, self._at_hi)]
        self._prefix = list(accumulate(self._widths, initial=0.0))  # int_0^{lo_i} f
        self.total = self._prefix[-1]
        self._memo: dict[float, tuple[int, float]] = {}

    def _at(self, x: float) -> tuple[int, float]:
        read = self._memo.get(x)
        if read is None:
            i = self.f.piece_index(x)
            read = i, self._anti[i].eval(x)
            if len(self._memo) < _MEMO_CAP:
                self._memo[x] = read
        return read

    def _at_logarg(self, v: float) -> tuple[int, float]:
        if abs(v) <= 690.0:
            return self._at(math.exp(v))
        i = self.f.log_piece_index(v)
        la, s = self._anti[i].log_eval(v)
        return i, s * math.exp(la)

    def _value(self, i: int, a: float) -> float:
        return self._prefix[i] + (a - self._at_lo[i])

    def _tail(self, i: int, a: float) -> float:
        out = self._at_hi[i] - a
        for w in self._widths[i + 1:]:
            out += w
        return out

    def value(self, x: float) -> float:
        return self._value(*self._at(x))

    def value_logarg(self, v: float) -> float:
        """F(e**v), stable far beyond the float range of e**v itself."""
        return self._value(*self._at_logarg(v))

    def tail(self, x: float) -> float:
        return self._tail(*self._at(x))

    def tail_logarg(self, v: float) -> float:
        return self._tail(*self._at_logarg(v))


# keyed on (f, of_abs), at most two stay alive: both views of the latest
# signed f, or the latest nonnegative f's one and the view before it
_cached = lru_cache(maxsize=2)(_Cumulative)


def _cumulative(f: TestFunction, of_abs: bool = False) -> _Cumulative:
    """The one shared cumulative of f (of |f| with ``of_abs``), built on
    first use; a nonnegative f has one, as f = |f|."""
    return _cached(f, of_abs and not _is_nonnegative(f))


def _l1_norm(f: TestFunction) -> float:
    """int_0^inf |f|: the total of a nonnegative f, else the declared l1 norm
    or the exact sum of |f| over the pieces."""
    if _is_nonnegative(f):
        return total_integral(f)
    widths = _cumulative(f, of_abs=True)._widths
    known = f.exact("l1_norm")
    return math.fsum(widths) if known is None else known


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
    return _cumulative(f).value(x) / x


def modified_hardy(f: TestFunction, x: float) -> float:
    """H f(x) = Q f(x) - (int_0^inf f) / (1 + x)."""
    if x <= 0.0:
        raise DomainError("modified_hardy needs x > 0")
    m = total_integral(f)
    return _cumulative(f).value(x) / x - m / (1.0 + x)


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


def _support(f: TestFunction) -> tuple[float, float]:
    """(a, X) with f = 0 on (0, a] and on (X, inf), read from the pieces that
    are zero by their form: the lo of the first other piece and the hi of
    the last; (0, inf) when no end vanishes or f is zero throughout."""
    nonzero = [p for p in f.pieces if not _is_zero(p.expr)]
    if not nonzero:
        return 0.0, math.inf
    return nonzero[0].lo, nonzero[-1].hi


def _closed_ends(f: TestFunction, origin_c: float, tail_c: float):
    """(``closed_origin``, ``closed_tail``) where f vanishes, each None at an
    end where it does not.  Before the support start a, a functional's
    integrand is a kernel term origin_c/(1+x), and past the support end X it
    is tail_c/(x(x+1)); they integrate to origin_c ln(1+a) and
    tail_c ln(1+1/X).  Each err counts the rounding of that value and the
    ulp by which the cut ln a or ln X may be off, at the density there."""
    a, X = _support(f)
    origin = tail = None
    if a > 0.0:
        W = -math.log(a)
        origin = _kernel_end(W, origin_c * math.log1p(a), origin_c / (1.0 + 1.0 / a))
    if X < math.inf:
        V = math.log(X)
        tail = _kernel_end(V, tail_c * math.log1p(1.0 / X), tail_c / (1.0 + X))
    return origin, tail


def _kernel_end(cut: float, value: float, edge: float):
    return cut, value, 4.0 * _EPS * value + _EPS * max(1.0, abs(cut)) * edge, 0.0


def _closed_tail(f: TestFunction, functional: str, m: float = 0.0):
    """The ``closed_tail`` (V, value, err, bound) of a functional of f past
    X = e**V, or None unless the last piece of f declares a log moment.
    (Where f vanishes past a support end, ``_closed_ends`` closes the tail.)

    With s the sign of that piece, T = int_X^inf |f| and M = int_X^inf |f| ln t
    are exact, and by parts int_X^inf T(x)/x dx = M - V T.  With theta in
    [0, 1] (from 0 <= ln(1 + 1/t) <= 1/X and 1/(x+1) = 1/x - 1/(x(x+1))):

        W ("weight", w = ln t + 2 ln(1 + 1/t)):   M + theta 2T/X
        int |f| ln(1 + t) ("large"):             M + theta T/X
        I2 ("i2"):                               M - V T - theta T/X
        int |H f| ("modified"):                  M - V T - s m ln(1 + 1/X)

    The last needs s H f(x) = s m/(x(x+1)) - T(x)/x < 0 on x >= X: true once
    X T(X) >= s m and x T(x) is nondecreasing, as (x+1) T(x) > x T(x) >= s m.
    It is nondecreasing where T(x) >= x |f(x)|, which a power-log tail with
    upper and lower constants C, L gives for ln x >= (beta-1) C/L, since
    T(x) >= L ln(x)**(1-beta)/(beta-1) and x |f(x)| <= C ln(x)**-beta.
    V makes T/X meet the tail share of abs_tol; theta is taken at 1/2.
    """
    last, tail = f.pieces[-1], f.tail
    s, A = last.sign, last.antiderivative
    if last.log_moment is None or not s:
        return None
    lo = max(last.lo, tail.valid_from)
    a_inf, target = A.eval(math.inf), _TAIL_SHARE * DEFAULT_CONFIG.abs_tol
    V = max(math.log(lo), math.log(s * (a_inf - A.eval(lo)) / target))
    if functional == "modified":
        if tail.logpow == 0.0 or tail.lower is None:  # no power-log lower bound
            return None
        V = max(V, (-tail.logpow - 1.0) * tail.coeff / tail.lower)
    X = math.exp(min(V, 700.0))
    T, M = s * (a_inf - A.eval(X)), -s * last.log_moment.eval(X)
    if V > 700.0 or (functional == "modified" and X * T < s * m):
        return None
    terms, k = {"weight": ((M,), 2.0), "large": ((M,), 1.0), "i2": ((M, -V * T), -1.0),
                "modified": ((M, -V * T, -s * m * math.log1p(1.0 / X)), 0.0)}[functional]
    err = 16.0 * _EPS * math.fsum(abs(x) for x in terms + (k * T / X,))
    return V, math.fsum(terms) + 0.5 * k * T / X, err, 0.5 * abs(k) * T / X


def _env_weight_full(env: Envelope) -> Envelope:
    """Envelope after multiplying by the full weight w(t) (or w(1/u))."""
    return Envelope(env.coeff * _W_UP, env.power, env.logpow + 1.0,
                    env.valid_from, lower=env.lower)


def log_weight_norm(f: TestFunction) -> HalflineResult:
    """W(f) = int |f| w dt; DIVERGENT when a declared lower envelope of f
    certifies it, INCONCLUSIVE when an end's weighted envelope does not
    integrate and carries no such certificate."""
    abs_density = _abs_density(f)
    return integrate_halfline(
        lambda v: abs_density(v) * _weight_logarg(v),
        origin_envs=(_env_weight_full(f.origin),),
        tail_envs=(_env_weight_full(f.tail),),
        breakpoints=f.breakpoints, closed_tail=_closed_tail(f, "weight"),
    )


def _over_t(env: Envelope) -> Envelope:
    """Envelope of g/t from that of g (of g/u at the origin, in u = 1/t)."""
    return Envelope(env.coeff, env.power + 1.0, env.logpow, env.valid_from)


def _single_weight_result(f: TestFunction, side: str) -> HalflineResult:
    """int |f| ln(1+1/t) dt (side='small') or int |f| ln(1+t) dt (side='large').

    Each weight grows like a logarithm at one end (``Envelope.weighted_log``)
    and, by ln(1 + x) <= x, decays at least like 1/t or 1/u at the other.
    """
    abs_density = _abs_density(f)
    if side == "small":
        # ln(1 + 1/t) = ln(1 + e**-v) = ln(1 + u)
        density = lambda v: abs_density(v) * _ln1p_exp(-v)
        origin, tail = f.origin.weighted_log(), _over_t(f.tail)
    elif side == "large":
        density = lambda v: abs_density(v) * _ln1p_exp(v)
        origin, tail = _over_t(f.origin), f.tail.weighted_log()
    else:
        raise ValueError(side)
    return integrate_halfline(density, origin_envs=(origin,), tail_envs=(tail,),
                              breakpoints=f.breakpoints,
                              closed_tail=_closed_tail(f, side) if side == "large" else None)


def split_i1(f: TestFunction) -> HalflineResult:
    """I1 as the iterated double integral int (1/x - 1/(x+1)) F(x) dx,
    F(x) = int_0^x |f|."""
    cum = _cumulative(f, of_abs=True)

    def density(v: float) -> float:
        # F(e^v) / (e^v + 1)
        F = cum.value_logarg(v)
        return F * math.exp(-v) if v > 690.0 else F / (math.exp(v) + 1.0)

    # F(x)/(x(x+1)) <= F(x)/x at the origin and <= total/x**2 at infinity
    tail_env = Envelope(max(cum.total, 1e-300), 2.0, 0.0)
    closed_origin, closed_tail = _closed_ends(f, 0.0, cum.total)
    return integrate_halfline(density, origin_envs=(f.origin.averaged(),),
                              tail_envs=(tail_env,), breakpoints=f.breakpoints,
                              closed_tail=closed_tail, closed_origin=closed_origin)


def split_i2(f: TestFunction) -> HalflineResult:
    """I2 as the iterated double integral int (x+1)^-1 T(x) dx,
    T(x) = int_x^inf |f|."""
    cum = _cumulative(f, of_abs=True)

    def density(v: float) -> float:
        # T(e^v) * e^v / (e^v + 1), or T(e^v) / (1 + e^-v) where T e^v overflows
        if v > 690.0:
            return cum.tail_logarg(v)
        if v < -690.0:
            return 0.0  # T(t) t / (t+1) <= m * e^v, below any tolerance here
        t = math.exp(v)
        T = cum.tail(t)
        Tt = T * t
        return Tt / (t + 1.0) if math.isfinite(Tt) else T / (1.0 + 1.0 / t)

    # T(x)/(x+1) <= T(x)/x at infinity and <= total/u**2 at the origin
    origin_env = Envelope(max(cum.total, 1e-300), 2.0, 0.0)
    closed_origin, closed_tail = _closed_ends(f, cum.total, 0.0)
    return integrate_halfline(density, origin_envs=(origin_env,),
                              tail_envs=(f.tail.averaged(),), breakpoints=f.breakpoints,
                              closed_tail=closed_tail or _closed_tail(f, "i2"),
                              closed_origin=closed_origin)


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


def fubini_check_cont(f: TestFunction) -> FubiniReport:
    """Order-of-integration check: each split equals its weighted single
    integral within ten times the combined error estimates."""
    return FubiniReport(
        name=f.name,
        i1_double=split_i1(f),
        i1_single=_single_weight_result(f, "small"),
        i2_double=split_i2(f),
        i2_single=_single_weight_result(f, "large"),
    )


# ---------------------------------------------------------------------------
# L1 norm of the corrected image
# ---------------------------------------------------------------------------

def _modified_envelopes(f: TestFunction, m: float):
    """Upper (and where derivable, lower) envelopes for |H f|.

    Tail side, from H f(x) = m/(x(x+1)) - T(x)/x with T(x) = int_x^inf f:
        |H f(x)| <= |m| x^-2 + T(x) / x,
    bounded by the kernel term and the tail's averaged envelope A.
    When A carries a divergence certificate and the last piece of f, from
    x = s on, has a declared nonzero sign, there |T(x)| = int_x^inf |f| and
    |T(x)|/x >= 2 A_lower(x) (see ``Envelope.averaged``), so
        |H f(x)| >= |T(x)|/x - |m| x^-2 >= A_lower(x)
    from the first doubling of max(valid_from, s) where x^2 A_lower(x) >= |m|.
    The origin side is the same in u = 1/x, with F(x) = int_0^x f in place
    of T and the first piece in place of the last; an origin bounded like
    u^-2 (f bounded near 0) folds the kernel term into that envelope.  A
    compact end keeps its compact A alone: past the support |H f| is the
    kernel term, which ``_closed_ends`` integrates in closed form.
    """
    am = abs(m)

    def side(avg: Envelope, sign: int | None, start: float) -> tuple[Envelope, ...]:
        if avg.is_compact:
            return (avg,)
        if sign and avg.certified_divergent():
            x0 = max(avg.valid_from, start)  # A_lower is the upper bound scaled by lower/coeff
            while avg.value(x0) * x0 * x0 * avg.lower / avg.coeff < am and x0 < 1e300:
                x0 *= 2.0
            return (replace(avg, valid_from=x0),)
        return (Envelope(max(am, 1e-300), 2.0, 0.0), replace(avg, lower=None))

    first, last = f.pieces[0], f.pieces[-1]
    org_avg = f.origin.averaged()
    if org_avg.power == 2.0 and not org_avg.is_compact:
        origin_envs = (Envelope(org_avg.coeff + am, 2.0, 0.0, org_avg.valid_from),)
    else:
        origin_envs = side(org_avg, first.sign, 1.0 / first.hi)
    return origin_envs, side(f.tail.averaged(), last.sign, last.lo)


# past this many multiples of eps times the scale of its terms, x H f(x) has a sign
_NOISE_ULPS = 64.0
# scan steps beyond the outermost mark on a side that is not closed
_SCAN_STEPS = (1.0, 3.0, 7.0, 15.0, 31.0)


def _refine(g, a: float, ga: float, b: float, gb: float, noise: float) -> float:
    """A zero of g in (a, b), where g(a) and g(b) have opposite signs, by the
    Illinois variant of regula falsi, bisecting where one end has moved three
    times in a row: to where g reads within noise, or the bracket is two
    adjacent floats."""
    a_neg = ga < 0.0  # a keeps its sign, however far ga is halved
    run = 0  # moves of a in a row if positive, of b if negative
    for _ in range(200):
        c = b - gb * (b - a) / (gb - ga) if abs(run) < 3 and gb != ga else math.nan
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:
                break
        gc = g(c)
        if abs(gc) <= noise:
            return c
        if (gc < 0.0) == a_neg:
            a, ga, run = c, gc, max(run, 0) + 1
            if run >= 2:
                gb *= 0.5
        else:
            b, gb, run = c, gc, min(run, 0) - 1
            if run <= -2:
                ga *= 0.5
    return 0.5 * (a + b)


def _sign_changes(g, marks, lo: float, hi: float, noise: float) -> tuple[float, ...]:
    """The t = e**v in (e**lo, e**hi) where g changes sign, each refined to
    float resolution.  g is read at the marks inside, at lo and hi where
    finite, on an open side at _SCAN_STEPS past the outermost of those, and
    midway between each two of these points; a read within noise has no
    sign.  Two zeros between reads go unseen, which costs panels, not
    accuracy."""
    pts = sorted({v for v in (0.0, *marks) if lo < v < hi} | {lo, hi} - {-math.inf, math.inf})
    if lo == -math.inf:
        pts[:0] = [pts[0] - s for s in reversed(_SCAN_STEPS)]
    if hi == math.inf:
        pts += [pts[-1] + s for s in _SCAN_STEPS]
    pts += [0.5 * (u + w) for u, w in zip(pts, pts[1:])]
    reads = [(v, y) for v in sorted(pts) if abs(y := g(v)) > noise]
    zeros = (_refine(g, a, ga, b, gb, noise)
             for (a, ga), (b, gb) in zip(reads, reads[1:]) if (ga < 0.0) != (gb < 0.0))
    # e**v and its reciprocal must be finite to be a breakpoint
    return tuple(math.exp(v) for v in zeros if abs(v) < 700.0)


def l1_norm_modified(f: TestFunction) -> HalflineResult:
    """int_0^inf |H f(x)| dx, with DIVERGENT as a first-class outcome.

    The walk covers only what has no closed form: an end where f vanishes
    is closed as its kernel term (``_closed_ends``), and the walk is cut
    where H f changes sign, as |H f| has a kink there."""
    m = total_integral(f)
    cum = _cumulative(f)

    def signed(v: float) -> float:
        # x H f(x) at x = e^v, stable for any v
        if v >= 0.0:
            # m/(e^v + 1) - T(e^v)
            if v > 690.0:
                kernel = math.copysign(math.exp(math.log(abs(m)) - v), m) if m != 0.0 else 0.0
                return kernel - cum.tail_logarg(v)
            t = math.exp(v)
            return m / (t + 1.0) - cum.tail(t)
        # F(e^v) - m e^v/(1 + e^v)
        t = math.exp(v) if v > -690.0 else 0.0
        return cum.value_logarg(v) - m * t / (1.0 + t)

    am = abs(m)
    origin_envs, tail_envs = _modified_envelopes(f, m)
    closed_origin, closed_tail = _closed_ends(f, am, am)
    lo = -math.inf if closed_origin is None else -closed_origin[0]
    hi = math.inf if closed_tail is None else closed_tail[0]
    noise = _NOISE_ULPS * _EPS * (am + math.fsum(map(abs, cum._at_lo + cum._at_hi)))
    zeros = _sign_changes(signed, map(math.log, f.breakpoints), lo, hi, noise)
    return integrate_halfline(lambda v: abs(signed(v)), origin_envs=origin_envs,
                              tail_envs=tail_envs, breakpoints=f.breakpoints + zeros,
                              closed_tail=closed_tail or _closed_tail(f, "modified", m),
                              closed_origin=closed_origin)


# ---------------------------------------------------------------------------
# mean-limit diagnostics and ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanLimitReport:
    name: str
    xs: tuple[float, ...]
    scaled_values: tuple[float, ...]          # x * Qf(x) = int_0^x f
    total_integral: float                     # exact lim x Qf(x)
    tail_bound_at_last: float
    consistent: bool                          # |last sample - total| within bounds
    probe: ProbeResult | None
    probe_rate_target: float                  # |limit| * ln 2
    probe_rate_ok: bool


def mean_limit_check(f: TestFunction) -> MeanLimitReport:
    """Samples x Qf(x) across six decades and checks convergence to the
    total integral within the certified tail bound.

    The limit itself is estimated through the total integral (the identity
    x Qf(x) = int_0^x f makes the two interchangeable); the samples then
    corroborate it within the declared tail remainder.  When the limit is
    nonzero the doubling probe must flag |Qf| as logarithmically divergent
    with increments near |limit| * ln 2.
    """
    m = total_integral(f)
    cum = _cumulative(f)
    xs = tuple(10.0 ** (6.0 * i / 12) * 1.0137 for i in range(13))
    values = tuple(cum.value(x) for x in xs)

    tail_bound = f.tail.remainder_past(xs[-1])
    consistent = abs(values[-1] - m) <= tail_bound + 1e-6 * max(1.0, abs(m))

    probe = None
    rate_target = abs(m) * math.log(2.0)
    rate_ok = True
    if abs(m) > 1e-9:
        probe = probe_divergence(lambda x: abs(cum.value(x) / x), _probe_start(f),
                                 breakpoints=f.breakpoints)
        rate_ok = (probe.verdict == "divergent-log"
                   and abs(probe.last_increment - rate_target) <= 0.1 * rate_target)
    return MeanLimitReport(
        name=f.name, xs=xs, scaled_values=values,
        total_integral=m,
        tail_bound_at_last=tail_bound, consistent=consistent,
        probe=probe, probe_rate_target=rate_target, probe_rate_ok=rate_ok,
    )


def _ratio(f: TestFunction, wf: HalflineResult, hf: HalflineResult, l1: float) -> float:
    """R(f) from W(f), the l1 norm of H f and that of f; DomainError where
    it is not defined."""
    _require_nonnegative(f, "equivalence ratio")
    for res, what in ((wf, "weighted norm"), (hf, "corrected norm")):
        if res.verdict not in ("converged", "not-converged"):
            raise DomainError(f"{f.name}: {what} is {res.verdict}")
    if wf.value <= wf.total_error:
        raise DomainError(f"{f.name}: weighted norm vanishes; function is a.e. zero")
    return (hf.value + l1) / wf.value


def equivalence_ratio(f: TestFunction) -> float:
    """R(f) = (l1 norm of H f + l1 norm of f) / W(f) for nonnegative f.

    The l1 norm of f is added on the left because the correction kernel
    (theta) annihilates under H while carrying W(theta) = 2, so the bare
    quotient admits no universal lower constant.  The sign is checked
    before any integral is taken.
    """
    _require_nonnegative(f, "equivalence ratio")
    return _ratio(f, log_weight_norm(f), l1_norm_modified(f), _l1_norm(f))


def cont_hardy_ratio(f: TestFunction, p: float) -> float:
    """[int (Qf)^p] / [int f^p] for nonnegative f; bounded by (p/(p-1))^p."""
    if not 1.0 < p < math.inf:
        raise DomainError("exponent must lie in (1, inf)")
    _require_nonnegative(f, "ratio")
    # |f(t)| <= c t^-alpha near 0 with alpha = 2 - avg.power (1 for a power-log
    # origin); that power was rounded, so half its ulp keeps the refusal safe
    org, avg = f.origin, f.origin.averaged()
    alpha = 2.0 - avg.power
    if p * (alpha + math.ulp(avg.power) / 2) >= 1.0:
        raise DomainError(f"{f.name} is not p-integrable near the origin for p={p}")
    m = total_integral(f)
    cum = _cumulative(f)

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
    power = 2.0 - p * alpha
    num_origin = Envelope(avg.coeff ** p, power, 0.0, avg.valid_from)
    den_origin = Envelope(org.coeff ** p, power, 0.0, avg.valid_from)
    num_tail = Envelope(max(abs(m) ** p, 1e-300), p, 0.0)
    env = f.tail  # raised to the p for |f|^p at infinity
    den_tail = Envelope(env.coeff ** p, p * env.power, p * env.logpow, env.valid_from)

    num = integrate_halfline(num_density, origin_envs=(num_origin,),
                             tail_envs=(num_tail,), breakpoints=f.breakpoints)
    if num.verdict not in ("converged", "not-converged"):
        raise ArithmeticError(
            f"{f.name}: p-norm of the average did not resolve ({num.verdict}); "
            "this contradicts the averaging bound and flags a defect")

    den = integrate_halfline(lambda v: math.exp(p * f.log_eval(v)[0] + v),
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
    l1_norm: float  # exact, from the closed form or the antiderivatives of |f|
    weighted_norm: HalflineResult
    l1_norm_modified: HalflineResult
    i1: HalflineResult
    i2: HalflineResult
    equivalence_ratio: float | None

    def to_dict(self) -> dict:
        return {
            "function": self.name,
            "total_integral": {"value": self.total_integral, "err_est": 0.0},
            "l1_norm": {"verdict": "converged", "value": self.l1_norm,
                        "err_est": 0.0, "tail_bound": 0.0},
            "weighted_norm": _functional_dict(self.weighted_norm),
            "l1_norm_modified": _functional_dict(self.l1_norm_modified),
            "i1": _functional_dict(self.i1),
            "i2": _functional_dict(self.i2),
            "equivalence_ratio": self.equivalence_ratio,
            "tolerances": {"rel_tol": DEFAULT_CONFIG.rel_tol,
                           "abs_tol": DEFAULT_CONFIG.abs_tol},
        }


def _representable(f: TestFunction, op) -> HalflineResult:
    """op(f), refused as a DomainError where its walk overflows or its value
    or error is not a finite float, so no report prints one."""
    try:
        res = op(f)
    except OverflowError as exc:
        raise DomainError(f"{f.name}: {op.__name__} overflows the float range") from exc
    if res.verdict in ("converged", "not-converged") and not (
            math.isfinite(res.value) and math.isfinite(res.err_est)):
        raise DomainError(f"{f.name}: {op.__name__} is past the float range")
    return res


def build_report(f: TestFunction) -> ContReport:
    m = total_integral(f)  # first, so a missing antiderivative is named for f
    l1 = _l1_norm(f)
    wf, hf, i1, i2 = (_representable(f, op) for op in (
        log_weight_norm, l1_norm_modified, split_i1, split_i2))
    try:
        ratio = _ratio(f, wf, hf, l1)
    except DomainError:
        ratio = None
    return ContReport(
        name=f.name,
        total_integral=m,
        l1_norm=l1,
        weighted_norm=wf,
        l1_norm_modified=hf,
        i1=i1,
        i2=i2,
        equivalence_ratio=ratio,
    )
