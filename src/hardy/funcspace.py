"""Piecewise closed-form test functions on (0, inf).

A :class:`TestFunction` is a finite list of pieces covering (0, inf), each an
expression node with a hand-supplied antiderivative.  Every catalog piece
carries one and the algebra (``absolute``, ``scale``, ``add``) keeps them;
the operators of ``cont_ops`` integrate through them and reject a piece
without one.  Functions are closed-form rather than black-box callables so
that exact integrals, piece boundaries and decay certificates are all
available independently of the numerical quadrature engine.

Conventions
-----------
* Pieces are half-open on the left: piece i covers (b_{i-1}, b_i].  At a
  breakpoint ``eval`` therefore returns the left piece's value; the choice is
  irrelevant for integration and fixed only for determinism.
* Decay behaviour at 0 and at infinity is *declared* through
  :class:`OriginClass` / :class:`TailClass` descriptors and spot-checked by
  sampling at construction time, never inferred from the expression tree.
  Generator sequences in ``seq_ops`` declare their decay with the same
  :class:`TailClass`: by the integral test its remainder bounds a sum over
  k > n as well as an integral over t > n.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, replace

from .envelopes import Envelope
from .expressions import (
    Const, Expr, ExprDomainError, Log, Power, Product, Var, affine,
)

__all__ = [
    "TestFunction", "Piece", "OriginClass", "TailClass",
    "DomainError", "CatalogError", "ParameterError",
    "catalog", "catalog_names", "parse_function",
    "exact_antiderivative", "total_integral_exact",
    "absolute", "scale", "add",
]

_E = math.e


class DomainError(ValueError):
    """Evaluation or integration outside the function's domain."""


class CatalogError(KeyError):
    """Unknown catalog name."""


class ParameterError(ValueError):
    """Family parameter outside its admissible range."""


# ---------------------------------------------------------------------------
# declared behaviour at the origin and at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OriginClass:
    """Declared bound on |f| as t -> 0+.

    kind = "bounded":    |f(t)| <= coeff                     for t <= valid_below
    kind = "power":      |f(t)| <= coeff * t**-alpha,         0 < alpha < 1
    kind = "power_log":  |f(t)| <= coeff / (t * ln(1/t)**beta),  beta > 1
    """

    kind: str
    coeff: float
    alpha: float = 0.0
    beta: float = 0.0
    valid_below: float = 1.0
    lower: float | None = None

    def __post_init__(self):
        if self.kind not in ("bounded", "power", "power_log"):
            raise ParameterError(f"unknown origin kind {self.kind!r}")
        if self.kind == "power" and not 0.0 < self.alpha < 1.0:
            raise ParameterError("origin power exponent must lie in (0, 1)")
        if self.kind == "power_log" and self.beta <= 1.0:
            raise ParameterError("origin power-log exponent must exceed 1")
        limit = 1.0 / _E if self.kind == "power_log" else 1.0
        if not 0.0 < self.valid_below <= limit:
            raise ParameterError("origin valid_below out of range")

    def bound(self, t: float) -> float:
        if not 0.0 < t <= self.valid_below:
            raise DomainError("origin bound queried outside its valid range")
        if self.kind == "bounded":
            return self.coeff
        if self.kind == "power":
            return self.coeff * t ** (-self.alpha)
        return self.coeff / (t * math.log(1.0 / t) ** self.beta)

    def lower_bound(self, t: float) -> float:
        if self.lower is None:
            raise DomainError("no lower constant declared")
        return self.bound(t) * self.lower / self.coeff

    def envelope_reciprocal(self) -> Envelope:
        """Envelope in u = 1/t of the substituted integrand g(1/u)/u**2."""
        vf = max(_E, 1.0 / self.valid_below)
        if self.kind == "bounded":
            return Envelope(self.coeff, 2.0, 0.0, vf, lower=None)
        if self.kind == "power":
            return Envelope(self.coeff, 2.0 - self.alpha, 0.0, vf, lower=None)
        return Envelope(self.coeff, 1.0, -self.beta, vf, lower=self.lower)

    def averaged_envelope(self) -> Envelope:
        """Envelope in u = 1/t of F(1/u)/u, F(x) = int_0^x |f|: the declared
        bound integrated from 0, over x."""
        vf = max(_E, 1.0 / self.valid_below)
        if self.kind == "bounded":
            return Envelope(self.coeff, 2.0, 0.0, vf)
        if self.kind == "power":
            return Envelope(self.coeff / (1.0 - self.alpha), 2.0 - self.alpha, 0.0, vf)
        return Envelope(self.coeff / (self.beta - 1.0), 1.0, 1.0 - self.beta, vf,
                        lower=_averaged_lower(self.lower, self.beta))


def _averaged_lower(lower: float | None, beta: float) -> float | None:
    """Lower constant of an averaged power-log bound.  The integrated lower
    bound is lower/(beta-1); the extra 1/2 absorbs x+1 <= 2x on x >= 1, so
    the constant bounds T(t)/(t+1) and F(1/u)/(1+u) from below."""
    return None if lower is None else lower / (2.0 * (beta - 1.0))


@dataclass(frozen=True)
class TailClass:
    """Declared bound on |f| as t -> inf.

    kind = "compact":    f(t) = 0                          for t > support_end
    kind = "power":      |f(t)| <= coeff * t**-alpha,       alpha > 1
    kind = "power_log":  |f(t)| <= coeff / (t * ln(t)**beta),  beta > 1
    """

    kind: str
    coeff: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    support_end: float = 0.0
    valid_from: float = _E
    lower: float | None = None

    def __post_init__(self):
        if self.kind not in ("compact", "power", "power_log"):
            raise ParameterError(f"unknown tail kind {self.kind!r}")
        if self.kind == "power" and self.alpha <= 1.0:
            raise ParameterError("tail power exponent must exceed 1")
        if self.kind == "power_log" and self.beta <= 1.0:
            raise ParameterError("tail power-log exponent must exceed 1")
        if self.kind != "compact":
            object.__setattr__(self, "valid_from", max(self.valid_from, _E))

    def bound(self, t: float) -> float:
        if self.kind == "compact":
            return 0.0 if t > self.support_end else math.inf
        if t < self.valid_from:
            raise DomainError("tail bound queried before its valid range")
        if self.kind == "power":
            return self.coeff * t ** (-self.alpha)
        return self.coeff / (t * math.log(t) ** self.beta)

    def envelope(self) -> Envelope:
        if self.kind == "compact":
            return Envelope.compact(self.support_end)
        if self.kind == "power":
            return Envelope(self.coeff, self.alpha, 0.0, self.valid_from, lower=self.lower)
        return Envelope(self.coeff, 1.0, -self.beta, self.valid_from, lower=self.lower)

    def remainder(self, x: float) -> float:
        """Integral-test bound on int_x^inf |f| for x at or past valid_from.
        The declared bound decreases there, so it also bounds sum_{k>x} |a_k|
        of a sequence that declares it."""
        env = self.envelope()
        if env.is_compact:
            return 0.0 if x >= self.support_end else math.inf
        return env.remainder(math.log(max(x, self.valid_from)))

    def averaged_envelope(self) -> Envelope:
        """Envelope of T(t)/t, T(t) = int_t^inf |f|: the declared bound
        integrated to infinity, over t."""
        if self.kind == "compact":
            return Envelope.compact(self.support_end)
        if self.kind == "power":
            return Envelope(self.coeff / (self.alpha - 1.0), self.alpha, 0.0, self.valid_from)
        return Envelope(self.coeff / (self.beta - 1.0), 1.0, 1.0 - self.beta, self.valid_from,
                        lower=_averaged_lower(self.lower, self.beta))


# ---------------------------------------------------------------------------
# the function type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    expr: Expr
    antiderivative: Expr | None = None
    sign: int | None = None  # constant sign of the piece, when known


@dataclass(frozen=True)
class TestFunction:
    name: str
    pieces: tuple[Piece, ...]
    breakpoints: tuple[float, ...]
    origin: OriginClass
    tail: TailClass
    exact_values: tuple[tuple[str, float, str], ...] = ()

    def __post_init__(self):
        _validate(self)

    # -- evaluation ----------------------------------------------------------

    def piece_index(self, t: float) -> int:
        if not t > 0.0:
            raise DomainError(f"functions live on (0, inf); got t={t}")
        return bisect_left(self.breakpoints, t)

    def eval(self, t: float) -> float:
        return self.pieces[self.piece_index(t)].expr.eval(t)

    __call__ = eval

    def log_eval(self, v: float) -> tuple[float, float]:
        """(ln|f|, sign) at t = e**v; stable for v far beyond float overflow."""
        if v > 700.0:
            idx = len(self.breakpoints)
        elif v < -700.0:
            idx = 0
        else:
            idx = self.piece_index(math.exp(v))
        return self.pieces[idx].expr.log_eval(v)

    # -- exact data ----------------------------------------------------------

    def exact(self, key: str) -> float | None:
        for k, val, _tag in self.exact_values:
            if k == key:
                return val
        return None

    def exact_tag(self, key: str) -> str | None:
        for k, _val, tag in self.exact_values:
            if k == key:
                return tag
        return None


def _validate(f: TestFunction) -> None:
    bps = f.breakpoints
    if list(bps) != sorted(set(bps)) or any(b <= 0 or not math.isfinite(b) for b in bps):
        raise ParameterError(f"{f.name}: breakpoints must be finite, positive, strictly increasing")
    if len(f.pieces) != len(bps) + 1:
        raise ParameterError(f"{f.name}: need exactly one more piece than breakpoints")
    lo = 0.0
    for piece, hi in zip(f.pieces, list(bps) + [math.inf]):
        if piece.lo != lo or piece.hi != hi:
            raise ParameterError(f"{f.name}: pieces must tile (0, inf) in order")
        lo = hi
    _spot_check_tail(f)
    _spot_check_origin(f)


def _spot_check_tail(f: TestFunction, n: int = 64) -> None:
    tail = f.tail
    if tail.kind == "compact":
        t0 = tail.support_end
        for i in range(n):
            t = t0 * (1.0 + 1e-9) * 10.0 ** (6.0 * i / (n - 1))
            if f.eval(t) != 0.0:
                raise ParameterError(f"{f.name}: declared compact beyond {t0} but f({t}) != 0")
        return
    env = tail.envelope()
    v0 = math.log(env.valid_from) + 1e-9
    for i in range(n):
        v = v0 + 14.0 * i / (n - 1)
        la, _sign = f.log_eval(v)
        cap = math.log(env.coeff) - env.power * v + env.logpow * math.log(v)
        if la > cap + 1e-9:
            raise ParameterError(f"{f.name}: tail envelope violated at t=e**{v:.3f}")
        if env.lower is not None:
            floor = math.log(env.lower) - env.power * v + env.logpow * math.log(v)
            if la < floor - 1e-9:
                raise ParameterError(f"{f.name}: tail lower bound violated at t=e**{v:.3f}")


def _spot_check_origin(f: TestFunction, n: int = 64) -> None:
    org = f.origin
    if org.coeff == 0.0:
        for i in range(n):
            t = org.valid_below * 10.0 ** (-6.0 * i / (n - 1))
            if f.eval(t) != 0.0:
                raise ParameterError(f"{f.name}: origin declared zero but f({t}) != 0")
        return
    for i in range(n):
        t = org.valid_below * 10.0 ** (-6.0 * i / (n - 1))
        val = abs(f.eval(t))
        if val > org.bound(t) * (1.0 + 1e-9):
            raise ParameterError(f"{f.name}: origin envelope violated at t={t}")
        if org.lower is not None and val < org.lower_bound(t) * (1.0 - 1e-9):
            raise ParameterError(f"{f.name}: origin lower bound violated at t={t}")


# ---------------------------------------------------------------------------
# exact integration through the piecewise antiderivatives
# ---------------------------------------------------------------------------

def exact_antiderivative(f: TestFunction, a: float, b: float) -> float | None:
    """Exact integral of f over [a, b] when every overlapping piece carries an
    antiderivative; None otherwise.

    ``a`` may be 0 and ``b`` may be inf, in which case antiderivative limits
    are taken.  A non-finite limit (divergent improper integral) is returned
    as +-inf.
    """
    if a < 0.0 or b < a:
        raise DomainError(f"need 0 <= a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    total = []
    for piece in f.pieces:
        lo, hi = max(piece.lo, a), min(piece.hi, b)
        if not lo < hi:
            continue
        if piece.antiderivative is None:
            return None
        try:
            upper = piece.antiderivative.eval(hi)
            lower = piece.antiderivative.eval(lo)
        except ExprDomainError as exc:
            raise DomainError(f"{f.name}: antiderivative limit failed on [{lo}, {hi}]") from exc
        if math.isinf(upper) or math.isinf(lower):
            return math.inf if upper > lower else -math.inf
        total.append(upper - lower)
    return math.fsum(total)


def total_integral_exact(f: TestFunction) -> float | None:
    """Exact value of int_0^inf f when available."""
    known = f.exact("total_integral")
    if known is not None:
        return known
    return exact_antiderivative(f, 0.0, math.inf)


# ---------------------------------------------------------------------------
# algebra: absolute value, scaling, sums
# ---------------------------------------------------------------------------

def _negate(e: Expr | None) -> Expr | None:
    return None if e is None else affine([(-1.0, e)])


def absolute(f: TestFunction) -> TestFunction:
    """|f| for functions whose pieces carry a declared constant sign."""
    pieces = []
    for p in f.pieces:
        if p.sign is None:
            raise DomainError(f"{f.name}: piece on ({p.lo}, {p.hi}] has no declared sign")
        if p.sign < 0:
            pieces.append(Piece(p.lo, p.hi, _negate(p.expr), _negate(p.antiderivative), 1))
        else:
            pieces.append(replace(p, sign=abs(p.sign)))
    exact = []
    l1 = f.exact("l1_norm")
    if l1 is not None:
        exact.append(("total_integral", l1, f.exact_tag("l1_norm")))
        exact.append(("l1_norm", l1, f.exact_tag("l1_norm")))
    return TestFunction(f"abs({f.name})", tuple(pieces), f.breakpoints,
                        f.origin, f.tail, tuple(exact))


def scale(f: TestFunction, c: float) -> TestFunction:
    if c == 0.0:
        raise ParameterError("scaling by zero is not useful")
    mag = abs(c)
    sgn = 1 if c > 0 else -1
    pieces = tuple(
        Piece(p.lo, p.hi, affine([(c, p.expr)]),
              None if p.antiderivative is None else affine([(c, p.antiderivative)]),
              None if p.sign is None else sgn * p.sign)
        for p in f.pieces
    )
    origin = replace(f.origin, coeff=f.origin.coeff * mag,
                     lower=None if f.origin.lower is None else f.origin.lower * mag)
    if f.tail.kind == "compact":
        tail = f.tail
    else:
        tail = replace(f.tail, coeff=f.tail.coeff * mag,
                       lower=None if f.tail.lower is None else f.tail.lower * mag)
    exact = tuple((k, v * (c if k == "total_integral" else mag), tag)
                  for k, v, tag in f.exact_values if k in ("total_integral", "l1_norm"))
    return TestFunction(f"scale({f.name},{c:g})", pieces, f.breakpoints, origin, tail, exact)


def _sup_power_exp(beta: float, rate: float, v0: float) -> float:
    """sup over v >= v0 >= 0 of v**beta * e**(-rate*v), beta >= 0, rate > 0;
    the maximum sits at v = beta/rate or, past it, at v0."""
    v = max(v0, beta / rate)
    return v ** beta * math.exp(-rate * v)


def _join_origin(a: OriginClass, b: OriginClass) -> OriginClass:
    """Conservative origin class for a sum |f + g| <= |f| + |g|."""
    order = {"bounded": 0, "power": 1, "power_log": 2}
    hi, lo_cls = (a, b) if order[a.kind] >= order[b.kind] else (b, a)
    if hi.kind == lo_cls.kind == "power":
        hi = replace(hi, alpha=max(a.alpha, b.alpha))
    if hi.kind == lo_cls.kind == "power_log":
        hi = replace(hi, beta=min(a.beta, b.beta))
    valid = min(a.valid_below, b.valid_below)
    # the slower class absorbs the faster one: in w = ln(1/t) their shapes
    # differ by the factor w**beta e**(-rate w), at most its sup over
    # w >= ln(1/valid) (a bounded class has alpha = 0)
    w0 = math.log(1.0 / valid)
    if hi.kind == "power" and lo_cls.kind == "bounded":
        extra = lo_cls.coeff * _sup_power_exp(0.0, hi.alpha, w0)
    elif hi.kind == "power_log" and lo_cls.kind != "power_log":
        extra = lo_cls.coeff * _sup_power_exp(hi.beta, 1.0 - lo_cls.alpha, w0)
    else:
        extra = lo_cls.coeff
    return OriginClass(hi.kind, hi.coeff + extra, hi.alpha, hi.beta, valid, lower=None)


def _join_tail(a: TailClass, b: TailClass) -> TailClass:
    order = {"compact": 0, "power": 1, "power_log": 2}
    hi, lo_cls = (a, b) if order[a.kind] >= order[b.kind] else (b, a)
    if hi.kind == "compact":
        return TailClass("compact", support_end=max(a.support_end, b.support_end))
    if hi.kind == lo_cls.kind == "power":
        hi = replace(hi, alpha=min(a.alpha, b.alpha))
    if hi.kind == lo_cls.kind == "power_log":
        hi = replace(hi, beta=min(a.beta, b.beta))
    valid = max(a.valid_from if a.kind != "compact" else a.support_end,
                b.valid_from if b.kind != "compact" else b.support_end, _E)
    if lo_cls.kind == "compact":
        return replace(hi, valid_from=valid, lower=None)
    if hi.kind == "power_log" and lo_cls.kind == "power":
        # in v = ln t the two shapes differ by the factor v**beta e**(-(alpha-1)v),
        # at most its sup over v >= ln(valid)
        sup = _sup_power_exp(hi.beta, lo_cls.alpha - 1.0, math.log(valid))
        return TailClass("power_log", coeff=hi.coeff + lo_cls.coeff * sup, beta=hi.beta,
                         valid_from=valid, lower=None)
    return replace(hi, coeff=hi.coeff + lo_cls.coeff, valid_from=valid, lower=None)


def add(f: TestFunction, g: TestFunction) -> TestFunction:
    """Pointwise sum with merged breakpoints and conservative decay classes."""
    bps = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
    pieces = []
    lo = 0.0
    for hi in list(bps) + [math.inf]:
        mid = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        pf = f.pieces[f.piece_index(mid)]
        pg = g.pieces[g.piece_index(mid)]
        expr = affine([(1.0, pf.expr), (1.0, pg.expr)])
        anti = None
        if pf.antiderivative is not None and pg.antiderivative is not None:
            anti = affine([(1.0, pf.antiderivative), (1.0, pg.antiderivative)])
        if pf.sign is not None and pg.sign is not None and pf.sign * pg.sign >= 0:
            sign = pf.sign if pf.sign != 0 else pg.sign
        else:
            sign = None
        pieces.append(Piece(lo, hi, expr, anti, sign))
        lo = hi
    exact = []
    tf, tg = f.exact("total_integral"), g.exact("total_integral")
    if tf is not None and tg is not None:
        exact.append(("total_integral", tf + tg, "closed-form"))
    return TestFunction(f"({f.name}+{g.name})", tuple(pieces), bps,
                        _join_origin(f.origin, g.origin), _join_tail(f.tail, g.tail),
                        tuple(exact))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_T = Var()
_ONE_PLUS_T = affine([(1.0, _T)], 1.0)


def _theta() -> TestFunction:
    expr = Power(_ONE_PLUS_T, -2.0)
    anti = affine([(-1.0, Power(_ONE_PLUS_T, -1.0))])
    return TestFunction(
        "theta",
        (Piece(0.0, math.inf, expr, anti, 1),),
        (),
        OriginClass("bounded", 1.0, valid_below=1.0),
        TailClass("power", coeff=1.0, alpha=2.0, lower=0.25, valid_from=1.0),
        (("total_integral", 1.0, "closed-form"), ("l1_norm", 1.0, "closed-form")),
    )


def _f0() -> TestFunction:
    inv_t = Power(_T, -1.0)
    zero = Piece(0.0, 1.0, Const(0.0), Const(0.0), 0)
    return TestFunction(
        "f0",
        (
            zero,
            Piece(1.0, 2.0, inv_t, Log(_T), 1),
            Piece(2.0, 3.0, Const(0.0), Const(0.0), 0),
            Piece(3.0, 4.0, affine([(-1.0, inv_t)]), affine([(-1.0, Log(_T))]), -1),
            Piece(4.0, math.inf, Const(0.0), Const(0.0), 0),
        ),
        (1.0, 2.0, 3.0, 4.0),
        OriginClass("bounded", 0.0, valid_below=1.0),
        TailClass("compact", support_end=4.0),
        (
            ("total_integral", math.log(1.5), "closed-form"),
            ("l1_norm", math.log(8.0 / 3.0), "closed-form"),
        ),
    )


def _fe() -> TestFunction:
    core = Product((Power(_T, -1.0), Power(Log(_T), -2.0)))
    return TestFunction(
        "fe",
        (
            Piece(0.0, 1.0 / _E, core, affine([(-1.0, Power(Log(_T), -1.0))]), 1),
            Piece(1.0 / _E, _E, Const(0.0), Const(0.0), 0),
            Piece(_E, math.inf, affine([(-1.0, core)]), Power(Log(_T), -1.0), -1),
        ),
        (1.0 / _E, _E),
        OriginClass("power_log", 1.0, beta=2.0, valid_below=1.0 / _E, lower=1.0),
        TailClass("power_log", coeff=1.0, beta=2.0, valid_from=_E, lower=1.0),
        (("total_integral", 0.0, "closed-form"), ("l1_norm", 2.0, "closed-form")),
    )


def _power_cutoff(alpha: float, T: float) -> TestFunction:
    if not 0.0 <= alpha < 1.0:
        raise ParameterError("power_cutoff needs 0 <= alpha < 1 for integrability")
    if T <= 0.0:
        raise ParameterError("power_cutoff needs a positive cutoff")
    expr = Const(1.0) if alpha == 0.0 else Power(_T, -alpha)
    anti = affine([(1.0 / (1.0 - alpha), Power(_T, 1.0 - alpha))])
    total = T ** (1.0 - alpha) / (1.0 - alpha)
    if alpha == 0.0:
        origin = OriginClass("bounded", 1.0, valid_below=min(T, 1.0))
    else:
        origin = OriginClass("power", 1.0, alpha=alpha, valid_below=min(T, 1.0), lower=1.0)
    return TestFunction(
        f"power_cutoff(alpha={alpha:g},T={T:g})",
        (
            Piece(0.0, T, expr, anti, 1),
            Piece(T, math.inf, Const(0.0), Const(0.0), 0),
        ),
        (T,),
        origin,
        TailClass("compact", support_end=T),
        (("total_integral", total, "closed-form"), ("l1_norm", total, "closed-form")),
    )


def _power_tail(beta: float) -> TestFunction:
    if beta <= 1.0:
        raise ParameterError("power_tail needs beta > 1 for integrability")
    expr = Power(_ONE_PLUS_T, -beta)
    anti = affine([(1.0 / (1.0 - beta), Power(_ONE_PLUS_T, 1.0 - beta))])
    total = 1.0 / (beta - 1.0)
    return TestFunction(
        f"power_tail(beta={beta:g})",
        (Piece(0.0, math.inf, expr, anti, 1),),
        (),
        OriginClass("bounded", 1.0, valid_below=1.0),
        TailClass("power", coeff=1.0, alpha=beta, lower=2.0 ** (-beta), valid_from=1.0),
        (("total_integral", total, "closed-form"), ("l1_norm", total, "closed-form")),
    )


def _log_tail(beta: float) -> TestFunction:
    if beta <= 1.0:
        raise ParameterError("log_tail needs beta > 1 for integrability")
    expr = Product((Power(_T, -1.0), Power(Log(_T), -beta)))
    anti = affine([(1.0 / (1.0 - beta), Power(Log(_T), 1.0 - beta))])
    total = 1.0 / (beta - 1.0)
    return TestFunction(
        f"log_tail(beta={beta:g})",
        (
            Piece(0.0, _E, Const(0.0), Const(0.0), 0),
            Piece(_E, math.inf, expr, anti, 1),
        ),
        (_E,),
        OriginClass("bounded", 0.0, valid_below=1.0),
        TailClass("power_log", coeff=1.0, beta=beta, valid_from=_E, lower=1.0),
        (("total_integral", total, "closed-form"), ("l1_norm", total, "closed-form")),
    )


def _box(lo: float, hi: float) -> TestFunction:
    if not 0.0 < lo < hi < math.inf:
        raise ParameterError("box needs 0 < lo < hi < inf")
    return TestFunction(
        f"box(lo={lo:g},hi={hi:g})",
        (
            Piece(0.0, lo, Const(0.0), Const(0.0), 0),
            Piece(lo, hi, Const(1.0), _T, 1),
            Piece(hi, math.inf, Const(0.0), Const(0.0), 0),
        ),
        (lo, hi),
        OriginClass("bounded", 0.0 if lo >= 1.0 else 1.0, valid_below=min(lo, 1.0)),
        TailClass("compact", support_end=hi),
        (("total_integral", hi - lo, "closed-form"), ("l1_norm", hi - lo, "closed-form")),
    )


_FIXED = {"theta": _theta, "f0": _f0, "fe": _fe}
_FAMILIES = {
    "power_cutoff": (_power_cutoff, ("alpha", "T")),
    "power_tail": (_power_tail, ("beta",)),
    "log_tail": (_log_tail, ("beta",)),
    "box": (_box, ("lo", "hi")),
}


def catalog_names() -> list[str]:
    return sorted(_FIXED) + sorted(_FAMILIES)


def catalog(name: str, **params: float) -> TestFunction:
    """Look up a fixed catalog entry or build a parametric family member."""
    if name in _FIXED:
        if params:
            raise ParameterError(f"{name} takes no parameters")
        return _FIXED[name]()
    if name in _FAMILIES:
        builder, keys = _FAMILIES[name]
        missing = [k for k in keys if k not in params]
        unknown = [k for k in params if k not in keys]
        if missing or unknown:
            raise ParameterError(
                f"{name} expects parameters {keys}; missing {missing}, unknown {unknown}")
        return builder(*(float(params[k]) for k in keys))
    raise CatalogError(name)


_NAME_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def parse_function(text: str) -> TestFunction:
    """Parse 'name' or 'name(key=value,...)' or 'abs(name...)' into a function."""
    m = _NAME_RE.match(text)
    if not m:
        raise CatalogError(text)
    name, argstr = m.group(1), m.group(2)
    if name == "abs":
        if argstr is None:
            raise ParameterError("abs(...) needs an inner function")
        return absolute(parse_function(argstr))
    params: dict[str, float] = {}
    if argstr is not None and argstr.strip():
        for item in argstr.split(","):
            if "=" not in item:
                raise ParameterError(f"expected key=value in {text!r}")
            key, val = item.split("=", 1)
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise ParameterError(f"bad numeric value in {text!r}") from exc
    return catalog(name, **params)
