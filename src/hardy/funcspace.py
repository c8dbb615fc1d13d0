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
* ``eval`` finds the piece of t by a bisect over the breakpoints;
  ``log_eval`` finds that of t = e**v, for every v, by a bisect over their
  logarithms, so it reads the right piece at both ends of the float range.
* Decay behaviour at 0 and at infinity is *declared*, each end as one
  :class:`~hardy.envelopes.Envelope` of a declarable shape (compact,
  c t**-a with a > 1, or c / (t ln(t)**b) with b > 1), and spot-checked by
  sampling at construction time, never inferred from the expression tree.
  The origin is a tail too: substituting u = 1/t maps int_0^a |f(t)| dt
  onto int_{1/a}^inf |f(1/u)| / u**2 du, so a function's ``origin`` is the
  envelope of u -> |f(1/u)| / u**2.  A bounded f declares power 2 there,
  |f| <= c t**-alpha declares power 2 - alpha, and f = 0 near 0 declares a
  compact envelope.  Generator sequences in ``seq_ops`` declare their decay
  the same way: by the integral test its remainder bounds a sum over k > n
  as well as an integral over t > n.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .envelopes import Envelope
from .expressions import (
    Affine, Const, Expr, ExprDomainError, Log, Power, Product, Var, affine,
)

__all__ = [
    "TestFunction", "Piece",
    "DomainError", "CatalogError", "ParameterError",
    "FAMILIES", "catalog", "catalog_names", "check_params", "split_name",
    "parse_params", "parse_function",
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
# the function type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    expr: Expr
    antiderivative: Expr | None = None
    sign: int | None = None  # constant sign of the piece, when known
    log_moment: Expr | None = None  # of expr(t) ln t, zero at inf; last piece only


@dataclass(frozen=True)
class TestFunction:
    """f on (0, inf): ``tail`` declares the decay of f as t -> inf and
    ``origin`` that of u -> f(1/u) / u**2 as u = 1/t -> inf; ``exact_values``
    holds closed-form (key, value) pairs such as ("l1_norm", 2.0)."""

    name: str
    pieces: tuple[Piece, ...]
    breakpoints: tuple[float, ...]
    origin: Envelope
    tail: Envelope
    exact_values: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        _validate(self)

    # hashed once per instance, not on each lru_cache lookup that keys on it;
    # == compares the same fields, and a pickle leaves out the salted hash
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, field.name) for field in fields(self)))

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    # -- evaluation ----------------------------------------------------------

    def piece_index(self, t: float) -> int:
        if not t > 0.0:
            raise DomainError(f"functions live on (0, inf); got t={t}")
        return bisect_left(self.breakpoints, t)

    def eval(self, t: float) -> float:
        return self.pieces[self.piece_index(t)].expr.eval(t)

    __call__ = eval

    def log_piece_index(self, v: float) -> int:
        """The piece holding t = e**v, by a bisect over the log-breakpoints;
        valid for any v, as e**v itself is never formed."""
        return bisect_left(self.breakpoints, v, key=math.log)

    def log_eval(self, v: float) -> tuple[float, float]:
        """(ln|f|, sign) at t = e**v, in the piece of the log-breakpoint
        bisect; stable for v far beyond float overflow."""
        return self.pieces[self.log_piece_index(v)].expr.log_eval(v)

    # -- exact data ----------------------------------------------------------

    def exact(self, key: str) -> float | None:
        return dict(self.exact_values).get(key)


def _validate(f: TestFunction) -> None:
    bps = f.breakpoints
    # the origin is walked in u = 1/t, so a breakpoint's reciprocal must be finite too
    if list(bps) != sorted(set(bps)) or any(
            not 0.0 < b < math.inf or 1.0 / b == math.inf for b in bps):
        raise ParameterError(f"{f.name}: breakpoints must be positive, strictly increasing, "
                             "and finite with a finite reciprocal")
    if len(f.pieces) != len(bps) + 1:
        raise ParameterError(f"{f.name}: need exactly one more piece than breakpoints")
    lo = 0.0
    for piece, hi in zip(f.pieces, list(bps) + [math.inf]):
        if piece.lo != lo or piece.hi != hi:
            raise ParameterError(f"{f.name}: pieces must tile (0, inf) in order")
        lo = hi
    _spot_check(f, "tail")
    _spot_check(f, "origin")


def _is_zero(e: Expr) -> bool:
    """Whether e is zero by its form: Const(0) or an affine sum of zeros."""
    if isinstance(e, Affine):
        return e.const == 0.0 and all(c == 0.0 or _is_zero(x) for c, x in e.terms)
    return e == Const(0.0)


def _spot_check(f: TestFunction, end: str, n: int = 64) -> None:
    """Check the shape of one end's declared envelope.  A compact end is read
    exactly: every piece reaching past its support end must be zero by its
    form, and so must no outermost piece of an end that declares a lower
    bound.  Any other is sampled against ln|g| at e**v: the tail reads
    g(t) = f(t), the origin g(u) = f(1/u) / u**2, so ln|f(e**-v)| - 2v."""
    if end == "tail":
        env, x, log_abs = f.tail, "t", lambda v: f.log_eval(v)[0]
        beyond, outer = lambda p: p.hi > env.support_end, f.pieces[-1]
    else:
        env, x, log_abs = f.origin, "u", lambda v: f.log_eval(-v)[0] - 2.0 * v
        beyond, outer = lambda p: p.lo * env.support_end < 1.0, f.pieces[0]
    if not env.declarable:
        raise ParameterError(f"{f.name}: {end} must be declared compact, c {x}**-a with "
                             f"a > 1 or c / ({x} ln({x})**b) with b > 1; got {env}")
    if env.is_compact:
        for p in filter(beyond, f.pieces):
            if not _is_zero(p.expr):
                raise ParameterError(f"{f.name}: {end} declared compact beyond "
                                     f"{x}={env.support_end} but f != 0 on ({p.lo}, {p.hi}]")
        return
    if env.lower is not None and _is_zero(outer.expr):
        raise ParameterError(f"{f.name}: {end} declares a lower bound on a zero piece")
    v0 = math.log(env.valid_from) + 1e-9
    for i in range(n):
        v = v0 + 14.0 * i / (n - 1)
        la = log_abs(v)
        cap = math.log(env.coeff) - env.power * v + env.logpow * math.log(v)
        if la > cap + 1e-9:
            raise ParameterError(f"{f.name}: {end} envelope violated at {x}=e**{v:.3f}")
        if env.lower is not None:
            floor = math.log(env.lower) - env.power * v + env.logpow * math.log(v)
            if la < floor - 1e-9:
                raise ParameterError(f"{f.name}: {end} lower bound violated at {x}=e**{v:.3f}")


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

def _times(c: float, e: Expr | None) -> Expr | None:
    return None if e is None else affine([(c, e)])


def abs_piece(f: TestFunction, p: Piece) -> Piece:
    """|p| for a piece p of f that carries a declared constant sign."""
    if p.sign is None:
        raise DomainError(f"{f.name}: piece on ({p.lo}, {p.hi}] has no declared sign")
    if p.sign < 0:
        return Piece(p.lo, p.hi, _times(-1.0, p.expr), _times(-1.0, p.antiderivative), 1,
                     _times(-1.0, p.log_moment))
    return p


def absolute(f: TestFunction) -> TestFunction:
    """|f| for functions whose pieces carry a declared constant sign."""
    pieces = [abs_piece(f, p) for p in f.pieces]
    l1 = f.exact("l1_norm")
    exact = () if l1 is None else (("total_integral", l1), ("l1_norm", l1))
    return TestFunction(f"abs({f.name})", tuple(pieces), f.breakpoints,
                        f.origin, f.tail, exact)


def scale(f: TestFunction, c: float) -> TestFunction:
    if c == 0.0:
        raise ParameterError("scaling by zero is not useful")
    mag = abs(c)
    sgn = 1 if c > 0 else -1
    pieces = tuple(
        Piece(p.lo, p.hi, _times(c, p.expr), _times(c, p.antiderivative),
              None if p.sign is None else sgn * p.sign, _times(c, p.log_moment))
        for p in f.pieces
    )
    origin, tail = (replace(env, coeff=env.coeff * mag,
                            lower=None if env.lower is None else env.lower * mag)
                    for env in (f.origin, f.tail))
    exact = tuple((k, v * (c if k == "total_integral" else mag))
                  for k, v in f.exact_values if k in ("total_integral", "l1_norm"))
    return TestFunction(f"scale({f.name},{c:g})", pieces, f.breakpoints, origin, tail, exact)


def _sup_power_exp(beta: float, rate: float, v0: float) -> float:
    """sup over v >= v0 >= 0 of v**beta * e**(-rate*v), beta >= 0, rate > 0;
    the maximum sits at v = beta/rate or, past it, at v0."""
    v = max(v0, beta / rate)
    return v ** beta * math.exp(-rate * v)


def _join_tail(a: Envelope, b: Envelope, signed_from: float) -> Envelope:
    """Conservative envelope for a sum |f + g| <= |f| + |g|, at either end.
    A compact envelope is valid from its support end, so ``valid`` starts
    past both supports.  The slower summand's lower bound is kept past a
    compact summand's support, where the sum is that summand, and where the
    sum keeps one declared sign from ``signed_from`` on, since there
    |f + g| = |f| + |g|."""
    if a.is_compact and b.is_compact:
        return Envelope.compact(max(a.support_end, b.support_end))
    valid = max(a.valid_from, b.valid_from)
    if a.is_compact or b.is_compact:
        return replace(b if a.is_compact else a, valid_from=valid)
    slow = min(a, b, key=lambda env: (env.power, -env.logpow))
    lower = slow.lower if signed_from <= valid else None
    if (a.logpow == 0.0) != (b.logpow == 0.0):
        # a power into a power-log: in v = ln t the shapes differ by the factor
        # v**beta e**(-(alpha-1)v), at most its sup over v >= ln(valid)
        fast = b if slow is a else a
        sup = _sup_power_exp(-slow.logpow, fast.power - 1.0, math.log(valid))
        return Envelope(slow.coeff + fast.coeff * sup, 1.0, slow.logpow, valid, lower)
    return Envelope(a.coeff + b.coeff, slow.power, slow.logpow, valid, lower)


def add(f: TestFunction, g: TestFunction) -> TestFunction:
    """Pointwise sum with merged breakpoints and conservative decay envelopes."""
    bps = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
    pieces = []
    lo = 0.0
    for hi in list(bps) + [math.inf]:
        # pieces are (lo, hi], so hi itself names the piece of each summand
        pf = f.pieces[f.piece_index(hi)]
        pg = g.pieces[g.piece_index(hi)]
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
        exact.append(("total_integral", tf + tg))
    # where each end's outermost piece, and so its sign, starts: at the
    # origin in u = 1/t
    first, last = pieces[0], pieces[-1]
    return TestFunction(f"({f.name}+{g.name})", tuple(pieces), bps,
                        _join_tail(f.origin, g.origin, 1.0 / first.hi if first.sign else math.inf),
                        _join_tail(f.tail, g.tail, last.lo if last.sign else math.inf),
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
        Envelope(1.0, 2.0, valid_from=1.0),
        Envelope(1.0, 2.0, lower=0.25, valid_from=1.0),
        (("total_integral", 1.0), ("l1_norm", 1.0)),
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
        Envelope.compact(1.0),
        Envelope.compact(4.0),
        (("total_integral", math.log(1.5)), ("l1_norm", math.log(8.0 / 3.0))),
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
        Envelope(1.0, 1.0, -2.0, valid_from=_E, lower=1.0),
        Envelope(1.0, 1.0, -2.0, valid_from=_E, lower=1.0),
        (("total_integral", 0.0), ("l1_norm", 2.0)),
    )


def _power_cutoff(alpha: float, T: float) -> TestFunction:
    if not 0.0 <= alpha < 1.0:
        raise ParameterError("power_cutoff needs 0 <= alpha < 1 for integrability")
    if T <= 0.0:
        raise ParameterError("power_cutoff needs a positive cutoff")
    expr = Const(1.0) if alpha == 0.0 else Power(_T, -alpha)
    anti = affine([(1.0 / (1.0 - alpha), Power(_T, 1.0 - alpha))])
    total = T ** (1.0 - alpha) / (1.0 - alpha)
    return TestFunction(
        f"power_cutoff(alpha={alpha:g},T={T:g})",
        (
            Piece(0.0, T, expr, anti, 1),
            Piece(T, math.inf, Const(0.0), Const(0.0), 0),
        ),
        (T,),
        Envelope(1.0, 2.0 - alpha, valid_from=1.0 / min(T, 1.0)),
        Envelope.compact(T),
        (("total_integral", total), ("l1_norm", total)),
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
        Envelope(1.0, 2.0, valid_from=1.0),
        Envelope(1.0, beta, lower=2.0 ** (-beta), valid_from=1.0),
        (("total_integral", total), ("l1_norm", total)),
    )


def _log_tail(beta: float) -> TestFunction:
    if beta <= 1.0:
        raise ParameterError("log_tail needs beta > 1 for integrability")
    expr = Product((Power(_T, -1.0), Power(Log(_T), -beta)))
    anti = affine([(1.0 / (1.0 - beta), Power(Log(_T), 1.0 - beta))])
    moment = affine([(1.0 / (2.0 - beta), Power(Log(_T), 2.0 - beta))]) if beta > 2.0 else None
    total = 1.0 / (beta - 1.0)
    return TestFunction(
        f"log_tail(beta={beta:g})",
        (
            Piece(0.0, _E, Const(0.0), Const(0.0), 0),
            Piece(_E, math.inf, expr, anti, 1, moment),
        ),
        (_E,),
        Envelope.compact(1.0),
        Envelope(1.0, 1.0, -beta, valid_from=_E, lower=1.0),
        (("total_integral", total), ("l1_norm", total)),
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
        Envelope(1.0, 2.0, valid_from=1.0 / lo) if lo < 1.0
        else Envelope.compact(1.0),
        Envelope.compact(hi),
        (("total_integral", hi - lo), ("l1_norm", hi - lo)),
    )


_FIXED = {"theta": _theta, "f0": _f0, "fe": _fe}
FAMILIES = {  # name -> (builder, parameter names, parameter types)
    "power_cutoff": (_power_cutoff, ("alpha", "T"), (float, float)),
    "power_tail": (_power_tail, ("beta",), (float,)),
    "log_tail": (_log_tail, ("beta",), (float,)),
    "box": (_box, ("lo", "hi"), (float, float)),
}


def catalog_names() -> list[str]:
    return sorted(_FIXED) + sorted(FAMILIES)


def check_params(table: dict, name: str, params: dict, error=ParameterError) -> dict:
    """The parameters of family ``name`` of ``table`` ({name: (builder, keys,
    types)}), each converted to its type; raises ``error`` when one is
    missing, unknown, not finite, or not integral where an int is declared."""
    _, keys, types = table[name]
    missing = [k for k in keys if k not in params]
    unknown = [k for k in params if k not in keys]
    if missing or unknown:
        raise error(f"{name} expects parameters {keys}; missing {missing}, unknown {unknown}")
    out = {}
    for k, typ in zip(keys, types):
        value = float(params[k])
        if not math.isfinite(value):
            raise error(f"{name}: {k} must be finite, got {params[k]!r}")
        if typ is int and not value.is_integer():
            raise error(f"{name}: {k} must be an integer, got {params[k]!r}")
        out[k] = typ(params[k])
    return out


def catalog(name: str, **params: float) -> TestFunction:
    """Look up a fixed catalog entry or build a parametric family member."""
    if name in _FIXED:
        if params:
            raise ParameterError(f"{name} takes no parameters")
        return _FIXED[name]()
    if name in FAMILIES:
        return FAMILIES[name][0](**check_params(FAMILIES, name, params))
    raise CatalogError(name)


_NAME_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def split_name(text: str) -> tuple[str, str | None] | None:
    """'name' or 'name(args)' as (name, args or None); None when malformed."""
    m = _NAME_RE.match(text)
    return None if m is None else (m.group(1), m.group(2))


def parse_params(text: str, argstr: str | None, error=ParameterError) -> dict[str, float]:
    """The 'key=value,...' list ``argstr`` of ``text`` as floats by key."""
    params: dict[str, float] = {}
    if argstr is not None and argstr.strip():
        for item in argstr.split(","):
            if "=" not in item:
                raise error(f"expected key=value in {text!r}")
            key, val = item.split("=", 1)
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise error(f"bad numeric value in {text!r}") from exc
    return params


def parse_function(text: str) -> TestFunction:
    """Parse 'name' or 'name(key=value,...)' or 'abs(name...)' into a function."""
    parts = split_name(text)
    if parts is None:
        raise CatalogError(text)
    name, argstr = parts
    if name == "abs":
        if argstr is None:
            raise ParameterError("abs(...) needs an inner function")
        return absolute(parse_function(argstr))
    return catalog(name, **parse_params(text, argstr))
