"""Closed-form expression nodes in one positive variable.

The node set is deliberately tiny: constants, the variable t, affine
combinations, products, real powers and the natural log.  That is enough to
express every function in the catalog together with a hand-supplied
antiderivative for each piece, which is what makes exact integral oracles
possible without any symbolic integration machinery.

Two evaluation modes are provided:

* ``eval(t)``        - float evaluation; it also accepts t = 0.0 and
                       t = inf and takes the limit there (0^p -> 0 for
                       p > 0, ln 0 -> -inf, ...), which is how
                       antiderivatives are read at interval endpoints;
                       an indeterminate limit raises ``ExprDomainError``;
* ``log_eval(v)``    - evaluates the node at t = e**v through a
                       (log magnitude, sign) representation, stable for
                       |v| far beyond the overflow range of e**v itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Expr", "Const", "Var", "Affine", "Product", "Power", "Log",
    "ExprDomainError", "affine", "recip",
]

_NEG_INF = float("-inf")


class ExprDomainError(ValueError):
    """Evaluation left the expression's domain (log of nonpositive, etc.)."""


class Expr:
    """Base class; subclasses are frozen dataclasses and hashable."""

    def eval(self, t: float) -> float:
        """Value at t, with limit semantics at t = 0 and t = inf."""
        raise NotImplementedError

    def eval_ext(self, t: float) -> float:
        """Alias of ``eval``, which already takes the limits."""
        return self.eval(t)

    def log_eval(self, v: float) -> tuple[float, float]:
        """Return (ln|value|, sign) of the node at t = e**v."""
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.eval(t)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, t):
        return self.value

    def log_eval(self, v):
        if self.value == 0.0:
            return _NEG_INF, 0.0
        return math.log(abs(self.value)), math.copysign(1.0, self.value)


@dataclass(frozen=True)
class Var(Expr):
    def eval(self, t):
        return t

    def log_eval(self, v):
        return v, 1.0


@dataclass(frozen=True)
class Affine(Expr):
    """const + sum(coeff_i * node_i)."""

    terms: tuple[tuple[float, Expr], ...]
    const: float = 0.0

    def eval(self, t):
        vals = [self.const] + [c * e.eval(t) for c, e in self.terms]
        try:
            return math.fsum(vals)
        except ValueError as exc:  # fsum refuses inf - inf
            raise ExprDomainError("indeterminate inf - inf in affine limit") from exc

    def log_eval(self, v):
        parts = []
        for c, e in self.terms:
            if c == 0.0:
                continue
            la, s = e.log_eval(v)
            if s == 0.0:
                continue
            parts.append((la + math.log(abs(c)), s * math.copysign(1.0, c)))
        if self.const != 0.0:
            parts.append((math.log(abs(self.const)), math.copysign(1.0, self.const)))
        if not parts:
            return _NEG_INF, 0.0
        m = max(la for la, _ in parts)
        if m == _NEG_INF:
            return _NEG_INF, 0.0
        acc = math.fsum(s * math.exp(la - m) for la, s in parts)
        if acc == 0.0:
            return _NEG_INF, 0.0
        return m + math.log(abs(acc)), math.copysign(1.0, acc)


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]

    def eval(self, t):
        out = 1.0
        for f in self.factors:
            val = f.eval(t)
            if (val == 0.0 and math.isinf(out)) or (out == 0.0 and math.isinf(val)):
                raise ExprDomainError("indeterminate 0 * inf in product limit")
            out *= val
        return out

    def log_eval(self, v):
        la_total, sign = 0.0, 1.0
        for f in self.factors:
            la, s = f.log_eval(v)
            if s == 0.0:
                return _NEG_INF, 0.0
            la_total += la
            sign *= s
        return la_total, sign


@dataclass(frozen=True)
class Power(Expr):
    """base ** exponent with a constant real exponent.

    Negative bases are allowed only for integer exponents.
    """

    base: Expr
    exponent: float

    def eval(self, t):
        # float ** takes the limits at an infinite base: inf**-1 = 0.0,
        # (-inf)**3 = -inf
        b = self.base.eval(t)
        p = self.exponent
        if b > 0.0:
            return b ** p
        if b == 0.0:
            if p >= 0:
                return 0.0 if p > 0 else 1.0
            raise ExprDomainError("0 raised to a negative power")
        if p != int(p):
            raise ExprDomainError("negative base with fractional exponent")
        return b ** int(p)

    def log_eval(self, v):
        la, s = self.base.log_eval(v)
        p = self.exponent
        if s == 0.0:
            if p > 0:
                return _NEG_INF, 0.0
            raise ExprDomainError("0 raised to a nonpositive power")
        if s < 0.0:
            if p != int(p):
                raise ExprDomainError("negative base with fractional exponent")
            s = 1.0 if int(p) % 2 == 0 else -1.0
        return p * la, s


@dataclass(frozen=True)
class Log(Expr):
    arg: Expr

    def eval(self, t):
        a = self.arg.eval(t)
        if a == 0.0:
            return -math.inf
        if a < 0.0:
            raise ExprDomainError(f"log of negative value {a}")
        return math.log(a)

    def log_eval(self, v):
        # value = ln(arg); with arg = sign * e**la the sign must be positive
        # and the value is exactly la.
        la, s = self.arg.log_eval(v)
        if s <= 0.0:
            raise ExprDomainError("log of nonpositive value")
        if la == 0.0:
            return _NEG_INF, 0.0
        return math.log(abs(la)), math.copysign(1.0, la)


def affine(terms, const=0.0) -> Affine:
    return Affine(tuple((float(c), e) for c, e in terms), float(const))


def recip(node: Expr) -> Power:
    return Power(node, -1.0)
