"""Independent oracles: closed forms computed here, not by the library.

Each check returns None when the output agrees, or a one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction

_EPS = 2.220446049250313e-16


def _box_forms(t: float) -> tuple[float, float]:
    """Antiderivatives of ln(1+t) and ln t at t."""
    return (1.0 + t) * math.log1p(t) - t, t * math.log(t) - t


def box_functionals(lo: float, hi: float) -> dict[str, tuple[float, float]]:
    """Closed forms of W, I1, I2 for the indicator of [lo, hi], each with the
    rounding slack of its own evaluation.

    W = int 2 ln(1+t) - ln t, I1 = int ln(1+t) - ln t, I2 = int ln(1+t).
    """
    a_hi, b_hi = _box_forms(hi)
    a_lo, b_lo = _box_forms(lo)
    one_plus = a_hi - a_lo
    log_t = b_hi - b_lo
    scale = abs(a_hi) + abs(a_lo) + abs(b_hi) + abs(b_lo)
    slack = 64.0 * _EPS * scale
    return {"W": (2.0 * one_plus - log_t, slack),
            "I1": (one_plus - log_t, slack),
            "I2": (one_plus, slack)}


def within(name: str, res, expected: float, slack: float):
    """A converged half-line result must sit within its reported error."""
    if res is None or res.verdict != "converged":
        return f"{name}: verdict {getattr(res, 'verdict', None)}, expected converged"
    if abs(res.value - expected) > res.total_error + slack:
        return (f"{name}: {res.value!r} vs closed form {expected!r} "
                f"(allowed {res.total_error + slack:.3g})")
    return None


def check_cont_point(family: str, value: float, fixed: dict, row: dict, got: dict):
    """got maps functional name -> captured HalflineResult of this point."""
    if "error" in row:
        return f"{family}: raised {row['error']}"
    if family == "box":
        for name, (expected, slack) in box_functionals(value, fixed["hi"]).items():
            reason = within(f"box {name}", got.get(name), expected, slack)
            if reason:
                return reason
    elif family == "power_tail":
        expected = 1.0 / (value - 1.0) ** 2
        return within("power_tail I2", got.get("I2"), expected, 64.0 * _EPS * expected)
    elif family == "log_tail":
        divergent = value <= 2.0
        for key in ("weighted_verdict", "modified_verdict"):
            if (row.get(key) == "divergent") != divergent:
                return f"log_tail beta={value!r}: {key} {row.get(key)}"
    return None


class Harmonic:
    """H_k = sum_{j<=k} 1/j through one common denominator lcm(1..n)."""

    def __init__(self, n: int):
        lcm = 1
        for j in range(2, n + 1):
            lcm = lcm * j // math.gcd(lcm, j)
        self.den = lcm
        self.num = [0] * (n + 1)
        acc = 0
        for j in range(1, n + 1):
            acc += lcm // j
            self.num[j] = acc

    def __call__(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den)


def em_norm(h: Harmonic, m: int) -> Fraction:
    """Exact l1 norm of the corrected Cesaro image of the impulse at m."""
    return h(m) - 1 + Fraction(1, m)
