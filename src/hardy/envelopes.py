"""Certified decay envelopes on the half line.

An :class:`Envelope` records the bound

    |g(t)| <= coeff * t**(-power) * (ln t)**logpow      for all t >= valid_from,

with ``valid_from >= e`` so that ``ln t >= 1`` throughout the valid range.
Optionally a matching lower bound ``|g(t)| >= lower * t**(-power) * (ln t)**logpow``
may be declared; a lower bound is what turns "the upper bound does not
converge" into a certificate of divergence.  A compact bound (``coeff`` 0,
from :meth:`Envelope.compact`) records where g vanishes, ``support_end``.

It is the one decay type: a function declares each end's decay as an
envelope (its origin read in u = 1/t, see ``funcspace``), and so does a
generator sequence in ``seq_ops``.  A declared envelope has one of the
shapes of :attr:`Envelope.declarable`, and derives the envelope of its
averaged side (:meth:`Envelope.averaged`) and its integral-test remainder
past any x (:meth:`Envelope.remainder_past`).

All remainder formulas are expressed through ``V = ln T`` because the
quadrature engine walks tails in the ``v = ln t`` coordinate, where power
decay becomes exponential decay and power-log decay becomes power decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["Envelope", "EnvelopeError"]

# Beyond this value of ln(T) we refuse to push the truncation point further.
V_CAP = 1.0e15

_LN2 = math.log(2.0)


class EnvelopeError(ValueError):
    """Raised for malformed envelopes or unsupported remainder shapes."""


@dataclass(frozen=True)
class Envelope:
    """Upper (and optionally lower) bound C * t^-a * (ln t)^b beyond valid_from;
    g = 0 past ``support_end``, which is finite only for a compact bound."""

    coeff: float
    power: float
    logpow: float = 0.0
    valid_from: float = math.e
    lower: float | None = None
    support_end: float = math.inf

    def __post_init__(self):
        if self.coeff < 0:
            raise EnvelopeError("envelope coefficient must be nonnegative")
        if self.lower is not None and not 0 < self.lower <= self.coeff + 1e-15:
            raise EnvelopeError("lower constant must lie in (0, coeff]")
        if self.logpow > 1.0 + 1e-12:
            raise EnvelopeError("log exponents above 1 are not supported")
        # Keep ln t >= 1 and the envelope monotone decreasing on the valid range,
        # so the integral test applies directly.
        vf = max(self.valid_from, math.e)
        if self.power > 0 and self.logpow > 0:
            vf = max(vf, math.exp(self.logpow / self.power) * 1.5)
        object.__setattr__(self, "valid_from", vf)

    # -- constructors -------------------------------------------------------

    @classmethod
    def compact(cls, support_end: float) -> "Envelope":
        """Envelope of a function vanishing beyond ``support_end``."""
        return cls(0.0, 2.0, 0.0, valid_from=max(support_end, math.e), support_end=support_end)

    # -- basic queries -------------------------------------------------------

    @property
    def is_compact(self) -> bool:
        return self.coeff == 0.0

    @property
    def declarable(self) -> bool:
        """Whether a function end or a generator may declare this bound: compact
        with a finite support end, C t^-a with a > 1, or C t^-1 (ln t)^-b with
        b > 1."""
        if self.is_compact:
            return self.support_end < math.inf
        return (self.logpow == 0.0 and self.power > 1.0) or (
            self.power == 1.0 and self.logpow < -1.0)

    def value(self, t: float) -> float:
        if t < self.valid_from:
            raise EnvelopeError(f"envelope queried at t={t} below valid_from={self.valid_from}")
        if self.coeff == 0.0:
            return 0.0
        return self.coeff * t ** (-self.power) * math.log(t) ** self.logpow

    def integrable(self) -> bool:
        """Whether the upper bound certifies a finite tail integral."""
        if self.coeff == 0.0:
            return True
        return self.power > 1.0 or (self.power == 1.0 and self.logpow < -1.0)

    def certified_divergent(self) -> bool:
        """Whether the declared lower bound certifies a divergent tail integral."""
        if self.lower is None or self.coeff == 0.0:
            return False
        return self.power < 1.0 or (self.power == 1.0 and self.logpow >= -1.0)

    # -- remainders ----------------------------------------------------------

    def remainder(self, V: float) -> float:
        """Upper bound on the tail integral beyond T = e**V.

        Requires ``V >= ln(valid_from)``.  Returns ``inf`` when the upper
        bound does not integrate.
        """
        if self.coeff == 0.0:
            return 0.0
        if V < math.log(self.valid_from) - 1e-12:
            raise EnvelopeError("remainder requested inside the invalid range")
        a, b, C = self.power, self.logpow, self.coeff
        if a > 1.0:
            base = C * math.exp(-(a - 1.0) * V) / (a - 1.0)
            if b == 0.0:
                return base
            if b < 0.0:
                return base * V ** b
            # 0 < b <= 1: ln^b t <= ln t on the valid range
            return base * (V + 1.0 / (a - 1.0))
        if a == 1.0 and b < -1.0:
            return C * V ** (1.0 + b) / (-1.0 - b)
        return math.inf

    def remainder_past(self, x: float) -> float:
        """Integral-test bound on int_x^inf |g| for x at or past valid_from.
        The bound decreases there, so it also bounds sum_{k>x} |a_k| of a
        sequence that declares it."""
        if self.is_compact:
            return 0.0 if x >= self.support_end else math.inf
        return self.remainder(math.log(max(x, self.valid_from)))

    def v_for_remainder(self, target: float) -> float:
        """Smallest V (up to a cap) with remainder(V) <= target.

        The remainder is monotone decreasing in V, so a doubling search
        followed by bisection suffices.  Returns the capped V when even the
        cap cannot meet the target; the caller must re-check the remainder.
        """
        if self.coeff == 0.0:
            return math.log(self.valid_from)
        if not self.integrable():
            raise EnvelopeError("cannot choose a truncation point for a divergent bound")
        if target <= 0:
            raise EnvelopeError("remainder target must be positive")
        lo = max(1.0, math.log(self.valid_from))
        if self.remainder(lo) <= target:
            return lo
        hi = lo
        while self.remainder(hi) > target:
            hi *= 2.0
            if hi >= V_CAP:
                return V_CAP
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.remainder(mid) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-9 * hi:
                break
        return hi

    # -- transforms ----------------------------------------------------------

    def weighted_log(self) -> "Envelope":
        """Envelope after multiplying the function by ln(1 + t).

        Uses ln t <= ln(1+t) <= (1 + ln 2) ln t on t >= e, so the log
        exponent rises by one, the upper constant picks up (1 + ln 2) and the
        lower constant survives unchanged.
        """
        return replace(self, coeff=self.coeff * (1.0 + _LN2), logpow=self.logpow + 1.0)

    def averaged(self) -> "Envelope":
        """Envelope of T(t)/t, T(t) = int_t^inf |g|, for a declarable bound: the
        bound integrated to infinity, over t.  At a function's origin T(u) =
        F(1/u), with F(x) = int_0^x |f|.  A power-log lower bound integrates
        to lower/(b-1); the extra 1/2 absorbs x+1 <= 2x on x >= 1, so the
        constant bounds T(t)/(t+1) and F(1/u)/(1+u) from below."""
        if self.is_compact:
            return self
        if self.logpow == 0.0:
            return Envelope(self.coeff / (self.power - 1.0), self.power, 0.0, self.valid_from)
        lower = None if self.lower is None else self.lower / (2.0 * (-self.logpow - 1.0))
        return Envelope(self.coeff / (-self.logpow - 1.0), 1.0, 1.0 + self.logpow,
                        self.valid_from, lower=lower)


def sum_remainder(envs: tuple[Envelope, ...], V: float) -> float:
    """Tail remainder of a sum bounded componentwise by ``envs``."""
    return math.fsum(env.remainder(V) for env in envs)


def sum_v_for_remainder(envs: tuple[Envelope, ...], target: float) -> float:
    """V meeting a joint remainder target for a componentwise bound."""
    active = [e for e in envs if e.coeff > 0.0]
    if not active:
        return max(math.log(e.valid_from) for e in envs)
    share = target / len(active)
    V = max(e.v_for_remainder(share) for e in active)
    return max(V, *(math.log(e.valid_from) for e in envs))
