"""Running Cesaro means, the mean-zero corrected sequence operator, and the
log-weighted summability diagnostics, with an exact-rational mode.

Notation:

    (G a)_n  = (1/n) sum_{k<=n} a_k                    (Cesaro mean)
    (Gm a)_n = (G a)_n - (sum_k a_k) / (n+1)           (mean-zero correction)
    J1(n)    = (1/n - 1/(n+1)) sum_{k<=n} a_k
    J2(n)    = (n+1)^-1 sum_{k>n} a_k                  (so Gm a = J1 - J2)
    L(a)     = sum_k |a_k| ln(k+1)

Finite-support sequences are stored as exact rationals and every identity on
them is evaluated with zero tolerance: sum_n J1(n) telescopes to
sum_k a_k / k and sum_n J2(n) rearranges to sum_k a_k (H_k - 1), both as
exact ``Fraction`` equalities; the rearranged forms take finite sequences
only.  Generator sequences declare their decay with the continuous side's
``TailClass``, whose integral-test remainder certifies every truncated tail.

The pointwise operators ``cesaro``, ``modified_cesaro``, ``j1_term`` and
``j2_term`` are exact-only: they return ``Fraction`` values, and refuse a
generator with float terms before computing anything.

Exact sums are taken over runs, not indices: the index range is cut into
maximal runs a..b on which S_n = sum_{k<=n} a_k is constant (the run past a
finite support is open), and each run adds a closed form to sum |Gm a|_n,
sum J1 and sum J2 (see ``_run_pieces``).  The harmonic differences these need
are summed by binary splitting, with no cache, so a zero run of any length
costs one split instead of one rational addition per index.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .funcspace import TailClass

__all__ = [
    "Rational", "SeqSpec", "SumResult", "DiscMeanReport", "DiscReport",
    "SequenceError", "EULER_GAMMA", "MAX_FLOAT_TERMS",
    "catalog_seq", "parse_sequence", "finite_sequence", "load_rational_file",
    "cesaro", "modified_cesaro", "j1_term", "j2_term",
    "j1_sum", "j2_sum", "j1_sum_by_weights", "j2_sum_by_weights",
    "l1_log_weight", "l1_norm_mod", "total_sum",
    "harmonic", "gamma_residual", "scan_gamma_residual",
    "lp_norm", "hardy_ratio", "disc_mean_check", "disc_equivalence_ratio",
    "build_report",
]

# Exact rational scalar: always reduced, positive denominator.
Rational = Fraction

# Euler-Mascheroni constant, fixed 20-digit literal (never computed here).
EULER_GAMMA = 0.57721566490153286061

_LN2 = math.log(2.0)

# Largest term array any path builds: 80 MB of float64, or as many exact
# rationals in a finite-support sequence.
MAX_FLOAT_TERMS = 10 ** 7

# Truncation point of the operator-side sums j1_sum and j2_sum on generators.
_J_HORIZON = 10 ** 5


class SequenceError(ValueError):
    """Malformed sequence, parameters, or an operation off its domain."""


def _require_within_cap(name: str, n: int) -> None:
    """Refuse a term array of length n above the cap, before it is built."""
    if n > MAX_FLOAT_TERMS:
        raise SequenceError(f"{name}: {n} terms exceed the cap of {MAX_FLOAT_TERMS}")


# ---------------------------------------------------------------------------
# log-weighted tails: the envelope of |a_k| ln(k+1) (Envelope.weighted_log)
# ---------------------------------------------------------------------------

def _weighted_divergent(decay: TailClass) -> bool:
    return decay.envelope().weighted_log().certified_divergent()


def _weighted_remainder(decay: TailClass, n: int) -> float:
    """Integral-test bound on sum_{k>n} |a_k| ln(k+1)."""
    env = decay.envelope().weighted_log()
    if env.is_compact:
        return 0.0 if n >= decay.support_end else math.inf
    if not env.integrable():
        return math.inf
    return env.remainder(math.log(max(n, int(env.valid_from) + 1)))


# ---------------------------------------------------------------------------
# sequence descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeqSpec:
    """A sequence given either by an exact finite-support list or a rule.

    Finite mode stores a_1..a_N as exact rationals (zero beyond N).
    Generator mode supplies gen(k) plus its declared decay, a
    :class:`~hardy.funcspace.TailClass` bound on |a_k| read at t = k and
    spot-checked at construction.  ``exact_sum`` records a known
    closed-form total; a generator that declares one yields exact rational
    terms, and any other generator yields floats (see ``is_exact``).
    ``vec`` is an optional vectorized term builder used by the large-scale
    float paths.
    """

    name: str
    values: tuple[Fraction, ...] | None = None
    gen: Callable[[int], Fraction | float] | None = None
    decay: TailClass | None = None
    exact_sum: Fraction | None = None
    vec: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (self.values is None) == (self.gen is None):
            raise SequenceError("exactly one of values/gen must be given")
        if self.gen is not None and self.decay is None:
            raise SequenceError("generator sequences must declare a decay class")
        if self.values is not None and not all(isinstance(v, Fraction) for v in self.values):
            raise SequenceError("finite-support values must be exact rationals")
        if self.gen is not None:
            self._spot_check_decay()

    def _spot_check_decay(self, n: int = 64):
        dec = self.decay
        ks = sorted({int(dec.valid_from * 2.0 ** (12.0 * i / (n - 1))) + 1 for i in range(n)})
        for k in ks:
            bound = dec.bound(k)
            if abs(float(self.gen(k))) > bound * (1.0 + 1e-9):
                raise SequenceError(f"{self.name}: decay envelope violated at k={k}")
            if dec.lower is not None and dec.kind != "compact":
                floor = bound * dec.lower / dec.coeff
                if abs(float(self.gen(k))) < floor * (1.0 - 1e-9):
                    raise SequenceError(f"{self.name}: decay lower bound violated at k={k}")

    @property
    def finite(self) -> bool:
        return self.values is not None

    @property
    def is_exact(self) -> bool:
        """Whether the terms are exact rationals: derived, never declared."""
        return self.finite or self.exact_sum is not None

    @property
    def support_end(self) -> int | None:
        if self.finite:
            return len(self.values)
        if self.decay.kind == "compact":
            return self.decay.support_end
        return None

    @cached_property
    def runs(self) -> tuple[tuple[int, int | None, Fraction], ...]:
        """The constant-prefix runs (a, b, S) of a finite sequence, built
        once and shared by every exact sum (see ``_constant_runs``)."""
        return _constant_runs(self.values, None)

    @cached_property
    def run_sums(self) -> tuple[Fraction, Fraction, Fraction]:
        """Exact (sum |Gm a|_n, sum J1, sum J2) of a finite sequence."""
        l1 = j1 = j2 = Fraction(0)
        for x1, x2 in _run_pieces(self.runs, self.runs[-1][2]):
            l1 += abs(x1 - x2)
            j1 += x1
            j2 += x2
        return l1, j1, j2

    def terms_float(self, n: int) -> np.ndarray:
        """a_1..a_n as float64, for n up to MAX_FLOAT_TERMS."""
        _require_within_cap(self.name, n)
        if self.finite:
            out = np.zeros(n)
            m = min(n, len(self.values))
            out[:m] = [float(v) for v in self.values[:m]]
            return out
        ks = np.arange(1, n + 1, dtype=np.float64)
        if self.vec is not None:
            return np.asarray(self.vec(ks), dtype=np.float64)
        return np.array([float(self.gen(k)) for k in range(1, n + 1)])


@dataclass(frozen=True)
class SumResult:
    value: float
    err: float
    verdict: str  # "converged" | "divergent" | "inconclusive"
    exact: Fraction | None = None  # populated when the value is exact

    def require_value(self) -> float:
        if self.verdict != "converged":
            raise SequenceError(f"no value available, verdict is {self.verdict}")
        return self.value

    @staticmethod
    def from_exact(q: Fraction) -> "SumResult":
        return SumResult(float(q), 0.0, "converged", exact=q)

    @staticmethod
    def divergent() -> "SumResult":
        return SumResult(math.inf, math.inf, "divergent")

    @staticmethod
    def inconclusive() -> "SumResult":
        return SumResult(math.nan, math.inf, "inconclusive")


# ---------------------------------------------------------------------------
# prefix sums
# ---------------------------------------------------------------------------

def _prefix_float(seq: SeqSpec, n: int) -> np.ndarray:
    return np.cumsum(seq.terms_float(n))


def _constant_runs(terms, end: int | None) -> tuple[tuple[int, int | None, Fraction], ...]:
    """The maximal runs a..b of n = 1..end on which S_n = S is constant, as
    (a, b, S): a run starts at n = 1 and at every nonzero a_n.  With
    end = None the last run is open, past a finite support."""
    starts, sums, s = [], [], Fraction(0)
    for n, t in enumerate(terms, start=1):
        if t or n == 1:
            s += t
            starts.append(n)
            sums.append(s)
    ends = [a - 1 for a in starts[1:]] + [end]
    return tuple(zip(starts or [1], ends, sums or [s]))


def _partial_sum(seq: SeqSpec, n: int) -> Fraction:
    """S_n, exact: read from the run containing n, or walked on an exact
    generator.  A float generator is refused before any term is built."""
    if seq.finite:
        return seq.runs[bisect_right(seq.runs, n, key=lambda run: run[0]) - 1][2]
    if not seq.is_exact:
        raise SequenceError(f"{seq.name}: the pointwise operators need exact terms")
    return sum((seq.gen(k) for k in range(1, n + 1)), Fraction(0))


def _harmonic_split(lo: int, hi: int) -> tuple[int, int]:
    """sum_{lo <= k < hi} 1/k as an unreduced (numerator, denominator), by
    binary splitting (Haible and Papanikolaou, 1998): reduce once, at the end."""
    if hi - lo == 1:
        return 1, lo
    mid = (lo + hi) // 2
    n1, d1 = _harmonic_split(lo, mid)
    n2, d2 = _harmonic_split(mid, hi)
    return n1 * d2 + n2 * d1, d1 * d2


def _run_pieces(runs, m: Fraction):
    """Yield the exact (sum J1, sum J2) over each piece of the runs of a
    sequence with total m; sum |(Gm a)_n| is the sum of |J1 - J2| over them.

    On a run p..q with S_n = S, J1 sums to S (1/p - 1/(q+1)) and J2 to
    (m - S)(H_(q+1) - H_p); the open run adds S/a to J1 and nothing to J2.
    (Gm a)_n = J1(n) - J2(n) = (S - (m - S) n) / (n (n+1)) changes sign at
    most once on a run, after n* = S / (m - S), so each run is cut at
    floor(n*) into two pieces on which Gm a keeps its sign.
    """
    for a, b, s in runs:
        if b is None:
            yield s / a, 0
            continue
        cut = b if a == b or m == s else min(max(math.floor(s / (m - s)), a - 1), b)
        for p, q in ((a, cut), (cut + 1, b)):
            if p <= q:
                yield (s * Fraction(q + 1 - p, p * (q + 1)),
                       (m - s) * Fraction(*_harmonic_split(p + 1, q + 2)))


def total_sum(seq: SeqSpec, horizon: int = 10 ** 6) -> SumResult:
    """sum_k a_k, exact for finite support or a declared closed form,
    tail-bounded through the decay envelope otherwise."""
    if seq.finite:
        return SumResult.from_exact(seq.runs[-1][2])
    if seq.exact_sum is not None:
        return SumResult.from_exact(seq.exact_sum)
    end = seq.support_end
    if end is not None:
        total = float(np.sum(seq.terms_float(end)))
        return SumResult(total, abs(total) * 1e-13 * math.log2(end + 2), "converged")
    n = max(horizon, seq.decay.valid_from)
    head = float(np.sum(seq.terms_float(n)))
    rem = seq.decay.remainder(n)
    if math.isinf(rem):
        return SumResult.inconclusive()
    return SumResult(head, rem + abs(head) * 1e-13 * math.log2(n), "converged")


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def cesaro(seq: SeqSpec, n: int) -> Fraction:
    """(G a)_n = (1/n) sum_{k<=n} a_k, an exact rational."""
    if n < 1:
        raise SequenceError("n must be at least 1")
    return _partial_sum(seq, n) / n


def modified_cesaro(seq: SeqSpec, n: int) -> Fraction:
    """(Gm a)_n = (G a)_n - (sum_k a_k)/(n+1), an exact rational."""
    return cesaro(seq, n) - total_sum(seq).exact / (n + 1)


def j1_term(seq: SeqSpec, n: int) -> Fraction:
    return _partial_sum(seq, n) / (n * (n + 1))


def j2_term(seq: SeqSpec, n: int) -> Fraction:
    s_n = _partial_sum(seq, n)  # first: it refuses a float generator
    return (total_sum(seq).exact - s_n) / (n + 1)


def _require_nonneg_finite(seq: SeqSpec, what: str):
    if seq.finite and any(v < 0 for v in seq.values):
        raise SequenceError(f"{what} requires nonnegative terms")


def j1_sum(seq: SeqSpec) -> SumResult:
    """sum_n J1(n), computed on the operator side (the n-sum); exact over
    the runs of constant S_n for finite support (see ``_run_pieces``)."""
    _require_nonneg_finite(seq, "j1_sum")
    if seq.finite:
        return SumResult.from_exact(seq.run_sums[1])
    total = total_sum(seq, _J_HORIZON)
    if total.verdict != "converged":
        return SumResult.inconclusive()
    csum = _prefix_float(seq, _J_HORIZON)
    ns = np.arange(1, _J_HORIZON + 1, dtype=np.float64)
    head = float(np.sum(csum / (ns * (ns + 1.0))))
    # S_n <= total on nonnegative sequences, so the tail is at most m/(H+1)
    m_up = abs(total.value) + total.err
    return SumResult(head, m_up / (_J_HORIZON + 1) + total.err + 1e-12 * abs(head),
                     "converged")


def j2_sum(seq: SeqSpec) -> SumResult:
    """sum_n J2(n) on the operator side; DIVERGENT when the log-weighted
    envelope certifies it."""
    _require_nonneg_finite(seq, "j2_sum")
    if seq.finite:
        return SumResult.from_exact(seq.run_sums[2])
    if _weighted_divergent(seq.decay):
        return SumResult.divergent()
    total = total_sum(seq, _J_HORIZON)
    if total.verdict != "converged":
        return SumResult.inconclusive()
    wrem = _weighted_remainder(seq.decay, _J_HORIZON)
    if math.isinf(wrem):
        return SumResult.inconclusive()
    csum = _prefix_float(seq, _J_HORIZON)
    ns = np.arange(1, _J_HORIZON + 1, dtype=np.float64)
    head = float(np.sum((total.value - csum) / (ns + 1.0)))
    # tail: sum_{n>H} T_n/(n+1) = sum_{k>H} a_k (H_k - H_{H+1}) <= weighted remainder
    err = wrem + total.err * math.log(_J_HORIZON + 1.0) + 1e-12 * abs(head)
    return SumResult(head, err, "converged")


def _require_finite(seq: SeqSpec, what: str):
    """The rearranged forms take finite nonnegative sequences only."""
    if not seq.finite:
        raise SequenceError(f"{what} takes finite sequences only; {seq.name} is a generator")
    _require_nonneg_finite(seq, what)


def j1_sum_by_weights(seq: SeqSpec) -> SumResult:
    """The rearranged form sum_k a_k / k of a finite sequence (independent
    route for checking)."""
    _require_finite(seq, "j1_sum_by_weights")
    return SumResult.from_exact(
        sum((v / Fraction(k) for k, v in enumerate(seq.values, start=1)), Fraction(0)))


def j2_sum_by_weights(seq: SeqSpec) -> SumResult:
    """The rearranged form sum_k a_k (H_k - 1) of a finite sequence."""
    _require_finite(seq, "j2_sum_by_weights")
    acc = Fraction(0)
    for k, v in enumerate(seq.values, start=1):
        acc += v * (harmonic(k) - 1)
    return SumResult.from_exact(acc)


def l1_log_weight(seq: SeqSpec, horizon: int = 10 ** 6) -> SumResult:
    """L(a) = sum_k |a_k| ln(k+1) with an integral-test tail bound."""
    if seq.finite:
        vals = [abs(float(v)) * math.log(k + 1.0)
                for k, v in enumerate(seq.values, start=1)]
        total = math.fsum(vals)
        return SumResult(total, 4e-16 * total * max(1, len(vals)).bit_length(),
                         "converged")
    if _weighted_divergent(seq.decay):
        return SumResult.divergent()
    end = seq.support_end
    n = end if end is not None else max(horizon, seq.decay.valid_from)
    # terms first, so the size cap fires before any other array is built
    head = float(np.sum(np.abs(seq.terms_float(n))
                        * np.log(np.arange(1, n + 1, dtype=np.float64) + 1.0)))
    if end is not None:
        return SumResult(head, 1e-13 * head * math.log2(n + 2), "converged")
    wrem = _weighted_remainder(seq.decay, n)
    if math.isinf(wrem):
        return SumResult.inconclusive()
    return SumResult(head, wrem + 1e-13 * head * math.log2(n + 2), "converged")


def l1_norm_mod(seq: SeqSpec, horizon: int = 10 ** 4) -> SumResult:
    """sum_n |(Gm a)_n| with certified tail handling.

    Finite support is exact, summed in closed form over the runs of
    constant S_n (see ``_run_pieces``).  For nonnegative generators the
    tail obeys |Gm a|_n <= J1(n) + J2(n), and sum J2 past the horizon sits
    under the log-weighted remainder; divergence is certified through the
    harmonic comparison H_k - 1 >= ln(k+1)/2 (k >= 7), which turns a
    divergent lower envelope on a_k ln(k+1) into a divergent lower bound on
    sum J2 while sum J1 stays below the finite total.
    """
    if seq.finite:
        return SumResult.from_exact(seq.run_sums[0])
    if _weighted_divergent(seq.decay):
        return SumResult.divergent()
    total = total_sum(seq)
    if total.verdict != "converged":
        return SumResult.inconclusive()
    end = seq.support_end
    if end is not None:
        arr = seq.terms_float(end)
        csum = np.cumsum(arr)
        ns = np.arange(1, end + 1, dtype=np.float64)
        head = float(np.sum(np.abs(csum / ns - total.value / (ns + 1.0))))
        tail = abs(total.value) / (end + 1)  # exact telescoping beyond support
        return SumResult(head + tail, total.err + 1e-12 * head * math.log2(end + 2),
                         "converged")
    wrem = _weighted_remainder(seq.decay, horizon)
    if math.isinf(wrem):
        return SumResult.inconclusive()
    if seq.is_exact:
        runs = _constant_runs((seq.gen(k) for k in range(1, horizon + 1)), horizon)
        pieces = _run_pieces(runs, total.exact)
        head, head_err = float(sum((abs(x1 - x2) for x1, x2 in pieces), Fraction(0))), 0.0
    else:
        arr = seq.terms_float(horizon)
        csum = np.cumsum(arr)
        ns = np.arange(1, horizon + 1, dtype=np.float64)
        head = float(np.sum(np.abs(csum / ns - total.value / (ns + 1.0))))
        head_err = total.err * math.log(horizon + 1.0) + 1e-12 * head
    m_up = abs(total.value) + total.err
    tail_bound = m_up / (horizon + 1) + wrem
    return SumResult(head, head_err + tail_bound, "converged")


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

_HARMONIC_CACHE: list[Fraction] = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """H_n as an exact rational."""
    if n < 1:
        raise SequenceError("harmonic numbers start at n = 1")
    while len(_HARMONIC_CACHE) <= n:
        k = len(_HARMONIC_CACHE)
        _HARMONIC_CACHE.append(_HARMONIC_CACHE[-1] + Fraction(1, k))
    return _HARMONIC_CACHE[n]


def gamma_residual(n: int) -> float:
    """H_n - ln n - gamma, via compensated float summation."""
    if n < 1:
        raise SequenceError("n must be at least 1")
    return _harmonic_float(n) - math.log(n) - EULER_GAMMA


def _harmonic_float(n: int) -> float:
    # Kahan summation: the residual bounds are ~1/(2n), far above the error
    total = 0.0
    comp = 0.0
    for k in range(1, n + 1):
        y = 1.0 / k - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def scan_gamma_residual(lo: int, hi: int) -> tuple[bool, float, float]:
    """Check 1/(2(n+1)) < H_n - ln n - gamma < 1/(2n) for every n in [lo, hi].

    Returns (ok, worst lower margin, worst upper margin); a single Kahan
    sweep keeps the harmonic error near machine precision, far below the
    1/(2n(n+1)) gap between the two bounds.
    """
    if lo < 1 or hi < lo:
        raise SequenceError("bad scan range")
    total = 0.0
    comp = 0.0
    ok = True
    worst_lo = math.inf
    worst_hi = math.inf
    for k in range(1, hi + 1):
        y = 1.0 / k - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if k >= lo:
            resid = total - math.log(k) - EULER_GAMMA
            lo_gap = resid - 1.0 / (2.0 * (k + 1))
            hi_gap = 1.0 / (2.0 * k) - resid
            if lo_gap <= 0.0 or hi_gap <= 0.0:
                ok = False
            worst_lo = min(worst_lo, lo_gap)
            worst_hi = min(worst_hi, hi_gap)
    return ok, worst_lo, worst_hi


# ---------------------------------------------------------------------------
# p-norms, the sharp-constant ratio, and diagnostics
# ---------------------------------------------------------------------------

def lp_norm(seq: SeqSpec, p: float, n: int) -> float:
    """Truncated (sum_{k<=n} |a_k|^p)^(1/p)."""
    if p < 1.0:
        raise SequenceError("p must be at least 1")
    arr = np.abs(seq.terms_float(n))
    return float(np.sum(arr ** p) ** (1.0 / p))


def hardy_ratio(seq: SeqSpec, p: float, n: int) -> float:
    """[sum_{m<=n} (G a)_m^p] / [sum_{k<=n} a_k^p] for nonnegative a.

    Reported at the truncation n and never extrapolated; for nonnegative
    sequences the truncated ratio is itself admissible against the
    (p/(p-1))^p bound.
    """
    if not p > 1.0:
        raise SequenceError("the ratio needs p > 1")
    arr = seq.terms_float(n)
    if np.any(arr < 0.0):
        raise SequenceError("hardy_ratio requires nonnegative terms")
    den = float(np.sum(arr ** p))
    if den == 0.0:
        raise SequenceError("zero denominator in hardy_ratio")
    means = np.cumsum(arr) / np.arange(1, n + 1, dtype=np.float64)
    num = float(np.sum(means ** p))
    return num / den


@dataclass(frozen=True)
class DiscMeanReport:
    name: str
    total: float
    total_err: float
    doubling_ns: tuple[int, ...]
    increments: tuple[float, ...]       # sum_{N<m<=2N} |(G a)_m|
    target: float                       # |sum a| * ln 2
    rate_ok: bool                       # increments within 10% at the top scale

    @property
    def zero_sum(self) -> bool:
        return abs(self.total) <= self.total_err + 1e-12


def disc_mean_check(seq: SeqSpec, max_power: int = 20) -> DiscMeanReport:
    """Witness that a nonzero total forces log-divergent Cesaro partial sums.

    For sum a != 0 the doubling blocks sum_{N<m<=2N} |(G a)_m| must settle
    near |sum a| * ln 2 (checked within 10% at the largest scale); a zero
    total asserts nothing.
    """
    total = total_sum(seq)
    if total.verdict != "converged":
        raise SequenceError(f"{seq.name}: total sum is {total.verdict}")
    n_top = 2 ** max_power
    arr = seq.terms_float(n_top)
    means = np.abs(np.cumsum(arr) / np.arange(1, n_top + 1, dtype=np.float64))
    ns = tuple(2 ** j for j in range(10, max_power))
    increments = tuple(float(np.sum(means[n: 2 * n])) for n in ns)
    target = abs(total.value) * _LN2
    if abs(total.value) <= total.err + 1e-12:
        rate_ok = True
    else:
        rate_ok = abs(increments[-1] - target) <= 0.1 * target
    return DiscMeanReport(seq.name, total.value, total.err, ns, increments,
                          target, rate_ok)


def disc_equivalence_ratio(seq: SeqSpec, horizon: int = 10 ** 4) -> float:
    """R(a) = (l1 norm of Gm a + sum a) / (gamma * sum a + L(a)), a >= 0.

    The plain total enters the numerator because the correction kernel
    lambda_k = 1/(k(k+1)) annihilates under Gm while the right side stays
    positive, so the bare quotient admits no universal lower constant.
    """
    _require_nonneg_finite(seq, "disc_equivalence_ratio")
    weight = l1_log_weight(seq)
    if weight.verdict != "converged":
        raise SequenceError(f"{seq.name}: log-weighted sum is {weight.verdict}")
    total = total_sum(seq)
    norm = l1_norm_mod(seq, horizon)
    denom = EULER_GAMMA * total.value + weight.value
    if denom <= 0.0:
        raise SequenceError("equivalence ratio needs a nonzero sequence")
    return (norm.require_value() + total.value) / denom


# ---------------------------------------------------------------------------
# catalog and parsing
# ---------------------------------------------------------------------------

def finite_sequence(name: str, values) -> SeqSpec:
    _require_within_cap(name, len(values))
    vals = [Fraction(v) for v in values]
    while vals and vals[-1] == 0:
        vals.pop()
    if not vals:
        raise SequenceError("finite sequence must have a nonzero entry")
    return SeqSpec(name=name, values=tuple(vals))


def _seq_lambda() -> SeqSpec:
    return SeqSpec(
        name="lambda",
        gen=lambda k: Fraction(1, k * (k + 1)),
        decay=TailClass("power", coeff=1.0, alpha=2.0, valid_from=3, lower=0.5),
        exact_sum=Fraction(1),
        vec=lambda ks: 1.0 / (ks * (ks + 1.0)),
    )


def _seq_em(m: int) -> SeqSpec:
    if m < 1:
        raise SequenceError("em needs m >= 1")
    _require_within_cap(f"em(m={m})", m)
    return finite_sequence(f"em(m={m})", [0] * (m - 1) + [1])


def _seq_powcut(alpha: float, N: int) -> SeqSpec:
    if alpha < 0.0:
        raise SequenceError("powcut needs alpha >= 0")
    if N < 1:
        raise SequenceError("powcut needs N >= 1")
    return SeqSpec(
        name=f"powcut(alpha={alpha:g},N={N})",
        gen=lambda k: float(k) ** (-alpha) if k <= N else 0.0,
        decay=TailClass("compact", support_end=N),
        vec=lambda ks: np.where(ks <= N, ks ** (-alpha), 0.0),
    )


def _seq_power(alpha: float) -> SeqSpec:
    if alpha <= 1.0:
        raise SequenceError("power needs alpha > 1 for summability")
    return SeqSpec(
        name=f"power(alpha={alpha:g})",
        gen=lambda k: float(k) ** (-alpha),
        decay=TailClass("power", coeff=1.0, alpha=alpha, valid_from=3, lower=1.0),
        vec=lambda ks: ks ** (-alpha),
    )


def _seq_logdecay(beta: float, start: int = 3) -> SeqSpec:
    if beta <= 1.0:
        raise SequenceError("logdecay needs beta > 1 for summability")
    start = max(int(start), 3)
    return SeqSpec(
        name=f"logdecay(beta={beta:g},start={start})",
        gen=lambda k: 1.0 / (k * math.log(k + 1.0) ** beta) if k >= start else 0.0,
        decay=TailClass("power_log", coeff=1.0, beta=beta, valid_from=start,
                        lower=2.0 ** (-beta)),
        vec=lambda ks: np.where(ks >= start, 1.0 / (ks * np.log(ks + 1.0) ** beta), 0.0),
    )


_SEQ_FIXED = {"lambda": _seq_lambda}
_SEQ_FAMILIES = {
    "em": (_seq_em, ("m",), (int,)),
    "powcut": (_seq_powcut, ("alpha", "N"), (float, int)),
    "power": (_seq_power, ("alpha",), (float,)),
    "logdecay": (_seq_logdecay, ("beta", "start"), (float, int)),
}
_SEQ_DEFAULTS = {"logdecay": {"start": 3}}


def catalog_seq(name: str, **params) -> SeqSpec:
    if name in _SEQ_FIXED:
        if params:
            raise SequenceError(f"{name} takes no parameters")
        return _SEQ_FIXED[name]()
    if name in _SEQ_FAMILIES:
        builder, keys, types = _SEQ_FAMILIES[name]
        merged = dict(_SEQ_DEFAULTS.get(name, {}))
        merged.update(params)
        missing = [k for k in keys if k not in merged]
        unknown = [k for k in merged if k not in keys]
        if missing or unknown:
            raise SequenceError(
                f"{name} expects parameters {keys}; missing {missing}, unknown {unknown}")
        for k, typ in zip(keys, types):
            if typ is int and not float(merged[k]).is_integer():
                raise SequenceError(f"{name}: {k} must be an integer, got {merged[k]!r}")
        return builder(*(typ(merged[k]) for k, typ in zip(keys, types)))
    raise SequenceError(f"unknown sequence {name!r}")


_SEQ_NAME_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def parse_sequence(text: str) -> SeqSpec:
    m = _SEQ_NAME_RE.match(text)
    if not m:
        raise SequenceError(f"cannot parse sequence {text!r}")
    name, argstr = m.group(1), m.group(2)
    params = {}
    if argstr is not None and argstr.strip():
        for item in argstr.split(","):
            if "=" not in item:
                raise SequenceError(f"expected key=value in {text!r}")
            key, val = item.split("=", 1)
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise SequenceError(f"bad numeric value in {text!r}") from exc
    return catalog_seq(name, **params)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def load_rational_file(path) -> SeqSpec:
    """One rational per line, `p/q` or integer form; parsed exactly with no
    float round-trip."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not _RATIONAL_RE.match(line):
                raise SequenceError(
                    f"{path}:{lineno}: {line!r} is not an integer or p/q rational")
            values.append(Fraction(line))
            _require_within_cap(f"file:{path}", len(values))
    return finite_sequence(f"file:{path}", values)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _sum_dict(res: SumResult) -> dict:
    out = {"verdict": res.verdict}
    if res.verdict == "converged":
        out["value"] = res.value
        out["err"] = res.err
        if res.exact is not None:
            out["exact"] = str(res.exact)
    return out


@dataclass(frozen=True)
class DiscReport:
    name: str
    total: dict
    l1_norm_mod: dict
    log_weight: dict
    j1: dict
    j2: dict
    equivalence_ratio: float | None

    def to_dict(self) -> dict:
        return {
            "sequence": self.name,
            "total_sum": self.total,
            "l1_norm_modified": self.l1_norm_mod,
            "log_weighted_sum": self.log_weight,
            "j1_sum": self.j1,
            "j2_sum": self.j2,
            "equivalence_ratio": self.equivalence_ratio,
        }


def build_report(seq: SeqSpec, horizon: int = 10 ** 4) -> DiscReport:
    total = total_sum(seq)
    norm = l1_norm_mod(seq, horizon)
    weight = l1_log_weight(seq)
    nonneg = not (seq.finite and any(v < 0 for v in seq.values))
    j1 = j1_sum(seq) if nonneg else SumResult.inconclusive()
    j2 = j2_sum(seq) if nonneg else SumResult.inconclusive()
    ratio = None
    if nonneg and weight.verdict == "converged" and norm.verdict == "converged" \
            and total.verdict == "converged" and total.value > 0.0:
        denom = EULER_GAMMA * total.value + weight.value
        ratio = (norm.value + total.value) / denom
    return DiscReport(
        name=seq.name,
        total=_sum_dict(total),
        l1_norm_mod=_sum_dict(norm),
        log_weight=_sum_dict(weight),
        j1=_sum_dict(j1),
        j2=_sum_dict(j2),
        equivalence_ratio=ratio,
    )
