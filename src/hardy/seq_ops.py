"""Running Cesaro means, the mean-zero corrected sequence operator, and the
log-weighted summability diagnostics, with an exact-rational mode.

Notation:

    (G a)_n  = (1/n) sum_{k<=n} a_k                    (Cesaro mean)
    (Gm a)_n = (G a)_n - (sum_k a_k) / (n+1)           (mean-zero correction)
    J1(n)    = (1/n - 1/(n+1)) sum_{k<=n} a_k
    J2(n)    = (n+1)^-1 sum_{k>n} a_k                  (so Gm a = J1 - J2)
    L(a)     = sum_k |a_k| ln(k+1)

Finite sequences are stored as their nonzero (k, a_k) terms, exact
rationals, and their identities hold with zero tolerance: sum_n J1(n) = sum_k
a_k / k and sum_n J2(n) = sum_k a_k (H_k - 1) (the rearranged forms, finite
only).  A generator is one float rule ``vec``, with a decay declared as an
``Envelope`` of a declarable shape to certify its tails, the same type a
function declares each end with; an exact generator adds its rational
``gen``.  The exact-only pointwise operators (``cesaro``, ``modified_cesaro``,
``j1_term``, ``j2_term``) each read ``pointwise_numerators``: with D the
common denominator, P = S_n D and M = D sum_k a_k, they are integers over
D n (n+1), and a float generator is refused before any term is built.

Exact sums are taken over the runs a..b of constant S_n = sum_{k<=n} a_k, one
starting at n = 1 and at each stored k (the last is open), each adding a
closed form as integer pairs over D, summed pairwise (see
``SeqSpec.run_sums``).  The rearranged forms, the independent route, read
the terms' integer view (``SeqSpec.int_terms``), never the runs, and are
integer sums too.  Every exact sum is a ``SumResult`` that keeps its
unreduced integer pair: its float ``value`` is taken from the pair, and only
a read of ``.exact`` reduces it, once, so a caller that prints floats only,
as a sweep row does, takes no gcd of two big numbers.
A harmonic sum that starts within its first 64 terms is a kept reduced
prefix H[1, 64 b) plus two adds of under 64 terms each; any other joins
reduced aligned blocks of 64 * 2**j terms.  Prefixes and blocks are each
summed once per process into a bounded memo (see ``_harmonic_split``).
``hardy_ratios`` builds a sequence's arrays once for all its (p, n) ratios,
and H_k - ln k - gamma is summed from its log1p increments (see
``_gamma_residuals``).

numpy is imported inside the functions that build float arrays: a
generator's ``vec`` and its spot check, ``terms_float``, the float branches
of the sums, the gamma scan, ``hardy_ratios`` and ``disc_mean_check``.  The
exact finite-sequence paths and the continuous side never load it, so a
command that uses no generator, p-power ratio or gamma scan is spared its
import, about half of ``import hardy``.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from typing import Callable

from .envelopes import Envelope
from .funcspace import check_params, parse_params, split_name

__all__ = [
    "SeqSpec", "SumResult", "DiscMeanReport", "DiscReport", "SequenceError",
    "EULER_GAMMA", "MAX_FLOAT_TERMS", "MAX_EXACT_SUPPORT", "SEQ_HORIZON", "SEQ_FAMILIES",
    "SEQ_DEFAULTS", "catalog_seq", "parse_sequence", "finite_sequence", "load_rational_file",
    "pointwise_numerators", "cesaro", "modified_cesaro", "j1_term", "j2_term",
    "j1_sum", "j2_sum", "j1_sum_by_weights", "j2_sum_by_weights",
    "l1_log_weight", "l1_norm_mod", "total_sum",
    "harmonic", "gamma_residual", "scan_gamma_residual",
    "hardy_ratio", "hardy_ratios", "disc_mean_check",
    "disc_equivalence_ratio", "equivalence_sums", "build_report",
]

# Euler-Mascheroni constant, fixed 20-digit literal (never computed here).
EULER_GAMMA = 0.57721566490153286061

_LN2 = math.log(2.0)

# Largest term array any path builds (80 MB of float64), and the longest
# finite sequence that can be stored.
MAX_FLOAT_TERMS = 10 ** 7

# Longest support whose exact sums are taken, and so the reach of the harmonic
# memos: their cold cost grows about as n**2 at the top (em(10**5) takes about
# 0.3 s on a 2-core host, and 2*10**5 would take about four times that; 0.04 s
# once its harmonic prefix is kept).
MAX_EXACT_SUPPORT = 10 ** 5

# Length of the head that l1_norm_mod sums before its certified tail bound.
SEQ_HORIZON = 10 ** 4

# Truncation point of the operator-side sums j1_sum and j2_sum on generators.
_J_HORIZON = 10 ** 5

# Truncation point of l1_log_weight on generators without compact support.
_L_HORIZON = 10 ** 6


class SequenceError(ValueError):
    """Malformed sequence, parameters, or an operation off its domain."""


def _require_within_cap(name: str, n: int) -> None:
    """Refuse a term array of length n above the cap, before it is built."""
    if n > MAX_FLOAT_TERMS:
        raise SequenceError(f"{name}: {n} terms exceed the cap of {MAX_FLOAT_TERMS}")


def _require_exact_cap(name: str, n: int) -> None:
    """Refuse an exact sum over n terms above MAX_EXACT_SUPPORT, before any split."""
    if n > MAX_EXACT_SUPPORT:
        raise SequenceError(f"{name}: exact sums over {n} terms "
                            f"exceed the cap of {MAX_EXACT_SUPPORT}")


# ---------------------------------------------------------------------------
# log-weighted tails: the envelope of |a_k| ln(k+1) (Envelope.weighted_log)
# ---------------------------------------------------------------------------

def _weighted_divergent(decay: Envelope) -> bool:
    return decay.weighted_log().certified_divergent()


def _weighted_remainder(decay: Envelope, n: int) -> float:
    """Integral-test bound on sum_{k>n} |a_k| ln(k+1)."""
    env = decay.weighted_log()
    if env.is_compact:
        return env.remainder_past(n)
    if not env.integrable():
        return math.inf
    return env.remainder(math.log(max(n, int(env.valid_from) + 1)))


# ---------------------------------------------------------------------------
# sequence descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeqSpec:
    """A sequence given either by its nonzero terms or by a rule.

    Finite mode stores ``terms``, the nonzero (k, a_k) pairs of a_1..a_N in
    increasing k, as exact rationals; every other a_k is zero.  Its exact sums
    read one integer view, D and each a_k D (``int_terms``): the runs take its
    prefix sums (``int_runs``), the rearranged forms read it directly, and
    each output is one pairwise sum, an exact ``SumResult``.  Generator
    mode supplies ``vec``, the float rule that maps an array of indices k to
    the terms a_k, plus its declared decay, a declarable
    :class:`~hardy.envelopes.Envelope` bound on |a_k| read at t = k and
    spot-checked on ``vec`` past its valid_from (past the support end of a
    compact one) at construction.  An exact generator adds
    ``gen(k)``, its exact rational term, together with ``exact_sum``, its
    closed-form total; every float path still reads ``vec``.
    """

    name: str
    terms: tuple[tuple[int, Fraction], ...] | None = None
    gen: Callable[[int], Fraction] | None = None
    decay: Envelope | None = None
    exact_sum: Fraction | None = None
    vec: Callable | None = None  # float64 array of k -> float64 array of a_k

    def __post_init__(self):
        if (self.terms is None) == (self.vec is None):
            raise SequenceError("exactly one of terms/vec must be given")
        if (self.gen is None) != (self.exact_sum is None):
            raise SequenceError("an exact generator declares both gen and exact_sum")
        if self.finite:
            self._check_terms()
        elif self.decay is None:
            raise SequenceError("generator sequences must declare a decay envelope")
        elif not self.decay.declarable:
            raise SequenceError(f"{self.name}: a decay must be declared compact, c k**-a "
                                f"with a > 1 or c / (k ln(k)**b) with b > 1; got {self.decay}")
        else:
            self._spot_check_decay()

    def _check_terms(self):
        if not self.terms:
            raise SequenceError("finite sequence must have a nonzero entry")
        prev = 0
        for k, v in self.terms:
            if not (isinstance(k, int) and k > prev and isinstance(v, Fraction) and v):
                raise SequenceError("finite-support terms must be nonzero exact "
                                    "rationals at strictly increasing k >= 1")
            prev = k

    def _spot_check_decay(self, n: int = 64):
        import numpy as np

        dec = self.decay
        ks = sorted({int(dec.valid_from * 2.0 ** (12.0 * i / (n - 1))) + 1 for i in range(n)})
        sizes = np.abs(self.vec(np.array(ks, dtype=np.float64)))
        for k, size in zip(ks, sizes):
            bound = dec.value(k)
            if size > bound * (1.0 + 1e-9):
                raise SequenceError(f"{self.name}: decay envelope violated at k={k}")
            if dec.lower is not None and not dec.is_compact:
                floor = bound * dec.lower / dec.coeff
                if size < floor * (1.0 - 1e-9):
                    raise SequenceError(f"{self.name}: decay lower bound violated at k={k}")

    @property
    def finite(self) -> bool:
        return self.terms is not None

    @cached_property  # read by every sum and by the ratio's guard
    def nonnegative(self) -> bool:
        """Whether no term is negative; a generator is assumed nonnegative."""
        return not self.finite or all(v.numerator > 0 for _, v in self.terms)

    @property
    def support_end(self) -> int | None:
        if self.finite:
            return self.terms[-1][0]
        if self.decay.is_compact:
            return self.decay.support_end
        return None

    @cached_property
    def int_terms(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, ks, A): the terms' common denominator D, from one ``math.lcm``,
        their indices k and the integers A_k = a_k D, in one scaling pass."""
        den = math.lcm(*(v.denominator for _, v in self.terms))
        return (den, tuple(k for k, _ in self.terms),
                tuple(v.numerator * (den // v.denominator) for _, v in self.terms))

    @cached_property
    def int_runs(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, starts, P): the first n and P = S_n D of each run of constant
        S_n (from n = 1 and each stored k), the prefix sums of ``int_terms``."""
        den, ks, nums = self.int_terms
        skip = int(ks[0] == 1)  # a run starts at n = 1 anyway
        return den, ((1,) + ks)[skip:], tuple(accumulate(nums, initial=0))[skip:]

    @cached_property
    def run_sums(self) -> tuple[SumResult, SumResult, SumResult]:
        """Exact (sum |Gm a|_n, sum J1, sum J2) of a finite sequence, each a
        ``SumResult`` kept with its unreduced (numerator, denominator) pair.

        Over D, a piece lo..hi of a run of constant P = S_n D adds P (1/lo -
        1/(hi+1)) to J1 and (M - P)(H_(hi+1) - H_lo) to J2; the open run from a
        adds P/a to J1.  (Gm a)_n = (P - (M - P) n) / (D n (n+1)) changes sign
        at most once on a run, after n* = P / (M - P), so each run is cut at
        floor(n*) into two pieces on which Gm a keeps its sign.  A piece of one
        index n (as every run of a dense sequence is) adds P/(n (n+1)), (M - P)/(n+1)
        and |P - (M - P) n|/(n (n+1)), with no harmonic split.  Each output is
        one ``_tree_sum`` of the pieces' integer pairs, reduced only if its
        ``.exact`` is read: em(10**5) takes 0.3 s cold; with its harmonic
        prefix kept, 0.02 s for each output that is read exactly."""
        _require_exact_cap(self.name, self.support_end)
        den, starts, prefix = self.int_runs
        m, l1, j1, j2 = prefix[-1], [], [], []
        for a, b, p in zip(starts, starts[1:], prefix):
            b -= 1
            cut = b if a == b or m == p else min(max(p // (m - p), a - 1), b)
            for lo, hi in ((a, cut), (cut + 1, b)):
                if lo > hi:
                    continue
                n1, d1 = p * (hi + 1 - lo), lo * (hi + 1)
                if lo == hi:  # one index n: J2 = (M - P)/(n+1), |Gm a| over n (n+1)
                    n2, d2 = m - p, hi + 1
                    l1.append((abs(p - n2 * lo), d1))
                else:
                    h_num, d2 = _harmonic_split(lo + 1, hi + 2)
                    n2 = (m - p) * h_num
                    l1.append((abs(n1 * d2 - n2 * d1), d1 * d2))
                j1.append((n1, d1))
                j2.append((n2, d2))
        l1.append((abs(m), starts[-1]))
        j1.append((m, starts[-1]))
        return tuple(SumResult.from_pair(num, d * den) for num, d in map(_tree_sum, (l1, j1, j2)))

    def terms_float(self, n: int):
        """a_1..a_n as a float64 numpy array, for n up to MAX_FLOAT_TERMS."""
        import numpy as np

        _require_within_cap(self.name, n)
        if not self.finite:
            return np.asarray(self.vec(np.arange(1, n + 1, dtype=np.float64)),
                              dtype=np.float64)
        out = np.zeros(n)
        for k, v in self.terms:
            if k > n:
                break
            out[k - 1] = float(v)
        return out


@dataclass(frozen=True)
class SumResult:
    """A sum's float value, its error bound and its verdict.  An exact sum
    keeps ``pair``, its value as an unreduced (numerator, denominator): its
    ``value`` is num / den, which int true division rounds correctly, so it is
    the float of the reduced rational, and ``exact`` reduces the pair to a
    ``Fraction`` on its first read and keeps it."""

    value: float
    err: float
    verdict: str  # "converged" | "divergent" | "inconclusive"
    pair: tuple[int, int] | None = None  # unreduced (num, den) when the value is exact

    @cached_property
    def exact(self) -> Fraction | None:
        """The exact value, reduced once, when first read; None if inexact."""
        return None if self.pair is None else Fraction(*self.pair)

    def __eq__(self, other):
        """Equal value, error and verdict, and the same exact rational if
        either is exact: two pairs compare by cross-multiplication, unreduced."""
        if not isinstance(other, SumResult):
            return NotImplemented
        p, q = self.pair, other.pair
        return ((self.value, self.err, self.verdict) == (other.value, other.err, other.verdict)
                and (p == q or None not in (p, q) and p[0] * q[1] == q[0] * p[1]))

    def __hash__(self):
        return hash((self.value, self.err, self.verdict))

    def require_value(self) -> float:
        if self.verdict != "converged":
            raise SequenceError(f"no value available, verdict is {self.verdict}")
        return self.value

    @staticmethod
    def from_pair(num: int, den: int) -> "SumResult":
        return SumResult(num / den, 0.0, "converged", pair=(num, den))

    @staticmethod
    def divergent() -> "SumResult":
        return SumResult(math.inf, math.inf, "divergent")

    @staticmethod
    def inconclusive() -> "SumResult":
        return SumResult(math.nan, math.inf, "inconclusive")


# ---------------------------------------------------------------------------
# prefix sums
# ---------------------------------------------------------------------------

def _harmonic_unreduced(lo: int, hi: int) -> tuple[int, int]:
    """sum_{lo <= k < hi} 1/k as an unreduced (numerator, denominator), by
    binary splitting (Haible and Papanikolaou, 1998) to 32-term leaves."""
    if hi - lo <= 32:
        num, den = 0, 1
        for k in range(lo, hi):
            num, den = num * k + den, den * k
        return num, den
    mid = (lo + hi) // 2
    (n1, d1), (n2, d2) = _harmonic_unreduced(lo, mid), _harmonic_unreduced(mid, hi)
    return n1 * d2 + n2 * d1, d1 * d2


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _add_reduced(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y for reduced pairs, reduced by Knuth's rule (TAOCP 2, 4.5.1): the
    gcds are taken on the denominators, so no sum outgrows its lcm."""
    (n1, d1), (n2, d2) = x, y
    g = math.gcd(d1, d2)
    t = n1 * (d2 // g) + n2 * (d1 // g)
    g2 = math.gcd(t, g)
    return t // g2, (d1 // g) * (d2 // g2)


# The node (j, i) is the reduced sum of 1/k over the aligned block
# [i L 2**j, (i+1) L 2**j), L = _HARMONIC_LEAF, i >= 1.  Under
# 2 (MAX_EXACT_SUPPORT + 1) / L of them lie within the cap, the memo's bound:
# 3,108 nodes (about 2.4 MB) if every one is built, 770 after harmonic(10**5).
_HARMONIC_LEAF = 64
_HARMONIC_NODES = 2 * (MAX_EXACT_SUPPORT + 1) // _HARMONIC_LEAF


@lru_cache(maxsize=_HARMONIC_NODES)
def _harmonic_node(level: int, index: int) -> tuple[int, int]:
    """The reduced sum over block (level, index): a block of 256 terms or
    fewer is split unreduced and reduced once, a longer one adds its halves."""
    span = _HARMONIC_LEAF << level
    if span <= 256:
        return _reduced(*_harmonic_unreduced(index * span, (index + 1) * span))
    return _add_reduced(_harmonic_node(level - 1, 2 * index),
                        _harmonic_node(level - 1, 2 * index + 1))


def _harmonic_blocks(a: int, b: int, left: tuple[int, int],
                     right: tuple[int, int]) -> tuple[int, int]:
    """left + sum_{a L <= k < b L} 1/k + right, reduced, for reduced pairs
    left and right and 1 <= a <= b: the largest aligned blocks of
    ``_harmonic_node``, taken inward from both ends."""
    level = 0
    while a < b:
        if a & 1:
            left = _add_reduced(left, _harmonic_node(level, a))
            a += 1
        if b & 1:
            b -= 1
            right = _add_reduced(_harmonic_node(level, b), right)
        a, b, level = a >> 1, b >> 1, level + 1
    return _add_reduced(left, right)


# P(b) = H[1, b L), reduced, for the _HARMONIC_PREFIXES values of b made most
# recently; the oldest made is evicted first.  P(b) has about 1.44 b L bits
# in each part, so the memo holds at most about 2.3 MB at MAX_EXACT_SUPPORT.
_HARMONIC_PREFIXES = 64
_harmonic_prefixes: dict[int, tuple[int, int]] = {}


def _harmonic_prefix(b: int) -> tuple[int, int]:
    """P(b) for b >= 1, kept in the memo: a prefix not kept yet is built from
    the nearer of the nearest kept ones on either side, the one below (else
    P(1), one leaf) plus the aligned blocks between the two, or the one above
    minus them, so a sweep's next prefix, up or down, costs one short join."""
    kept = _harmonic_prefixes.get(b)
    if kept is None:
        c = max((c for c in _harmonic_prefixes if c < b), default=1)
        d = min((d for d in _harmonic_prefixes if d > b), default=math.inf)
        if d - b < b - c:
            num, den = _harmonic_blocks(b, d, (0, 1), (0, 1))
            kept = _add_reduced(_harmonic_prefixes[d], (-num, den))
        else:
            start = _harmonic_prefixes.get(c) or _reduced(*_harmonic_unreduced(1, _HARMONIC_LEAF))
            kept = _harmonic_blocks(c, b, start, (0, 1))
        if len(_harmonic_prefixes) >= _HARMONIC_PREFIXES:
            del _harmonic_prefixes[next(iter(_harmonic_prefixes))]
        _harmonic_prefixes[b] = kept
    return kept


def _harmonic_split(lo: int, hi: int) -> tuple[int, int]:
    """sum_{lo <= k < hi} 1/k reduced.  A range that starts in the first leaf
    and ends past the second (lo <= L < 2 L < hi) is the kept prefix
    P(hi // L), plus its right edge, minus H[1, lo): two adds whose second
    operand spans under L terms, so no gcd takes two big numbers.  Any
    other range joins the whole aligned blocks inside it, from
    ``_harmonic_node``, with its two partial edges.  An edge, under L terms,
    is split unreduced and reduced once.  Both memos are shared by every
    call in the process.  1..10**5 takes about 0.25 s cold, 0.07 s with its
    blocks in the memo, and 1 ms with its prefix kept."""
    if hi - 1 > MAX_EXACT_SUPPORT:  # so no node or prefix reaches past the memos' bound
        _require_exact_cap(f"H_{hi - 1}", hi - 1)
    if hi == lo + 1:  # one term, as every run of a dense sequence has
        return 1, lo
    a, b = -(-lo // _HARMONIC_LEAF), hi // _HARMONIC_LEAF  # the whole leaves a..b-1
    if lo <= _HARMONIC_LEAF < 2 * _HARMONIC_LEAF < hi:
        total = _harmonic_prefix(b)
        if b * _HARMONIC_LEAF < hi:
            total = _add_reduced(total, _reduced(*_harmonic_unreduced(b * _HARMONIC_LEAF, hi)))
        if lo > 1:
            num, den = _reduced(*_harmonic_unreduced(1, lo))
            total = _add_reduced(total, (-num, den))
        return total
    if a >= b:
        return _reduced(*_harmonic_unreduced(lo, hi))
    return _harmonic_blocks(a, b, _reduced(*_harmonic_unreduced(lo, a * _HARMONIC_LEAF)),
                            _reduced(*_harmonic_unreduced(b * _HARMONIC_LEAF, hi)))


def _gen_terms(seq: SeqSpec, n: int):
    """gen(1)..gen(n) of an exact generator as reduced (numerator, denominator)
    pairs, for ``_add_reduced`` to sum into the prefix sums S_k."""
    return ((q.numerator, q.denominator) for q in map(seq.gen, range(1, n + 1)))


def _tree_sum(pairs) -> tuple[int, int]:
    """The nonzero fractions num/den in ``pairs`` summed pairwise, like
    ``_harmonic_unreduced``, into one unreduced (numerator, denominator)."""
    pairs = [pair for pair in pairs if pair[0]]
    while len(pairs) > 1:
        merged = [(n1 * d2 + n2 * d1, d1 * d2)
                  for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2])]
        pairs = merged + pairs[2 * len(merged):]  # and the odd one out
    return pairs[0] if pairs else (0, 1)


def total_sum(seq: SeqSpec, horizon: int = _L_HORIZON) -> SumResult:
    """sum_k a_k, exact for finite support or a declared closed form,
    tail-bounded through the decay envelope otherwise."""
    if seq.finite:  # P/D of the last run
        return SumResult.from_pair(seq.int_runs[2][-1], seq.int_runs[0])
    if seq.exact_sum is not None:
        return SumResult.from_pair(seq.exact_sum.numerator, seq.exact_sum.denominator)
    import numpy as np

    end = seq.support_end
    if end is not None:
        total = float(np.sum(seq.terms_float(end)))
        return SumResult(total, abs(total) * 1e-13 * math.log2(end + 2), "converged")
    n = max(horizon, seq.decay.valid_from)
    head = float(np.sum(seq.terms_float(n)))
    rem = seq.decay.remainder_past(n)  # finite: every declarable decay integrates
    return SumResult(head, rem + abs(head) * 1e-13 * math.log2(n), "converged")


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def pointwise_numerators(seq: SeqSpec, n: int) -> tuple[int, int, int, int]:
    """(gm, j1, j2, den): (Gm a)_n, J1(n) and J2(n) are the integers
    (n+1)P - nM, P and n(M - P) over den = D n (n+1), with D the common
    denominator of a finite sequence's terms (of S_n and ``exact_sum`` on an
    exact generator), P = S_n D and M = D sum_k a_k."""
    if n < 1:
        raise SequenceError("n must be at least 1")
    if seq.finite:
        den, starts, prefix = seq.int_runs
        p, m = prefix[bisect_right(starts, n) - 1], prefix[-1]
    elif seq.gen is None:
        raise SequenceError(f"{seq.name}: the pointwise operators need exact terms")
    else:
        (s, s_den), total = reduce(_add_reduced, _gen_terms(seq, n)), seq.exact_sum
        den = math.lcm(s_den, total.denominator)
        p, m = s * (den // s_den), total.numerator * (den // total.denominator)
    return (n + 1) * p - n * m, p, n * (m - p), den * n * (n + 1)


def cesaro(seq: SeqSpec, n: int) -> Fraction:
    """(G a)_n = (1/n) sum_{k<=n} a_k = (n+1) J1(n), an exact rational."""
    _, j1, _, den = pointwise_numerators(seq, n)
    return Fraction((n + 1) * j1, den)


def modified_cesaro(seq: SeqSpec, n: int) -> Fraction:
    """(Gm a)_n = (G a)_n - (sum_k a_k)/(n+1), an exact rational."""
    gm, _, _, den = pointwise_numerators(seq, n)
    return Fraction(gm, den)


def j1_term(seq: SeqSpec, n: int) -> Fraction:
    _, j1, _, den = pointwise_numerators(seq, n)
    return Fraction(j1, den)


def j2_term(seq: SeqSpec, n: int) -> Fraction:
    _, _, j2, den = pointwise_numerators(seq, n)
    return Fraction(j2, den)


def _require_nonneg_finite(seq: SeqSpec, what: str):
    if not seq.nonnegative:
        raise SequenceError(f"{what} requires nonnegative terms")


def j1_sum(seq: SeqSpec) -> SumResult:
    """sum_n J1(n), computed on the operator side (the n-sum); exact over
    the runs of constant S_n for finite support (see ``SeqSpec.run_sums``).
    A compact generator is summed to its support end N, past which S_n is the
    total, so the tail adds exactly total/(N+1)."""
    _require_nonneg_finite(seq, "j1_sum")
    if seq.finite:
        return seq.run_sums[1]
    import numpy as np

    total = total_sum(seq, _J_HORIZON)
    n = seq.support_end or _J_HORIZON
    csum = np.cumsum(seq.terms_float(n))
    ns = np.arange(1, n + 1, dtype=np.float64)
    head = float(np.sum(csum / (ns * (ns + 1.0))))
    if seq.support_end is not None:
        return SumResult(head + total.value / (n + 1), total.err + 1e-12 * abs(head),
                         "converged")
    # S_n <= total on nonnegative sequences, so the tail is at most m/(H+1)
    m_up = abs(total.value) + total.err
    return SumResult(head, m_up / (n + 1) + total.err + 1e-12 * abs(head), "converged")


def j2_sum(seq: SeqSpec) -> SumResult:
    """sum_n J2(n) on the operator side; DIVERGENT when the log-weighted
    envelope certifies it.  A compact generator is summed to its support end,
    past which every J2(n) is 0."""
    _require_nonneg_finite(seq, "j2_sum")
    if seq.finite:
        return seq.run_sums[2]
    import numpy as np

    if _weighted_divergent(seq.decay):
        return SumResult.divergent()
    total = total_sum(seq, _J_HORIZON)
    n = seq.support_end or _J_HORIZON
    wrem = _weighted_remainder(seq.decay, n)
    if math.isinf(wrem):
        return SumResult.inconclusive()
    csum = np.cumsum(seq.terms_float(n))
    ns = np.arange(1, n + 1, dtype=np.float64)
    head = float(np.sum((total.value - csum) / (ns + 1.0)))
    # tail: sum_{n>H} T_n/(n+1) = sum_{k>H} a_k (H_k - H_{H+1}) <= weighted remainder
    err = wrem + total.err * math.log(n + 1.0) + 1e-12 * abs(head)
    return SumResult(head, err, "converged")


def _require_finite(seq: SeqSpec, what: str):
    """The rearranged forms take finite nonnegative sequences only."""
    if not seq.finite:
        raise SequenceError(f"{what} takes finite sequences only; {seq.name} is a generator")
    _require_nonneg_finite(seq, what)


def j1_sum_by_weights(seq: SeqSpec) -> SumResult:
    """The rearranged form sum_k a_k / k of a finite sequence (independent
    route for checking): the integer pairs (a_k D, k) of ``int_terms``, never
    the runs, summed by ``_tree_sum``, over D."""
    _require_finite(seq, "j1_sum_by_weights")
    den, ks, nums = seq.int_terms
    num, k_den = _tree_sum(zip(nums, ks))
    return SumResult.from_pair(num, k_den * den)


def j2_sum_by_weights(seq: SeqSpec) -> SumResult:
    """The rearranged form sum_k a_k (H_k - 1) of a finite sequence, as one
    integer pair: H_k - 1 is an integer h over L, the lcm of the reduced gaps H_k - H_prev
    (``_harmonic_split``), and the sum of a_k D h (``int_terms``) runs over
    D L, growing with h whenever L does.  em(10**5) takes about 0.3 s cold,
    0.02 s with its prefix kept."""
    _require_finite(seq, "j2_sum_by_weights")
    _require_exact_cap(seq.name, seq.support_end)
    den, ks, nums = seq.int_terms
    total, h, lcm, prev = 0, 0, 1, 1
    for k, a in zip(ks, nums):
        num, gap = _harmonic_split(prev + 1, k + 1)
        prev, grow = k, gap // math.gcd(lcm, gap)
        if grow > 1:
            lcm, h, total = lcm * grow, h * grow, total * grow
        h += num * (lcm // gap)
        total += a * h
    return SumResult.from_pair(total, den * lcm)


def l1_log_weight(seq: SeqSpec) -> SumResult:
    """L(a) = sum_k |a_k| ln(k+1) with an integral-test tail bound."""
    if seq.finite:
        total = math.fsum(abs(v.numerator) / v.denominator * math.log(k + 1.0)
                          for k, v in seq.terms)
        return SumResult(total, 4e-16 * total * seq.support_end.bit_length(), "converged")
    import numpy as np

    if _weighted_divergent(seq.decay):
        return SumResult.divergent()
    end = seq.support_end
    n = end if end is not None else max(_L_HORIZON, seq.decay.valid_from)
    # terms first, so the size cap fires before any other array is built
    head = float(np.sum(np.abs(seq.terms_float(n))
                        * np.log(np.arange(1, n + 1, dtype=np.float64) + 1.0)))
    if end is not None:
        return SumResult(head, 1e-13 * head * math.log2(n + 2), "converged")
    wrem = _weighted_remainder(seq.decay, n)
    if math.isinf(wrem):
        return SumResult.inconclusive()
    return SumResult(head, wrem + 1e-13 * head * math.log2(n + 2), "converged")


def l1_norm_mod(seq: SeqSpec, horizon: int = SEQ_HORIZON) -> SumResult:
    """sum_n |(Gm a)_n| with certified tail handling.

    Finite support is exact, summed in closed form over the runs of
    constant S_n (see ``SeqSpec.run_sums``).  For nonnegative generators the
    tail obeys |Gm a|_n <= J1(n) + J2(n), and sum J2 past the horizon sits
    under the log-weighted remainder; divergence is certified through the
    harmonic comparison H_k - 1 >= ln(k+1)/2 (k >= 7), which turns a
    divergent lower envelope on a_k ln(k+1) into a divergent lower bound on
    sum J2 while sum J1 stays below the finite total.
    """
    if seq.finite:
        return seq.run_sums[0]
    import numpy as np

    if _weighted_divergent(seq.decay):
        return SumResult.divergent()
    total = total_sum(seq)
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
    if seq.gen is not None:
        (m_num, m_den), pieces = total.pair, []
        prefix = accumulate(_gen_terms(seq, horizon), _add_reduced)  # S_n = s / s_den
        for n, (s, s_den) in enumerate(prefix, start=1):  # |(n+1) S_n - n m| / (n (n+1))
            gm = (n + 1) * s * m_den - n * m_num * s_den
            pieces.append((abs(gm), n * (n + 1) * s_den * m_den))
        num, den = _tree_sum(pieces)
        head, head_err = num / den, 0.0
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

def harmonic(n: int) -> Fraction:
    """H_n as an exact rational, from ``_harmonic_split``."""
    if n < 1:
        raise SequenceError("harmonic numbers start at n = 1")
    return Fraction(*_harmonic_split(1, n + 1))


_SCAN_BLOCK, _SCAN_CHUNK = 1024, 2 ** 16  # numpy block and array lengths


def _gamma_residuals(hi: int):
    """Yield (k, r_k) arrays for k = 1..hi in chunks of _SCAN_CHUNK, where
    r_k = H_k - ln k - gamma = r_1 + sum_{2<=j<=k} (1/j + log1p(-1/j)) and
    r_1 = 1 - gamma: the exact telescoping of ln k.  The increments are
    summed by ``np.cumsum`` in blocks of _SCAN_BLOCK, and the block offsets
    are carried as a compensated pair by ``math.fsum``."""
    import numpy as np

    carry = [0.0]
    for start in range(1, hi + 1, _SCAN_CHUNK):
        ks = np.arange(start, min(start + _SCAN_CHUNK, hi + 1), dtype=np.float64)
        inc = np.zeros(-(-len(ks) // _SCAN_BLOCK) * _SCAN_BLOCK)
        with np.errstate(divide="ignore"):  # log1p(-1) at k = 1, replaced by r_1
            inc[:len(ks)] = 1.0 / ks + np.log1p(-1.0 / ks)
        if start == 1:
            inc[0] = 1.0 - EULER_GAMMA
        blocks = np.cumsum(inc.reshape(-1, _SCAN_BLOCK), axis=1)
        offsets = np.empty(len(blocks))
        for i, block_total in enumerate(blocks[:, -1]):
            offsets[i] = math.fsum(carry)
            carry = [offsets[i], math.fsum(carry + [-offsets[i]]), float(block_total)]
        yield ks, (blocks + offsets[:, None]).ravel()[:len(ks)]


def gamma_residual(n: int) -> float:
    """H_n - ln n - gamma, read from the scan of ``_gamma_residuals``."""
    if n < 1:
        raise SequenceError("n must be at least 1")
    for _, resid in _gamma_residuals(n):
        pass
    return float(resid[-1])


def scan_gamma_residual(lo: int, hi: int) -> tuple[bool, float, float]:
    """Check 1/(2(n+1)) < H_n - ln n - gamma < 1/(2n) for every n in [lo, hi].

    Returns (ok, worst lower margin, worst upper margin); the scan's error
    stays near machine precision, far below the 1/(2n(n+1)) gap between the
    two bounds."""
    if lo < 1 or hi < lo:
        raise SequenceError("bad scan range")
    import numpy as np

    worst_lo = worst_hi = math.inf
    for ks, resid in _gamma_residuals(hi):
        ks, resid = ks[ks >= lo], resid[ks >= lo]
        worst_lo = min(worst_lo, np.min(resid - 1.0 / (2.0 * (ks + 1.0)), initial=math.inf))
        worst_hi = min(worst_hi, np.min(1.0 / (2.0 * ks) - resid, initial=math.inf))
    return bool(worst_lo > 0.0 and worst_hi > 0.0), float(worst_lo), float(worst_hi)


# ---------------------------------------------------------------------------
# the sharp-constant ratio and diagnostics
# ---------------------------------------------------------------------------

def hardy_ratio(seq: SeqSpec, p: float, n: int) -> float:
    """[sum_{m<=n} (G a)_m^p] / [sum_{k<=n} a_k^p]; see ``hardy_ratios``."""
    return hardy_ratios(seq, (p,), (n,))[(p, n)]


def hardy_ratios(seq: SeqSpec, ps, ns) -> dict[tuple[float, int], float]:
    """{(p, n): [sum_{m<=n} (G a)_m^p] / [sum_{k<=n} a_k^p]} for nonnegative a,
    each at its truncation n and never extrapolated (for nonnegative a the
    truncated ratio is itself admissible against the (p/(p-1))^p bound).
    The arrays are built once, at max(ns); each sum is over a slice [:n] of
    one power array, so it has the bits of a separate call at its own n."""
    if not all(1.0 < p < math.inf for p in ps):
        raise SequenceError("the ratio needs a finite p > 1")
    if min(ns) < 1:
        raise SequenceError("the ratio needs n >= 1")
    import numpy as np

    n_top = max(ns)
    arr = seq.terms_float(n_top)
    if np.any(arr < 0.0):
        raise SequenceError("hardy_ratio requires nonnegative terms")
    means = np.cumsum(arr)
    means /= np.arange(1, n_top + 1, dtype=np.float64)

    def prefix_sums(power) -> list[float]:
        return [float(np.sum(power[:n])) for n in ns]  # one power array alive

    # past a finite support each a_k**p is an exact 0: only the support is raised
    pad = n_top - min(seq.support_end, n_top) if seq.finite else 0
    out = {}
    with np.errstate(over="ignore"):  # a sum past the float range is refused below
        for p in ps:
            dens = prefix_sums(np.pad(arr[:-pad] ** p, (0, pad)) if pad else arr ** p)
            if 0.0 in dens:
                raise SequenceError("zero denominator in hardy_ratio")
            nums = prefix_sums(means ** p)
            if not all(map(math.isfinite, nums + dens)):
                raise SequenceError(f"a sum of p-th powers, p={p:g}, is past the float range")
            for n, num, den in zip(ns, nums, dens):
                out[(p, n)] = num / den
    return out


@dataclass(frozen=True)
class DiscMeanReport:
    name: str
    total: float
    total_err: float
    doubling_ns: tuple[int, ...]
    increments: tuple[float, ...]       # sum_{N<m<=2N} |(G a)_m|
    target: float                       # |sum a| * ln 2
    rate_ok: bool                       # increments within 10% at the top scale


def disc_mean_check(seq: SeqSpec) -> DiscMeanReport:
    """Witness that a nonzero total forces log-divergent Cesaro partial sums.

    For sum a != 0 the doubling blocks sum_{N<m<=2N} |(G a)_m|, N = 2**10 ..
    2**19, must settle near |sum a| * ln 2 (checked within 10% at the largest
    scale); a zero total asserts nothing.
    """
    import numpy as np

    total = total_sum(seq)
    n_top = 2 ** 20
    arr = seq.terms_float(n_top)
    means = np.abs(np.cumsum(arr) / np.arange(1, n_top + 1, dtype=np.float64))
    ns = tuple(2 ** j for j in range(10, 20))
    increments = tuple(float(np.sum(means[n: 2 * n])) for n in ns)
    target = abs(total.value) * _LN2
    if abs(total.value) <= total.err + 1e-12:
        rate_ok = True
    else:
        rate_ok = abs(increments[-1] - target) <= 0.1 * target
    return DiscMeanReport(seq.name, total.value, total.err, ns, increments,
                          target, rate_ok)


def _ratio(seq: SeqSpec, total: SumResult, norm: SumResult, weight: SumResult) -> float:
    """R(a) from its three sums; SequenceError where it is not defined."""
    _require_nonneg_finite(seq, "disc_equivalence_ratio")
    if weight.verdict != "converged":
        raise SequenceError(f"{seq.name}: log-weighted sum is {weight.verdict}")
    denom = EULER_GAMMA * total.value + weight.value
    if denom <= 0.0:
        raise SequenceError("equivalence ratio needs a nonzero sequence")
    return (norm.require_value() + total.value) / denom


def disc_equivalence_ratio(seq: SeqSpec, horizon: int = SEQ_HORIZON) -> float:
    """R(a) = (l1 norm of Gm a + sum a) / (gamma * sum a + L(a)), a >= 0.

    The plain total enters the numerator because the correction kernel
    lambda_k = 1/(k(k+1)) annihilates under Gm while the right side stays
    positive, so the bare quotient admits no universal lower constant.
    """
    return _ratio(seq, total_sum(seq), l1_norm_mod(seq, horizon), l1_log_weight(seq))


# ---------------------------------------------------------------------------
# catalog and parsing
# ---------------------------------------------------------------------------

def finite_sequence(name: str, values) -> SeqSpec:
    """a_1, a_2, ... = values, stored as the nonzero terms; a Fraction is kept."""
    _require_within_cap(name, len(values))
    qs = (v if isinstance(v, Fraction) else Fraction(v) for v in values)
    return SeqSpec(name=name, terms=tuple((k, q) for k, q in enumerate(qs, start=1) if q))


def _seq_lambda() -> SeqSpec:
    return SeqSpec(
        name="lambda",
        gen=lambda k: Fraction(1, k * (k + 1)),
        decay=Envelope(1.0, 2.0, valid_from=3, lower=0.5),
        exact_sum=Fraction(1),
        vec=lambda ks: 1.0 / (ks * (ks + 1.0)),
    )


def _seq_em(m: int) -> SeqSpec:
    if m < 1:
        raise SequenceError("em needs m >= 1")
    _require_within_cap(f"em(m={m})", m)
    return SeqSpec(name=f"em(m={m})", terms=((m, Fraction(1)),))


def _seq_powcut(alpha: float, N: int) -> SeqSpec:
    if alpha < 0.0:
        raise SequenceError("powcut needs alpha >= 0")
    if N < 1:
        raise SequenceError("powcut needs N >= 1")
    import numpy as np

    return SeqSpec(
        name=f"powcut(alpha={alpha:g},N={N})",
        decay=Envelope.compact(N),
        vec=lambda ks: np.where(ks <= N, ks ** (-alpha), 0.0),
    )


def _seq_power(alpha: float) -> SeqSpec:
    if alpha <= 1.0:
        raise SequenceError("power needs alpha > 1 for summability")
    return SeqSpec(
        name=f"power(alpha={alpha:g})",
        decay=Envelope(1.0, alpha, valid_from=3, lower=1.0),
        vec=lambda ks: ks ** (-alpha),
    )


def _seq_logdecay(beta: float, start: int = 3) -> SeqSpec:
    if beta <= 1.0:
        raise SequenceError("logdecay needs beta > 1 for summability")
    if start < 3:
        raise SequenceError(f"logdecay needs start >= 3, got {start}")
    import numpy as np

    return SeqSpec(
        name=f"logdecay(beta={beta:g},start={start})",
        decay=Envelope(1.0, 1.0, -beta, valid_from=start, lower=2.0 ** (-beta)),
        vec=lambda ks: np.where(ks >= start, 1.0 / (ks * np.log(ks + 1.0) ** beta), 0.0),
    )


_SEQ_FIXED = {"lambda": _seq_lambda}
SEQ_FAMILIES = {  # name -> (builder, parameter names, parameter types)
    "em": (_seq_em, ("m",), (int,)),
    "powcut": (_seq_powcut, ("alpha", "N"), (float, int)),
    "power": (_seq_power, ("alpha",), (float,)),
    "logdecay": (_seq_logdecay, ("beta", "start"), (float, int)),
}
SEQ_DEFAULTS = {"logdecay": {"start": 3}}  # parameters a name may leave out


def catalog_seq(name: str, **params) -> SeqSpec:
    if name in _SEQ_FIXED:
        if params:
            raise SequenceError(f"{name} takes no parameters")
        return _SEQ_FIXED[name]()
    if name in SEQ_FAMILIES:
        merged = {**SEQ_DEFAULTS.get(name, {}), **params}
        return SEQ_FAMILIES[name][0](**check_params(SEQ_FAMILIES, name, merged, SequenceError))
    raise SequenceError(f"unknown sequence {name!r}")


def parse_sequence(text: str) -> SeqSpec:
    parts = split_name(text)
    if parts is None:
        raise SequenceError(f"cannot parse sequence {text!r}")
    name, argstr = parts
    return catalog_seq(name, **parse_params(text, argstr, SequenceError))


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")  # no zero denominator


def load_rational_file(path) -> SeqSpec:
    """One rational per line, `p/q` or integer form; parsed exactly with no
    float round-trip."""
    terms, k = [], 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if not _RATIONAL_RE.match(line):
                    raise SequenceError(
                        f"{path}:{lineno}: {line!r} is not an integer or p/q rational")
                k += 1
                _require_within_cap(f"file:{path}", k)
                try:
                    q = Fraction(line)
                except ValueError as exc:  # past the int-string limit of Python
                    raise SequenceError(f"{path}:{lineno}: an integer of more than "
                                        f"{sys.get_int_max_str_digits()} digits") from exc
                if q:
                    terms.append((k, q))
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceError(f"cannot read {path}: {exc}") from exc
    # every sum a report prints (|Gm a|_1, J1, J2, L(a), the total) is at most
    # sum |a_k| (2 ln(N+1) + 3), so that bound keeps each of their floats finite
    try:
        size = sum(abs(q.numerator) / q.denominator for _, q in terms)
    except OverflowError:
        size = math.inf
    if not size * (2.0 * math.log(k + 1) + 3.0) < sys.float_info.max:
        raise SequenceError(f"{path}: sum |a_k| is too large for the floats of its sums")
    return SeqSpec(name=f"file:{path}", terms=tuple(terms))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _sum_dict(res: SumResult) -> dict:
    out = {"verdict": res.verdict}
    if res.verdict == "converged":
        out["value"] = res.value
        out["err"] = res.err
        if res.exact is not None:
            try:
                out["exact"] = str(res.exact)
            except ValueError:  # a part longer than sys.get_int_max_str_digits()
                pass
    return out


@dataclass(frozen=True)
class DiscReport:
    name: str
    total: SumResult
    l1_norm_mod: SumResult
    log_weight: SumResult
    j1: SumResult
    j2: SumResult
    equivalence_ratio: float | None

    def to_dict(self) -> dict:
        return {
            "sequence": self.name,
            "total_sum": _sum_dict(self.total),
            "l1_norm_modified": _sum_dict(self.l1_norm_mod),
            "log_weighted_sum": _sum_dict(self.log_weight),
            "j1_sum": _sum_dict(self.j1),
            "j2_sum": _sum_dict(self.j2),
            "equivalence_ratio": self.equivalence_ratio,
        }


def equivalence_sums(seq: SeqSpec, horizon: int = SEQ_HORIZON
                     ) -> tuple[SumResult, SumResult, SumResult, float | None]:
    """(total, l1 norm of Gm a, L(a), R(a)): the three sums of the
    equivalence ratio and the ratio itself, None where ``_ratio`` refuses it;
    J1 and J2 are not summed."""
    total, norm, weight = total_sum(seq), l1_norm_mod(seq, horizon), l1_log_weight(seq)
    try:
        ratio = _ratio(seq, total, norm, weight)
    except SequenceError:
        ratio = None
    return total, norm, weight, ratio


def build_report(seq: SeqSpec, horizon: int = SEQ_HORIZON) -> DiscReport:
    total, norm, weight, ratio = equivalence_sums(seq, horizon)
    nonneg = seq.nonnegative
    return DiscReport(
        name=seq.name,
        total=total,
        l1_norm_mod=norm,
        log_weight=weight,
        j1=j1_sum(seq) if nonneg else SumResult.inconclusive(),
        j2=j2_sum(seq) if nonneg else SumResult.inconclusive(),
        equivalence_ratio=ratio,
    )
