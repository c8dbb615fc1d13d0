import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy import seq_ops as so
from hardy.envelopes import Envelope

GAMMA = so.EULER_GAMMA


@pytest.fixture(scope="module")
def lam():
    return so.catalog_seq("lambda")


@pytest.fixture(scope="module")
def e1():
    return so.catalog_seq("em", m=1)


def test_cesaro_examples(lam, e1):
    for n in (1, 5, 100):
        assert so.cesaro(lam, n) == Fraction(1, n + 1)
    for n in (1, 3, 17):
        assert so.cesaro(e1, n) == Fraction(1, n)
    ones = so.finite_sequence("ones", [1] * 50)
    for n in (1, 10, 50):
        assert so.cesaro(ones, n) == 1
    with pytest.raises(so.SequenceError):
        so.cesaro(lam, 0)


def test_modified_cesaro_exact(lam, e1):
    for n in (1, 2, 3, 10, 100, 1000):
        assert so.modified_cesaro(lam, n) == 0
    for n in (1, 4, 9):
        assert so.modified_cesaro(e1, n) == Fraction(1, n * (n + 1))
    e3 = so.catalog_seq("em", m=3)
    assert so.modified_cesaro(e3, 1) == Fraction(-1, 2)


def test_decomposition_termwise(lam, e1):
    for seq in (lam, e1, so.finite_sequence("mix", [2, 0, Fraction(1, 3), 5])):
        for n in (1, 2, 5, 20):
            assert so.modified_cesaro(seq, n) == so.j1_term(seq, n) - so.j2_term(seq, n)


def _pointwise_reference(values, n):
    """(G a)_n, (Gm a)_n, J1(n), J2(n) of a_1..a_N = values, from Fraction
    prefix sums."""
    pre = list(itertools.accumulate(values, initial=Fraction(0)))
    s_n, m = pre[min(n, len(values))], pre[-1]
    return s_n / n, s_n / n - m / (n + 1), s_n / (n * (n + 1)), (m - s_n) / (n + 1)


def test_pointwise_kernel_matches_fraction_reference():
    rng = random.Random(17)
    cases = [[Fraction(rng.randint(-50, 50), rng.randint(1, 40)) if rng.random() < 0.5 else 0
              for _ in range(rng.randint(1, 40))] for _ in range(60)]
    for values in cases:
        if not any(values):
            values[-1] = Fraction(-3, 7)
        seq = so.finite_sequence("signed", values)
        for n in range(1, len(values) + 6):
            gm, j1, j2, den = so.pointwise_numerators(seq, n)
            ref = _pointwise_reference(values, n)
            assert (Fraction(gm, den), Fraction(j1, den), Fraction(j2, den)) == ref[1:]
            assert (so.cesaro(seq, n), so.modified_cesaro(seq, n),
                    so.j1_term(seq, n), so.j2_term(seq, n)) == ref
    lam = so.catalog_seq("lambda")
    values = [Fraction(1, k * (k + 1)) for k in range(1, 61)]
    for n in range(1, 61):
        # the reference total is the truncation's; lambda's exact total is 1
        c, _, j1, _ = _pointwise_reference(values, n)
        assert (so.cesaro(lam, n), so.j1_term(lam, n)) == (c, j1)
        assert so.modified_cesaro(lam, n) == c - Fraction(1, n + 1) == 0
        assert so.j2_term(lam, n) == (1 - c * n) / (n + 1)
    with pytest.raises(so.SequenceError, match="at least 1"):
        so.pointwise_numerators(lam, 0)


def test_pointwise_operators_are_exact_only():
    pw = so.catalog_seq("power", alpha=1.5)
    built = []
    counting = so.SeqSpec(
        name="counting", vec=lambda ks: built.append(ks) or ks ** -1.5,
        decay=Envelope(1.0, 1.5, valid_from=3, lower=1.0))
    built.clear()  # the decay spot-check at construction reads terms
    for op in (so.cesaro, so.modified_cesaro, so.j1_term, so.j2_term):
        for seq in (pw, counting):
            with pytest.raises(so.SequenceError, match="need exact terms"):
                op(seq, 10)
    assert built == []  # refused before any term is built


def test_rearranged_forms_are_finite_only(lam):
    for op in (so.j1_sum_by_weights, so.j2_sum_by_weights):
        with pytest.raises(so.SequenceError, match="finite sequences only"):
            op(lam)


def test_j_sums_unit_impulse(e1):
    assert so.j1_sum(e1).exact == 1
    assert so.j2_sum(e1).exact == 0
    e3 = so.catalog_seq("em", m=3)
    assert so.j2_sum_by_weights(e3).exact == Fraction(5, 6)  # H_3 - 1


def test_j_sums_lambda_truncated():
    lam100 = so.finite_sequence(
        "lam100", [Fraction(1, k * (k + 1)) for k in range(1, 101)])
    expected = sum((Fraction(1, k * k * (k + 1)) for k in range(1, 101)), Fraction(0))
    assert so.j1_sum(lam100).exact == expected
    assert so.j1_sum_by_weights(lam100).exact == expected
    assert so.j2_sum(lam100).exact == so.j2_sum_by_weights(lam100).exact


def test_exact_identities_random():
    rng = random.Random(99)
    for i in range(50):
        support = rng.randint(1, 40)
        values = [Fraction(rng.randint(0, 100), rng.randint(1, 100))
                  for _ in range(support)]
        values[rng.randrange(support)] += Fraction(1, 7)
        seq = so.finite_sequence(f"r{i}", values)
        assert so.j1_sum(seq).exact == so.j1_sum_by_weights(seq).exact
        assert so.j2_sum(seq).exact == so.j2_sum_by_weights(seq).exact
        # results compare by their rationals, not by the pairs that carry them
        assert so.j1_sum(seq) == so.j1_sum_by_weights(seq) != so.j2_sum(seq)
        assert len({so.j2_sum(seq), so.j2_sum_by_weights(seq)}) == 1


def _j1_by_weights_reference(seq):
    """sum_k a_k / k, one Fraction per term."""
    return sum((v / k for k, v in seq.terms), Fraction(0))


def _j2_by_weights_reference(seq):
    """sum_k a_k (H_k - 1), with H_k - 1 carried forward one Fraction 1/j at
    a time."""
    total, h, prev = Fraction(0), Fraction(0), 1
    for k, v in seq.terms:
        h, prev = h + sum((Fraction(1, j) for j in range(prev + 1, k + 1)), Fraction(0)), k
        total += v * h
    return total


_RATIONALS = st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000))
# gaps on both sides of the harmonic split's 32-term leaves, and past two of them
_GAPS = st.sampled_from((1, 2, 31, 32, 33)) | st.integers(65, 200)


def _sparse(gaps, values):
    ks = itertools.accumulate(gaps)
    return so.SeqSpec(name="sparse", terms=tuple(zip(ks, values)))


_REARRANGED_CASES = st.one_of(
    st.lists(_RATIONALS | st.just(Fraction(0)), min_size=1, max_size=60)
    .map(lambda values: so.finite_sequence("dense", values + [Fraction(1, 3)])),
    st.lists(st.tuples(_GAPS, _RATIONALS), min_size=1, max_size=12)
    .map(lambda pairs: _sparse(*zip(*pairs))),
    st.sampled_from((1, 2, 32, 33, 65)).map(lambda m: so.catalog_seq("em", m=m)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_REARRANGED_CASES)
def test_rearranged_sums_match_the_fraction_reference(seq):
    j1, j2 = so.j1_sum_by_weights(seq).exact, so.j2_sum_by_weights(seq).exact
    assert j1 == _j1_by_weights_reference(seq)
    assert j2 == _j2_by_weights_reference(seq)
    assert so.j1_sum(seq).exact == j1 and so.j2_sum(seq).exact == j2


def test_rearranged_sums_never_read_the_run_sums(monkeypatch):
    rng = random.Random(5)
    dense = [Fraction(rng.randint(0, 1000), rng.randint(1, 1000)) for _ in range(200)] + [1]
    builds = (lambda: so.finite_sequence("dense", dense), lambda: so.catalog_seq("em", m=40))
    expected = [(so.j1_sum(build()).exact, so.j2_sum(build()).exact) for build in builds]

    def refuse(self):
        raise RuntimeError("the rearranged sums read the operator side")

    monkeypatch.setattr(so.SeqSpec, "int_runs", property(refuse))
    monkeypatch.setattr(so.SeqSpec, "run_sums", property(refuse))
    for build, (j1, j2) in zip(builds, expected):
        seq = build()  # a new instance, with nothing cached
        assert so.j1_sum_by_weights(seq).exact == j1
        assert so.j2_sum_by_weights(seq).exact == j2
        with pytest.raises(RuntimeError, match="operator side"):
            so.j1_sum(seq)


def test_one_lcm_per_finite_sequence(monkeypatch):
    # the runs and both rearranged forms read one integer view of the terms
    rng = random.Random(9)
    dense = [Fraction(rng.randint(0, 1000), rng.randint(1, 1000)) for _ in range(200)] + [1]
    lcm, calls = math.lcm, []
    monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or lcm(*args))
    for seq in (so.finite_sequence("dense", dense), so.catalog_seq("em", m=40)):
        calls.clear()
        so.build_report(seq)
        so.j1_sum_by_weights(seq)
        so.j2_sum_by_weights(seq)
        assert len(calls) == 1


def test_finite_sequence_keeps_a_fraction_and_converts_the_rest():
    q = Fraction(3, 7)
    values = [q, 2, "5/8", 0.375, "0", Fraction(-1, 3), 1.5, 0]
    seq = so.finite_sequence("mixed", values)
    assert seq.terms[0][1] is q
    assert seq.terms == tuple((k, Fraction(v)) for k, v in enumerate(values, start=1)
                              if Fraction(v))
    assert all(type(v) is Fraction for _, v in seq.terms)


@pytest.mark.parametrize("values", [
    # the run 3..9 has P = 3 and M = 4, so Gm a turns at n* = 3: the piece
    # 3..3 is its first index alone
    [0, 0, 3] + [0] * 6 + [1],
    # P = 8/3 and M = 3: n* = 8, so the piece 9..9 is the run's last index
    [0, 0, Fraction(8, 3)] + [0] * 6 + [Fraction(1, 3)],
    [0, 0, -8] + [0] * 6 + [-1],
], ids=["first-index", "last-index", "last-index-negative"])
def test_one_index_piece_of_a_longer_run_matches_per_index_walk(values, monkeypatch):
    split, spans = so._harmonic_split, []
    monkeypatch.setattr(so, "_harmonic_split",
                        lambda lo, hi: spans.append(hi - lo) or split(lo, hi))
    seq = so.finite_sequence("r", values)
    assert seq.run_sums and spans and min(spans) > 1  # no one-index piece is split
    assert _read_run_sums(seq, (0, 1, 2)) == _per_index_sums(values)


def test_compact_generator_j_sums_close_at_the_support_end():
    # powcut(alpha=0, N) is 1 on 1..N: sum J1 = sum_k 1/k = H_N and
    # sum J2 = sum_k (H_k - 1) = (N+1) H_N - 2N; past N, every J2(n) is 0 and
    # the J1 tail is exactly the total over N+1
    n = 1000
    seq = so.catalog_seq("powcut", alpha=0.0, N=n)
    h = so.harmonic(n)
    for res, exact in ((so.j1_sum(seq), h), (so.j2_sum(seq), (n + 1) * h - 2 * n)):
        assert res.verdict == "converged"
        assert abs(res.value - float(exact)) <= res.err <= 1e-9 * res.value


def test_j_sums_require_nonnegative():
    signed = so.finite_sequence("signed", [1, -1])
    with pytest.raises(so.SequenceError):
        so.j1_sum(signed)


def test_l1_norm_mod_exact(lam, e1):
    assert so.l1_norm_mod(e1).exact == 1
    e3 = so.catalog_seq("em", m=3)
    assert so.l1_norm_mod(e3).exact == Fraction(7, 6)
    res = so.l1_norm_mod(lam, horizon=2000)
    assert res.verdict == "converged"
    assert res.value == 0.0
    # bound is dominated by the log-weighted remainder ~ 1.7 (ln H + 1)/H
    assert res.err <= 1e-2


def _per_index_sums(values):
    """Reference (sum |Gm a|_n, sum J1, sum J2) walked one index at a time;
    past the support (Gm a)_n = J1(n) = m/(n(n+1)) and J2(n) = 0, which
    telescope to m/(N+1)."""
    pre = list(itertools.accumulate(values, initial=Fraction(0)))
    n0, m = len(values), pre[-1]
    ns = range(1, n0 + 1)
    l1 = sum((abs(pre[n] / n - m / (n + 1)) for n in ns), abs(m) / (n0 + 1))
    j1 = sum((pre[n] / (n * (n + 1)) for n in ns), m / (n0 + 1))
    j2 = sum(((m - pre[n]) / (n + 1) for n in ns), Fraction(0))
    return l1, j1, j2


def test_l1_norm_mod_em_closed_form():
    # sum |Gm e_m| = H_m - 1 + 1/m, with H_m summed here
    h = Fraction(0)
    for m in range(1, 301):
        h += Fraction(1, m)
        assert so.l1_norm_mod(so.catalog_seq("em", m=m)).exact == h - 1 + Fraction(1, m)
    h = sum((Fraction(1, k) for k in range(1, 4001)), Fraction(0))
    assert so.l1_norm_mod(so.catalog_seq("em", m=4000)).exact == h - 1 + Fraction(1, 4000)


def _signed_zero_run_cases(rng):
    """150 seeded signed sequences of up to 60 terms, most of them zero; an
    all-zero draw gets a last term 1."""
    cases = [[0 if rng.random() < 0.6 else Fraction(rng.randint(-40, 60), rng.randint(1, 25))
              for _ in range(rng.randint(1, 60))] for _ in range(150)]
    for values in cases:
        if not any(values):
            values[-1] = 1
    return cases


def test_run_sums_match_per_index_walk():
    # a sign change of (Gm a)_n inside a run: S = 5 on n = 1..9 with total
    # 6 turns at n = 5; the negative mirror turns at the same place
    cases = [[5] + [0] * 8 + [1], [-5] + [0] * 8 + [-1]]
    rng = random.Random(31)
    cases += _signed_zero_run_cases(rng)
    # zero runs of 10^3..10^4 between nonzeros, then a few trailing zeros;
    # the first case may be signed, the others are nonnegative, so the
    # j-sums are checked too
    gapped = []
    for i in range(3):
        values = []
        for _ in range(rng.randint(2, 3)):
            values += [0] * rng.randint(10 ** 3, 10 ** 4)
            values.append(Fraction(rng.randint(1, 60) if i else rng.randint(-40, 60) or 1,
                                   rng.randint(1, 25)))
        gapped.append(values + [0] * rng.randint(0, 20))
    orders = list(itertools.permutations(range(3)))
    for i, values in enumerate(cases + gapped):
        seq = so.finite_sequence("r", values)
        expected = _per_index_sums(values)
        assert _read_run_sums(seq, orders[i % len(orders)]) == expected
        assert so.l1_norm_mod(seq).exact == expected[0]
        if all(v >= 0 for v in values):
            assert so.j1_sum(seq).exact == expected[1]
            assert so.j2_sum(seq).exact == expected[2]
    for values in gapped:
        seq = so.finite_sequence("r", values)
        dense = np.array([float(v) for v in values])
        for n in (len(values) // 2, len(values) + 10):
            ref = np.zeros(n)
            ref[:min(n, len(values))] = dense[:n]
            assert seq.terms_float(n).tobytes() == ref.tobytes()
        end = max(k for k, v in enumerate(values, start=1) if v)
        weight = math.fsum([abs(float(v)) * math.log(k + 1.0)
                            for k, v in enumerate(values[:end], start=1)])
        res = so.l1_log_weight(seq)
        assert (res.value, res.err) == (weight, 4e-16 * weight * end.bit_length())


def _signed_with_zero_runs(n):
    rng = random.Random(83)
    values = [0 if rng.random() < 0.6 else Fraction(rng.randint(-40, 60), rng.randint(1, 25))
              for _ in range(n)]
    values[0] = values[0] or 1
    return values


@pytest.mark.parametrize("values", [
    # negative total: the open run adds |S|/a to the norm and S/a to J1
    [Fraction(-3, 2), 0, 0, Fraction(1, 5), 0, Fraction(-2, 7), 0, 0],
    # zero total: the open run adds nothing
    [Fraction(1, 3), 0, 0, Fraction(-1, 2), 0, Fraction(1, 6), Fraction(1, 4), 0,
     Fraction(-1, 4)],
    # M = 6: (n+1)P - nM is zero at the start of the run 1..2 (P = 3, n* = 1)
    # and at the end of the run 3..5 (P = 5, n* = 5)
    [3, 0, 2, 0, 0, 1, 0],
    _signed_with_zero_runs(3000),
], ids=["negative-total", "zero-total", "zero-at-run-ends", "signed-3000"])
def test_integer_run_sums_match_per_index_walk(values):
    expected = _per_index_sums(values)
    for order in itertools.permutations(range(3)):
        seq = so.finite_sequence("r", values)  # a new instance, with nothing cached
        assert _read_run_sums(seq, order) == expected
        assert so.total_sum(seq).exact == sum(values, Fraction(0))


def _read_run_sums(seq, order):
    """The exact values of the three run sums of seq, read singly in the
    given order."""
    read = {i: seq.run_sums[i].exact for i in order}
    return read[0], read[1], read[2]


def _dense_300():
    return so.finite_sequence("dense", [Fraction(k % 7 + 1, k) for k in range(1, 301)])


def _exact_results(seq):
    """Every exact sum of seq: the total and the norm, and on a nonnegative
    sequence the two split sums and their two rearranged forms."""
    results = [so.total_sum(seq), so.l1_norm_mod(seq)]
    if seq.nonnegative:
        results += [so.j1_sum(seq), so.j2_sum(seq),
                    so.j1_sum_by_weights(seq), so.j2_sum_by_weights(seq)]
    return results


@pytest.mark.parametrize("build", [
    *(lambda m=m: so.catalog_seq("em", m=m) for m in (1, 64, 4000)), _dense_300,
], ids=["em1", "em64", "em4000", "dense-300"])
def test_run_sums_are_reduced_once_and_only_when_read(build, monkeypatch):
    seq = build()
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(so, "Fraction", counted)
    results = _exact_results(seq)
    assert built == [] and not any("exact" in vars(res) for res in results)  # left unreduced
    norm = so.l1_norm_mod(seq).exact
    assert so.l1_norm_mod(seq).exact == norm and len(built) == 1
    assert [i for i, res in enumerate(results) if "exact" in vars(res)] == [1]  # the norm only
    j1, j2 = so.j1_sum(seq).exact, so.j2_sum(seq).exact
    assert (so.j1_sum(seq).exact, so.j2_sum(seq).exact) == (j1, j2) and len(built) == 3
    assert built == [res.pair for res in seq.run_sums]  # each output's own pair, once
    for res in results:
        assert res.exact == res.exact
    assert built[3:] == [results[0].pair] + [res.pair for res in results[4:]]
    monkeypatch.undo()
    assert (j1, j2) == (so.j1_sum_by_weights(seq).exact, so.j2_sum_by_weights(seq).exact)


def test_exact_value_is_the_float_of_the_reduced_rational():
    # int true division of the unreduced pair rounds like float(Fraction)
    seqs = [so.catalog_seq("em", m=m) for m in (*range(1, 301), 4000)]
    seqs += [so.finite_sequence("r", values)
             for values in _signed_zero_run_cases(random.Random(31))]
    seqs.append(_dense_300())
    top = so.catalog_seq("em", m=so.MAX_EXACT_SUPPORT)
    assert min(map(int.bit_length, so.l1_norm_mod(top).pair)) > 140000
    for seq in seqs + [top]:
        for res in _exact_results(seq):
            assert res.verdict == "converged" and res.value == float(res.exact)


def test_em_sweep_rows_take_the_norm_float_without_reducing_it(monkeypatch):
    from hardy import harness

    ms = [*range(1, 301), 4000]
    norms, l1_norm_mod, built = [], so.l1_norm_mod, []

    class Spy(Fraction):  # still a type, for the terms' isinstance check
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(so, "l1_norm_mod", lambda *a: norms.append(l1_norm_mod(*a)) or norms[-1])
    monkeypatch.setattr(so, "Fraction", Spy)
    rows, _ = harness.sweep_disc("em", "m", ms, harness.SuiteConfig())
    monkeypatch.undo()
    assert len(norms) == len(ms)
    assert not {res.pair for res in norms} & set(built)  # no norm pair became a Fraction
    assert not any("exact" in vars(res) for res in norms)
    h, hs = Fraction(0), {}
    for k in range(1, max(ms) + 1):
        h += Fraction(1, k)
        hs[k] = h
    for m, row, res in zip(ms, rows, norms):
        closed = hs[m] - 1 + Fraction(1, m)
        assert row["m"] == m and row["l1_norm_modified"] == float(closed)
        assert res.exact == closed  # still exact, when read


def _gm_head(gen, total, horizon):
    """sum_{n <= horizon} |S_n/n - total/(n+1)|, one Fraction per index."""
    s, head = Fraction(0), Fraction(0)
    for n in range(1, horizon + 1):
        s += gen(n)
        head += abs(s / n - total / (n + 1))
    return head


def _exact_generator(name, gen, exact_sum, coeff, alpha, lower, vec):
    return so.SeqSpec(name=name, gen=gen, exact_sum=exact_sum, vec=vec,
                      decay=Envelope(coeff, alpha, valid_from=3, lower=lower))


@pytest.mark.parametrize("horizon", [10 ** 3, 10 ** 4])
def test_l1_norm_mod_exact_generator_head(lam, horizon):
    lam2 = _exact_generator("2*lambda", lambda k: Fraction(2, k * (k + 1)), Fraction(2),
                            2.0, 2.0, 1.0, lambda ks: 2.0 / (ks * (ks + 1.0)))
    for seq in (lam, lam2):
        res = so.l1_norm_mod(seq, horizon)
        assert res.value == float(_gm_head(seq.gen, seq.exact_sum, horizon)) == 0.0
    # a_k = 1/(k(k+1)(k+2)) sums to 1/4 and its corrected image is nonzero
    cubic = _exact_generator(
        "cubic", lambda k: Fraction(1, k * (k + 1) * (k + 2)), Fraction(1, 4),
        1.0, 3.0, 0.4, lambda ks: 1.0 / (ks * (ks + 1.0) * (ks + 2.0)))
    res = so.l1_norm_mod(cubic, horizon)
    assert res.value == float(_gm_head(cubic.gen, cubic.exact_sum, horizon)) > 0.0


def test_tree_sum_small_and_zero_lists():
    assert so._tree_sum([]) == (0, 1)
    assert so._tree_sum([(2, 4)]) == (2, 4)
    for pairs in ([(1, 2), (-1, 3)], [(1, 2), (1, 3), (5, 7)],
                  [(0, 3), (0, 5), (0, 7)], [(3, 4), (0, 9), (-3, 4)]):
        assert Fraction(*so._tree_sum(pairs)) == sum(
            (Fraction(n, d) for n, d in pairs), Fraction(0))


def test_l1_norm_mod_generator_and_divergent():
    pw = so.catalog_seq("power", alpha=2.0)
    res = so.l1_norm_mod(pw)
    assert res.verdict == "converged" and res.value > 0.0
    for beta in (1.5, 2.0):
        assert so.l1_norm_mod(so.catalog_seq("logdecay", beta=beta)).verdict == \
            "divergent"


def test_l1_log_weight(lam, e1):
    assert so.l1_log_weight(e1).value == pytest.approx(math.log(2.0), rel=1e-15)
    res = so.l1_log_weight(lam)
    assert res.verdict == "converged"
    assert res.value == pytest.approx(1.2577468869443698, abs=res.err + 1e-12)
    assert so.l1_log_weight(so.catalog_seq("logdecay", beta=2.0)).verdict == \
        "divergent"


def test_total_sum_tail_bound():
    pw = so.catalog_seq("power", alpha=1.5)
    res = so.total_sum(pw, horizon=10 ** 5)
    zeta_15 = 2.612375348685488  # zeta(3/2)
    assert res.verdict == "converged"
    assert abs(res.value - zeta_15) <= res.err


def test_float_term_arrays_are_capped():
    # one guard in terms_float, raised before any array is built
    n = so.MAX_FLOAT_TERMS + 1
    big = so.catalog_seq("powcut", alpha=0.5, N=n)
    for op in (lambda: big.terms_float(n), lambda: so.total_sum(big),
               lambda: so.l1_log_weight(big), lambda: so.l1_norm_mod(big),
               lambda: so.hardy_ratio(so.catalog_seq("lambda"), 2.0, n),
               lambda: so.catalog_seq("em", m=10 ** 9)):
        with pytest.raises(so.SequenceError, match="exceed the cap"):
            op()


def test_exact_sequence_builders_check_the_cap_first(tmp_path, monkeypatch):
    monkeypatch.setattr(so, "MAX_FLOAT_TERMS", 3)
    path = tmp_path / "seq.txt"
    path.write_text("1\n2\n3\n4\n")
    for op in (lambda: so.catalog_seq("em", m=4),
               lambda: so.finite_sequence("four", [1, 2, 3, 4]),
               lambda: so.load_rational_file(path)):
        with pytest.raises(so.SequenceError, match="exceed the cap"):
            op()
    assert so.catalog_seq("em", m=3).terms == ((3, 1),)


def _harmonic_pair(lo, hi):
    """sum_{lo <= k < hi} 1/k as an unreduced (numerator, denominator)."""
    if hi - lo == 1:
        return 1, lo
    mid = (lo + hi) // 2
    p1, q1 = _harmonic_pair(lo, mid)
    p2, q2 = _harmonic_pair(mid, hi)
    return p1 * q2 + p2 * q1, q1 * q2


def test_exact_sums_run_up_to_the_support_cap_and_stop_past_it():
    m = so.MAX_EXACT_SUPPORT
    norm = so.l1_norm_mod(so.catalog_seq("em", m=m)).exact
    p, q = _harmonic_pair(1, m + 1)  # H_m = p/q with q = m!, compared unreduced
    assert norm.numerator * q == (p - q + q // m) * norm.denominator
    past = so.catalog_seq("em", m=m + 1)
    for op in (so.l1_norm_mod, so.j1_sum, so.j2_sum, so.j2_sum_by_weights, so.build_report):
        t0 = time.perf_counter()
        with pytest.raises(so.SequenceError, match="exceed the cap"):
            op(past)
        assert time.perf_counter() - t0 < 0.5


def test_harmonic_exact():
    assert so.harmonic(1) == 1
    assert so.harmonic(4) == Fraction(25, 12)
    assert so.harmonic(10) == sum((Fraction(1, k) for k in range(1, 11)), Fraction(0))
    with pytest.raises(so.SequenceError):
        so.harmonic(0)
    with pytest.raises(so.SequenceError, match="exceed the cap"):
        so.harmonic(so.MAX_EXACT_SUPPORT + 1)
    leaf = so._HARMONIC_LEAF
    cases = [(lo, length) for lo in (1, 2, 977)  # across the 32-term leaves and 256-term nodes
             for length in (1, 32, 33, 256, 257, 513, 5000)]
    cases += [(lo, length) for lo in (leaf - 1, leaf, leaf + 1, 4095)  # at the block edges
              for length in (leaf - 1, leaf, leaf + 1, 2 * leaf + 1)]
    for lo, length in cases:
        num, den = so._harmonic_split(lo, lo + length)
        p, q = _harmonic_pair(lo, lo + length)
        assert num * q == p * den and math.gcd(num, den) == 1


def test_harmonic_split_reads_one_term_at_once_within_the_cap():
    for k in (1, 63, 64, 65, so.MAX_EXACT_SUPPORT):
        assert so._harmonic_split(k, k + 1) == (1, k)
    k = so.MAX_EXACT_SUPPORT + 1
    with pytest.raises(so.SequenceError, match="exceed the cap"):
        so._harmonic_split(k, k + 1)


def test_harmonic_memo_is_bounded_and_leaves_values_unchanged():
    def results():
        em = so.catalog_seq("em", m=20000)
        return ([so.harmonic(n) for n in range(1, 101)], so.harmonic(20000),
                so.j2_sum_by_weights(em).exact, so.j2_sum(em).exact)

    memo = so._harmonic_node
    memo.cache_clear()
    so._harmonic_prefixes.clear()
    cold = results()
    assert results() == cold  # warm
    memo.cache_clear()
    so._harmonic_prefixes.clear()
    for n in (20000, 5000, 129, 64, 63):  # filled in reverse query order
        so.harmonic(n)
    assert memo.cache_info().currsize > 0 and len(so._harmonic_prefixes) == 3
    assert results() == cold
    h, hs = Fraction(0), []
    for n in range(1, 101):  # across the 32-term leaves and the first aligned blocks
        h += Fraction(1, n)
        hs.append(h)
    small, h, by_weights, by_runs = cold
    assert small == hs
    assert h == so.harmonic(19999) + Fraction(1, 20000)
    assert by_weights == h - 1 == by_runs

    memo.cache_clear()  # every node a capped range can reach, none evicted
    top = so.MAX_EXACT_SUPPORT + 1
    for lo in (1, 2, 63, 65, 4095, 50001):
        so._harmonic_split(lo, top)
    info = memo.cache_info()
    assert info.misses == info.currsize <= so._HARMONIC_NODES == info.maxsize

    memo.cache_clear()
    so._harmonic_prefixes.clear()
    for lo in (1, 2, so._HARMONIC_LEAF, so.MAX_EXACT_SUPPORT):  # prefix reads, then a node read
        with pytest.raises(so.SequenceError, match="exceed the cap"):
            so._harmonic_split(lo, top + 1)
    assert memo.cache_info().currsize == 0 and not so._harmonic_prefixes


def test_harmonic_prefix_reads_are_exact_in_any_order():
    leaf, top = so._HARMONIC_LEAF, so.MAX_EXACT_SUPPORT + 1
    ascending = [(lo, hi) for hi in (2 * leaf - 1, 2 * leaf, 2 * leaf + 1, 4095, 4096, 4097, top)
                 for lo in (1, 2, leaf - 1, leaf)]  # at the leaf edges and the cap
    heads = {hi: _harmonic_pair(1, hi) for hi in {hi for _, hi in ascending}}
    pairs = {}  # H[lo, hi) = H[1, hi) - H[1, lo), unreduced
    for lo, hi in ascending:
        (p1, q1), (p2, q2) = heads[hi], _harmonic_pair(1, lo) if lo > 1 else (0, 1)
        pairs[lo, hi] = p1 * q2 - p2 * q1, q1 * q2
    so._harmonic_prefixes.clear()
    reads = {case: so._harmonic_split(*case) for case in ascending}
    for (lo, hi), (num, den) in reads.items():
        p, q = pairs[lo, hi]
        assert num * q == p * den and math.gcd(num, den) == 1
    shuffled = random.Random(24).sample(ascending, len(ascending))
    for order in (ascending[::-1], shuffled):  # a reduced pair is unique
        so._harmonic_prefixes.clear()
        assert {case: so._harmonic_split(*case) for case in order} == reads


def test_harmonic_prefix_memo_keeps_at_most_its_cap():
    leaf, cap = so._HARMONIC_LEAF, so._HARMONIC_PREFIXES
    top = so.MAX_EXACT_SUPPORT // leaf  # the longest prefix a capped range reads
    so._harmonic_prefixes.clear()
    for b in range(top - cap - 8, top + 1):  # past the cap, the longest last
        so._harmonic_split(1, b * leaf + 1)
        assert len(so._harmonic_prefixes) <= cap
    assert list(so._harmonic_prefixes) == list(range(top - cap + 1, top + 1))  # oldest out
    size = sum(n.bit_length() + d.bit_length() for n, d in so._harmonic_prefixes.values()) / 8
    assert 2.0e6 < size < 2.4e6  # the worst case the memo's comment states


def test_gamma_residual():
    assert so.gamma_residual(1) == pytest.approx(1.0 - GAMMA, abs=1e-15)
    assert so.gamma_residual(10 ** 6) == pytest.approx(5e-7, rel=1e-2)


def test_gamma_residual_bounds_sampled():
    ok, worst_lo, worst_hi = so.scan_gamma_residual(2, 20000)
    assert ok and worst_lo > 0.0 and worst_hi > 0.0


@pytest.mark.parametrize("hi", [2 * 10 ** 4, 10 ** 6])
def test_gamma_residual_margins_match_asymptotics(hi):
    # the margins shrink with n, so both are taken at n = hi, where
    # r_n = 1/(2n) - 1/(12n^2) + 1/(120n^4) - O(n^-6)
    ok, worst_lo, worst_hi = so.scan_gamma_residual(2, hi)
    k = float(hi)
    lower = 1.0 / (2.0 * k * (k + 1.0)) - 1.0 / (12.0 * k * k) + 1.0 / (120.0 * k ** 4)
    upper = 1.0 / (12.0 * k * k) - 1.0 / (120.0 * k ** 4)
    assert ok
    assert abs(worst_lo - lower) <= 5e-16
    assert abs(worst_hi - upper) <= 5e-16
    assert so.gamma_residual(hi) == pytest.approx(1.0 / (2.0 * k) - 1.0 / (12.0 * k * k),
                                                  abs=5e-16)


def test_hardy_ratio_closed_forms(lam, e1):
    r = so.hardy_ratio(lam, 2.0, 10 ** 6)
    closed = (math.pi ** 2 / 6.0 - 1.0) / (math.pi ** 2 / 3.0 - 3.0)
    assert r == pytest.approx(closed, rel=1e-5)
    assert r <= 4.0
    # Basel-type bound for the impulse
    r = so.hardy_ratio(e1, 2.0, 10 ** 5)
    assert r < math.pi ** 2 / 6.0


def test_hardy_ratio_rejects_bad_input(lam):
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(lam, 1.0, 100)
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(lam, math.inf, 100)
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(lam, 2.0, -5)
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(so.finite_sequence("signed", [1, -1]), 2.0, 100)
    zero_then = so.catalog_seq("em", m=50)
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(zero_then, 2.0, 10)  # empty truncation


def _hardy_ratio_reference(seq, p, n):
    """The ratio from arrays built at n itself."""
    arr = seq.terms_float(n)
    means = np.cumsum(arr) / np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum(means ** p)) / float(np.sum(arr ** p))


def test_hardy_ratios_bit_identical_to_per_call():
    from hardy.harness import _DISC_RATIO_SUITE
    n, ps, ns = 10 ** 5, (1.25, 1.5, 2.0, 3.0, 10.0), (10 ** 3, 10 ** 4, 10 ** 5)
    for template in _DISC_RATIO_SUITE:
        seq = so.parse_sequence(template.format(n=n))
        ratios = so.hardy_ratios(seq, ps, ns)
        assert set(ratios) == {(p, m) for p in ps for m in ns}
        for (p, m), r in ratios.items():
            assert r == _hardy_ratio_reference(seq, p, m) == so.hardy_ratio(seq, p, m)
    with pytest.raises(so.SequenceError, match="zero denominator"):
        so.hardy_ratios(so.catalog_seq("em", m=50), (2.0,), (10, 100))


@pytest.mark.parametrize("build", [
    lambda: so.catalog_seq("em", m=1), lambda: so.catalog_seq("em", m=7),
    lambda rng=random.Random(4): so.finite_sequence(
        "r", [Fraction(rng.randint(0, 99), k) for k in range(1, 301)] + [1]),
], ids=["em1", "em7", "random-301"])
def test_hardy_ratios_power_only_the_support_bit_identical(build):
    # the full-array form raises every a_k to p, past the support too
    seq, ps, ns = build(), (1.25, 1.5, 2.0, 3.0, 10.0), (301, 10 ** 4, 10 ** 6 - 1)
    arr = seq.terms_float(ns[-1])
    means = np.cumsum(arr) / np.arange(1, ns[-1] + 1, dtype=np.float64)
    ratios = so.hardy_ratios(seq, ps, ns)
    for p in ps:
        power, mean_power = arr ** p, means ** p
        for n in ns:
            full = float(np.sum(mean_power[:n])) / float(np.sum(power[:n]))
            assert ratios[(p, n)] == full


def test_hardy_ratio_sharpness_trend():
    n = 10 ** 5
    seq = so.catalog_seq("powcut", alpha=0.5, N=n)
    ratios = [so.hardy_ratio(seq, 2.0, m) for m in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert ratios == sorted(ratios)
    assert all(r < 4.0 for r in ratios)


def test_disc_mean_check(lam):
    rep = so.disc_mean_check(lam)
    assert rep.target == pytest.approx(math.log(2.0), rel=1e-12)
    assert rep.rate_ok
    assert all(abs(inc - rep.target) <= 0.1 * rep.target for inc in rep.increments)
    pair = so.finite_sequence("pair", [1, -1])
    rep = so.disc_mean_check(pair)
    assert abs(rep.total) <= rep.total_err + 1e-12 and rep.rate_ok


def test_disc_equivalence_ratio(lam, e1):
    assert so.disc_equivalence_ratio(e1) == pytest.approx(
        2.0 / (GAMMA + math.log(2.0)), rel=1e-12)
    r = so.disc_equivalence_ratio(lam)
    assert r == pytest.approx(1.0 / (GAMMA + 1.2577468869443698), rel=1e-4)
    with pytest.raises(so.SequenceError):
        so.disc_equivalence_ratio(so.catalog_seq("logdecay", beta=1.5))


def test_sequence_parsing():
    assert so.parse_sequence("lambda").name == "lambda"
    seq = so.parse_sequence("powcut(alpha=0.5,N=1000)")
    assert seq.support_end == 1000
    assert so.parse_sequence("em(m=7)").terms == ((7, 1),)
    with pytest.raises(so.SequenceError):
        so.parse_sequence("nosuch")
    with pytest.raises(so.SequenceError):
        so.parse_sequence("power(alpha=0.5)")
    with pytest.raises(so.SequenceError):
        so.parse_sequence("em(q=2)")


def test_load_rational_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1/3\n-2/7\n# comment\n5\n0/9\n")
    seq = so.load_rational_file(path)
    # trailing zeros are only the implicit continuation and are normalized off
    assert seq.terms == ((1, Fraction(1, 3)), (2, Fraction(-2, 7)), (3, Fraction(5)))
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\n")
    with pytest.raises(so.SequenceError):
        so.load_rational_file(bad)  # float round-trips are refused


def test_trailing_zeros_trim_in_linear_time():
    # re-slicing a tuple once per trailing zero is quadratic: ~20 s at this size
    start = time.perf_counter()
    assert so.finite_sequence("tail", [1] + [0] * 10 ** 5).terms == ((1, Fraction(1)),)
    assert time.perf_counter() - start < 5.0


def test_finite_terms_are_checked():
    for terms in (((1, Fraction(0)),), ((1, 1),), ((1, 0.5),), ((0, Fraction(1)),),
                  ((2, Fraction(1)), (2, Fraction(3))),
                  ((5, Fraction(1)), (3, Fraction(3))), ()):
        with pytest.raises(so.SequenceError):
            so.SeqSpec(name="bad", terms=terms)
    assert so.SeqSpec(name="ok", terms=((2, Fraction(1)), (9, Fraction(-3)))).support_end == 9


def test_em_stores_one_term():
    tracemalloc.start()
    try:
        seq = so.catalog_seq("em", m=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.terms == ((10 ** 6, 1),)
    assert peak < 2 ** 20


def test_only_exact_generators_give_gen():
    decay = Envelope(1.0, 2.0, valid_from=3, lower=0.5)
    vec = lambda ks: 1.0 / (ks * (ks + 1.0))  # noqa: E731
    with pytest.raises(so.SequenceError, match="both gen and exact_sum"):
        so.SeqSpec(name="g", gen=lambda k: Fraction(1, k * (k + 1)), decay=decay, vec=vec)
    with pytest.raises(so.SequenceError, match="both gen and exact_sum"):
        so.SeqSpec(name="s", decay=decay, exact_sum=Fraction(1), vec=vec)
    with pytest.raises(so.SequenceError, match="exactly one of terms/vec"):
        so.SeqSpec(name="nothing", gen=lambda k: Fraction(1, k * (k + 1)),
                   decay=decay, exact_sum=Fraction(1))


def test_decay_spot_check_rejects_lies():
    # a compact declaration is sampled past its support end N, so a rule that
    # is nonzero there is refused for an N past the samples' first ~11,000 too
    for decay in (Envelope(1.0, 2.0, valid_from=3),
                  *(Envelope.compact(N) for N in (100, 5_000, 20_000, 10 ** 6))):
        with pytest.raises(so.SequenceError, match="decay envelope violated"):
            so.SeqSpec(name="liar", vec=lambda ks: 1.0 / ks, decay=decay)


@pytest.mark.parametrize("decay", [
    Envelope(1.0, 1.0),  # 1/k is not summable
    Envelope(1.0, 1.0, -1.0),  # nor is 1/(k ln k)
    Envelope(1.0, 2.0, -1.0),  # a shape no sequence declares
    Envelope(0.0, 2.0),  # compact with no support end
])
def test_decay_shape_is_checked(decay):
    with pytest.raises(so.SequenceError, match="must be declared compact"):
        so.SeqSpec(name="odd", vec=lambda ks: 0.0 * ks, decay=decay)


def test_generator_requires_decay():
    with pytest.raises(so.SequenceError):
        so.SeqSpec(name="bare", vec=lambda ks: 0.0 * ks)


def test_weighted_tail_without_certificate_is_inconclusive():
    # 1/((k+1) ln(k+2)**1.5) is summable, but a_k ln(k+1) decays only like
    # 1/(k ln(k)**0.5); with no lower bound declared, no weighted sum is
    # certified either way
    seq = so.SeqSpec(name="slow", decay=Envelope(1.0, 1.0, -1.5, valid_from=3),
                     vec=lambda ks: 1.0 / ((ks + 1.0) * np.log(ks + 2.0) ** 1.5))
    assert so.total_sum(seq).verdict == "converged"
    for op in (so.l1_log_weight, so.j2_sum, so.l1_norm_mod):
        assert op(seq).verdict == "inconclusive", op.__name__


def test_build_report(lam):
    rep = so.build_report(lam)
    d = rep.to_dict()
    assert d["total_sum"]["exact"] == "1"
    assert d["log_weighted_sum"]["verdict"] == "converged"
    assert d["equivalence_ratio"] == pytest.approx(
        1.0 / (GAMMA + 1.2577468869443698), rel=1e-4)


_NUMPY_PROBE = """
import contextlib, io, sys
from hardy import cli, harness, seq_ops

harness.golden()
for argv in (["cont", "report", "--fn", "theta"],
             ["disc", "report", "--seq", "em(m=7)"],
             ["disc", "report", "--seq-file", sys.argv[1]],
             ["disc", "sweep", "--family", "em", "--m", "1:50"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert all(r.passed for r in harness.run_suite(harness.SuiteConfig(claims="cont.*")))
assert "numpy" not in sys.modules, "cont.*"
seq_ops.catalog_seq("lambda")
assert "numpy" in sys.modules, "lambda"
"""


def test_numpy_loads_only_where_an_array_is_built(tmp_path):
    # in a fresh interpreter: this one has numpy loaded already
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("1/2\n0\n-1/3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(seq_file)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
