import dataclasses
import gc
import math
import pickle
import random
import weakref

import pytest

from hardy import cont_ops as co
from hardy import funcspace as fs
from hardy import quad
from hardy.envelopes import Envelope

E = math.e
LN32 = math.log(1.5)


@pytest.fixture(scope="module")
def theta():
    return fs.catalog("theta")


@pytest.fixture(scope="module")
def f0():
    return fs.catalog("f0")


@pytest.fixture(scope="module")
def fe():
    return fs.catalog("fe")


def _log_points(rng, n, lo, hi, avoid=()):
    out = []
    span = math.log10(hi / lo)
    while len(out) < n:
        x = lo * 10.0 ** (span * rng.random())
        if all(abs(x - b) > 1e-9 * max(1.0, b) for b in avoid):
            out.append(x)
    return out


def test_oracle_values():
    assert co.oracle_qf0(5.0) == pytest.approx(LN32 / 5.0, rel=1e-15)
    assert co.oracle_qf0(0.5) == 0.0
    assert co.oracle_qf0(2.5) == pytest.approx(math.log(2.0) / 2.5, rel=1e-15)
    assert co.oracle_qfe(E ** 2) == pytest.approx(1.0 / (2.0 * E ** 2), rel=1e-15)
    assert co.oracle_qfe(1.0) == 1.0
    with pytest.raises(fs.DomainError):
        co.oracle_qf0(0.0)


def test_hardy_avg_matches_oracles(f0, fe):
    rng = random.Random(101)
    for f, oracle in ((f0, co.oracle_qf0), (fe, co.oracle_qfe)):
        pts = _log_points(rng, 500, 1e-3, 1e3, f.breakpoints)
        worst = max(abs(co.hardy_avg(f, x) - oracle(x)) for x in pts)
        assert worst <= 1e-10


def test_hardy_avg_theta(theta):
    for x in (0.01, 1.0, 100.0):
        assert co.hardy_avg(theta, x) == pytest.approx(1.0 / (1.0 + x), abs=1e-14)


def test_missing_antiderivative_is_a_domain_error(theta):
    # every operator integrates through the piecewise antiderivatives, so a
    # hand-built piece without one is rejected by name
    bare = fs.TestFunction("bare", (fs.Piece(0.0, math.inf, theta.pieces[0].expr, None, 1),),
                           (), theta.origin, theta.tail)
    for op in (lambda: co.hardy_avg(bare, 1.0), lambda: co.total_integral(bare),
               lambda: co.split_i1(bare), lambda: co.split_i2(bare),
               lambda: co.l1_norm_modified(bare), lambda: co.build_report(bare)):
        with pytest.raises(fs.DomainError, match=r"bare: piece on \(0.0, inf\]"):
            op()


def test_modified_hardy_values(theta, f0, fe):
    for x in (0.1, 1.0, 10.0):
        assert abs(co.modified_hardy(theta, x)) < 1e-12
    assert co.modified_hardy(f0, 5.0) == pytest.approx(LN32 / 30.0, rel=1e-12)
    assert co.modified_hardy(fe, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_modified_hardy_linearity(theta, f0):
    rng = random.Random(7)
    combo = fs.add(fs.scale(f0, 1.5), fs.scale(theta, -2.0))
    for x in _log_points(rng, 20, 1e-2, 1e4):
        direct = co.modified_hardy(combo, x)
        parts = 1.5 * co.modified_hardy(f0, x) - 2.0 * co.modified_hardy(theta, x)
        assert direct == pytest.approx(parts, abs=1e-12)


def test_weight_symmetry():
    for t in (0.01, 0.3, 2.0, 50.0):
        assert co.weight(t) == pytest.approx(co.weight(1.0 / t), rel=1e-14)
        assert co.weight(t) == pytest.approx(math.log(2.0 + t + 1.0 / t), rel=1e-14)


def test_log_weight_norm_theta(theta):
    res = co.log_weight_norm(theta)
    assert res.verdict == "converged"
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_log_weight_norm_box_golden():
    box = fs.catalog("box", lo=1.0, hi=2.0)
    res = co.log_weight_norm(box)
    assert res.value == pytest.approx(6.0 * LN32 - 1.0, abs=1e-11)


def _box_closed_forms(lo, hi):
    """W, I1 and I2 of box(lo, hi): the integrals over [lo, hi] of w(t),
    ln(1 + 1/t) and ln(1 + t)."""
    def g(t):  # int ln(1 + t) dt
        return (1.0 + t) * math.log1p(t) - t

    def big_w(t):  # int w dt, as w(t) = 2 ln(1 + t) - ln t
        return 2.0 * g(t) - (t * math.log(t) - t)

    def i1(t):  # int ln(1 + 1/t) dt
        return t * math.log1p(1.0 / t) + math.log1p(t)

    return tuple(F(hi) - F(lo) for F in (big_w, i1, g))


@pytest.mark.parametrize("lo,hi", [(1e-306, 1e-303), (1e200, 1e250), (1e290, 1e299),
                                   (1e300, 1e305)])
def test_far_boxes_match_their_closed_forms(lo, hi):
    # both ends of the float range: every functional reads the piece that
    # holds t = e**v, and I2's density does not overflow where T(t) t would
    f = fs.catalog("box", lo=lo, hi=hi)
    w, i1, i2 = _box_closed_forms(lo, hi)
    rep = co.fubini_check_cont(f)
    for res, exact in ((co.log_weight_norm(f), w), (rep.i1_double, i1), (rep.i1_single, i1),
                       (rep.i2_double, i2), (rep.i2_single, i2)):
        assert res.verdict == "converged", (lo, hi, exact, res)
        assert abs(res.value - exact) <= res.total_error + 1e-14 * abs(exact), (lo, hi, res)


def test_log_weight_norm_divergent(fe):
    assert co.log_weight_norm(fs.absolute(fe)).verdict == "divergent"
    assert co.log_weight_norm(fs.catalog("log_tail", beta=1.5)).verdict == "divergent"


def test_splits_theta(theta):
    i1 = co.split_i1(theta)
    i2 = co.split_i2(theta)
    assert i1.value == pytest.approx(1.0, abs=1e-9)
    assert i2.value == pytest.approx(1.0, abs=1e-9)


def test_split_i2_box_closed_form():
    box = fs.catalog("box", lo=1.0, hi=2.0)
    res = co.split_i2(box)
    assert res.value == pytest.approx(3.0 * math.log(3.0) - 2.0 * math.log(2.0) - 1.0,
                                      abs=1e-11)


# fe diverges at both ends under either weight: all four splits are
# certified divergent, and divergent agrees with divergent
@pytest.mark.parametrize("name", ["theta", "abs(f0)", "power_tail(beta=2)",
                                  "power_tail(beta=3)", "fe"])
def test_fubini_check(name):
    rep = co.fubini_check_cont(fs.parse_function(name))
    assert rep.passed


def _record_certificates(monkeypatch) -> list:
    """The certified envelopes that quad spot-checks from here on."""
    seen = []
    check = quad._spot_check_lower

    def recording(density, envs):
        check(density, envs)
        seen.extend(env for env in envs if env.certified_divergent())

    monkeypatch.setattr(quad, "_spot_check_lower", recording)
    return seen


def test_a_loose_tail_reads_inconclusive_never_divergent():
    # (1+t)**-1.1 <= 14 / (t ln(t)**1.5) on t >= e holds, but is too loose to
    # integrate against w or as T(x)/x, and carries no lower bound: W and
    # ||Hf||_1 converge, yet the loose declaration certifies neither way
    pt = fs.catalog("power_tail", beta=1.1)
    loose = dataclasses.replace(pt, tail=Envelope(14.0, 1.0, -1.5))
    for op in (co.log_weight_norm, co.l1_norm_modified):
        assert op(pt).verdict == "converged"
        res = op(loose)
        assert (res.verdict, res.divergent_side) == ("inconclusive", "tail")
    rep = co.fubini_check_cont(loose)
    assert rep.i2_double.verdict == rep.i2_single.verdict == "inconclusive"
    assert rep.i1_pass and not rep.i2_pass


def test_a_sum_keeps_the_divergence_certificate_of_its_slower_summand(monkeypatch):
    # past the box, log_tail(1.5) + box(1, 2) is log_tail(1.5) itself, so
    # the sum keeps its lower bound and both W and ||Hf||_1 diverge by it
    g = fs.add(fs.catalog("log_tail", beta=1.5), fs.catalog("box", lo=1.0, hi=2.0))
    assert g.tail.lower == 1.0
    for op in (co.log_weight_norm, co.l1_norm_modified):
        seen = _record_certificates(monkeypatch)
        res = op(g)
        assert (res.verdict, res.divergent_side) == ("divergent", "tail")
        assert seen, op.__name__


def test_l1_norm_modified_theta(theta):
    res = co.l1_norm_modified(theta)
    assert res.verdict == "converged"
    assert abs(res.value) < 1e-10


def test_l1_norm_modified_f0_triangle(f0):
    h = co.l1_norm_modified(f0)
    a = fs.absolute(f0)
    i1 = co.split_i1(a)
    i2 = co.split_i2(a)
    assert h.verdict == "converged"
    assert h.value <= i1.value + i2.value + 10.0 * (
        h.total_error + i1.total_error + i2.total_error)


@pytest.mark.parametrize("name", ["log_tail(beta=1.5)", "log_tail(beta=2)",
                                  "abs(fe)"])
def test_l1_norm_modified_divergent(name):
    res = co.l1_norm_modified(fs.parse_function(name))
    assert res.verdict == "divergent"


def test_l1_norm_modified_fe_signed(monkeypatch, fe):
    # fe has zero mean, so the corrected operator equals the raw average,
    # whose absolute integral diverges at both ends; each end of fe keeps one
    # sign, so |F| = int |fe| there and the origin's certificate holds
    seen = _record_certificates(monkeypatch)
    res = co.l1_norm_modified(fe)
    assert (res.verdict, res.divergent_side) == ("divergent", "origin")
    assert seen


def _box_hf_closed_form(lo, hi):
    """||H f||_1 of box(lo, hi) by its own route, with the rounding slack of
    its terms: m ln(1+lo) before the box, m ln((1+hi)/hi) past it, and
    between them G(x) = x - lo ln x - m ln(1+x), an antiderivative of H f,
    taken apart at the root r of x**2 + (1-lo-m)x - lo, where H f changes
    sign."""
    m = hi - lo
    b = 1.0 - hi  # 1 - lo - m
    d = math.sqrt(b * b + 4.0 * lo)
    r = 2.0 * lo / (d + b) if b > 0.0 else 0.5 * (d - b)

    def g(x):
        return (x, -lo * math.log(x), -m * math.log1p(x))

    terms = (m * math.log1p(lo), m * math.log1p(1.0 / hi), *g(lo), *g(hi),
             *(-2.0 * x for x in g(r)))
    return math.fsum(terms), 4.0 * quad._EPS * math.fsum(map(abs, terms))


# box(0.3, 1.7) changes sign at exactly t = 1, where the scan reads v = 0
# within its noise floor; the zero is found from the reads on either side
@pytest.mark.parametrize("lo,hi", [(0.3, 1.7), (1.0, 2.0), (0.1, 30.0), (0.01, 0.03),
                                   (5.0, 6.0), (2.0, 8.0), (1e-3, 10.0)])
def test_l1_norm_modified_of_a_box_matches_its_closed_form(lo, hi):
    res = co.l1_norm_modified(fs.catalog("box", lo=lo, hi=hi))
    exact, slack = _box_hf_closed_form(lo, hi)
    assert res.verdict == "converged"
    assert abs(res.value - exact) <= res.total_error + slack, (res, exact)


def test_l1_norm_modified_of_a_power_cutoff_is_4():
    # H f = 2/sqrt(x) - 2/(1+x) on (0, 1] and 2/(x(x+1)) past it: 4 - 2 ln 2 + 2 ln 2
    res = co.l1_norm_modified(fs.catalog("power_cutoff", alpha=0.5, T=1.0))
    assert res.verdict == "converged"
    assert abs(res.value - 4.0) <= res.total_error


def _walks_and_cuts(monkeypatch, op, f):
    """op(f), the [a, b] of each adaptive walk it made and the breakpoints it
    passed beyond those of f."""
    walks, cuts = [], []
    core, halfline = quad._integrate_core, co.integrate_halfline

    def recording_core(g, a, b, **kw):
        walks.append((a, b))
        return core(g, a, b, **kw)

    def recording(density, **kw):
        cuts.extend(b for b in kw["breakpoints"] if b not in f.breakpoints)
        return halfline(density, **kw)

    monkeypatch.setattr(quad, "_integrate_core", recording_core)
    monkeypatch.setattr(co, "integrate_halfline", recording)
    return op(f), walks, cuts


def i1_single(f):
    return co._single_weight_result(f, "small")


def i2_single(f):
    return co._single_weight_result(f, "large")


@pytest.mark.parametrize("op", [co.l1_norm_modified, co.split_i1, co.split_i2,
                                co.log_weight_norm, i1_single, i2_single])
def test_a_box_is_walked_over_its_support_alone(monkeypatch, op):
    # |H f|, F/(x(x+1)) and T/(x+1) outside [lo, hi] are kernel terms or 0,
    # and |f| w, |f| ln(1 + 1/t) and |f| ln(1 + t) are 0, all closed in form;
    # across the cont-sweep box range the walks take 2 panels or fewer,
    # where they took 8 to 34 (4 to 10 for W and the single-weight forms)
    for lo in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
        for hi in (1.05 * lo, 2.0 * lo, 3.05 * lo):
            f = fs.catalog("box", lo=lo, hi=hi)
            res, walks, _ = _walks_and_cuts(monkeypatch, op, f)
            assert res.verdict == "converged"
            assert res.subdivisions <= 2, (lo, hi, res)
            assert all(math.log(lo) <= a < b <= math.log(hi) for a, b in walks), (lo, hi, walks)


def _reads_of_f(monkeypatch) -> list:
    """The v = ln t at which a functional built on ``_abs_density`` reads |f|
    from here on, whichever end's coordinate its walk runs in."""
    reads = []
    make = co._abs_density

    def recording(f):
        density = make(f)

        def read(v):
            reads.append(v)
            return density(v)
        return read

    monkeypatch.setattr(co, "_abs_density", recording)
    return reads


@pytest.mark.parametrize("name,lo,hi", [
    ("log_tail(beta=2.5)", 1.0, math.inf),
    ("power_cutoff(alpha=0.5,T=2)", -math.inf, math.log(2.0)),
], ids=["log_tail", "power_cutoff"])
def test_w_reads_f_only_where_it_does_not_vanish(monkeypatch, name, lo, hi):
    # log_tail is 0 on (0, e] and power_cutoff past T = 2: W closes those
    # ends as 0, where it walked the zeros from v = -1 to 1, or from ln 2 to 1
    reads = _reads_of_f(monkeypatch)
    res = co.log_weight_norm(fs.parse_function(name))
    assert res.verdict == "converged"
    assert reads and all(lo < v < hi for v in reads), (min(reads), max(reads))


@pytest.mark.parametrize("lo", [1e-20, 1e-305])
def test_a_small_box_has_an_equivalence_ratio(lo):
    # W is far below abs_tol here; a walk over the zero origin reported a
    # tail bound above W itself, and the ratio read "weighted norm vanishes"
    hi = 2.0 * lo
    rep = co.build_report(fs.catalog("box", lo=lo, hi=hi))
    assert rep.weighted_norm.tail_bound == 0.0
    assert rep.equivalence_ratio is not None
    hf, hf_slack = _box_hf_closed_form(lo, hi)
    w = _box_closed_forms(lo, hi)[0]
    num = hf + (hi - lo)
    closed = num / w
    num_err = rep.l1_norm_modified.total_error + hf_slack
    w_err = rep.weighted_norm.total_error + 4.0 * quad._EPS * w
    bound = closed * (num_err / num + w_err / w + 2.0 * quad._EPS)
    assert abs(rep.equivalence_ratio - closed) <= bound, (rep.equivalence_ratio, closed)


@pytest.mark.parametrize("name,zeros", [
    ("theta", ()), ("power_tail(beta=1.5)", ()), ("box(lo=0.3,hi=1.7)", (1.0,)),
    ("f0", (1.2529,)), ("abs(f0)", (1.9019, 2.4094, 3.1598)),
    ("power_cutoff(alpha=0.5,T=10)", (4.0 - math.sqrt(15.0), 4.0 + math.sqrt(15.0))),
    # two zeros between the scan steps v = 2 and 4 past the closed origin at e,
    # seen from the read midway at v = 3
    ("log_tail(beta=3.8)", (13.1325, 28.635)),
])
def test_the_hf_walk_is_cut_at_the_sign_changes_of_hf(monkeypatch, name, zeros):
    # theta has H f = 0, so x H f(x) reads rounding noise alone: no cut
    f = fs.parse_function(name)
    res, _, cuts = _walks_and_cuts(monkeypatch, co.l1_norm_modified, f)
    assert res.verdict == "converged"
    assert len(cuts) == len(zeros)
    for cut, zero in zip(sorted(cuts), zeros):
        assert cut == pytest.approx(zero, rel=1e-4)
        assert abs(co.modified_hardy(f, cut)) <= 1e-12
    if name == "box(lo=0.3,hi=1.7)":
        assert abs(cuts[0] - 1.0) <= 4.0 * quad._EPS


def test_a_functional_past_the_float_range_is_refused_in_a_report():
    f = fs.catalog("box", lo=1.0, hi=1e307)
    assert co.l1_norm_modified(f).verdict == "not-converged"  # its value is inf
    with pytest.raises(fs.DomainError, match="is past the float range"):
        co.build_report(f)
    with pytest.raises(fs.DomainError, match="l1_norm_modified overflows the float range"):
        co._representable(fs.catalog("box", lo=1.0, hi=1e308), co.l1_norm_modified)


# W(log_tail(2.5)): a head on v in [1, 40] plus the closed tail, in mpmath
# at 30 digits
W_LOG_TAIL_25 = 2.2247981944274122


@pytest.mark.parametrize("beta", [2.05, 2.2, 2.5, 3.0, 3.7])
def test_l1_norm_modified_log_tail_closed_form(beta):
    # H f < 0 on (e, inf) for beta <= 1 + e, so with l = 1/(beta-1),
    # ||H f||_1 = l ln(1+e) + 1/((beta-1)(beta-2)) - l (ln(1+e) - 1) = 1/(beta-2)
    res = co.l1_norm_modified(fs.catalog("log_tail", beta=beta))
    assert res.verdict == "converged"
    assert abs(res.value - 1.0 / (beta - 2.0)) <= res.total_error


def test_log_weight_norm_log_tail_matches_mpmath():
    res = co.log_weight_norm(fs.catalog("log_tail", beta=2.5))
    assert res.verdict == "converged"
    assert abs(res.value - W_LOG_TAIL_25) <= res.total_error


def test_fubini_check_log_tail_closes_both_i2_routes():
    rep = co.fubini_check_cont(fs.catalog("log_tail", beta=2.5))
    assert rep.passed
    assert rep.i2_double.verdict == rep.i2_single.verdict == "converged"


def test_log_moment_is_linear_and_declared_past_the_border_only():
    for beta in (1.5, 2.0):
        f = fs.catalog("log_tail", beta=beta)
        assert f.pieces[-1].log_moment is None
        assert co.log_weight_norm(f).verdict == "divergent"
    f = fs.catalog("log_tail", beta=2.5)
    assert fs.add(f, f).pieces[-1].log_moment is None
    g = fs.scale(f, -3.0)  # a negative last piece: |g| = 3 f
    for res, want in ((co.l1_norm_modified(g), 6.0),
                      (co.log_weight_norm(g), 3.0 * W_LOG_TAIL_25),
                      (co.log_weight_norm(fs.absolute(g)), 3.0 * W_LOG_TAIL_25)):
        assert res.verdict == "converged"
        assert abs(res.value - want) <= res.total_error


def test_mean_limit_reports(theta, f0, fe):
    rep = co.mean_limit_check(f0)
    assert rep.total_integral == pytest.approx(LN32, rel=1e-12)
    assert rep.consistent and rep.probe_rate_ok
    assert rep.probe.verdict == "divergent-log"

    rep = co.mean_limit_check(theta)
    assert rep.consistent and rep.probe_rate_ok
    assert rep.scaled_values[-1] == pytest.approx(1.0, rel=1e-5)

    rep = co.mean_limit_check(fe)
    assert abs(rep.total_integral) <= 1e-12 and rep.consistent
    assert rep.probe is None


def test_mean_zero_necessity_across_catalog():
    # every catalog member with nonzero total yields a log-divergent |Qf|
    for name in ("theta", "f0", "power_tail(beta=2)", "box(lo=1,hi=2)",
                 "power_cutoff(alpha=0.5,T=1)"):
        rep = co.mean_limit_check(fs.parse_function(name))
        assert rep.probe is not None, name
        assert rep.probe.verdict == "divergent-log", name
        assert rep.probe_rate_ok, name


def test_equivalence_ratio(theta):
    assert co.equivalence_ratio(theta) == pytest.approx(0.5, abs=1e-9)
    r = co.equivalence_ratio(fs.catalog("power_tail", beta=2.0))
    assert r == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(fs.DomainError):
        co.equivalence_ratio(fs.catalog("f0"))  # signed input


def test_equivalence_ratio_refuses_a_signed_f_before_integrating(monkeypatch, theta, f0):
    walks = []
    monkeypatch.setattr(co, "integrate_halfline", lambda *a, **kw: walks.append(a))
    with pytest.raises(fs.DomainError, match="defined for nonnegative functions"):
        co.equivalence_ratio(f0)
    assert walks == []
    # a piece of unknown sign gets the same refusal, not its missing-sign error
    p = theta.pieces[0]
    unsigned = fs.TestFunction("unsigned", (fs.Piece(p.lo, p.hi, p.expr, p.antiderivative),),
                               (), theta.origin, theta.tail)
    with pytest.raises(fs.DomainError, match="defined for nonnegative functions"):
        co.equivalence_ratio(unsigned)
    assert walks == []


def test_cont_hardy_ratio_closed_forms():
    chi = fs.catalog("power_cutoff", alpha=0.0, T=1.0)
    assert co.cont_hardy_ratio(chi, 2.0) == pytest.approx(2.0, abs=1e-9)
    for alpha in (0.35, 0.45):
        f = fs.catalog("power_cutoff", alpha=alpha, T=1.0)
        assert co.cont_hardy_ratio(f, 2.0) == pytest.approx(
            2.0 / (1.0 - alpha), rel=1e-9)


def test_the_p_ratio_of_a_box_matches_its_closed_form(monkeypatch):
    # for the indicator of (lo, hi], int (Qf)^2 / int f^2 is
    # 2 - 2 lo ln(hi/lo) / (hi - lo); f^2 = 0 outside [lo, hi], so the
    # denominator walks that stretch alone
    calls = []
    core, halfline = quad._integrate_core, co.integrate_halfline

    def recording_core(g, a, b, **kw):
        calls[-1].append((a, b))
        return core(g, a, b, **kw)

    def recording(density, **kw):
        calls.append([])
        return halfline(density, **kw)

    monkeypatch.setattr(quad, "_integrate_core", recording_core)
    monkeypatch.setattr(co, "integrate_halfline", recording)
    for lo in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
        for hi in (1.05 * lo, 2.0 * lo, 4.0 * lo):
            calls.clear()
            ratio = co.cont_hardy_ratio(fs.catalog("box", lo=lo, hi=hi), 2.0)
            exact = 2.0 - 2.0 * lo * math.log(hi / lo) / (hi - lo)
            assert ratio == pytest.approx(exact, rel=1e-9), (lo, hi)
            _, den = calls
            assert den == [(math.log(lo), math.log(hi))], (lo, hi, den)


def test_cont_hardy_ratio_under_bound():
    pt = fs.catalog("power_tail", beta=3.0)
    for p in (1.5, 2.0, 3.0, 10.0):
        assert co.cont_hardy_ratio(pt, p) <= (p / (p - 1.0)) ** p


def test_slow_power_tail_extends_the_walk_past_the_soft_cap(monkeypatch):
    # (1+t)^-1.0001 needs V beyond the soft cap: quad._tail_side's extension
    # round walks on to its hard cap and still converges to 1/(beta-1)**2
    ends = []
    core = quad._integrate_core

    def recording(g, a, b, **kw):
        ends.append(b)
        return core(g, a, b, **kw)

    monkeypatch.setattr(quad, "_integrate_core", recording)
    beta = 1.0001
    res = co.split_i2(fs.catalog("power_tail", beta=beta))
    assert res.verdict == "converged"
    assert abs(res.value - 1.0 / (beta - 1.0) ** 2) <= res.total_error
    assert quad._TAIL_V_SOFT < max(ends) < quad._TAIL_V_HARD


def test_cont_hardy_ratio_domain_errors(theta, f0, fe):
    with pytest.raises(fs.DomainError):
        co.cont_hardy_ratio(theta, 1.0)
    with pytest.raises(fs.DomainError):
        co.cont_hardy_ratio(f0, 2.0)  # signed
    with pytest.raises(fs.DomainError):
        co.cont_hardy_ratio(fs.absolute(fe), 2.0)  # not p-integrable near 0
    # p*alpha >= 1: p-norm blows up at the origin.  The origin class stores
    # 2 - alpha, rounded, so p*alpha = 1 exactly must still be refused at once
    for alpha, p in ((0.6, 2.0), (0.5, 2.0), (0.4, 2.5), (0.2, 5.0)):
        with pytest.raises(fs.DomainError, match="not p-integrable near the origin"):
            co.cont_hardy_ratio(fs.catalog("power_cutoff", alpha=alpha, T=1.0), p)


def test_characterization_both_directions():
    finite = ["theta", "power_tail(beta=1.5)", "power_tail(beta=3)",
              "abs(f0)", "box(lo=1,hi=2)", "power_cutoff(alpha=0.5,T=1)"]
    divergent = ["log_tail(beta=1.5)", "log_tail(beta=2)", "abs(fe)"]
    for name in finite:
        f = fs.parse_function(name)
        assert co.log_weight_norm(f).verdict == "converged", name
        assert co.l1_norm_modified(f).verdict == "converged", name
    for name in divergent:
        f = fs.parse_function(name)
        assert co.log_weight_norm(f).verdict == "divergent", name
        assert co.l1_norm_modified(f).verdict == "divergent", name


def test_build_report_roundtrip(theta):
    rep = co.build_report(theta)
    d = rep.to_dict()
    assert d["function"] == "theta"
    assert d["weighted_norm"]["verdict"] == "converged"
    assert d["equivalence_ratio"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("name", ["f0", "fe", "-2 power_tail", "-(theta + box)"])
def test_splits_read_abs_f_from_the_piece_signs(name):
    # the same results, bit for bit, as through the function |f| itself
    f = {"-2 power_tail": lambda: fs.scale(fs.catalog("power_tail", beta=2.0), -2.0),
         "-(theta + box)": lambda: fs.add(fs.scale(fs.catalog("theta"), -1.0),
                                          fs.scale(fs.catalog("box", lo=1.0, hi=2.0), -1.0)),
         }.get(name, lambda: fs.catalog(name))()
    a = fs.absolute(f)
    assert co.split_i1(f) == co.split_i1(a) and co.split_i2(f) == co.split_i2(a)
    rep, rep_a = co.build_report(f), co.build_report(a)
    assert (rep.l1_norm, rep.i1, rep.i2) == (rep_a.l1_norm, rep_a.i1, rep_a.i2)


def test_splits_refuse_a_piece_of_unknown_sign(theta):
    f = fs.add(theta, fs.scale(fs.catalog("box", lo=1.0, hi=2.0), -0.5))
    for op in (co.split_i1, co.split_i2, co.build_report, co.fubini_check_cont):
        with pytest.raises(fs.DomainError, match="has no declared sign"):
            op(f)


def test_build_report_builds_absolute_only_for_signed_f(monkeypatch):
    # |f| is read from the signs of f's pieces, so no report builds a second
    # function or repeats a spot check, for a signed f either
    pt, f0 = fs.catalog("power_tail", beta=2.0), fs.catalog("f0")
    checked = []
    spot_check = fs._spot_check
    monkeypatch.setattr(fs, "_spot_check",
                        lambda f, end, *a: (checked.append((f.name, end)), spot_check(f, end, *a)))
    co.build_report(pt)
    assert checked == []
    co.build_report(f0)
    assert checked == []


@pytest.mark.parametrize("name", ["theta", "f0", "fe", "box(lo=1,hi=2)", "power_tail(beta=1.5)"])
def test_reports_do_not_depend_on_the_cumulative_cache(name):
    f = fs.parse_function(name)
    co._cached.cache_clear()
    cold = co.build_report(f).to_dict()
    warm = co.build_report(f).to_dict()
    co._cached.cache_clear()
    # each functional alone, in the reverse of the report's order, from a cold cache
    backward = {key: co._functional_dict(op(f)) for key, op in (
        ("i2", co.split_i2), ("i1", co.split_i1),
        ("l1_norm_modified", co.l1_norm_modified), ("weighted_norm", co.log_weight_norm))}
    assert warm == cold
    assert backward == {key: cold[key] for key in backward}
    assert co.build_report(f).to_dict() == cold


def test_a_signed_f_has_two_cumulatives_and_a_nonnegative_f_one(theta, f0):
    assert co._cumulative(f0) is not co._cumulative(f0, of_abs=True)
    assert co._cumulative(f0, of_abs=True) is co._cumulative(f0, of_abs=True)
    assert co._cumulative(theta) is co._cumulative(theta, of_abs=True)


def test_equal_functions_hash_equal_and_share_one_cumulative(monkeypatch, theta, f0):
    def build():
        return fs.add(fs.scale(f0, -1.5), fs.add(theta, fs.catalog("box", lo=1, hi=2)))

    f, g = build(), build()
    piece_hashes = []
    monkeypatch.setattr(fs.Piece, "__hash__",
                        lambda p, h=fs.Piece.__hash__: piece_hashes.append(p) or h(p))
    assert f is not g and f == g and hash(f) == hash(g)
    assert hash(f) == hash(g) and len(piece_hashes) == 2 * len(f.pieces)  # not hashed again
    assert hash(pickle.loads(pickle.dumps(f))) == hash(f)
    assert {f: 1}[g] == 1
    co._cached.cache_clear()
    first = co._cumulative(f)
    assert co._cumulative(f) is first and co._cumulative(g) is first
    info = co._cached.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_the_cumulative_cache_keeps_the_latest_function_within_its_cap():
    alive = []
    fns = [fs.catalog("power_tail", beta=1.1 + 0.15 * k) for k in range(10)] + [
        fs.scale(fs.catalog("box", lo=0.1 * k + 0.1, hi=3.0), -1.0) for k in range(10)]
    for f in fns:
        co.build_report(f)
        alive += [weakref.ref(co._cumulative(f, of_abs)) for of_abs in (False, True)]
    gc.collect()
    kept = [ref() for ref in alive if ref() is not None]
    assert co._cached.cache_info().currsize <= 2
    assert len(kept) == 2 and {c.f for c in kept} == {fns[-1]}  # a signed f: f and |f|
    assert all(len(c._memo) <= co._MEMO_CAP for c in kept)


def test_reads_past_the_memo_cap_are_computed_alike(monkeypatch, f0):
    co._cached.cache_clear()
    full = co.build_report(f0).to_dict()
    co._cached.cache_clear()
    monkeypatch.setattr(co, "_MEMO_CAP", 8)
    assert co.build_report(f0).to_dict() == full
    assert [len(co._cumulative(f0, of_abs)._memo) for of_abs in (False, True)] == [8, 8]


def test_total_integral_divergent_rejected():
    with pytest.raises(fs.ParameterError):
        # a tail like 1/t is not admissible in the catalog at all
        fs.catalog("power_tail", beta=1.0)
