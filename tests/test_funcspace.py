import dataclasses
import math
import random

import pytest

from hardy import funcspace as fs
from hardy.envelopes import Envelope
from hardy import quad

E = math.e


@pytest.fixture(scope="module")
def theta():
    return fs.catalog("theta")


@pytest.fixture(scope="module")
def f0():
    return fs.catalog("f0")


@pytest.fixture(scope="module")
def fe():
    return fs.catalog("fe")


def test_eval_examples(theta, f0, fe):
    assert theta.eval(1.0) == 0.25
    assert f0.eval(1.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert fe.eval(E ** 2) == pytest.approx(-1.0 / (E ** 2 * 4.0), rel=1e-14)


def test_eval_rejects_nonpositive(theta):
    with pytest.raises(fs.DomainError):
        theta.eval(0.0)
    with pytest.raises(fs.DomainError):
        theta.eval(-1.0)


def test_breakpoint_left_convention(f0, fe):
    # the piece to the left of a breakpoint owns it
    assert f0.eval(1.0) == 0.0
    assert f0.eval(2.0) == 0.5
    assert f0.eval(4.0) == -0.25
    assert fe.eval(1.0 / E) == pytest.approx(E, rel=1e-15)


def test_piece_coverage_property():
    # every sampled t is claimed by exactly the piece the index points to
    for name in ("theta", "f0", "fe", "log_tail(beta=2)", "box(lo=1,hi=2)"):
        f = fs.parse_function(name)
        for i in range(10 ** 4):
            t = 10.0 ** (-6.0 + 12.0 * i / (10 ** 4 - 1))
            idx = f.piece_index(t)
            piece = f.pieces[idx]
            assert piece.lo < t <= piece.hi or (piece.hi == math.inf and t > piece.lo)
            f.eval(t)


@pytest.mark.parametrize("name", ["f0", "fe", "box(lo=1e-306,hi=1e-303)",
                                  "box(lo=1e300,hi=1e305)"])
def test_log_eval_reads_the_piece_that_holds_t(name):
    # the piece of t = e**v is found from the log-breakpoints for every v,
    # so log_eval agrees with eval inside each piece, also where e**v
    # leaves the float range
    f = fs.parse_function(name)
    bps = f.breakpoints
    edges = (bps[0] / 10.0,) + bps + (bps[-1] * 10.0,)
    for lo, hi in zip(edges, edges[1:]):
        for k in (0.1, 0.5, 0.9):
            t = lo ** (1.0 - k) * hi ** k
            la, s = f.log_eval(math.log(t))
            assert s * math.exp(la) == pytest.approx(f.eval(t), rel=1e-12), (name, t)


def test_catalog_exact_values(theta, f0, fe):
    assert theta.exact("total_integral") == 1.0
    assert f0.exact("total_integral") == pytest.approx(math.log(1.5), rel=1e-15)
    assert fe.exact("total_integral") == 0.0
    assert f0.exact("l1_norm") == pytest.approx(math.log(8.0 / 3.0), rel=1e-15)


def test_catalog_unknown_name_and_bad_params():
    with pytest.raises(fs.CatalogError):
        fs.catalog("nope")
    with pytest.raises(fs.ParameterError):
        fs.catalog("power_tail", beta=1.0)
    with pytest.raises(fs.ParameterError):
        fs.catalog("power_cutoff", alpha=1.0, T=1.0)
    with pytest.raises(fs.ParameterError):
        fs.catalog("log_tail", beta=0.5)
    with pytest.raises(fs.ParameterError):
        fs.catalog("theta", beta=2.0)
    with pytest.raises(fs.ParameterError):
        fs.catalog("box", lo=2.0, hi=1.0)


def test_parse_function_forms():
    assert fs.parse_function("theta").name == "theta"
    f = fs.parse_function("power_tail(beta=2.5)")
    assert f.eval(1.0) == pytest.approx(2.0 ** -2.5, rel=1e-15)
    g = fs.parse_function("abs(f0)")
    assert g.eval(3.5) == pytest.approx(1.0 / 3.5, rel=1e-15)
    with pytest.raises(fs.ParameterError):
        fs.parse_function("power_tail(beta=x)")
    with pytest.raises(fs.CatalogError):
        fs.parse_function("2+2")


def test_exact_antiderivative_examples(theta, f0):
    # running integral of the kernel profile: x/(1+x)
    for x in (0.5, 1.0, 7.0):
        assert fs.exact_antiderivative(theta, 0.0, x) == pytest.approx(
            x / (1.0 + x), rel=1e-15)
    assert fs.exact_antiderivative(f0, 1.0, 2.0) == pytest.approx(
        math.log(2.0), rel=1e-15)
    assert fs.exact_antiderivative(f0, 2.5, 2.5) == 0.0
    assert fs.exact_antiderivative(theta, 0.0, math.inf) == 1.0


def test_antiderivatives_differentiate_back():
    # central difference of each antiderivative reproduces the piece value
    rng = random.Random(11)
    for name in ("theta", "f0", "fe", "power_tail(beta=1.5)",
                 "power_cutoff(alpha=0.5,T=1)", "log_tail(beta=2)"):
        f = fs.parse_function(name)
        for piece in f.pieces:
            if piece.antiderivative is None:
                continue
            for _ in range(20):
                lo = max(piece.lo, 1e-3)
                hi = min(piece.hi, 1e3)
                if hi <= lo:
                    continue
                t = lo + (hi - lo) * rng.uniform(0.05, 0.95)
                h = 1e-6 * max(t, 1.0)
                if t - h <= piece.lo or t + h >= piece.hi:
                    continue
                deriv = (piece.antiderivative.eval(t + h)
                         - piece.antiderivative.eval(t - h)) / (2.0 * h)
                assert deriv == pytest.approx(piece.expr.eval(t),
                                              rel=1e-6, abs=1e-12)


def test_oracle_consistency_with_quadrature():
    # where the exact antiderivative exists it must agree with the
    # quadrature engine on random subintervals
    rng = random.Random(23)
    for name in ("theta", "f0", "fe", "power_tail(beta=2)"):
        f = fs.parse_function(name)
        for _ in range(100):
            a = 10.0 ** rng.uniform(-2.5, 2.0)
            b = a + 10.0 ** rng.uniform(-2.0, 2.0)
            exact = fs.exact_antiderivative(f, a, b)
            res = quad.integrate(f.eval, a, b, breakpoints=f.breakpoints)
            assert abs(res.value - exact) <= max(res.err_est, 1e-13 * (1 + abs(exact)))


def test_catalog_l1_membership():
    # every entry with a declared finite total has a finite quadrature l1
    # norm matching the declared value
    for name in ("theta", "abs(f0)", "abs(fe)", "power_tail(beta=1.5)",
                 "power_cutoff(alpha=0.5,T=2)", "log_tail(beta=3)",
                 "box(lo=0.5,hi=4)"):
        f = fs.parse_function(name)
        declared = f.exact("l1_norm") or f.exact("total_integral")
        res = quad.integrate_halfline(
            lambda v, f=f: math.exp(f.log_eval(v)[0] + v),
            origin_envs=(f.origin,),
            tail_envs=(f.tail,),
            breakpoints=f.breakpoints)
        assert res.verdict == "converged"
        assert res.value == pytest.approx(declared, rel=1e-9)


def test_scale_and_add(theta, f0):
    tw = fs.scale(theta, 2.0)
    assert tw.eval(1.0) == 0.5
    assert fs.total_integral_exact(tw) == 2.0
    combo = fs.add(f0, theta)
    assert combo.eval(1.5) == pytest.approx(f0.eval(1.5) + theta.eval(1.5), rel=1e-14)
    assert fs.total_integral_exact(combo) == pytest.approx(
        math.log(1.5) + 1.0, rel=1e-15)
    assert combo.breakpoints == (1.0, 2.0, 3.0, 4.0)


def test_absolute_flips_negative_pieces(f0, fe=None):
    a = fs.absolute(f0)
    assert a.eval(3.5) == pytest.approx(1.0 / 3.5, rel=1e-15)
    assert fs.total_integral_exact(a) == pytest.approx(math.log(8.0 / 3.0), rel=1e-15)


def test_declared_class_is_spot_checked():
    # declaring a tail faster than the actual decay must be rejected
    with pytest.raises(fs.ParameterError, match="tail envelope violated"):
        fs.TestFunction(
            "bad",
            (fs.Piece(0.0, math.inf, fs.catalog("power_tail", beta=1.5).pieces[0].expr,
                      None, 1),),
            (),
            Envelope(1.0, 2.0),
            Envelope(1.0, 3.0),
        )


def test_compact_declaration_checked():
    with pytest.raises(fs.ParameterError, match="tail declared compact"):
        fs.TestFunction(
            "bad-compact",
            (fs.Piece(0.0, math.inf, fs.catalog("theta").pieces[0].expr, None, 1),),
            (),
            Envelope(1.0, 2.0),
            Envelope.compact(2.0),
        )


def test_compact_end_is_read_from_the_pieces():
    # sampling six decades past t = 2 never reached the box on (1e8, 1e9];
    # the pieces show it is not zero there
    box = fs.catalog("box", lo=1e8, hi=1e9)
    with pytest.raises(fs.ParameterError, match="tail declared compact beyond t=2.0"):
        dataclasses.replace(box, tail=Envelope.compact(2.0))
    # in u = 1/t the box is zero past u = 1e-8, not past u = 1e-9
    assert dataclasses.replace(box, origin=Envelope.compact(1e-8)).origin.support_end == 1e-8
    with pytest.raises(fs.ParameterError, match="origin declared compact beyond u=1e-09"):
        dataclasses.replace(box, origin=Envelope.compact(1e-9))


def test_a_lower_bound_needs_a_nonzero_outermost_piece(fe):
    # fe cut to (1e-10, 1/e]: sampling the origin over 14 units of v never
    # reached u = 1e10, past which f(1/u) = 0 on the outermost piece
    core = dataclasses.replace(fe.pieces[0], lo=1e-10)
    zero = fe.pieces[1]
    pieces = (dataclasses.replace(zero, lo=0.0, hi=1e-10), core,
              dataclasses.replace(zero, hi=math.inf))
    origin = Envelope(1.0, 1.0, -2.0, lower=1.0)
    with pytest.raises(fs.ParameterError, match="origin declares a lower bound"):
        fs.TestFunction("fe-cut", pieces, (1e-10, 1.0 / E), origin, Envelope.compact(1.0 / E))
    without = fs.TestFunction("fe-cut", pieces, (1e-10, 1.0 / E),
                              dataclasses.replace(origin, lower=None), Envelope.compact(1.0 / E))
    assert without.origin.lower is None


@pytest.mark.parametrize("end", ["origin", "tail"])
def test_declared_shape_is_checked(theta, end):
    odd = Envelope(1.0, 2.0, -1.0)  # a power with a log factor: not declarable
    ends = {"origin": theta.origin, "tail": theta.tail, end: odd}
    with pytest.raises(fs.ParameterError, match=f"{end} must be declared compact"):
        fs.TestFunction("odd", theta.pieces, theta.breakpoints, ends["origin"], ends["tail"])


# (coeff, power, logpow, valid_from, lower) of origin and of
# origin.averaged(), in u = 1/t: the envelopes the origin had while
# it was declared in t, through a separate origin class.  A sum "f+g" adds
# those of its tail and tail.averaged(), as add built them from a separate
# declaration type (power + power, power-log + power, compact + power).
# Each sum keeps its slower summand's lower bound on the tail: the summands
# share a sign there, or the compact one has ended.
_ORIGIN_ENVELOPES = {
    "theta": ((1.0, 2.0, 0.0, E, None), (1.0, 2.0, 0.0, E, None)),
    "f0": ((0.0, 2.0, 0.0, E, None), (0.0, 2.0, 0.0, E, None)),
    "fe": ((1.0, 1.0, -2.0, E, 1.0), (1.0, 1.0, -1.0, E, 0.5)),
    "abs(fe)": ((1.0, 1.0, -2.0, E, 1.0), (1.0, 1.0, -1.0, E, 0.5)),
    "power_cutoff(alpha=0,T=0.3)": ((1.0, 2.0, 0.0, 1.0 / 0.3, None),
                                    (1.0, 2.0, 0.0, 1.0 / 0.3, None)),
    "power_cutoff(alpha=0.5,T=5)": ((1.0, 1.5, 0.0, E, None), (2.0, 1.5, 0.0, E, None)),
    "power_tail(beta=1.5)": ((1.0, 2.0, 0.0, E, None), (1.0, 2.0, 0.0, E, None)),
    "log_tail(beta=2.5)": ((0.0, 2.0, 0.0, E, None), (0.0, 2.0, 0.0, E, None)),
    "box(lo=0.25,hi=4)": ((1.0, 2.0, 0.0, 4.0, None), (1.0, 2.0, 0.0, 4.0, None)),
    "box(lo=2,hi=5)": ((0.0, 2.0, 0.0, E, None), (0.0, 2.0, 0.0, E, None)),
    "theta+power_tail(beta=1.5)": ((2.0, 2.0, 0.0, E, None), (2.0, 2.0, 0.0, E, None),
                                   (2.0, 1.5, 0.0, E, 2.0 ** -1.5), (4.0, 1.5, 0.0, E, None)),
    "power_tail(beta=1.01)+log_tail(beta=2)": (
        (1.0, 2.0, 0.0, E, None), (1.0, 2.0, 0.0, E, None),
        (5414.411329464499, 1.0, -2.0, E, 1.0), (5414.411329464499, 1.0, -1.0, E, 0.5)),
    "box(lo=1,hi=2)+theta": ((1.0, 2.0, 0.0, E, None), (1.0, 2.0, 0.0, E, None),
                             (1.0, 2.0, 0.0, E, 0.25), (1.0, 2.0, 0.0, E, None)),
}


@pytest.mark.parametrize("name", sorted(_ORIGIN_ENVELOPES))
def test_origin_envelopes_in_the_reciprocal_coordinate(name):
    parts = [fs.parse_function(n) for n in name.split("+")]
    f = fs.add(*parts) if len(parts) == 2 else parts[0]
    ends = (f.origin, f.tail) if len(parts) == 2 else (f.origin,)
    assert all(isinstance(e, Envelope) for e in ends)
    got = tuple((e.coeff, e.power, e.logpow, e.valid_from, e.lower)
                for end in ends for e in (end, end.averaged()))
    assert got == _ORIGIN_ENVELOPES[name]


@pytest.mark.parametrize("name,origin,message", [
    # theta(0) = 1, not 0
    ("theta", Envelope.compact(1.0), "origin declared compact"),
    # t^-1/2 near 0 is u^-3/2 in u = 1/t, slower than a bounded f's u^-2
    ("power_cutoff(alpha=0.5,T=1)", Envelope(1.0, 2.0),
     "origin envelope violated"),
    # fe near 0 is 1/(t ln(1/t)**2), so the lower constant is 1, not 2
    ("fe", Envelope(2.0, 1.0, -2.0, lower=2.0),
     "origin lower bound violated"),
])
def test_origin_declaration_is_spot_checked(name, origin, message):
    f = fs.parse_function(name)
    with pytest.raises(fs.ParameterError, match=message):
        fs.TestFunction("bad", f.pieces, f.breakpoints, origin, f.tail)


@pytest.mark.parametrize("alpha,beta", [(1.01, 2.0), (1.2, 3.0)])
def test_add_absorbs_power_tail_into_power_log(alpha, beta):
    # t**(alpha-1) >= ln(t)**beta only far beyond t = e here (for alpha=1.01,
    # beta=2 near ln t = 1.5e3), so the power class is absorbed with the
    # constant sup_v v**beta e**(-(alpha-1)v), reached at v = beta/(alpha-1)
    g = fs.add(fs.catalog("power_tail", beta=alpha), fs.catalog("log_tail", beta=beta))
    assert g.tail.power == 1.0 and g.tail.logpow == -beta
    env = g.tail
    for v in (1.5, beta / (alpha - 1.0), 10.0 * beta / (alpha - 1.0)):
        la, _ = g.log_eval(v)
        assert la <= math.log(env.coeff) - env.power * v + env.logpow * math.log(v) + 1e-9


@pytest.mark.parametrize("names", [("theta", "fe"), ("power_cutoff(alpha=0.5,T=1)", "fe")])
def test_add_absorbs_origin_class_into_power_log(names):
    # t ln(1/t)**beta is not monotone on (0, 1/e], so the power class at the
    # origin (in u = 1/t, power 2 for a bounded f) is absorbed with the sup
    # of its ratio to the power-log shape, not with the ratio at valid_from
    g = fs.add(*(fs.parse_function(n) for n in names))  # spot-checks the class
    assert g.origin.power == 1.0 and g.origin.logpow == -2.0


def test_add_reads_each_piece_at_its_right_end(theta):
    # pieces are (lo, hi]; a read at lo + 1 (equal to lo past 2**53) or at
    # (lo + hi)/2 (overflowing near the top of the float range) took the
    # piece that ends at lo, and the sum then failed its own spot check
    pt = fs.catalog("power_tail", beta=2.0)
    g = fs.add(fs.catalog("box", lo=3.0, hi=1e20), pt)
    assert g.pieces[-1].lo == 1e20
    assert [g.eval(t) for t in (1e21, 1e100)] == [pt.eval(t) for t in (1e21, 1e100)]
    g = fs.add(fs.catalog("box", lo=1e307, hi=1.5e308), theta)
    assert g.eval(1e308) == 1.0 and g.log_eval(710.0) == theta.log_eval(710.0)
    g = fs.add(fs.scale(fs.catalog("box", lo=0.001, hi=2.0), -1.0),
               fs.catalog("box", lo=3.0, hi=1e300))
    assert g.eval(1e300) == 1.0 and g.eval(1e301) == 0.0
