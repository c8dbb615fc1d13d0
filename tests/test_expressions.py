import math

import pytest

from hardy.expressions import (
    Const, ExprDomainError, Log, Power, Product, Var, affine, recip,
)

T = Var()
ONE_PLUS_T = affine([(1.0, T)], 1.0)


def test_basic_eval():
    assert Const(3.5).eval(2.0) == 3.5
    assert T.eval(2.0) == 2.0
    assert Power(T, -2.0).eval(4.0) == 4.0 ** -2
    assert Log(T).eval(math.e) == pytest.approx(1.0, abs=1e-15)
    expr = Product((recip(T), Power(Log(T), -2.0)))
    t = 0.1
    assert expr.eval(t) == pytest.approx(1.0 / (t * math.log(t) ** 2), rel=1e-15)


def test_affine_combination():
    expr = affine([(2.0, T), (-1.0, Power(T, 2.0))], 3.0)
    assert expr.eval(1.5) == pytest.approx(3.0 + 3.0 - 2.25, rel=1e-15)


def test_negative_base_needs_integer_exponent():
    neg = affine([(-1.0, T)])
    assert Power(neg, 2.0).eval(3.0) == 9.0
    assert Power(neg, -1.0).eval(2.0) == -0.5
    with pytest.raises(ExprDomainError):
        Power(neg, 0.5).eval(2.0)


def test_log_domain_error():
    with pytest.raises(ExprDomainError):
        Log(affine([(-1.0, T)])).eval(1.0)


def test_extended_limits():
    anti_theta = affine([(-1.0, Power(ONE_PLUS_T, -1.0))])
    assert anti_theta.eval_ext(0.0) == -1.0
    assert anti_theta.eval_ext(math.inf) == 0.0
    assert Log(T).eval_ext(math.inf) == math.inf
    # -(ln t)^-1 -> 0 as t -> 0+
    anti_fe = affine([(-1.0, Power(Log(T), -1.0))])
    assert anti_fe.eval_ext(0.0) == 0.0


def test_eval_takes_limits_and_refuses_indeterminate_forms():
    assert Log(T).eval(0.0) == -math.inf
    assert Power(T, 0.0).eval(0.0) == 1.0
    assert affine([(-1.0, Power(Log(T), -1.0))]).eval(0.0) == 0.0
    with pytest.raises(ExprDomainError, match="indeterminate"):
        Product((T, Log(T))).eval(0.0)  # 0 * -inf
    with pytest.raises(ExprDomainError, match="indeterminate"):
        affine([(1.0, T), (-1.0, Power(T, 2.0))]).eval(math.inf)  # inf - inf


def test_log_eval_matches_plain_eval():
    exprs = [
        Power(ONE_PLUS_T, -2.0),
        Product((recip(T), Power(Log(T), -3.0))),
        affine([(2.0, Power(T, -0.5)), (1.0, Const(0.25))]),
    ]
    for expr in exprs:
        for v in (-3.0, 0.5, 2.0, 5.0):
            t = math.exp(v)
            if isinstance(expr, Product) and t < 1.0:
                continue  # log factor changes sign at t = 1
            la, sign = expr.log_eval(v)
            val = expr.eval(t)
            assert sign == math.copysign(1.0, val)
            assert la == pytest.approx(math.log(abs(val)), abs=1e-12)


def test_log_eval_far_beyond_float_range():
    # 1/(t ln(t)^3) at t = e^5000: plain eval overflows, log form does not
    expr = Product((recip(T), Power(Log(T), -3.0)))
    la, sign = expr.log_eval(5000.0)
    assert sign == 1.0
    assert la == pytest.approx(-5000.0 - 3.0 * math.log(5000.0), rel=1e-14)


def test_log_eval_cancellation():
    # t - t = 0 exactly through the signed log-sum-exp path
    expr = affine([(1.0, T), (-1.0, T)])
    la, sign = expr.log_eval(10.0)
    assert sign == 0.0 and la == -math.inf
