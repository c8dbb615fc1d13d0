"""Verification library for the averaging (Hardy) operator on (0, inf), its
mean-zero correction, and the discrete Cesaro analogues.

The library computes the running average Qf(x) = (1/x) int_0^x f, the
corrected operator Hf(x) = Qf(x) - (int f)/(1+x), the two-sided log-weighted
norm int |f| ln(2 + t + 1/t) dt that governs integrability of Hf, and the
parallel sequence operators with exact rational arithmetic.  Divergence is a
first-class, certified outcome throughout.
"""

from .envelopes import Envelope
from .expressions import Affine, Const, Expr, Log, Power, Product, Var
from .funcspace import (
    CatalogError, DomainError, ParameterError, Piece,
    TestFunction, absolute, add, catalog, catalog_names, exact_antiderivative,
    parse_function, scale, total_integral_exact,
)
from .quad import (
    DEFAULT_CONFIG, EvaluationError, HalflineResult, ProbeResult, QuadConfig,
    QuadResult, integrate, integrate_halfline, probe_divergence,
)
from . import cont_ops, harness, seq_ops

__version__ = "0.1.0"
