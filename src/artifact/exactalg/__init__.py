"""Exact arithmetic over Q(sqrt d) and the polynomial algebra built on it.

Layers, bottom up: field elements (QuadExt), univariate polynomials
(UPoly), reduced rational functions (RatFunc), bivariate polynomials
(BiPoly), and irreducible factorization with quotient-ring evaluation.
Everything is immutable, exact, and pure.
"""

from .bipoly import BiPoly
from .factorization import (
    FactorClass,
    coprime,
    eval_mod,
    factor_irreducible,
)
from .field import FieldSpec, QuadExt, is_rational_square
from .ratfunc import RatFunc
from .upoly import (
    NEG_INF,
    UPoly,
    inverse_mod,
    poly_gcd,
    squarefree_decompose,
    strip_power_of_x,
)

__all__ = [
    "BiPoly",
    "FactorClass",
    "FieldSpec",
    "NEG_INF",
    "QuadExt",
    "RatFunc",
    "UPoly",
    "coprime",
    "eval_mod",
    "factor_irreducible",
    "inverse_mod",
    "is_rational_square",
    "poly_gcd",
    "squarefree_decompose",
    "strip_power_of_x",
]
