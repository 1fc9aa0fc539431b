"""Exact arithmetic over Q(sqrt d) and the polynomial algebra built on it.

Layers, bottom up: field elements (QuadExt), univariate polynomials
(UPoly), reduced rational functions (RatFunc), bivariate polynomials
(BiPoly), and irreducible factorization with quotient-ring evaluation
and partial fractions.  Everything is immutable, exact, and pure.
"""

from .bipoly import BiPoly
from .factorization import (
    FactorClass,
    PartialFractions,
    PFTerm,
    constant_eval_mod,
    coprime,
    eval_mod,
    factor_irreducible,
    partial_fractions,
    ratfunc_eval_mod,
)
from .field import FieldSpec, QuadExt, Rat, is_rational_square
from .ratfunc import RatFunc
from .upoly import (
    NEG_INF,
    UPoly,
    inverse_mod,
    multiplicity,
    poly_divrem,
    poly_gcd,
    poly_xgcd,
    squarefree_decompose,
    squarefree_part,
    strip_power_of_x,
)

__all__ = [
    "BiPoly",
    "FactorClass",
    "FieldSpec",
    "NEG_INF",
    "PFTerm",
    "PartialFractions",
    "QuadExt",
    "Rat",
    "RatFunc",
    "UPoly",
    "constant_eval_mod",
    "coprime",
    "eval_mod",
    "factor_irreducible",
    "inverse_mod",
    "is_rational_square",
    "multiplicity",
    "partial_fractions",
    "poly_divrem",
    "poly_gcd",
    "poly_xgcd",
    "ratfunc_eval_mod",
    "squarefree_decompose",
    "squarefree_part",
    "strip_power_of_x",
]
