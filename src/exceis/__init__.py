"""exceis: exact verification of Weyl coset censuses, degenerate Eisenstein
constant-term ledgers, archimedean multiplier recipes, and octonion/Jordan
algebra identities."""

from .exactnum import AffineForm, Poly
from .rootsys import ParabolicSpec, RootSystem
from .eiscalc import (CoordVector, LambdaTrace, ZetaFactor, ZetaProduct,
                      apply_word, order_report, rational_cfunction,
                      shifted_exponent)
from .config import load_config

__all__ = [
    "AffineForm", "Poly",
    "ParabolicSpec", "RootSystem",
    "CoordVector", "LambdaTrace", "ZetaFactor", "ZetaProduct",
    "apply_word", "order_report", "rational_cfunction",
    "shifted_exponent", "load_config",
]

__version__ = "0.1.0"
