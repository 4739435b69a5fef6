"""maskforge: exact-arithmetic analysis of multivariate subdivision masks.

Decompose trigonometric-polynomial masks against difference factors relative
to a general integer dilation matrix, detect sum-rule orders, and certify
convergence and C1 smoothness of the associated subdivision schemes.
All verdict-bearing computations are exact (rational / cyclotomic), the
expansion and isotropy gates included; floating point appears only in
certified interval enclosures.
"""

from .cyclotomic import (CyclotomicNumber, cyclotomic_polynomial,
                         magnitude_interval, root_of_unity)
from .decompose import (MaskDecomposition, decompose_levels, decompose_mask,
                        decompose_to_class, refine_decomposition)
from .errors import MaskforgeError
from .intervals import RatInterval
from .lattice import (DilationContext, determinant, digit_set, is_isotropic,
                      power_inf_norm)
from .subdivision import (IntSequence, MatrixMask, Refined, Sequence, apply,
                          check_c1, check_convergence, gradient,
                          operator_norm, refine, second_difference_scheme)
from .sumrules import (DerivativeTable, derivative_table, digit_interpolant,
                       mask_from_derivative_table, sum_rule_order,
                       unit_derivative_poly)
from .trigpoly import TrigPoly

__version__ = "0.1.0"

__all__ = [
    "CyclotomicNumber", "cyclotomic_polynomial", "magnitude_interval",
    "root_of_unity", "MaskDecomposition", "decompose_levels",
    "decompose_mask", "decompose_to_class", "refine_decomposition",
    "MaskforgeError", "RatInterval", "DilationContext", "determinant",
    "digit_set", "is_isotropic", "power_inf_norm", "IntSequence", "MatrixMask", "Refined", "Sequence",
    "apply", "check_c1", "check_convergence", "gradient", "operator_norm",
    "refine", "second_difference_scheme", "DerivativeTable",
    "derivative_table", "digit_interpolant", "mask_from_derivative_table",
    "sum_rule_order", "unit_derivative_poly", "TrigPoly",
]
