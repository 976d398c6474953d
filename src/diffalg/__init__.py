"""Exact symbolic calculus for recursion operators and integrable hierarchies.

Differential polynomials over Q in jet variables, Ore differential operators,
bidifferential operators and weakly non-local operators, with decision
procedures for hereditariness and integrability and a Lenard-Magri engine
that generates and certifies commuting symmetry chains.
"""

from .jets import DiffPoly, RatFun, diff_order, jet, poly_gcd
from .linalg import constant_linear_basis
from .calculus import (basis_mod_total_derivatives, evo_apply, integrate,
                       is_total_derivative, lie_bracket, potential,
                       variational_derivative)
from .operators import (DiffOp, FractionPair, frechet, left_divide,
                        minimal_right_fraction, right_divide, right_gcd,
                        right_lcm)
from .bidiff import (compose_left, compose_right, frechet_of_op,
                     is_skewsymmetric, left_divide_bidiff, transpose)
from .nonlocal_ops import (Grading, NonlocalOp, ParityClass,
                           from_fraction_pair, is_recursion_for, lie_derivative,
                           nl_apply, nl_mul, nl_power, operator_from_json,
                           operator_to_json, parity_class, to_fraction)
from .integrability import (Refutation, Verdict, Witness, is_hereditary,
                            is_integrable_diffop, is_integrable_pair,
                            is_integrable_wnl, lie_defect)
from .hierarchy import (CommutationReport, DensityRecord, Hierarchy,
                        conserved_densities, seeds)
from .grammar import format_poly, format_ratfun, parse_function
from . import errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
