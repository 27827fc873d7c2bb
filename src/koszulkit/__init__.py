"""Exact computer algebra for Koszul homology of quotient rings.

The package computes the Koszul homology algebra of R = k[x1..xn]/I
with exact field arithmetic, decides multiplicative-structure
conditions on it, builds minimal free resolutions with graded Betti
numbers, and evaluates the rational Poincare series formulas those
structures certify.
"""

from .errors import (BudgetError, InputError, KoszulkitError, NotACycleError,
                     NotArtinianError, ParseError, PreconditionError)
from .fields import QQ, PrimeField
from .poly import Monomial, MonomialOrder, Polynomial
from .quotient import QuotientRing, truncated_ring
from .ringdef import (RingDefinition, format_koszul_element, format_polynomial,
                      format_ring_definition, parse_koszul_element,
                      parse_polynomial, parse_ring_definition)
from .koszul import (HomologyAlgebra, KoszulElement, homology_algebra,
                     homology_h_polynomial)
from .series import (RationalFunctionZ, expand, golod_formula_series,
                     golod_quotient_series, rf_equal, stretched_series)
from .tables import BettiTable, emit_betti_table
from .resolutions import (ModulePresentation, ResolutionData, TorMapReport,
                          betti_numbers_k, betti_table_R_over_Q,
                          minimal_resolution, tor_map_vanishes)
from .conditions import (ConditionReport, CycleSet, PieceResult, StretchedSpec,
                         build_stretched_ring, check_nonlinear_generated_by,
                         check_P_graded, check_P_local, check_trivial_products,
                         check_Z_graded, lofwall_golod_test, stretched_F_cycle)

__version__ = "0.1.0"
