"""Exact windowed analysis of delta-derivations on graded Lie algebras.

The package represents a Lie algebra by a finite list of bracket rules on
index-carrying basis kinds, assembles the delta-derivation constraints for
one homogeneous degree at a time over a finite index window, and solves
them exactly over the rationals.  A companion oracle re-derives the same
solution spaces from hand-coded scalar recurrences, and a product-table
layer classifies commutative multiplications compatible with the bracket.
"""

from .catalog import (CatalogEntry, CatalogKeyError, PresentationFormatError,
                      PresentationValidationError, entry, get, keys, load,
                      save)
from .core import (AffinePoly, AlgebraPresentation, BasisElement, BasisKind,
                   BracketRule, BracketTerm, CentralTerm, CubicPoly, Element,
                   GradingDegree, PresentationError, ValidationReport, affine,
                   bracket, format_rational, parse_rational,
                   validate_presentation)
from .linalg import (LinalgError, SparseMatrix, VectorBasis, nullspace,
                     project_basis, rref)
from .poisson import (AxiomReport, ProductError, ProductTable,
                      TPClassification, TP_NONTRIVIAL_POSSIBLE, TP_TRIVIAL,
                      check_axioms, classify_products)
from .recurrences import (LemmaCheck, LemmaCheckReport, Recurrence,
                          RECURRENCES, SECTOR_SYSTEMS,
                          check_lemma_conclusions, recurrence_kernel,
                          solve_case)
from .solver import (AmbiguousSectorError, HomogeneousSolveProblem,
                     ScanResult, SolveReport, SolverError, UnknownLayout,
                     VERDICT_NOT_SCALAR_ONLY, VERDICT_SCALAR_ONLY,
                     WindowTooSmallError, assemble, classify_interior,
                     partner_kind, required_window, scan, solve_degree,
                     unknown_layout)

__version__ = "0.1.0"

__all__ = [
    "AffinePoly", "AlgebraPresentation", "AmbiguousSectorError",
    "AxiomReport", "BasisElement", "BasisKind", "BracketRule", "BracketTerm",
    "CatalogEntry", "CatalogKeyError", "CentralTerm", "CubicPoly", "Element",
    "GradingDegree", "HomogeneousSolveProblem", "LemmaCheck",
    "LemmaCheckReport", "LinalgError", "PresentationError",
    "PresentationFormatError", "PresentationValidationError", "ProductError",
    "ProductTable", "RECURRENCES", "Recurrence", "ScanResult",
    "SECTOR_SYSTEMS", "SolveReport", "SolverError", "SparseMatrix",
    "TPClassification", "TP_NONTRIVIAL_POSSIBLE", "TP_TRIVIAL",
    "UnknownLayout", "ValidationReport", "VectorBasis",
    "VERDICT_NOT_SCALAR_ONLY", "VERDICT_SCALAR_ONLY", "WindowTooSmallError",
    "affine", "assemble", "bracket", "check_axioms",
    "check_lemma_conclusions", "classify_interior", "classify_products",
    "entry", "format_rational", "get", "keys", "load", "nullspace",
    "parse_rational", "partner_kind", "project_basis", "recurrence_kernel",
    "required_window", "rref", "save", "scan", "solve_case", "solve_degree",
    "unknown_layout", "validate_presentation",
]
