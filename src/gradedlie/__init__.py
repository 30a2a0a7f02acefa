"""Exact windowed analysis of delta-derivations on graded Lie algebras.

The package represents a Lie algebra by a finite list of bracket rules on
index-carrying basis kinds, assembles the delta-derivation constraints for
one homogeneous degree at a time over a finite index window, and solves
them exactly over the rationals.  A companion oracle re-derives the same
solution spaces from hand-coded scalar recurrences, and a product-table
layer classifies commutative multiplications compatible with the bracket.
The package re-exports nothing: import its submodules, e.g.
`from gradedlie import catalog, solver`.
"""

__version__ = "0.1.0"
