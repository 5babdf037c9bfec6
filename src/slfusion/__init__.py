"""Exact computational toolkit for sl2 fusion-product modules.

Everything is computed on integers, with rationals only at the command line
and no floating point anywhere: graded quotients of polynomial rings, their
distinguished submodules, a dual realization by constrained symmetric
polynomials, polynomial vector fields on the big cell, Laurent transition
matrices and their splitting types, and the section-dimension recursion for
the associated line bundles.
"""

from slfusion.linalg import IntegrityError
from slfusion.modules import FusionModule, GradedCharacter, fusion_module

__all__ = ["FusionModule", "GradedCharacter", "IntegrityError", "fusion_module"]

__version__ = "0.1.0"
