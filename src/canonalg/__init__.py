"""Exact computer algebra for canonical Poisson algebras and Weyl algebras.

Everything is computed over exact coefficient rings (Z, Q, prime fields):
sparse polynomial arithmetic, the canonical Poisson bracket and symplectic
tests, normal-ordered Weyl-algebra arithmetic, the characteristic-p center
reduction, certified degree-bounded inverse search, and desk-scale
conjecture-instance checks built from those pieces.
"""

__version__ = "0.1.0"

from .rings import GF, QQ, ZZ, NonUnitError, Ring
from .poly import Poly, PolyEndo, PolyMatrix
from .poisson import (
    PoissonContext,
    bracket_matrix,
    check_symplectic,
    generate_symplectomorphism,
    is_symplectic,
    poisson_bracket,
)
from .weyl import (
    RelationError,
    WeylAlgebra,
    WeylElement,
    WeylEndo,
    center_slice_check,
    commutator,
    generate_central_perturbation,
    generate_weyl_automorphism,
    inverse_degree_bound,
    inverse_search,
    is_central,
    verify_endo_relations,
)
from .reduction import (
    CenterEndo,
    check_center_symplectic,
    induced_center_endo,
)
from .conjectures import (
    InstanceVerdict,
    chain_probe,
    check_instance,
    counterexample_suite,
    extension_degree_estimate,
    gabber_degree_bound,
    inverse_search_poly,
    kraus_check,
)
from .parsing import EndoFile, ParseError, parse_endo_file, print_endo_file

__all__ = [name for name in dir() if not name.startswith("_")]
