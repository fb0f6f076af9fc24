"""Exact homological computations for triples (A, B, eps) over Q.

A triple is a finite-dimensional unital algebra A, a commutative unital
algebra B, and a unital homomorphism eps from B into the center of A.
The package builds the associated chain complex with its extra tensor
slots, computes its homology and the cyclic-coinvariant variant in exact
rational arithmetic, presents the degree-one invariants as a module of
differential symbols and as a multiplication-kernel quotient, and
mechanically verifies the isomorphisms relating all of these.
"""

__version__ = "0.1.0"

from .algebra import (AlgMorphism, FinAlgebra, field_algebra, is_central,
                      matrix_algebra, multiply, split_product_algebra,
                      tensor_algebra, truncated_polynomial_algebra,
                      validate_algebra)
from .chains import (ChainSpace, boundary, chain_dim, chain_space,
                     cyclic_quotient, pair_list)
from .differentials import (ambient_symbol, coefficient_action,
                            d_one_A_subspace, d_symbol, omega, symbol_index)
from .homology import (DEFAULT_MAX_DEGREE, DegreeCapError, HomologyResult,
                       hc, hh)
from .kernel import (KernelData, embed_tensor, j_generator, kernel_data,
                     multiplication_matrix, symmetry_check, tensor_index)
from .linalg import (ClassMapQuotient, QuotientStructure, SparseMat,
                     Subspace, colspace, induced_on_quotients, nullspace,
                     solve)
from .specfile import (ParsedTriple, SpecParseError, export_triple,
                       parse_triple_file, parse_triple_source, triple_hash)
from .triples import (CommutativeTripleRequiredError, Triple,
                      TripleAxiomError, catalog, catalog_names, make_triple)
from .verify import (TheoremReport, connes_b_chain, forward_matrix,
                     transfer_matrices, verify_connes_segment, verify_cor_hc1,
                     verify_main, verify_prop_hh1_omega, verify_prop_omega_J,
                     verify_reduction_Bk)

__all__ = [name for name in dir() if not name.startswith("_")]
