"""Finite strict 2-categories and their homotopy-level combinatorics."""

from .core import (TwoCategory, TwoFunctor, TwoNaturalTransformation,
                   OplaxTransformation, TwoDiagram, DiagramMorphism,
                   ValidationReport, TwoCatError, validate, check_cell_map,
                   opposite, product, coproduct, hom_category, terminal,
                   discrete, validate_diagram, validate_diagram_morphism,
                   constant_diagram, identity_functor, compose_functors,
                   COVARIANT, CONTRAVARIANT)
from .builders import walking_arrow, walking_two_cell, pt
from .simplicial import (TruncatedSimplicialSet, TruncatedMultisimplicialSet,
                         SimplicialMap, check_simplicial_identities, check_simplicial_map,
                         diag, tri_diag, wbar, aw_map, verify_iso, transpose)
from .nerves import (nerve_category, double_nerve, wbar_double_nerve,
                     nerve_simplicial_twocat, repackage_staircase, diag_nn,
                     diag_nn_map, tri_diag_nn)
from .grothendieck import (grothendieck, grothendieck_morphism, fibre_embedding,
                           base_change, pullback_diagram, projection_functor)
from .hocolim import (SimplicialTwoCategory, hocolim, hocolim_map, build_E,
                      build_E_pull, hocolim_wbar_comparison,
                      grothendieck_wbar_comparison,
                      check_simplicial_two_category, reversal_bridge_report)
from .comma import (OVER, UNDER, comma, comma_projection, fibre_diagram,
                    projections, representable_diagram, retraction_R, section_jz_iz)
from .homology import (ChainComplex, HomologyResult, normalized_chain_complex,
                       homology, invariant_factors, is_homology_iso_upto,
                       smith_normal_form)

__all__ = [n for n in dir() if not n.startswith("_")]
