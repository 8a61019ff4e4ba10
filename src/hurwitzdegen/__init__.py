"""Finite-group actions on stable curves as combinatorial boundary data.

Encode a group action through its pointed quotient curve plus monodromy and
involution assignments, read the covering curve and the equivariant de Rham
character of nodal covers off its graph of groups, and enumerate the
codimension-1 degenerations of any boundary datum.  The explicit cover, by
coset enumeration, is built only for its DOT export and for the tests, which
keep its deck action and its intermediate quotients as their oracles.
"""

from .boundary import (BoundaryDatum, HurwitzTuple, MarkedComponent, MarkedPoint,
                       Violation, canonical_form, datum_from_jsonable, datum_to_jsonable,
                       datum_warnings, dual_graph_of_groups, equivalent, tuple_from_jsonable,
                       tuple_to_jsonable, validate)
from .cohomology import DevissageReport, class_labels, de_rham_character, render_character_table
from .covers import CoverCurve, build_cover, cover_report, cover_to_dot, rh_genus
from .degen import (Degeneration, collide, collide_pair, dedup, dihedral, dihedral_degenerations,
                    smooth, smooth_dihedral, split, split_degenerations)
from .graphs import GenGraph, GraphAction, gengraph_to_dot
from .groups import (ClassRecord, CosetTable, PermGroup, Subgroup, compose, induced_character,
                     induced_sign, inner, inverse, inverting_involutions, is_inverting_involution,
                     least_conjugate, left_cosets, perm_from_cycles)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
