"""Critical sets of arrangement master functions and their phase-space geometry.

The package is organised around one object, :class:`ArrangementSpec`: a
generic family of n hyperplanes in C^k whose constant terms z translate the
family.  From it everything else is derived:

* ``relations`` — the Laurent-polynomial generators cutting out the closure
  of the conormal-type variety swept by critical points, plus the exact
  Poisson-bracket suite showing the generators are in involution;
* ``quotient`` — the finite-dimensional algebra of functions on the critical
  set at a fixed translation, its multiplication operators, and the special
  vector map onto the singular part of a symmetric tensor power;
* ``spectrum`` — two independent routes to the critical points (simultaneous
  diagonalisation, and a homotopy from the real chambers) and the
  Hessian/Jacobian formulas that tie them together;
* ``lagrangian`` — rational charts on the variety, its generating function,
  transition and projection Jacobians, and the commuting flows.
"""

import importlib

# Each exported name's home module, imported when the name is first used (PEP 562):
# a process with no bytecode cache compiles every module it loads.
_HOMES = {
    "arrangement": ("ArrangementSpec", "k_subsets", "parse_rat", "random_generic",
                    "rat_str", "sample_z"),
    "errors": ("CritvarError", "DomainError", "GenerationError", "NumericError",
               "UsageError"),
    "lagrangian": ("chart_complete", "chart_coords", "chart_vector", "completion_jacobian",
                   "flow_f", "flow_g", "generating_fd_residual", "projection_jacobian",
                   "projection_jacobian_fd", "sample_chart_point", "scale_action",
                   "transition_expected", "transition_jacobian_fd"),
    "laurent": ("LaurentPoly", "poisson"),
    "quotient": ("QuotientAlgebra", "eliminate_first_kind"),
    "relations": ("RelationSet", "build_relations", "euler_relation", "first_kind",
                  "g_comb", "g_single", "involution_suite", "second_kind"),
    "spectrum": ("CriticalPoint", "SpectrumResult", "hessian_direct", "hessian_formula",
                 "jacobian_formula", "joint_spectrum", "match_point_sets",
                 "newton_multistart", "poly_roots"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

