"""Finite-field graph constructions and certified Lovász theta bounds,
built for desk-scale verification.

Every layer is registered in ``sys.modules`` when the package is imported,
but lazily: a submodule's body runs on its first attribute access, so a
command loads only the layers it uses.  Registering them all up front keeps
``sys.modules["thetalab.theta"]`` and the others valid lookups for code that
wraps the layers from outside.  The public names are served from their
submodules through the module ``__getattr__``.
"""

import importlib.util
import sys

_EXPORTS = {
    "errors": (
        "ComplexityRefused", "ConvergenceFailure", "DimensionMismatch", "DivisionByZero", "GapNotReached",
        "HandleOrthogonalToVector", "IndexOutOfRange", "LoopRejected", "NoEdges", "NotACliqueCover",
        "NotPrime", "OrderUnavailable", "Overflow", "PreconditionViolated", "RepInvalid", "ThetalabError",
        "UnsupportedPattern",
    ),
    "ffield": (
        "FieldElement", "FieldSpec", "element_of_order", "field_create", "field_from_order", "is_prime",
        "prime_power_split", "subgroup",
    ),
    "graph": (
        "Graph", "LayerColoringReport", "bfs_layers", "chromatic_number_exact", "clique_union", "clique_union_parts",
        "complement", "complete_graph", "contains_clique", "contains_complete_bipartite", "contains_cycle",
        "contains_pattern", "cycle_graph", "empty_graph", "from_edges", "graph_from_json", "graph_to_json",
        "induced_subgraph", "layer_chromatic_check", "max_clique_size", "parse_pattern",
    ),
    "linalg": (
        "Spectrum", "SymMatrix", "adjacency_sym", "eigen_sym", "eigvals_sym", "sym_from_dense",
    ),
    "constructions": (
        "FurediGraph", "SquareIdentityReport", "furedi_graph", "furedi_square_identity", "polarity_graph",
        "polarity_graph_with_loops",
    ),
    "ortho": (
        "MsrChainReport", "OrthoRep", "RepValidation", "SchnirelmannReport", "TracePowerReport",
        "basis_rep_from_clique_cover", "gram", "greedy_clique_cover", "msr_lower_chain_check",
        "msr_upper_certificate", "random_rep", "rep_from_json", "rep_sum_length", "rep_sum_length_aligned",
        "rep_to_json", "schnirelmann_check", "trace_power_certificate", "umbrella_rep", "validate_rep",
    ),
    "theta": (
        "BoundFormulaReport", "L_bounds", "ThetaResult", "bound_formula_check", "theta_lower_from_rep",
        "theta_sdp", "theta_spectral_lower_of_complement", "theta_upper_from_rep", "transitive_identity_check",
    ),
    "experiments": ("EXPERIMENT_NAMES", "ExperimentCheck", "ExperimentReport", "run_experiment", "run_experiments"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def _register_lazily(name: str):
    """Put the submodule in sys.modules; its body runs on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# The cli module is left to the import system: `python -m thetalab.cli` warns
# when the module it runs is already in sys.modules.
for _name in _EXPORTS:
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
