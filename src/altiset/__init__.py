"""Finite-relation significance toolkit.

Non-dominated ("significant") subsets of finite universes under arbitrary
binary relations and systems of key-induced orders, with layer
decompositions, a planar dependence-direction coefficient, collective
subset comparison, geometric skylines and a measure-driven valuation
evolution.
"""

import importlib

__version__ = "0.1.0"

# each public name under its home module, which is imported on first use (PEP 562)
_EXPORTS = {
    "collective": ("SubsetFamily", "ValuedGroundSet", "collective_altiset", "pairwise_elimination",
                   "threshold_profile"),
    "dependence": ("PointSet2D", "decreasingness_index", "epsilon", "increasing_decomposition",
                   "increasingness_index"),
    "domains": ("GridMeasure", "ValuationTrace", "evolve", "inverse_altiset_measure", "voronoi_mu"),
    "errors": ("AltisetError",),
    "geoalt": ("SummitField", "geo_altiset_oracle", "record_events", "skyline_circular",
               "skyline_contour", "skyline_recursive"),
    "layers": ("LayerDecomposition", "chain_coloring", "eval_chain", "upper_layers"),
    "orders": ("KeyedOrder", "OrderSystem", "altiset_of_system", "decompose_altiset", "quotient"),
    "relation": ("FiniteRelation", "Universe", "union"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
