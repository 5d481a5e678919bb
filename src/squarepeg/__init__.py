"""Inscribed square-like quadrilaterals on smooth closed curves.

Find, certify, count, and track the 4-point configurations on a closed
Fourier curve in R^k whose sides are all equal and whose diagonals are equal:
squares when planar.  Solutions are certified by a reduced 4x4 Jacobian,
counted up to cyclic relabeling, and carry an odd/even parity verdict.
"""

from . import errors
from .config import (
    Config4,
    Stratum,
    block_cycle_orientation_sign,
    cyclic_relabel,
    direction,
    ordered_component_check,
    ratio,
    s_ratio,
    strata_proximity,
)
from .curve import (
    Curve,
    curve_from_json_dict,
    make_ellipse,
    perturb,
    regularity_and_embedding_check,
)
from .solver import (
    SolverOptions,
    Solution,
    SolveReport,
    canonical_theta,
    class_distance,
    find_all,
    jacobian,
    newton_refine,
    quotient_dedup,
    residual,
    seed_grid,
)

#: public names of the submodules imported on first access (PEP 562), so that
#: ``squarepeg find`` does not compile and run code it never calls
_LAZY = {
    "continuation": ("ContinuationTrace", "TrackEvent", "interpolate", "track"),
    "slq": ("QuadMeasurements", "Variation4", "f_hat", "f_map", "g_directional_derivative",
            "g_map", "make_bent_rhombus", "measurements"),
    "verify": ("EquivalenceReport", "ellipse_basis", "ellipse_dg_matrix", "ellipse_square",
               "ellipse_square_angles", "equivalence_harness", "mu_pushforward_dg_matrix",
               "mu_pushforward_nonplanar_dg_matrix", "nonplanar_basis", "nonplanar_dg_matrix"),
}  # fmt: skip


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")  # the import binds it here too
    for module, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(__getattr__(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # what the namespace holds once every submodule is imported
    names = globals().keys() - {"_LAZY", "__getattr__", "__dir__"}
    return sorted(names.union(_LAZY, *_LAZY.values()))


__version__ = "0.1.0"

__all__ = [
    "Config4",
    "ContinuationTrace",
    "Curve",
    "EquivalenceReport",
    "QuadMeasurements",
    "Solution",
    "SolveReport",
    "SolverOptions",
    "Stratum",
    "TrackEvent",
    "Variation4",
    "block_cycle_orientation_sign",
    "canonical_theta",
    "class_distance",
    "curve_from_json_dict",
    "cyclic_relabel",
    "direction",
    "ellipse_basis",
    "ellipse_dg_matrix",
    "ellipse_square",
    "ellipse_square_angles",
    "equivalence_harness",
    "errors",
    "f_hat",
    "f_map",
    "find_all",
    "g_directional_derivative",
    "g_map",
    "interpolate",
    "jacobian",
    "make_bent_rhombus",
    "make_ellipse",
    "measurements",
    "mu_pushforward_dg_matrix",
    "mu_pushforward_nonplanar_dg_matrix",
    "newton_refine",
    "nonplanar_basis",
    "nonplanar_dg_matrix",
    "ordered_component_check",
    "perturb",
    "quotient_dedup",
    "ratio",
    "regularity_and_embedding_check",
    "residual",
    "s_ratio",
    "seed_grid",
    "strata_proximity",
    "track",
]
