"""Inscribed square-like quadrilaterals on smooth closed curves.

Find, certify, count, and track the 4-point configurations on a closed
Fourier curve in R^k whose sides are all equal and whose diagonals are equal:
squares when planar.  Solutions are certified by a reduced 4x4 Jacobian,
counted up to cyclic relabeling, and carry an odd/even parity verdict.
"""

#: each submodule and the public names it holds, imported on first access
#: (PEP 562), so that ``import squarepeg`` runs no submodule and
#: ``squarepeg find`` none that it never calls
_LAZY = {
    "config": ("Config4", "Stratum", "block_cycle_orientation_sign", "cyclic_relabel",
               "direction", "ordered_component_check", "ratio", "s_ratio", "strata_proximity"),
    "continuation": ("ContinuationTrace", "TrackEvent", "interpolate", "track"),
    "curve": ("Curve", "curve_from_json_dict", "make_ellipse", "perturb",
              "regularity_and_embedding_check"),
    "errors": (),
    "slq": ("QuadMeasurements", "Variation4", "f_hat", "f_map", "g_directional_derivative",
            "g_map", "make_bent_rhombus", "measurements"),
    "solver": ("SolverOptions", "Solution", "SolveReport", "canonical_theta", "class_distance",
               "find_all", "jacobian", "newton_refine", "quotient_dedup", "residual",
               "seed_grid"),
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

__all__ = sorted(["errors", *(name for names in _LAZY.values() for name in names)])
