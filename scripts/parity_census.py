"""The parity census: ``find_all`` on every kept curve of the pinned recipes.

    python3 scripts/parity_census.py

The recipes are ``tests/census.py``'s: random space curves, a planar
control and random curves in R^4, over seeds 1000-1399, then the curves
with a k-fold symmetry, planar and in space, for k = 3, 5 and 7 over seeds
0-199.  The theorem says that a generic embedded curve has an odd number of
classes, so every curve reported here is a miss or a degeneracy; on a
symmetric curve, a class set that the symmetry does not map to itself
(``census.closed``) is incomplete whatever its parity.  It prints one line
per curve whose parity is not odd, that raises a degeneracy flag or that is
not closed, then one summary line per recipe, and per k and kind for the
symmetric ones (``sym``).  The output is deterministic.
"""

import functools
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import census  # noqa: E402
from squarepeg import find_all  # noqa: E402


def run(name, curves, k=None) -> None:
    """The census lines of ``curves``; with a symmetry order ``k``, also closure."""
    counts = Counter()
    for seed, curve in curves:
        report = find_all(curve)
        is_closed = k is None or census.closed(report, k)
        counts["kept"] += 1
        counts[report.parity] += 1
        counts["flagged"] += bool(report.degeneracy_flags)
        counts["not closed"] += not is_closed
        if report.parity != "odd" or report.degeneracy_flags or not is_closed:
            flags = ", ".join(report.degeneracy_flags) or "no flag"
            closure = "" if is_closed else ", not closed"
            print(f"{name} seed {seed}: {len(report.classes)} classes, "
                  f"{report.parity}, {flags}{closure}", flush=True)  # fmt: skip
    keys = ("kept", "odd", "even", "flagged") + (("not closed",) if k else ())
    print(f"{name}: {', '.join(f'{counts[key]} {key}' for key in keys)}", flush=True)


def main() -> None:
    recipes = (
        ("space", census.space_curve),
        ("planar", census.planar_curve),
        ("space4", census.space4_curve),
    )
    for name, recipe in recipes:
        run(name, census.kept(recipe))
    for kind, space in (("planar", False), ("space", True)):
        for k in census.SYMMETRY_ORDERS:
            recipe = functools.partial(census.symmetric_curve, k, space=space)
            run(f"sym {kind} k={k}", census.kept(recipe, census.SYMMETRIC_SEEDS), k)


if __name__ == "__main__":
    main()
