"""The parity census: ``find_all`` on every kept curve of the pinned recipes.

    python3 scripts/parity_census.py

The recipes are ``tests/census.py``'s: random space curves, a planar
control and random curves in R^4, over seeds 1000-1399.  The theorem says
that a generic embedded curve has an odd number of classes, so every curve
reported here is a miss or a degeneracy.  It prints one line per curve
whose parity is not odd or that raises a degeneracy flag, then one summary
line per recipe.  The output is deterministic.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import census  # noqa: E402
from squarepeg import find_all  # noqa: E402


def main() -> None:
    recipes = (
        ("space", census.space_curve),
        ("planar", census.planar_curve),
        ("space4", census.space4_curve),
    )
    for name, recipe in recipes:
        counts = Counter()
        for seed, curve in census.kept(recipe):
            report = find_all(curve)
            counts["kept"] += 1
            counts[report.parity] += 1
            counts["flagged"] += bool(report.degeneracy_flags)
            if report.parity != "odd" or report.degeneracy_flags:
                flags = ", ".join(report.degeneracy_flags) or "no flag"
                print(f"{name} seed {seed}: {len(report.classes)} classes, "
                      f"{report.parity}, {flags}", flush=True)  # fmt: skip
        summary = ", ".join(f"{counts[k]} {k}" for k in ("kept", "odd", "even", "flagged"))
        print(f"{name}: {summary}", flush=True)


if __name__ == "__main__":
    main()
