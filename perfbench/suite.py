"""Inputs and answer checks of the squarepeg benchmark.

Importing this module imports ``squarepeg``; callers that time the package
import start their clock before importing it.  The checks work on plain data
(angle tuples, parity strings, flag lists) so that a ``find_all`` report and
a ``squarepeg find`` JSON file go through the same code.  They do not use the
package's own distance or matching helpers, so a defect there cannot hide a
wrong answer.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import squarepeg as sp

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DATA = HERE / "data"

TWO_PI = 2.0 * math.pi

#: a found class matches a stored one when their cyclic sup distance is below this
CLASS_TOL = 1e-4

#: a Birth matches the stored one when its t_lo is this close
T_LO_TOL = 1e-4

#: ellipse(2, 1) closed form: every vertex has |x| = |y| = 2/sqrt(5), det = 30
ELLIPSE_VERTEX = 2.0 / math.sqrt(5.0)
ELLIPSE_DET = 8.0 * (2.0**4 - 1.0**4) / (2.0**2 * 1.0**2)

REFERENCE_NAMES = ("ellipse", "circle", "three-lobe", "perturbed7", "trefoil", "wiggly8")

#: seeded perturbed ellipses added to the find-suite workload
SEEDED_FIND_CURVES = 2

#: steps of the seeded track path; the fixed path uses the library default of 64
SEEDED_TRACK_STEPS = 8
FIXED_TRACK_STEPS = 64
FIXED_TRACK = "ellipse->three-lobe"

#: curve files of the cli-cold workload, solved one child each
CLI_CURVES = ("ellipse", "three-lobe")


# ---------------------------------------------------------------------------
# inputs


def reference_curves() -> dict:
    """The six reference curves named in ROADMAP.md, in a fixed order."""
    ellipse = sp.make_ellipse(2, 1)
    return {
        "ellipse": ellipse,
        "circle": sp.make_ellipse(1, 1),
        "three-lobe": three_lobe(),
        "perturbed7": sp.perturb(ellipse, 0.05, 5, seed=7),
        "trefoil": sp.Curve(
            [0, 0, 0],
            [[0, 0, 0], [1, -2, 0], [0, 0, 0]],
            [[1, 2, 0], [0, 0, 0], [0, 0, -1]],
        ),
        "wiggly8": sp.perturb(ellipse, 0.12, 8, seed=3),
    }


def three_lobe():
    """Polar radius 1 + 0.3 cos 3t, expanded; inscribes three transverse squares."""
    return sp.Curve(
        [0, 0],
        [[1.0, 0.15, 0.0, 0.15], [0.0, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0, 0.0], [1.0, -0.15, 0.0, 0.15]],
    )


def perturb_seeds(seed: int, count: int) -> list:
    """Seeds for ``perturb`` drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def seeded_curve(perturb_seed: int):
    return sp.perturb(sp.make_ellipse(2, 1), 0.05, 5, seed=perturb_seed)


def find_suite_curves(seed: int) -> dict:
    """Reference curves plus ``SEEDED_FIND_CURVES`` perturbed ellipses."""
    curves = reference_curves()
    for s in perturb_seeds(seed, SEEDED_FIND_CURVES):
        curves[f"seeded-{s}"] = seeded_curve(s)
    return curves


def track_paths(seed: int) -> list:
    """(label, start, end, steps) for each ``track`` call of the track workload."""
    ellipse = sp.make_ellipse(2, 1)
    (s,) = perturb_seeds(seed, 1)
    return [
        (FIXED_TRACK, ellipse, three_lobe(), FIXED_TRACK_STEPS),
        (f"ellipse->seeded-{s}", ellipse, seeded_curve(s), SEEDED_TRACK_STEPS),
    ]


def cli_curve_files() -> dict:
    return {name: DATA / f"{name}.json" for name in CLI_CURVES}


def load_cli_curves() -> dict:
    """What a ``squarepeg find`` child loads: the curve JSON files."""
    curves = {}
    for name, path in cli_curve_files().items():
        with open(path) as fh:
            curves[name] = sp.curve_from_json_dict(json.load(fh))
    return curves


# ---------------------------------------------------------------------------
# references


def load_references(path: Path = REFERENCES) -> dict:
    """Stored answers; an unreadable file gives {} so every check fails, not aborts."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def answer_from_report(report) -> dict:
    return {
        "thetas": [[float(x) for x in s.theta] for s in report.classes],
        "parity": report.parity,
        "flags": list(report.degeneracy_flags),
        "transverse": [bool(s.transverse) for s in report.classes],
        "jac_dets": [float(s.jac_det) for s in report.classes],
        "points": [[[float(x) for x in p] for p in s.config.points] for s in report.classes],
    }


def answer_from_json(payload: dict) -> dict:
    classes = payload["classes"]
    return {
        "thetas": [c["theta"] for c in classes],
        "parity": payload["parity"],
        "flags": list(payload["flags"]),
        "transverse": [bool(c["transverse"]) for c in classes],
        "jac_dets": [float(c["jac_det"]) for c in classes],
        "points": [c["points"] for c in classes],
    }


def class_distance(a, b) -> float:
    """Sup over the four angles of the circular distance, minimised over cyclic shifts."""
    best = math.inf
    for s in range(4):
        worst = 0.0
        for i in range(4):
            d = abs(float(a[i]) - float(b[(i + s) % 4])) % TWO_PI
            worst = max(worst, min(d, TWO_PI - d))
        best = min(best, worst)
    return best


def _match_classes(found, stored) -> str | None:
    if len(found) != len(stored):
        return f"{len(found)} classes, reference has {len(stored)}"
    free = list(found)
    for ref in stored:
        dists = [class_distance(f, ref) for f in free]
        j = min(range(len(free)), key=dists.__getitem__)
        if dists[j] > CLASS_TOL:
            return f"no class within {CLASS_TOL:g} of reference {ref} (nearest {dists[j]:.2e})"
        free.pop(j)
    return None


def check_reference(name: str, answer: dict, refs: dict) -> str | None:
    """None when ``answer`` agrees with the stored reference of curve ``name``.

    A reference that is missing or malformed makes the check fail with the
    reason, rather than raise.
    """
    try:
        ref = refs["curves"][name]
        if "classes" not in ref:
            # count depends on the grid (a continuum); only the verdict is stored
            if answer["parity"] != ref["parity"]:
                return f"parity {answer['parity']}, reference {ref['parity']}"
            missing = [f for f in ref["flags"] if f not in answer["flags"]]
            return f"flags {answer['flags']} lack {missing}" if missing else None
        why = _match_classes(answer["thetas"], ref["classes"])
        if why is None and answer["parity"] != ref["parity"]:
            why = f"parity {answer['parity']}, reference {ref['parity']}"
        if why is None and "closed_form" in ref:
            why = _check_ellipse_closed_form(answer, ref["closed_form"])
        return why
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"reference unusable: {type(exc).__name__}: {exc}"


def _check_ellipse_closed_form(answer: dict, form: dict) -> str | None:
    vertex = float(form["vertex_abs"])
    det = float(form["jac_det"])
    for points, jac_det in zip(answer["points"], answer["jac_dets"]):
        err = max(abs(abs(float(x)) - vertex) for p in points for x in p)
        if err > 1e-9:
            return f"vertex off the closed form by {err:.2e}"
        if abs(jac_det - det) > 1e-8 * abs(det):
            return f"jac_det {jac_det!r}, closed form {det!r}"
    return None


def check_seeded_planar(answer: dict) -> tuple:
    """(reason or None, checked): an even count with every class transverse is wrong.

    A curve with a non-transverse class has no parity rule and is not checked.
    """
    if not all(answer["transverse"]):
        return None, False
    n = len(answer["thetas"])
    if n % 2 == 0 or answer["parity"] != "odd":
        return f"{n} transverse classes with parity {answer['parity']}", True
    return None, True


def check_track(trace, refs: dict | None = None, label: str = "") -> str | None:
    """Criterion-9 rules, plus the stored event of path ``label`` in ``refs``.

    Parity odd at every step; counts change only by 2; every event is a Birth
    or Death of 2 classes.  With ``refs``: the counts go first -> last with
    exactly one Birth whose t_lo is within ``T_LO_TOL`` of the stored one.
    """
    counts = trace.class_counts
    bad = [p for p in trace.parity_per_step if p != "odd"]
    if bad:
        return f"parity {sorted(set(bad))} at {len(bad)} steps"
    jumps = [b - a for a, b in zip(counts, counts[1:]) if abs(b - a) not in (0, 2)]
    if jumps:
        return f"class count jumps by {jumps}"
    for ev in trace.events:
        if ev.kind not in ("Birth", "Death") or len(ev.classes) != 2:
            return f"event {ev.kind} of {len(ev.classes)} classes at t={ev.t_lo:.5f}"
    if refs is None:
        return None
    try:
        reference = refs["track"][label]
        first, last = reference["counts"]
        if (counts[0], counts[-1]) != (first, last):
            return f"counts {counts[0]} -> {counts[-1]}, reference {first} -> {last}"
        kinds = [ev.kind for ev in trace.events]
        if kinds != ["Birth"]:
            return f"events {kinds}, reference one Birth"
        t_lo = trace.events[0].t_lo
        if abs(t_lo - float(reference["birth_t_lo"])) > T_LO_TOL:
            return f"Birth at t_lo={t_lo!r}, reference {reference['birth_t_lo']!r}"
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"reference unusable: {type(exc).__name__}: {exc}"
    return None


def is_known_defect(name: str, answer: dict, refs: dict) -> bool:
    """True when a wrong answer is exactly the defect recorded in the references.

    A known defect still counts as a failed operation; it only keeps the run's
    ``correct`` verdict, so that a later change that alters the wrong answer
    shows as a new failure.
    """
    try:
        known = refs["known_defects"][name]
        return len(answer["thetas"]) == known["classes"] and answer["parity"] == known["parity"]
    except (KeyError, TypeError):
        return False
