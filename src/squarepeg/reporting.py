"""Serialization of solve results: JSON report, vertex CSV, and SVG plots."""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from .config import TWO_PI
from .curve import Curve
from .solver import SIZE_FLOOR, SolveReport, SolverOptions

_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628")

#: curve samples of the SVG polyline
SVG_SAMPLES = 1024


def curve_hash(curve: Curve) -> str:
    """SHA-256 of the canonical JSON form of the curve coefficients."""
    payload = json.dumps(curve.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def report_to_dict(
    curve: Curve,
    opts: SolverOptions,
    report: SolveReport,
    timings: dict | None = None,
) -> dict:
    classes = []
    for sol in report.classes:
        classes.append(
            {
                "theta": sol.theta.tolist(),
                "points": sol.config.points.tolist(),
                "residual": float(sol.residual_norm),
                "jac_det": float(sol.jac_det),
                "transverse": bool(sol.transverse),
                "min_separation": float(sol.min_separation),
            }
        )
    return {
        "curve_hash": curve_hash(curve),
        "options": opts.to_dict(),
        "size_floor": SIZE_FLOOR,
        "classes": classes,
        "labeled_count": report.labeled_count,
        "parity": report.parity,
        "flags": list(report.degeneracy_flags),
        "timings": dict(timings or {}),
    }


def trace_to_dict(trace) -> dict:
    return {
        "ts": [float(t) for t in trace.ts],
        "class_counts": trace.class_counts,
        "parity_per_step": list(trace.parity_per_step),
        "events": [
            {
                "t_lo": float(e.t_lo),
                "t_hi": float(e.t_hi),
                "kind": e.kind,
                "classes": [[float(x) for x in th] for th in e.classes],
            }
            for e in trace.events
        ],
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_csv(path: str, curve: Curve, report: SolveReport) -> None:
    """Vertex table: one row per (class, vertex) with angle and coordinates."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["class", "vertex", "theta"] + [f"x{i}" for i in range(curve.dim)]
        )
        for ci, sol in enumerate(report.classes):
            for vi in range(4):
                writer.writerow(
                    [ci, vi + 1, repr(float(sol.theta[vi]))]
                    + [repr(float(x)) for x in sol.config.points[vi]]
                )


def write_svg(path: str, curve: Curve, report: SolveReport) -> None:
    """Plot of the curve (one closed polyline) plus one polygon per class.

    Only defined for planar curves.  The y axis is negated on emission to
    match SVG's downward-pointing convention.  Coordinates carry six
    decimals, and more for a plot narrower than 1, so a small curve keeps
    distinct points.
    """
    if curve.dim != 2:
        raise ValueError("SVG output requires a planar curve")
    theta = TWO_PI * np.arange(SVG_SAMPLES) / SVG_SAMPLES
    pts = curve.eval(theta)
    quads = [sol.config.points for sol in report.classes]
    everything = np.vstack([pts] + quads) if quads else pts
    lo, hi = everything.min(axis=0), everything.max(axis=0)
    margin = 0.05 * (hi - lo).max()
    (x_lo, y_lo), (x_hi, y_hi) = lo - margin, hi + margin
    # six decimals, plus one per decade that the plot's width falls below 1
    # (the diameter floor of ``Curve`` keeps the width positive)
    digits = max(6, 6 - int(np.floor(np.log10(max(x_hi - x_lo, y_hi - y_lo)))))

    def num(x) -> str:
        return f"{x:.{digits}f}"

    def fmt(points) -> str:
        return " ".join(f"{num(p[0])},{num(-p[1])}" for p in points)

    curve_pts = np.vstack([pts, pts[:1]])  # repeat first point to close
    width = f'stroke-width="{num(0.004 * (x_hi - x_lo))}"'
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{num(x_lo)} {num(-y_hi)} {num(x_hi - x_lo)} {num(y_hi - y_lo)}">',
        f'<polyline points="{fmt(curve_pts)}" fill="none" stroke="#333333" {width}/>',
    ]
    for ci, quad in enumerate(quads):
        color = _PALETTE[ci % len(_PALETTE)]
        lines.append(f'<polygon points="{fmt(quad)}" fill="none" stroke="{color}" {width}/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
