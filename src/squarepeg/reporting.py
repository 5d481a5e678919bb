"""Serialization of solve results: JSON report, vertex CSV, and SVG plots."""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from .config import TWO_PI
from .curve import Curve
from .solver import SolveReport, SolverOptions

_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628")


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
                "theta": [float(t) for t in sol.theta],
                "points": [[float(x) for x in p] for p in sol.config.points],
                "residual": float(sol.residual_norm),
                "jac_det": float(sol.jac_det),
                "transverse": bool(sol.transverse),
                "min_separation": float(sol.min_separation),
            }
        )
    return {
        "curve_hash": curve_hash(curve),
        "options": opts.to_dict(),
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


def write_svg(path: str, curve: Curve, report: SolveReport, samples: int = 1024) -> None:
    """Plot of the curve (one closed polyline) plus one polygon per class.

    Only defined for planar curves.  The y axis is negated on emission to
    match SVG's downward-pointing convention.
    """
    if curve.dim != 2:
        raise ValueError("SVG output requires a planar curve")
    theta = TWO_PI * np.arange(samples) / samples
    pts = curve.eval(theta)
    quads = [sol.config.points for sol in report.classes]
    everything = np.vstack([pts] + quads) if quads else pts
    x_lo, y_lo = everything.min(axis=0)
    x_hi, y_hi = everything.max(axis=0)
    margin = 0.05 * max(x_hi - x_lo, y_hi - y_lo)
    x_lo -= margin
    x_hi += margin
    y_lo -= margin
    y_hi += margin

    def fmt(points) -> str:
        return " ".join(f"{p[0]:.6f},{-p[1]:.6f}" for p in points)

    curve_pts = np.vstack([pts, pts[:1]])  # repeat first point to close
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x_lo:.6f} {-y_hi:.6f} {x_hi - x_lo:.6f} {y_hi - y_lo:.6f}">',
        f'<polyline points="{fmt(curve_pts)}" fill="none" stroke="#333333" '
        f'stroke-width="{0.004 * (x_hi - x_lo):.6f}"/>',
    ]
    for ci, quad in enumerate(quads):
        color = _PALETTE[ci % len(_PALETTE)]
        lines.append(
            f'<polygon points="{fmt(quad)}" fill="none" stroke="{color}" '
            f'stroke-width="{0.004 * (x_hi - x_lo):.6f}"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
