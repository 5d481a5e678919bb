"""Command-line front end.

Subcommands: ``find`` (solve one curve), ``verify-ellipse`` (closed-form
checks), ``equivalence`` (residual-map harness), ``track`` (continuation
between two curves), ``strata-report`` (collision-proximity diagnostics).

Exit codes: 0 success, 1 bad input, 2 degeneracy (withheld parity, failed
equivalence, broken paths).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

from .config import strata_proximity
from .curve import Curve, curve_from_json_dict, regularity_and_embedding_check
from .errors import NonTransversePath, RegularityLost, SquarePegError
from .reporting import (
    curve_hash,
    report_to_dict,
    trace_to_dict,
    write_csv,
    write_json,
    write_svg,
)
from .solver import TRACK_STEPS, SolverOptions, find_all

# ``continuation`` and ``verify`` are imported by the commands that call them,
# so that a cold ``find`` neither compiles nor runs them

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2

#: solver flags: flag, the ``SolverOptions`` field it sets, help
_SOLVER_FLAGS = (
    ("--grid", "grid", "lattice size: curve samples scanned for seeds"),
    ("--tol", "tol_residual", "residual tolerance"),
    ("--dedup-eps", "dedup_radius", "dedup radius"),
    ("--sep-guard", "sep_guard", "min separation / diameter"),
    ("--det-threshold", "det_threshold", "transversality threshold"),
    ("--max-iters", "max_iters", "Newton iterations"),
)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: ``--tar`` or ``--to`` must not pass for ``--target`` or ``--tol``
    parser = argparse.ArgumentParser(
        prog="squarepeg",
        description="Find, certify, count, and track square-like quadrilaterals "
        "inscribed in smooth closed curves.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    find_p = sub.add_parser("find", help="solve one curve and report classes", allow_abbrev=False)
    find_p.add_argument("--curve", required=True, help="curve JSON file")
    _add_solver_flags(find_p)
    _add_output_flags(find_p)
    find_p.add_argument("--svg", help="write an SVG plot here (planar curves)")
    find_p.add_argument("--csv", help="write the vertex CSV here")
    find_p.set_defaults(handler=_cmd_find)

    ve = sub.add_parser("verify-ellipse", help="closed-form ellipse checks", allow_abbrev=False)
    ve.add_argument("--a", type=float, required=True)
    ve.add_argument("--b", type=float, required=True)
    _add_output_flags(ve)
    ve.set_defaults(handler=_cmd_verify_ellipse)

    eq = sub.add_parser("equivalence", help="g/f residual equivalence harness", allow_abbrev=False)
    eq.add_argument("--trials", type=int, default=1000)
    eq.add_argument("--seed", type=int, default=1)
    _add_output_flags(eq)
    eq.set_defaults(handler=_cmd_equivalence)

    tr = sub.add_parser("track", help="continuation between two curves", allow_abbrev=False)
    tr.add_argument("--curve", required=True, help="start curve JSON file")
    tr.add_argument("--target", required=True, help="end curve JSON file")
    tr.add_argument("--steps", type=int, default=TRACK_STEPS)
    _add_solver_flags(tr)
    _add_output_flags(tr)
    tr.set_defaults(handler=_cmd_track)

    st = sub.add_parser("strata-report", help="collision-proximity diagnostics", allow_abbrev=False)
    st.add_argument("--curve", required=True, help="curve JSON file")
    _add_solver_flags(st)
    _add_output_flags(st)
    st.set_defaults(handler=_cmd_strata)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means degenerate results here
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.handler(args)
    except (RegularityLost, NonTransversePath) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError, SquarePegError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def cli() -> None:
    code = main()
    # Interpreter shutdown runs full collections over every tracked object,
    # about 22,000 left by the numpy import: a median 25-42 ms of a cold
    # ``find`` on a 2-core box, 7-10 ms once they are frozen.  Shutdown still
    # runs atexit handlers, flushes stdio and finalizes modules.  Only here:
    # ``main`` also runs in long-lived processes, where frozen cyclic garbage
    # would never be freed.
    gc.freeze()
    sys.exit(code)


# ---------------------------------------------------------------------------
# commands


def _cmd_find(args) -> int:
    curve = _load_curve(args.curve)
    opts = _solver_options(args)
    t0 = time.perf_counter()
    report = find_all(curve, opts)
    timings = {"solve_s": time.perf_counter() - t0}
    payload = report_to_dict(curve, opts, report, timings)
    _emit_json(args, payload)
    if args.csv:
        write_csv(args.csv, curve, report)
    if args.svg:
        if curve.dim == 2:
            write_svg(args.svg, curve, report)
        else:
            print("svg skipped: curve is not planar", file=sys.stderr)
    return EXIT_DEGENERATE if report.parity == "withheld" else EXIT_OK


def _cmd_verify_ellipse(args) -> int:
    from .verify import ellipse_dg_matrix, ellipse_square, mu_pushforward_dg_matrix

    a, b = args.a, args.b
    square = ellipse_square(a, b)
    mat = ellipse_dg_matrix(a, b)
    pushed = mu_pushforward_dg_matrix(a, b)
    payload = {
        "a": a,
        "b": b,
        "det": float(np.linalg.det(mat)),
        "det_pushforward": float(np.linalg.det(pushed)),
        # 8 (a^4 - b^4) / (a^2 b^2), factored: a^4 - b^4 cancels as a/b nears 1
        "det_formula": 8 * (a - b) * (a + b) * (a * a + b * b) / (a * a * b * b),
        "side_length": float(2 * a * b / np.hypot(a, b)),
        "vertices": [[float(x) for x in square.point(i)] for i in range(1, 5)],
        "matrix": mat.tolist(),
        "pushforward_matrix": pushed.tolist(),
    }
    print(f"ellipse a={a} b={b}")
    print(f"  derivative matrix determinant: {payload['det']:.12g}")
    print(f"  pushforward determinant:       {payload['det_pushforward']:.12g}")
    print(f"  closed-form 8(a^4-b^4)/(a^2 b^2): {payload['det_formula']:.12g}")
    print(f"  square side length: {payload['side_length']:.12g}")
    print("  vertices:")
    for i, (x, y) in enumerate(payload["vertices"], start=1):
        print(f"    p{i} = ({x: .12g}, {y: .12g})")
    if args.json:
        write_json(args.json, payload)
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    from .verify import equivalence_harness

    report = equivalence_harness(args.trials, args.seed)
    print(f"equivalence harness, {report.trials} trials (seed {args.seed})")
    print(f"  square-like: max |g residual| = {report.max_g_squarelike:.3e}")
    print(f"               max |f residual| = {report.max_f_squarelike:.3e}")
    print(f"  violated:    min |g residual| = {report.min_g_violated:.3e}")
    print(f"               min |f residual| = {report.min_f_violated:.3e}")
    print(f"  verdict: {'PASS' if report.passed else 'FAIL'}")
    payload = {
        "trials": report.trials,
        "seed": args.seed,
        "max_g_squarelike": report.max_g_squarelike,
        "max_f_squarelike": report.max_f_squarelike,
        "min_g_violated": report.min_g_violated,
        "min_f_violated": report.min_f_violated,
        "passed": report.passed,
    }
    if args.json:
        write_json(args.json, payload)
    return EXIT_OK if report.passed else EXIT_DEGENERATE


def _cmd_track(args) -> int:
    from .continuation import track

    c0 = _load_curve(args.curve)
    c1 = _load_curve(args.target)
    opts = _solver_options(args)
    trace = track(c0, c1, steps=args.steps, opts=opts)
    payload = trace_to_dict(trace)
    payload["curve_hash"] = curve_hash(c0)
    payload["target_hash"] = curve_hash(c1)
    _emit_json(args, payload)
    # ``track`` raises on a withheld step, so each step's parity is stated
    return EXIT_DEGENERATE if len(set(trace.parity_per_step)) > 1 else EXIT_OK


def _cmd_strata(args) -> int:
    curve = _load_curve(args.curve)
    opts = _solver_options(args)
    report = find_all(curve, opts)
    check = regularity_and_embedding_check(curve)
    classes = []
    for sol in report.classes:
        stratum = strata_proximity(sol.config, scale=curve.diameter)
        classes.append(
            {
                "theta": [float(t) for t in sol.theta],
                "stratum": stratum.label,
                "codim": stratum.codim,
                "min_separation": float(sol.min_separation),
                "transverse": bool(sol.transverse),
            }
        )
    payload = {
        "curve_hash": curve_hash(curve),
        "min_speed": check["min_speed"],
        "min_self_distance": check["min_self_distance"],
        "diameter": curve.diameter,
        "classes": classes,
        "flags": list(report.degeneracy_flags),
    }
    _emit_json(args, payload)
    return EXIT_DEGENERATE if report.parity == "withheld" else EXIT_OK


# ---------------------------------------------------------------------------
# helpers


def _add_solver_flags(parser) -> None:
    defaults = SolverOptions()
    for flag, name, help_text in _SOLVER_FLAGS:
        default = getattr(defaults, name)
        parser.add_argument(flag, dest=name, type=type(default), default=default, help=help_text)


def _add_output_flags(parser) -> None:
    parser.add_argument("--json", help="write the JSON report here (default stdout)")


def _solver_options(args) -> SolverOptions:
    return SolverOptions(**{name: getattr(args, name) for _, name, _ in _SOLVER_FLAGS})


def _load_curve(path: str) -> Curve:
    with open(path) as fh:
        data = json.load(fh)
    return curve_from_json_dict(data)


def _emit_json(args, payload: dict) -> None:
    if args.json:
        write_json(args.json, payload)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


if __name__ == "__main__":
    cli()
