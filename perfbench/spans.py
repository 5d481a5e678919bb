"""In-memory spans around the public names each squarepeg layer is called through.

The wrappers are installed from here, not from the package, and removed
after each traced pass.  A span is ``[name, start, end, parent, attrs]``
with ``parent`` the index of the enclosing span (or -1); spans are appended
when they open, so a parent always precedes its children.  Private helpers
(``_newton_batch``, ``_jacobian_batch``, ``_cluster_thetas``) are not wrapped:
they are expected to be renamed or removed.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self.begin(name, **attrs)
        try:
            yield self.spans[index][4]
        finally:
            self.end(index)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until ``uninstall``.

        ``note(args, kwargs, result)`` returns attrs to store on the span.
        """
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if note is not None:
                self.spans[index][4].update(note(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _points(args, kwargs, result):
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return {"points": int(getattr(theta, "size", 1))}


def _find_all_note(args, kwargs, result):
    extra = args[2] if len(args) > 2 else kwargs.get("extra_seeds")
    rows = 0 if extra is None else int(extra.size) // 4
    return {"extra_seeds": rows, "classes": len(result.classes)}


def _interpolate_note(args, kwargs, result):
    return {"t": float(args[2] if len(args) > 2 else kwargs["t"])}


def install_library(tracer: Tracer) -> None:
    """Wrap the names the curve, solver and continuation layers are called through."""
    import squarepeg.continuation as continuation
    import squarepeg.solver as solver
    from squarepeg.curve import Curve

    tracer.wrap(Curve, "eval", "curve.eval", _points)
    tracer.wrap(Curve, "deriv", "curve.deriv", _points)
    tracer.wrap(Curve, "__post_init__", "curve.construct")
    tracer.wrap(solver, "seed_grid", "solver.seed_grid", lambda a, k, r: {"rows": len(r)})
    tracer.wrap(continuation, "find_all", "solver.find_all", _find_all_note)
    tracer.wrap(continuation, "interpolate", "continuation.interpolate", _interpolate_note)
    tracer.wrap(continuation, "regularity_and_embedding_check", "curve.embed_check")


def install_cli(tracer: Tracer) -> None:
    """Wrap the names ``squarepeg.cli`` calls the other layers through."""
    import squarepeg.cli as cli

    install_library(tracer)
    tracer.wrap(cli, "curve_from_json_dict", "curve.load")
    tracer.wrap(cli, "find_all", "solver.find_all", _find_all_note)
    for name in ("report_to_dict", "write_json", "write_csv", "write_svg"):
        tracer.wrap(cli, name, f"reporting.{name}")


# ---------------------------------------------------------------------------
# per-layer metrics from spans

LAYER_METRICS = {
    # name: unit
    "curve.eval.calls": "count",
    "curve.eval.points": "count",
    "curve.eval.busy_s": "s",
    "curve.deriv.calls": "count",
    "curve.deriv.points": "count",
    "curve.deriv.busy_s": "s",
    "curve.construct.calls": "count",
    "curve.construct.busy_s": "s",
    "curve.embed_check.calls": "count",
    "curve.embed_check.busy_s": "s",
    "curve.load.busy_s": "s",
    "solver.seeds": "count",
    "solver.newton_seed_iters": "count",
    "solver.classes": "count",
    "solver.useful_ratio": "ratio",
    "solver.find_all.calls": "count",
    "solver.find_all.busy_s": "s",
    "solver.find_all.self_s": "s",
    "solver.seed_grid.busy_s": "s",
    "continuation.track.busy_s": "s",
    "continuation.self_s": "s",
    "continuation.solves": "count",
    "continuation.extra_solves": "count",
    "continuation.interpolate.busy_s": "s",
    "cli.import_s": "s",
    "cli.main.busy_s": "s",
    "reporting.report_to_dict.busy_s": "s",
    "reporting.write_json.busy_s": "s",
    "reporting.write_csv.busy_s": "s",
    "reporting.write_svg.busy_s": "s",
}


def layer_metrics(spans: list, curve_names=()) -> dict:
    """Counts and busy/self times of one traced pass (plus its set-up spans).

    ``curve.eval``/``curve.deriv`` count only calls under a ``solver.find_all``
    span, so curve construction does not blur the solver's kernels.
    ``solver.newton_seed_iters`` is exact: every Newton iteration evaluates
    the Jacobian, hence ``deriv`` at 4 angles, once per active seed, and
    certification does so once per class.
    """
    n = len(spans)
    under_find = [False] * n
    under_track = [-1] * n
    child_time = [0.0] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            pname = spans[parent][0]
            under_find[i] = under_find[parent] or pname == "solver.find_all"
            under_track[i] = parent if pname == "continuation.track" else under_track[parent]

    m = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS.items()}
    for c in curve_names:
        m[f"solver.find_all.busy_s.{c}"] = 0.0

    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        if name in ("curve.eval", "curve.deriv") and under_find[i]:
            m[f"{name}.calls"] += 1
            m[f"{name}.points"] += attrs["points"]
            m[f"{name}.busy_s"] += dur
        elif name in ("curve.construct", "curve.embed_check"):
            m[f"{name}.calls"] += 1
            m[f"{name}.busy_s"] += dur
        elif name == "solver.find_all":
            m["solver.find_all.calls"] += 1
            m["solver.find_all.busy_s"] += dur
            m["solver.find_all.self_s"] += dur - child_time[i]
            m["solver.seeds"] += attrs["extra_seeds"]
            m["solver.classes"] += attrs["classes"]
            if attrs.get("curve") in curve_names:
                m[f"solver.find_all.busy_s.{attrs['curve']}"] += dur
            if under_track[i] >= 0:
                m["continuation.solves"] += 1
        elif name == "solver.seed_grid" and under_find[i]:
            m["solver.seed_grid.busy_s"] += dur
            m["solver.seeds"] += attrs["rows"]
        elif name == "continuation.track":
            m["continuation.track.busy_s"] += dur
            m["continuation.self_s"] += dur - child_time[i]
        elif name == "continuation.interpolate":
            m["continuation.interpolate.busy_s"] += dur
            if under_track[i] >= 0:
                steps = spans[under_track[i]][4]["steps"]
                k = attrs["t"] * steps
                m["continuation.extra_solves"] += abs(k - round(k)) > 1e-9
        elif name in ("curve.load", "cli.main", "cli.import") or name.startswith("reporting."):
            key = "cli.import_s" if name == "cli.import" else f"{name}.busy_s"
            m[key] += dur

    m["solver.newton_seed_iters"] = m["curve.deriv.points"] // 4 - m["solver.classes"]
    m["solver.useful_ratio"] = (
        m["solver.classes"] / m["solver.seeds"] if m["solver.seeds"] else 0.0
    )
    return m


def offset_spans(spans: list, offset: int) -> list:
    """Spans read from another process, re-indexed to follow ``offset`` others."""
    return [[n, s, e, (p + offset if p >= 0 else -1), a] for n, s, e, p, a in spans]
