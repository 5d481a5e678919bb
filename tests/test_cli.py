import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import squarepeg
from squarepeg import curve_from_json_dict, residual
from squarepeg import cli
from squarepeg import curve as curve_module
from squarepeg.cli import build_parser, main

from conftest import three_lobe_curve, unresolvable_curves

ELLIPSE = {"type": "ellipse", "a": 2, "b": 1}
CIRCLE = {"type": "ellipse", "a": 1, "b": 1}


@pytest.fixture()
def curve_file(tmp_path):
    def write(payload, name="curve.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def test_find_ellipse(curve_file, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(
        ["find", "--curve", curve_file(ELLIPSE), "--json", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["parity"] == "odd"
    assert report["labeled_count"] == 4
    assert len(report["classes"]) == 1
    assert report["classes"][0]["transverse"] is True
    assert "curve_hash" in report and len(report["curve_hash"]) == 64
    assert "solve_s" in report["timings"]


def test_find_report_roundtrips_residual(curve_file, tmp_path):
    report_path = tmp_path / "report.json"
    curve_path = curve_file(ELLIPSE)
    assert main(["find", "--curve", curve_path, "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    curve = curve_from_json_dict(json.loads(open(curve_path).read()))
    for cls in report["classes"]:
        res = residual(curve, np.array(cls["theta"]))
        assert abs(np.abs(res).max() - cls["residual"]) < 1e-10
        pts = curve.eval(np.array(cls["theta"]))
        assert np.abs(pts - np.array(cls["points"])).max() < 1e-12


def test_find_circle_degenerate_exit(curve_file, tmp_path):
    report_path = tmp_path / "circle.json"
    code = main(["find", "--curve", curve_file(CIRCLE), "--json", str(report_path)])
    assert code == 2
    report = json.loads(report_path.read_text())
    assert report["parity"] == "withheld"
    assert "NonTransverse" in report["flags"]


def test_find_near_boundary_withholds_parity_and_exits_2(curve_file, tmp_path):
    # the guard drops the ellipse's one square, so its count is unproven
    report_path = tmp_path / "guarded.json"
    args = ["--curve", curve_file(ELLIPSE), "--sep-guard", "0.9", "--json", str(report_path)]
    assert main(["find"] + args) == 2
    report = json.loads(report_path.read_text())
    assert report["parity"] == "withheld"
    assert report["flags"] == ["NearBoundary"]
    assert report["classes"] == []
    assert main(["strata-report"] + args) == 2


def test_find_with_no_class_withholds_parity_and_exits_2(curve_file, tmp_path):
    # three Newton iterations converge no root: 0 classes prove no odd count
    report_path = tmp_path / "none.json"
    three = curve_file(three_lobe_curve().to_json_dict())
    args = ["--curve", three, "--max-iters", "3", "--json", str(report_path)]
    assert main(["find"] + args) == 2
    report = json.loads(report_path.read_text())
    assert (report["classes"], report["parity"]) == ([], "withheld")
    assert report["flags"] == ["IncompleteSuspected"]
    assert main(["strata-report"] + args) == 2


def test_find_svg_and_csv(curve_file, tmp_path):
    svg_path = tmp_path / "plot.svg"
    csv_path = tmp_path / "verts.csv"
    code = main(
        [
            "find",
            "--curve",
            curve_file(ELLIPSE),
            "--json",
            str(tmp_path / "r.json"),
            "--svg",
            str(svg_path),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 1
    assert svg.count("<polygon") == 1
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("class,vertex,theta,x0,x1")
    assert len(rows) == 1 + 4  # header + one class of four vertices


def test_find_svg_of_a_small_curve_keeps_its_points(curve_file, tmp_path):
    # a 4e-8 wide ellipse, far above the diameter floor: six decimals would
    # print every coordinate as zero
    svg_path = tmp_path / "plot.svg"
    tiny = curve_file({"type": "ellipse", "a": 2e-8, "b": 1e-8})
    assert main(["find", "--curve", tiny, "--svg", str(svg_path)]) == 0
    svg = svg_path.read_text()
    view = svg.split('viewBox="')[1].split('"')[0].split()
    assert float(view[2]) > 0 and float(view[3]) > 0
    points = svg.split('<polyline points="')[1].split('"')[0].split()
    assert len(set(points)) > 1


def test_find_svg_skipped_for_space_curve(curve_file, tmp_path, capsys):
    trefoil = {"dim": 3, "coords": [{"a0": 0, "cos": [0, 0, 0], "sin": [1, 2, 0]},
                                    {"a0": 0, "cos": [1, -2, 0], "sin": [0, 0, 0]},
                                    {"a0": 0, "cos": [0, 0, 0], "sin": [0, 0, -1]}]}  # fmt: skip
    svg_path = tmp_path / "plot.svg"
    code = main(["find", "--curve", curve_file(trefoil), "--svg", str(svg_path)])
    assert code == 0
    assert "svg skipped" in capsys.readouterr().err
    assert not svg_path.exists()


def test_grid_above_the_bound_exits_1_before_any_scan(curve_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_all", lambda *args: pytest.fail("the scan ran"))
    assert main(["find", "--curve", curve_file(ELLIPSE), "--grid", "200"]) == 1
    assert "grid must be in [4, 96]" in capsys.readouterr().err


def _padded_ellipse(harmonics: int) -> dict:
    """The 2:1 ellipse's JSON, its coefficient lists padded with zeros to ``harmonics``."""
    pad = [0.0] * (harmonics - 1)
    return {"dim": 2, "coords": [{"a0": 0, "cos": [2.0, *pad], "sin": [0.0, *pad]},
                                 {"a0": 0, "cos": [0.0, *pad], "sin": [1.0, *pad]}]}  # fmt: skip


def test_harmonics_above_the_bound_exit_1_before_any_table(curve_file, capsys, monkeypatch):
    for name in ("_sample_table", "_harmonic_table"):
        monkeypatch.setattr(curve_module, name, lambda *args: pytest.fail("a table was built"))
    too_many = curve_file(_padded_ellipse(curve_module.MAX_HARMONICS + 1))
    assert main(["find", "--curve", too_many]) == 1
    assert capsys.readouterr().err == "error: 257 harmonics exceed 256\n"


def test_find_malformed_curve_names_field(curve_file, tmp_path, capsys):
    bad = curve_file({"dim": 2}, name="bad.json")
    code = main(["find", "--curve", bad, "--json", str(tmp_path / "r.json")])
    assert code == 1
    assert "coords" in capsys.readouterr().err


def _coords(first):
    """Explicit-form ellipse JSON whose first coordinate entry is ``first``."""
    return {"dim": 2, "coords": [first, {"a0": 0, "cos": [0], "sin": [1]}]}


@pytest.mark.parametrize(
    "payload,fieldname",
    [
        (_coords({"a0": 0, "cos": 1, "sin": [0]}), "coords[0].cos"),
        # a string is iterable, so it used to parse as the coefficients [2, 0]
        (_coords({"a0": 0, "cos": "20", "sin": [0]}), "coords[0].cos"),
        (_coords({"a0": 0, "cos": [2], "sin": [True]}), "coords[0].sin"),
        (_coords({"a0": None, "cos": [2], "sin": [0]}), "coords[0].a0"),
        # used to truncate to dim 2
        ({**_coords({"a0": 0, "cos": [2], "sin": [0]}), "dim": 2.7}, "'dim'"),
        ({"type": "ellipse", "a": None, "b": 1}, "'a'"),
        ({"type": "ellipse", "a": [2], "b": 1}, "'a'"),
        # a JSON integer too large for a float raised OverflowError
        ({"type": "ellipse", "a": 10**400, "b": 1}, "'a'"),
        ([2, 1], "curve JSON must be an object"),
        ({**_coords({"a0": 0, "cos": [2], "sin": [0]}), "dim": 3}, "'coords'"),
        (_coords([0, [2], [0]]), "coords[0] must be an object"),
    ],
)
def test_find_mistyped_curve_field_exits_1(curve_file, tmp_path, capsys, payload, fieldname):
    code = main(["find", "--curve", curve_file(payload), "--json", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert fieldname in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_find_non_finite_coefficient_exits_1(tmp_path, token, capsys):
    # json.load accepts these tokens; the curve must reject them, not the solve
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"dim": 2, "coords": [{"a0": %s, "cos": [2], "sin": [0]},'
        ' {"a0": 0, "cos": [0], "sin": [1]}]}' % token
    )
    code = main(["find", "--curve", str(bad), "--json", str(tmp_path / "r.json")])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name", sorted(unresolvable_curves()))
def test_find_unresolvable_curve_exits_1(curve_file, capsys, name):
    assert main(["find", "--curve", curve_file(unresolvable_curves()[name])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: curve ") and captured.err.count("\n") == 1


def test_find_missing_file(tmp_path):
    code = main(["find", "--curve", str(tmp_path / "nope.json")])
    assert code == 1


def test_find_json_to_stdout(curve_file, capsys):
    code = main(["find", "--curve", curve_file(ELLIPSE)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parity"] == "odd"


def test_verify_ellipse_output(capsys, tmp_path):
    out_path = tmp_path / "ve.json"
    code = main(["verify-ellipse", "--a", "2", "--b", "1", "--json", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "30" in out
    assert "p1" in out and "p4" in out
    payload = json.loads(out_path.read_text())
    assert payload["det"] == pytest.approx(30.0, abs=1e-9)
    assert payload["det_pushforward"] == pytest.approx(30.0, abs=1e-9)


def test_verify_ellipse_rejects_circle(capsys):
    assert main(["verify-ellipse", "--a", "1", "--b", "1"]) == 1


@pytest.mark.parametrize(
    "a,b",
    [("inf", "1"), ("nan", "1"), ("1e200", "1"), ("1e100", "1e-100")],
    ids=["inf", "nan", "1e200", "1e100-1e-100"],
)
def test_verify_ellipse_rejects_non_finite_axis(a, b, capsys):
    # 1e200 and 1e100 / 1e-100 once overflowed in 8 (a^4 - b^4) / (a^2 b^2)
    assert main(["verify-ellipse", "--a", a, "--b", b]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite a > b > 0" in captured.err
    assert captured.err.count("\n") == 1 and "in [1e-50, 1e+50]" in captured.err


@pytest.mark.parametrize("a", ["1e6", "1e50", "1.000000000001"])
def test_verify_ellipse_rejects_a_ratio_outside_its_range(a, capsys):
    # the printed determinants err by 9e-5 at a / b = 1e6, take the wrong sign
    # at 1e50 and err by 1e-4 at 1 + 1e-12
    assert main(["verify-ellipse", "--a", a, "--b", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need a / b in [1.0000000001, 100000]")
    assert captured.err.count("\n") == 1
    for a in ("1e5", "1.0000000001"):
        assert main(["verify-ellipse", "--a", a, "--b", "1"]) == 0


def test_verify_ellipse_closed_form_holds_near_a_circle(tmp_path):
    # a / b = 1 + 1.5e-10 is inside the accepted range; there the unfactored
    # 8 (a^4 - b^4) / (a^2 b^2) loses a^4 - b^4 to cancellation, 1.8e-7 relative
    out_path = tmp_path / "ve.json"
    argv = ["verify-ellipse", "--a", "0.700000000105", "--b", "0.7", "--json", str(out_path)]
    assert main(argv) == 0
    got = json.loads(out_path.read_text())["det_formula"]
    with mpmath.workdps(60):
        a, b = mpmath.mpf(0.700000000105), mpmath.mpf(0.7)
        exact = float(8 * (a**4 - b**4) / (a**2 * b**2))
    assert abs(got - exact) <= 1e-14 * abs(exact)


def test_equivalence_command(capsys):
    code = main(["equivalence", "--trials", "50", "--seed", "3"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_equivalence_rejects_a_negative_seed_by_name(capsys):
    assert main(["equivalence", "--trials", "3", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_track_command(curve_file, tmp_path):
    three = three_lobe_curve()
    target = curve_file(three.to_json_dict(), name="three.json")
    out_path = tmp_path / "trace.json"
    code = main(
        [
            "track",
            "--curve",
            curve_file(ELLIPSE),
            "--target",
            target,
            "--steps",
            "8",
            "--json",
            str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["class_counts"][0] == 1
    assert payload["class_counts"][-1] == 3
    assert set(payload["parity_per_step"]) == {"odd"}
    assert len(payload["events"]) == 1
    assert payload["events"][0]["kind"] == "Birth"


def test_track_dimension_mismatch_exits_1(curve_file, capsys):
    # a SquarePegError other than the degenerate ones is bad input
    space = {"dim": 3, "coords": [{"a0": 0, "cos": [2], "sin": [0]},
                                  {"a0": 0, "cos": [0], "sin": [1]},
                                  {"a0": 0, "cos": [0], "sin": [0.3]}]}  # fmt: skip
    code = main(
        ["track", "--curve", curve_file(ELLIPSE), "--target", curve_file(space, name="s.json")]
    )
    assert code == 1
    assert "error: curve dims differ" in capsys.readouterr().err


def test_track_nontransverse_path_exit(curve_file, capsys):
    code = main(
        [
            "track",
            "--curve",
            curve_file(CIRCLE, name="c.json"),
            "--target",
            curve_file(ELLIPSE, name="e.json"),
            "--steps",
            "4",
        ]
    )
    assert code == 2
    assert "NonTransverse" in capsys.readouterr().err


def test_track_near_boundary_path_names_the_flag(curve_file, capsys):
    # the guard drops each ellipse's one square: the error names NearBoundary
    stretched = {"type": "ellipse", "a": 2, "b": 1.2}
    args = ["--curve", curve_file(ELLIPSE, name="e.json")]
    args += ["--target", curve_file(stretched, name="s.json"), "--steps", "2"]
    assert main(["track"] + args + ["--sep-guard", "0.9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("degenerate: endpoint at t=0 withholds parity: NearBoundary")
    assert "non-transverse" not in err


def test_strata_report(curve_file, tmp_path):
    out_path = tmp_path / "strata.json"
    code = main(
        ["strata-report", "--curve", curve_file(ELLIPSE), "--json", str(out_path)]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["classes"][0]["stratum"] == "interior"
    assert payload["min_speed"] == pytest.approx(1.0, abs=1e-9)
    assert payload["classes"][0]["min_separation"] > 0.1


def _run_entry_point(*args, code=None):
    """A child running ``python -m squarepeg.cli`` (or ``-c code``) on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, *(["-c", code] if code else ["-m", "squarepeg.cli"]), *args]
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


def test_entry_point_prints_the_report_of_main(curve_file, capsys):
    curve = curve_file(ELLIPSE)
    proc = _run_entry_point("find", "--curve", curve)
    assert proc.returncode == 0, proc.stderr
    assert main(["find", "--curve", curve]) == 0
    child, here = json.loads(proc.stdout), json.loads(capsys.readouterr().out)
    del child["timings"], here["timings"]
    assert child == here


@pytest.mark.parametrize(
    "payload,args,code,message",
    [
        (ELLIPSE, ["--sep-guard", "0.9"], 2, ""),
        (None, [], 1, "error: [Errno 2]"),
        # the squared pair distances would overflow: rejected before any sampling
        ({"type": "ellipse", "a": 1e308, "b": 1e308}, [], 1,
         "error: curve scale 1e+308 exceeds 1e+150"),
    ],
)  # fmt: skip
def test_entry_point_exit_codes(curve_file, tmp_path, payload, args, code, message):
    curve = curve_file(payload) if payload else str(tmp_path / "missing.json")
    proc = _run_entry_point("find", "--curve", curve, *args)
    assert proc.returncode == code
    assert proc.stderr.startswith(message)
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_entry_point_freezes_the_heap_and_still_runs_atexit(curve_file):
    # the freeze spares shutdown's collections; atexit hooks and stdio flushes still run
    code = (
        "import atexit, gc, sys\n"
        "from squarepeg.cli import cli\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "sys.argv[0] = 'squarepeg'\n"
        "cli()\n"
    )
    proc = _run_entry_point("find", "--curve", curve_file(ELLIPSE), code=code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout[: proc.stdout.rindex("}") + 1])["parity"] == "odd"
    assert proc.stdout.endswith("frozen at exit: True\n")


def test_main_leaves_the_heap_unfrozen(curve_file, tmp_path):
    # ``main`` runs in long-lived processes, where frozen cyclic garbage is never freed
    before = gc.get_freeze_count()
    assert main(["find", "--curve", curve_file(ELLIPSE), "--json", str(tmp_path / "r.json")]) == 0
    assert gc.get_freeze_count() == before


LAZY_MODULES = ("squarepeg.continuation", "squarepeg.slq", "squarepeg.verify")
SUBMODULES = ("config", "continuation", "curve", "errors", "slq", "solver", "verify")


def _run_python(code: str, *args) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout


def test_runtime_never_imports_scipy(curve_file, tmp_path):
    # the package runs on numpy alone; scipy is a test dependency
    ellipse = curve_file(ELLIPSE, name="e.json")
    three = curve_file(three_lobe_curve().to_json_dict(), name="three.json")
    out = str(tmp_path / "out.json")
    code = (
        "import json, sys\n"
        "import squarepeg, squarepeg.cli\n"
        "e, t = (squarepeg.curve_from_json_dict(json.load(open(p))) for p in sys.argv[1:3])\n"
        "squarepeg.find_all(e)\n"
        "squarepeg.track(e, t, 4)\n"
        "squarepeg.regularity_and_embedding_check(t)\n"
        "a = ['--curve', sys.argv[1], '--json', sys.argv[3]]\n"
        "assert squarepeg.cli.main(['track', *a, '--target', sys.argv[2], '--steps', '4']) == 0\n"
        "assert squarepeg.cli.main(['strata-report', *a]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert _run_python(code, ellipse, three, out).strip() == "[]"


def test_find_leaves_lazy_modules_unloaded(curve_file, tmp_path):
    # a cold ``find`` skips continuation, verify and slq; the other commands load them
    ellipse = curve_file(ELLIPSE, name="e.json")
    three = curve_file(three_lobe_curve().to_json_dict(), name="three.json")
    out = str(tmp_path / "out.json")
    code = (
        "import json, sys\n"
        "import squarepeg.cli as cli\n"
        "e, t, out = sys.argv[1:4]\n"
        "runs = {'find': cli.main(['find', '--curve', e, '--json', out])}\n"
        f"runs['loaded'] = [m for m in {LAZY_MODULES!r} if m in sys.modules]\n"
        "for argv in (['verify-ellipse', '--a', '2', '--b', '1'], ['equivalence', '--trials', '20'],\n"
        "             ['track', '--curve', e, '--target', t, '--steps', '4'],\n"
        "             ['strata-report', '--curve', t]):\n"
        "    runs[argv[0]] = cli.main([*argv, '--json', out])\n"
        "print(json.dumps(runs))\n"
    )
    runs = json.loads(_run_python(code, ellipse, three, out).splitlines()[-1])
    assert runs == {"find": 0, "loaded": [], "verify-ellipse": 0, "equivalence": 0,
                    "track": 0, "strata-report": 0}  # fmt: skip


def test_lazy_public_names_resolve():
    code = (
        "import json, sys\n"
        "import squarepeg\n"
        "lazy_dir = dir(squarepeg)\n"
        f"loaded = [m for m in {SUBMODULES!r} if 'squarepeg.' + m in sys.modules]\n"
        "try:\n"
        "    squarepeg.no_such_name\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "resolved = [n for n in squarepeg.__all__ if getattr(squarepeg, n) is not None]\n"
        "cached = [n for n in squarepeg.__all__ if n in vars(squarepeg)]\n"
        "star = {}\n"
        "exec('from squarepeg import *', star)\n"
        "star.pop('__builtins__')\n"
        "print(json.dumps({'loaded': loaded, 'missing': missing, 'resolved': resolved,\n"
        "                  'cached': cached, 'star': sorted(star),\n"
        "                  'same_dir': dir(squarepeg) == lazy_dir,\n"
        "                  'track_home': squarepeg.track.__module__,\n"
        "                  'submodules': [type(getattr(squarepeg, m)).__name__\n"
        f"                                 for m in {SUBMODULES!r}]}}))\n"
    )
    got = json.loads(_run_python(code).splitlines()[-1])
    assert got["loaded"] == []
    assert "no_such_name" in got["missing"]
    assert got["resolved"] == got["cached"] == squarepeg.__all__
    assert got["star"] == sorted(squarepeg.__all__) and len(got["star"]) == 48
    assert got["same_dir"]
    assert got["track_home"] == "squarepeg.continuation"
    assert got["submodules"] == ["module"] * len(SUBMODULES)


def test_solver_flags_accepted(curve_file, tmp_path):
    code = main(
        [
            "find",
            "--curve",
            curve_file(ELLIPSE),
            "--grid",
            "8",
            "--tol",
            "1e-11",
            "--dedup-eps",
            "1e-5",
            "--sep-guard",
            "1e-3",
            "--det-threshold",
            "1e-8",
            "--json",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["options"]["grid"] == 8
    assert report["options"]["tol_residual"] == 1e-11


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--dedup-eps", "0", "dedup_radius"),
        ("--dedup-eps", "-1", "dedup_radius"),
        ("--dedup-eps", "inf", "dedup_radius"),
        ("--dedup-eps", "1e-20", "dedup_radius"),
        ("--max-iters", "-1", "max_iters"),
        ("--max-iters", "0", "max_iters"),
        ("--tol", "nan", "tol_residual"),
        ("--tol", "0", "tol_residual"),
        ("--grid", "3", "grid"),
        ("--sep-guard", "1", "sep_guard"),
        ("--sep-guard", "-0.1", "sep_guard"),
        ("--sep-guard", "nan", "sep_guard"),
        ("--det-threshold", "-1", "det_threshold"),
        ("--det-threshold", "inf", "det_threshold"),
    ],
)
def test_invalid_solver_flag_exits_1(curve_file, tmp_path, capsys, flag, value, field):
    report = tmp_path / "r.json"
    code = main(["find", "--curve", curve_file(ELLIPSE), flag, value, "--json", str(report)])
    assert code == 1
    assert field in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["find"],
        ["find", "--curve"],
        ["find", "--curve", "{c}", "--grid", "x"],
        ["find", "--curve", "{c}", "--bogus"],
        ["--bogus"],
        ["nope"],
        # abbreviations are not taken for --target and --tol
        ["track", "--curve", "{c}", "--tar", "{c}"],
        ["find", "--curve", "{c}", "--to", "1e-9"],
        ["find", "--cur", "{c}"],
    ],
)
def test_usage_errors_exit_1(args, curve_file, tmp_path, capsys):
    # argparse's own code is 2, which here means degenerate results
    report = tmp_path / "r.json"
    path = curve_file(ELLIPSE)
    assert main([a.format(c=path) for a in args] + ["--json", str(report)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("args", [["--help"], ["find", "--help"], ["track", "-h"]])
def test_help_exits_0(args, capsys):
    assert main(args) == 0
    assert "usage:" in capsys.readouterr().out


def test_public_api_is_pinned(curve_file, capsys):
    # growing any of these needs a reason in CHANGES.md; update this test with it
    assert squarepeg.__all__ == [
        "Config4", "ContinuationTrace", "Curve", "EquivalenceReport", "QuadMeasurements",
        "Solution", "SolveReport", "SolverOptions", "Stratum", "TrackEvent", "Variation4",
        "block_cycle_orientation_sign", "canonical_theta", "class_distance",
        "curve_from_json_dict", "cyclic_relabel", "direction", "ellipse_basis",
        "ellipse_dg_matrix", "ellipse_square", "ellipse_square_angles", "equivalence_harness",
        "errors", "f_hat", "f_map", "find_all", "g_directional_derivative", "g_map",
        "interpolate", "jacobian", "make_bent_rhombus", "make_ellipse", "measurements",
        "mu_pushforward_dg_matrix", "mu_pushforward_nonplanar_dg_matrix", "newton_refine",
        "nonplanar_basis", "nonplanar_dg_matrix", "ordered_component_check", "perturb",
        "quotient_dedup", "ratio", "regularity_and_embedding_check", "residual", "s_ratio",
        "seed_grid", "strata_proximity", "track",
    ]  # fmt: skip

    # each subcommand's flags and their defaults
    solver = {"--grid": 24, "--tol": 1e-12, "--dedup-eps": 1e-6, "--sep-guard": 1e-3,
              "--det-threshold": 1e-8, "--max-iters": 50}  # fmt: skip
    expected = {
        "find": {"--curve": None, **solver, "--json": None, "--svg": None, "--csv": None},
        "verify-ellipse": {"--a": None, "--b": None, "--json": None},
        "equivalence": {"--trials": 1000, "--seed": 1, "--json": None},
        "track": {"--curve": None, "--target": None, "--steps": 64, **solver, "--json": None},
        "strata-report": {"--curve": None, **solver, "--json": None},
    }
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a.choices, dict)]
    flags = {
        name: {a.option_strings[-1]: a.default for a in sub._actions if a.dest != "help"}
        for name, sub in commands.items()
    }
    assert flags == expected
    assert [list(f) for f in flags.values()] == [list(f) for f in expected.values()]

    # the find report's keys, top level and options
    assert main(["find", "--curve", curve_file(ELLIPSE)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "curve_hash", "options", "size_floor", "classes", "labeled_count", "parity", "flags",
        "timings",
    ]  # fmt: skip
    assert list(report["options"]) == [
        "grid", "tol_residual", "max_iters", "dedup_radius", "sep_guard", "det_threshold",
    ]  # fmt: skip
