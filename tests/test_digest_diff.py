"""``scripts/digest_diff.py`` with ``archive`` and ``run_digest`` stubbed: no digest is run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digest_diff.py"


@pytest.fixture()
def digest_diff(monkeypatch):
    """The script with ``archive`` stubbed: it records the revision and makes
    an empty ``scripts`` directory."""
    spec = importlib.util.spec_from_file_location("digest_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.archived = []

    def fake_archive(rev, dest):
        module.archived.append(rev)
        (dest / "scripts").mkdir()

    monkeypatch.setattr(module, "archive", fake_archive)
    return module


def stub_runs(monkeypatch, module, old, new):
    """``run_digest`` gives ``new`` in this checkout and ``old`` in the archived
    tree, where it also checks that this checkout's digest script was copied in."""

    def run(tree):
        if tree == module.ROOT:
            return list(new)
        assert (tree / module.DIGEST).read_bytes() == (module.ROOT / module.DIGEST).read_bytes()
        return list(old)

    monkeypatch.setattr(module, "run_digest", run)


def test_equal_digests_exit_0(digest_diff, monkeypatch, capsys):
    lines = ["find ellipse 0a", "api 1b"]
    stub_runs(monkeypatch, digest_diff, lines, lines)
    assert digest_diff.main(["HEAD~1"]) == 0
    assert digest_diff.archived == ["HEAD~1"]
    assert capsys.readouterr().out == "equal: the same 2 lines\n"


def test_differing_digests_print_the_lines_and_exit_1(digest_diff, monkeypatch, capsys):
    old = ["find ellipse 0a", "scan ellipse 2c", "api 1b"]
    new = ["find ellipse 0a", "scan ellipse 3d", "api 1b"]
    stub_runs(monkeypatch, digest_diff, old, new)
    assert digest_diff.main(["abc123"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["--- abc123", "+++ checkout"]
    assert [line for line in out[2:] if line[0] in "+-"] == ["-scan ellipse 2c", "+scan ellipse 3d"]


def test_a_missing_line_is_a_difference(digest_diff):
    assert digest_diff.compare(["a", "b"], ["a"], "REV")[-1] == "-b"
    assert digest_diff.compare(["a"], ["a"], "REV") == []


def test_a_failed_run_exits_2(digest_diff, monkeypatch, capsys):
    def failing(tree):
        raise subprocess.CalledProcessError(1, ["python3", "answer_digest.py"])

    monkeypatch.setattr(digest_diff, "run_digest", failing)
    assert digest_diff.main(["HEAD"]) == 2
    assert "answer_digest.py exited 1" in capsys.readouterr().err
