"""Compare the answer digests of a git revision and of this checkout.

    python3 scripts/digest_diff.py HEAD~1

``git archive REV`` is unpacked into a temporary directory, and this
checkout's ``scripts/answer_digest.py`` is copied over the archived one, so
both trees are hashed by the same script, each on its own sources.  The
digest runs in the archived tree, then in this checkout.  The lines that
differ are printed as a unified diff; a run's errors pass through to
stderr.  Exits 0 when the outputs are equal, 1 when they differ, and 2 when
``git archive`` or a digest run fails.  Standard library only.
"""

import argparse
import difflib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path("scripts") / "answer_digest.py"


def archive(rev: str, dest: Path) -> None:
    """Unpack ``git archive REV`` of this checkout's repository into ``dest``."""
    git = ["git", "-C", str(ROOT), "archive", "--format=tar", rev]
    tar = subprocess.run(git, stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_digest(tree: Path) -> list:
    """The output lines of ``answer_digest.py`` run on the sources in ``tree``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(tree / DIGEST)],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def compare(old: list, new: list, rev: str) -> list:
    """Unified-diff lines from ``old`` (at ``rev``) to ``new``; empty when equal."""
    return list(difflib.unified_diff(old, new, rev, "checkout", lineterm=""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against, say HEAD~1")
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            archive(args.rev, tree)
            shutil.copyfile(ROOT / DIGEST, tree / DIGEST)
            old = run_digest(tree)
        new = run_digest(ROOT)
    except subprocess.CalledProcessError as exc:
        print(f"{' '.join(map(str, exc.cmd))} exited {exc.returncode}", file=sys.stderr)
        return 2
    diff = compare(old, new, args.rev)
    if diff:
        print("\n".join(diff))
        return 1
    print(f"equal: the same {len(new)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
