"""Line counts of the ``olrx/`` package, per module, in total and for
the CDC core.

    python tools/loc.py [--rev REV]

Counts the lines of every ``*.py`` file under ``olrx/`` in the working
tree, as ``wc -l`` does. With ``--rev``, also counts each module at the
git revision REV (``git show REV:<path>``) and prints the change; a module
present on one side only counts 0 on the other. The ``cdc core`` row sums
the modules of :data:`CORE`. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "olrx"
#: the CDC core: the replay engine (decode, exchange, apply, commit), its
#: state and schema, and the replay, job and time-travel pipelines
CORE = ("olrx/stages/", "olrx/state/", "olrx/schema.py",
        "olrx/pipelines/replay.py", "olrx/pipelines/job.py",
        "olrx/pipelines/timetravel.py")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def tree_counts() -> dict[str, int]:
    """module path → line count, in the working tree."""
    out = {}
    for d, _, files in os.walk(os.path.join(ROOT, PACKAGE)):
        for f in files:
            if f.endswith(".py"):
                p = os.path.join(d, f)
                with open(p, encoding="utf-8") as fh:
                    out[os.path.relpath(p, ROOT)] = fh.read().count("\n")
    return out


def rev_counts(rev: str) -> dict[str, int]:
    """module path → line count, at git revision ``rev``."""
    names = _git("ls-tree", "-r", "--name-only", rev, f"{PACKAGE}/")
    return {n: _git("show", f"{rev}:{n}").count("\n")
            for n in names.split() if n.endswith(".py")}


def core(counts: dict[str, int]) -> int:
    return sum(n for m, n in counts.items() if m.startswith(CORE))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", help="git revision to compare against")
    args = ap.parse_args()
    now = tree_counts()
    then = rev_counts(args.rev) if args.rev else None
    mods = sorted(set(now) | set(then or {}))
    width = max(len(m) for m in mods + ["total"])
    if then is None:
        for m in mods:
            print(f"{m:<{width}}  {now[m]:>6}")
        print(f"{'total':<{width}}  {sum(now.values()):>6}")
        print(f"{'cdc core':<{width}}  {core(now):>6}")
        return
    print(f"{'module':<{width}}  {args.rev[:10]:>10}  {'now':>6}  {'delta':>6}")
    rows = [(m, then.get(m, 0), now.get(m, 0)) for m in mods]
    rows.append(("total", sum(then.values()), sum(now.values())))
    rows.append(("cdc core", core(then), core(now)))
    for m, a, b in rows:
        print(f"{m:<{width}}  {a:>10}  {b:>6}  {b - a:>+6}")


if __name__ == "__main__":
    main()
