"""Interleaved A/B of the benchmark: a git revision against this checkout.

    python3 tools/ab.py --rev REV --workload W --pairs N --seed0 S \
        [--trace] [--timings] [--records DIR]

Checks REV out as a ``git worktree`` under a temp dir, then runs
``BENCHMARK.json``'s command (``perfbench/run.py --workload W --seed S+i
--seconds <run_seconds> --trace 0``) once in each tree per pair, sequentially.
The side that runs first alternates from pair to pair, so drift of the host
within the window lands on both sides. Each run's last stdout line is its
result object.

Prints, for every ``end_to_end`` metric of ``BENCHMARK.json``: the parent
(REV) median with its quartiles and IQR, the change median, the relative
change, and how many pairs the change won; then, per metric, ``ok`` or
``OUTSIDE`` (the change median is worse than the parent's by more than the
metric's ``bound``); then every run. ``--trace``
runs both sides with ``--trace 1`` and also prints the parent median
[IQR] → change median of every ``per_layer`` metric, so a claim can be
stated for the layer it touched. ``--records DIR`` keeps each run's full
record (the line before the result) as ``DIR/<side>-<seed>.json``, since
the parent's own copy goes with its worktree. ``--timings`` also prints,
per side, the median over all cycles of every ``ReplayResult.timings`` key
(the ``timings`` of each cycle in the run records), so a claim can name
the replay phase it moved without tracing; with it come each side's
median cycle ``read_s`` and ``asof_s`` (the ``read_lake`` and
``read_lake_asof`` calls) and every run's ``setup.ray_start_s``, Ray's
own start before any olrx code runs, which moves ``setup_s`` by itself
(~1.1 s or ~1.95 s a run on an unchanged tree). For a tail workload (its
cycles carry ``lag_segments``) it prints each side's cycle mix: the share
of cycles that picked up one segment pair and the share that picked up
two or more, with each group's median ``commit_s`` and median events /
``commit_s``, pooled over the side's runs and per run. Exits 1 if any
run failed or reported ``correct: false`` or failed operations. The
worktree is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_once(tree: str, cmd: list[str], workload: str, seed: int,
             seconds: float, trace: bool = False) -> dict:
    """One benchmark run in ``tree``; its parsed result object, or a
    failed stand-in when the run crashed or printed no result. A traced
    run's result line holds the per-layer metrics (kept as ``per_layer``);
    its end-to-end ones come from the run record printed just before."""
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(int(trace))]
    p = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
        res["metrics"]
        res["record"] = json.loads(lines[-2])
        if trace:
            res["per_layer"] = res["metrics"]
            res["metrics"] = {k: {"value": v} for k, v
                              in res["record"]["end_to_end"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(p.stderr[-2000:])
        return {"correct": False, "failed": -1, "metrics": {},
                "error": f"exit {p.returncode}, no result line"}
    return res


def phase_medians(runs: dict[str, list[dict]],
                  of=lambda c: c.get("timings", {})
                  ) -> dict[str, tuple[float | None, float | None]]:
    """Per key of ``of(cycle)`` (default: the cycle's ``ReplayResult.timings``),
    the (parent, change) median over every cycle of every run of that side
    (None: the side never had it)."""
    samples: dict[str, dict[str, list[float]]] = {}
    for side, rs in runs.items():
        for r in rs:
            for c in r.get("record", {}).get("cycles", []):
                for k, v in of(c).items():
                    if isinstance(v, (int, float)):
                        by_side = samples.setdefault(k, {})
                        by_side.setdefault(side, []).append(v)
    return {k: tuple(statistics.median(by[side]) if by.get(side) else None
                     for side in ("parent", "change"))
            for k, by in sorted(samples.items())}


def cycle_mix(rs: list[dict]) -> str | None:
    """The tail cycle mix of the runs ``rs``: cycles grouped by the pairs
    they picked up (``lag_segments // 2``: 1, or 2 and more), each group's
    share of the cycles, median ``commit_s`` and median events /
    ``commit_s``. None when no cycle carries ``lag_segments``."""
    groups: dict[str, list[dict]] = {"1 pair": [], ">=2 pairs": []}
    for r in rs:
        for c in r.get("record", {}).get("cycles", []):
            n = c.get("lag_segments", 0) // 2
            if n >= 1 and c.get("commit_s"):
                groups["1 pair" if n == 1 else ">=2 pairs"].append(c)
    total = sum(len(g) for g in groups.values())
    if not total:
        return None
    parts = []
    for name, cs in groups.items():
        if not cs:
            parts.append(f"{name}: 0% of {total} cycles")
            continue
        commit = statistics.median(c["commit_s"] for c in cs)
        rate = statistics.median(c["events"] / c["commit_s"] for c in cs)
        parts.append(f"{name}: {len(cs) / total:.0%} of {total} cycles, "
                     f"commit_s {commit:.4g}, {rate:.4g} ev/s")
    return "; ".join(parts)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="parent revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--trace", action="store_true",
                    help="trace both sides and compare per-layer metrics")
    ap.add_argument("--records", help="directory to keep each run's record in")
    ap.add_argument("--timings", action="store_true",
                    help="print each side's median replay phase timings")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="olrx-ab-")
    parent = os.path.join(tmp, "parent")
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                    parent, args.rev], check=True, capture_output=True)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    try:
        trees = {"parent": parent, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(trees[side], bench["command"], args.workload,
                               seed, bench["run_seconds"], args.trace)
                res["seed"], res["first"] = seed, side == order[0]
                if args.records and "record" in res:
                    os.makedirs(args.records, exist_ok=True)
                    with open(os.path.join(args.records,
                                           f"{side}-{seed}.json"), "w") as f:
                        json.dump(res["record"], f)
                runs[side].append(res)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"correct={res.get('correct')} "
                      f"failed={res.get('failed')}", file=sys.stderr,
                      flush=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        parent], capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    def value(res: dict, name: str, key: str = "metrics") -> float | None:
        m = res.get(key, {}).get(name)
        return None if m is None else float(m["value"])

    def table(specs: list[dict], key: str) -> dict[str, tuple]:
        """Prints one line per metric; returns (parent, change) medians."""
        medians = {}
        for m in specs:
            name, higher = m["name"], m["better"] == "higher"
            pairs = [(value(p, name, key), value(c, name, key))
                     for p, c in zip(runs["parent"], runs["change"])]
            pairs = [(p, c) for p, c in pairs
                     if p is not None and c is not None]
            if not pairs:
                print(f"  {name}: no samples")
                continue
            q1, med_p, q3 = quartiles([p for p, _ in pairs])
            med_c = statistics.median(c for _, c in pairs)
            wins = sum((c > p) if higher else (c < p) for p, c in pairs)
            medians[name] = med_p, med_c
            rel = (med_c - med_p) / med_p * 100 if med_p else float("nan")
            print(f"  {name} ({m['unit']}, {m['better']} is better): "
                  f"{med_p:.4g} [{q1:.4g}–{q3:.4g}, IQR {q3 - q1:.3g}] → "
                  f"{med_c:.4g} ({rel:+.1f}%, {wins}/{len(pairs)} wins)")
        return medians

    print(f"A/B {args.workload}: parent {args.rev} vs change {ROOT}, "
          f"{args.pairs} pairs, seeds {args.seed0}–{args.seed0 + args.pairs - 1}"
          f"{', traced' if args.trace else ''}")
    medians = table(metrics, "metrics")
    print("bounds (OUTSIDE: the change median is worse than the parent's "
          "by more than the bound):")
    for m in metrics:
        if m["name"] not in medians:
            continue
        med_p, med_c = medians[m["name"]]
        worse = (med_p - med_c if m["better"] == "higher" else med_c - med_p)
        used = (worse / abs(med_p) if med_p
                else float("inf") if worse > 0 else 0.0)
        print(f"  {m['name']}: {'OUTSIDE' if used > m['bound'] else 'ok'} "
              f"({'worse' if used > 0 else 'better'} by {abs(used) * 100:.1f}%"
              f", bound {m['bound'] * 100:.0f}% worse)")
    if args.trace:
        print("per layer:")
        table(bench["per_layer"], "per_layer")
    if args.timings:
        print("replay timings (median over all cycles, seconds except "
              "counts such as folds): parent → change")
        reads = phase_medians(runs, lambda c: {
            k: c[k] for k in ("read_s", "asof_s") if k in c})
        for key, meds in list(phase_medians(runs).items()) + list(
                reads.items()):
            print(f"  {key}: " + " → ".join(
                "-" if m is None else f"{m:.4g}" for m in meds))
        print("setup.ray_start_s per run (Ray's start, before olrx code):")
        for side, rs in runs.items():
            starts = [r.get("record", {}).get("setup", {}).get("ray_start_s")
                      for r in rs]
            print(f"  {side}: " + ", ".join(
                f"seed {r['seed']} " + ("-" if v is None else f"{v:.3g}")
                for r, v in zip(rs, starts)))
    if any(cycle_mix(rs) for rs in runs.values()):
        print("tail cycle mix (pairs picked up per cycle; medians):")
        for side, rs in runs.items():
            print(f"  {side}: {cycle_mix(rs)}")
            for r in rs:
                print(f"    seed {r['seed']}: {cycle_mix([r])}")
    print("runs:")
    for side in ("parent", "change"):
        for r in runs[side]:
            vals = " ".join(f"{m['name']}={value(r, m['name'])}"
                            for m in metrics if m["name"] in r["metrics"])
            print(f"  {side} seed {r['seed']}"
                  f"{' (first)' if r['first'] else ''}: "
                  f"correct={r.get('correct')} failed={r.get('failed')} "
                  f"{vals}{' ' + r['error'] if 'error' in r else ''}")
    bad = [r for rs in runs.values() for r in rs
           if not r.get("correct") or r.get("failed", 1) != 0]
    if bad:
        print(f"{len(bad)} run(s) incorrect or with failed operations")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
