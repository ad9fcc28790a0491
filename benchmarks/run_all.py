"""Unified benchmark runner: one command, one ``BENCH_<area>.json`` per area.

Runs each registered standalone benchmark entry point (in ``--quick`` mode
by default) as a subprocess, prints a final per-area PASS/FAIL scoreboard,
and verifies that every run refreshed its machine-readable trajectory file
at the repo root::

    PYTHONPATH=src python benchmarks/run_all.py                 # all areas, quick
    PYTHONPATH=src python benchmarks/run_all.py --areas training query
    PYTHONPATH=src python benchmarks/run_all.py --full          # slower, tighter floors

Each area file has the shared schema written by
:func:`_helpers.write_bench_summary` (``schema_version`` / ``area`` /
``revision`` / ``config`` / ``metrics``), so comparing a file across
revisions — or across CI artifact uploads — gives the perf trajectory of
the project without re-running old checkouts.  A bench whose acceptance
assertion fails (e.g. pairwise training dropping below its speedup floor)
fails the whole run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from _helpers import BENCH_SCHEMA_VERSION, REPO_ROOT

BENCH_DIR = Path(__file__).resolve().parent

#: area -> benchmark script with a standalone ``main(--quick)`` entry point
#: that writes ``BENCH_<area>.json`` via ``_helpers.write_bench_summary``.
AREAS = {
    "training": "bench_training_throughput.py",
    "ranking": "bench_ranking_throughput.py",
    "query": "bench_query_throughput.py",
    "search": "bench_search_strategies.py",
    "dataset": "bench_dataset_pipeline.py",
    "serving": "bench_serving_load.py",
    "live": "bench_live_ingest.py",
    "obs": "obs_smoke.py",
}


def run_area(area: str, quick: bool) -> bool:
    """Run one area's benchmark; return whether it passed and wrote its file."""
    script = BENCH_DIR / AREAS[area]
    summary_path = REPO_ROOT / f"BENCH_{area}.json"
    stale_revision = None
    if summary_path.exists():
        try:
            stale_revision = json.loads(summary_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            stale_revision = None
        summary_path.unlink()

    command = [sys.executable, str(script)]
    if quick:
        command.append("--quick")
    # Children run with cwd=benchmarks/, so hand them the absolute src path
    # (a relative PYTHONPATH=src from the repo root would stop resolving).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    print(f"[{area}] {' '.join(command[1:])}", flush=True)
    completed = subprocess.run(command, cwd=BENCH_DIR, env=env)
    if completed.returncode != 0:
        print(f"[{area}] FAIL: exit code {completed.returncode}")
        return False

    if not summary_path.exists():
        print(f"[{area}] FAIL: {summary_path.name} was not written")
        return False
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        print(f"[{area}] FAIL: {summary_path.name} is not valid JSON ({error})")
        return False
    for field in ("schema_version", "area", "revision", "config", "metrics"):
        if field not in summary:
            print(f"[{area}] FAIL: {summary_path.name} is missing {field!r}")
            return False
    if summary["schema_version"] != BENCH_SCHEMA_VERSION or summary["area"] != area:
        print(f"[{area}] FAIL: {summary_path.name} has the wrong schema/area")
        return False
    if stale_revision is not None and stale_revision.get("revision") != summary["revision"]:
        print(f"[{area}] note: revision moved {stale_revision.get('revision')} "
              f"-> {summary['revision']}")
    print(f"[{area}] OK: wrote {summary_path.name}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--areas",
        nargs="+",
        choices=sorted(AREAS),
        default=sorted(AREAS),
        help="benchmark areas to run (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run without --quick (slower, tighter acceptance floors)",
    )
    args = parser.parse_args(argv)

    outcomes = [(area, run_area(area, quick=not args.full)) for area in args.areas]
    failures = [area for area, passed in outcomes if not passed]

    # Final scoreboard (hand-formatted: run_all deliberately imports no
    # repro code, so a broken src tree still reports per-area results).
    width = max(len("area"), max(len(area) for area, _ in outcomes))
    print(f"\n{'area'.ljust(width)}  result")
    print(f"{'-' * width}  ------")
    for area, passed in outcomes:
        print(f"{area.ljust(width)}  {'PASS' if passed else 'FAIL'}")

    if failures:
        print(f"FAIL: {len(failures)}/{len(args.areas)} areas failed: {', '.join(failures)}")
        return 1
    print(f"OK: {len(args.areas)} areas wrote BENCH_<area>.json at {REPO_ROOT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
