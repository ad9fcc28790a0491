"""One end-to-end benchmark: search, pairwise training, and serving with writes.

Run every workload (or some) and print each end-to-end metric by name and
unit; the last stdout line is one JSON object with the run's verdict::

    python3 benchmarks/e2e/bench.py run [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

``--trace`` runs each workload untraced and then with the layer wrappers
installed, and reports the per-layer metrics instead (``trace.overhead`` is
the ratio of the two runs' headline times).  ``--out`` appends one JSON
record per workload run to ``FILE``.  Compare two such files::

    python3 benchmarks/e2e/bench.py compare A.jsonl B.jsonl

Each workload runs in its own subprocess with the BLAS thread pools pinned
to one thread.  See README.md for the workloads, metrics and findings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
RESULTS_DIR = E2E_DIR / "results"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Environment pinned for every workload process.  With the default BLAS
#: thread pools, search wall time spread about twice as wide.  With one
#: malloc arena per thread, which arena a reload's arrays land in depends on
#: thread scheduling, and the live server's peak RSS spread over 210-310 MB;
#: with one arena it stays within 160-190 MB at the same latency.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
    "PYTHONHASHSEED": "0",
}

#: Each workload (its untraced and traced run together) must finish
#: within this many seconds.
TIME_BUDGET_S = 175.0


class WorkloadError(RuntimeError):
    """A workload process failed or produced no result."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def workload_env() -> Dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_revision() -> str:
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown (not a git checkout)"


def environment() -> Dict[str, object]:
    """Cores, interpreter, numpy and BLAS, pinned thread variables, revision."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "pinned_env": dict(PINNED_ENV),
        "revision": git_revision(),
    }


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the machine, from ``/proc/stat``."""
    fields = [int(value) for value in Path("/proc/stat").read_text(encoding="ascii").split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def load_benchmark_file() -> Dict[str, object]:
    with BENCHMARK_FILE.open("r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Running workload processes
# ----------------------------------------------------------------------
def _stop_group(process: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """Kill whatever is left in a workload's process group and wait for it to go."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    process.wait()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> Dict[str, object]:
    """Run one workload in a subprocess and return its result record."""
    work = RESULTS_DIR / "work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    command = [
        sys.executable, str(E2E_DIR / "workloads.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--trace", str(trace),
        "--result", str(result_path), "--work", str(work),
    ]
    steal_before, total_before = cpu_ticks()
    process = subprocess.Popen(
        command, env=workload_env(), stdout=sys.stderr, stderr=sys.stderr, start_new_session=True
    )
    try:
        try:
            process.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise WorkloadError(f"{workload} did not finish within the time budget") from None
        finally:
            # Whatever the outcome, nothing the workload started outlives it.
            _stop_group(process)
        if process.returncode != 0 or not result_path.exists():
            raise WorkloadError(f"{workload} exited with status {process.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        steal_after, total_after = cpu_ticks()
        # Time the hypervisor ran something else on this machine's CPUs.
        result["host_steal_share"] = (steal_after - steal_before) / max(total_after - total_before, 1)
        if trace:
            traces = RESULTS_DIR / "traces" / f"{workload}-s{seed}"
            shutil.rmtree(traces, ignore_errors=True)
            shutil.copytree(work / "spans", traces)
            result["spans_dir"] = str(traces.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Settle the page cache now rather than during the next measurement.
        os.sync()
    expected = PER_LAYER if trace else END_TO_END
    if set(result["metrics"]) != set(expected):
        raise WorkloadError(f"{workload} emitted metrics {sorted(result['metrics'])}, expected {sorted(expected)}")
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> Dict[str, object]:
    """One untraced run; with ``trace``, a traced run after it as well."""
    untraced = run_workload(workload, seed, seconds, 0, deadline)
    if not trace:
        return untraced
    traced = run_workload(workload, seed, seconds, 1, deadline)
    traced["metrics"]["trace.overhead"]["value"] = traced["headline"] / untraced["headline"]
    traced["correct"] = traced["correct"] and untraced["correct"]
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    traced["untraced"] = {"metrics": untraced["metrics"], "headline": untraced["headline"]}
    return traced


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_result(result: Dict[str, object], out=sys.stdout) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {'traced' if result['trace'] else 'untraced'}): "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", file=out)
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {format_value(metric['value']):>14} {metric['unit']}", file=out)
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED: {check['check']} ({check['note']})", file=out)
    for premise in result["premises"]:
        if not premise["ok"]:
            print(f"  UNMEASURED: {premise['premise']} ({premise['note']})", file=out)
    print(f"  host CPU stolen by the hypervisor: {result['host_steal_share']:.1%}", file=out)
    detail = result["detail"]
    for key in ("search_s", "best_mrr", "fit_s", "valid_mrr", "p50_ms.low", "p50_ms.high",
                "p99_ms.high", "staleness_s", "server_cpu_ms_per_request"):
        if key in detail:
            print(f"  detail {key:<33} {format_value(detail[key]):>14}", file=out)
    for row in result.get("layer_table", [])[:12]:
        print(f"  layer {row['layer'] + '.' + row['span']:<34} {row['self_s']:>10.4f} s self "
              f"{row['share']:>7.1%}  {row['calls']} calls", file=out)


def summary_line(results: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The last stdout line: verdict, counts and every metric of the run."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{result['workload']}/{name}": metric
            for result in results for name, metric in result["metrics"].items()
        }
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def command_run(args: argparse.Namespace) -> int:
    # A SIGTERM unwinds through the cleanup in run_workload instead of
    # orphaning the workload's processes.
    signal.signal(signal.SIGTERM, lambda *_args: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    workloads = [name for group in args.workload or [] for name in group.split(",") if name]
    workloads = workloads or list(WORKLOADS)
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_benchmark_file()["run_seconds"]
    env = environment()
    results = []
    try:
        for workload in workloads:
            deadline = time.monotonic() + TIME_BUDGET_S
            result = measure(workload, args.seed, seconds, bool(args.trace), deadline)
            result.update(env=env, seconds=seconds)
            print_result(result)
            results.append(result)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(result) + "\n")
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary_line(results)))
    return 0 if all(result["correct"] for result in results) else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(before: Sequence[float], after: Sequence[float], bound: float, better: str) -> str:
    """better / same / worse / unresolved for ``after`` against ``before``.

    ``bound`` is the share of the ``before`` median by which the metric may
    move before it counts.  When either side's run-to-run spread exceeds the
    bound the verdict is unresolved, unless every run on one side beats
    every run on the other.
    """
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / abs(base)
    after_dominates = all(sign * (y - x) > 0 for x in before for y in after)
    before_dominates = all(sign * (x - y) > 0 for x in before for y in after)
    spread = max(relative_spread(before), relative_spread(after))
    if spread > bound:
        if after_dominates:
            return "better"
        if before_dominates:
            return "worse" if -change > bound else "same"
        return "unresolved"
    if change > bound or (after_dominates and change > spread):
        return "better"
    if -change > bound:
        return "worse"
    return "same"


def read_records(path: str) -> List[Dict[str, object]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare_rows(
    before: Sequence[Dict[str, object]], after: Sequence[Dict[str, object]], spec: Dict[str, object]
) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric present on both sides."""

    def values(records, workload, metric):
        return [
            float(record["metrics"][metric]["value"])
            for record in records
            if record["workload"] == workload and not record["trace"] and metric in record["metrics"]
        ]

    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for entry in spec["end_to_end"]:
            a, b = values(before, workload, entry["name"]), values(after, workload, entry["name"])
            if not a or not b:
                continue
            rows.append({
                "workload": workload,
                "metric": entry["name"],
                "unit": entry["unit"],
                "runs": f"{len(a)}/{len(b)}",
                "before": quartiles(a),
                "after": quartiles(b),
                "change": (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a)),
                "bound": entry["bound"],
                "verdict": verdict(a, b, entry["bound"], entry["better"]),
            })
    return rows


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def command_compare(args: argparse.Namespace) -> int:
    rows = compare_rows(read_records(args.before), read_records(args.after), load_benchmark_file())

    def spread(quartile_triple):
        low, middle, high = quartile_triple
        return f"{middle:.5g} [{low:.5g}, {high:.5g}]"

    print(f"{'workload':<15} {'metric':<17} {'runs':>5}  {'before median [q1, q3]':<32} "
          f"{'after median [q1, q3]':<32} {'change':>7} {'bound':>5}  verdict")
    for row in rows:
        print(f"{row['workload']:<15} {row['metric']:<17} {row['runs']:>5}  {spread(row['before']):<32} "
              f"{spread(row['after']):<32} {row['change']:>+7.1%} {row['bound']:>5.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] in ("worse", "unresolved") for row in rows) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", "--workloads", action="append",
                     help=f"workload(s) to run, repeatable or comma-separated (default: all of {', '.join(WORKLOADS)})")
    run.add_argument("--seed", type=int, default=0, help="workload input seed (default: 0)")
    run.add_argument("--seconds", type=float, help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1 (or bare --trace): report per-layer metrics from a traced run")
    run.add_argument("--out", help="append one JSON record per workload run to this file")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser("compare", help="compare two --out files metric by metric")
    compare.add_argument("before")
    compare.add_argument("after")
    compare.set_defaults(handler=command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
