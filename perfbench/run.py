"""Run one openmap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: the program under test is the checkout's
``src/openmap``, imported from source, and the run stops with an error when
it is missing. Workloads are listed in ``metrics.WORKLOADS``.

With ``--trace 0`` the run sets the workload up, times tasks for ``--seconds``
of task time (at least MIN_TASKS of them), checks every output outside the
timed region, and times SETUP_REPEATS fresh set-ups in child processes for
``setup_s``; the result carries the END_TO_END metrics and the table also
shows the REPORTED ones (see ``metrics.py``). With ``--trace 1`` it runs
each input twice, once untraced and once with spans recorded around every
layer call, until the untraced runs reach half of ``--seconds``, and reports
the per-layer metrics. Either way the output is a table of metrics with
units, a report line with the environment, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()  # as near to process start as the script gets

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_TASKS = 100  # so that at least ten latencies lie beyond p90
SETUP_REPEATS = 5
WARMUP_TASKS = 2
TASK_DEADLINE_S = 120  # no task starts later than this after process start
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Budget:
    seconds: float
    min_tasks: int = MIN_TASKS
    repeats: int = SETUP_REPEATS  # fresh set-ups for setup_s, and subprocess probes


@dataclass
class Timed:
    """What one closed loop measured."""

    latencies: list[float] = field(default_factory=list)
    busy: float = 0.0  # seconds inside tasks
    cpu: float = 0.0  # process CPU seconds inside tasks
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def import_openmap() -> None:
    """Import openmap from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import openmap
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import openmap from {src}: {exc}") from exc
    where = Path(openmap.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: openmap was imported from {where}, not from {src}")


def prepare(name: str, seed: int, workdir: Path, repeats: int, tracer=None):
    """Set a workload up and warm it up; spans go to tracer when given."""
    from perfbench.spans import NULL_TRACER
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir, ROOT, repeats)
    wl.t = tracer or NULL_TRACER
    wl.setup()
    wl.t = NULL_TRACER
    for _ in range(WARMUP_TASKS):
        wl.task(wl.next_input())
    return wl


def _check(wl, inp, out) -> list[str]:
    try:
        return wl.check(inp, out)
    except Exception as exc:  # a malformed output is a failed task, not a crashed run
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_task(wl, inp, timed: Timed, tracer=None) -> None:
    """Run, time and check one task; with a tracer, record its spans and probes."""
    from perfbench.spans import NULL_TRACER

    if tracer is not None:
        tracer.phase, tracer.task = "task", len(timed.latencies)
        wl.t = tracer
    error = out = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            out = wl.task(inp)
        else:
            with tracer.counting_linalg():
                out = tracer.call("task", wl.task, inp)
    except Exception as exc:  # counted in failure_rate; the loop goes on
        error = f"task raised {type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    timed.latencies.append(t1 - t0)
    timed.busy += t1 - t0
    timed.cpu += c1 - c0
    if tracer is not None and error is None:
        tracer.phase = "probe"
        wl.probe(inp, out)
    wl.t = NULL_TRACER
    problems = [error] if error else _check(wl, inp, out)
    if problems:
        timed.failed += 1
        timed.failures.extend(problems[:3])


def _more(timed: Timed, seconds: float, min_tasks: int) -> bool:
    if time.monotonic() - PROCESS_START > TASK_DEADLINE_S:
        return False
    return timed.busy < seconds or len(timed.latencies) < min_tasks


def closed_loop(wl, seconds: float, min_tasks: int) -> Timed:
    """Run tasks one after another, each starting when the previous returned.

    Inputs are drawn until `seconds` of task time and `min_tasks` tasks are
    reached. Only the task itself is timed; input generation and the output
    checks are not.
    """
    timed = Timed()
    while _more(timed, seconds, min_tasks):
        run_task(wl, wl.next_input(), timed)
    return timed


def paired_loop(wl, seconds: float, tracer) -> tuple[Timed, Timed]:
    """Run each input untraced and traced, alternating which goes first.

    Pairing the two runs of an input keeps the machine's drift out of
    trace_overhead; alternating the order cancels the warm caches the second
    run of an input finds.
    """
    plain, traced = Timed(), Timed()
    while _more(plain, seconds, 1):
        inp = wl.next_input()
        first_traced = len(plain.latencies) % 2 == 1
        for use_tracer in (first_traced, not first_traced):
            if use_tracer:
                run_task(wl, inp, traced, tracer)
            else:
                run_task(wl, inp, plain)
    return plain, traced


def setup_samples(name: str, seed: int, repeats: int) -> list[float]:
    """Seconds from spawning a fresh workload process to its first timed task."""
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def end_to_end(timed: Timed, setup: list[float]) -> dict[str, float]:
    """The END_TO_END metrics and then the REPORTED ones."""
    n = len(timed.latencies)
    return {
        "setup_s": float(np.median(setup)),
        "tasks_per_s": n / timed.busy,
        "cpu_ms_per_task": 1e3 * timed.cpu / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "task_p50_ms": 1e3 * float(np.median(timed.latencies)),
        "task_p90_ms": 1e3 * float(np.percentile(timed.latencies, 90)),
        "failure_rate": timed.failed / n,
    }


def per_layer(wl, tracer, plain: Timed, traced: Timed) -> dict[str, float]:
    from perfbench.metrics import PER_LAYER
    from perfbench.spans import summarize

    n = len(traced.latencies)
    running = summarize(tracer.spans, ("task", "probe"))
    setup = summarize(tracer.spans, ("setup",))
    readers = (
        (".busy_ms", running, lambda busy, calls: 1e3 * busy / n),
        (".calls", running, lambda busy, calls: calls / n),
        (".setup_ms", setup, lambda busy, calls: 1e3 * busy),
    )
    values = {}
    for spec in PER_LAYER:
        for suffix, table, read in readers:
            if spec.name.endswith(suffix):
                values[spec.name] = read(*table.get(spec.name[: -len(suffix)], (0.0, 0)))
    values["analysis.linalg_calls_per_task"] = tracer.linalg["analysis"] / n
    values["trace_overhead"] = (traced.busy / n) / (plain.busy / len(plain.latencies))
    values.update(wl.layer_metrics())
    return {spec.name: values.get(spec.name, 0.0) for spec in PER_LAYER}


def run(name: str, seed: int, budget: Budget, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and a report of the details."""
    from perfbench.metrics import END_TO_END, PER_LAYER, REPORTED
    from perfbench.spans import Tracer

    tracer = Tracer() if trace else None
    own_setup_start = time.monotonic()
    wl = prepare(name, seed, workdir, budget.repeats, tracer)
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "own_setup_s": time.monotonic() - own_setup_start}
    if trace:
        plain, traced = paired_loop(wl, budget.seconds / 2, tracer)
        gated, loops = PER_LAYER, (plain, traced)
        values = per_layer(wl, tracer, plain, traced)
    else:
        timed = closed_loop(wl, budget.seconds, budget.min_tasks)
        setup = setup_samples(name, seed, budget.repeats)
        gated, loops = END_TO_END, (timed,)
        values = end_to_end(timed, setup)
        report["setup_samples_s"] = setup
        report["latency_samples"] = len(timed.latencies)
        report["metrics"] = {m.name: {"value": values[m.name], "unit": m.unit} for m in REPORTED}
    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    report["failures"] = [msg for loop in loops for msg in loop.failures][:10]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in gated},
    }
    return result, report


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "note": "no machine setting was changed for the measurement; BLAS ran with its default threads",
    }


def main(argv: list[str] | None = None) -> int:
    import_openmap()
    from perfbench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, workdir, SETUP_REPEATS)
            print(repr(time.monotonic()))
            return 0
        result, report = run(args.workload, args.seed, Budget(args.seconds), bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} tasks, {result['failed']} failed")
    rows = {**result["metrics"], **report.get("metrics", {})}
    for name, m in rows.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for message in report["failures"]:
        print(f"  failure: {message}", file=sys.stderr)
    report["environment"] = environment()
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
