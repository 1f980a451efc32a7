"""Time openmap's transfer_matrix over a fixed (N, M) ladder and write a BENCH file.

    python3 tools/ladder.py --column change --out BENCH_<n>.json
    python3 tools/ladder.py --column parent --src <other checkout>/src --out BENCH_<n>.json
    python3 tools/ladder.py --rungs 2 --seconds 0.2 --out ladder.json   # smoke run

Each rung builds the canonical joint basis and one seeded Haar unitary, traces
the allocations of one call (peak above the start, result included), then
calls ``transfer_matrix`` in a closed loop for ``--seconds`` with tracing off.
It records the median and quartiles of the per-call wall time, the process
CPU time over the loop's wall time (above 1 when BLAS ran a second thread),
and minor page faults per call. ``--rungs K`` runs only the K smallest rungs.

The output has one column per measured version of the code: ``--src`` says
which ``src`` directory to import openmap from (default: this checkout's), and
``--column`` names it. Writing into an existing file replaces that column on
the rungs just run and keeps everything else, so a parent and a change
measured on one machine sit side by side. The document is checked against the
schema (``check``) before it is written; the script exits 1 on a schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "openmap-ladder/1"
LAYER = "superop.transfer_matrix"
LADDER = [(2, 2), (2, 4), (3, 3), (2, 8), (4, 4), (3, 8), (2, 16)]
SEED = 1  # with the rung's dims, seeds its Haar unitary
WARMUP_CALLS = 3
MIN_CALLS = 5
STATS = {  # field -> type; all are non-negative
    "calls": int,
    "median_ms": float,
    "q1_ms": float,
    "q3_ms": float,
    "cpu_wall_ratio": float,
    "minflt_per_call": float,
    "peak_alloc_mb": float,
}
ENVIRONMENT = ("nproc", "numpy", "python", "blas_threads")


def import_openmap(src: Path):
    """openmap from src, refusing a copy imported from anywhere else."""
    sys.path.insert(0, str(src))
    import openmap

    where = Path(openmap.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"ladder: openmap was imported from {where}, not from {src}")
    return openmap


def environment() -> dict:
    sys.path.insert(0, str(ROOT))
    from perfbench.run import environment as perfbench_environment

    return perfbench_environment()


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def measure(openmap, dims: tuple[int, int], seconds: float) -> dict:
    """The STATS of transfer_matrix at one rung."""
    basis = openmap.canonical_joint_basis(dims)
    u = haar_unitary(np.random.default_rng([SEED, *dims]), dims[0] * dims[1])
    for _ in range(WARMUP_CALLS):
        openmap.transfer_matrix(u, basis)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        openmap.transfer_matrix(u, basis)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cpu, wall = time.process_time(), time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - wall < seconds:
        start = time.perf_counter()
        openmap.transfer_matrix(u, basis)
        times.append(time.perf_counter() - start)
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    q1, median, q3 = (1e3 * float(q) for q in np.quantile(times, [0.25, 0.5, 0.75]))
    return {
        "calls": len(times),
        "median_ms": median,
        "q1_ms": q1,
        "q3_ms": q3,
        "cpu_wall_ratio": cpu / wall,
        "minflt_per_call": faults / len(times),
        "peak_alloc_mb": peak / 2**20,
    }


def check(doc: dict) -> None:
    """Raise ValueError unless doc follows the ladder schema."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"ladder schema: {what}")

    need(isinstance(doc, dict), "the document is not an object")
    need(doc.get("schema") == SCHEMA, f"schema is not {SCHEMA!r}")
    need(doc.get("layer") == LAYER, f"layer is not {LAYER!r}")
    columns = doc.get("columns")
    need(isinstance(columns, dict) and columns, "columns is not a non-empty object")
    for name, meta in columns.items():
        need(isinstance(meta, dict), f"column {name!r} is not an object")
        need(isinstance(meta.get("src"), str), f"column {name!r} has no src")
        need(isinstance(meta.get("seed"), int), f"column {name!r} has no integer seed")
        need(isinstance(meta.get("seconds_per_rung"), (int, float)), f"column {name!r} has no seconds_per_rung")
        env = meta.get("environment")
        need(isinstance(env, dict) and all(k in env for k in ENVIRONMENT),
             f"column {name!r} environment lacks one of {ENVIRONMENT}")
    rungs = doc.get("rungs")
    need(isinstance(rungs, list) and rungs, "rungs is not a non-empty list")
    seen, used = [], set()
    for rung in rungs:
        need(isinstance(rung, dict), "a rung is not an object")
        dims = tuple(rung.get("dims", ()))
        need(dims in LADDER, f"rung dims {dims} are not on the ladder {LADDER}")
        need(dims not in seen, f"rung {dims} appears twice")
        seen.append(dims)
        for name, stats in rung.items():
            if name == "dims":
                continue
            need(name in columns, f"rung {dims} has undeclared column {name!r}")
            used.add(name)
            need(isinstance(stats, dict) and set(stats) == set(STATS),
                 f"rung {dims} column {name!r} fields are not {sorted(STATS)}")
            for field, kind in STATS.items():
                value = stats[field]
                need(isinstance(value, kind) and not isinstance(value, bool) and value >= 0,
                     f"rung {dims} column {name!r} {field} is not a non-negative {kind.__name__}")
            need(stats["calls"] >= 1, f"rung {dims} column {name!r} made no calls")
            need(stats["q1_ms"] <= stats["median_ms"] <= stats["q3_ms"],
                 f"rung {dims} column {name!r} quartiles are out of order")
    need(seen == sorted(seen, key=LADDER.index), "rungs are not in ladder order")
    need(used == set(columns), f"columns {sorted(set(columns) - used)} have no rung")


def merge(doc: dict | None, column: str, meta: dict, results: dict) -> dict:
    """doc with column set to meta and to results on the rungs measured."""
    doc = doc or {"schema": SCHEMA, "layer": LAYER, "columns": {}, "rungs": []}
    doc["columns"][column] = meta
    rungs = {tuple(r["dims"]): r for r in doc["rungs"]}
    for dims, stats in results.items():
        rungs.setdefault(dims, {"dims": list(dims)})[column] = stats
    doc["rungs"] = [rungs[dims] for dims in LADDER if dims in rungs]
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to create or update")
    parser.add_argument("--column", default="change", help="name of the column to write")
    parser.add_argument("--src", type=Path, default=Path(os.path.relpath(ROOT / "src")),
                        help="directory openmap is imported from")
    parser.add_argument("--rungs", type=int, choices=range(1, len(LADDER) + 1), default=len(LADDER),
                        metavar=f"1..{len(LADDER)}", help="run only this many of the smallest rungs")
    parser.add_argument("--seconds", type=float, default=2.0, help="timed loop per rung")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        old = json.loads(args.out.read_text()) if args.out.exists() else None
        if old is not None:
            check(old)
    except ValueError as exc:  # json.JSONDecodeError is one
        print(f"ladder: {args.out} cannot be updated: {exc}", file=sys.stderr)
        return 1
    openmap = import_openmap(args.src)
    meta = {"src": str(args.src), "seed": SEED, "seconds_per_rung": args.seconds,
            "environment": environment()}
    results = {}
    for dims in LADDER[: args.rungs]:
        results[dims] = stats = measure(openmap, dims, args.seconds)
        print(f"{args.column} {dims}: median {stats['median_ms']:.4g} ms "
              f"[{stats['q1_ms']:.4g}, {stats['q3_ms']:.4g}] over {stats['calls']} calls, "
              f"cpu/wall {stats['cpu_wall_ratio']:.2f}, {stats['minflt_per_call']:.1f} faults/call, "
              f"peak {stats['peak_alloc_mb']:.3g} MB")
    doc = merge(old, args.column, meta, results)
    try:
        check(doc)
    except ValueError as exc:
        print(f"ladder: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
