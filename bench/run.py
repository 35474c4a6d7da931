"""Run one cograph benchmark workload and print its metrics.

    python3 bench/run.py --workload cora-gcn-dice --seed 0 --seconds 20 --trace 0

Run from a checkout's root; the library is imported from its ``src``
directory and nowhere else. With ``--trace 0`` the pipeline repeats until
``--seconds`` have passed (at least twice, for the reproducibility check)
and the end-to-end metrics are reported. With ``--trace 1`` one untraced
and one traced repeat run, and the per-layer metrics are reported; the
spans go to ``.bench_out/trace-<workload>-<seed>.jsonl.gz``. The last
line of standard output is the result object; the line before it is a
record of the environment, the inputs and the digests.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads (inputs, workloads and cograph
# import it): sweep-small's two pool workers then use exactly two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_REPEATS = 2
# Set-ups run before every repeat rather than all at the start, so that
# setup_s samples the whole run, as wall_s does; setup_s is their median.
SETUPS_PER_REPEAT = 5


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_library():
    """Import cograph from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cograph = importlib.import_module("cograph")
    if not Path(cograph.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cograph resolved to {cograph.__file__}, outside {SRC}")


def fresh_import() -> None:
    """Drop every cograph module and import the package again, with the
    experiment module that pulls in the rest (as the CLI does)."""
    for name in [m for m in sys.modules if m == "cograph" or m.startswith("cograph.")]:
        del sys.modules[name]
    importlib.import_module("cograph")
    importlib.import_module("cograph.experiment")


def catalogue_mismatch() -> str | None:
    """Names, units and directions in BENCHMARK.json versus metrics.py."""
    import metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expected = {name: row[:2] for name, row in table.items()}
        if declared != expected:
            return f"BENCHMARK.json {key} disagrees with bench/metrics.py"
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        try:
            return config["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Own peak plus the largest reaped child's peak (ru_maxrss is in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed_setups(wl, count: int):
    """Times of count set-ups (fresh import + build) and the last graph."""
    times, g = [], None
    for _ in range(count):
        g = None  # hold one graph at a time
        t0 = time.perf_counter()
        fresh_import()
        g = wl.build()
        times.append(time.perf_counter() - t0)
    return times, g


def repeat(wl, g):
    """One timed repeat of the pipeline and its checked outcome."""
    from workloads import Outcome

    gc.collect()  # start every repeat without the last one's cyclic garbage
    t0 = time.perf_counter()
    try:
        result = wl.run(g)
    except Exception:  # noqa: BLE001 -- a crashed repeat is a failed attempt
        traceback.print_exc()
        return time.perf_counter() - t0, Outcome.crashed()
    wall = time.perf_counter() - t0
    return wall, wl.check(result)


def tally(outcomes) -> tuple[int, int]:
    """(attempted, failed); a repeat whose digest of predictions, history or
    report files differs from the first repeat's is one more failure."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failed += sum(o.digest != outcomes[0].digest for o in outcomes)
    return attempted, failed


def measure(wl, seconds: float) -> tuple[dict, dict]:
    setups, walls, outcomes = [], [], []
    began = time.perf_counter()
    while len(walls) < MIN_REPEATS or time.perf_counter() - began < seconds:
        times, g = timed_setups(wl, SETUPS_PER_REPEAT)
        setups += times
        wall, outcome = repeat(wl, g)
        del g
        walls.append(wall)
        outcomes.append(outcome)
    attempted, failed = tally(outcomes)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    for key in outcomes[0].acc:
        values[key] = statistics.median(o.acc[key] for o in outcomes)
    info = {
        "attempted": attempted,
        "failed": failed,
        "setups_s": setups,
        "walls_s": walls,
        "digests": [o.digest for o in outcomes],
    }
    return values, info


def measure_traced(wl, seed: int) -> tuple[dict, dict]:
    import metrics
    from spans import Tracer, layer_metrics

    _, g = timed_setups(wl, 1)
    untraced_wall, reference = repeat(wl, g)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run = 0  # set-up
        g = wl.build()
        tracer.run = 1  # pipeline
        traced_wall, traced = repeat(wl, g)
    finally:
        tracer.uninstall()
    outcomes = [reference, traced]
    attempted, failed = tally(outcomes)
    values = layer_metrics(tracer.spans, metrics.KINDS, os.getpid(), pipeline_run=1)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["check.digest_variants"] = len({o.digest for o in outcomes})
    path = OUT / f"trace-{wl.name}-{seed}.jsonl.gz"
    tracer.write(path)
    info = {
        "attempted": attempted,
        "failed": failed,
        "untraced_wall_s": untraced_wall,
        "trace_file": str(path.relative_to(ROOT)),
        "digests": [o.digest for o in outcomes],
    }
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cograph" / "__init__.py").is_file():
        return fail(f"no library sources at {SRC}; run from a full checkout")
    try:
        import_library()
    except ImportError as exc:
        return fail(f"cannot import cograph: {exc}")
    mismatch = catalogue_mismatch()
    if mismatch:
        return fail(mismatch)

    import metrics
    from inputs import graph_stats
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        stats = graph_stats(wl.build())
        if args.trace:
            values, info = measure_traced(wl, args.seed)
            table = metrics.PER_LAYER
        else:
            values, info = measure(wl, args.seconds)
            table = metrics.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "inputs": stats,
        **info,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
