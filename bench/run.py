"""Benchmark of the uplane CLI: end-to-end metrics, or a per-layer trace.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    for w in scan signature anomaly fiber; do python3 bench/run.py --workload $w --seed 1 --seconds 20; done

Run from anywhere; the program is imported from `src/` of the checkout this
file sits in.  Tests of the benchmark's own code: `PYTHONPATH=src python -m
pytest -q bench/tests`.  The last line of stdout is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it print
every metric by name with its unit.

Load model: one closed-loop client in one thread of one fresh worker
process (`bench/worker.py`) per run; BLAS/OpenMP threads are pinned to 1.
The worker calls `uplane.cli.main(argv)` in-process with the argv lists of
`bench/workloads.py`; outputs are checked by `bench/checks.py` after the
timed phase.

End-to-end metrics (`--trace 0`).  Times are scaled to a nominal machine
speed by bench/pace.py, because the shared 2-vCPU KVM guest the benchmark
was tuned on changes its speed by up to 1.9x within a second and for
minutes at a time: each request time by a fixed kernel timed just before
and after it, setup_s by the median kernel time of the run.
  setup_s          median over SETUPS fresh workers of the time from launch
                   to ready: interpreter start, `import uplane.cli`, writing
                   the fixture family files.  A CLI user pays this per call.
  items_per_s      items completed per second of the request phase; an item
                   is an emitted grid point for scan, an evaluated base point
                   for anomaly, and a request for signature and fiber.
  latency_p50_ms   median time of one `cli.main` request.
  latency_tail_ms  95th percentile of request time; the number of requests
                   beyond it is printed with it.
  peak_rss_mb      ru_maxrss of the worker at the end of the run (not scaled).
failed_ratio (failed over attempted items) is printed with them, and is the
`failed`/`attempted` pair of the JSON line.  The unscaled wall values and the
kernel's own time are printed too; they are per-layer metrics (wall.*,
pace.kernel_ms).

`--trace 1` runs half the time untraced and half with bench/tracer.py
wrapping each layer, and reports the per-layer metrics listed in
tracer.PER_LAYER_UNITS: per-item calls and self time (scaled like the
end-to-end times) of each wrapped function, per-layer self time and errors,
derived counts, the tracing overhead, import times from `python -X
importtime`, and the untraced half's unscaled wall values.  The traced phase's
spans are kept in bench/out/<workload>/spans.jsonl.
"""

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import checks, pace, tracer, workloads  # noqa: E402

#: fresh workers launched per run; setup_s is their median
SETUPS = 7
IMPORTTIME_RUNS = 3
READY_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TAIL_PERCENTILE = 95


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start_worker(workload: str, seed: int, run_dir: Path):
    """Launch a worker and wait until it is ready; returns (process, setup seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.worker", "--workload", workload, "--seed", str(seed),
         "--dir", str(run_dir)],
        cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed to start (exit {proc.returncode})")
    return proc, setup_s


def run_worker(workload: str, seed: int, phases: list, run_dir: Path):
    """Set up SETUPS fresh workers, run the phases in the last; (setup times, result)."""
    setups, proc = [], None
    try:
        for i in range(SETUPS):
            proc, setup_s = start_worker(workload, seed, run_dir)
            setups.append(setup_s)
            if i < SETUPS - 1:
                proc.communicate("null\n", timeout=READY_TIMEOUT_S)
        budget = 4.0 * sum(p["seconds"] for p in phases) + 60.0
        out, _ = proc.communicate(json.dumps({"phases": phases}) + "\n", timeout=budget)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setups, json.loads(out.splitlines()[-1])


def import_times() -> dict:
    """Median import.* metrics over fresh `python -X importtime` interpreters."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import uplane.cli"],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=READY_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise BenchError(f"import of uplane.cli failed: {res.stderr.strip()[-500:]}")
        samples.append(tracer.parse_importtime(res.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def check_phases(result: dict):
    """Check every output; adds `completed` to each phase, returns (attempted, failed)."""
    checker = checks.Checker(result["families"])
    attempted = failed = 0
    for phase in result["phases"]:
        phase["completed"] = 0
        for rec in phase["records"]:
            a, c, f, problem = checker.check(rec["req"], rec["rc"], rec["out"], rec["error"])
            attempted += a
            failed += f
            phase["completed"] += c
            if problem and failed <= 20:
                print(f"check failed: {' '.join(rec['req']['argv'])}: {problem}", file=sys.stderr)
    return attempted, failed


def scaled_latencies(phase: dict) -> list:
    """Request latencies of a phase in seconds, scaled to the nominal machine."""
    samples = phase["pace_s"]
    f = pace.factors(samples, len(samples) - 1)
    return [r["latency_s"] * f[r["stretch"]] for r in phase["records"]]


def latency_stats(latencies_s: list) -> tuple:
    """(median, tail) in ms of request latencies, with the count beyond the tail."""
    lat = sorted(1e3 * t for t in latencies_s)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * len(lat))  # nearest-rank percentile
    return statistics.median(lat), lat[rank - 1], len(lat) - rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="uplane CLI benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_dir = ROOT / "bench" / "out" / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        phases = [{"seconds": args.seconds / 2.0, "trace": False},
                  {"seconds": args.seconds / 2.0, "trace": True}]
    else:
        phases = [{"seconds": args.seconds, "trace": False}]
    try:
        setups, result = run_worker(args.workload, args.seed, phases, run_dir)
        imports = import_times() if args.trace else None
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = check_phases(result)
    phases = result["phases"]
    scaled = [scaled_latencies(p) for p in phases]
    rates = [p["completed"] / sum(lat) for p, lat in zip(phases, scaled)]
    untraced = phases[0]
    kernel_s = statistics.median(untraced["pace_s"])
    wall = {
        "wall.items_per_s": untraced["completed"] / untraced["busy_s"],
        "wall.latency_p50_ms": latency_stats([r["latency_s"] for r in untraced["records"]])[0],
        "wall.setup_s": statistics.median(setups),
        "pace.kernel_ms": 1e3 * kernel_s,
    }

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{sum(len(p['records']) for p in phases)} requests, "
          f"{attempted} items attempted, {failed} failed")
    if args.trace:
        traced = phases[1]
        kinds = {i: r["req"]["kind"] for i, r in enumerate(traced["records"])}
        spans = tracer.load_spans(str(run_dir / "spans.jsonl"))
        values = tracer.summarize(spans, traced["completed"], kinds)
        # self times at the nominal machine speed, like the end-to-end times
        factor = pace.NOMINAL_S / statistics.median(traced["pace_s"])
        for name in values:
            if name.endswith(".self_s"):
                values[name] *= factor
        values["trace.overhead_ratio"] = rates[0] / rates[1] if rates[1] else 0.0
        values.update(imports)
        values.update(wall)
        units = tracer.PER_LAYER_UNITS
    else:
        p50, tail, beyond = latency_stats(scaled[0])
        values = {
            "setup_s": statistics.median(setups) * pace.NOMINAL_S / kernel_s,
            "items_per_s": rates[0],
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"  latency_tail_ms is p{TAIL_PERCENTILE} with {beyond} requests beyond it; "
              f"setup_s is the median of {[round(s, 3) for s in setups]} s, scaled")
        for name, value in wall.items():
            print(f"  {name:<48} {value:>16.6g}")
    for name in sorted(units):
        print(f"  {name:<48} {values[name]:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':<48} {failed / max(attempted, 1):>16.6g} ratio")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
