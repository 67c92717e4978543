"""Benchmark worker: one fresh interpreter that serves one workload run.

Run as `python -m bench.worker --workload W --seed N --dir D` from the repo
root with `src` on PYTHONPATH.  Set-up is importing `uplane.cli` and writing
the fixture family files into D; the worker then prints `ready` and reads
one JSON line from stdin: `null` ends it, otherwise
`{"phases": [{"seconds": s, "trace": bool}, ...]}` runs each phase as a
closed loop (one request at a time, in this thread) over whole cycles of the
workload's request stream until the phase has measured at least s seconds.
The result, one JSON object, goes to stdout; the traced phase's spans go to
D/spans.jsonl.
"""

import argparse
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import uplane.cli

from bench import pace, workloads
from bench.tracer import Tracer


def _call(argv: list):
    """(exit code, stdout, error, seconds) of one in-process CLI request; stderr is dropped."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = time.perf_counter()
    try:
        rc = uplane.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception as exc:  # the bare asserts surface here as AssertionError
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), error, elapsed


def run_phase(stream, seconds: float, tracer: Tracer = None) -> dict:
    """Closed loop over whole cycles until at least `seconds` of requests are measured.

    The pace kernel is timed before the first request, after every
    pace.PACE_EVERY_S seconds of requests and after the last; a record's
    `stretch` is the number of samples taken before it minus one.
    """
    records, busy, since, k = [], 0.0, 0.0, 0
    samples = [pace.sample()]
    while busy < seconds:
        cycle = stream.cycle(k)
        k += 1
        for req in cycle:
            if tracer is not None:
                tracer.request = len(records)
            rc, out, error, elapsed = _call(req["argv"])
            records.append({"req": req, "rc": rc, "out": out, "error": error,
                            "latency_s": elapsed, "stretch": len(samples) - 1})
            busy += elapsed
            since += elapsed
            if since >= pace.PACE_EVERY_S:
                samples.append(pace.sample())
                since = 0.0
        # Keep the records out of later collections: a CLI process serves one
        # request, so its collector never walks thousands of earlier results.
        gc.collect()
        gc.freeze()
    samples.append(pace.sample())
    return {"records": records, "busy_s": busy, "pace_s": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    if not Path(uplane.cli.__file__).resolve().is_relative_to(Path("src").resolve()):
        sys.exit(f"uplane was imported from {uplane.cli.__file__}, not from ./src")

    families = workloads.fixture_families()
    paths = {}
    for name, fam in families.items():
        paths[name] = os.path.join(args.dir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(fam, fh)
    print("ready", flush=True)

    spec = json.loads(sys.stdin.readline() or "null")
    if spec is None:
        return 0
    stream = workloads.Stream(args.workload, args.seed, families, paths)
    pace.sample()  # the kernel's first pass loads lazily imported numpy parts
    phases = []
    for phase in spec["phases"]:
        if phase["trace"]:
            with Tracer() as tracer:
                phases.append(run_phase(stream, phase["seconds"], tracer))
            tracer.dump(os.path.join(args.dir, "spans.jsonl"))
        else:
            phases.append(run_phase(stream, phase["seconds"]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump({"phases": phases, "families": families, "peak_rss_mb": peak_rss_mb}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
