"""One line per benchmark workload request and per demo: exit code and digests of the output.

    python3 tools/outputs_digest.py > change.txt
    python3 tools/outputs_digest.py --root ../parent > parent.txt
    diff parent.txt change.txt

Runs `uplane.cli.main` in this process on every request of the workload streams of
`bench/workloads.py` (seeds 1-3 and cycles 0-11 unless told otherwise: 2,340 requests),
importing `uplane` from `<root>/src` and the streams from `<root>/bench`, where root
is this checkout or `--root`, so a checkout older than this script can be digested
too.  The family files are written to a temporary directory, which each line names
as `$DIR`, so two checkouts print the same line for the same output.  A line is
tab-separated: workload, seed, cycle, argv as JSON, exit code, and the first 16 hex
digits of the SHA-256 of stdout and of stderr.  A request that raises prints the
exception's type as its exit code and digests its message as stderr.

Each request runs twice in a row.  The first run is cold: where the checkout has
`uplane.curves._family_from_text` (one family per file content for the process), that
cache is cleared first, so the family and everything derived from it is built anew.
The second run is warm and reads what the first built.  The line digests the cold run;
if the warm output differs from it, the request's workload, seed, cycle and argv are
named on stderr and the script exits 1 after the last line.

Then each `<root>/demos/*.py` script runs in this process too, after the requests, and
prints one line: "demo", the script's file name, its exit code and the digests of its
stdout and stderr, in which the root reads as `$ROOT`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("scan", "signature", "anomaly", "fiber")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run(main, arg) -> tuple:
    """(exit code, stdout, stderr) of main(arg): an in-process CLI request or demo."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(arg)
        except SystemExit as exc:  # argparse rejects the argv, or a demo exits
            rc = exc.code
        except Exception as exc:  # a crash is an output too
            rc = type(exc).__name__
            err.write(str(exc))
    return rc, out.getvalue(), err.getvalue()


def _demo(path: Path) -> int:
    """Run one demo script as __main__; 0 unless it exits otherwise."""
    runpy.run_path(str(path), run_name="__main__")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and bench/ to run (default: this one)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--cycles", type=int, default=12, help="cycles 0 .. N-1 of each stream")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import uplane.cli
    import uplane.curves
    from bench import workloads

    if not Path(uplane.cli.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"uplane was imported from {uplane.cli.__file__}, not from {root / 'src'}")
    cache = getattr(uplane.curves, "_family_from_text", None)
    families, status = workloads.fixture_families(), 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, fam in families.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(fam, fh)
        for workload in WORKLOADS:
            for seed in args.seeds:
                stream = workloads.Stream(workload, seed, families, paths)
                for k in range(args.cycles):
                    for req in stream.cycle(k):
                        if cache is not None:
                            cache.cache_clear()
                        rc, out, err = cold = _run(uplane.cli.main, req["argv"])
                        shown = json.dumps(req["argv"]).replace(tmp, "$DIR")
                        if _run(uplane.cli.main, req["argv"]) != cold:
                            print(f"warm output differs from cold: {workload} {seed} {k} "
                                  f"{shown}", file=sys.stderr)
                            status = 1
                        print(workload, seed, k, shown, rc, _digest(out.replace(tmp, "$DIR")),
                              _digest(err.replace(tmp, "$DIR")), sep="\t")
    for path in sorted((root / "demos").glob("*.py")):
        rc, out, err = _run(_demo, path)
        print("demo", path.name, rc, _digest(out.replace(str(root), "$ROOT")),
              _digest(err.replace(str(root), "$ROOT")), sep="\t")
    return status


if __name__ == "__main__":
    sys.exit(main())
