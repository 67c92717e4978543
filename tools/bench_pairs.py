"""Alternating benchmark runs of this checkout and a parent checkout, with a verdict per metric.

    python3 tools/bench_pairs.py --parent ../parent --workloads signature --pairs 10 \
        --claim signature:items_per_s

For each workload and seed, runs `bench/run.py --trace 0` of the parent and of this
checkout in N pairs, each from its own checkout root; the parent runs first in even
pairs and second in odd ones, so a drift of the machine's speed falls on both.  Every
run's JSON line is printed as it completes, prefixed by tree, workload, seed and pair.

Then one line per (workload, end-to-end metric of BENCHMARK.json): the parent's and
this checkout's median and quartiles over all pairs, the pairs this checkout won, the
relative median change (positive is better) and a verdict:
  pass        a claimed metric won at least 9 in 10 pairs, and its median moved the
              better way by more than the parent's interquartile range;
  fail        a claimed metric that does not pass, or another metric whose median is
              worse by more than its bound;
  ok          another metric within its bound;
  unresolved  another metric whose parent runs spread (IQR over median) wider than its
              bound, so no change within the bound can be told apart.
A last line per workload compares the failed share of items.  Exits 1 when any line
fails.  Reads BENCHMARK.json; writes nothing but its own stdout.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: share of pairs a claimed metric must win
WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of the values, linearly interpolated."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better: str, bound: float, claimed: bool) -> dict:
    """The comparison of one metric over paired runs: parent[i] and change[i] ran as pair i.

    `gain` is the relative change of the median, positive when it moved the `better`
    way ("higher" or "lower"); `spread` is the parent's IQR over its median."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    gain = sign * (cmed - pmed) / pmed
    spread = (p3 - p1) / pmed
    if claimed:
        passes = won >= math.ceil(WIN_SHARE * len(parent)) and sign * (cmed - pmed) > p3 - p1
        result = "pass" if passes else "fail"
    elif spread > bound:
        result = "unresolved"
    else:
        result = "fail" if -gain > bound else "ok"
    return {"parent": (p1, pmed, p3), "change": (c1, cmed, c3), "won": won,
            "pairs": len(parent), "gain": gain, "spread": spread, "verdict": result}


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line of one `bench/run.py` run of the checkout at root."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout root")
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="a claimed gain; may repeat")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {}  # (tree, workload) -> JSON lines, in pair order
    for workload in workloads:
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for tree in order:
                    line = run(trees[tree], workload, seed, seconds)
                    runs.setdefault((tree, workload), []).append(line)
                    print(f"{tree}\t{workload}\t{seed}\t{pair}\t{json.dumps(line)}", flush=True)
    failed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = ([line["metrics"][name]["value"] for line in runs[tree, workload]]
                              for tree in ("parent", "change"))
            v = verdict(parent, change, metric["better"], metric["bound"],
                        f"{workload}:{name}" in args.claim)
            failed |= v["verdict"] == "fail"
            (p1, pmed, p3), (c1, cmed, c3) = v["parent"], v["change"]
            print(f"{workload}\t{name}\tparent {pmed:.6g} [{p1:.6g}, {p3:.6g}]\t"
                  f"change {cmed:.6g} [{c1:.6g}, {c3:.6g}]\twon {v['won']}/{v['pairs']}\t"
                  f"gain {v['gain']:+.2%}\tparent spread {v['spread']:.2%}\t{v['verdict']}")
        shares = {tree: sum(line["failed"] for line in runs[tree, workload])
                  / max(sum(line["attempted"] for line in runs[tree, workload]), 1)
                  for tree in trees}
        worse = shares["change"] > shares["parent"]
        failed |= worse
        print(f"{workload}\tfailed_ratio\tparent {shares['parent']:.6g}\tchange "
              f"{shares['change']:.6g}\t{'fail' if worse else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
