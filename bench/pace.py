"""Machine-speed reference: a fixed kernel timed next to the measured work.

The shared 2-vCPU KVM guest the benchmark was tuned on changes its
single-thread speed by up to 1.9x, within a second and for minutes at a
time, and the change is close to uniform across kinds of code.  So the
benchmark times a fixed kernel after every PACE_EVERY_S seconds of requests
and reports request times scaled to a nominal machine, one on which the
kernel takes NOMINAL_S:

    scaled = wall * NOMINAL_S / mean kernel time just before and after it

In two sets of ten 20-s runs of each workload the raw request rate spread
0.06-0.28 (interquartile range over median) and the scaled rate 0.007-0.025.  The
samples that bracket a request track the host best: with the median of five
samples taken every 0.1 s instead, the p95 latency of scan spread 0.21, not
0.05.

The kernel uses only the standard library and numpy, never uplane, so a
change to the program moves the scaled times exactly as it moves wall times
at a fixed machine speed.  It mixes the kinds of work the CLI does: complex
arithmetic in Python loops, object and string churn, small numpy calls and
argparse.

Start-up time follows this kernel only over minutes: per launch their
correlation was 0.58, and a reference interpreter launch (importing a few
standard modules) tracked it no better.  So setup_s is scaled by the
median kernel time of the whole run.  Over eleven sets of ten runs the set
medians of raw set-up time ranged 0.41-0.61 s (1.47x), those of the scaled
set-up time 0.33-0.41 s (1.22x).
"""

import argparse
import math
import time

import numpy as np

#: kernel seconds on the nominal machine; the tuning host took 3.7-7.1 ms
NOMINAL_S = 0.004
#: seconds of requests between two kernel samples
PACE_EVERY_S = 0.02


def _complex_loop() -> complex:
    acc, z = 0j, complex(0.3, 0.7)
    for i in range(2400):
        z = z * z + complex(0.01 * (i % 7), -0.2)
        if abs(z) > 2.0:
            z = complex(0.1, 0.2)
        acc += z / (1.0 + abs(z))
    return acc


def _float_loop() -> float:
    s = 0.0
    for i in range(1, 1200):
        x = i * 1e-3
        s += math.exp(-x) * math.sin(x) + math.log1p(x) - math.sqrt(x)
    return s


def _objects() -> int:
    table = {}
    for i in range(300):
        table[f"k{i}"] = [i, float(i), (i, repr(i * 0.5))]
    text = ",".join(f"{k}={v[1]!r}" for k, v in table.items() if v[0] % 3)
    return len(text.split(","))


def _numpy() -> float:
    total = 0.0
    a = np.linspace(0.1, 1.6, 16) + 0.5j
    for i in range(28):
        total += float(np.abs(np.roots([1.0, 0.0, -a[i % 16], 1.0])).sum())
        m = np.outer(a[:4], a[4:8])
        total += float(np.abs(m @ m.conj().T).trace())
    return total


def _argparse() -> str:
    ap = argparse.ArgumentParser(prog="kernel")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for i in range(4):
        p = sub.add_parser(f"c{i}")
        p.add_argument("--x", type=float, required=True)
        p.add_argument("--y", default="a")
        p.add_argument("--n", type=int, default=3)
    return ap.parse_args(["c2", "--x", "2.5", "--n", "7"]).cmd


def kernel():
    """One pass of the reference work; its result is discarded."""
    return (_complex_loop(), _float_loop(), _objects(), _numpy(), _argparse())


def sample() -> float:
    """Wall seconds of one kernel pass."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factors(samples: list, segments: int) -> list:
    """Scale factor of each stretch of requests between consecutive samples.

    Stretch j lies between samples j and j + 1; its factor is NOMINAL_S over
    their mean.
    """
    return [2.0 * NOMINAL_S / (samples[j] + samples[j + 1]) for j in range(segments)]
