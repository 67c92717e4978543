# Global anomaly of the determinant lines: numeric parallel transport around
# nodes reproduces the exact rational log-monodromies, the sixth tensor power
# trivializes, curvature residues total 2, and the monodromies assemble into
# the surface signature.

from uplane import (
    AT_INFINITY,
    Chart,
    LoopSpec,
    Operator,
    Orientation,
    canonical_trivialization_check,
    curvature_ledger,
    find_singular_fibers,
    sample_family,
    signature_from_monodromy,
)
from uplane.holonomy import holonomy

fam = sample_family(2)
print(f"family {fam.name}: nodes at", [f"{z:.3f}" for z, _ in find_singular_fibers(fam)])

print()
print("clockwise loops around each node:")
for z, _ in find_singular_fibers(fam):
    loop = LoopSpec(center=z, radius=0.3, orientation=Orientation.CLOCKWISE)
    for op in (Operator.DBAR, Operator.SIGNATURE):
        r = holonomy(op, fam, loop)
        print(
            f"  {op.value:>9} @ {z:.2f}: eta = {r.log_monodromy},"
            f" phase = {r.phase:.9f} (numeric vs exact {abs(r.phase - r.phase_exact):.1e})"
        )

print()
loop_inf = LoopSpec(center=0, radius=0.2, orientation=Orientation.CLOCKWISE, chart=Chart.V)
r = holonomy(Operator.SIGNATURE, fam, loop_inf)
print(f"loop around infinity (v-chart): eta0 = {r.log_monodromy} = -2(10-nf)/3")
print("6th power trivial around a node:", canonical_trivialization_check(
    fam, LoopSpec(center=1.0, radius=0.3, orientation=Orientation.CLOCKWISE)))

print()
led = curvature_ledger(fam)
print("curvature residues:")
for loc, res in led.residues:
    where = "infinity" if loc is AT_INFINITY else f"{loc:.3f}"
    print(f"  {where:>16}: {res}")
print(f"  total = {led.total} (numeric residue error {led.max_numeric_error:.1e})")

print()
for nf in range(5):
    print(f"signature via monodromy, nf={nf}: {signature_from_monodromy(sample_family(nf))}")
