"""Built-in fixture families, one per flavor count.

The nf = 0 member is the pure gauge curve y^2 = x^3 - u x^2 + x/4 brought to
the normal form 4x^3 - g2 x - g3 (discriminant u^2 - 1).  The nf = 1..3
members are synthetic: g2 = 3u^2 and g3 = u^3 + 2 r(u), a shape whose
discriminant -108 (u^3 + r) r + lower has exact degree nf + 2 with simple,
well-separated zeros.  The nf = 4 member is generic.  All five realize the
unconstrained configuration {(nf+2) I1, I(4-nf)*}.

isotrivial_family() is the fully-degenerate nf = 4 point g2 = 4u^2, g3 = u^3:
its j is constant, the discriminant 37 u^6 has one sextic zero, and the
configuration is {I0*, I0*}.
"""

from .curves import ComplexPoly, CurveFamily


def sample_family(nf: int) -> CurveFamily:
    """A fixture family with (nf+2) simple nodes and an I(4-nf)* fiber at infinity."""
    table = {
        0: ([-1.0, 0.0, 4.0 / 3.0], [0.0, -1.0 / 3.0, 0.0, 8.0 / 27.0]),
        1: ([0.0, 0.0, 3.0], [2.0, 0.0, 0.0, 1.0]),
        2: ([0.0, 0.0, 3.0], [-4.0, 2.0, 0.0, 1.0]),
        3: ([0.0, 0.0, 3.0], [-8.0, 0.0, 2.0, 1.0]),
        4: ([4.0, 0.0, 1.0], [1.0, -1.0, 0.0, 1.0]),
    }
    g2, g3 = table[nf]
    return CurveFamily(
        g2_poly=ComplexPoly.of(g2),
        g3_poly=ComplexPoly.of(g3),
        nf=nf,
        name=f"nf{nf}",
    )


def isotrivial_family() -> CurveFamily:
    """Constant-j family (all masses zero): g2 = 4u^2, g3 = u^3, Delta = 37u^6."""
    return CurveFamily(
        g2_poly=ComplexPoly.of([0.0, 0.0, 4.0]),
        g3_poly=ComplexPoly.of([0.0, 0.0, 0.0, 1.0]),
        nf=4,
        name="nf4-isotrivial",
    )


def coalesced_family() -> CurveFamily:
    """nf = 2 at the m_1 = m_2 = 0 point: pairs of nodes coalesce into I2.

    This is y^2 = (x^2 - 1)(x - u) in normal form; Delta = 64 (u^2 - 1)^2 has
    double zeros at u = +-1, so the configuration is {2 I2, I2*}.
    """
    return CurveFamily(
        g2_poly=ComplexPoly.of([4.0, 0.0, 4.0 / 3.0]),
        g3_poly=ComplexPoly.of([0.0, -8.0 / 3.0, 0.0, 8.0 / 27.0]),
        nf=2,
        name="nf2-coalesced",
        masses=(0j, 0j),
    )
