"""Built-in reference description of the (2,2) holomorphic Horn cone.

The closed cone of triples (A, B, C) in (R^4)^3 is cut out by:

  * the trace equality  a1+..+a4 + b1+..+b4 = c1+..+c4,
  * six chamber (dominance) inequalities  a1>=a2, a3>=a4, and likewise
    for B and C (the open holomorphic chamber additionally demands a
    strict gap a2 > a3, which closes to a consequence of the list), and
  * thirteen cross-block relations, recorded below verbatim.

This literal table is the ground truth the end-to-end verification
pipeline compares its computed hull against; any drift in the
enumeration, multiplicity, or polyhedral layers shows up as a mismatch
here.  Coordinates are (a1,a2,a3,a4, b1,b2,b3,b4, c1,c2,c3,c4); every
relation is stored as a primitive integer normal n with n.x >= 0 (or
n.x = 0 for the equality).
"""

from __future__ import annotations

from typing import Tuple

from .polyhedral import RationalCone

# a1+..+a4+b1+..+b4 = c1+..+c4
TRACE_EQUALITY: Tuple[int, ...] = (1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1)

# Weakly decreasing within each U(2) x U(2) block of A, B and C.
DOMINANCE_INEQUALITIES: Tuple[Tuple[int, ...], ...] = (
    (1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),  # a1 >= a2
    (0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0),  # a3 >= a4
    (0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0),  # b1 >= b2
    (0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0),  # b3 >= b4
    (0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0),  # c1 >= c2
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1),  # c3 >= c4
)

# The thirteen cross-block relations, as n.x >= 0 normals.
CROSS_INEQUALITIES: Tuple[Tuple[int, ...], ...] = (
    (-1, -1, 0, 0, -1, -1, 0, 0, 1, 1, 0, 0),  # a1+a2+b1+b2 <= c1+c2
    (0, -1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0),    # a2+b2 <= c2
    (0, -1, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0),    # a2+b1 <= c1
    (-1, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0),    # a1+b2 <= c1
    (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, -1, 0),     # a3+b3 >= c3
    (0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, -1),     # a3+b4 >= c4
    (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, -1),     # a4+b3 >= c4
    (0, -1, 0, -1, 0, -1, 0, -1, 1, 0, 0, 1),  # a2+a4+b2+b4 <= c1+c4
    (0, -1, 0, -1, 0, -1, 0, -1, 0, 1, 1, 0),  # a2+a4+b2+b4 <= c2+c3
    (0, -1, 0, -1, -1, 0, 0, -1, 1, 0, 1, 0),  # a2+a4+b1+b4 <= c1+c3
    (-1, 0, 0, -1, 0, -1, 0, -1, 1, 0, 1, 0),  # a1+a4+b2+b4 <= c1+c3
    (0, -1, 0, -1, 0, -1, -1, 0, 1, 0, 1, 0),  # a2+a4+b2+b3 <= c1+c3
    (0, -1, -1, 0, 0, -1, 0, -1, 1, 0, 1, 0),  # a2+a3+b2+b4 <= c1+c3
)

ALL_INEQUALITIES = DOMINANCE_INEQUALITIES + CROSS_INEQUALITIES


def reference_cone() -> RationalCone:
    """The (2,2) cone in H-representation, straight from the table."""
    return RationalCone(
        12,
        inequalities=ALL_INEQUALITIES,
        equalities=(TRACE_EQUALITY,),
    )

