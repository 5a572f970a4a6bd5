"""Closed-form game values for paths, cycles and dominated path pieces.

Includes the quarter-integer weighting of partially dominated paths, the
disjoint-union bound built on it, and the symbolic residue tables for
tadpole and two-tailed tadpole bounds.  All arithmetic is exact; weights
live in integer quarter units so ceilings never touch floating point.
"""

import enum
from dataclasses import dataclass


class PiecePrimeKind(enum.Enum):
    PRIME = "prime"           # path on n+1 vertices, one end dominated
    DOUBLE_PRIME = "double"   # path on n+2 vertices, both ends dominated


_WEIGHT_QUARTERS_BY_RESIDUE = (0, 4, 6, 7)  # 0, 1, 3/2, 7/4


def weight(n: int) -> int:
    """Weight of a one-end or two-end dominated path piece of parameter n,
    as a count of quarters."""
    if n < 0:
        raise ValueError("length parameter must be nonnegative")
    q, r = divmod(n, 4)
    return 8 * q + _WEIGHT_QUARTERS_BY_RESIDUE[r]


def path_cycle_gamma_g(n: int, kind: str) -> int:
    """Game domination number of a path (n >= 1) or cycle (n >= 3)."""
    if kind not in ("path", "cycle"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "path" and n < 1:
        raise ValueError("path needs n >= 1")
    if kind == "cycle" and n < 3:
        raise ValueError("cycle needs n >= 3")
    half = -(-n // 2)
    return half - 1 if n % 4 == 3 else half


def partial_path_values(n: int, kind: PiecePrimeKind) -> tuple:
    """(D-game, S-game) values of a dominated path piece; kind-independent."""
    if n < 0:
        raise ValueError("length parameter must be nonnegative")
    half = -(-n // 2)
    gg = half - 1 if n % 4 == 3 else half
    ggs = half + 1 if n % 4 == 2 else half
    return gg, ggs


def union_lemma_bound(pieces) -> int:
    """Ceiling of the summed weights of disjoint dominated path pieces.

    Upper-bounds the S-game value of the disjoint union.
    """
    return -(-sum(weight(n) for n, _kind in pieces) // 4)


def tadpole_table_row(x: int, y: int) -> tuple:
    """Residue-case constants for the tadpole bound.

    For tail parameter 4k+x+1 and cycle 4l+y+3 the bound is
    1 + ceil(w(4k+x) + w(4l+y)) = 2k+2l+c1, the order is 4k+4l+c2 and
    its half-ceiling is 2k+2l+c3.  Returns (c1, c2, c3).
    """
    if not (0 <= x <= 3 and 0 <= y <= 3):
        raise ValueError("residues must lie in 0..3")
    quarters = weight(x) + weight(y)
    c1 = 1 - (-quarters // 4)
    c2 = x + y + 4
    c3 = -(-c2 // 2)
    return c1, c2, c3


def two_tailed_table(x: int, y: int, z: int) -> tuple:
    """Residue-case constants for the two-tailed tadpole bound.

    With tails 4n'+x+1 and 4k'+z and cycle 4m'+y+2, the bound constant is
    1 + ceil(w(x) + w(y+z)) and the half-order constant is
    ceil((x+y+z+3)/2), both over the common 2n'+2m'+2k' part.
    Returns (bound_constant, ceiling_constant, holds).
    """
    if not (0 <= x <= 3 and 0 <= y <= 3 and 0 <= z <= 3):
        raise ValueError("residues must lie in 0..3")
    quarters = weight(x) + weight(y + z)
    bound_c = 1 - (-quarters // 4)
    ceil_c = -(-(x + y + z + 3) // 2)
    return bound_c, ceil_c, bound_c <= ceil_c


def two_tailed_failing_residues():
    """The (n, m, k) mod-4 residues whose symbolic bound fails.

    Triples are mapped from the raw (x, y, z) cases via n = x+1, m = y+2,
    k = z (mod 4) and returned in raw-case order.
    """
    out = []
    for x in range(4):
        for y in range(4):
            for z in range(4):
                if not two_tailed_table(x, y, z)[2]:
                    out.append(((x + 1) % 4, (y + 2) % 4, z % 4))
    return out


@dataclass(frozen=True)
class KnownValue:
    value: int
    exact: bool  # False means the value is only an upper bound


def known_family_value(spec) -> KnownValue:
    """Published value or bound for a family instance, where one exists."""
    name = spec.family
    p = spec.params
    if name == "path":
        return KnownValue(path_cycle_gamma_g(p["n"], "path"), True)
    if name == "cycle":
        return KnownValue(path_cycle_gamma_g(p["n"], "cycle"), True)
    if name == "prime-path":
        return KnownValue(partial_path_values(p["n"], PiecePrimeKind.PRIME)[0], True)
    if name == "double-prime-path":
        return KnownValue(
            partial_path_values(p["n"], PiecePrimeKind.DOUBLE_PRIME)[0], True)
    if name == "broken-ladder":
        return KnownValue(2 * (p["k"] + 2), True)
    if name == "hatted-cycle":
        # Playing on the hatted cycle reduces to the underlying cycle.
        return KnownValue(path_cycle_gamma_g(p["n"], "cycle"), True)
    if name == "r-graph":
        return KnownValue(2 * p["n"] + 2, False)
    raise ValueError(f"no known closed form for family {name!r}")
