"""Virtual Hilbert functions, critical degrees and degree bookkeeping
identities for unions of fat points in the plane."""

from __future__ import annotations

from math import isqrt

from .errors import DomainError
from .staircase import _integer


def ambient_sections(d: int) -> int:
    """Number of degree-d plane curve coefficients, (d+1)(d+2)/2."""
    if d < 0:
        return 0
    return (d + 1) * (d + 2) // 2


def fat_point_degree(m: int) -> int:
    """Degree of a fat point of multiplicity m in the plane, m(m+1)/2."""
    return m * (m + 1) // 2


def virtual_hilbert(deg_z: int, d: int) -> int:
    """H_v(Z, d) = min((d+1)(d+2)/2, deg Z)."""
    return min(ambient_sections(_integer(d, "d")), _integer(deg_z, "deg_z", 0))


def critical_degree(deg_z: int) -> int:
    """Smallest d with (d+1)(d+2)/2 > deg Z.

    The literal reading "H_v(Z, d) > deg Z" is unsatisfiable because H_v is
    capped at deg Z, so strict dominance of the binomial term is used; this
    matches the upper bound km+k-2 empirically on the tested range.
    """
    deg_z = _integer(deg_z, "deg_z", 0)
    # (d+1)(d+2)/2 > n  around  d ~ sqrt(2n); fix up from a safe start
    d = max(0, isqrt(2 * deg_z) - 2)
    while ambient_sections(d) <= deg_z:
        d += 1
    return d


def critical_bounds_report(k: int, m: int) -> dict:
    """Evaluate km+1 < d_c(Z) <= km+k-2 for Z = k^2 fat points of
    multiplicity m.  Returns a report; the strict lower bound is a known
    point of ambiguity and is reported, never asserted."""
    k, m = _integer(k, "k", 4), _integer(m, "m", 1)
    deg_z = k * k * fat_point_degree(m)
    d_c = critical_degree(deg_z)
    return {
        "k": k,
        "m": m,
        "deg": deg_z,
        "d_c": d_c,
        "lower_holds": k * m + 1 < d_c,
        "upper_holds": d_c <= k * m + k - 2,
    }


def bookkeeping_identity(k: int, m: int, s: int) -> bool:
    """Codimension bookkeeping across one specialization step.

    With d = km+s, Z the union of k^2 fat points of multiplicity m, Z' the
    (k-1)^2 remaining generic ones and L a line subscheme of degree
    (k-s-2)m, the expected codimensions match:

        (d-m+1)(d-m+2)/2 - H_v(Z' u L, d-m)  ==  (d+1)(d+2)/2 - H_v(Z, d)
    """
    k, m, s = _integer(k, "k", 2), _integer(m, "m", 0), _integer(s, "s")
    if not 0 <= s <= k - 2:
        raise DomainError(f"s must satisfy 0 <= s <= k-2, got s={s}, k={k}")
    d = k * m + s
    deg_z = k * k * fat_point_degree(m)
    deg_residual = (k - 1) * (k - 1) * fat_point_degree(m) + (k - s - 2) * m
    lhs = ambient_sections(d - m) - virtual_hilbert(deg_residual, d - m)
    rhs = ambient_sections(d) - virtual_hilbert(deg_z, d)
    return lhs == rhs
