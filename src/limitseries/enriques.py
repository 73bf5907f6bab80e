"""Proximity trees with multiplicities: the four-point collision
constellation, the unloaded test, the degree formula and the candidate
multiplicity search.

Only the combinatorial shadow of the blowup geometry lives here: vertices,
proximity sets, multiplicities.  No surfaces, no pushforwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import MultiplicitiesUnset, NotUnloaded, ResourceLimit
from .staircase import _integers, _json_int, f_staircase, regular

MAX_SEARCH_MULTIPLICITY = 16


@dataclass(frozen=True)
class EnriquesDiagram:
    """Rooted proximity structure with optional multiplicities.

    proximities[i] is the frozenset of earlier vertices that vertex i is
    proximate to (lies on the strict transform of their exceptional
    divisors).  The root has none; every other vertex is proximate to its
    parent and to at most one more vertex (free or satellite).
    """

    proximities: tuple
    multiplicities: tuple | None = None

    def __post_init__(self):
        prox = tuple(frozenset(s) for s in self.proximities)
        object.__setattr__(self, "proximities", prox)
        if not prox:
            raise ValueError("diagram needs at least the root vertex")
        if prox[0]:
            raise ValueError("the root vertex has no proximities")
        for i, s in enumerate(prox[1:], start=1):
            if not s:
                raise ValueError(f"vertex {i} must be proximate to its parent")
            if len(s) > 2:
                raise ValueError(
                    f"vertex {i} is proximate to {len(s)} vertices; at most "
                    "a parent and one satellite partner are allowed")
            if any(j >= i for j in s):
                raise ValueError(f"vertex {i} references a later vertex")
        if self.multiplicities is not None:
            mult = _integers(self.multiplicities, "multiplicity")
            if len(mult) != len(prox):
                raise ValueError("one multiplicity per vertex required")
            if any(v < 0 for v in mult):
                raise ValueError("multiplicities must be >= 0")
            object.__setattr__(self, "multiplicities", mult)

    @property
    def size(self):
        return len(self.proximities)

    def with_multiplicities(self, mult) -> "EnriquesDiagram":
        return EnriquesDiagram(self.proximities, tuple(mult))

    def proximate_children(self, i: int):
        """Vertices proximate to vertex i."""
        return [j for j, s in enumerate(self.proximities) if i in s]

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": i, "proximate_to": sorted(s)}
                         for i, s in enumerate(self.proximities)],
            "multiplicities": (None if self.multiplicities is None
                               else list(self.multiplicities)),
        }

    @classmethod
    def from_json(cls, data) -> "EnriquesDiagram":
        if isinstance(data, str):
            data = json.loads(data)
        vertices = sorted(data["vertices"], key=lambda v: v["id"])
        prox = tuple(frozenset(v["proximate_to"]) for v in vertices)
        mult = data.get("multiplicities")
        return cls(prox, None if mult is None else tuple(
            _json_int(v, "multiplicity") for v in mult))


def four_point_constellation() -> EnriquesDiagram:
    """The eight-vertex constellation of the successive four-point collision.

    q1, q2, q3 are free on the first exceptional divisor; q4 and q5 are the
    satellites Q0^Q2 and Q0^Q3; q6 = Q3^Q5 and q7 = Q6^Q3 stack further on
    the q3 branch.  q1 carries no further blowups, so its only proximity is
    the root (inferred from the construction order).
    """
    prox = (
        frozenset(),         # q0
        frozenset({0}),      # q1
        frozenset({0}),      # q2
        frozenset({0}),      # q3
        frozenset({0, 2}),   # q4
        frozenset({0, 3}),   # q5
        frozenset({3, 5}),   # q6
        frozenset({3, 6}),   # q7
    )
    return EnriquesDiagram(prox)


def is_unloaded(diagram: EnriquesDiagram) -> bool:
    """Proximity inequalities: m_i >= sum of multiplicities proximate to i.

    This is the standard criterion making the degree formula
    deg = sum m_i(m_i+1)/2 valid.
    """
    if diagram.multiplicities is None:
        raise MultiplicitiesUnset("diagram has no multiplicities")
    m = diagram.multiplicities
    for i in range(diagram.size):
        incoming = sum(m[j] for j in diagram.proximate_children(i))
        if m[i] < incoming:
            return False
    return True


def diagram_degree(diagram: EnriquesDiagram) -> int:
    """deg = sum m_i (m_i + 1) / 2, valid for unloaded diagrams."""
    if diagram.multiplicities is None:
        raise MultiplicitiesUnset("diagram has no multiplicities")
    if not is_unloaded(diagram):
        raise NotUnloaded("degree formula requires an unloaded diagram")
    return sum(v * (v + 1) // 2 for v in diagram.multiplicities)


def search_multiplicities(m: int, root_bound: int | None = None):
    """All unloaded multiplicity vectors on the four-point constellation
    with degree 4*m(m+1)/2 and root multiplicity <= 2m (or root_bound).

    Exhaustive and deterministic; results sorted lexicographically.  The
    actual collision diagrams depend on m mod 4 and are not recoverable
    from text alone, so these are labeled candidates, never the answer.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_SEARCH_MULTIPLICITY:
        raise ResourceLimit(
            f"search supports m <= {MAX_SEARCH_MULTIPLICITY}")
    target = 4 * m * (m + 1) // 2
    bound = 2 * m if root_bound is None else root_bound

    def tri(v):
        return v * (v + 1) // 2

    results = []
    for m0 in range(bound + 1):
        d0 = tri(m0)
        if d0 > target:
            break
        # q0's children are q1..q5: their total is capped by m0
        for m1 in range(m0 + 1):
            d1 = d0 + tri(m1)
            if d1 > target:
                break
            for m2 in range(m0 - m1 + 1):
                d2 = d1 + tri(m2)
                if d2 > target:
                    break
                for m3 in range(m0 - m1 - m2 + 1):
                    d3 = d2 + tri(m3)
                    if d3 > target:
                        break
                    for m4 in range(min(m2, m0 - m1 - m2 - m3) + 1):
                        d4 = d3 + tri(m4)
                        if d4 > target:
                            break
                        for m5 in range(min(m3, m0 - m1 - m2 - m3 - m4) + 1):
                            d5 = d4 + tri(m5)
                            if d5 > target:
                                break
                            # q3's children are q5, q6, q7; q5 >= q6 >= q7
                            for m6 in range(min(m5, m3 - m5) + 1):
                                d6 = d5 + tri(m6)
                                if d6 > target:
                                    break
                                for m7 in range(min(m6, m3 - m5 - m6) + 1):
                                    if d6 + tri(m7) == target:
                                        results.append(
                                            (m0, m1, m2, m3, m4, m5, m6, m7))
    return sorted(results)


def root_multiplicities(m: int):
    """Distinct root multiplicities occurring among the candidates."""
    return sorted({vec[0] for vec in search_multiplicities(m)})


def period_offset_report(m: int) -> dict:
    """Report (never an assertion) on the period-4 pattern: do the root
    multiplicities for m+4 contain the m-roots shifted by 7?"""
    roots = root_multiplicities(m)
    roots_next = root_multiplicities(m + 4)
    shifted = [r + 7 for r in roots]
    return {
        "m": m,
        "roots": roots,
        "roots_m_plus_4": roots_next,
        "shifted_by_7": shifted,
        "shift_contained": all(r in roots_next for r in shifted),
    }


def three_point_reference(k: int) -> dict:
    """Descriptor of the three-point collision system used as the ambient
    reference: root multiple 6k on the first exceptional divisor and the
    shape pair (R_{2k}, F_{2k}).  Exposed as data only."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return {
        "root_multiple": 6 * k,
        "shapes": [regular(2 * k).to_json(), f_staircase(2 * k).to_json()],
    }
