"""Proximity trees with multiplicities: the four-point collision
constellation, the unloaded test, the degree formula and the candidate
multiplicity search.

Only the combinatorial shadow of the blowup geometry lives here: vertices,
proximity sets, multiplicities.  No surfaces, no pushforwards.
"""

from __future__ import annotations

from .errors import MultiplicitiesUnset, NotUnloaded, ResourceLimit
from .staircase import (_integer, _integers, _json_int, _Value, f_staircase,
                        regular)

MAX_SEARCH_MULTIPLICITY = 16


class EnriquesDiagram(_Value):
    """Rooted proximity structure with optional multiplicities.

    proximities[i] is the frozenset of earlier vertices that vertex i is
    proximate to (lies on the strict transform of their exceptional
    divisors).  The root has none; every other vertex is proximate to its
    parent and to at most one more vertex (free or satellite).
    """

    __slots__ = ("proximities", "multiplicities")

    def __init__(self, proximities, multiplicities=None):
        prox = tuple(frozenset(_integers(s, "proximity", 0))
                     for s in proximities)
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
        if multiplicities is not None:
            multiplicities = _integers(multiplicities, "multiplicity", 0)
            if len(multiplicities) != len(prox):
                raise ValueError("one multiplicity per vertex required")
        super().__init__(prox, multiplicities)

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
        """Read to_json's form: the vertex ids must be exactly 0..n-1, and
        a missing field raises ValueError naming it.  A number with a zero
        fraction reads as an integer, as draft-07 counts it.  data is
        parsed JSON: a string is not an object."""
        try:
            vertices = _json_as(_json_as(data, dict, "diagram")["vertices"],
                                list, "vertices")
            prox = {}
            for v in vertices:
                v = _json_as(v, dict, "vertex")
                prox[_json_int(v["id"], "vertex id")] = [
                    _json_int(j, "proximity")
                    for j in _json_as(v["proximate_to"], list, "proximate_to")]
        except KeyError as exc:
            raise ValueError(f"diagram is missing the {exc.args[0]!r} field") \
                from None
        if sorted(prox) != list(range(len(vertices))):
            raise ValueError("vertex ids must be exactly 0..n-1, got "
                             f"{[v['id'] for v in vertices]}")
        mult = data.get("multiplicities")
        return cls(tuple(prox[i] for i in range(len(prox))),
                   None if mult is None
                   else tuple(_json_int(v, "multiplicity")
                              for v in _json_as(mult, list, "multiplicities")))


def _json_as(value, kind, what):
    """value when it is a JSON object (kind dict) or array (kind list, a
    tuple too), else ValueError naming what."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        article = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {article}, got {value!r}")
    return value


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

    One depth-first search over the constellation's proximities gives the
    vertices values in order, each ascending, so results come out sorted.
    - Room: room[i] is m_i minus the values placed on vertices proximate
      to i, and a vertex takes at most the least room among the vertices
      it is proximate to (the root at most root_bound).  A full vector
      leaves no room negative exactly when it is unloaded.
    - Reach: an unplaced vertex can take at most the least bound among
      the vertices it is proximate to (a placed one's room, an unplaced
      one's own bound).  Rooms only shrink, so a branch needing more
      degree than the sum of v(v+1)/2 over these bounds holds no result.
    """
    m = _integer(m, "m", 1)
    if m > MAX_SEARCH_MULTIPLICITY:
        raise ResourceLimit(
            f"search supports m <= {MAX_SEARCH_MULTIPLICITY}, got m = {m}")
    top = 2 * m if root_bound is None else _integer(root_bound, "root_bound")
    prox = [tuple(s) for s in four_point_constellation().proximities]
    vec, room, results = [0] * len(prox), [0] * len(prox), []

    def place(i, need):
        bound = room[:i]
        for s in prox[i:]:
            bound.append(min([bound[j] for j in s]) if s else top)
        if need > sum([b * (b + 1) // 2 for b in bound[i:]]):
            return
        if i == len(prox):
            results.append(tuple(vec))
            return
        for v in range(bound[i] + 1):
            if v * (v + 1) // 2 > need:
                break
            vec[i] = room[i] = v
            for j in prox[i]:
                room[j] -= v
            place(i + 1, need - v * (v + 1) // 2)
            for j in prox[i]:
                room[j] += v

    place(0, 4 * m * (m + 1) // 2)
    return results


def root_multiplicities(m: int):
    """Distinct root multiplicities occurring among the candidates."""
    return sorted({vec[0] for vec in search_multiplicities(m)})


def period_offset_report(m: int) -> dict:
    """Report (never an assertion) on the period-4 pattern: do the root
    multiplicities for m+4 contain the m-roots shifted by 7?  An m above
    MAX_SEARCH_MULTIPLICITY - 4 is refused before either search runs."""
    m = _integer(m, "m", 1)
    if m + 4 > MAX_SEARCH_MULTIPLICITY:
        raise ResourceLimit(f"the report searches m + 4 = {m + 4}; search "
                            f"supports m <= {MAX_SEARCH_MULTIPLICITY}")
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
    k = _integer(k, "k", 1)
    return {
        "root_multiple": 6 * k,
        "shapes": [regular(2 * k).to_json(), f_staircase(2 * k).to_json()],
    }
