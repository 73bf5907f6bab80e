import hashlib
from itertools import product

import pytest

from limitseries import enriques
from limitseries.enriques import (EnriquesDiagram, diagram_degree,
                                  four_point_constellation, is_unloaded,
                                  period_offset_report, root_multiplicities,
                                  search_multiplicities,
                                  three_point_reference)
from limitseries.errors import (DomainError, MultiplicitiesUnset,
                                NotUnloaded, ResourceLimit)

PAPER_EXAMPLE = (8, 2, 1, 3, 0, 1, 0, 0)

# (count, sha256 of the repr of the result list) of the search at its
# default root bound, as given by the eight hand-nested loops it replaced
NESTED_LOOP_DIGESTS = {
    1: (3, "aed4cceba7da4224bc95fab5cc862f52ab73b94ee3aa8a81ecd207f3cb2e0953"),
    2: (8, "b0d9743f307a28ec772d60ce46cc9a73a381de39cf309d2ccd297e14d10a30dc"),
    3: (19, "6a7c0bf77ec89607fa491e306d1dfca1e02f24a8ff48e3342821a3252b0c5728"),
    4: (50, "90db80916b9020c4f76c21d6fa0d3b0136449c6fc887c3e3b04102e987c47483"),
    5: (94, "f31c042da6424b2318b3f68b7a66f3229a7c81363dd5f42e18a31e64ae48ff29"),
    6: (139, "dbfc034ae7995c093b156aee304a1f312d172cdd8d64447d4525f2b808fb2b4d"),
    7: (261, "2e23a2d2648d3a6e6a7e1feb2f7d9697eebff50799a6cc46ebe1da156112d1c4"),
    8: (418, "6c785f0c9d795a9e0fc853582481ec1a69fc64502204c44152f1240a3701f81c"),
    9: (703, "fc75d939be83e71678572f2241658eab4429a35187e57517d2bbaf776788be90"),
    10: (1160, "00bba3ae444c1772ecc50077ce630d781540174d42133523a2ad0ae9899e7e2e"),
    11: (1585, "fa89f5b104364ce3d9c7cf90d297f80faee363dbeffbdd75f60516f629303f71"),
    12: (2280, "0d3b03e65259752aa80445430444bfaa6f94474fcfc25193901c9411009468cb"),
}
# (m, root_bound, count) from those loops: every bound tested either keeps
# all the default results or none
NESTED_LOOP_ROOT_BOUNDS = [
    (1, -1, 0), (1, 0, 0), (1, 1, 0), (1, 3, 3), (1, 10, 3), (1, 40, 3),
    (3, -1, 0), (3, 0, 0), (3, 1, 0), (3, 3, 0), (3, 10, 19), (3, 40, 19),
    (5, -1, 0), (5, 0, 0), (5, 1, 0), (5, 3, 0), (5, 10, 94), (5, 40, 94),
    (7, -1, 0), (7, 0, 0), (7, 1, 0), (7, 3, 0), (7, 10, 0), (7, 40, 261),
]


def digest(results):
    return len(results), hashlib.sha256(repr(results).encode()).hexdigest()


class TestConstellation:
    def test_vertex_count(self):
        assert four_point_constellation().size == 8

    def test_proximities(self):
        D = four_point_constellation()
        assert sorted(D.proximities[4]) == [0, 2]
        assert sorted(D.proximities[5]) == [0, 3]
        assert sorted(D.proximities[6]) == [3, 5]
        assert sorted(D.proximities[7]) == [3, 6]
        for free in (1, 2, 3):
            assert sorted(D.proximities[free]) == [0]

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            EnriquesDiagram((frozenset({1}),))  # root with a proximity
        with pytest.raises(ValueError):
            EnriquesDiagram((frozenset(), frozenset()))  # orphan vertex
        with pytest.raises(ValueError):
            EnriquesDiagram((frozenset(), frozenset({0, 2})))  # forward ref

    def test_json_round_trip(self):
        D = four_point_constellation().with_multiplicities(PAPER_EXAMPLE)
        assert EnriquesDiagram.from_json(D.to_json()) == D

    @pytest.mark.parametrize("mult", [(2.5, 1.9), (2.0, 1), (2, "1")])
    def test_non_integral_multiplicities_refused(self, mult):
        # int() used to floor them: (2.5, 1.9) became (2, 1)
        with pytest.raises(ValueError, match="multiplicity must be an int"):
            EnriquesDiagram(((), (0,)), mult)

    def test_json_reads_integral_numbers(self):
        # as for staircases, a JSON 2.0 reads as 2 and 2.5 is refused
        data = EnriquesDiagram(((), (0,)), (2, 1)).to_json()
        data["multiplicities"] = [2.0, 1]
        assert EnriquesDiagram.from_json(data).multiplicities == (2, 1)
        data["multiplicities"] = [2.5, 1]
        with pytest.raises(ValueError, match="multiplicity must be an int"):
            EnriquesDiagram.from_json(data)

    @pytest.mark.parametrize("prox,error,match", [
        # is_unloaded never looked at a vertex -1, nor equated 0.0 with 0
        (((), (-1,)), DomainError, "^proximity must be >= 0, got -1"),
        (((), (0.0,)), ValueError, "^proximity must be an integer"),
        (((), (0,), (0.5, 1)), ValueError, "^proximity must be an integer"),
        (((), (1,)), ValueError, "references a later vertex"),
    ])
    def test_proximities_are_earlier_vertex_ids(self, prox, error, match):
        with pytest.raises(error, match=match):
            EnriquesDiagram(prox)

    def test_json_reads_integral_proximities(self):
        data = {"vertices": [{"id": 1, "proximate_to": [0.0]},
                             {"id": 0, "proximate_to": []}]}
        D = EnriquesDiagram.from_json(data)
        assert D == EnriquesDiagram(((), (0,)))
        assert D.to_json()["vertices"][1] == {"id": 1, "proximate_to": [0]}

    @pytest.mark.parametrize("vertices,match", [
        # duplicate ids were renumbered, a gap closed up, and a missing
        # field raised a bare KeyError
        ([{"id": 0, "proximate_to": []}, {"id": 0, "proximate_to": [0]}],
         r"ids must be exactly 0\.\.n-1, got \[0, 0\]"),
        ([{"id": 0, "proximate_to": []}, {"id": 2, "proximate_to": [0]}],
         r"ids must be exactly 0\.\.n-1, got \[0, 2\]"),
        ([{"id": 0, "proximate_to": []}, {"id": 1}], "'proximate_to'"),
        ([{"proximate_to": []}], "'id'"),
        (None, "'vertices'"),
    ])
    def test_json_refuses_malformed_vertices(self, vertices, match):
        data = {} if vertices is None else {"vertices": vertices}
        with pytest.raises(ValueError, match=match):
            EnriquesDiagram.from_json(data)

    @pytest.mark.parametrize("data,match", [
        # each raised a bare TypeError
        ([], r"^diagram must be an object, got \[\]$"),
        # parsed data only: JSON text is a string, not an object
        ('{"vertices": []}', "^diagram must be an object, got '{"),
        ({"vertices": 3}, "^vertices must be a list, got 3$"),
        ({"vertices": [1]}, "^vertex must be an object, got 1$"),
        ({"vertices": [{"id": 0, "proximate_to": 5}]},
         "^proximate_to must be a list, got 5$"),
        ({"vertices": [{"id": 0, "proximate_to": []}], "multiplicities": 5},
         "^multiplicities must be a list, got 5$"),
    ], ids=["diagram", "text", "vertices", "vertex", "proximate_to",
            "multiplicities"])
    def test_json_refuses_fields_of_the_wrong_type(self, data, match):
        with pytest.raises(ValueError, match=match):
            EnriquesDiagram.from_json(data)

    @pytest.mark.parametrize("call,error,match", [
        (lambda: EnriquesDiagram(()), ValueError,
         "^diagram needs at least the root vertex$"),
        (lambda: EnriquesDiagram(((), (0,), (0, 1), (0, 1, 2))), ValueError,
         "^vertex 3 is proximate to 3 vertices"),
        (lambda: EnriquesDiagram(((), (0,)), (1,)), ValueError,
         "^one multiplicity per vertex required$"),
        (lambda: diagram_degree(four_point_constellation()),
         MultiplicitiesUnset, "^diagram has no multiplicities$"),
    ], ids=["empty", "three proximities", "multiplicity count", "unset"])
    def test_refusals(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestUnloaded:
    def test_single_vertex(self):
        D = EnriquesDiagram((frozenset(),), (3,))
        assert is_unloaded(D)

    def test_overloaded_root(self):
        prox = (frozenset(), frozenset({0}), frozenset({0}), frozenset({0}))
        D = EnriquesDiagram(prox, (2, 1, 1, 1))
        assert not is_unloaded(D)

    def test_example_multiplicities(self):
        D = four_point_constellation().with_multiplicities(PAPER_EXAMPLE)
        assert is_unloaded(D)

    def test_multiplicities_required(self):
        with pytest.raises(MultiplicitiesUnset):
            is_unloaded(four_point_constellation())

    def test_decreasing_a_leaf_keeps_other_vertices_unloaded(self):
        # lowering a satellite multiplicity never breaks the inequality at
        # any other vertex (it can only relax incoming sums)
        D = four_point_constellation()
        for vec in search_multiplicities(3):
            for i in range(1, 8):
                if vec[i] == 0:
                    continue
                lowered = list(vec)
                lowered[i] -= 1
                dl = D.with_multiplicities(lowered)
                m = dl.multiplicities
                for other in range(8):
                    if other == i:
                        continue
                    incoming = sum(m[j] for j in dl.proximate_children(other))
                    assert m[other] >= incoming


class TestDiagramDegree:
    def test_example_is_47(self):
        D = four_point_constellation().with_multiplicities(PAPER_EXAMPLE)
        assert diagram_degree(D) == 47

    def test_single_vertex_formula(self):
        for m in range(7):
            D = EnriquesDiagram((frozenset(),), (m,))
            assert diagram_degree(D) == m * (m + 1) // 2

    def test_all_zero(self):
        D = four_point_constellation().with_multiplicities([0] * 8)
        assert diagram_degree(D) == 0

    def test_not_unloaded_rejected(self):
        prox = (frozenset(), frozenset({0}), frozenset({0}), frozenset({0}))
        D = EnriquesDiagram(prox, (2, 1, 1, 1))
        with pytest.raises(NotUnloaded):
            diagram_degree(D)

    def test_invariant_under_branch_relabeling(self):
        # swapping the roles of the free vertices q1 and q2 (q4 follows its
        # parent) preserves the degree of any valid assignment
        D = four_point_constellation()
        prox_swapped = (
            frozenset(), frozenset({0}), frozenset({0}), frozenset({0}),
            frozenset({0, 1}), frozenset({0, 3}), frozenset({3, 5}),
            frozenset({3, 6}))
        Ds = EnriquesDiagram(prox_swapped)
        for vec in search_multiplicities(2):
            swapped = (vec[0], vec[2], vec[1], vec[3], vec[4], vec[5],
                       vec[6], vec[7])
            a = D.with_multiplicities(vec)
            b = Ds.with_multiplicities(swapped)
            assert is_unloaded(b)
            assert diagram_degree(a) == diagram_degree(b)


class TestSearch:
    def test_m1_candidates(self):
        res = search_multiplicities(1)
        assert (2, 1, 0, 0, 0, 0, 0, 0) in res
        assert all(sum(v * (v + 1) // 2 for v in vec) == 4 for vec in res)

    def test_m4_contains_root_seven(self):
        assert 7 in root_multiplicities(4)

    def test_results_sorted_and_unloaded(self):
        D = four_point_constellation()
        res = search_multiplicities(3)
        assert res == sorted(res)
        for vec in res:
            assert is_unloaded(D.with_multiplicities(vec))

    def test_nonempty_through_m12(self):
        for m in range(1, 13):
            assert search_multiplicities(m)

    def test_root_bound_respected(self):
        for vec in search_multiplicities(5):
            assert vec[0] <= 10

    @pytest.mark.parametrize("m", [1, 2])
    def test_equals_brute_force(self, m):
        # every vector of entries <= 2m that is unloaded and has the degree
        D = four_point_constellation()
        children = [D.proximate_children(i) for i in range(D.size)]
        want = [vec for vec in product(range(2 * m + 1), repeat=D.size)
                if sum(v * (v + 1) // 2 for v in vec) == 2 * m * (m + 1)
                and all(vec[i] >= sum(vec[j] for j in children[i])
                        for i in range(D.size))]
        assert search_multiplicities(m) == want

    @pytest.mark.parametrize("m", sorted(NESTED_LOOP_DIGESTS))
    def test_matches_nested_loops(self, m):
        assert digest(search_multiplicities(m)) == NESTED_LOOP_DIGESTS[m]

    @pytest.mark.parametrize("m,root_bound,count", NESTED_LOOP_ROOT_BOUNDS)
    def test_root_bounds_match_nested_loops(self, m, root_bound, count):
        got = digest(search_multiplicities(m, root_bound))
        assert got == (NESTED_LOOP_DIGESTS[m] if count else digest([]))

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit, match="got m = 17"):
            search_multiplicities(17)

    def test_period_report_is_report(self):
        rep = period_offset_report(1)
        assert set(rep) >= {"roots", "roots_m_plus_4", "shift_contained"}

    def test_period_report_refuses_before_searching(self, monkeypatch):
        # m = 13 once ran the m = 13 search and then failed on m + 4 = 17
        # with a message that named neither
        calls = []
        monkeypatch.setattr(enriques, "search_multiplicities",
                            lambda m, root_bound=None: calls.append(m) or [])
        with pytest.raises(ResourceLimit, match="m \\+ 4 = 17"):
            period_offset_report(13)
        assert calls == []
        period_offset_report(12)
        assert calls == [12, 16]


def test_three_point_reference_payload():
    ref = three_point_reference(2)
    assert ref["root_multiple"] == 12
    shapes = ref["shapes"]
    assert shapes[0]["dim"] == 2 and shapes[1]["dim"] == 2
