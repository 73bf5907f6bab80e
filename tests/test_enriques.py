import pytest

from limitseries.enriques import (EnriquesDiagram, diagram_degree,
                                  four_point_constellation, is_unloaded,
                                  period_offset_report, root_multiplicities,
                                  search_multiplicities,
                                  three_point_reference)
from limitseries.errors import MultiplicitiesUnset, NotUnloaded, ResourceLimit

PAPER_EXAMPLE = (8, 2, 1, 3, 0, 1, 0, 0)


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

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            search_multiplicities(17)

    def test_period_report_is_report(self):
        rep = period_offset_report(1)
        assert set(rep) >= {"roots", "roots_m_plus_4", "shift_contained"}


def test_three_point_reference_payload():
    ref = three_point_reference(2)
    assert ref["root_multiple"] == 12
    shapes = ref["shapes"]
    assert shapes[0]["dim"] == 2 and shapes[1]["dim"] == 2
