import json
import operator
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitseries.errors import LengthMismatch, MonotonicityViolation
from limitseries.staircase import (Staircase, StaircaseTuple, f_staircase,
                                   is_quasi_regular, is_right_specialized,
                                   make_staircase, regular, slice_tuple,
                                   suppress_seq, suppress_tuple,
                                   vertical_collision)

partitions = st.lists(st.integers(min_value=1, max_value=9), min_size=0,
                      max_size=6).map(lambda v: sorted(v, reverse=True))


class TestMakeStaircase:
    def test_r2_from_heights(self):
        E = make_staircase({0: 2, 1: 1})
        assert E == regular(2)
        assert E.degree == 3

    def test_single_point(self):
        E = make_staircase({0: 1})
        assert E.degree == 1
        assert E.cells() == [(0, 0)]

    def test_monotonicity_violation(self):
        with pytest.raises(MonotonicityViolation):
            make_staircase({0: 1, 1: 2})

    def test_support_must_be_downward_closed(self):
        with pytest.raises(MonotonicityViolation):
            make_staircase({1: 1})  # nothing below index 1

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            make_staircase({0: -1})

    def test_d3_staircase(self):
        E = Staircase(3, {(0, 0): 2, (1, 0): 1, (0, 1): 1})
        assert E.degree == 4
        assert E.contains((1, 0, 0))
        assert not E.contains((1, 1, 0))

    @pytest.mark.parametrize("build", [
        lambda: make_staircase([2.7, 1]),
        lambda: make_staircase({0: 2, 1: 1.0}),
        lambda: Staircase(2, {(0.9,): 2}),
        lambda: Staircase(2.0, {(0,): 2}),
    ], ids=["height", "integral-float height", "key", "dim"])
    def test_non_integral_refused(self, build):
        # int() used to floor these: [2.7, 1] became [2, 1]
        with pytest.raises(ValueError, match="must be an integer"):
            build()


class TestRegular:
    def test_empty(self):
        assert regular(0).degree == 0
        assert regular(0).is_empty

    def test_r3(self):
        assert regular(3) == make_staircase([3, 2, 1])
        assert regular(3).degree == 6

    def test_degree_formula(self):
        for m in range(12):
            assert regular(m).degree == m * (m + 1) // 2


class TestFStaircase:
    def test_f2(self):
        assert f_staircase(2) == make_staircase([2, 2, 1, 1])
        assert f_staircase(2).degree == 6

    def test_f1(self):
        assert f_staircase(1) == make_staircase([1, 1])

    def test_f0(self):
        assert f_staircase(0).is_empty

    def test_is_self_collision_of_regular(self):
        for m in range(6):
            assert f_staircase(m) == vertical_collision(regular(m), regular(m))


class TestSlice:
    def test_slice_r3_0(self):
        T = regular(3).slice(0)
        assert T.dim == 1
        assert T.degree == 3

    def test_slice_r3_2(self):
        assert regular(3).slice(2).degree == 1

    def test_slice_regular_cardinality(self):
        # slice of the multiplicity-m staircase at level t has m - t cells
        for m in range(1, 9):
            for t in range(m):
                assert regular(m).slice_size(t) == m - t

    def test_slice_beyond_heights_empty(self):
        assert regular(3).slice(7).is_empty

    @given(partitions, st.integers(min_value=0, max_value=10))
    def test_slice_sizes_sum_to_degree(self, heights, k):
        E = make_staircase(heights)
        assert sum(E.slice_size(j) for j in range(E.max_height)) == E.degree
        T = E.slice(k)
        assert T.degree == E.slice_size(k)


class TestSuppress:
    def test_suppress_r3_1(self):
        out = regular(3).suppress(1)
        assert out == make_staircase([2, 1, 1])
        assert out.degree == 4

    def test_suppress_zero_slice_gives_previous_regular(self):
        for m in range(1, 10):
            assert regular(m).suppress(0) == regular(m - 1)

    def test_suppress_above_max_height_is_identity(self):
        E = make_staircase([3, 1])
        assert E.suppress(3) == E
        assert E.suppress(7) == E

    @given(partitions, st.integers(min_value=0, max_value=10))
    def test_suppress_degree_drop(self, heights, t):
        E = make_staircase(heights)
        out = E.suppress(t)
        drop = sum(1 for h in E.heights.values() if h > t)
        assert out.degree == E.degree - drop

    @given(partitions, st.integers(min_value=0, max_value=10))
    def test_suppress_output_is_valid(self, heights, t):
        E = make_staircase(heights)
        out = E.suppress(t)  # constructor re-validates monotonicity
        assert isinstance(out, Staircase)


class TestSuppressSeq:
    def test_two_steps(self):
        assert suppress_seq(regular(3), [2, 1]) == make_staircase([1, 1, 1])

    def test_empty_sequence_is_identity(self):
        E = make_staircase([4, 2])
        assert suppress_seq(E, []) == E

    def test_to_empty(self):
        assert suppress_seq(regular(2), [1, 0]).is_empty


class TestTupleOps:
    def test_slice_tuple(self):
        out = slice_tuple(StaircaseTuple([regular(2), regular(2)]), [1, 0])
        assert [T.degree for T in out] == [1, 2]

    def test_single_component(self):
        out = slice_tuple(StaircaseTuple([regular(3)]), [1])
        assert out[0] == regular(3).slice(1)

    def test_suppress_tuple(self):
        out = suppress_tuple(StaircaseTuple([regular(2), regular(3)]), [0, 2])
        assert out[0] == regular(1)
        assert out[1] == make_staircase([2, 2, 1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            slice_tuple(StaircaseTuple([regular(2)]), [1, 2])

    def test_tuple_needs_common_dim(self):
        with pytest.raises(ValueError):
            StaircaseTuple([regular(2), make_staircase(3)])


class TestQuasiRegular:
    def test_regular_is_quasi_regular(self):
        ok, m = is_quasi_regular(regular(3))
        assert ok and m == 2  # R_2 <= R_3 <= R_3: smallest witness

    def test_witness_is_smallest(self):
        ok, m = is_quasi_regular(make_staircase([3, 2, 2]))
        assert ok and m == 3  # cell (1,2) forces E <= R_4, and R_3 <= E

    def test_not_quasi_regular(self):
        ok, m = is_quasi_regular(make_staircase([4, 1]))
        assert not ok and m is None

    def test_empty(self):
        assert is_quasi_regular(make_staircase([])) == (True, 0)

    def test_regular_family(self):
        for m in range(21):
            ok, _w = is_quasi_regular(regular(m))
            assert ok


class TestRightSpecialized:
    def test_regular_family(self):
        for m in range(11):
            assert is_right_specialized(regular(m))

    def test_counterexample(self):
        assert not is_right_specialized(make_staircase([1, 1]))

    def test_empty_vacuous(self):
        assert is_right_specialized(make_staircase([]))


class TestVerticalCollision:
    def test_two_points(self):
        pt = make_staircase([1])
        out = vertical_collision(pt, pt)
        assert out.cells() == [(0, 0), (0, 1)]

    def test_empty_is_identity(self):
        E = make_staircase([3, 1])
        assert vertical_collision(E, make_staircase([])) == E

    def test_r2_with_bar(self):
        bar = make_staircase([2])  # cells (0,0),(1,0)
        out = vertical_collision(regular(2), bar)
        assert out.row_lengths() == [3, 2]
        assert out.cells() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    @given(partitions, partitions)
    def test_rows_add(self, ha, hb):
        A, B = make_staircase(ha), make_staircase(hb)
        G = vertical_collision(A, B)
        ra, rb, rg = A.row_lengths(), B.row_lengths(), G.row_lengths()
        n = max(len(ra), len(rb))
        assert rg == [(ra[i] if i < len(ra) else 0)
                      + (rb[i] if i < len(rb) else 0) for i in range(n)]
        assert G.degree == A.degree + B.degree

    @given(partitions, partitions)
    def test_commutative(self, ha, hb):
        A, B = make_staircase(ha), make_staircase(hb)
        assert vertical_collision(A, B) == vertical_collision(B, A)

    @settings(max_examples=40)
    @given(partitions, partitions, partitions)
    def test_associative(self, ha, hb, hc):
        A, B, C = (make_staircase(h) for h in (ha, hb, hc))
        lhs = vertical_collision(vertical_collision(A, B), C)
        rhs = vertical_collision(A, vertical_collision(B, C))
        assert lhs == rhs


class TestSerialization:
    def test_json_round_trip(self):
        E = make_staircase([3, 2])
        data = E.to_json()
        assert data == {"dim": 2, "heights": [[0, 3], [1, 2]]}
        assert Staircase.from_json(json.loads(json.dumps(data))) == E

    def test_json_takes_parsed_data_not_text(self):
        text = json.dumps(make_staircase([3, 2]).to_json())
        with pytest.raises(ValueError, match="staircase must be an object"):
            Staircase.from_json(text)

    def test_json_rejects_non_monotone(self):
        with pytest.raises(MonotonicityViolation):
            Staircase.from_json({"dim": 2, "heights": [[0, 1], [1, 2]]})

    def test_text_round_trip(self):
        E = make_staircase([3, 1, 1])
        assert Staircase.from_text(E.to_text()) == E

    def test_text_rejects_non_monotone(self):
        with pytest.raises(MonotonicityViolation):
            Staircase.from_text("0:1\n1:3")

    def test_ascii_grid(self):
        assert regular(2).ascii_grid() == "#\n##"


class TestComplementGenerators:
    def test_r2(self):
        assert regular(2).complement_generators() == [(0, 2), (1, 1), (2, 0)]

    def test_empty(self):
        assert make_staircase([]).complement_generators() == [(0, 0)]

    def test_flat_block(self):
        assert make_staircase([2, 2, 2]).complement_generators() == \
            [(0, 3), (2, 0)]

    # the empty and the 1-D staircases need no branch of their own
    @given(partitions.map(make_staircase))
    @example(Staircase(1, {}))
    @example(Staircase(2, {}))
    @example(Staircase(3, {}))
    @example(Staircase(4, {}))
    @example(Staircase(1, {(): 4}))
    @example(make_staircase({(b, c): 2 - b - c for b in range(2)
                             for c in range(2 - b)}))
    @example(make_staircase({(b, c): 6 - b - c for b in range(6)
                             for c in range(6 - b)}))
    def test_generators_cut_out_the_staircase(self, E):
        # sorted, none divides another, and a cell of the box [0, 12)^d
        # lies in E exactly when none of them divides it
        gens = E.complement_generators()
        assert gens == sorted(gens)
        for g, h in permutations(gens, 2):
            assert not all(map(operator.ge, h, g))
        for cell in product(range(12), repeat=E.dim):
            in_complement = any(all(map(operator.ge, cell, g)) for g in gens)
            assert in_complement != E.contains(cell)
