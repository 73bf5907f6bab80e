import random
import threading
import time
from bisect import bisect_left

import pytest

from limitseries import interp
from limitseries.errors import (OracleResourceLimit, PrimeTooSmall,
                                ResourceLimit)
from limitseries.hilbert import ambient_sections
from limitseries.interp import (DESK_MATRIX_BUDGET, Site, _materialize,
                                _rank_profiles, conditions_matrix,
                                hilbert_function_of, require_desk_scale,
                                verify_nagata_theorem)
from limitseries.linalg import echelon_mod_p, rank_mod_p
from limitseries.staircase import (Staircase, f_staircase, make_staircase,
                                   regular)

from util import (SECOND_PRIME, partitions_up_to, per_degree_oracle,
                  plain_site_rows, site_corpus)

P = 1000003


class TestConditionsMatrix:
    def test_double_point_rank(self):
        rows = conditions_matrix([Site(regular(2), (5, 7))], 2, P)
        assert len(rows) == 3 and len(rows[0]) == 6
        assert rank_mod_p(rows, P) == 3

    def test_empty_site_list(self):
        rows = conditions_matrix([], 3, P)
        assert rows == []

    @pytest.mark.parametrize("call,match", [
        (lambda: Site(Staircase(3, {(0, 0): 1})),
         "^interpolation sites are planar"),
        (lambda: conditions_matrix([Site(regular(1))], 2, P),
         "^site position must be materialized first$"),
        # (-1, 0) read the x^1 factor through a negative index, and
        # (2, 0) ran off the factor list with a bare IndexError
        (lambda: conditions_matrix([Site(regular(1), (1, 2))], 1, P,
                                   cols=[(0, 0), (-1, 0)]),
         r"^column \(-1, 0\) is not a monomial of degree <= 1$"),
        (lambda: conditions_matrix([Site(regular(1), (1, 2))], 1, P,
                                   cols=[(2, 0)]),
         r"^column \(2, 0\) is not a monomial of degree <= 1$"),
        # (0.0, 1) raised a bare TypeError, (0, 1, 2) an unpacking error
        # that did not name it, and 5 a TypeError
        (lambda: conditions_matrix([Site(regular(1), (1, 2))], 1, P,
                                   cols=[(0, 0), (0.0, 1)]),
         r"^column \(0\.0, 1\) is not a pair of integers$"),
        (lambda: conditions_matrix([Site(regular(1), (1, 2))], 1, P,
                                   cols=[(0, 1, 2)]),
         r"^column \(0, 1, 2\) is not a pair of integers$"),
        (lambda: conditions_matrix([Site(regular(1), (1, 2))], 1, P,
                                   cols=[5]),
         r"^column 5 is not a pair of integers$"),
    ], ids=["3-D shape", "unplaced", "negative column", "column above d",
            "float column", "triple column", "integer column"])
    def test_refusals(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_two_double_points_rank_five(self):
        # the double line through both points survives in degree 2
        for seed in (1, 2, 3):
            r = hilbert_function_of([Site(regular(2)), Site(regular(2))],
                                    2, trials=3, seed=seed, p=P)
            assert r == 5

    def test_prime_too_small(self):
        with pytest.raises(PrimeTooSmall):
            conditions_matrix([Site(regular(1), (0, 1))], 7, 7)

    def test_duplicate_positions_rejected(self):
        # positions are points of the plane over F_p: compared mod p
        for other in ((1, 5), (1 + P, 5), (1, 5 - P)):
            with pytest.raises(ValueError, match="duplicate"):
                conditions_matrix([Site(regular(1), (1, 5)),
                                   Site(regular(1), other)], 2, P)

    @pytest.mark.parametrize("p", [1000003, 2**61 - 1, 101])
    def test_rows_agree_with_plain_builders(self, p):
        for sites, d in site_corpus(p, p):
            assert conditions_matrix(sites, d, p) == [
                row for site in sites for row in plain_site_rows(site, d, p)]

    def test_singular_frame_rejected(self):
        # det = 6 + P - 6 vanishes mod P; an empty shape has no rows to refuse
        singular = ((1, 2), (3, 6 + P))
        site = Site(make_staircase([2]), (1, 5), singular)
        for build in (lambda: conditions_matrix([site], 3, P),
                      lambda: plain_site_rows(site, 3, P)):
            with pytest.raises(ValueError, match="not invertible"):
                build()
        empty = Site(make_staircase([]), (1, 5), singular)
        assert conditions_matrix([empty], 3, P) == [] \
            == plain_site_rows(empty, 3, P)

    @pytest.mark.parametrize("position,frame", [
        ((1.5, 2), None), ((1, 2.0), None), (("1", 2), None),
        ((1, 2), ((1, 0.5), (0, 1))), ((1, 2), ((1, 0), (0, 1.0)))])
    def test_non_integral_site_refused(self, position, frame):
        # a float coordinate used to reach the rows as a float entry
        with pytest.raises(ValueError, match="must be an integer"):
            Site(regular(1), position, frame)


class TestIsFatPoint:
    def test_agrees_with_regular(self):
        # every plane staircase of at most 10 cells, the empty one included
        shapes = [make_staircase(list(part)) for part in partitions_up_to(10)]
        assert sum(Site(E).is_fat_point() for E in shapes) == 5  # R_0..R_4
        for E in shapes + [f_staircase(2), regular(6)]:
            assert Site(E).is_fat_point() == (E == regular(E.max_height))


def full_degree_profiles(sites, d, trials, seed, p):
    """One degree-d elimination per trial, on the draws _rank_profiles
    makes."""
    rng = random.Random(seed)
    return [echelon_mod_p(conditions_matrix(_materialize(sites, rng, p), d,
                                            p), p)[1]
            for _ in range(trials)]


def counted_profiles(monkeypatch, sites, d, trials, seed, p):
    """_rank_profiles and the degrees of the conditions matrices it built."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return conditions_matrix(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(interp, "conditions_matrix", counted)
        profiles = _rank_profiles(sites, d, trials, seed, p)
    return profiles, calls


def prefix_calls(sites, d, profiles):
    """The degrees a trial builds: e, the least degree <= d with as many
    columns as conditions, then d too when the degree-e prefix of the
    trial's pivots is short of a pivot per condition."""
    nrows = sum(site.shape.degree for site in sites)
    e = next((e for e in range(d + 1) if ambient_sections(e) >= nrows), d)
    calls = []
    for pivots in profiles:
        calls.append(e)
        if e < d and bisect_left(pivots, ambient_sections(e)) < nrows:
            calls.append(d)
    return calls


class TestRankProfilesPrefix:
    """_rank_profiles stops at the degree where the rank can first reach
    the number of conditions; it must give the pivots of one degree-d
    elimination of the same draws."""

    PRIMES = [1000003, 2**61 - 1]

    def check(self, monkeypatch, sites, d, trials, seed, p):
        want = full_degree_profiles(sites, d, trials, seed, p)
        got, calls = counted_profiles(monkeypatch, sites, d, trials, seed, p)
        assert got == want
        assert calls == prefix_calls(sites, d, want)
        return got, calls

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("k,m,e", [(2, 1, 2), (3, 2, 6), (4, 2, 9),
                                       (3, 3, 9), (5, 1, 6)])
    def test_generic_fat_points_take_the_prefix(self, monkeypatch, p, k, m,
                                                e):
        sites = [Site(regular(m))] * (k * k)
        _, calls = self.check(monkeypatch, sites, k * m + k, 2, k + m, p)
        assert calls == [e, e]

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n,d,calls,rank", [
        # the double line through two double points survives in degree 2
        (2, 3, [2, 3], 6),
        # the double conic through five double points survives in degree 4
        (5, 5, [4, 5], 15),
        # e = d: the prefix is the whole matrix, eliminated once
        (5, 4, [4], 14),
    ])
    def test_special_systems_fall_back(self, monkeypatch, p, n, d, calls,
                                       rank):
        sites = [Site(regular(2))] * n
        for seed in (1, 2):
            got, seen = self.check(monkeypatch, sites, d, 3, seed, p)
            assert seen == calls * 3
            assert [len(pivots) for pivots in got] == [rank] * 3

    @pytest.mark.parametrize("p", PRIMES)
    def test_more_conditions_than_columns(self, monkeypatch, p):
        # 27 conditions, 21 quintics: no degree <= 5 has enough columns,
        # so e = d
        _, calls = self.check(monkeypatch, [Site(regular(2))] * 9, 5, 2, 3,
                              p)
        assert calls == [5, 5]

    @pytest.mark.parametrize("p", PRIMES)
    def test_empty_site_list(self, monkeypatch, p):
        got, calls = self.check(monkeypatch, [], 6, 3, 0, p)
        assert got == [[], [], []] and calls == [0, 0, 0]

    @pytest.mark.parametrize("p", PRIMES)
    def test_non_fat_shapes_with_random_frames(self, monkeypatch, p):
        # bars, F_2 and mixed staircases draw a random frame per trial;
        # special unions among them (two 3-cell bars on a conic's line
        # pair) send some trials down the fallback
        rng = random.Random(29)
        shapes = [make_staircase([3]), make_staircase([1, 1, 1]),
                  f_staircase(2), make_staircase([3, 1]),
                  make_staircase([2, 2]), regular(2)]
        prefix = fallback = 0
        for _ in range(40):
            sites = [Site(rng.choice(shapes))
                     for _ in range(rng.randrange(1, 5))]
            if rng.random() < 0.3:
                sites.append(Site(make_staircase([2]), (1, 5),
                                  ((2, 1), (1, 1))))
            d = rng.randrange(1, 8)
            _, calls = self.check(monkeypatch, sites, d, 2, rng.randrange(99),
                                  p)
            if calls[0] < d:  # each of the 2 trials builds [e] or [e, d]
                fallback += calls.count(d)
                prefix += 2 - calls.count(d)
        assert prefix and fallback, (prefix, fallback)

    def test_prime_checked_against_d_not_e(self):
        # one simple point is full rank in degree 0, but degree 7 over F_7
        # is still refused, after the draw as before
        with pytest.raises(PrimeTooSmall, match="exceed the degree 7"):
            hilbert_function_of([Site(regular(1))], 7, trials=1, p=7)
        with pytest.raises(PrimeTooSmall, match="4 points"):
            hilbert_function_of([Site(regular(1))] * 5, 7, trials=1, p=2)


class TestSystemDimension:
    """dim L_d(sites) = ambient_sections(d) - H(d)."""

    def test_five_double_points_quartics(self):
        sites = [Site(regular(2))] * 5
        assert ambient_sections(4) - hilbert_function_of(
            sites, 4, trials=3, seed=1, p=P) == 1  # double conic

    def test_lines_through_a_point(self):
        assert ambient_sections(1) - hilbert_function_of(
            [Site(regular(1))], 1, trials=2, seed=1, p=P) == 2

    def test_four_double_points_quartics(self):
        sites = [Site(regular(2))] * 4
        assert ambient_sections(4) - hilbert_function_of(
            sites, 4, trials=3, seed=1, p=P) == 3


class TestExtraSites:
    def test_extra_sites_stack_onto_base(self):
        base = [Site(regular(1))]
        assert ambient_sections(2) - hilbert_function_of(
            base, 2, trials=2, seed=3, p=P) == 5
        extra = [Site(regular(1)), Site(regular(1))]
        assert ambient_sections(2) - hilbert_function_of(
            base + extra, 2, trials=2, seed=3, p=P) == 3


class TestHilbertFunctionOf:
    def test_four_simple_points_degree_one(self):
        sites = [Site(regular(1)) for _ in range(4)]
        assert hilbert_function_of(sites, 1, trials=3, seed=2, p=P) == 3

    def test_nine_double_points(self):
        sites = [Site(regular(2)) for _ in range(9)]
        assert hilbert_function_of(sites, 6, trials=3, seed=2, p=P) == 27

    def test_general_shape_uses_random_frame(self):
        # a 3-cell bar lies on a line in any affine frame, so one bar on a
        # conic forces that line as a component: two generic bars leave only
        # the line pair (rank 5).  With identity frames at positions on a
        # common horizontal line, both bars share one line (rank 3): the
        # random frame delivers the generic embedding.
        bar = make_staircase([3])
        generic = hilbert_function_of([Site(bar), Site(bar)], 2,
                                      trials=3, seed=4, p=P)
        assert generic == 5
        aligned = conditions_matrix(
            [Site(bar, (1, 5), ((1, 0), (0, 1))),
             Site(bar, (2, 5), ((1, 0), (0, 1)))], 2, P)
        assert rank_mod_p(aligned, P) == 3

    def test_fixed_position_reserved_mod_p(self):
        # (6, 0) is the point (1, 0) of the plane over F_5: a generic draw
        # must not land there
        sites = [Site(regular(1), (6, 0))] + [Site(regular(1))] * 3
        for seed in range(200):
            assert hilbert_function_of(sites, 3, trials=1, seed=seed,
                                       p=5) == 4

    @pytest.mark.parametrize("p", [1, -1])
    def test_non_prime_refused_before_drawing(self, p):
        # a bar needs a drawn frame, and mod 1 none is invertible: the
        # prime is refused before any draw.  The call runs in a daemon
        # thread, so a hang fails this test only.
        box = {}

        def target():
            start = time.perf_counter()
            try:
                hilbert_function_of([Site(make_staircase([2]))], 0,
                                    trials=1, p=p)
            except PrimeTooSmall:
                box["refused"] = True
            box["seconds"] = time.perf_counter() - start

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive(), "call did not return"
        assert box.get("refused"), "call did not raise PrimeTooSmall"
        assert box["seconds"] < 1.0


class TestFrameInvariance:
    def test_fat_point_rank_frame_independent(self):
        import random
        rng = random.Random(17)
        pos = [(rng.randrange(P), rng.randrange(P)) for _ in range(3)]
        base = conditions_matrix(
            [Site(regular(2), q) for q in pos], 4, P)
        r0 = rank_mod_p(base, P)
        for _ in range(10):
            while True:
                fr = ((rng.randrange(P), rng.randrange(P)),
                      (rng.randrange(P), rng.randrange(P)))
                if (fr[0][0] * fr[1][1] - fr[0][1] * fr[1][0]) % P:
                    break
            rows = conditions_matrix(
                [Site(regular(2), q, fr) for q in pos], 4, P)
            assert rank_mod_p(rows, P) == r0


class TestSemicontinuity:
    def test_collinear_double_points_drop_rank(self):
        generic = hilbert_function_of(
            [Site(regular(2)) for _ in range(3)], 2, trials=3, seed=5, p=P)
        collinear = [Site(regular(2), (1, 5)), Site(regular(2), (2, 5)),
                     Site(regular(2), (3, 5))]
        special = rank_mod_p(conditions_matrix(collinear, 2, P), P)
        assert generic >= special

    def test_collinear_simple_points(self):
        generic = hilbert_function_of(
            [Site(regular(1)) for _ in range(3)], 1, trials=3, seed=5, p=P)
        collinear = [Site(regular(1), (i, 0)) for i in range(1, 4)]
        special = rank_mod_p(conditions_matrix(collinear, 1, P), P)
        assert generic == 3 and special == 2


class TestNagataOracle:
    def test_k2_m2(self):
        rep = verify_nagata_theorem(2, 2, d_max=6, trials=3, seed=3)
        assert rep.passed

    def test_k3_m1(self):
        rep = verify_nagata_theorem(3, 1, d_max=4, trials=3, seed=3)
        assert rep.passed

    def test_reproducible_bit_for_bit(self):
        a = verify_nagata_theorem(2, 2, d_max=5, trials=2, seed=9)
        b = verify_nagata_theorem(2, 2, d_max=5, trials=2, seed=9)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_cross_check_second_prime(self):
        rep = verify_nagata_theorem(2, 1, d_max=4, trials=2, seed=1,
                                    prime2=SECOND_PRIME)
        assert rep.passed and rep.cross_check_agrees

    def test_resource_refusal(self):
        with pytest.raises(ResourceLimit):
            verify_nagata_theorem(12, 9)

    def test_desk_scale_budget(self):
        # the (6,3) table, 216 x 325 = 70,200 entries, is admitted; (7,3),
        # 294 x 435 = 127,890 entries, only with force
        require_desk_scale(216, 325)
        with pytest.raises(OracleResourceLimit):
            require_desk_scale(294, 435)
        require_desk_scale(294, 435, force=True)
        assert 216 * 325 <= DESK_MATRIX_BUDGET < 294 * 435

    def test_negative_d_max_rejected(self):
        with pytest.raises(ValueError, match="d_max"):
            verify_nagata_theorem(2, 1, d_max=-1)

    def test_rank_monotone_in_sites(self):
        sites = [Site(regular(2)) for _ in range(4)]
        prev = 0
        for n in range(1, 5):
            cur = hilbert_function_of(sites[:n], 3, trials=2, seed=6, p=P)
            assert cur >= prev
            prev = cur

    def test_csv_header_carries_seed_and_prime(self):
        rep = verify_nagata_theorem(2, 1, d_max=3, trials=2, seed=5)
        head = rep.to_csv().splitlines()[0]
        assert "seed=5" in head and "prime=" in head

    @pytest.mark.parametrize("prime,prime2", [(2**61 - 1, 1000003),
                                              (1000003, 2**61 - 1)])
    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("k,m", [(k, m) for k in (2, 3, 4)
                                     for m in (1, 2)])
    def test_table_agrees_with_per_degree_elimination(
            self, monkeypatch, k, m, trials, prime, prime2):
        seed = 10 * k + m
        d_max = k * m + k
        sites = [Site(regular(m)) for _ in range(k * k)]
        want = per_degree_oracle(sites, d_max, trials, seed, prime)
        want2 = per_degree_oracle(sites, d_max, trials, seed, prime2)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return conditions_matrix(*args, **kwargs)

        monkeypatch.setattr(interp, "conditions_matrix", counted)
        rep = verify_nagata_theorem(k, m, trials=trials, seed=seed,
                                    prime=prime)
        assert [row["oracle"] for row in rep.rows] == want
        # H reaches deg Z at the least degree with that many columns, so
        # each trial eliminates only that degree
        deg_z = k * k * m * (m + 1) // 2
        e = next(e for e in range(d_max + 1)
                 if (e + 1) * (e + 2) // 2 >= deg_z)
        assert e < d_max
        assert calls == [e] * trials
        calls.clear()
        rep2 = verify_nagata_theorem(k, m, trials=trials, seed=seed,
                                     prime=prime, prime2=prime2)
        assert calls == [e] * (2 * trials)
        assert rep2.rows == rep.rows
        assert rep2.cross_check_agrees == (want == want2)
        assert rep2.passed == (rep.passed and want == want2)

    @pytest.mark.parametrize("kwargs,error,match", [
        ({"trials": 0}, ValueError, "trials"),
        ({"d_max": -1}, ValueError, "d_max"),
        ({"prime": 3}, PrimeTooSmall, "prime 3"),
        ({"prime2": 5}, PrimeTooSmall, "prime 5"),
        ({"prime": 91}, PrimeTooSmall, "not prime"),
        # a strong pseudoprime to every base up to 37
        ({"prime": 318665857834031151167461}, PrimeTooSmall, "not prime"),
        # a cross-check at the same prime read cross_check_agrees=True
        ({"prime": P, "prime2": P}, ValueError, "^prime2 must differ"),
        # prime2=0 once read as no cross-check, and passed
        ({"prime2": 0}, PrimeTooSmall, "^0 is not prime"),
        ({"prime2": 4}, PrimeTooSmall, "^4 is not prime"),
    ])
    def test_invalid_tables_raise(self, kwargs, error, match):
        with pytest.raises(error, match=match):
            verify_nagata_theorem(2, 2, **kwargs)

    def test_same_prime_refused_before_the_budget(self, monkeypatch):
        # (20, 5) is far beyond the desk budget: the refusal comes first,
        # and no trial is eliminated
        monkeypatch.setattr(interp, "_rank_profiles", None)
        with pytest.raises(ValueError, match="^prime2 must differ"):
            verify_nagata_theorem(20, 5, prime=P, prime2=P)

    @pytest.mark.parametrize("k,m", [(5, 2), (20, 5)])
    @pytest.mark.parametrize("prime2", [0, 4])
    def test_non_prime_prime2_refused_before_the_budget(self, monkeypatch, k,
                                                        m, prime2):
        # both primes are read before the budget check and before the first
        # table: (5, 2) once eliminated it before refusing prime2=4, and
        # (20, 5) is far beyond the desk budget
        monkeypatch.setattr(interp, "_rank_profiles", None)
        with pytest.raises(PrimeTooSmall, match=f"^{prime2} is not prime"):
            verify_nagata_theorem(k, m, prime=P, prime2=prime2)

    @pytest.mark.parametrize("k,m,prime", [(3, 2, 2), (4, 1, 3)])
    def test_more_sites_than_points_refused_before_drawing(self, k, m,
                                                          prime):
        # k^2 generic sites need k^2 distinct points of the plane mod p;
        # with fewer, a draw of distinct points could never finish
        start = time.perf_counter()
        with pytest.raises(PrimeTooSmall, match=f"{prime * prime} points"):
            verify_nagata_theorem(k, m, prime=prime)
        assert time.perf_counter() - start < 1.0
