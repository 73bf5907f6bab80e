import random
import warnings
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitseries import horace
from limitseries.errors import (BoundaryWarning, CapExceeded,
                                DivisionWitnessFailure, InvalidSequence,
                                InvalidTruncation, PrimeTooSmall)
from limitseries.linalg import (kernel_mod_p, kernel_over_fpt, padd, pmul,
                                pnorm, rank_mod_p)
from limitseries.localring import (Element, FamilyIdeal, MonomialSpace,
                                   RingContext, TModule, boundary_columns,
                                   chain_context, closed_form_residual,
                                   closed_form_span, colon_x1, flat_limit,
                                   residual_chain, restriction_chain,
                                   special_fiber, translate_ideal, truncate)
from limitseries.staircase import make_staircase, regular, suppress_seq

from util import (chain_corpus, monomial_span, plain_flat_limit,
                  random_staircase)

P = 10007


def ctx2(t=6, cap=8, p=P):
    return RingContext(dim=2, prime=p, t_trunc=t, x_cap=cap)


def mono(ctx, a, te=0, c=1):
    return Element(ctx, {(tuple(a), te): c})


class TestRingContext:
    def test_prime_validation(self):
        with pytest.raises(PrimeTooSmall):
            RingContext(dim=2, prime=91, t_trunc=2, x_cap=4)

    def test_prime_must_dominate_cap(self):
        with pytest.raises(PrimeTooSmall):
            RingContext(dim=2, prime=7, t_trunc=2, x_cap=9)


class TestElement:
    def test_mul_truncates(self):
        c = ctx2(t=3)
        f = mono(c, (1, 0)) - mono(c, (0, 0), te=2)
        g = mono(c, (0, 0), te=1)
        assert (f * g).terms == {((1, 0), 1): 1}  # t^3 term dropped

    def test_json_round_trip(self):
        c = ctx2()
        f = mono(c, (2, 1), te=3, c=5) + mono(c, (0, 0))
        assert Element.from_json(c, f.to_json()) == f


class TestTranslateIdeal:
    def test_simple_point(self):
        J = translate_ideal(make_staircase({0: 1}), 1, ctx2())
        reps = {repr(g) for g in J.generators}
        assert reps == {"x2", "-t +x1"}

    def test_two_cell_bar_speed_two(self):
        J = translate_ideal(make_staircase([2]), 2, ctx2(t=8))
        reps = {repr(g) for g in J.generators}
        assert reps == {"x2", "t^4 -2*x1*t^2 +x1^2"}

    def test_r2(self):
        J = translate_ideal(regular(2), 1, ctx2())
        assert len(J.generators) == 3
        assert J.provenance == "translated-staircase"

    def test_cap_exceeded_in_x(self):
        with pytest.raises(CapExceeded):
            translate_ideal(regular(5), 1, ctx2(cap=3))

    def test_cap_exceeded_in_t(self):
        with pytest.raises(CapExceeded):
            translate_ideal(make_staircase([4]), 2, ctx2(t=5))


class TestTruncate:
    def test_drop_t(self):
        c = ctx2(t=4)
        J = translate_ideal(make_staircase({0: 1}), 1, c)
        J1 = truncate(J, 1)
        assert {repr(g) for g in J1.generators} == {"x2", "x1"}

    def test_square_to_n2(self):
        c = ctx2(t=4)
        f = translate_ideal(make_staircase([2]), 1, c).generators[1]
        assert repr(f.truncate_t(2)) == "-2*x1*t +x1^2"

    def test_invalid_truncation(self):
        c = ctx2(t=3)
        sp = translate_ideal(regular(2), 1, c).span()
        with pytest.raises(InvalidTruncation):
            truncate(sp, 5)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_projection_composition(self, n1, n2):
        c = ctx2(t=8)
        sp = translate_ideal(regular(2), 1, c).span()
        lo = min(n1, n2)
        via = truncate(truncate(sp, max(n1, n2)), lo)
        assert via == truncate(sp, lo)


class TestColon:
    def test_monomial_example(self):
        # (x^2, xy, y^3) : x = (x, y)
        c = ctx2(t=1, cap=6)
        E = make_staircase([2, 1, 1])
        out = colon_x1(monomial_span(E, c))
        shifted = make_staircase([1])
        assert out == monomial_span(shifted, c.with_cap(5))

    def test_principal_x1(self):
        c = ctx2(t=1, cap=4)
        gens = (mono(c, (1, 0)),)
        sp = FamilyIdeal(c, gens, "derived").span()
        out = colon_x1(sp)
        full = monomial_span(make_staircase([]), c.with_cap(3))
        assert out == full

    def test_staircase_shift_rule_random(self):
        rng = random.Random(71)
        c = ctx2(t=1, cap=12)
        for _ in range(100):
            E = random_staircase(rng, max_cells=12, max_height=6)
            out = colon_x1(monomial_span(E, c))
            shifted = make_staircase(
                {k: h - 1 for k, h in E.heights.items() if h > 1})
            assert out == monomial_span(shifted, c.with_cap(11))


class TestResidualChain:
    def test_point_v1_n1_gives_unit_ideal(self):
        E = make_staircase(1)  # d=1 point
        with pytest.warns(BoundaryWarning):
            sp = residual_chain(E, 1, [1])
        assert sp.contains(Element.one(sp.ctx))

    def test_two_cells_v1_n3(self):
        E = make_staircase(2)
        sp = residual_chain(E, 1, [3])
        c = sp.ctx
        f = Element(c, {((2,), 0): 1, ((1,), 1): -2, ((0,), 2): 1})
        g = Element(c, {((1,), 1): 1, ((0,), 2): -2})
        assert sp.contains(f) and sp.contains(g)
        assert not sp.contains(Element(c, {((1,), 0): 1}))  # x1 alone is not in
        # the span is exactly the closed form's
        assert sp == closed_form_span(E, 1, [3])

    def test_point_v2_n3_alpha(self):
        E = make_staircase(1)
        sp = residual_chain(E, 2, [3])
        # generators x1 - t^2 and t (alpha_1 = max(0, 3-2) = 1)
        c = sp.ctx
        assert sp.contains(Element(c, {((1,), 0): 1, ((0,), 2): -1}))
        assert sp.contains(Element(c, {((0,), 1): 1}))
        assert not sp.contains(Element.one(c))

    def test_invalid_sequence(self):
        with pytest.raises(InvalidSequence):
            residual_chain(regular(2), 1, [2, 2])
        with pytest.raises(InvalidSequence):
            residual_chain(regular(2), 1, [0])

    def test_cap_too_small(self):
        E = regular(3)
        tight = RingContext(dim=2, prime=P, t_trunc=4, x_cap=2)
        with pytest.raises(CapExceeded):
            residual_chain(E, 1, [4], tight)


class TestClosedForm:
    def test_alpha_example(self):
        E = make_staircase(2)
        fam = closed_form_residual(E, 1, [3])
        reps = {repr(g) for g in fam.generators}
        assert "-2*t^2 +x1*t" in reps  # t(x1-t)^2/x1 in R_3

    def test_k0_edge_is_f_only(self):
        E = make_staircase(2)
        c = RingContext(dim=1, prime=P, t_trunc=5, x_cap=4)
        fam = closed_form_residual(E, 1, [], c)
        assert len(fam.generators) == 1
        assert repr(fam.generators[0]) == "t^2 -2*x1*t +x1^2"

    def test_division_witness_failure(self):
        # gap rule broken: levels (5,4) with v=2 leave a surviving
        # low-order x1 coefficient in t*f/x1^2
        E = make_staircase(2)
        with pytest.raises(DivisionWitnessFailure):
            closed_form_residual(E, 2, [5, 4])

    def test_matches_chain_on_small_corpus(self):
        for E, v, ns in chain_corpus(seed=42, count=30, max_cells=12):
            ctx = chain_context(E, v, ns)
            assert closed_form_span(E, v, ns, ctx) == \
                residual_chain(E, v, ns, ctx)


class TestSpecialFiber:
    def test_no_suppression_when_level_exceeds_need(self):
        E = make_staircase({0: 2})
        sp = residual_chain(E, 1, [3])
        fib = special_fiber(sp)
        assert fib == monomial_span(E, fib.ctx)

    def test_one_suppression(self):
        E = make_staircase({0: 2})
        sp = residual_chain(E, 2, [3])
        fib = special_fiber(sp)
        S = suppress_seq(E, [1])
        assert fib == monomial_span(S, fib.ctx)

    def test_boundary_flagged_and_fiber_is_unit(self):
        E = make_staircase(1)
        assert boundary_columns(E, 1, [1]) == [((), 1, 1)]
        with pytest.warns(BoundaryWarning):
            sp = residual_chain(E, 1, [1])
        fib = special_fiber(sp)
        assert fib.contains(Element.one(fib.ctx))  # (1), not I^{S(E,1)} = I^E


class TestTraceInclusion:
    def test_trace_on_corpus(self):
        for E, v, ns in chain_corpus(seed=9, count=25, max_cells=12):
            ctx = chain_context(E, v, ns)
            pre = restriction_chain(E, v, ns, ctx)
            t_k = ns[-1] // v
            for w, module in pre.columns.items():
                if E.height(w) > t_k:
                    for row in module.rows:
                        assert all(key[0] >= 1 for key in row), \
                            f"trace fails at {E}, v={v}, ns={ns}, col {w}"


class TestFlatLimit:
    def test_t_free_family_is_identity(self):
        c = RingContext(dim=2, prime=P, t_trunc=None, x_cap=4)
        f = mono(c, (0, 1))
        g = mono(c, (2, 0)) - mono(c, (0, 0), te=2)
        lim = flat_limit([f, g], c)
        assert lim.dimension() == 2
        assert lim.contains(mono(c.with_t(1), (0, 1)))
        assert lim.contains(mono(c.with_t(1), (2, 0)))

    def test_two_colliding_points(self):
        c = RingContext(dim=2, prime=P, t_trunc=None, x_cap=4)
        f = mono(c, (1, 0))
        g = mono(c, (0, 2)) - mono(c, (0, 1), te=1)
        lim = flat_limit([f, g], c)
        assert lim.contains(mono(c.with_t(1), (0, 2)))
        assert not lim.contains(mono(c.with_t(1), (0, 1)))

    def test_forced_elimination(self):
        c = RingContext(dim=2, prime=P, t_trunc=None, x_cap=4)
        f = mono(c, (1, 0)) + mono(c, (0, 1), te=1)
        g = mono(c, (1, 0), te=1)
        lim = flat_limit([f, g], c)
        fib = c.with_t(1)
        assert lim.contains(mono(fib, (1, 0)))
        assert lim.contains(mono(fib, (0, 1)))

    def test_dependent_vectors_dropped(self):
        c = RingContext(dim=1, prime=P, t_trunc=None, x_cap=3)
        f = mono(c, (1,)) + mono(c, (0,), te=1)
        g = f.scale(3)
        assert flat_limit([f, g], c).dimension() == 1

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_dimension_equals_rank(self, shift):
        c = RingContext(dim=1, prime=P, t_trunc=None, x_cap=6)
        fam = [mono(c, (i,), te=(i + shift) % 3) for i in range(4)]
        assert flat_limit(fam, c).dimension() == 4

    def test_dependent_family_terminates(self):
        # (1-t)x then x: reduction alone never makes the second vanish
        c = RingContext(dim=1, prime=P, t_trunc=None, x_cap=2)
        f = mono(c, (1,)) - mono(c, (1,), te=1)
        assert flat_limit([f, mono(c, (1,))], c).dimension() == 1

    def test_truncated_context_refused(self):
        c = RingContext(dim=2, prime=P, t_trunc=3, x_cap=2)
        f = mono(c, (1, 0)) + mono(c, (0, 1), te=1)
        with pytest.raises(ValueError):
            flat_limit([f, mono(c, (1, 0), te=1)], c)

    def test_dependent_corpus_agrees_with_kernel_route(self):
        """Families with planted F_p(t)-dependencies: the flat limit has the
        generic rank, and the annihilator of the row limit is the flat limit
        of the F_p(t) kernel (the route the row limit replaces)."""
        p = 2**61 - 1
        rng = random.Random(20041)
        c = RingContext(dim=2, prime=p, t_trunc=None, x_cap=2)
        fib = c.with_t(1)

        def poly(deg):
            if rng.random() < 0.3:
                return []
            shift = rng.choice((0, 0, 1, 2))
            return pnorm([0] * shift + [rng.randrange(p)
                                        for _ in range(deg + 1)], p)

        def at(q, t):
            return sum(v * pow(t, e, p) for e, v in enumerate(q)) % p

        def family(rows):
            return [{(mons[j], e): v for j, q in enumerate(row)
                     for e, v in enumerate(q) if v} for row in rows]

        for _ in range(300):
            ncols = rng.randint(1, 6)
            mons = [(i, s - i) for s in range(3) for i in range(s + 1)][:ncols]
            rows = [[poly(rng.randint(0, 2)) for _ in range(ncols)]
                    for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 3)):
                planted = [[] for _ in range(ncols)]
                for row in rows:
                    q = poly(rng.randint(0, 2))
                    planted = [padd(a, pmul(q, b, p), p)
                               for a, b in zip(planted, row)]
                rows.append(planted)
            rng.shuffle(rows)
            lim = flat_limit(family(rows), c)
            generic = max(
                rank_mod_p([[at(q, t) for q in row] for row in rows], p)
                for t in (rng.randrange(p) for _ in range(3)))
            assert lim.dimension() == generic
            dense = [[row.get((m, 0), 0) for m in mons]
                     for row in lim.rows.values()]
            annihilator = MonomialSpace.from_elements(
                fib, [{(m, 0): v for m, v in zip(mons, vec)}
                      for vec in kernel_mod_p(dense, ncols, p)])
            kernel = kernel_over_fpt(rows, ncols, p)
            assert annihilator == flat_limit(family(kernel), c)


class TestFlatLimitCanonical:
    """The plain form of a flat limit depends on the span only, and plain
    membership agrees with a dense rank test."""

    MONS = [(i, s - i) for s in range(3) for i in range(s + 1)]

    def _family(self, rng, c):
        """Random vectors over F_p[t] plus planted F_p[t]-combinations."""
        mons = rng.sample(self.MONS, rng.randint(1, 6))
        fam = [Element(c, {(m, rng.randrange(3)): rng.randrange(1, P)
                           for m in mons if rng.random() < 0.6})
               for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 2)):
            planted = Element(c, {})
            for f in fam:
                q = Element(c, {((0, 0), e): rng.randrange(P)
                                for e in range(rng.randint(0, 2))})
                planted = planted + q * f
            fam.append(planted)
        return fam

    def test_order_and_unit_scaling_keep_the_rows(self):
        rng = random.Random(31)
        c = RingContext(dim=2, prime=P, t_trunc=None, x_cap=2)
        for _ in range(200):
            fam = self._family(rng, c)
            moved = [f.scale(rng.randrange(1, P)) for f in fam]
            rng.shuffle(moved)
            assert flat_limit(moved, c).rows == flat_limit(fam, c).rows

    def test_contains_matches_dense_rank(self):
        rng = random.Random(37)
        c = RingContext(dim=2, prime=P, t_trunc=None, x_cap=2)
        fib = c.with_t(1)
        seen = set()
        for _ in range(200):
            lim = flat_limit(self._family(rng, c), c)
            rows = list(lim.rows.values())
            dense = [[row.get((m, 0), 0) for m in self.MONS] for row in rows]
            for _ in range(3):
                vec = {}
                for row in rows:
                    s = rng.randrange(P)
                    for k, v in row.items():
                        vec[k] = (vec.get(k, 0) + s * v) % P
                if rng.random() < 0.6:
                    k = (rng.choice(self.MONS), 0)
                    vec[k] = (vec.get(k, 0) + rng.randrange(1, P)) % P
                member = rank_mod_p(
                    dense + [[vec.get((m, 0), 0) for m in self.MONS]],
                    P) == len(rows)
                assert lim.contains(Element(fib, vec)) == member
                seen.add(member)
        assert seen == {True, False}


class TestFlatLimitAgreesWithPlain:
    """flat_limit on TModule rows gives the same rows, keys and order as the
    dict-of-dicts reference ``plain_flat_limit``."""

    @staticmethod
    def _same(fam, c):
        got, ref = flat_limit(fam, c), plain_flat_limit(fam, c)
        assert got.ctx == ref.ctx
        assert ([(k, list(r.items())) for k, r in got.rows.items()]
                == [(k, list(r.items())) for k, r in ref.rows.items()])

    @staticmethod
    def _corpus(rng, p, dim):
        """Empty and zero families, x after x + t^3 y (independent only
        through the basis t-degree), random vectors over F_p[t] with
        t-content, and planted F_p[t]-combinations of earlier vectors."""
        mons = [a for a in product(range(3), repeat=dim) if sum(a) <= 2]
        x, y = mons[0], mons[-1]
        out = [[], [{}], [{}, {}], [{(x, 2): p}],
               [{(x, 0): 1, (y, 3): 1}, {(x, 0): 1}]]
        for _ in range(60):
            fam = []
            for _ in range(rng.randint(1, 5)):
                shift = rng.choice((0, 0, 1, 2))
                fam.append({(a, shift + e): rng.randrange(p)
                            for a in rng.sample(mons, rng.randint(0, len(mons)))
                            for e in range(rng.randint(1, 3))})
            for _ in range(rng.randint(0, 3)):
                planted: dict = {}
                for row in fam:
                    for qe in range(rng.randint(0, 2)):
                        qc = rng.randrange(p)
                        for (a, te), v in row.items():
                            k = (a, te + qe)
                            planted[k] = (planted.get(k, 0) + qc * v) % p
                fam.append(planted)
            rng.shuffle(fam)
            out.append(fam)
        return out

    @pytest.mark.parametrize("p", [2**61 - 1, 1000003, 7])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_seeded_corpus(self, p, dim):
        rng = random.Random(f"{p}:{dim}")
        c = RingContext(dim=dim, prime=p, t_trunc=None, x_cap=2)
        for fam in self._corpus(rng, p, dim):
            self._same(fam, c)

    @pytest.mark.parametrize("kms", [(4, 1, 1), (5, 1, 1), (4, 2, 1),
                                     (6, 1, 2)])
    def test_real_plan_condition_rows(self, kms, monkeypatch):
        seen = []

        def record(family, ctx):
            seen.append((family, ctx))
            return flat_limit(family, ctx)

        monkeypatch.setattr(horace, "flat_limit", record)
        k, m, _ = kms
        plan, model = horace.build_nagata_plan(*kms)
        scene = horace.OracleScene(divisor_base=(m,) * k,
                                   ambient_base=(m,) * (k - 1) ** 2,
                                   prime=1000003, seed=1)
        assert horace.limit_inclusion_check(plan, model, scene, seed=1)[0]
        assert len(seen) == 1
        self._same(*seen[0])


class TestRowsLayout:
    """The plain echelon layout must agree with the graded one, and it is
    read-only."""

    def _pair(self):
        c = ctx2(t=3, cap=5)
        graded = translate_ideal(regular(2), 1, c).span()
        rows = MonomialSpace.from_elements(c, graded.basis())
        return graded, rows

    def test_same_dimension_and_equality(self):
        graded, rows = self._pair()
        assert rows.dimension() == graded.dimension()
        assert rows == graded and graded == rows

    @pytest.mark.parametrize("op", [lambda s: s.truncate(2),
                                    MonomialSpace.colon_x1,
                                    MonomialSpace.special_fiber],
                             ids=["truncate", "colon_x1", "special_fiber"])
    def test_operations_refused(self, op):
        graded, rows = self._pair()
        op(graded)
        with pytest.raises(TypeError, match="read-only"):
            op(rows)


class TestHowellModule:
    """Cross-validate the canonical module form against dense F_p algebra."""

    @staticmethod
    def _fp_span(rows, n, ncoords, p):
        # expand to F_p row space over the (coord, t-exp) basis
        from limitseries.linalg import rref_mod_p
        dense = []
        for row in rows:
            for b in range(n):
                vec = [0] * (ncoords * n)
                ok = False
                for (j, e), cv in row.items():
                    if e + b < n:
                        vec[j * n + e + b] = cv
                        ok = True
                if ok and any(vec):
                    dense.append(vec)
        return rref_mod_p(dense, p)[0]

    def test_matches_dense_span_randomly(self):
        rng = random.Random(5)
        p = 97
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 4)):
                row = {}
                for _ in range(rng.randint(1, 5)):
                    row[(rng.randrange(m), rng.randrange(n))] = rng.randrange(1, p)
                rows.append(row)
            mod = TModule.from_rows(p, n, m, rows)
            assert mod.dim_fp() == len(self._fp_span(rows, n, m, p))
            regen = TModule.from_rows(p, n, m, mod.expand_rows())
            assert regen == mod

    def test_membership_consistent_with_expansion(self):
        rng = random.Random(11)
        p = 97
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            rows = [{(rng.randrange(m), rng.randrange(n)): rng.randrange(1, p)
                     for _ in range(3)} for _ in range(2)]
            mod = TModule.from_rows(p, n, m, rows)
            # random R-combination of the generators must be a member
            combo = {}
            for row in rows:
                s = rng.randrange(p)
                e0 = rng.randrange(n)
                for (j, e), cv in row.items():
                    if e + e0 < n:
                        key = (j, e + e0)
                        combo[key] = (combo.get(key, 0) + s * cv) % p
            assert mod.contains_vector(combo)

    @pytest.mark.parametrize("p", [97, 2**61 - 1])
    def test_membership_matches_dense_rank(self, p):
        """Members and non-members alike, against the rank of the dense
        F_p span over the (coord, t-exponent) basis."""
        rng = random.Random(13)
        seen = set()
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            rows = [{(rng.randrange(m), rng.randrange(n)): rng.randrange(1, p)
                     for _ in range(3)} for _ in range(rng.randint(1, 3))]
            mod = TModule.from_rows(p, n, m, rows)
            span = self._fp_span(rows, n, m, p)
            for _ in range(4):
                vec = {}
                for row in rows:
                    for e0 in range(n):
                        s = rng.randrange(p)
                        for (j, e), cv in row.items():
                            if e + e0 < n:
                                key = (j, e + e0)
                                vec[key] = (vec.get(key, 0) + s * cv) % p
                if rng.random() < 0.7:
                    key = (rng.randrange(m), rng.randrange(n))
                    vec[key] = (vec.get(key, 0) + rng.randrange(1, p)) % p
                dense = [0] * (m * n)
                for (j, e), cv in vec.items():
                    dense[j * n + e] = cv
                member = rank_mod_p(span + [dense], p) == len(span)
                assert mod.contains_vector(vec) == member
                seen.add(member)
        assert seen == {True, False}
