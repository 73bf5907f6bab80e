import hashlib
import random
import threading
import time
import warnings
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitseries import horace, localring
from limitseries.errors import (BoundaryWarning, CapExceeded, CapExhausted,
                                DivisionWitnessFailure, InvalidSequence,
                                InvalidTruncation, PrimeTooSmall)
from limitseries.linalg import (is_prime, kernel_mod_p, kernel_over_fpt,
                                padd, pmul, pnorm, rank_mod_p, rref_mod_p)
from limitseries.localring import (Element, FamilyIdeal, MonomialSpace,
                                   RingContext, TModule, _chain_column,
                                   _key_width, _shifted_column,
                                   _translated_power,
                                   boundary_columns,
                                   chain_context, closed_form_residual,
                                   closed_form_span, flat_limit,
                                   residual_chain, restriction_chain,
                                   special_fiber, translate_ideal)
from limitseries.staircase import make_staircase, regular, suppress_seq

from util import (bench_pyramid_chains, bench_workloads, canonical,
                  chain_corpus, decode_rows, encode_rows,
                  howell_bucket_corpus, howell_corpus,
                  monomial_span, plain_closed_form, plain_flat_limit,
                  plain_from_rows, plain_residual_chain, plain_rref_mod_p,
                  plain_special_fiber, random_levels, random_staircase,
                  staircases_up_to, torus_corpus, torus_flat_limit,
                  torus_scene)

P = 10007


def ctx2(t=6, cap=8, p=P):
    return RingContext(dim=2, prime=p, t_trunc=t, x_cap=cap)


def mono(ctx, a, te=0, c=1):
    return Element(ctx, {(tuple(a), te): c})


def raises_value_error_quickly(fn, limit=0.1):
    """fn raises ValueError within limit seconds.  It runs in a daemon
    thread, so a call that loops forever fails this test, not the suite."""
    box = {}

    def target():
        start = time.perf_counter()
        try:
            fn()
        except ValueError as exc:
            box["error"] = exc
        box["seconds"] = time.perf_counter() - start

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive(), "call did not return"
    assert "error" in box, "call returned without ValueError"
    assert box["seconds"] < limit


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

    def test_negative_exponents_refused(self):
        # a negative x-exponent would make span() loop forever; a negative
        # t-exponent would print as t and span the full module
        c = RingContext(dim=1, prime=101, t_trunc=3, x_cap=3)
        raises_value_error_quickly(
            lambda: FamilyIdeal(c, (Element.monomial(c, (-1,)),)).span())
        raises_value_error_quickly(lambda: Element.monomial(c, (1,), -1))
        raises_value_error_quickly(lambda: mono(ctx2(), (2, -1)))

    @pytest.mark.parametrize("xexps,texp", [((1.5,), 0), ((1,), 1.7),
                                            ((1.5,), 1.7), ((2.0,), 0)])
    def test_non_integer_exponents_refused(self, xexps, texp):
        # flooring would turn x1^1.5 t^1.7 into the monomial x1*t
        c = RingContext(dim=1)
        with pytest.raises(ValueError, match="non-integer"):
            Element.monomial(c, xexps, texp)


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
        J1 = J.truncate(1)
        assert {repr(g) for g in J1.generators} == {"x2", "x1"}

    def test_square_to_n2(self):
        c = ctx2(t=4)
        f = translate_ideal(make_staircase([2]), 1, c).generators[1]
        assert repr(f.truncate_t(2)) == "-2*x1*t +x1^2"

    def test_invalid_truncation(self):
        c = ctx2(t=3)
        sp = translate_ideal(regular(2), 1, c).span()
        with pytest.raises(InvalidTruncation):
            sp.truncate(5)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_projection_composition(self, n1, n2):
        c = ctx2(t=8)
        sp = translate_ideal(regular(2), 1, c).span()
        lo = min(n1, n2)
        via = sp.truncate(max(n1, n2)).truncate(lo)
        assert via == sp.truncate(lo)


class TestColon:
    def test_monomial_example(self):
        # (x^2, xy, y^3) : x = (x, y)
        c = ctx2(t=1, cap=6)
        E = make_staircase([2, 1, 1])
        out = monomial_span(E, c).colon_x1()
        shifted = make_staircase([1])
        assert out == monomial_span(shifted, c.with_cap(5))

    def test_span_refuses_non_graded_generators(self):
        # an input error, not a resource refusal
        c = ctx2(t=2, cap=3)
        g = mono(c, (1, 0)) + mono(c, (0, 1))
        with pytest.raises(ValueError, match="non-graded"):
            FamilyIdeal(c, (g,), "derived").span()

    def test_principal_x1(self):
        c = ctx2(t=1, cap=4)
        gens = (mono(c, (1, 0)),)
        sp = FamilyIdeal(c, gens, "derived").span()
        out = sp.colon_x1()
        full = monomial_span(make_staircase([]), c.with_cap(3))
        assert out == full

    def test_staircase_shift_rule_random(self):
        rng = random.Random(71)
        c = ctx2(t=1, cap=12)
        for _ in range(100):
            E = random_staircase(rng, max_cells=12, max_height=6)
            out = monomial_span(E, c).colon_x1()
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

    def test_prime_checked_once(self):
        # every with_t, with_cap and replace builds a context on the same
        # prime: the Miller-Rabin test runs for it once
        p = 1000003
        is_prime(p)
        misses = is_prime.cache_info().misses
        E = regular(2)
        ctx = chain_context(E, 2, [3], p)
        special_fiber(residual_chain(E, 2, [3], ctx))
        assert is_prime.cache_info().misses == misses

    def test_invalid_sequence(self):
        with pytest.raises(InvalidSequence):
            residual_chain(regular(2), 1, [2, 2])
        with pytest.raises(InvalidSequence):
            residual_chain(regular(2), 1, [0])

    @pytest.mark.parametrize("ns", [[2.7], [3.0], [3, 1.5], ["2"]])
    def test_non_integral_levels_refused(self, ns):
        # int() used to floor them: [2.7] ran as level 2 and warned that
        # level 2 touches a boundary
        for build in (residual_chain, restriction_chain,
                      closed_form_residual):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="level must be an int"):
                    build(regular(2), 1, ns)

    def test_cap_too_small(self):
        E = regular(3)
        tight = RingContext(dim=2, prime=P, t_trunc=4, x_cap=2)
        with pytest.raises(CapExceeded):
            residual_chain(E, 1, [4], tight)

    @pytest.mark.parametrize("build", [residual_chain, closed_form_span,
                                       closed_form_residual])
    def test_closed_form_refuses_the_cap_the_chain_refuses(self, build):
        # at x_cap 2 the closed form once read a dimension-0 span at cap 1
        tight = RingContext(dim=2, prime=P, t_trunc=4, x_cap=2)
        with pytest.raises(CapExceeded,
                           match="x_cap 2 below needed headroom 4"):
            build(regular(3), 1, [4], tight)
        roomy = tight.with_cap(4)
        assert closed_form_span(regular(3), 1, [4], roomy) == \
            residual_chain(regular(3), 1, [4], roomy)

    @pytest.mark.parametrize("build", [residual_chain, restriction_chain,
                                       closed_form_span, closed_form_residual])
    def test_closed_form_refuses_the_truncation_the_chain_refuses(self, build):
        # the closed form once returned a space at t^4 from a t^2 context
        short = RingContext(dim=2, prime=P, t_trunc=2, x_cap=4)
        with pytest.raises(InvalidTruncation,
                           match="context t-truncation 2 below first level 4"):
            build(regular(2), 1, [4], short)

    def test_closed_form_without_levels_keeps_the_context_truncation(self):
        short = RingContext(dim=2, prime=P, t_trunc=2, x_cap=4)
        assert closed_form_span(regular(2), 1, [], short).ctx.t_trunc == 2
        assert closed_form_residual(regular(2), 1, [], short).ctx.t_trunc == 2

    @pytest.mark.parametrize("build", [residual_chain, restriction_chain,
                                       closed_form_span])
    def test_context_of_wrong_dimension_refused(self, build):
        # a 3-D fat point in a plane context, and a plane staircase in a
        # 3-D context: the columns would be keyed by the wrong arity
        pyramid = make_staircase({(b, c): 3 - b - c
                                  for b in range(3) for c in range(3 - b)})
        for E, dim in ((pyramid, 2), (regular(2), 3)):
            ctx = RingContext(dim=dim, prime=P, t_trunc=2, x_cap=10)
            with pytest.raises(ValueError, match="dimension"):
                build(E, 1, [2], ctx)

    @pytest.mark.parametrize("v", [0, -1, 1.5, "1"])
    @pytest.mark.parametrize("build", [
        chain_context, residual_chain, restriction_chain,
        closed_form_residual, closed_form_span,
        lambda E, v, ns: translate_ideal(E, v, ctx2())])
    def test_speed_must_be_an_integer_of_at_least_one(self, build, v):
        # v = 0 once built a chain of x_1 - 1, v = 1.5 warned that level 3
        # touches v*h = 3 before failing, v = -1 failed inside the row keys
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="speed v must be"):
                build(regular(2), v, [3])

    @pytest.mark.parametrize("build", [residual_chain, restriction_chain])
    def test_chain_needs_a_level(self, build):
        with pytest.raises(InvalidSequence, match="at least one level"):
            build(regular(2), 1, [])

    def test_membership_and_equality_read_the_cap(self):
        chain = residual_chain(regular(2), 1, [3])
        c = chain.ctx
        assert c.x_cap == 2
        for a in ((3, 0), (2, 1), (0, 3)):
            with pytest.raises(CapExceeded, match="outside the tracked cap"):
                chain.contains(mono(c, a))
        assert not chain.contains(mono(c, (0, 0)))
        assert chain.contains(mono(c, (0, 2)))
        roomy = residual_chain(regular(2), 1, [3], chain_context(
            regular(2), 1, [3]).with_cap(4))
        assert roomy.ctx.x_cap == 3 and roomy != chain
        assert roomy.contains(mono(roomy.ctx, (3, 0)))
        relabelled = MonomialSpace(c.with_cap(3), columns=chain.columns)
        assert relabelled != chain

    @pytest.mark.parametrize("plain_rows", [
        lambda cap, n: [],
        lambda cap, n: [{((cap + 1 + j, 0), 0): 1} for j in range(n)],
    ], ids=["fewer rows", "rows above the cap"])
    def test_graded_and_plain_spaces_that_differ(self, plain_rows):
        chain = residual_chain(regular(2), 1, [3])
        plain = MonomialSpace.from_elements(
            chain.ctx, plain_rows(chain.ctx.x_cap, chain.dimension()))
        assert chain != plain and plain != chain

    @pytest.mark.parametrize("call,error,match", [
        (lambda: TModule.from_rows(P, 2, 2, [{-1 << _key_width(2): 1}]),
         ValueError, "^negative key in"),
        (lambda: residual_chain(regular(1), 1, [2]).colon_x1().colon_x1(),
         CapExhausted, "^x_cap already exhausted$"),
        (lambda: translate_ideal(regular(1), 1, ctx2(t=None)).span(),
         ValueError, "^ideal spans need a finite t-truncation$"),
        (lambda: closed_form_residual(regular(1), 1, [], ctx2(t=None)),
         ValueError, "^closed form needs a finite t-truncation$"),
    ], ids=["negative key", "colon at cap 0", "span", "closed form"])
    def test_refusals(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @staticmethod
    def _old_headroom(E, k):
        """The cap chain_context once set: k colons on top of the largest
        minimal-generator degree of the complement and the largest h(w) +
        |w|, and at least 1."""
        gen_deg = max((sum(c) for c in E.complement_generators()), default=0)
        fit = max((h + sum(w) for w, h in E.heights.items()), default=0)
        return max(1, k + max(gen_deg, fit))

    def test_headroom_agrees_with_generator_degrees(self):
        pyramids = [make_staircase({(b, c): m - b - c for b in range(m)
                                    for c in range(m - b)})
                    for m in range(1, 7)]
        shapes = staircases_up_to(12) + pyramids
        assert len(shapes) == 272 + 6
        for E in shapes:
            for k in range(4):
                ns = list(range(k, 0, -1))
                assert chain_context(E, 1, ns).x_cap == \
                    self._old_headroom(E, k), (E, k)


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

    def test_translated_power_is_the_truncated_product(self):
        # t^shift * (x_1 - t^v)^h by h Element multiplications below t^n
        rng = random.Random(12)
        for _ in range(80):
            h, v = rng.randint(0, 7), rng.randint(1, 3)
            n, shift = rng.randint(1, 18), rng.randint(0, 6)
            c = RingContext(dim=1, prime=P, t_trunc=n, x_cap=8)
            step = mono(c, (1,)) - mono(c, (0,), te=v)
            prod = mono(c, (0,), te=shift)
            for _ in range(h):
                prod = prod * step
            power = _translated_power(h, v, n, shift)
            assert set(power) == {(a[0], te) for a, te in prod.terms}
            assert Element(c, {((j,), te): x for (j, te), x in power.items()}) \
                == prod

    def test_generators_keep_truncated_zeros(self):
        # alpha = 5 - 1 >= n_k = 2: the last generator is zero, and stays
        E = make_staircase([1])
        ctx = chain_context(E, 1, [5, 2])
        gens = closed_form_residual(E, 1, [5, 2], ctx).generators
        assert [repr(g) for g in gens] == ["-t +x1", "t", "0"]
        assert gens == plain_closed_form(E, 1, [5, 2], ctx)

    def test_generators_match_element_division_on_corpus(self):
        for E, v, ns in chain_corpus(seed=5, count=60):
            ctx = chain_context(E, v, ns)
            assert closed_form_residual(E, v, ns, ctx).generators == \
                plain_closed_form(E, v, ns, ctx)

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

    def test_agrees_with_dense_rows(self):
        # the truncation to t^1 against the t=0 images of the canonical
        # rows (chains) and against t = 0 in the generators (ideals)
        for E, v, ns in chain_corpus(seed=21, count=60) + \
                bench_pyramid_chains():
            ctx = chain_context(E, v, ns)
            for obj in (residual_chain(E, v, ns, ctx),
                        restriction_chain(E, v, ns, ctx),
                        translate_ideal(E, v, chain_context(E, v, []))):
                assert canonical(special_fiber(obj)) == \
                    canonical(plain_special_fiber(obj))


class TestChainEngineDigest:
    """Pins every column of the chain engine's outputs: residual and
    restriction chains, closed-form spans and special fibers of chains and
    of translated ideals, on a seeded corpus and the benchmark's pyramids.
    Any change of a column, t-truncation or x-cap changes the digest."""

    DIGEST = "eadb4647c0e5e428e608f83f10c3d7d6d18eba02d765d44c5cab33f812ddb270"

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for E, v, ns in chain_corpus(seed=13, count=60) + \
                bench_pyramid_chains():
            ctx = chain_context(E, v, ns)
            residual = residual_chain(E, v, ns, ctx)
            ideal = translate_ideal(E, v, chain_context(E, v, []))
            for space in (residual, restriction_chain(E, v, ns, ctx),
                          closed_form_span(E, v, ns, ctx),
                          special_fiber(residual), special_fiber(ideal)):
                h.update(repr(canonical(space)).encode())
        assert h.hexdigest() == self.DIGEST


class TestTraceInclusion:
    def test_trace_on_corpus(self):
        for E, v, ns in chain_corpus(seed=9, count=25, max_cells=12):
            ctx = chain_context(E, v, ns)
            pre = restriction_chain(E, v, ns, ctx)
            t_k = ns[-1] // v
            for w, module in pre.columns.items():
                if E.height(w) > t_k:
                    for row in decode_rows(module):
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


class TestRawDictKeys:
    """Dict rows follow Element's key rule wherever they enter a space."""

    BAD_KEYS = [(((1,), 0), "wrong arity"), (((1, 0, 0), 0), "wrong arity"),
                (((1, -1), 0), "negative"), (((1, 0), -1), "negative"),
                (((1.0, 0), 0), "non-integer"), (((1, 0), 0.5), "non-integer")]

    @pytest.mark.parametrize("key,match", BAD_KEYS)
    def test_flat_limit(self, key, match):
        # a dim-1 key in a dim-2 family once gave a 1-dimensional limit
        c = RingContext(dim=2, prime=P, x_cap=4)
        with pytest.raises(ValueError, match=match):
            flat_limit([{((0, 1), 0): 1}, {key: 1}], c)

    @pytest.mark.parametrize("key,match", BAD_KEYS)
    def test_from_elements(self, key, match):
        c = RingContext(dim=2, prime=P, t_trunc=3, x_cap=4)
        with pytest.raises(ValueError, match=match):
            MonomialSpace.from_elements(c, [{((0, 1), 0): 1}, {key: 1}])

    @pytest.mark.parametrize("key,match", BAD_KEYS)
    def test_contains(self, key, match):
        # graded membership once leaked a KeyError or a TypeError
        graded = residual_chain(regular(2), 1, [3])
        plain = MonomialSpace.from_elements(graded.ctx, [{((0, 1), 0): 1}])
        for space in (graded, plain):
            with pytest.raises(ValueError, match=match):
                space.contains({key: 1})

    def test_good_dict_rows_agree_with_elements(self):
        c = RingContext(dim=2, prime=P, t_trunc=3, x_cap=4)
        rows = [{((0, 1), 0): 1, ((1, 0), 2): 3}, {((2, 0), 1): 5}]
        elements = [Element(c, row) for row in rows]
        assert MonomialSpace.from_elements(c, rows) == \
            MonomialSpace.from_elements(c, elements)
        exact = c.with_t(None)
        assert flat_limit(rows, exact) == \
            flat_limit([Element(exact, row) for row in rows], exact)
        chain = residual_chain(regular(2), 1, [3])
        assert chain.contains({((0, 2), 0): 1}) == \
            chain.contains(mono(chain.ctx, (0, 2)))


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


class TestFlatLimitAgreesWithTorus:
    """flat_limit of a single-speed, divisor-only scene's full rows spans
    the torus limit torus_flat_limit, which takes no t-adic step."""

    @staticmethod
    def _differs_from_t1(plan, model, scene, seed=0):
        """Assert the agreement; return whether the limit differs from
        the span at t = 1."""
        cols, at_one, moving = torus_scene(plan, model, scene, seed)
        p = scene.prime
        got = flat_limit(moving, RingContext(dim=2, prime=p,
                                             x_cap=max(model.degree, 1)))
        got_rows = [[row.get((mon, 0), 0) for mon in cols]
                    for row in got.rows.values()]
        limit = plain_rref_mod_p(torus_flat_limit(at_one, cols, p), p)
        assert plain_rref_mod_p(got_rows, p) == limit
        return limit != plain_rref_mod_p(at_one, p)

    def test_bench_plans(self):
        workloads = bench_workloads()
        cases = differ = 0
        for seed in (1, 2, 3):
            for item in workloads.Limit().generate(seed):
                plan, model, scene, check_seed = item.args
                if item.id.endswith("/control") or len(set(plan.speeds)) > 1 \
                        or scene.ambient_base:
                    continue
                differ += self._differs_from_t1(plan, model, scene,
                                                check_seed)
                cases += 1
        # 15 single-speed, divisor-only plans in the catalogue; the limit
        # is not the t = 1 span in most of them
        assert (cases, differ) == (45, 39)

    @pytest.mark.parametrize("p", [1000003, 2**61 - 1])
    def test_seeded_corpus(self, p):
        corpus = torus_corpus(1, p)
        differ = sum(self._differs_from_t1(*case) for case in corpus)
        assert differ >= len(corpus) // 2


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
                                    special_fiber],
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
            mod = TModule.from_rows(p, n, m, encode_rows(rows, n))
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
            mod = TModule.from_rows(p, n, m, encode_rows(rows, n))
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
            mod = TModule.from_rows(p, n, m, encode_rows(rows, n))
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


class TestHowellAgreesWithPlain:
    """from_rows sweeps the coordinates once, in ascending order: the
    bucket row of least valuation becomes the pivot, the other bucket rows
    and the pivot's shadow move to later buckets, and earlier pivot rows
    are reduced on the spot.  plain_from_rows runs a pending stack: a row
    of lower valuation displaces a slot row, and a back-reduction pass
    follows.  The Howell form is unique, so rows, pivots and vals must be
    identical.  Inputs are encoded for from_rows and its rows decoded for
    the comparison."""

    @staticmethod
    def same(got, p, n, ncoords, rows):
        ref = plain_from_rows(p, n, ncoords, rows)
        assert (decode_rows(got), got.pivots, got.vals) == \
            (ref.rows, ref.pivots, ref.vals)

    def test_seeded_corpus(self):
        for p, n, ncoords, rows in howell_corpus(seed=15, count=1000):
            self.same(TModule.from_rows(p, n, ncoords, encode_rows(rows, n)),
                      p, n, ncoords, rows)

    def test_bucket_family(self):
        """Buckets of several rows, the least valuation off the first row
        or on two rows, multi-term units on it, and shadows that start
        where input rows start."""
        corpus = howell_bucket_corpus(seed=19)
        seen = set()
        for p, n, ncoords, rows in corpus:
            self.same(TModule.from_rows(p, n, ncoords, encode_rows(rows, n)),
                      p, n, ncoords, rows)
            starts = {min(r)[0] for r in rows}
            for j in starts:
                vals = [min(r)[1] for r in rows if min(r)[0] == j]
                e = min(vals)
                for r in rows:
                    if min(r) != (j, e):
                        continue
                    if sum(k == j for k, _te in r) > 1:
                        seen.add("unit")
                    tail = [k for k, te in r if k > j and te < e]
                    if tail and min(tail) in starts:
                        seen.add("shadow")
                if vals[0] > e:
                    seen.add("later")
                if vals.count(e) > 1:
                    seen.add("tie")
        assert seen == {"unit", "shadow", "later", "tie"}
        assert max(c[1] for c in corpus) == 20
        assert max(c[2] for c in corpus) == 12

    def test_bench_chain_inputs(self, monkeypatch):
        """Every distinct from_rows input of the chains workload at seeds 1
        and 2."""
        fast = TModule.from_rows.__func__
        calls = {}

        def recording(cls, p, n, ncoords, gen_rows, width=None):
            b = _key_width(n) if width is None else width
            mask = (1 << b) - 1
            rows = [{(k >> b, k & mask): c for k, c in r.items()}
                    for r in gen_rows]
            out = fast(cls, p, n, ncoords, gen_rows, width)
            key = (p, n, ncoords,
                   tuple(tuple(sorted(r.items())) for r in rows))
            calls[key] = (out, p, n, ncoords, rows)
            return out

        monkeypatch.setattr(TModule, "from_rows", classmethod(recording))
        chains = bench_workloads().Chains()
        for seed in (1, 2):
            for item in chains.generate(seed):
                assert chains.run(item)[0]
        monkeypatch.undo()
        assert len(calls) > 1500
        for call in calls.values():
            self.same(*call)

    def test_negative_keys_refused(self):
        # a negative coordinate would index slots[-1], the last slot
        raises_value_error_quickly(
            lambda: TModule.from_rows(101, 3, 3, encode_rows([{(-1, 0): 1}], 3)))
        raises_value_error_quickly(
            lambda: TModule.from_rows(101, 3, 3, encode_rows(
                [{(0, 0): 1, (1, -1): 1}], 3)))


class TestKeyWidthEdges:
    """Row keys are coord << b | t_exp with b = max(8, (n - 1).bit_length())
    for truncation n.  Today's outputs where the t-field is widest, where it
    is narrowest (n = 1) and where a truncation narrows it: a field too
    narrow for its t-exponents spills them into the coordinate bits."""

    Q = 2**61 - 1  # the default prime

    def test_large_levels_pinned(self):
        Q = self.Q
        cases = [
            ([1], 1, [70000], 140001,
             [((0,), (70000, 2, ((((0, 1), 1), ((1, 0), Q - 1)),
                                 (((1, 69998), 1),)))),
              ((1,), (70000, 1, ((((0, 0), 1),),)))]),
            ([2, 1], 40000, [80001], 360003,
             [((0,), (80001, 3, ((((0, 40001), 1), ((1, 1), Q // 2)),
                                 (((1, 40000), 1), ((2, 0), 1537228672809129300)),
                                 (((2, 1), 1),)))),
              ((1,), (80001, 2, ((((0, 40000), 1), ((1, 0), Q - 1)),
                                 (((1, 1), 1),)))),
              ((2,), (80001, 1, ((((0, 0), 1),),)))]),
        ]
        for heights, v, ns, dim, columns in cases:
            space = residual_chain(make_staircase(heights), v, ns)
            assert space.dimension() == dim
            assert canonical(space) == (columns, ns[0], len(heights))

    def test_large_t_flat_limit_pinned(self):
        c = RingContext(dim=2, prime=1000003, x_cap=2)
        x, y, one = (1, 0), (0, 1), (0, 0)
        lim = flat_limit([Element(c, {(x, 0): 1, (y, 70000): 1}),
                          Element(c, {(x, 0): 1, (one, 70000): 1})], c)
        assert lim.rows == {(x, 0): {(x, 0): 1},
                            (y, 0): {(y, 0): 1, (one, 0): 1000002}}

    def test_one_level_modules_pinned(self):
        rows = [{(1, 0): 3, (2, 0): 1, (3, 0): 4}, {(1, 0): 1, (2, 0): 5},
                {(0, 1): 1, (3, 0): 2}]
        mod = TModule.from_rows(7, 1, 4, encode_rows(rows, 1))
        assert mod.key() == (1, 4, ((((1, 0), 1), ((2, 0), 5)),
                                    (((3, 0), 1),)))
        assert (mod.pivots, mod.vals, mod.dim_fp()) == ([1, 3], [0, 0], 2)
        assert mod.colon().key() == (1, 3, ((((0, 0), 1), ((1, 0), 5)),
                                            (((2, 0), 1),)))
        assert mod.truncate(1) is mod
        assert TModule.full(7, 1, 3).key() == \
            (1, 3, ((((0, 0), 1),), (((1, 0), 1),), (((2, 0), 1),)))
        space = residual_chain(make_staircase([3, 1]), 2, [1])
        assert space.dimension() == 8
        assert canonical(space) == ([
            ((0,), (1, 4, ((((2, 0), 1),), (((3, 0), 1),)))),
            ((1,), (1, 3, ((((0, 0), 1),), (((1, 0), 1),), (((2, 0), 1),)))),
            ((2,), (1, 2, ((((0, 0), 1),), (((1, 0), 1),)))),
            ((3,), (1, 1, ((((0, 0), 1),),)))], 1, 3)

    @staticmethod
    def check_truncations(mod, levels):
        """mod.truncate(n) for each n in turn against plain_from_rows of
        the previous module's decoded rows."""
        for n in levels:
            out = mod.truncate(n)
            ref = plain_from_rows(mod.p, n, mod.ncoords, decode_rows(mod))
            assert (decode_rows(out), out.pivots, out.vals) == \
                (ref.rows, ref.pivots, ref.vals)
            mod = out

    def test_truncation_narrows_the_field(self):
        """Levels 300 -> 35 -> 1: a 9-bit t-field, then an 8-bit one."""
        assert [TModule.full(101, n, 1).b for n in (300, 35, 1)] == [9, 8, 8]
        rng = random.Random(23)
        for p in (2, 101, 2**61 - 1):
            for _ in range(20):
                m = rng.randint(1, 6)
                rows = [{(rng.randrange(m), rng.randrange(300)): rng.randrange(1, p)
                         for _ in range(rng.randint(1, 5))}
                        for _ in range(rng.randint(1, 4))]
                mod = TModule.from_rows(p, 300, m, encode_rows(rows, 300))
                assert decode_rows(mod) == \
                    plain_from_rows(p, 300, m, rows).rows
                self.check_truncations(mod, (35, 1))
        E, v, ns = make_staircase([2]), 140, [300, 35, 1]
        ctx = chain_context(E, v, ns)
        top = restriction_chain(E, v, ns[:1], ctx)
        assert max(k & 511 for m in top.columns.values()
                   for r in m.rows for k in r) >= 256  # needs the 9th bit
        for mod in top.columns.values():
            self.check_truncations(mod, (35, 1))
        assert residual_chain(E, v, ns, ctx) == closed_form_span(E, v, ns, ctx)

    def test_equality_reads_every_field(self):
        a = TModule.full(7, 2, 3)
        for other in (TModule.full(7, 3, 3), TModule.full(11, 2, 3),
                      TModule.full(7, 2, 4), TModule.from_rows(7, 2, 3, [])):
            assert a != other
        assert a == TModule.from_rows(7, 2, 3, a.rows)
        assert hash(a) == hash(TModule.from_rows(7, 2, 3, a.rows))

    def test_negative_tuples_refused(self):
        c = RingContext(dim=2, prime=P, x_cap=2)
        mod = TModule.full(P, 3, 3)
        for vec in ({(-1, 0): 1}, {(0, 0): 1, (1, -1): 1}):
            raises_value_error_quickly(lambda: mod.contains_vector(vec))
        raises_value_error_quickly(
            lambda: flat_limit([{((1, 0), -1): 1, ((0, 1), 0): 1}], c))


class TestModuleColon:
    """TModule.colon keeps the canonical rows with pivot >= 1, shifted down
    one coordinate.  That must equal from_rows of the same rows and the
    dense {g : x_1 g in M}."""

    @staticmethod
    def dense_colon(mod):
        """{g : x_1 g in M} over F_p through kernels: M is the annihilator
        of its annihilator, so the condition on g is linear.  RREF rows."""
        p, n, m = mod.p, mod.n, mod.ncoords
        perp = kernel_mod_p(TestHowellModule._fp_span(decode_rows(mod), n,
                                                      m, p),
                            m * n, p)
        conditions = [[w[(j + 1) * n + te] for j in range(m - 1)
                       for te in range(n)] for w in perp]
        return rref_mod_p(kernel_mod_p(conditions, (m - 1) * n, p), p)[0]

    @staticmethod
    def modules():
        p, n = 97, 4
        yield TModule.from_rows(p, n, 3, encode_rows(
            [{(0, 2): 1, (1, 0): 5}], n))  # val 2 at 0
        yield TModule.from_rows(p, n, 3, encode_rows(
            [{(0, 1): 3, (0, 2): 1, (2, 0): 1}, {(1, 3): 1}], n))
        yield TModule.full(p, n, 4)
        yield TModule.from_rows(p, n, 4, [])  # the zero module
        yield TModule.from_rows(p, n, 1, encode_rows([{(0, 1): 1}], n))
        yield TModule.full(p, n, 1)
        for p, n, ncoords, rows in howell_corpus(seed=16, count=150):
            yield TModule.from_rows(p, n, ncoords, encode_rows(rows, n))

    def test_colon_is_canonical(self):
        seen = set()
        for mod in self.modules():
            out = mod.colon()
            p, n, m = mod.p, mod.n, mod.ncoords
            shifted = [{(j - 1, te): c for (j, te), c in r.items()}
                       for r, j in zip(decode_rows(mod), mod.pivots) if j >= 1]
            fast = TModule.from_rows(p, n, m - 1, encode_rows(shifted, n))
            plain = plain_from_rows(p, n, m - 1, shifted)
            got = (out.ncoords, decode_rows(out), out.pivots, out.vals)
            for ref_rows, ref in ((decode_rows(fast), fast), (plain.rows, plain)):
                assert got == (ref.ncoords, ref_rows, ref.pivots, ref.vals)
            assert TestHowellModule._fp_span(decode_rows(out), n, m - 1, p) == \
                self.dense_colon(mod)
            seen.add((bool(mod.pivots) and mod.pivots[0] == 0
                      and mod.vals[0] > 0, mod.is_full, not mod.rows, m == 1))
        # val > 0 at coordinate 0, full, zero and one-coordinate modules
        for case in range(4):
            assert any(s[case] for s in seen)


class TestSharedFullModule:
    """TModule.full hands out one shared instance per (p, n, ncoords), so
    nothing may change a module's rows after construction."""

    def test_operations_leave_the_shared_rows_unchanged(self):
        E = make_staircase([3, 1])
        ns = [4, 2]
        ctx = chain_context(E, 1, ns)
        p, n = ctx.prime, ns[-1]
        spaces = [residual_chain(E, 1, ns, ctx), closed_form_span(E, 1, ns, ctx)]
        shared = [mod for space in spaces for mod in space.columns.values()
                  if mod is TModule.full(p, n, mod.ncoords)]
        assert shared  # the columns outside E are the shared instances
        for space in spaces:
            for mod in space.columns.values():
                mod.expand_rows()
                mod.truncate(1)
                if mod.ncoords > 1:
                    mod.colon()
            basis = space.basis()
            assert all(space.contains(el) for el in basis)
            assert space.contains(basis[0] + basis[-1])
        assert spaces[0] == spaces[1]
        b = _key_width(n)
        for mod in shared:
            k = mod.ncoords
            assert TModule.full(p, n, k).rows == [{j << b: 1} for j in range(k)]
            assert mod.colon() is TModule.full(p, n, k - 1)


def chain_layout(space):
    """A graded space's context and, column by column in order, its
    truncation, coordinates, decoded rows, pivots and vals."""
    return space.ctx, [(w, m.n, m.ncoords, decode_rows(m), m.pivots, m.vals)
                       for w, m in space.columns.items()]


def pyramid_chains():
    """The 3-D pyramids a + b + c < m, 2 <= m <= 6, at speeds 1-3 with
    seeded levels of depth 1-3."""
    rng = random.Random(31)
    out = []
    for m in range(2, 7):
        E = make_staircase({(b, c): m - b - c
                            for b in range(m) for c in range(m - b)})
        for v in (1, 2, 3):
            ns = random_levels(rng, E, v, rng.choice((1, 2, 3)))
            if ns is not None:
                out.append((E, v, ns))
    return out


class TestChainAgreesWithPlain:
    """residual_chain and restriction_chain carry each column as generator
    rows keyed for t^{n_1} (truncations filter them, a colon is one Howell
    step at coordinate 0) and canonicalise once at t^{n_k}.  The Howell
    form is unique, so they must give exactly what the composition of the
    public operators gives, which canonicalises after every truncation."""

    @staticmethod
    def same(E, v, ns, ctx=None):
        for final_colon, chain in ((True, residual_chain),
                                   (False, restriction_chain)):
            assert chain_layout(chain(E, v, ns, ctx)) == chain_layout(
                plain_residual_chain(E, v, ns, ctx, final_colon))

    def test_bench_chain_inputs(self):
        chains = bench_workloads().Chains()
        for seed in (1, 2, 3):
            for item in chains.generate(seed):
                self.same(*item.args)

    def test_acceptance_corpus(self):
        for E, v, ns in chain_corpus(20260810, 200):
            self.same(E, v, ns)

    def test_pyramids(self):
        corpus = pyramid_chains()
        assert len(corpus) == 15
        for E, v, ns in corpus:
            self.same(E, v, ns)

    def test_key_field_narrows_after_the_first_level(self):
        """n_1 = 257 keys rows with a 9-bit t-field; every later level
        fits in 8 bits, so the one canonicalisation re-keys them."""
        cases = [(make_staircase([2]), 140, [257, 35, 1]),
                 (make_staircase([2, 1]), 100, [257, 150, 3]),
                 (make_staircase([3, 1]), 90, [257, 255]),
                 (make_staircase([3, 2, 1]), 70, [257, 255, 200])]
        for E, v, ns in cases:
            assert _key_width(ns[0]) == 9 and _key_width(ns[1]) == 8
            assert not boundary_columns(E, v, ns)
            self.same(E, v, ns)

    def test_levels_off_the_gap_rule(self, monkeypatch):
        """Levels closer than v apart keep the shadow of one colon alive to
        the next, so a colon's rows at coordinate 0 are several and the
        least valuation is not always on the first of them."""
        step = localring._howell_step
        off_first = []

        def recording(bucket, j, n, p, b, mask, buckets):
            if len(buckets) > 1 and buckets[0] is buckets[1]:  # a colon
                off_first.append(min(bucket[0]) > min(map(min, bucket)))
            return step(bucket, j, n, p, b, mask, buckets)

        monkeypatch.setattr(localring, "_howell_step", recording)
        rng = random.Random(37)
        corpus = []
        while len(corpus) < 60:
            E, v = random_staircase(rng), rng.choice((2, 3))
            ns = [rng.randint(3, v * E.max_height + v)]
            while len(ns) < 3 and ns[-1] > 1:
                ns.append(max(1, ns[-1] - rng.randint(1, v - 1)))
            if len(ns) > 1 and not boundary_columns(E, v, ns):
                corpus.append((E, v, ns))
        for E, v, ns in corpus:
            self.same(E, v, ns)
        assert sum(off_first) >= 10

    def test_given_context_without_truncation(self):
        """p = 101, t_trunc=None and two more x-degrees than needed."""
        for E, v, ns in chain_corpus(seed=27, count=30) + pyramid_chains()[:4]:
            cap = chain_context(E, v, ns).x_cap + 2
            self.same(E, v, ns, RingContext(E.dim, 101, None, cap))

    def test_column_with_no_shifted_row(self):
        """ncoords <= h leaves no room for x_1^s (x_1 - t^v)^h: the column
        starts as the zero module.  _chain_column against truncate and
        colon of the canonical column, for every number of colons."""
        p, v, h, ns = 101, 1, 3, [5, 3, 1]
        for ncoords in range(1, h + 3):
            for colons in range(min(ncoords, len(ns) + 1)):
                got = _chain_column(p, v, h, ns, ncoords, colons)
                ref = _shifted_column(p, ns[0], ncoords, [
                    (_translated_power(h, v, ns[0]), h)])
                for idx, n in enumerate(ns):
                    ref = ref.truncate(n)
                    if idx < colons:
                        ref = ref.colon()
                assert (got.n, got.ncoords, decode_rows(got), got.pivots,
                        got.vals) == (ref.n, ref.ncoords, decode_rows(ref),
                                      ref.pivots, ref.vals)
                if ncoords <= h:
                    assert not got.rows


class TestChainWorkCount:
    """A chain canonicalises each column of positive height once, at
    t^{n_k}, and never truncates a canonical module: counted through
    monkeypatched TModule.from_rows, truncate and colon."""

    def test_one_canonicalisation_per_column(self, monkeypatch):
        fast = TModule.from_rows.__func__
        levels = []

        def counting(cls, p, n, ncoords, gen_rows, width=None):
            levels.append(n)
            return fast(cls, p, n, ncoords, gen_rows, width)

        def refused(*args):
            raise AssertionError("a chain called a TModule operator")

        monkeypatch.setattr(TModule, "from_rows", classmethod(counting))
        monkeypatch.setattr(TModule, "truncate", refused)
        monkeypatch.setattr(TModule, "colon", refused)
        corpus = chain_corpus(seed=29, count=40) + pyramid_chains() + [
            (make_staircase([2, 1]), 1, [2])]  # a boundary level: 2 = v * h
        for E, v, ns in corpus:
            ctx = chain_context(E, v, ns)
            for chain in (residual_chain, restriction_chain):
                levels.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", BoundaryWarning)
                    space = chain(E, v, ns, ctx)
                surviving = [w for w in space.columns if w in E.heights]
                assert surviving and levels == [ns[-1]] * len(surviving)
