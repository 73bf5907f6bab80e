import time

import pytest

from limitseries import horace
from limitseries.errors import (DomainError, HypothesisFailed,
                                LengthMismatch, MonotonicityViolation,
                                OracleResourceLimit, PrimeTooSmall)
from limitseries.horace import (LineSystemModel, OracleScene,
                                SpecializationPlan, apply_theorem,
                                build_nagata_plan, hypothesis_check,
                                limit_inclusion_check, nagata_certificate,
                                slice_degree_table, validate_plan)
from limitseries.enriques import (EnriquesDiagram, period_offset_report,
                                  search_multiplicities, three_point_reference)
from limitseries.hilbert import (ambient_sections, bookkeeping_identity,
                                 critical_bounds_report, critical_degree,
                                 virtual_hilbert)
from limitseries.interp import (Site, conditions_matrix, hilbert_function_of,
                               verify_nagata_theorem)
from limitseries.linalg import rank_mod_p
from limitseries.localring import RingContext, chain_context, translate_ideal
from limitseries.staircase import (Staircase, StaircaseTuple, f_staircase,
                                   make_staircase, regular, suppress_tuple)

from util import (bench_workloads, plain_hypothesis_dims, plain_kernel_mod_p,
                  plain_limit_inclusion_check, plain_limit_target,
                  plain_rank_mod_p)

P = 1000003


def simple_plan(shapes, speeds, levels):
    return SpecializationPlan(StaircaseTuple(shapes), speeds, levels)


def nagata_scene(k, m):
    """k fat points of multiplicity m on the divisor, (k-1)^2 elsewhere."""
    return OracleScene(divisor_base=(m,) * k, ambient_base=(m,) * (k - 1) ** 2,
                       prime=P, seed=1)


@pytest.mark.parametrize("fn,args,kwargs,name", [
    (bookkeeping_identity, (4.5, 1, 1), {}, "k"),
    (bookkeeping_identity, (4, 1, 1.0), {}, "s"),
    (critical_bounds_report, (4.5, 1), {}, "k"),
    (verify_nagata_theorem, (2.0, 1), {}, "k"),
    (verify_nagata_theorem, (2, 1), {"d_max": 2.5}, "d_max"),
    (verify_nagata_theorem, (2, 1), {"trials": 1.5}, "trials"),
    (build_nagata_plan, (4.5, 1, 1), {}, "k"),
    (build_nagata_plan, (4, 1.5, 1), {}, "m"),
    (nagata_certificate, (4.5, 1), {}, "k"),
    (hypothesis_check, build_nagata_plan(4, 1, 1),
     {"mode": "oracle", "scene": nagata_scene(4, 1), "trials": 1.5}, "trials"),
    (hilbert_function_of, ([Site(regular(1))], 2.5), {}, "d"),
    (search_multiplicities, (1.5,), {}, "m"),
    (search_multiplicities, (2,), {"root_bound": 3.5}, "root_bound"),
    (period_offset_report, (1.5,), {}, "m"),
    (three_point_reference, (1.5,), {}, "k"),
    (regular, (2.5,), {}, "m"),
    (f_staircase, (2.5,), {}, "m"),
    (virtual_hilbert, (3.5, 2), {}, "deg_z"),
    (virtual_hilbert, (3, 2.5), {}, "d"),
    (critical_degree, (3.5,), {}, "deg_z"),
    (limit_inclusion_check, (*build_nagata_plan(4, 1, 1), nagata_scene(4, 1)),
     {"r_override": 1.5}, "r_override"),
    (verify_nagata_theorem, (2, 1), {"prime": 1000003.0}, "prime"),
    (nagata_certificate, (4, 1), {"prime": 1000003.0}, "prime"),
    (RingContext, (2.0,), {}, "dim"),
    (RingContext, (2,), {"prime": 1000003.0}, "prime"),
    (RingContext, (2,), {"x_cap": 4.0}, "x_cap"),
    (RingContext, (2,), {"t_trunc": 3.5}, "t_trunc"),
    (chain_context, (regular(1), 1.5, [2]), {}, "speed v"),
    (Staircase.slice, (regular(3), 0.5), {}, "slice index"),
    (Staircase.slice_size, (regular(3), 0.5), {}, "slice index"),
    (Staircase.suppress, (regular(3), 2.5), {}, "suppression index"),
    (SpecializationPlan.t_vector, (build_nagata_plan(4, 1, 1)[0], 1.5), {},
     "level index"),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_entry_points_refuse_non_integral_arguments(fn, args, kwargs, name):
    # bookkeeping_identity(4.5, 1, 1) once returned False, virtual_hilbert(
    # 3.5, 2) returned 3.5, regular(2.5) and the others raised a bare
    # TypeError from inside range() or an index, r_override=1.5 ran the
    # whole flat limit first, and suppress(2.5) read as suppress(2) and
    # slice(0.5) as slice(0)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        fn(*args, **kwargs)


@pytest.mark.parametrize("fn,args,kwargs,name,least", [
    (Staircase, (0, {}), {}, "dim", 1),
    (Staircase, (2, {(0,): -1}), {}, "height", 0),
    (regular, (-1,), {}, "m", 0),
    (f_staircase, (-1,), {}, "m", 0),
    (virtual_hilbert, (-1, 2), {}, "deg_z", 0),
    (critical_degree, (-1,), {}, "deg_z", 0),
    (critical_bounds_report, (3, 1), {}, "k", 4),
    (critical_bounds_report, (4, 0), {}, "m", 1),
    (bookkeeping_identity, (1, 1, 0), {}, "k", 2),
    (bookkeeping_identity, (4, -1, 1), {}, "m", 0),
    (SpecializationPlan, ([regular(1)], (0,), ()), {}, "speed", 1),
    (LineSystemModel, (-1, ()), {}, "degree", 0),
    (LineSystemModel, (4, (2, -1)), {}, "base degree", 0),
    (OracleScene, ((1, 0),), {}, "multiplicity", 1),
    (OracleScene, (), {"ambient_base": (0,)}, "multiplicity", 1),
    (build_nagata_plan, (3, 1, 1), {}, "k", 4),
    (build_nagata_plan, (4, 0, 1), {}, "m", 1),
    (hypothesis_check, build_nagata_plan(4, 1, 1), {"trials": 0},
     "trials", 1),
    (limit_inclusion_check, (*build_nagata_plan(4, 1, 1), nagata_scene(4, 1)),
     {"r_override": -1}, "r_override", 0),
    (nagata_certificate, (1, 1), {}, "k", 2),
    (nagata_certificate, (4, 0), {}, "m", 1),
    (hilbert_function_of, ([Site(regular(1))], 2), {"trials": 0},
     "trials", 1),
    (verify_nagata_theorem, (0, 1), {}, "k", 1),
    (verify_nagata_theorem, (2, 0), {}, "m", 1),
    (verify_nagata_theorem, (2, 1), {"trials": 0}, "trials", 1),
    (verify_nagata_theorem, (2, 1), {"d_max": -1}, "d_max", 0),
    (EnriquesDiagram, (((), (0,)), (1, -1)), {}, "multiplicity", 0),
    (search_multiplicities, (0,), {}, "m", 1),
    (period_offset_report, (0,), {}, "m", 1),
    (three_point_reference, (0,), {}, "k", 1),
    (RingContext, (0,), {}, "dim", 1),
    (RingContext, (2,), {"x_cap": -1}, "x_cap", 0),
    (RingContext, (2,), {"t_trunc": 0}, "t_trunc", 1),
    (translate_ideal, (regular(1), 0, RingContext(2)), {}, "speed v", 1),
    (chain_context, (regular(1), 0, [2]), {}, "speed v", 1),
    (Staircase.slice, (regular(3), -1), {}, "slice index", 0),
    (Staircase.slice_size, (regular(3), -1), {}, "slice index", 0),
    (Staircase.suppress, (regular(3), -1), {}, "suppression index", 0),
    (SpecializationPlan.t_vector, (build_nagata_plan(4, 1, 1)[0], 0), {},
     "level index", 1),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_entry_points_refuse_counts_below_their_bound(fn, args, kwargs, name,
                                                      least):
    # these were about 25 hand-written checks with three exception types;
    # suppress(-1) once lowered every height, slice(-1) read as slice(0)
    # and t_vector(0) as the last level's vector
    with pytest.raises(DomainError,
                       match=f"^{name} must be >= {least}, got {least - 1}$"):
        fn(*args, **kwargs)
    with pytest.raises(ValueError):
        fn(*args, **kwargs)


def test_level_index_runs_from_one_to_r():
    # t_vector(2) of a one-level plan raised a bare IndexError
    plan = build_nagata_plan(4, 1, 1)[0]
    assert plan.r == 1
    for read in (plan.t_vector, plan.slice_sizes, plan.z_degree):
        with pytest.raises(DomainError,
                           match=r"^level index must be <= 1, got 2$"):
            read(2)


@pytest.mark.parametrize("build,error", [
    (lambda: Staircase(2, {(0,): 1, (1,): 2}), MonotonicityViolation),
    (lambda: RingContext(dim=2, prime=9), PrimeTooSmall),
], ids=["heights", "prime"])
def test_invalid_heights_and_primes_are_value_errors(build, error):
    # both once escaped an except ValueError
    with pytest.raises(ValueError) as refused:
        build()
    assert isinstance(refused.value, error)


@pytest.mark.parametrize("call,error,match", [
    (lambda: SpecializationPlan([regular(1)], (1, 2), (3,)), ValueError,
     "^one speed per shape required$"),
    # refused at construction, not by a later slice or suppression
    (lambda: SpecializationPlan([regular(2)], (1,), (-1,)), DomainError,
     r"^level must be >= 0, got -1$"),
    (lambda: build_nagata_plan(4, 1, 3), DomainError,
     "^s must satisfy 0 <= s <= k-2, got 3$"),
    (lambda: hypothesis_check(*build_nagata_plan(4, 1, 1), mode="bogus"),
     ValueError, "^unknown mode 'bogus'$"),
], ids=["speeds", "negative-level", "s", "mode"])
def test_plan_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestValidatePlan:
    def test_gap_holds_with_equality(self):
        plan = simple_plan([regular(2), regular(2)], (2, 3), (7, 4))
        codes = [f.code for f in validate_plan(plan) if f.severity == "error"]
        assert codes == []

    def test_gap_violation(self):
        plan = simple_plan([regular(2), regular(2)], (2, 3), (7, 5))
        codes = [f.code for f in validate_plan(plan)]
        assert "GapViolation" in codes

    def test_boundary_warning(self):
        plan = simple_plan([regular(2)], (1,), (2,))  # 2 = 1*h(0)
        findings = validate_plan(plan)
        assert [f.code for f in findings] == ["BoundaryWarning"]
        assert findings[0].severity == "warning"

    @pytest.mark.parametrize("levels,code", [
        ((3, 0), "NonPositiveLevel"),
        ((2, 3), "NonDecreasingLevels"),
    ])
    def test_level_errors(self, levels, code):
        plan = simple_plan([regular(1)], (1,), levels)
        assert code in [f.code for f in validate_plan(plan)
                        if f.severity == "error"]
        with pytest.raises(HypothesisFailed, match="levels must"):
            apply_theorem(plan, LineSystemModel(3, (0, 0)))

    def test_empty_levels_is_informational(self):
        plan = simple_plan([regular(1)], (1,), ())
        assert [f.code for f in validate_plan(plan)] == ["EmptyLevels"]

    @pytest.mark.parametrize("build", [
        lambda: simple_plan([regular(1)], (1.9,), (3,)),
        lambda: simple_plan([regular(1)], (1,), (3.5,)),
        lambda: LineSystemModel(3.7, (1,)),
        lambda: LineSystemModel(3, (1.2,)),
    ], ids=["speed", "level", "degree", "base degree"])
    def test_non_integral_refused(self, build):
        # int() used to floor speeds, levels and base degrees, and the
        # degree was kept as given
        with pytest.raises(ValueError, match="must be an integer"):
            build()


class TestBuildNagataPlan:
    def test_k4_m2_s0(self):
        plan, model = build_nagata_plan(4, 2, 0)
        assert plan.speeds == (3, 3, 4)
        assert plan.levels == (7, 3)
        assert len(plan.shapes) == 3
        assert model.degree == 8
        assert model.line_base_degrees == (8, 4)

    def test_k5_m1_s1(self):
        plan, _model = build_nagata_plan(5, 1, 1)
        assert plan.levels == (2,)  # (N+1)*1 - 1 with N = 2
        assert plan.speeds == (2, 2, 3, 3)

    def test_k3_rejected(self):
        with pytest.raises(DomainError):
            build_nagata_plan(3, 2, 0)

    def test_gap_equality_and_floors(self):
        for k in range(4, 8):
            for m in range(1, 5):
                for s in range(k - 1):
                    plan, _ = build_nagata_plan(k, m, s)
                    N = m + 1
                    gaps = [a - b for a, b in zip(plan.levels, plan.levels[1:])]
                    assert all(g == N + 1 for g in gaps)
                    for i in range(1, m + 1):
                        ts = plan.t_vector(i)
                        slow = ts[:k - s - 2]
                        fast = ts[k - s - 2:]
                        assert all(t == m - i + 1 for t in slow)
                        assert all(t == m - i for t in fast)


class TestSliceDegreeTable:
    def test_k4_m2_s0(self):
        plan, _ = build_nagata_plan(4, 2, 0)
        table = slice_degree_table(plan, 4, 2, 0)
        assert [lv["degrees"] for lv in table["levels"]] == \
            [[0, 0, 1], [1, 1, 2]]
        assert [lv["total"] for lv in table["levels"]] == [1, 4]

    def test_first_level_total(self):
        for k in (4, 5, 6):
            for s in (0, k - 2):
                plan, _ = build_nagata_plan(k, 2, s)
                table = slice_degree_table(plan, k, 2, s)
                assert table["levels"][0]["total"] == s + 1

    def test_identity_on_grid(self):
        for k in range(4, 9):
            for m in range(1, 5):
                for s in range(k - 1):
                    plan, _ = build_nagata_plan(k, m, s)
                    assert slice_degree_table(plan, k, m, s)["ok"]


class TestHypothesisCheck:
    def test_nagata_degree_count_tight(self):
        plan, model = build_nagata_plan(4, 2, 0)
        verdicts = hypothesis_check(plan, model)
        assert all(v["ok"] for v in verdicts)
        assert verdicts[0]["z_degree"] == 1
        assert verdicts[0]["needed"] == 1  # 8 - 8 + 1

    def test_insufficient_base_fails(self):
        plan = simple_plan([regular(1)], (1,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(0,))
        verdicts = hypothesis_check(plan, model)
        assert not verdicts[0]["ok"]
        assert verdicts[0]["needed"] == 4

    def test_oracle_agrees_with_degree_count(self):
        plan = simple_plan([regular(2)], (2,), (3, 1))
        model = LineSystemModel(degree=4, line_base_degrees=(4, 2))
        scene = OracleScene(divisor_base=(2, 2), prime=P, seed=11)
        dc = hypothesis_check(plan, model)
        orc = hypothesis_check(plan, model, "oracle", scene, seed=3)
        assert [v["ok"] for v in dc] == [v["ok"] for v in orc] == [True, True]

    def test_oracle_detects_failure(self):
        plan = simple_plan([regular(1)], (1,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(0,))
        scene = OracleScene(prime=P, seed=2)
        orc = hypothesis_check(plan, model, "oracle", scene, seed=2)
        assert not orc[0]["ok"]

    def test_oracle_point_on_cubic_instance(self):
        # cubics with four base points on the divisor; the extra on-divisor
        # point makes five collinear conditions, so the divisor splits off
        # and the drop matches the one-line removal exactly
        plan = simple_plan([regular(1)], (2,), (1,))  # t_1 = 0: one point
        model = LineSystemModel(degree=3, line_base_degrees=(4,))
        scene = OracleScene(divisor_base=(1, 1, 1, 1), prime=P, seed=8)
        dc = hypothesis_check(plan, model)
        assert dc[0]["ok"] and dc[0]["needed"] == 0
        orc = hypothesis_check(plan, model, "oracle", scene, seed=8)
        assert orc[0]["ok"]
        assert orc[0]["dim_with_z"] == orc[0]["dim_next"] == 6

    def test_oracle_scene_required(self):
        plan = simple_plan([regular(1)], (2,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(4,))
        with pytest.raises(ValueError):
            hypothesis_check(plan, model, "oracle")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_oracle_trials_below_one_refused(self, trials):
        # as hilbert_function_of and verify_nagata_theorem refuse them
        plan, model = build_nagata_plan(4, 1, 1)
        scene = nagata_scene(4, 1)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            hypothesis_check(plan, model, "oracle", scene, trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            apply_theorem(plan, model, "oracle", scene, allow_boundary=True,
                          trials=trials)

    @pytest.mark.parametrize("fields,error,match", [
        # _base_sites once dropped the negative points, and the limit check
        # reported "not contained"
        ({"divisor_base": (-3,) * 4}, ValueError, "multiplicity must be >= 1"),
        ({"ambient_base": (2, 0)}, ValueError, "multiplicity must be >= 1"),
        ({"divisor_base": (1.0,) * 4}, ValueError, "multiplicity must be"),
        ({"prime": 91}, PrimeTooSmall, "not prime"),
        ({"prime": 1000003.0}, ValueError, "prime must be"),
        ({"seed": 1.5}, ValueError, "seed must be"),
    ])
    def test_scene_checks_its_fields(self, fields, error, match):
        with pytest.raises(error, match=match):
            OracleScene(**{"divisor_base": (1,) * 4, "prime": P, **fields})


def bench_limit_items(seed):
    """The 36 plans of bench/limit_plans.json in the scenes and check seeds
    the benchmark's limit workload draws for seed: (plan, model, scene,
    seed), read through bench/workloads.py."""
    return [item.args for item in bench_workloads().Limit().generate(seed)
            if item.expect["contained"]]


def nagata_items():
    """Nagata plans for 4 <= k <= 6, m <= 3 at the critical degree of the
    k-stage scheme, in the k-point divisor scene."""
    for k in (4, 5, 6):
        for m in (1, 2, 3):
            s = critical_degree(k * k * m * (m + 1) // 2) - k * m
            plan, model = build_nagata_plan(k, m, s)
            yield plan, model, nagata_scene(k, m), 1


def edge_items():
    """Plans at the edges of the one-elimination reading."""
    fat2, one = regular(2), make_staircase([1])

    def item(shapes, speeds, levels, d, divisor, ambient=(), p=P, seed=3):
        return (simple_plan(shapes, speeds, levels), LineSystemModel(d, ()),
                OracleScene(divisor_base=divisor, ambient_base=ambient,
                            prime=p, seed=seed), seed)

    return [
        # M - i <= 0 at levels 2 and 3, at a large and a small prime
        item([fat2], (2,), (5, 3, 1), 5, (1, 3, 2), (1,)),
        item([fat2], (2,), (5, 3, 1), 5, (1, 3, 2), (1,), p=13),
        # no slice at level 1 (t beyond both shapes), one at level 2
        item([one, fat2], (3, 1), (5, 2), 3, (2, 2), (1,)),
        # d - i < 0 at the last level, and at the last two
        item([fat2], (1,), (4, 2, 1), 2, (2, 1)),
        item([fat2], (1,), (5, 3, 1), 1, (2,)),
        # the hypothesis fails, with and without base points
        item([one], (1,), (1,), 3, ()),
        item([fat2, one], (1, 2), (4, 2), 5, (3,), (2, 2)),
    ]


class TestHypothesisCheckAgreesWithPlain:
    """The oracle hypothesis check reads every level off one elimination per
    trial; plain_hypothesis_dims builds and eliminates both systems of every
    level.  Verdicts must be identical."""

    @staticmethod
    def agree(plan, model, scene, seed, trials=2):
        got = hypothesis_check(plan, model, "oracle", scene, trials, seed)
        plain = plain_hypothesis_dims(plan, model, scene, trials, seed)
        assert got == [{"level": i, "mode": "oracle", "ok": a == b,
                        "dim_with_z": a, "dim_next": b}
                       for i, (a, b) in enumerate(plain, 1)]
        return got

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_limit_plans(self, seed):
        items = bench_limit_items(seed)
        assert len(items) == 36
        for item in items:
            assert all(v["ok"] for v in self.agree(*item))

    def test_nagata_plans(self):
        for plan, model, scene, seed in nagata_items():
            assert all(v["ok"] for v in self.agree(plan, model, scene, seed,
                                                   trials=1))

    def test_edge_cases(self):
        verdicts = [self.agree(*item, trials=3) for item in edge_items()]
        flat = [v for vs in verdicts for v in vs]
        # the corpus reaches every edge it is there for
        assert any(v["dim_with_z"] == v["dim_next"] == 0 for v in flat)
        assert any(not v["ok"] for v in flat)
        assert any(v["ok"] and v["dim_next"] > 0 for v in flat)

    def test_small_prime_later_trial_lowers_the_first(self):
        # plan 17 of bench/limit_plans.json at p = 17: the first trial reads
        # 7/7, above the floor 6, and the second lowers both to it
        item = (simple_plan([make_staircase([3, 3])], (3,), (3,)),
                LineSystemModel(5, ()),
                OracleScene(divisor_base=(3, 1), ambient_base=(2, 2),
                            prime=17, seed=199601357), 0)
        for trials, dims in [(1, 7), (2, 6)]:
            verdicts = self.agree(*item, trials=trials)
            assert [(v["dim_with_z"], v["dim_next"]) for v in verdicts] \
                == [(dims, dims)]


class TestHypothesisCheckTrials:
    """The oracle hypothesis check draws no trial after every level reads
    (f_i, f_i), f_i = max(0, ambient_sections(d - i) - deg base_i): no later
    trial can go below it."""

    # the bench plans whose divisor multiplicities sum past d + 1, so the
    # line is a fixed component and the floors are never met
    MISSED = (10, 22, 26)

    @staticmethod
    def counted(monkeypatch):
        calls = []
        level_dims = horace._level_dims

        def counting(*args):
            calls.append(args)
            return level_dims(*args)

        monkeypatch.setattr(horace, "_level_dims", counting)
        return calls

    @pytest.mark.parametrize("trials", [2, 5])
    def test_bench_plans_stop_at_the_floors(self, monkeypatch, trials):
        calls = self.counted(monkeypatch)
        for idx, (plan, model, scene, seed) in enumerate(bench_limit_items(1)):
            calls.clear()
            hypothesis_check(plan, model, "oracle", scene, trials, seed)
            want = trials if idx in self.MISSED else 1
            assert len(calls) == want, f"limit/{idx:02d}"

    def test_overfull_base_stops_at_floor_zero(self, monkeypatch):
        # base_i imposes more conditions than degree d - i has sections at
        # both levels (6 > 3 and 4 > 1): the floors are 0, not negative
        calls = self.counted(monkeypatch)
        plan = simple_plan([regular(2)], (1,), (2, 1))
        scene = OracleScene(divisor_base=(3,), ambient_base=(2,), prime=P,
                            seed=5)
        verdicts = hypothesis_check(plan, LineSystemModel(2, ()), "oracle",
                                    scene, 3)
        assert [(v["dim_with_z"], v["dim_next"]) for v in verdicts] \
            == [(0, 0), (0, 0)]
        assert len(calls) == 1

    def test_failing_hypothesis_runs_every_trial(self, monkeypatch):
        calls = self.counted(monkeypatch)
        plan = simple_plan([regular(1)], (1,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(0,))
        verdicts = hypothesis_check(plan, model, "oracle",
                                    OracleScene(prime=P, seed=2), 4, 2)
        assert not verdicts[0]["ok"]
        assert len(calls) == 4


class TestApplyTheorem:
    def test_nagata_k4_m2(self):
        plan, model = build_nagata_plan(4, 2, 0)
        cert = apply_theorem(plan, model, allow_boundary=True)
        assert cert.r == 2
        slow = cert.residual[0]
        assert slow == make_staircase([1, 1])  # p^m cap D
        assert cert.residual[-1].is_empty     # fast point fully consumed
        assert cert.residual_algebraic is not None
        assert cert.residual_algebraic[0] == make_staircase([1])
        assert cert.bookkeeping["conserved"]

    def test_single_shape_residual(self):
        plan = simple_plan([regular(2)], (2,), (3,))
        model = LineSystemModel(degree=3, line_base_degrees=(3,))
        cert = apply_theorem(plan, model)
        assert cert.r == 1
        assert cert.residual[0] == make_staircase([1, 1])

    def test_gap_violation_fails(self):
        plan = simple_plan([regular(2), regular(2)], (2, 3), (7, 5))
        model = LineSystemModel(degree=5, line_base_degrees=(6, 3))
        with pytest.raises(HypothesisFailed):
            apply_theorem(plan, model)

    def test_boundary_refused_without_override(self):
        plan = simple_plan([regular(2)], (1,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(4,))
        with pytest.raises(HypothesisFailed):
            apply_theorem(plan, model)
        cert = apply_theorem(plan, model, allow_boundary=True)
        assert cert.residual_algebraic is not None

    def test_failed_hypothesis_fails(self):
        plan = simple_plan([regular(1)], (1,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(0,))
        with pytest.raises(HypothesisFailed):
            apply_theorem(plan, model)

    def test_degree_conservation_on_nagata_grid(self):
        for k in range(4, 8):
            for m in range(1, 4):
                for s in (0, k - 2):
                    plan, model = build_nagata_plan(k, m, s)
                    cert = apply_theorem(plan, model, allow_boundary=True)
                    assert cert.bookkeeping["conserved"]
                    slow_count = k - s - 2
                    for j, E in enumerate(cert.residual):
                        if j < slow_count:
                            assert E == make_staircase([1] * m)
                        else:
                            assert E.is_empty


class TestLimitInclusion:
    def test_cubic_spec_example(self):
        plan = simple_plan([regular(2)], (1,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(4,))
        scene = OracleScene(divisor_base=(1, 1, 1, 1), prime=P, seed=5)
        ok, details = limit_inclusion_check(plan, model, scene, seed=7)
        assert ok
        assert details["dim_limit"] == 3

    def test_point_sliding_r0_edge(self):
        plan = simple_plan([regular(1)], (1,), ())
        model = LineSystemModel(degree=2, line_base_degrees=())
        ok, details = limit_inclusion_check(
            plan, model, OracleScene(prime=P, seed=3), seed=3)
        assert ok
        assert details["dim_limit"] == details["dim_target"] == 5

    def test_no_target_conditions(self):
        # the residual is empty and the scene has no base points, so the
        # target is every conic and its condition matrix has no rows
        plan = simple_plan([make_staircase([1, 1, 1, 1])], (2,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(0,))
        ok, details = limit_inclusion_check(
            plan, model, OracleScene(prime=P, seed=4), seed=4)
        assert ok
        assert details["dim_limit"] == details["dim_target"] == 6

    def test_dim_bound_recorded_with_scene(self):
        plan = simple_plan([regular(1)], (2,), (1,))
        model = LineSystemModel(degree=3, line_base_degrees=(4,))
        scene = OracleScene(divisor_base=(1, 1, 1, 1), prime=P, seed=8)
        cert = apply_theorem(plan, model, scene=scene, seed=8)
        # residual is empty, so the bound is the full space of conics
        assert cert.residual[0].is_empty
        assert cert.dim_bound["oracle"] == 6

    @pytest.mark.parametrize("kms,dims", [
        ((4, 1, 1), (5, 5)), ((5, 1, 1), (3, 3)),
        ((4, 2, 1), (7, 7)), ((6, 1, 2), (9, 9)),
    ])
    def test_real_nagata_plans_contained(self, kms, dims):
        k, m, _ = kms
        plan, model = build_nagata_plan(*kms)
        ok, details = limit_inclusion_check(plan, model, nagata_scene(k, m),
                                            seed=1)
        assert ok
        assert (details["dim_limit"], details["dim_target"]) == dims

    @pytest.mark.parametrize("kms", [(4, 1, 1), (5, 1, 1), (4, 2, 1),
                                     (6, 1, 2)])
    def test_multiples_of_x_r_in_ker_b_are_x_r_times_base_r(self, kms):
        # the check cuts its target out of K = ker B by rows and gives base_r
        # none: g in K vanishes at the places past ambient_sections(d - r),
        # x^r's prefix in x-block order, exactly when g = x^r h with h in
        # L_(d-r)(base_r).  Here K comes from a plain elimination
        k, m, _ = kms
        plan, model = build_nagata_plan(*kms)
        d = model.degree
        placed = next(horace._placements(plan, nagata_scene(k, m), 1, "limit"))
        cols = horace._x_block_columns(d)
        kernel = plain_kernel_mod_p(
            conditions_matrix(horace._base_sites(placed, 0), d, P, cols),
            len(cols), P)
        assert 0 < len(kernel) < len(cols)
        columns = list(zip(*kernel))
        for r in [*range(plan.r + 2), d + 1]:
            past = columns[ambient_sections(d - r):]
            assert len(kernel) - plain_rank_mod_p(past, P) == \
                horace._system_dim(d - r, horace._base_sites(placed, r), P)

    def test_oracle_hypotheses_at_degree_12(self):
        plan, model = build_nagata_plan(4, 3, 0)
        assert model.degree == 12
        verdicts = hypothesis_check(plan, model, mode="oracle",
                                    scene=nagata_scene(4, 3), seed=1)
        assert verdicts and all(v["ok"] for v in verdicts)

    @pytest.mark.parametrize("check", [
        lambda plan, model, scene: limit_inclusion_check(plan, model, scene),
        lambda plan, model, scene: hypothesis_check(plan, model, mode="oracle",
                                                    scene=scene),
        lambda plan, model, scene: apply_theorem(plan, model, scene=scene),
    ], ids=["limit_inclusion_check", "hypothesis_check", "apply_theorem"])
    @pytest.mark.parametrize("case,entries", [
        ((6, 4, 1), 360 * 351), ((7, 4, 1), 490 * 465),
        (25, 351 * 351), (300, 45451 * 45451)])
    def test_beyond_budget_refused_in_advance(self, check, case, entries):
        if isinstance(case, tuple):
            # scene cells plus shape cells, times the sections of degree km+s
            plan, model = build_nagata_plan(*case)
            scene = nagata_scene(*case[:2])
        else:
            # one cell, no scene points: the limit check's kernel basis,
            # ker B, still holds up to one vector per section of the degree
            plan = simple_plan([make_staircase([1])], (1,), ())
            model = LineSystemModel(degree=case, line_base_degrees=())
            scene = OracleScene(prime=P, seed=1)
        start = time.perf_counter()
        with pytest.raises(OracleResourceLimit, match=f"= {entries} entries"):
            check(plan, model, scene)
        assert time.perf_counter() - start < 0.01

    def test_corrupted_residual_fails(self):
        plan = simple_plan([regular(2)], (2,), (3, 1))
        model = LineSystemModel(degree=4, line_base_degrees=(4, 2))
        scene = OracleScene(divisor_base=(2, 2), prime=P, seed=11)
        ok, details = limit_inclusion_check(plan, model, scene, seed=11)
        assert ok and details["dim_limit"] == details["dim_target"]
        bad = suppress_tuple(plan.residual_tuple(), (0,))
        ok2, _ = limit_inclusion_check(plan, model, scene, seed=11,
                                       residual_override=bad,
                                       r_override=plan.r + 1)
        assert not ok2

    def test_negative_r_override_refused(self):
        # r = -1 would shift the target by x^-1, drop its x^0 monomials and
        # read contained True with dim_target 8 > dim_limit 5
        plan, model = build_nagata_plan(4, 1, 1)
        with pytest.raises(ValueError, match="r_override must be >= 0"):
            limit_inclusion_check(plan, model, nagata_scene(4, 1), seed=1,
                                  r_override=-1)

    def test_missing_scene_refused(self):
        # as in hypothesis_check's oracle mode; it was an AttributeError
        plan, model = build_nagata_plan(4, 1, 1)
        with pytest.raises(ValueError, match="^the limit check needs a scene$"):
            limit_inclusion_check(plan, model, None)

    def test_override_of_wrong_length_refused(self):
        # four sliding shapes: a one-shape residual would drop the other
        # three from the target instead of failing
        plan, model = build_nagata_plan(5, 2, 1)
        short = StaircaseTuple([plan.residual_tuple()[0]])
        with pytest.raises(LengthMismatch, match="1 shapes.*slides 4"):
            limit_inclusion_check(plan, model, nagata_scene(5, 2), seed=1,
                                  residual_override=short)


class TestLimitInclusionWorkCount:
    """One limit check eliminates B once and builds one kernel basis, ker B.
    Its conditions matrices are B's, one per sliding shape and the
    residual's alone: the target is cut out of ker B by rows, with no
    matrix of base_r."""

    def test_one_kernel_basis_and_no_base_r_matrix(self, monkeypatch):
        assert not hasattr(horace, "kernel_mod_p")
        calls = {"reduced_kernel": [], "rref_mod_p": [],
                 "conditions_matrix": []}
        for name, log in calls.items():
            def counting(*args, fn=getattr(horace, name), log=log, **kw):
                log.append(fn(*args, **kw))
                return log[-1]
            monkeypatch.setattr(horace, name, counting)
        items = bench_workloads().Limit().generate(1)
        # a tight plan with two levels, then its control
        at = next(i for i, item in enumerate(items)
                  if item.expect.get("tight") and item.args[0].r == 2)
        for item in items[at:at + 2]:
            plan, model, scene, seed = item.args
            residual, override = plan.residual_tuple(), {}
            if not item.expect["contained"]:
                residual = suppress_tuple(residual, (0,) * len(plan.shapes))
                override = {"residual_override": residual,
                            "r_override": plan.r + 1}
            for log in calls.values():
                log.clear()
            limit_inclusion_check(plan, model, scene, seed=seed, **override)
            assert len(calls["reduced_kernel"]) == 1
            assert len(calls["rref_mod_p"]) == 1
            assert len(calls["conditions_matrix"]) == 2 + len(plan.shapes)
            assert len(calls["conditions_matrix"][-1]) \
                == sum(E.degree for E in residual) > 0


class TestLimitInclusionAgreesWithPlain:
    """limit_inclusion_check works modulo the base rows, in the free
    coordinates of ker B; plain_limit_inclusion_check flat-limits every
    row over all columns.  (contained, details) must be identical, and
    every target vector must lie in ker B, where free coordinates fix it."""

    @staticmethod
    def agree(plan, model, scene, seed, **override):
        got = limit_inclusion_check(plan, model, scene, seed=seed, **override)
        assert got == plain_limit_inclusion_check(plan, model, scene, seed,
                                                  **override)
        _placed, base, target, _r, _res = plain_limit_target(
            plan, model, scene, seed, **override)
        p = scene.prime
        assert all(sum(b * t for b, t in zip(row, vec)) % p == 0
                   for row in base for vec in target)
        return got

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_limit_plans_and_controls(self, seed):
        items = bench_workloads().Limit().generate(seed)
        assert len(items) == 54
        for item in items:
            plan, model, scene, check_seed = item.args
            if item.expect["contained"]:
                assert self.agree(*item.args)[0]
            else:
                bad = suppress_tuple(plan.residual_tuple(),
                                     (0,) * len(plan.shapes))
                assert not self.agree(plan, model, scene, check_seed,
                                      residual_override=bad,
                                      r_override=plan.r + 1)[0]

    def test_nagata_plans(self):
        # all but (5,3) and (6,3), at degrees 16 and 20, which take seconds
        for plan, model, scene, seed in nagata_items():
            if model.degree <= 14:
                assert self.agree(plan, model, scene, seed)[0]

    def test_edge_cases(self):
        fat2, one = regular(2), make_staircase([1])
        empty = OracleScene(prime=P, seed=3)
        # a base of full column rank: six simple points on conics
        full = OracleScene(ambient_base=(1,) * 6, prime=P, seed=2)
        _, details = self.agree(simple_plan([fat2], (1,), (1,)),
                                LineSystemModel(3, ()), empty, 3)
        assert details["dim_moving"] == ambient_sections(3) - 3
        plan, model = simple_plan([one], (1,), (1,)), LineSystemModel(2, ())
        _, details = self.agree(plan, model, full, 2)
        assert details["dim_moving"] == details["dim_limit"] == 0
        base = plain_limit_target(plan, model, full, 2)[1]
        assert rank_mod_p(base, P) == ambient_sections(2)
        # d - r < 0, from the plan and from r_override
        _, details = self.agree(simple_plan([one], (1,), (3, 2)),
                                LineSystemModel(1, ()), empty, 4)
        assert details["dim_target"] == 0
        self.agree(simple_plan([fat2], (2,), (3, 1)), LineSystemModel(4, ()),
                   OracleScene(divisor_base=(2, 2), prime=P, seed=11), 11,
                   r_override=5)
        # speed 3, one plan contained and one not
        assert self.agree(simple_plan([fat2], (3,), (4,)),
                          LineSystemModel(4, ()),
                          OracleScene(divisor_base=(2, 2), prime=P, seed=6),
                          6)[0]
        assert not self.agree(simple_plan([fat2, one], (3, 1), (4,)),
                              LineSystemModel(5, ()),
                              OracleScene(divisor_base=(2, 1),
                                          ambient_base=(2,), prime=P, seed=6),
                              6)[0]


class TestNagataCertificate:
    def test_k4_m1_single_reduction(self):
        cert = nagata_certificate(4, 1, seed=1)
        assert sorted({p["k"] for p in cert["plans"]}) == [4]
        assert all(cert["identities"].values())
        assert cert["base_case"]["oracle_replay"]["pass"]

    def test_base_case_replayed_beyond_m3(self):
        cert = nagata_certificate(4, 4, seed=1)
        assert cert["base_case"]["oracle_replay"] == {"pass": True,
                                                      "d_max": 15}

    def test_base_case_beyond_budget_recorded_as_refused(self):
        # 9 fat points of multiplicity 8 in degree 27: 324 x 406 entries
        start = time.perf_counter()
        cert = nagata_certificate(4, 8, seed=1)
        assert time.perf_counter() - start < 0.01
        replay = cert["base_case"]["oracle_replay"]
        assert list(replay) == ["refused"]
        assert "324 x 406 = 131544 entries" in replay["refused"]

    def test_k5_m2_two_reductions(self):
        cert = nagata_certificate(5, 2, seed=1)
        assert sorted({p["k"] for p in cert["plans"]}) == [4, 5]
        assert all(cert["identities"].values())

    def test_k2_is_base_case_only(self):
        cert = nagata_certificate(2, 2, seed=1)
        assert cert["plans"] == []
        assert cert["base_case"]["status"] == "assumed-known"

    def test_verdicts_and_residuals_recorded(self):
        cert = nagata_certificate(4, 2, seed=1)
        for plan in cert["plans"]:
            assert all(v["ok"] for v in plan["verdicts"])
            assert plan["boundary_levels"]  # slow points hit n_m = N
            assert plan["residual_algebraic"] is not None

    def test_field_order_is_stable(self):
        cert = nagata_certificate(4, 1, seed=0)
        assert list(cert.keys()) == ["k", "m", "d", "plans", "base_case",
                                     "identities", "seed", "prime"]

    def test_deterministic(self):
        import json
        a = json.dumps(nagata_certificate(5, 1, seed=3))
        b = json.dumps(nagata_certificate(5, 1, seed=3))
        assert a == b
