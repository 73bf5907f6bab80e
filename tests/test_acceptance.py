"""Acceptance suite: one test per stated criterion, at stated tolerances.

Every test prints a single PASS/FAIL line so the suite doubles as a
checklist (`pytest tests/test_acceptance.py -s`).
"""

import time

import pytest

from limitseries.enriques import (diagram_degree, four_point_constellation,
                                  search_multiplicities)
from limitseries.hilbert import critical_bounds_report
from limitseries.horace import (LineSystemModel, OracleScene,
                                SpecializationPlan, hypothesis_check,
                                limit_inclusion_check, validate_plan)
from limitseries.interp import verify_nagata_theorem
from limitseries.linalg import DEFAULT_PRIME
from limitseries.localring import (chain_context, closed_form_span,
                                   residual_chain, restriction_chain,
                                   special_fiber)
from limitseries.staircase import (StaircaseTuple, make_staircase,
                                   suppress_seq, suppress_tuple,
                                   vertical_collision)

from util import (SECOND_PRIME, chain_corpus, collision_limit_oracle,
                  decode_rows, monomial_span, staircases_up_to)

CORPUS_SEED = 20260810
ORACLE_PRIME = 1000003  # large enough for every degree in play at desk scale


def _report(n, ok, message):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


@pytest.fixture(scope="module")
def corpus():
    # 200 random (staircase <= 20 cells, v in {1,2,3}, r <= 3) instances,
    # non-boundary and gap-valid by construction
    return chain_corpus(CORPUS_SEED, 200)


def test_criterion_1_specialization(corpus):
    t0 = time.time()
    failures = []
    for E, v, ns in corpus:
        ctx = chain_context(E, v, ns)
        fiber = special_fiber(residual_chain(E, v, ns, ctx))
        S = suppress_seq(E, [n // v for n in ns])
        if fiber != monomial_span(S, fiber.ctx):
            failures.append((E, v, ns))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    _report(1, ok,
            f"special fiber = suppressed-staircase ideal on {len(corpus)}/200 "
            f"instances in {elapsed:.1f}s (limit 60s); failures: {failures[:3]}")


def test_criterion_2_residual_decomposition(corpus):
    failures = []
    for E, v, ns in corpus:
        ctx = chain_context(E, v, ns)
        if residual_chain(E, v, ns, ctx) != closed_form_span(E, v, ns, ctx):
            failures.append((E, v, ns))
    _report(2, not failures,
            f"closed-form span = brute-force chain on {len(corpus)}/200 "
            f"instances; failures: {failures[:3]}")


def test_criterion_3_trace_inclusion(corpus):
    failures = []
    for E, v, ns in corpus:
        ctx = chain_context(E, v, ns)
        pre = restriction_chain(E, v, ns, ctx)
        t_k = ns[-1] // v
        for w, module in pre.columns.items():
            if E.height(w) > t_k:
                if any(key[0] == 0 for row in decode_rows(module)
                       for key in row):
                    failures.append((E, v, ns, w))
    _report(3, not failures,
            f"pre-colon chain sits inside the slice ideal on "
            f"{len(corpus)}/200 instances; failures: {failures[:3]}")


# --- criterion 4: direct limit inclusion -----------------------------------

# name, shapes, speeds, levels, degree, divisor fat-point base, tight
LIMIT_TEMPLATES = [
    ("spec-cubic", [[2, 1]], (1,), (1,), 3, (1, 1, 1, 1), False),
    ("cubic-tight", [[2, 1]], (1,), (1,), 3, (1, 1, 1), True),
    ("quartic-two-level", [[2, 1]], (2,), (3, 1), 4, (2, 2), True),
    ("two-sites", [[2, 1], [1]], (2, 2), (3,), 4, (1, 1, 1, 1), True),
    ("bar", [[2]], (2,), (3,), 3, (1, 1, 1), True),
    ("quintic-r3", [[3, 2, 1]], (2,), (5, 3), 5, (2, 2, 2), False),
]


def _instance(template):
    name, heights, speeds, levels, degree, base, tight = template
    plan = SpecializationPlan(
        StaircaseTuple([make_staircase(h) for h in heights]), speeds, levels)
    bases = tuple(sum(max(0, M - (i - 1)) for M in base)
                  for i in range(1, len(levels) + 1))
    model = LineSystemModel(degree=degree, line_base_degrees=bases)
    return name, plan, model, base, tight


def test_criterion_4_limit_inclusion():
    positives = 0
    negatives = 0
    failures = []
    for template in LIMIT_TEMPLATES:
        name, plan, model, base, tight = _instance(template)
        assert not [f for f in validate_plan(plan) if f.severity == "error"]
        assert all(v["ok"] for v in hypothesis_check(plan, model))
        for seed in range(5):
            scene = OracleScene(divisor_base=base, prime=ORACLE_PRIME,
                                seed=100 + seed)
            ok, details = limit_inclusion_check(plan, model, scene, seed=seed)
            positives += 1
            if not ok:
                failures.append((name, seed, "containment"))
            if tight and details["dim_limit"] != details["dim_target"]:
                failures.append((name, seed, "tightness"))
        if tight:
            for seed in range(3):
                scene = OracleScene(divisor_base=base, prime=ORACLE_PRIME,
                                    seed=200 + seed)
                bad = suppress_tuple(plan.residual_tuple(),
                                     (0,) * len(plan.shapes))
                ok, _ = limit_inclusion_check(
                    plan, model, scene, seed=seed,
                    residual_override=bad, r_override=plan.r + 1)
                negatives += 1
                if ok:
                    failures.append((name, seed, "negative-control"))
    ok = not failures and positives >= 25 and negatives >= 10
    _report(4, ok,
            f"{positives} positive instances contained, {negatives} corrupted "
            f"controls rejected; failures: {failures[:4]}")


def test_criterion_5_nagata_desk_scale():
    pairs = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
    failures = []
    times = {}
    for k, m in pairs:
        t0 = time.time()
        report = verify_nagata_theorem(
            k, m, d_max=k * m + k, trials=3, seed=CORPUS_SEED,
            prime=DEFAULT_PRIME, prime2=SECOND_PRIME)
        times[(k, m)] = time.time() - t0
        if not report.passed or not report.cross_check_agrees:
            failures.append((k, m))
        if times[(k, m)] >= 300.0:
            failures.append((k, m, "timeout"))
    worst = max(times.values())
    _report(5, not failures,
            f"oracle = virtual Hilbert for {len(pairs)} (k,m) pairs up to "
            f"d = km+k over two primes; worst pair {worst:.1f}s (limit 300s); "
            f"failures: {failures}")


def test_criterion_6_bookkeeping_identities():
    from limitseries.hilbert import bookkeeping_identity
    t0 = time.time()
    checked = 0
    failures = []
    for k in range(4, 31):
        for m in range(1, 31):
            N = m + 1
            for s in range(k - 1):
                if not bookkeeping_identity(k, m, s):
                    failures.append((k, m, s, "codimension"))
                d = k * m + s
                for i in range(1, m + 1):
                    n_i = (N + 1) * (m - i + 1) - 1
                    total = ((k - s - 2) * (m - n_i // N)
                             + (s + 1) * (m - n_i // (N + 1)))
                    if total != s + 1 + (i - 1) * (k - 1):
                        failures.append((k, m, s, i, "slice-total"))
                    if total != d - i + 2 - k * (m - i + 1):
                        failures.append((k, m, s, i, "cross-form"))
                    checked += 1
    elapsed = time.time() - t0
    ok = not failures and elapsed < 1.0
    _report(6, ok,
            f"{checked} level identities over 4<=k<=30, m<=30, s<=k-2 in "
            f"{elapsed:.2f}s (limit 1s); failures: {failures[:3]}")


def test_criterion_7_critical_degree_bounds():
    upper_failures = []
    lower_failures = []
    for k in range(4, 21):
        for m in range(1, 21):
            rep = critical_bounds_report(k, m)
            if not rep["upper_holds"]:
                upper_failures.append((k, m))
            if not rep["lower_holds"]:
                lower_failures.append((k, m))
    # the strict lower bound is a known ambiguity: reported, never asserted
    _report(7, not upper_failures,
            f"upper bound d_c <= km+k-2 holds on the full grid; strict lower "
            f"bound fails at {len(lower_failures)} points "
            f"(e.g. {lower_failures[:3]}) - reported only")


def test_criterion_8_constellation_layer():
    problems = []
    D = four_point_constellation()
    if D.size != 8:
        problems.append("size")
    if sorted(D.proximities[4]) != [0, 2] or sorted(D.proximities[7]) != [3, 6]:
        problems.append("proximities")
    deg = diagram_degree(D.with_multiplicities((8, 2, 1, 3, 0, 1, 0, 0)))
    if deg != 47:
        problems.append(f"degree {deg} != 47")
    roots4 = {vec[0] for vec in search_multiplicities(4)}
    if 7 not in roots4:
        problems.append("root 7 missing at m=4")
    empty = [m for m in range(1, 13) if not search_multiplicities(m)]
    if empty:
        problems.append(f"empty searches at {empty}")
    _report(8, not problems,
            f"constellation, degree 47, root multiplicity 7 at m=4, "
            f"search nonempty for m<=12; problems: {problems}")


def test_criterion_9_collision_vs_flat_limit():
    t0 = time.time()
    shapes = staircases_up_to(6)
    checked = 0
    failures = []
    for i, E in enumerate(shapes):
        for F in shapes[i:]:
            expected = vertical_collision(E, F).row_lengths()
            oracle = collision_limit_oracle(E, F, ORACLE_PRIME)
            checked += 1
            if oracle != expected:
                failures.append((E, F, oracle, expected))
    elapsed = time.time() - t0
    _report(9, not failures,
            f"rowwise-sum collision = flat-limit oracle on {checked} pairs "
            f"of staircases with degree <= 6 in {elapsed:.1f}s; "
            f"failures: {failures[:2]}")
