import random
from bisect import bisect_left

import pytest

from limitseries.errors import PrimeTooSmall
from limitseries.linalg import (_BYTE_ROUTE_BITS, DEFAULT_PRIME, _pack,
                                _pack_bytes, _routes, _slot_width, _unpack,
                                _unpack_shifts, echelon_mod_p, is_prime,
                                kernel_mod_p, kernel_over_fpt, padd, pmul,
                                pnorm, psub, rank_mod_p, require_prime,
                                rref_mod_p)
from limitseries.localring import _sp_inv

from util import (back_substitution_staircase, matrix_corpus,
                  nagata_conditions, plain_echelon_mod_p,
                  plain_kernel_mod_p, plain_rank_mod_p, plain_rref_mod_p,
                  slot_stress_corpus)

P = 10007


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(DEFAULT_PRIME)
    assert is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(2**61 - 3)
    assert not is_prime(561) and not is_prime(3215031751)  # Carmichael


def test_is_prime_strong_pseudoprime_to_bases_up_to_37():
    # Sorenson and Webster, Math. Comp. 2017: a strong pseudoprime to all
    # of 2, 3, ..., 37; base 41 exposes it
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)


def test_is_prime_refuses_beyond_its_bound():
    # the least strong pseudoprime to every prime base up to 41
    bound = 3317044064679887385961981
    assert not is_prime(bound - 1) and not is_prime(bound - 2)
    for n in (bound, bound + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="bound"):
            is_prime(n)


def test_require_prime():
    with pytest.raises(PrimeTooSmall):
        require_prime(91)


def test_rank_and_rref():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_mod_p(rows, P) == 2
    rref, pivots = rref_mod_p(rows, P)
    assert pivots == [0, 1]
    assert rref[0][0] == 1 and rref[0][1] == 0


def test_rref_is_canonical():
    rng = random.Random(7)
    rows = [[rng.randrange(P) for _ in range(5)] for _ in range(3)]
    mixed = [[(2 * a + b) % P for a, b in zip(rows[0], rows[1])],
             rows[1], rows[2]]
    assert rref_mod_p(rows, P) == rref_mod_p(mixed, P)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 1000003])
def test_eliminator_agrees_with_plain_elimination(p):
    for k, m in ((6, 1), (5, 2)):
        rows = nagata_conditions(k, m, p)
        assert echelon_mod_p(rows, p) == plain_echelon_mod_p(rows, p)
    for rows in matrix_corpus(11, p):
        snapshot = [list(row) for row in rows]
        assert echelon_mod_p(rows, p) == plain_echelon_mod_p(rows, p)
        ncols = len(rows[0]) if rows else 0
        rank = plain_rank_mod_p(rows, p)
        assert rank_mod_p(rows, p) == rank
        assert rref_mod_p(rows, p) == plain_rref_mod_p(rows, p)
        assert kernel_mod_p(rows, ncols, p) == plain_kernel_mod_p(rows, ncols,
                                                                  p)
        assert rows == snapshot  # no routine mutates its input
        echelon, pivots = echelon_mod_p(rows, p)
        assert len(echelon) == len(pivots) == rank
        for i, (row, col) in enumerate(zip(echelon, pivots)):
            assert not any(row[:col]) and row[col]
            assert all(below[col] == 0 for below in echelon[i + 1:])
        assert plain_rref_mod_p(echelon, p) == plain_rref_mod_p(rows, p)
        # the column rank profile: pivots below c count the rank of the
        # first c columns
        for c in range(ncols + 1):
            assert bisect_left(pivots, c) == plain_rank_mod_p(
                [row[:c] for row in rows], p)


@pytest.mark.parametrize("p", [2, 3, 7, 1000003, DEFAULT_PRIME])
def test_packed_slots_hold_the_largest_updates(p):
    corpus = slot_stress_corpus(p)
    # both pack routes are taken
    assert {_routes(len(rows[0]), _slot_width(len(rows), p))[0]
            for rows in corpus} == {_pack, _pack_bytes}
    for rows in corpus:
        assert echelon_mod_p(rows, p) == plain_echelon_mod_p(rows, p)
        assert rref_mod_p(rows, p) == plain_rref_mod_p(rows, p)
    # the back-substitution staircase: reduced rows are p - 1 in every
    # free column, and the forward pass leaves it as it is
    rows = back_substitution_staircase(p, 40, 3)
    rref, pivots = rref_mod_p(rows, p)
    assert echelon_mod_p(rows, p) == (rows, list(range(40)))
    assert pivots == list(range(40))
    assert all(row[40:] == [p - 1] * 3 for row in rref)


@pytest.mark.parametrize("p", [2, 7, 1000003, DEFAULT_PRIME])
def test_pack_routes_agree_at_the_crossover(p):
    # the widest shift-route matrix and the narrowest byte-route one, whose
    # slots round up to whole bytes: rows with entries below p, at p - 1,
    # above p and zero (trailing too), and unreduced slots up to the slot
    # bound 2^(w-1) - 1, round-trip through each route, and the byte route
    # agrees with shifts at its width
    w = _slot_width(40, p)
    top = _BYTE_ROUTE_BITS // w
    assert _routes(top, w) == (_pack, _unpack_shifts, w)
    assert _routes(top + 1, w) == (_pack_bytes, _unpack, -(-w // 8) * 8)
    rng = random.Random(p)
    for ncols in (top, top + 1):
        pack, unpack, width = _routes(ncols, w)
        for tail in (0, 3):
            row = [rng.randrange(p) + rng.choice((0, p)) for _ in
                   range(ncols - tail - 2)] + [p - 1, 2 * p - 1] + [0] * tail
            x = pack(row, width, p)
            assert _pack(row, width, p) == x
            reduced = [v % p for v in row[:ncols - tail]]
            assert unpack(x, width) == _unpack_shifts(x, width) == reduced
            slots = [rng.randrange(1 << width - 1) for _ in range(ncols - 1)]
            slots.append((1 << width - 1) - 1)
            x = sum(v << i * width for i, v in enumerate(slots))
            assert unpack(x, width) == _unpack_shifts(x, width) == slots


def test_kernel_mod_p():
    rows = [[1, 1, 0], [0, 1, 1]]
    basis = kernel_mod_p(rows, 3, P)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) % P == 0


def test_poly_arithmetic():
    a = pnorm([1, 2, 0, 0], P)
    assert a == [1, 2]
    assert padd([1], [P - 1], P) == []
    assert psub([0, 1], [0, 1], P) == []
    assert pmul([1, 1], [1, P - 1], P) == [1, 0, P - 1]  # (1+t)(1-t) = 1-t^2
    assert pmul([1, 1], [1, 1], P, trunc=2) == [1, 2]


def test_series_inverse():
    u = {0: 1, 1: 3, 2: 5}
    inv = _sp_inv(u, 8, P)
    dense = [inv.get(e, 0) for e in range(max(inv) + 1)]
    assert pmul([1, 3, 5], dense, P, trunc=8) == [1]


@pytest.mark.parametrize("p", [2, 7, P, DEFAULT_PRIME])
def test_series_inverse_of_seeded_units(p):
    # u * u^-1 = 1 mod t^n, for constant units (the fast path) and units
    # with terms up to and beyond t^n
    rng = random.Random(p)
    for n in range(1, 12):
        for top in (0, 1, n // 2, n + 2):
            u = {e: rng.randrange(p) for e in range(1, top + 1)
                 if rng.random() < 0.7}
            u = {e: c for e, c in u.items() if c}
            u[0] = rng.randrange(1, p)
            inv = _sp_inv(u, n, p)
            assert all(c % p for c in inv.values()) and max(inv) < n
            dense_u = [u.get(e, 0) for e in range(max(u) + 1)]
            dense_inv = [inv.get(e, 0) for e in range(max(inv) + 1)]
            assert pmul(dense_u, dense_inv, p, trunc=n) == [1]
            if top == 0:
                assert inv == {0: pow(u[0], -1, p)}


def generic_rank(rows, rng):
    """Rank over F_p(t): the largest rank of the matrix at a few random t."""
    def at(c, t):
        return sum(v * pow(t, e, P) for e, v in enumerate(c)) % P
    return max(rank_mod_p([[at(c, t) for c in row] for row in rows], P)
               for t in (rng.randrange(P) for _ in range(4)))


def test_kernel_over_fpt():
    # rows of a 2x3 system with polynomial entries
    rows = [[[1], [0, 1], []],
            [[], [1], [0, 1]]]
    basis = kernel_over_fpt(rows, 3, P)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        acc = []
        for c, v in zip(row, vec):
            acc = padd(acc, pmul(c, v, P), P)
        assert acc == []


def test_kernel_over_fpt_random_check():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[[rng.randrange(P) for _ in range(rng.randrange(3))]
                 for _ in range(5)] for _ in range(3)]
        rows = [[pnorm(c, P) for c in row] for row in rows]
        basis = kernel_over_fpt(rows, 5, P)
        assert len(basis) + generic_rank(rows, rng) == 5
        for vec in basis:
            for row in rows:
                acc = []
                for c, v in zip(row, vec):
                    acc = padd(acc, pmul(c, v, P), P)
                assert acc == []
