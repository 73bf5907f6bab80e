"""Shared helpers for the test suite: seeded corpora and brute-force oracles."""

from __future__ import annotations

import random
from math import comb

from limitseries.interp import _materialize, conditions_matrix
from limitseries.localring import (Element, FamilyIdeal, MonomialSpace,
                                   RingContext, _order_key, _sparse_rref)
from limitseries.staircase import Staircase, make_staircase

SECOND_PRIME = 2**31 - 1


# ---------------------------------------------------------------------------
# plain elimination: the reference the library's one eliminator must match
# ---------------------------------------------------------------------------

def plain_rref_mod_p(rows, p):
    """Gauss-Jordan over F_p, each pivot normalised and cleared in every
    other row at once: (rref_rows, pivot_columns)."""
    rows = [[v % p for v in row] for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        prow = [v * inv % p for v in rows[r]]
        rows[r] = prow
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r]], pivots


def plain_rank_mod_p(rows, p) -> int:
    """Rank over F_p by plain Gaussian elimination (no normalization)."""
    rows = [[v % p for v in row] for row in rows if any(v % p for v in row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                f = f * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def plain_kernel_mod_p(rows, ncols, p):
    """Right kernel read off plain_rref_mod_p, one vector per free column."""
    rref, pivots = plain_rref_mod_p(rows, p)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rref[r][free]) % p
        basis.append(vec)
    return basis


def plain_flat_limit(family, ctx: RingContext) -> MonomialSpace:
    """flat_limit on {monomial: {t-exp: c}} vectors with its own update loop
    and a pivot chosen by _order_key at every step: the reference the
    library's flat limit on TModule rows must match, rows and order."""
    if ctx.t_trunc is not None:
        raise ValueError("flat_limit needs exact coefficients (t_trunc=None)")
    p = ctx.prime
    vectors = []
    for el in family:
        terms = el.terms if isinstance(el, Element) else dict(el)
        vec = {}
        for (a, te), c in terms.items():
            if c % p:
                vec.setdefault(a, {})[te] = c % p
        vectors.append(vec)
    span_dim = len({a for vec in vectors for a in vec})

    basis = []  # (pivot_monomial, full_vector with a unit pivot at t=0)
    basis_tdeg = 0
    for vec in vectors:
        if len(basis) == span_dim:
            break
        room = basis_tdeg + max((max(q) for q in vec.values()), default=0)
        while True:
            vec = {a: {e: c for e, c in poly.items() if c}
                   for a, poly in vec.items()}
            vec = {a: poly for a, poly in vec.items() if poly}
            val = min((min(poly) for poly in vec.values()), default=0)
            room -= val
            if not vec or room < 0:
                break  # dependent over F_p(t)
            if val:
                vec = {a: {e - val: c for e, c in poly.items()}
                       for a, poly in vec.items()}
            for pivot, bvec in basis:
                c = vec.get(pivot, {}).get(0)
                if c:
                    for a, poly in bvec.items():
                        dst = vec.setdefault(a, {})
                        for e, bc in poly.items():
                            dst[e] = (dst.get(e, 0) - c * bc) % p
            head = {a: poly[0] for a, poly in vec.items() if poly.get(0)}
            if head:
                pivot = max(head, key=lambda a: _order_key((a, 0)))
                inv = pow(head[pivot], -1, p)
                vec = {a: {e: c * inv % p for e, c in poly.items() if c}
                       for a, poly in vec.items()}
                basis.append((pivot, vec))
                basis_tdeg += max(max(poly) for poly in vec.values() if poly)
                break
            # t=0 layer cancelled; loop divides by t again

    limit_rows = [{(a, 0): poly[0] for a, poly in bvec.items() if poly.get(0)}
                  for _pivot, bvec in basis]
    return MonomialSpace(ctx.with_t(1), rows=_sparse_rref(limit_rows, p))


def matrix_corpus(seed, p, count=40):
    """Seeded matrices over F_p: random, rank-deficient (a product of thin
    factors), with zero rows, empty and one-column."""
    rng = random.Random(seed)
    out = [[], [[], []], [[0]], [[0], [0]], [[rng.randrange(1, p)]],
           [[p], [2 * p + 1]]]
    for n in range(count):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        kind = n % 3
        if kind == 0:
            rows = [[rng.randrange(p) for _ in range(ncols)]
                    for _ in range(nrows)]
        else:
            inner = rng.randint(1, min(nrows, ncols))
            left = [[rng.randrange(p) for _ in range(inner)]
                    for _ in range(nrows)]
            right = [[rng.randrange(p) for _ in range(ncols)]
                     for _ in range(inner)]
            rows = [[sum(a * right[j][c] for j, a in enumerate(lrow)) % p
                     for c in range(ncols)] for lrow in left]
        if kind == 2:
            for i in rng.sample(range(nrows), rng.randint(1, nrows)):
                rows[i] = [0] * ncols
        out.append(rows)
    return out


def per_degree_oracle(sites, d_max, trials, seed, p):
    """The oracle column one degree at a time: for each d a fresh trial
    sequence from seed, the degree-d conditions matrix and its plain rank,
    maxed over trials."""
    out = []
    for d in range(d_max + 1):
        rng = random.Random(seed)
        out.append(max(
            plain_rank_mod_p(conditions_matrix(_materialize(sites, rng, p),
                                               d, p), p)
            for _ in range(trials)))
    return out


def monomial_span(E: Staircase, ctx: RingContext) -> MonomialSpace:
    """Span of the monomial ideal I^E inside the context."""
    gens = tuple(Element(ctx, {(tuple(c), 0): 1})
                 for c in E.complement_generators())
    return FamilyIdeal(ctx, gens, "derived").span()


def random_staircase(rng, max_cells=20, max_height=8) -> Staircase:
    heights = []
    h = rng.randint(1, max_height)
    total = 0
    while h > 0 and total + h <= max_cells:
        heights.append(h)
        total += h
        if rng.random() < 0.25:
            break
        h = rng.randint(0, h)
    return make_staircase(heights if heights else [1])


def random_levels(rng, E, v, r):
    """Strictly decreasing levels obeying the gap rule, avoiding every
    boundary value v*h; None if no sequence was found."""
    hmax = E.max_height
    forbidden = {v * h for h in set(E.heights.values())}
    for _ in range(300):
        n = rng.randint(1, v * hmax + v)
        ns = [n]
        for _ in range(r - 1):
            ns.append(ns[-1] + v + rng.randint(0, 2))
        ns = list(reversed(ns))
        if not any(x in forbidden for x in ns):
            return ns
    return None


def chain_corpus(seed, count, speeds=(1, 2, 3), depths=(1, 2, 3),
                 max_cells=20):
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        E = random_staircase(rng, max_cells=max_cells)
        v = rng.choice(list(speeds))
        r = rng.choice(list(depths))
        ns = random_levels(rng, E, v, r)
        if ns is None:
            continue
        out.append((E, v, ns))
    return out


def partitions_up_to(nmax):
    """All non-increasing positive integer tuples with sum <= nmax."""
    out = [()]

    def rec(prefix, remaining, bound):
        for part in range(min(remaining, bound), 0, -1):
            cur = prefix + (part,)
            out.append(cur)
            rec(cur, remaining - part, part)

    rec((), nmax, nmax)
    return out


def staircases_up_to(degree):
    return [make_staircase(list(p)) for p in partitions_up_to(degree)]


def collision_limit_oracle(E: Staircase, F: Staircase, p):
    """Flat-limit oracle for the collision of I^E with the x_2-translate
    of I^F: computes lim_{t->0} of the intersection ideal by exact linear
    algebra, one x_1-degree at a time (both ideals are x_1-graded, so the
    intersection and its limit split along that grading).

    Returns the row-length vector of the limit if it is a monomial ideal
    with initial-segment rows, else None.
    """
    from limitseries.linalg import kernel_over_fpt
    from limitseries.localring import flat_limit

    re = E.row_lengths()
    rf = F.row_lengths()
    depth = max(len(re), len(rf))
    rows_out = []
    for a in range(depth):
        rea = re[a] if a < len(re) else 0
        rfa = rf[a] if a < len(rf) else 0
        B = rea + rfa + 2
        # the intersection piece: combinations of (y-t)^c, rfa <= c <= B,
        # whose y^b coefficients vanish for b < rea
        cond = []
        for b in range(rea):
            row = []
            for c in range(rfa, B + 1):
                if c >= b:
                    val = comb(c, b) * (-1) ** (c - b) % p
                    row.append([0] * (c - b) + [val])
                else:
                    row.append([])
            cond.append(row)
        lams = kernel_over_fpt(cond, B - rfa + 1, p)
        ctx = RingContext(dim=1, prime=p, t_trunc=None, x_cap=B)
        family = []
        for lam in lams:
            terms: dict = {}
            for ci, poly in enumerate(lam):
                c = rfa + ci
                if not poly:
                    continue
                for j in range(c + 1):
                    base = comb(c, j) * (-1) ** (c - j) % p
                    if not base:
                        continue
                    for e, coeff in enumerate(poly):
                        if coeff:
                            key = ((j,), e + c - j)
                            terms[key] = (terms.get(key, 0)
                                          + base * coeff) % p
            family.append(Element(ctx, terms))
        limit = flat_limit(family, ctx)
        dim = limit.dimension()
        b0 = B + 1 - dim
        expected = MonomialSpace.from_elements(
            ctx.with_t(1),
            [Element(ctx.with_t(1), {((b,), 0): 1}) for b in range(b0, B + 1)])
        if limit != expected:
            return None
        rows_out.append(b0)
    while rows_out and rows_out[-1] == 0:
        rows_out.pop()
    return rows_out
