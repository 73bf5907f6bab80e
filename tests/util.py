"""Shared helpers for the test suite: seeded corpora and brute-force oracles."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from math import comb
from pathlib import Path

from limitseries import horace
from limitseries.interp import (Site, _materialize, conditions_matrix,
                                monomials_of_degree_at_most)
from limitseries.linalg import (_BYTE_ROUTE_BITS, _slot_width,
                                kernel_mod_p, rank_mod_p, rref_mod_p)
from limitseries.localring import (Element, FamilyIdeal, MonomialSpace,
                                   RingContext, TModule, _chain_entry,
                                   _encode, _order_key,
                                   _sp_inv, _sparse_rref, _translated_power,
                                   closed_form_residual, flat_limit)
from limitseries.staircase import (Staircase, f_staircase, make_staircase,
                                   regular)

SECOND_PRIME = 2**31 - 1
BENCH_WORKLOADS = (Path(__file__).resolve().parents[1] / "bench"
                   / "workloads.py")


def bench_workloads():
    """bench/workloads.py as a module, so tests run the benchmark's items."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    return workloads


def bench_pyramid_chains(seed=1):
    """The 12 (E, v, ns) 3-D pyramid chains of the chains workload."""
    return [item.args for item in bench_workloads().Chains().generate(seed)
            if item.args[0].dim == 3]


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


def plain_echelon_mod_p(rows, p):
    """Forward elimination on lists, one row update at a time: the
    reference echelon_mod_p's packed rows must match, rows, pivots and
    row order."""
    rows = [[v % p for v in row] for row in rows if any(v % p for v in row)]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = pow(prow[col], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                f = f * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def plain_rank_mod_p(rows, p) -> int:
    """Rank over F_p by plain Gaussian elimination (no normalization)."""
    return len(plain_echelon_mod_p(rows, p)[1])


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


def encode_rows(rows, n):
    """{(coord, t_exp): c} rows keyed as TModule rows of truncation n."""
    return [_encode(row, n) for row in rows]


def decode_rows(mod):
    """A TModule's rows as {(coord, t_exp): c} dicts."""
    b = mod.b
    mask = (1 << b) - 1
    return [{(k >> b, k & mask): c for k, c in row.items()} for row in mod.rows]


def _plain_add_mul(row, other, q, n, p):
    """row += q(t) * other in place on {(coord, t_exp): c} rows, dropping
    t^n and beyond."""
    for qe, qc in q.items():
        for (j, te), c in other.items():
            te2 = te + qe
            if te2 < n:
                k = (j, te2)
                v = (row.get(k, 0) + c * qc) % p
                if v:
                    row[k] = v
                elif k in row:
                    del row[k]
    return row


def plain_from_rows(p, n, ncoords, gen_rows):
    """Howell canonicalisation on {(coord, t_exp): c} rows with its own row
    update, that normalises every popped row and cancels a displaced slot
    row on the spot: the reference TModule.from_rows must match, rows
    (decoded), pivots and vals.  Its rows stay tuple-keyed."""
    slots: list = [None] * ncoords  # pivot coordinate -> (row, val)
    pending = []
    for row in gen_rows:
        r = {k: c % p for k, c in row.items()
             if k[1] < n and k[0] < ncoords and c % p}
        if r:
            pending.append(r)

    while pending:
        row = pending.pop()
        j = min(k[0] for k in row)
        e = min(k[1] for k in row if k[0] == j)
        unit = {k[1] - e: c for k, c in row.items() if k[0] == j}
        if unit != {0: 1}:
            # coordinate j becomes exactly t^e: unit * unit^-1 = 1 mod t^n
            row = _plain_add_mul({}, row, _sp_inv(unit, n, p), n, p)
        if slots[j] is None or e < slots[j][1]:
            old = slots[j]
            slots[j] = (row, e)
            if e > 0:
                # t^(n-e) * row, nonzero tail of the annihilator multiple
                sh = _plain_add_mul({}, row, {n - e: 1}, n, p)
                if sh:
                    pending.append(sh)
            if old is None:
                continue
            row, e = old
        # slot pivot val <= e: cancel coordinate j of row exactly
        srow, se = slots[j]
        _plain_add_mul(row, srow, {e - se: p - 1}, n, p)
        if row:
            pending.append(row)

    kept = [(j, s) for j, s in enumerate(slots) if s is not None]
    pivots = [j for j, _s in kept]
    rows = [r for _j, (r, _e) in kept]
    vals = [e for _j, (_r, e) in kept]
    # back-reduction: entries at later pivots reduced below their val
    for i, r in enumerate(rows):
        for js, es, srow in zip(pivots[i + 1:], vals[i + 1:], rows[i + 1:]):
            q = {te - es: -c for (jj, te), c in r.items()
                 if jj == js and te >= es}
            if q:
                _plain_add_mul(r, srow, q, n, p)
    return TModule(p, n, ncoords, rows, pivots, vals)


def howell_corpus(seed, count=300):
    """Seeded (p, n, ncoords, rows) inputs of from_rows, n <= 12 and
    ncoords <= 10: multi-term units, rows that displace a slot, duplicate
    rows, zero rows (empty, or every coefficient a multiple of p) and
    entries at coordinates >= ncoords or t-exponents >= n."""
    rng = random.Random(seed)
    primes = (2, 3, 97, 1000003, 2**61 - 1)
    out = []
    for idx in range(count):
        p = primes[idx % len(primes)]
        n, m = rng.randint(1, 12), rng.randint(1, 10)
        rows = []
        for _ in range(rng.randint(0, 6)):
            j = rng.randrange(m)
            row = {}
            # several t-terms at the pivot coordinate make a multi-term unit
            for _ in range(rng.randint(1, 3)):
                row[(j, rng.randrange(n))] = rng.randrange(-3 * p, 3 * p)
            for _ in range(rng.randint(0, 5)):
                row[(rng.randrange(m + 2), rng.randrange(n + 2))] = \
                    rng.randrange(-3 * p, 3 * p)
            rows.append(row)
        if rows and rng.random() < 0.3:
            rows.append(dict(rng.choice(rows)))
        if rng.random() < 0.2:
            rows.append({})
        if rng.random() < 0.2:
            rows.append({(rng.randrange(m), rng.randrange(n)): p})
        if n > 1 and rng.random() < 0.4:
            # popped last to first: a high-valuation row takes the slot of
            # coordinate j, then a unit row at j displaces it
            j = rng.randrange(m)
            rows += [{(j, 0): rng.randrange(1, p), (m - 1, 0): 1},
                     {(j, rng.randrange(1, n)): 1, (j, n - 1): 1}]
        out.append((p, n, m, rows))
    return out


def shifted_column_corpus(seed, count):
    """Seeded (p, n, ncoords, bases) inputs of _shifted_column, n <= 6 and
    ncoords <= 7, each base (row, xdeg, every) with a {(x_1 exponent, t
    exponent): c} row: unit monomials x_1^a with xdeg == a and with xdeg >
    a, t * x_1^a (no unit), units with t-tails, entries 0 mod p (at t^0,
    or off coordinate a), rows empty below t^n and rows over several
    coordinates; a fifth of the bases contribute only themselves."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 101, 2**61 - 1)
    out = []
    for idx in range(count):
        p = primes[idx % len(primes)]
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        bases = []
        for _ in range(rng.randint(0, 4)):
            a, c = rng.randrange(m + 1), rng.randrange(1, p)
            kind = rng.randrange(7)
            if kind == 0:  # a unit monomial
                row, xdeg = {(a, 0): c}, a
            elif kind == 1:  # a higher xdeg gets fewer shifts
                row, xdeg = {(a, 0): c}, a + rng.randint(1, 2)
            elif kind == 2:  # t * x_1^a, no unit (empty at n = 1)
                row, xdeg = {(a, 1): c}, a
            elif kind == 3:  # a unit with a t-tail, maybe cut at t^n
                row, xdeg = {(a, 0): c}, a
                for _ in range(rng.randint(1, 2)):
                    row[(a, rng.randint(1, n))] = rng.randrange(-p, p)
            elif kind == 4:  # an entry 0 mod p
                if rng.random() < 0.5:
                    row = {(a, 0): p * rng.randint(0, 2), (a, 1): c}
                else:
                    row = {(a, 0): c, (a + 1, rng.randrange(n)): -p}
                xdeg = a
            elif kind == 5:  # nothing below t^n
                row, xdeg = {(a, n + rng.randrange(2)): c}, a
            else:
                row = {(rng.randrange(a + 1), rng.randrange(n + 1)):
                       rng.randrange(-2 * p, 2 * p)
                       for _ in range(rng.randint(1, 4))}
                xdeg = max(j for j, _te in row) + rng.randint(0, 1)
            bases.append((row, xdeg, rng.random() < 0.8))
        out.append((p, n, m, bases))
    return out


def howell_bucket_corpus(seed, count=300):
    """Seeded (p, n, ncoords, rows) inputs of from_rows whose rows share
    their lowest coordinates, two to four rows a coordinate: the least
    valuation there sits on a later row, or on two rows at once; the rows
    of least valuation carry multi-term units; and their shadows
    t^(n-e) * row start at a coordinate where input rows start too.  Up to
    12 coordinates (the widest column of the chains workload), n <= 20."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 1000003, 2**61 - 1)
    out = []
    for idx in range(count):
        p = primes[idx % len(primes)]
        n, m = rng.randint(2, 20), rng.randint(2, 12)
        starts = sorted(rng.sample(range(m), rng.randint(1, min(m, 4))))
        rows = []
        for j in starts:
            e = rng.randrange(n - 1)  # the least valuation at j
            vals = [rng.randint(e + 1, n - 1)]  # not on the first row
            vals += [e] * rng.randint(1, 2) + [rng.randint(e, n - 1)]
            later = [k for k in starts if k > j] or list(range(j + 1, m))
            rows_j = []
            for v in vals:
                row = {(j, v + b): rng.randrange(1, p)
                       for b in range(rng.randint(1, 3)) if v + b < n}
                if later and e > 0 and v == e:
                    # the shadow starts at this coordinate
                    row[(later[0], rng.randrange(e))] = rng.randrange(1, p)
                for _ in range(rng.randint(0, 3)):
                    if later:
                        row[(rng.choice(later), rng.randrange(n))] = \
                            rng.randrange(1, p)
                rows_j.append(row)
            rows += rows_j[:1] + rng.sample(rows_j[1:], len(rows_j) - 1)
        out.append((p, n, m, rows))
    return out


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


def slot_stress_corpus(p, n=40):
    """Matrices that push the packed slots of echelon_mod_p to their bound:
    every entry p - 1 (tall, wide, square), a rank-deficient product of
    factors with entries 1 and p - 1, and staircases whose last rows take
    the largest update, (p-1)^2 into each later slot, from every one of
    the n - 1 pivots above them (row k is 1 at column k and p - 1 after
    it; a last row is 1 - j at column j, which is 1 again when column j
    is reached), and back-substitution staircases that do the same to the
    slots of rref_mod_p."""
    rng = random.Random(p)
    out = [[[p - 1] * 5 for _ in range(n)], [[p - 1] * n for _ in range(5)],
           [[p - 1] * n for _ in range(n)]]
    left = [[rng.choice((1, p - 1)) for _ in range(n // 2)] for _ in range(n)]
    right = [[rng.choice((1, p - 1)) for _ in range(n)]
             for _ in range(n // 2)]
    out.append([[sum(a * right[j][c] for j, a in enumerate(lrow)) % p
                 for c in range(n)] for lrow in left])
    stair = [[0] * k + [1] + [p - 1] * (n - 1 - k) for k in range(n - 1)]
    last = [(1 - j) % p for j in range(n)]
    out += [stair + [last], stair + [last] * 3, [row + row for row in stair]
            + [last + last]]
    out += [back_substitution_staircase(p, n, free)
            for free in (1, n // 4, n)]
    # the forward staircase repeated, and a back-substitution staircase
    # with as many free columns, at least one slot wider than
    # _BYTE_ROUTE_BITS: rows that pack and unpack through bytes at every
    # prime
    wide = _BYTE_ROUTE_BITS // _slot_width(n, p) + 1
    out += [[row * -(-wide // n) for row in stair + [last]],
            back_substitution_staircase(p, n, wide)]
    return out


def back_substitution_staircase(p, n, free):
    """An n x (n + free) echelon matrix whose back-substitution gives every
    row the largest update, (p-1)^2 into each of the free columns after the
    pivots, from every one of the pivots below it: row k is 1 at columns
    k..n-1, so each pivot row is taken p - 1 times, and -(n - k) in the
    free columns, so every reduced row is p - 1 there."""
    return [[0] * k + [1] * (n - k) + [(k - n) % p] * free for k in range(n)]


# ---------------------------------------------------------------------------
# plain site rows: the reference conditions_matrix's one row builder must match
# ---------------------------------------------------------------------------

def plain_site_rows(site, d, p):
    """A site's condition rows by two builders: per-entry binomials for the
    identity frame, truncated bivariate powers of the frame otherwise."""
    px, py = (c % p for c in site.position)
    cells = site.shape.cells()
    if not cells:
        return []
    colindex = {mon: idx for idx, mon in enumerate(
        monomials_of_degree_at_most(d))}
    ncols = len(colindex)
    frame = site.frame
    if frame is None or frame == ((1, 0), (0, 1)):
        return _plain_identity_frame_rows(px, py, cells, d, p, colindex,
                                          ncols)
    (a, b), (c, e) = frame
    if (a * e - b * c) % p == 0:
        raise ValueError("site frame is not invertible")
    return _plain_general_frame_rows(px, py, frame, cells, d, p, colindex,
                                     ncols)


def _plain_identity_frame_rows(px, py, cells, d, p, colindex, ncols):
    # coefficient of u1^a u2^b in (px+u1)^i (py+u2)^j is
    # C(i,a) px^(i-a) C(j,b) py^(j-b)
    powx = [1] * (d + 1)
    powy = [1] * (d + 1)
    for i in range(1, d + 1):
        powx[i] = powx[i - 1] * px % p
        powy[i] = powy[i - 1] * py % p
    rows = []
    for (a, b) in cells:
        row = [0] * ncols
        for (i, j), idx in colindex.items():
            if i >= a and j >= b:
                row[idx] = (comb(i, a) * powx[i - a] % p) * \
                           (comb(j, b) * powy[j - b] % p) % p
        rows.append(row)
    return rows


def _plain_general_frame_rows(px, py, frame, cells, d, p, colindex, ncols):
    # global coordinates as functions of the local ones:
    #   x = px + f00 u1 + f01 u2,  y = py + f10 u1 + f11 u2
    (f00, f01), (f10, f11) = frame
    maxdeg = max(a + b for a, b in cells)

    def truncated_mul(P, Q):
        out = {}
        for (a1, b1), c1 in P.items():
            for (a2, b2), c2 in Q.items():
                a, b = a1 + a2, b1 + b2
                if a + b > maxdeg:
                    continue
                key = (a, b)
                out[key] = (out.get(key, 0) + c1 * c2) % p
        return out

    X = {(0, 0): px % p, (1, 0): f00 % p, (0, 1): f01 % p}
    Y = {(0, 0): py % p, (1, 0): f10 % p, (0, 1): f11 % p}
    xpow = [{(0, 0): 1}]
    ypow = [{(0, 0): 1}]
    for _ in range(d):
        xpow.append(truncated_mul(xpow[-1], X))
        ypow.append(truncated_mul(ypow[-1], Y))
    rows = []
    for (a, b) in cells:
        row = [0] * ncols
        for (i, j), idx in colindex.items():
            acc = 0
            for (a1, b1), c1 in xpow[i].items():
                if a1 > a or b1 > b:
                    continue
                c2 = ypow[j].get((a - a1, b - b1))
                if c2:
                    acc += c1 * c2
            row[idx] = acc % p
        rows.append(row)
    return rows


def site_corpus(seed, p, count=60):
    """Seeded (sites, degree) pairs over F_p: degrees 0-9, up to four sites
    with positions outside [0, p) too, shapes regular (R_0 is empty),
    bars, F_2, the empty shape and mixed staircases, frames None,
    identity, swap and random invertible (entries outside [0, p) too)."""
    rng = random.Random(seed)

    def shape():
        kind = rng.randrange(5)
        if kind == 0:
            return regular(rng.randrange(5))
        if kind == 1:
            n = rng.randrange(1, 6)
            return make_staircase([n] if rng.random() < 0.5 else [1] * n)
        if kind == 2:
            return f_staircase(2)
        if kind == 3:
            return make_staircase([])
        return make_staircase(sorted(
            (rng.randrange(1, 5) for _ in range(rng.randrange(1, 4))),
            reverse=True))

    def frame():
        kind = rng.randrange(4)
        if kind < 3:
            return (None, ((1, 0), (0, 1)), ((0, 1), (1, 0)))[kind]
        while True:
            f = ((rng.randrange(-p, 2 * p), rng.randrange(p)),
                 (rng.randrange(p), rng.randrange(p)))
            if (f[0][0] * f[1][1] - f[0][1] * f[1][0]) % p:
                return f

    out = []
    for n in range(count):
        sites, used = [], set()
        for _ in range(rng.randrange(5)):
            pos = (rng.randrange(-3, p + 5), rng.randrange(p))
            if (pos[0] % p, pos[1] % p) not in used:
                used.add((pos[0] % p, pos[1] % p))
                sites.append(Site(shape(), pos, frame()))
        out.append((sites, n % 10))
    return out


def nagata_conditions(k, m, p, seed=0):
    """One trial's degree-(km + k) conditions matrix of k^2 generic fat
    points of multiplicity m: the matrix the Nagata oracle eliminates."""
    sites = [Site(regular(m)) for _ in range(k * k)]
    return conditions_matrix(_materialize(sites, random.Random(seed), p),
                             k * m + k, p)


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


def plain_hypothesis_dims(plan, model, scene, trials=2, seed=0):
    """The oracle hypothesis check level by level: per trial and level i,
    the dimensions of L_(d-i+1)(base_(i-1) + Z_i) and L_(d-i)(base_i), each
    from its own conditions matrix, the least over trials.  Draws the
    scenes as hypothesis_check does: the reference its one elimination per
    trial must match, [(dim_with_z, dim_next), ...]."""
    p, d = scene.prime, model.degree
    placements = horace._placements(plan, scene, seed, "hypothesis")
    least = [(None, None)] * plan.r
    for _ in range(trials):
        placed = next(placements)
        for i in range(1, plan.r + 1):
            sites_with = horace._base_sites(placed, i - 1)
            for E, t, y in zip(plan.shapes, plan.t_vector(i),
                               placed.sliding_ys):
                # the slice T(E, t) as the line scheme (x, y^size) at (0, y)
                size = E.slice(t).degree
                if size:
                    sites_with.append(Site(make_staircase([1] * size), (0, y)))
            a = horace._system_dim(d - i + 1, sites_with, p)
            b = horace._system_dim(d - i, horace._base_sites(placed, i), p)
            a0, b0 = least[i - 1]
            least[i - 1] = (a if a0 is None else min(a0, a),
                            b if b0 is None else min(b0, b))
    return least


def plain_limit_target(plan, model, scene, seed=0, residual_override=None,
                       r_override=None):
    """The scene limit_inclusion_check draws, as (base_rows, target, r,
    residual): the degree-d base rows over all columns, and x^r times a
    kernel basis of L_(d-r)(base_r + residual) over all columns."""
    d, p = model.degree, scene.prime
    placed = next(horace._placements(plan, scene, seed, "limit"))
    cols = monomials_of_degree_at_most(d)
    base_rows = conditions_matrix(horace._base_sites(placed, 0), d, p)
    r = plan.r if r_override is None else r_override
    residual = residual_override if residual_override is not None \
        else plan.residual_tuple()
    target_sites = horace._residual_system_sites(placed, r, residual)
    gcols = monomials_of_degree_at_most(d - r)
    grows = conditions_matrix(target_sites, d - r, p) if d - r >= 0 else []
    target = []
    for vec in kernel_mod_p(grows, len(gcols), p):
        shifted = {(i + r, j): c for (i, j), c in zip(gcols, vec)}
        target.append([shifted.get(mon, 0) for mon in cols])
    return placed, base_rows, target, r, residual


def plain_limit_inclusion_check(plan, model, scene, seed=0,
                                residual_override=None, r_override=None):
    """The limit check on full rows: every base row and every sliding row
    of A(t) goes through flat_limit over all the degree-d columns, the
    limit system is the kernel of the limit rows, and containment is one
    rank over all columns.  The reference the quotient-first check must
    match, (contained, details)."""
    horace._require_desk_scale(plan, model, scene)
    d, p = model.degree, scene.prime
    placed, base_rows, target, r, residual = plain_limit_target(
        plan, model, scene, seed, residual_override, r_override)
    cols = monomials_of_degree_at_most(d)
    rows = [{(mon, 0): c for mon, c in zip(cols, row) if c}
            for row in base_rows]
    for E, v, y in zip(plan.shapes, plan.speeds, placed.sliding_ys):
        site_rows = conditions_matrix([Site(E, (1, y))], d, p)
        for (a, _b), row in zip(E.cells(), site_rows):
            rows.append({((i, j), v * (i - a)): c
                         for (i, j), c in zip(cols, row) if c})
    row_limit = flat_limit(rows, RingContext(dim=2, prime=p, x_cap=max(d, 1)))
    limit = kernel_mod_p([[row.get((mon, 0), 0) for mon in cols]
                          for row in row_limit.rows.values()], len(cols), p)
    contained = rank_mod_p(target + limit, p) == len(target)
    return contained, {
        "dim_moving": len(cols) - row_limit.dimension(),
        "dim_limit": len(limit),
        "dim_target": len(target),
        "r": r,
        "residual": [E.to_json() for E in residual],
        "contained": contained,
    }


# ---------------------------------------------------------------------------
# torus reference: a flat limit with no t-adic elimination
# ---------------------------------------------------------------------------


def torus_flat_limit(rows, cols, p):
    """lim V(t) for V(t) = V(1) D(t), D(t) = diag(t^(v i)) on the columns
    x^i y^j with v > 0: the initial space of V(1) for the weight i, lowest
    first (Eisenbud, Commutative Algebra, Thm 15.17).  rows span V(1) over
    cols, which must run by ascending x-exponent.  One rref_mod_p of V(1)
    gives reduced rows whose pivots lead their lowest x-block, and those
    rows cut to their pivot's x-block span the limit."""
    assert cols == sorted(cols, key=lambda mon: mon[0])
    rref, pivots = rref_mod_p(rows, p)
    return [[c if a == cols[col][0] else 0 for (a, _b), c in zip(cols, row)]
            for row, col in zip(rref, pivots)]


def torus_scene(plan, model, scene, seed=0):
    """A single-speed plan on a divisor-only scene, drawn as
    limit_inclusion_check draws it: (cols, V(1), A(t)).  cols are the
    degree-d monomials by ascending x-exponent; V(1) holds the base rows
    and the sliding rows with every site at (1, y), over cols; A(t) holds
    the same rows as {(monomial, t-exponent): c}, a sliding site at
    (t^v, y).  A divisor point's rows vanish off the block x^a of their
    cell, and a sliding row is t^(-v a) times its row at (1, y) times
    D(t), so A(t) spans V(1) D(t)."""
    (v,) = set(plan.speeds)
    assert not scene.ambient_base
    d, p = model.degree, scene.prime
    placed = next(horace._placements(plan, scene, seed, "limit"))
    cols = [(a, b) for a in range(d + 1) for b in range(d - a + 1)]
    at_one = conditions_matrix(horace._base_sites(placed, 0), d, p, cols)
    moving = [{(mon, 0): c for mon, c in zip(cols, row) if c}
              for row in at_one]
    for E, y in zip(plan.shapes, placed.sliding_ys):
        site_rows = conditions_matrix([Site(E, (1, y))], d, p, cols)
        at_one += site_rows
        for (a, _b), row in zip(E.cells(), site_rows):
            moving.append({((i, j), v * (i - a)): c
                           for (i, j), c in zip(cols, row) if c})
    return cols, at_one, moving


def torus_corpus(seed, p, count=60, max_degree=9):
    """Seeded single-speed, divisor-only (plan, model, scene) triples of
    degree 1..max_degree: 1-2 sliding staircases of at most 6 cells,
    speed 1-3, 0-4 divisor fat points of multiplicity 1-3.  Levels do
    not enter the flat limit; each plan has one."""
    rng = random.Random(f"torus:{seed}:{p}")
    out = []
    for _ in range(count):
        shapes = [random_staircase(rng, max_cells=6, max_height=3)
                  for _ in range(rng.randint(1, 2))]
        plan = horace.SpecializationPlan(shapes,
                                         (rng.randint(1, 3),) * len(shapes),
                                         (1,))
        scene = horace.OracleScene(
            divisor_base=tuple(rng.randint(1, 3)
                               for _ in range(rng.randint(0, 4))),
            prime=p, seed=rng.randrange(2**31))
        out.append((plan, horace.LineSystemModel(rng.randint(1, max_degree),
                                                 ()), scene))
    return out


def plain_column(p, n, ncoords, gens):
    """The column module of every shift x_1^s * row of each (row, xdeg) in
    gens with xdeg + s below ncoords, by plain_from_rows, its rows keyed as
    TModule rows: the reference for columns built from fewer rows."""
    ref = plain_from_rows(p, n, ncoords, [
        {(j + s, te): c for (j, te), c in row.items()}
        for row, xdeg in gens for s in range(ncoords - xdeg)])
    return TModule(p, n, ncoords, encode_rows(ref.rows, n), ref.pivots,
                   ref.vals)


def plain_graded_space(ctx, gens_of) -> MonomialSpace:
    """A graded space in ctx with a column for every x_2..x_d exponent w of
    sum within the x-cap: plain_column of gens_of(w), or the free module
    when that is None."""
    p, n, cap = ctx.prime, ctx.t_trunc, ctx.x_cap
    columns = {}
    for w in itertools.product(range(cap + 1), repeat=ctx.dim - 1):
        ncoords = cap - sum(w) + 1
        if ncoords < 1:
            continue
        gens = gens_of(w)
        columns[w] = (TModule.full(p, n, ncoords) if gens is None
                      else plain_column(p, n, ncoords, gens))
    return MonomialSpace(ctx, columns=columns)


def _graded_generators(generators):
    """(u, row, xdeg) of each nonzero graded Element x^u * g(x_1, t): its
    {(x_1 exponent, t exponent): c} row and x_1-degree."""
    out = []
    for g in generators:
        if not g.is_zero:
            (u,) = {a[1:] for a, _te in g.terms}
            out.append((u, {(a[0], te): c for (a, te), c in g.terms.items()},
                        max(a[0] for a, _te in g.terms)))
    return out


def plain_ideal_span(ctx, generators) -> MonomialSpace:
    """The span of graded Elements up to the x-cap: in every column w, the
    x_1-shifts of each generator x^u * g(x_1, t) with u <= w
    (plain_graded_space), the reference for FamilyIdeal.span."""
    graded = _graded_generators(generators)
    return plain_graded_space(ctx, lambda w: [
        (row, xdeg) for u, row, xdeg in graded
        if all(a <= b for a, b in zip(u, w))])


def monomial_span(E: Staircase, ctx: RingContext) -> MonomialSpace:
    """Span of the monomial ideal I^E inside the context (plain_ideal_span)."""
    return plain_ideal_span(ctx, [Element(ctx, {(tuple(c), 0): 1})
                                  for c in E.complement_generators()])


def plain_closed_form_span(E: Staircase, v, ns, ctx: RingContext):
    """The span of every x_1-shift of closed_form_residual's generators
    within the chain's x-cap, column by column (plain_graded_space), plus
    the free columns of height zero: the reference for closed_form_span,
    which leaves out the shifts of the quotients."""
    ideal = closed_form_residual(E, v, ns, ctx)
    by_column: dict = {}
    for w, row, xdeg in _graded_generators(ideal.generators):
        by_column.setdefault(w, []).append((row, xdeg))
    return plain_graded_space(
        ideal.ctx.with_cap(ideal.ctx.x_cap - len(ns)),
        lambda w: by_column.get(w, []) if w in E.heights else None)


def canonical(space: MonomialSpace):
    """A graded space's columns by canonical key, with its t-truncation and
    x-cap: equal exactly when the spaces match column for column."""
    return (sorted((w, m.key()) for w, m in space.columns.items()),
            space.ctx.t_trunc, space.ctx.x_cap)


def plain_special_fiber(obj) -> MonomialSpace:
    """Special fiber at t=0 by setting t = 0 in every generator of a
    FamilyIdeal and spanning, or by re-canonicalising the dense t=0 images
    of every column's canonical rows: the reference the truncation to t^1
    must match."""
    if isinstance(obj, FamilyIdeal):
        return plain_ideal_span(obj.ctx.with_t(1), [
            Element(obj.ctx.with_t(1),
                    {k: c for k, c in g.terms.items() if k[1] == 0})
            for g in obj.generators])
    ctx = obj.ctx.with_t(1)
    cols = {}
    for w, m in obj.columns.items():
        rows = []
        for r in decode_rows(m):
            vec = [0] * m.ncoords
            for (jj, te), c in r.items():
                if te == 0:
                    vec[jj] = c
            if any(vec):
                rows.append({(j, 0): c for j, c in enumerate(vec) if c})
        cols[w] = TModule.from_rows(ctx.prime, 1, m.ncoords,
                                    encode_rows(rows, 1))
    return MonomialSpace(ctx, columns=cols)


def plain_residual_chain(E: Staircase, v, ns, ctx, final_colon):
    """The chain as a composition of the public operators: the canonical
    span of x_1^s (x_1 - t^v)^h(w) in every column w at t^{n_1}, then
    MonomialSpace.truncate(n) for each level, each followed by colon_x1
    but the last, which is followed by one only when final_colon.  Every
    step canonicalises again: the reference the generator-carrying chain
    must match."""
    v, ns, ctx = _chain_entry(E, v, ns, ctx)
    n1, heights = ns[0], E.heights
    space = plain_graded_space(ctx.with_t(n1), lambda w: [
        (_translated_power(heights[w], v, n1), heights[w])]
        if w in heights else None)
    for idx, n in enumerate(ns):
        space = space.truncate(n)
        if idx < len(ns) - 1 or final_colon:
            space = space.colon_x1()
    return space


def plain_closed_form(E: Staircase, v, ns, ctx: RingContext):
    """closed_form_residual's generators by Element arithmetic: per column
    w of height h, f = x^w (x_1 - t^v)^h multiplied out in R_{n_k}, then
    t^alpha f divided by x_1^i term by term for i = 1..k, with alpha =
    max(0, n_{k-i+1} - v*h); a generator truncated away stays, as zero."""
    k, n_k = len(ns), ns[-1]
    ectx = ctx.with_t(n_k)
    zero = (0,) * E.dim
    x1 = Element.monomial(ectx, (1,) + zero[1:])
    gens = []
    for w in sorted(E.heights):
        h = E.heights[w]
        f = Element.monomial(ectx, (0,) + w)
        for _ in range(h):
            f = f * (x1 - Element.monomial(ectx, zero, v))
        gens.append(f)
        for i in range(1, k + 1):
            alpha = max(0, ns[k - i] - v * h)
            num = f * Element.monomial(ectx, zero, alpha)
            assert all(a[0] >= i for a, _te in num.terms)
            gens.append(Element(ectx, {((a[0] - i,) + a[1:], te): c
                                       for (a, te), c in num.terms.items()}))
    return tuple(gens)


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
