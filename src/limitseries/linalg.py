"""Exact linear algebra over a prime field F_p and over F_p[t].

No floating point anywhere.  Matrices over F_p are lists of equal-length
lists of ints in [0, p).  Polynomials in t over F_p are little-endian
coefficient lists with no trailing zeros ([] is the zero polynomial).

Every elimination over F_p is echelon_mod_p: rank, reduced echelon form,
kernel, the sparse forms and each oracle trial's Hilbert function.  It
runs on packed rows: one Python int per row, one slot per column, reduced
mod p only when read (Dumas, Fousse and Salvy, J. Symb. Comput. 2011;
delayed reduction as in FFLAS/FFPACK).  A slot gains at most (p-1)^2 per
pivot, so (nrows (p-1)^2 + p).bit_length() + 1 bits never overflow.
rref_mod_p back-substitutes on the echelon's own packed rows.  A matrix
whose rows are wider than _BYTE_ROUTE_BITS rounds its slots up to whole
bytes and packs and unpacks its rows through bytes, in time linear in the
row's length; narrower ones shift slot by slot, which copies the whole
int per slot but costs less per slot.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PrimeTooSmall
from .staircase import _integer

DEFAULT_PRIME = 2**61 - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_WITNESSES (Sorenson and
# Webster, Math. Comp. 2017)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the primes up to 41 as witnesses,
    exact for every n < 3,317,044,064,679,887,385,961,981; raises
    ValueError from that bound up."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is beyond the primality test's bound "
                         f"{_MR_BOUND}")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """p as an int, read by _integer; a non-prime raises PrimeTooSmall."""
    if not is_prime(p := _integer(p, "prime")):
        raise PrimeTooSmall(f"{p} is not prime")
    return p


# ---------------------------------------------------------------------------
# dense matrices over F_p
# ---------------------------------------------------------------------------

# rows wider than this many bits (columns x slot width) pack and unpack
# through bytes.  Measured per row, bytes against shifts, on a 2-core Xeon
# VM (Python 3.11): at 136-bit slots (p = 2^61 - 1) packing 16 slots takes
# 2.6 against 2.1 us, 32 slots 7.2 against 7.6 us and 136 slots 28 against
# 88 us, and unpacking 136 slots 25 against 49 us; at 56-bit slots
# (p = 1000003, 862 rows) packing 64 slots takes 11.5 against 13.2 us and
# unpacking 496 slots 77 against 245 us.  Unpacking 56-bit slots by bytes
# stays slower up to about 100 slots, but a matrix packs every row and
# unpacks only its pivot rows.  End to end, bytes for every matrix left
# the oracle benchmark as fast as this crossover does but made the limit
# benchmark, whose matrices have at most 28 columns, 8% slower
# (BENCH_16.json).
_BYTE_ROUTE_BITS = 4096


def _slot_width(nrows, p):
    """Bits per packed slot: a slot starts below p and gains at most
    (p-1)^2 per update, nrows updates at most, so it stays below
    nrows (p-1)^2 + p < 2^(w-1) and never carries into the next."""
    return (nrows * (p - 1) ** 2 + p).bit_length() + 1


def _pack(row, w, p):
    """One int with a w-bit slot per entry, row[0] lowest, by shifts."""
    x = 0
    for v in reversed(row):
        x = x << w | v % p
    return x


def _pack_bytes(row, w, p):
    """_pack through one join of w/8-byte little-endian slots (w a
    multiple of 8)."""
    k = w >> 3
    return int.from_bytes(b"".join([(v % p).to_bytes(k, "little")
                                    for v in row]), "little")


def _unpack_shifts(x, w):
    """The w-bit slots of x, lowest first, up to its top nonzero slot."""
    mask = (1 << w) - 1
    return [x >> s & mask for s in range(0, x.bit_length(), w)]


def _unpack(x, w):
    """_unpack_shifts through one to_bytes and one int.from_bytes per
    slot (w a multiple of 8)."""
    k = w >> 3
    n = -(-x.bit_length() // w) * k
    data = x.to_bytes(n, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + k], "little") for i in range(0, n, k)]


def _routes(ncols, w):
    """(pack, unpack, width) for a matrix of ncols columns whose slots
    need w bits, chosen once per matrix: above _BYTE_ROUTE_BITS through
    bytes, in w rounded up to whole bytes (a wider slot keeps the bound
    of _slot_width), at or below it by shifts in w bits."""
    if ncols * w > _BYTE_ROUTE_BITS:
        return _pack_bytes, _unpack, -(-w // 8) * 8
    return _pack, _unpack_shifts, w


def _echelon_packed(rows, p):
    """echelon_mod_p's elimination: (echelon_rows, pivot_columns, packed,
    route), where route = (pack, unpack, w) is the matrix's _routes and
    packed[r] is echelon row r reduced mod p and packed in w-bit slots
    from its pivot column up, as the elimination built it.

    Each remaining row is one int with a w-bit slot per remaining column,
    w at least _slot_width(nrows, p), the current column lowest, so an
    entry reads as (x & mask) % p.  A pivot row b is unpacked and reduced once,
    each row below it gains (-f/pivot mod p) b, and x >> w drops the
    column, whose slot then holds a multiple of p.  A row takes at most
    one update per pivot above it."""
    ncols = len(rows[0]) if rows else 0
    route = pack, unpack, w = _routes(ncols, _slot_width(len(rows), p))
    mask = (1 << w) - 1
    live = [x for x in (pack(row, w, p) for row in rows) if x]
    echelon, pivots, packed = [], [], []
    for col in range(ncols):
        for i, x in enumerate(live):
            if (x & mask) % p:
                break
        else:
            live = [x >> w for x in live]
            continue
        b = live[i]
        live[i] = live[0]
        slots = unpack(b, w)
        prow = [v % p for v in slots]
        if prow != slots:
            b = pack(prow, w, p)
        neg_inv = p - pow(prow[0], -1, p)
        live = [(x + f * neg_inv % p * b) >> w if (f := x & mask) else x >> w
                for x in live[1:]]
        echelon.append([0] * col + prow + [0] * (ncols - col - len(prow)))
        pivots.append(col)
        packed.append(b)
    return echelon, pivots, packed, route


def echelon_mod_p(rows, p):
    """Row echelon form over F_p by forward elimination in column order:
    (echelon_rows, pivot_columns).  Rows are not normalised, nothing above
    a pivot is eliminated, zero rows are dropped and the input is not
    mutated.  The pivot of a column is the first remaining row nonzero
    there, swapped with the first remaining row.  The pivots below column
    c count the rank of the first c columns (the column rank profile)."""
    echelon, pivots, _, _ = _echelon_packed(rows, p)
    return echelon, pivots


def rref_mod_p(rows, p):
    """Reduced row echelon form over F_p.

    Returns (rref_rows, pivot_columns); input is not mutated.  The RREF of a
    span is unique, so equality of spans is equality of these outputs.

    The echelon rows are finished bottom-up as packed ints, column 0
    lowest, starting from the reduced rows the elimination packed: its
    slots hold nrows updates, and a row here takes at most one per pivot
    below it.  A finished row is zero at every other pivot column, so row
    r's entries there are still its echelon entries f: it gains (p - f)
    times each finished row below it, and is then unpacked, reduced and
    normalised once."""
    echelon, pivots, packed, (pack, unpack, w) = _echelon_packed(rows, p)
    ncols = len(rows[0]) if rows else 0
    finished = []  # (pivot column, packed reduced row)
    out = [None] * len(echelon)
    for r in range(len(echelon) - 1, -1, -1):
        row, col = echelon[r], pivots[r]
        x = packed[r] << col * w
        for c, b in finished:
            if f := row[c]:
                x += (p - f) * b
        x >>= col * w
        slots = unpack(x, w)
        inv = pow(slots[0], -1, p)
        prow = [v * inv % p for v in slots]
        out[r] = [0] * col + prow + [0] * (ncols - col - len(prow))
        finished.append((col, pack(prow, w, p) << col * w))
    return out, pivots


def rank_mod_p(rows, p) -> int:
    """Rank over F_p: the number of pivots of the echelon form."""
    return len(echelon_mod_p(rows, p)[1])


def kernel_mod_p(rows, ncols, p):
    """Basis of the right kernel of the matrix over F_p."""
    return reduced_kernel(*rref_mod_p(rows, p), ncols, p)


def reduced_kernel(rref, pivots, ncols, p):
    """Right kernel of reduced rows: row r is 1 at column pivots[r] and 0
    at every other pivot, in any column order.  One vector per free
    column: 1 there and -row[free] at each pivot."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rref[r][free]) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# polynomials in t over F_p (little-endian int lists, no trailing zeros)
# ---------------------------------------------------------------------------

def pnorm(c, p):
    c = [v % p for v in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def pscale(a, s, p):
    s %= p
    if s == 0:
        return []
    return pnorm([v * s for v in a], p)


def pmul(a, b, p, trunc=None):
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if trunc is not None:
        n = min(n, trunc)
    out = [0] * n
    for i, av in enumerate(a):
        if av == 0 or i >= n:
            continue
        for j, bv in enumerate(b):
            k = i + j
            if k >= n:
                break
            out[k] = (out[k] + av * bv) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def pval(a):
    """t-adic valuation; None for the zero polynomial."""
    for i, v in enumerate(a):
        if v:
            return i
    return None


def pdiv_t(a, k):
    """Exact division by t^k (caller guarantees valuation >= k)."""
    return list(a[k:])


# ---------------------------------------------------------------------------
# matrices over F_p[t]: fraction-free elimination and kernels over F_p(t)
# ---------------------------------------------------------------------------

def _row_normalize_t(row):
    """Divide a polynomial row by the common power of t (content in t)."""
    vals = [pval(c) for c in row if c]
    if not vals:
        return row
    k = min(vals)
    if k == 0:
        return row
    return [pdiv_t(c, k) if c else c for c in row]


def kernel_over_fpt(rows, ncols, p):
    """Basis of the right kernel over F_p(t), cleared to F_p[t] entries.

    Entries of the returned vectors are polynomials in t; each vector is
    normalized by its t-content so that some entry is a unit at t=0.
    The library reads limits off the condition rows instead (see
    horace.limit_inclusion_check); this fraction-free route stays as the
    exact reference the tests compare that against.
    """
    rows = [[pnorm(list(c), p) for c in row] for row in rows]
    rows = [r for r in rows if any(r)]
    work = []
    pivots = []  # (work_row_index, column)
    used = set()
    for row in rows:
        row = list(row)
        # eliminate existing pivots from the row
        for ri, col in pivots:
            if row[col]:
                pc = work[ri][col]
                f = row[col]
                row = [psub(pmul(pc, c, p), pmul(f, d, p), p)
                       for c, d in zip(row, work[ri])]
                row = _row_normalize_t(row)
        # find a fresh pivot
        piv = None
        for col in range(ncols):
            if col not in used and row[col]:
                piv = col
                break
        if piv is None:
            continue
        work.append(row)
        pivots.append((len(work) - 1, piv))
        used.add(piv)
    basis = []
    for free in range(ncols):
        if free in used:
            continue
        vec = [[] for _ in range(ncols)]
        vec[free] = [1]
        # back-substitute in reverse pivot order, clearing denominators
        for ri, col in reversed(pivots):
            row = work[ri]
            acc = []
            for j in range(ncols):
                if j != col and vec[j] and row[j]:
                    acc = padd(acc, pmul(row[j], vec[j], p), p)
            if not acc:
                continue
            pc = row[col]
            vec = [pmul(pc, c, p) if j != col else c
                   for j, c in enumerate(vec)]
            vec[col] = pscale(acc, p - 1, p)
        vec = _row_normalize_t(vec)
        basis.append(vec)
    return basis
