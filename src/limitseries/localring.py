"""Exact computation in truncated rings F_p[x_1..x_d] (x) F_p[t]/(t^n).

Everything is tracked up to a total x-degree cap.  Translated monomial
ideals, the alternating truncate / colon-by-x_1 chains, their closed-form
generators, special fibers at t=0 and t-adic flat limits all live here.
A chain equals ``MonomialSpace.truncate`` and ``colon_x1`` applied in
turn, but carries each column as generator rows instead: the image of a
generating set generates the image, so a truncation filters t-exponents;
a colon is one Howell step at coordinate 0, whose output generates the
part that vanishes there, shifted down one coordinate; and the column is
canonicalised once, at the last level.  The Howell form is unique, so
the result is the operators' to the byte.  The special fiber at t=0 is
the truncation to t^1.

All ideals and modules in the chain are graded by the x_2..x_d exponent
(truncation and colon-by-x_1 both preserve that multidegree), so spans are
stored column by column: one canonical Howell-form module over F_p[t]/(t^n)
in the x_1 coordinates per x_2..x_d exponent.  Spaces that are not graded
(flat limits, spans of explicit elements) use a plain reduced echelon form
instead.  A plain space is read-only: dimension, membership, basis and
equality; truncation, colon and special fiber need the graded layout.
Howell modules and flat limits share one row format and update, _add_mul.
A row is a dict {key: coeff} whose key is one int, coord << b | t_exp: the
low b bits hold the t-exponent and the bits above them the coordinate, so
int order is (coord, t_exp) order, min(row) >> b is the lowest coordinate
and a shift by t^s adds s to the key.  The width is b = max(8, (n -
1).bit_length()) for truncation n, just wide enough for every t-exponent
below n: a fixed wider field pushes keys past one machine digit and a
narrower one cannot hold high levels (chains at n = 70000 run in
milliseconds).  The floor of 8 bits keeps the keys of every truncation
between levels below 256; a truncation that narrows the field re-keys its
rows in from_rows' input filter; a chain keeps the width of its first
level until that filter.  Tuple-keyed {(coord, t_exp): c} data is encoded
(_encode) where it enters and decoded where it leaves.  Canonicalisation
(TModule.from_rows) sweeps the x_1 coordinates once, in ascending order,
one _howell_step per coordinate: the row of least valuation at a
coordinate is its pivot, and the other rows, cancelled against it, and
its shadow move on to later coordinates.  TModule.truncate canonicalises
again, and TModule.colon reads the canonical rows directly (the Howell
property below).
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from math import comb
from operator import index

from .errors import (BoundaryWarning, CapExceeded, CapExhausted,
                     DivisionWitnessFailure, InvalidSequence,
                     InvalidTruncation, PrimeTooSmall)
from .linalg import DEFAULT_PRIME, require_prime, rref_mod_p
from .staircase import Staircase, _integer, _integers, _Value

# ---------------------------------------------------------------------------
# contexts and elements
# ---------------------------------------------------------------------------


class RingContext(_Value):
    """Ambient data: dimension, prime, t-truncation and x-degree cap.

    ``t_trunc=None`` means untruncated working precision (exact polynomials
    in t).  The prime must exceed the x-cap so binomial coefficients of all
    tracked degrees stay invertible.
    """

    __slots__ = ("dim", "prime", "t_trunc", "x_cap")

    def __init__(self, dim, prime=DEFAULT_PRIME, t_trunc=None, x_cap=12):
        dim = _integer(dim, "dim", 1)
        x_cap = _integer(x_cap, "x_cap", 0)
        if t_trunc is not None:
            t_trunc = _integer(t_trunc, "t_trunc", 1)
        prime = require_prime(prime)
        if prime <= x_cap:
            raise PrimeTooSmall(
                f"prime {prime} must exceed the x-degree cap {x_cap}")
        super().__init__(dim, prime, t_trunc, x_cap)

    def with_t(self, n):
        return RingContext(self.dim, self.prime, n, self.x_cap)

    def with_cap(self, cap):
        return RingContext(self.dim, self.prime, self.t_trunc, cap)

    def compatible(self, other: "RingContext") -> bool:
        return self.dim == other.dim and self.prime == other.prime


def _monomial_key(key, dim):
    """The key (a, b) of x^a t^b as (tuple of dim ints, int), checked: a
    non-integer exponent, a wrong arity or a negative exponent raises
    ValueError."""
    a, b = key
    try:
        a, b = tuple(map(index, a)), index(b)
    except TypeError:
        raise ValueError(f"non-integer exponent in x^{a} t^{b}") from None
    if len(a) != dim:
        raise ValueError(f"exponent {a} has wrong arity for dim {dim}")
    if min(a) < 0 or b < 0:
        raise ValueError(f"negative exponent in x^{a} t^{b}")
    return a, b


class Element(_Value):
    """A finite sum of monomials x^a t^b with F_p coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms: dict):
        p = ctx.prime
        clean = {}
        for key, c in terms.items():
            a, b = _monomial_key(key, ctx.dim)
            if ctx.t_trunc is not None and b >= ctx.t_trunc:
                continue
            c %= p
            if c:
                clean[(a, b)] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def monomial(cls, ctx, xexps, texp=0, coeff=1):
        return cls(ctx, {(tuple(xexps), texp): coeff})

    @classmethod
    def one(cls, ctx):
        return cls.monomial(ctx, (0,) * ctx.dim)

    # -- arithmetic ---------------------------------------------------------

    def _require_same(self, other):
        if not self.ctx.compatible(other.ctx) or self.ctx.t_trunc != other.ctx.t_trunc:
            raise ValueError("elements live in different contexts")

    def __add__(self, other):
        self._require_same(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return Element(self.ctx, terms)

    def __neg__(self):
        return Element(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return Element(self.ctx, {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        self._require_same(other)
        n = self.ctx.t_trunc
        terms: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                b = b1 + b2
                if n is not None and b >= n:
                    continue
                key = (tuple(x + y for x, y in zip(a1, a2)), b)
                terms[key] = terms.get(key, 0) + c1 * c2
        return Element(self.ctx, terms)

    # -- queries / conversions ------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def truncate_t(self, n_to):
        cur = self.ctx.t_trunc
        if cur is not None and n_to > cur:
            raise InvalidTruncation(f"cannot truncate from t^{cur} to t^{n_to}")
        return Element(self.ctx.with_t(n_to),
                       {k: c for k, c in self.terms.items() if k[1] < n_to})

    def to_json(self):
        return [[list(a), b, c] for (a, b), c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, ctx, data):
        return cls(ctx, {(tuple(a), b): c for a, b, c in data})

    def __eq__(self, other):
        return (isinstance(other, Element) and self.terms == other.terms
                and self.ctx.t_trunc == other.ctx.t_trunc)

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        p = self.ctx.prime
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            if c > p // 2:
                sign, c = "-", p - c
            else:
                sign = "+"
            parts = [] if c == 1 else [str(c)]
            parts += [f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                      for i, e in enumerate(a) if e]
            if b:
                parts.append(f"t^{b}" if b > 1 else "t")
            if not parts:
                parts = [str(c)]
            bits.append(sign + "*".join(parts))
        out = " ".join(bits)
        return out[1:] if out.startswith("+") else out


# ---------------------------------------------------------------------------
# sparse polynomials in t (dict exponent -> coefficient) and Howell modules
# ---------------------------------------------------------------------------


def _sp_inv(u, n, p):
    """Inverse of a unit power series (u[0] != 0) modulo t^n."""
    inv0 = pow(u[0], -1, p)
    supp = sorted(e for e in u if e > 0)
    if not supp:
        return {0: inv0}
    out = {0: inv0}
    for k in range(1, n):
        acc = 0
        for j in supp:
            if j > k:
                break
            v = out.get(k - j)
            if v:
                acc += u[j] * v
        if acc:
            out[k] = (-acc % p) * inv0 % p
    return {e: c for e, c in out.items() if c}


def _key_width(n):
    """Bits b of the t-field of a row key for truncation n (module doc)."""
    return max(8, (n - 1).bit_length())


def _encode(row, n):
    """A {(coord, t_exp): c} row as {coord << b | t_exp: c}, b =
    _key_width(n), without its entries at t^n and beyond.  A negative
    coordinate or t-exponent raises ValueError: as a key it would borrow
    from the bits of the field above it."""
    b = _key_width(n)
    out = {}
    for (j, te), c in row.items():
        if j < 0 or te < 0:
            raise ValueError(f"negative coordinate or t-exponent in {row}")
        if te < n:
            out[j << b | te] = c
    return out


def _add_mul(row, other, q, n, p, mask):
    """row += q(t) * other in place, dropping t^n and beyond.

    Rows are {coord << b | t_exp: coeff}, mask = 2^b - 1 selects the
    t-field, and q is {t_exp: coeff}: a term t^qe adds qe to a key whose
    t-exponent stays below n - qe.  Every Howell step (normalisation,
    cancellation, shadow, back-reduction, membership, expansion to an
    F_p-basis) and every flat_limit step is this update."""
    # q is outside: it has one term in almost every call, other has many
    for qe, qc in q.items():
        lim = n - qe
        for k, c in other.items():
            if k & mask < lim:
                k += qe
                v = (row.get(k, 0) + c * qc) % p
                if v:
                    row[k] = v
                elif k in row:
                    del row[k]
    return row


def _howell_step(bucket, j, n, p, b, mask, buckets):
    """One Howell step at coordinate j on rows whose lowest coordinate is
    j: (pivot, its key at j).

    The row of least valuation e at j becomes the pivot, made exactly t^e
    there.  The other rows have valuation >= e at j, so one cancellation
    against the pivot clears it (in place); they and the pivot's shadow
    t^(n-e) * pivot, which vanishes at j too, are appended, when nonzero,
    to buckets[their new lowest coordinate].  A combination of the pivot
    and the other rows vanishes at j exactly when the pivot's coefficient
    lies in t^(n-e) R, so those rows generate the part of the rows' span
    that vanishes at j.  Keys have a t-field of b bits (mask = 2^b - 1)
    holding every t-exponent below n, and no entry is 0 mod p."""
    pivot = chosen = bucket[0] if len(bucket) == 1 else min(bucket, key=min)
    lo = min(pivot)
    hi = (j + 1) << b  # every key at j lies in [lo, hi)
    e = lo - (j << b)
    # make coordinate j exactly t^e
    unit = {k - lo: c for k, c in pivot.items() if k < hi}
    if len(unit) > 1:
        pivot = _add_mul({}, pivot, _sp_inv(unit, n, p), n, p, mask)
    elif unit[0] != 1:
        inv = pow(unit[0], -1, p)
        pivot = {k: c * inv % p for k, c in pivot.items()}
    if e:  # t^(n-e) * pivot, nonzero tail of the annihilator multiple
        up = n - e
        row = {k + up: c for k, c in pivot.items() if k & mask < e}
        if row:
            buckets[min(row) >> b].append(row)
    for row in bucket:
        if row is not chosen:
            _add_mul(row, pivot, {k - lo: -c for k, c in row.items()
                                  if k < hi}, n, p, mask)
            if row:
                buckets[min(row) >> b].append(row)
    return pivot, lo


class TModule:
    """Canonical Howell-form module over F_p[t]/(t^n) in x_1 coordinates.

    Rows are flat dicts {coord << b | t_exp: coeff} with the key width
    b = _key_width(n) (module doc); ``key()`` decodes them to sorted
    ((coord, t_exp), coeff) pairs for hashing and fingerprints.  In
    canonical form every row's pivot (its lowest nonzero coordinate)
    carries the exact entry t^val, pivots are distinct and increasing, and
    entries of other rows at a pivot coordinate are reduced below that
    pivot's valuation.  The form is unique for a given module, so equality
    is row equality.  Every row operation is the shared update
    ``_add_mul`` (row += q(t) * other).

    Howell property: for every k, the rows with pivot >= k span the
    submodule of elements that vanish at coordinates 0..k-1.  ``from_rows``
    gets it from a pivot of least valuation at every coordinate and the
    shadow t^(n-val) * row it passes on; ``colon`` relies on it for k = 1.
    """

    __slots__ = ("p", "n", "ncoords", "rows", "pivots", "vals", "b")

    def __init__(self, p, n, ncoords, rows, pivots, vals):
        self.p = p
        self.n = n
        self.ncoords = ncoords
        self.rows = rows
        self.pivots = pivots
        self.vals = vals
        b = (n - 1).bit_length()  # _key_width(n), inline: built very often
        self.b = b if b > 8 else 8

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, p, n, ncoords, gen_rows, width=None):
        """Canonicalize arbitrary generating rows (Howell algorithm): one
        ascending sweep over the coordinates.

        Each row waits in the bucket of its lowest coordinate.  At j,
        _howell_step turns the bucket into a pivot, exactly t^e at j, and
        the rows that generate the part of the bucket's span vanishing at
        j; those go to the buckets of their new lowest coordinates.  Every
        row put in a bucket lies above j, so none is seen twice.  The
        earlier pivot rows' entries at j are then reduced below t^e.
        Howell property: the later buckets span the elements that vanish
        at 0..j.

        gen_rows are keyed with a t-field of ``width`` bits (default
        _key_width(n)); rows of another width are re-keyed as they are
        read.  Entries at t^n and beyond or at coordinates >= ncoords are
        dropped; a negative key raises ValueError."""
        b = _key_width(n)
        mask = (1 << b) - 1
        src = b if width is None else width
        top = ncoords << src  # first key past the last coordinate
        buckets = [[] for _ in range(ncoords)]  # lowest coordinate -> rows
        for row in gen_rows:
            if src == b:
                r = {k: c % p for k, c in row.items()
                     if k & mask < n and k < top and c % p}
            else:
                smask = (1 << src) - 1
                r = {k >> src << b | k & smask: c % p for k, c in row.items()
                     if k & smask < n and k < top and c % p}
            if r:
                j = min(r) >> b
                if j < 0:
                    raise ValueError(f"negative key in {row}")
                buckets[j].append(r)

        rows, pivots, vals = [], [], []
        for j, bucket in enumerate(buckets):
            if not bucket:
                continue
            pivot, lo = _howell_step(bucket, j, n, p, b, mask, buckets)
            hi = (j + 1) << b  # every key at j lies in [lo, hi)
            for row in rows:  # earlier pivots: entries at j below t^e
                # a plain probe first: few rows hold anything at j
                for k in row:
                    if lo <= k < hi:
                        q = {k - lo: -c for k, c in row.items()
                             if lo <= k < hi}
                        _add_mul(row, pivot, q, n, p, mask)
                        break
            rows.append(pivot)
            pivots.append(j)
            vals.append(lo - (j << b))
        return cls(p, n, ncoords, rows, pivots, vals)

    @staticmethod
    @lru_cache(maxsize=512)
    def full(p, n, ncoords):
        """The free module, one shared instance per (p, n, ncoords): no
        TModule's rows change after construction."""
        b = _key_width(n)
        rows = [{j << b: 1} for j in range(ncoords)]
        return TModule(p, n, ncoords, rows, list(range(ncoords)),
                       [0] * ncoords)

    # -- queries ---------------------------------------------------------------

    @property
    def is_full(self):
        return len(self.rows) == self.ncoords and all(v == 0 for v in self.vals)

    def dim_fp(self):
        return sum(self.n - v for v in self.vals)

    def key(self):
        b = self.b
        mask = (1 << b) - 1
        return (self.n, self.ncoords,
                tuple(tuple(((k >> b, k & mask), c)
                            for k, c in sorted(r.items()))
                      for r in self.rows))

    def __eq__(self, other):
        # canonical rows at the same n share one key width
        return (isinstance(other, TModule) and self.p == other.p
                and self.n == other.n and self.ncoords == other.ncoords
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.key())

    def contains_vector(self, vec: dict) -> bool:
        """Membership of a {(coord, t_exp): c} vector: the pivot rows in
        turn clear its lowest coordinate; it is a member when nothing is
        left."""
        p, n, b = self.p, self.n, self.b
        mask = (1 << b) - 1
        v = {k: c % p for k, c in _encode(vec, n).items() if c % p}
        for j, e, row in zip(self.pivots, self.vals, self.rows):
            if not v:
                break
            lo = min(v)
            if lo >> b != j:
                if lo >> b < j:
                    return False  # no pivot at its lowest coordinate
                continue
            if lo & mask < e:
                return False
            pk = (j << b) + e  # the pivot's key
            hi = (j + 1) << b
            _add_mul(v, row, {k - pk: -c for k, c in v.items() if k < hi},
                     n, p, mask)
        return not v

    # -- operations --------------------------------------------------------------

    def truncate(self, n_to):
        if n_to == self.n:
            return self
        if self.is_full:
            return TModule.full(self.p, n_to, self.ncoords)
        return TModule.from_rows(self.p, n_to, self.ncoords, self.rows, self.b)

    def colon(self):
        """{g : x_1 * g in M}, one coordinate fewer: by the Howell property
        the rows with pivot >= 1, shifted down one coordinate, are already
        its canonical form."""
        if self.is_full:
            return TModule.full(self.p, self.n, self.ncoords - 1)
        k = 1 if self.pivots[:1] == [0] else 0  # pivots increase
        one = 1 << self.b  # coordinate 1 at t^0
        return TModule(self.p, self.n, self.ncoords - 1,
                       [{key - one: c for key, c in r.items()}
                        for r in self.rows[k:]],
                       [j - 1 for j in self.pivots[k:]], self.vals[k:])

    def expand_rows(self):
        """An F_p-basis of the module: t^s * row for 0 <= s < n - val."""
        mask = (1 << self.b) - 1
        return [_add_mul({}, r, {s: 1}, self.n, self.p, mask)
                for r, v in zip(self.rows, self.vals) for s in range(self.n - v)]


# ---------------------------------------------------------------------------
# monomial order and sparse reduced echelon forms
# ---------------------------------------------------------------------------


def _order_key(key):
    """degrevlex on the x part, then ascending t (pivoting prefers small t)."""
    a, te = key
    return (sum(a), tuple(-x for x in reversed(a)), -te)


def _sparse_rref(rows_iter, p):
    """Reduced echelon form of sparse rows, as {pivot key: row}.

    Columns are the keys sorted by _order_key, largest first, so a row's
    pivot is its largest key and the rows come in that order."""
    rows = list(rows_iter)
    keys = sorted({k for row in rows for k in row}, key=_order_key, reverse=True)
    index = {k: i for i, k in enumerate(keys)}
    dense = []
    for row in rows:
        vec = [0] * len(keys)
        for k, c in row.items():
            vec[index[k]] = c
        dense.append(vec)
    rref, pivots = rref_mod_p(dense, p)
    return {keys[col]: {keys[j]: c for j, c in enumerate(row) if c}
            for row, col in zip(rref, pivots)}


# ---------------------------------------------------------------------------
# MonomialSpace
# ---------------------------------------------------------------------------


class MonomialSpace:
    """Reduced span of elements: canonical, hence directly comparable.

    Internally either a graded layout (one TModule per x_2..x_d exponent,
    used by everything chain-shaped) or a plain sparse reduced echelon form
    over the monomial basis.  Both are canonical for the span they hold.
    A plain space (the result of ``flat_limit`` and ``from_elements``) is
    read-only: it answers dimension, membership, basis and equality, and
    ``truncate``, ``colon_x1`` and ``special_fiber`` raise TypeError on it.
    A chain equals ``truncate(n_1)``, ``colon_x1()``, ``truncate(n_2)``,
    ... on a graded space (``residual_chain`` gets it without them), and
    its special fiber is ``truncate(1)``.

    The x-cap rule: a graded space tracks the monomials of total x-degree
    at most ``ctx.x_cap`` (a colon lowers it by one): a column for each w
    with |w| <= cap, of x_1 exponents 0..cap - |w|.  ``contains`` raises
    CapExceeded above the cap; graded spaces are equal when caps and
    columns are.
    """

    __slots__ = ("ctx", "columns", "rows")

    def __init__(self, ctx, *, columns=None, rows=None):
        if (columns is None) == (rows is None):
            raise ValueError("exactly one layout required")
        self.ctx = ctx
        self.columns = columns
        self.rows = rows

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_elements(cls, ctx, elements):
        rows = [el.terms if isinstance(el, Element) else
                {_monomial_key(key, ctx.dim): c for key, c in el.items()}
                for el in elements]
        return cls(ctx, rows=_sparse_rref(rows, ctx.prime))

    # -- basic queries ------------------------------------------------------------

    def dimension(self):
        if self.rows is not None:
            return len(self.rows)
        return sum(m.dim_fp() for m in self.columns.values())

    def contains(self, el) -> bool:
        terms = el.terms if isinstance(el, Element) else {
            _monomial_key(key, self.ctx.dim): c for key, c in el.items()}
        p = self.ctx.prime
        if self.rows is not None:
            # in the span iff adding it leaves the number of rows unchanged
            grown = _sparse_rref([*self.rows.values(), terms], p)
            return len(grown) == len(self.rows)
        cap = self.ctx.x_cap
        split: dict = {}
        for (a, te), c in terms.items():
            if c % p == 0:
                continue
            if sum(a) > cap:
                raise CapExceeded(f"x^{a} outside the tracked cap {cap}")
            split.setdefault(a[1:], {})[(a[0], te)] = c
        return all(self.columns[w].contains_vector(vec)
                   for w, vec in split.items())

    def basis(self):
        """Basis as Elements (expands a graded layout)."""
        if self.rows is not None:
            return [Element(self.ctx, row) for row in self.rows.values()]
        out = []
        for w in sorted(self.columns):
            mod = self.columns[w]
            b = mod.b
            mask = (1 << b) - 1
            for row in mod.expand_rows():
                out.append(Element(self.ctx, {((k >> b,) + w, k & mask): c
                                              for k, c in row.items()}))
        return out

    def __eq__(self, other):
        if not isinstance(other, MonomialSpace):
            return NotImplemented
        if not self.ctx.compatible(other.ctx):
            return False
        if self.ctx.t_trunc != other.ctx.t_trunc:
            return False
        if self.columns is not None and other.columns is not None:
            return (self.ctx.x_cap == other.ctx.x_cap
                    and self.columns == other.columns)
        if self.rows is not None and other.rows is not None:
            return self.rows == other.rows
        graded, plain = (self, other) if self.columns is not None else (other, self)
        if graded.dimension() != plain.dimension():
            return False
        try:
            return all(graded.contains(row) for row in plain.rows.values())
        except CapExceeded:
            return False

    def __hash__(self):
        raise TypeError("MonomialSpace is unhashable")

    # -- operations (graded layout only) ---------------------------------------------

    def _graded_columns(self, op):
        if self.columns is None:
            raise TypeError(f"{op} needs a graded space; a plain space is "
                            "read-only (dimension, membership, basis, equality)")
        return self.columns

    def truncate(self, n_to):
        """psi_n: drop every monomial with t-exponent >= n_to."""
        columns = self._graded_columns("truncate")
        cur = self.ctx.t_trunc
        if cur is not None and n_to > cur:
            raise InvalidTruncation(f"cannot truncate from t^{cur} to t^{n_to}")
        return MonomialSpace(
            self.ctx.with_t(n_to),
            columns={w: m.truncate(n_to) for w, m in columns.items()})

    def colon_x1(self):
        """{f : x_1 f in span}; the x-cap drops by one, and with it every
        column that has a single coordinate."""
        columns = self._graded_columns("colon_x1")
        if self.ctx.x_cap < 1:
            raise CapExhausted("x_cap already exhausted")
        return MonomialSpace(
            self.ctx.with_cap(self.ctx.x_cap - 1),
            columns={w: m.colon() for w, m in columns.items() if m.ncoords > 1})

    def __repr__(self):
        kind = "graded" if self.columns is not None else "plain"
        return (f"MonomialSpace(dim={self.dimension()}, {kind}, "
                f"t<{self.ctx.t_trunc}, cap={self.ctx.x_cap})")


# ---------------------------------------------------------------------------
# family ideals
# ---------------------------------------------------------------------------


class FamilyIdeal(_Value):
    """Generators of an ideal (or explicit module) in a ring context."""

    __slots__ = ("ctx", "generators", "provenance")

    def __init__(self, ctx, generators, provenance="derived"):
        super().__init__(ctx, generators, provenance)

    def truncate(self, n_to):
        return FamilyIdeal(self.ctx.with_t(n_to),
                           tuple(g.truncate_t(n_to) for g in self.generators),
                           self.provenance)

    def span(self) -> MonomialSpace:
        """Span of the ideal up to the x-cap (x- and t-monomial multiples)."""
        n = self.ctx.t_trunc
        if n is None:
            raise ValueError("ideal spans need a finite t-truncation")
        graded = []  # (x_2..x_d exponent, (x_1, t) row, x_1-degree)
        for g in self.generators:
            if g.is_zero:
                continue
            wset = {a[1:] for (a, _te) in g.terms}
            if len(wset) != 1:
                raise ValueError("span of non-graded generators is not supported")
            row = {(a[0], te): c for (a, te), c in g.terms.items() if te < n}
            graded.append((wset.pop(), row, max(a[0] for a, _te in g.terms)))
        return _graded_space(self.ctx, lambda w: [
            (row, xdeg) for wg, row, xdeg in graded
            if all(a <= b for a, b in zip(wg, w))])


def _graded_space(ctx, bases_of):
    """Graded space in ctx with a column for every x_2..x_d exponent w
    within the x-cap: _shifted_column of bases_of(w), or the full module
    when that is None."""
    p, n, cap = ctx.prime, ctx.t_trunc, ctx.x_cap
    columns = {}
    for w in _exponents_upto(ctx.dim - 1, cap):
        ncoords = cap - sum(w) + 1
        bases = bases_of(w)
        columns[w] = (TModule.full(p, n, ncoords) if bases is None
                      else _shifted_column(p, n, ncoords, bases))
    return MonomialSpace(ctx, columns=columns)


def _shifted_column(p, n, ncoords, bases):
    """Column module spanned by _shifted_rows(n, ncoords, bases)."""
    return TModule.from_rows(p, n, ncoords, _shifted_rows(n, ncoords, bases))


def _shifted_rows(n, ncoords, bases):
    """x_1^s * base for every (base, xdeg) and every shift s that keeps the
    x_1-degree xdeg + s below ncoords, keyed for t^n.  Bases are {(x_1
    exponent, t exponent): coeff} dicts, encoded once each; rows keep the
    order given."""
    b = _key_width(n)
    rows = []
    for base, xdeg in bases:
        base = _encode(base, n)
        for s in range(ncoords - xdeg):
            s <<= b
            rows.append({k + s: c for k, c in base.items()})
    return rows


def _exponents_upto(arity, total):
    if arity == 0:
        return [()]
    out = []
    for head in range(total + 1):
        for tail in _exponents_upto(arity - 1, total - head):
            out.append((head,) + tail)
    return sorted(out)


def _require_dim(E, ctx):
    if E.dim != ctx.dim:
        raise ValueError("staircase dimension does not match the context")


def _translated_power(h, v, n, shift=0):
    """t^shift * (x_1 - t^v)^h below t^n, as {(x_1 exponent, t exponent): c}
    with integer coefficients (every consumer reduces them mod p)."""
    out = {}
    for l in range(h + 1):
        te = shift + v * (h - l)
        if te < n:
            out[(l, te)] = comb(h, l) * (-1) ** (h - l)
    return out


def translate_ideal(E: Staircase, v: int, ctx: RingContext) -> FamilyIdeal:
    """J(E, v): the ideal of the staircase translated by x_1 -> x_1 - t^v."""
    v = _integer(v, "speed v", 1)
    _require_dim(E, ctx)
    gens = []
    for c in E.complement_generators():
        if sum(c) > ctx.x_cap:
            raise CapExceeded(
                f"generator x^{c} exceeds the x-degree cap {ctx.x_cap}")
        if ctx.t_trunc is not None and v * c[0] >= ctx.t_trunc and c[0] > 0:
            raise CapExceeded(
                f"generator x^{c} needs t-degree {v * c[0]} >= {ctx.t_trunc}")
        power = _translated_power(c[0], v, v * c[0] + 1)
        gens.append(Element(ctx, {((l,) + tuple(c[1:]), te): coeff
                                  for (l, te), coeff in power.items()}))
    return FamilyIdeal(ctx, tuple(gens), "translated-staircase")


# ---------------------------------------------------------------------------
# residual chains
# ---------------------------------------------------------------------------


def _chain_entry(E, v, ns, ctx, prime=DEFAULT_PRIME):
    """(v, levels, context) of a chain of E, checked: a speed >= 1,
    strictly decreasing levels >= 1, and E's dimension and an x-cap of at
    least k + (largest cell degree) + 1 for k levels: a colon uses one, and
    a minimal generator c of the complement has c - e_i in E for some i.
    Given levels, a finite t-truncation below n_1 raises InvalidTruncation.
    ctx None builds the least such context, at t^{n_1} (no levels: t^{v *
    largest height + 1})."""
    v = _integer(v, "speed v", 1)
    ns = list(_integers(ns or (), "level"))
    if any(n < 1 for n in ns):
        raise InvalidSequence(f"levels must be >= 1, got {ns}")
    if any(a <= b for a, b in zip(ns, ns[1:])):
        raise InvalidSequence(f"levels must strictly decrease, got {ns}")
    need = len(ns) + E.max_cell_degree() + 1
    if ctx is None:
        ctx = RingContext(dim=E.dim, prime=prime,
                          t_trunc=ns[0] if ns else v * E.max_height + 1,
                          x_cap=max(1, need))
    _require_dim(E, ctx)
    if ctx.x_cap < need:
        raise CapExceeded(f"x_cap {ctx.x_cap} below needed headroom {need}")
    if ns and ctx.t_trunc is not None and ctx.t_trunc < ns[0]:
        raise InvalidTruncation(
            f"context t-truncation {ctx.t_trunc} below first level {ns[0]}")
    return v, ns, ctx


def chain_context(E: Staircase, v: int, ns, prime=DEFAULT_PRIME) -> RingContext:
    """Smallest context with enough x- and t-headroom for the chain."""
    return _chain_entry(E, v, ns, None, prime)[2]


def boundary_columns(E: Staircase, v: int, ns):
    """Columns whose height hits a level exactly: n_j == v * h(w)."""
    hits = []
    for w, h in sorted(E.heights.items()):
        for n in ns:
            if n == v * h:
                hits.append((w, h, n))
    return hits


def _chain_columns(E, v, ns, ctx, final_colon):
    """The chain of E at levels ns, with a colon after every level but the
    last and after the last too when final_colon, in the context
    _chain_entry checks; it warns (BoundaryWarning) of levels n = v * h.

    Every colon lowers the x-cap and each column's coordinates by one and
    drops the columns it leaves with none.  A column of height zero holds
    the whole module at every level and stays the shared full module; a
    column of height h is _chain_column's one canonicalisation."""
    v, ns, ctx = _chain_entry(E, v, ns, ctx)
    if not ns:
        raise InvalidSequence("a chain needs at least one level")
    k = len(ns)
    hits = boundary_columns(E, v, ns)
    if hits:
        warnings.warn(
            f"boundary levels {sorted({n for _w, _h, n in hits})} touch "
            f"v*h at columns {sorted({w for w, _h, _n in hits})}",
            BoundaryWarning, stacklevel=3)

    colons = k if final_colon else k - 1
    p, cap = ctx.prime, ctx.x_cap
    columns = {}
    for w in _exponents_upto(ctx.dim - 1, cap):
        ncoords = cap - sum(w) + 1
        if ncoords <= colons:
            continue  # a colon drops a column of one coordinate
        h = E.heights.get(w)
        columns[w] = (TModule.full(p, ns[-1], ncoords - colons) if h is None
                      else _chain_column(p, v, h, ns, ncoords, colons))
    return MonomialSpace(ctx.with_t(ns[-1]).with_cap(cap - colons),
                         columns=columns)


def _chain_column(p, v, h, ns, ncoords, colons):
    """The column of height h and ncoords coordinates after the levels ns,
    with a colon after each of the first ``colons`` levels.

    Its rows are generators keyed for t^{n_1} throughout: at first
    x_1^s (x_1 - t^v)^h, none when ncoords <= h.  A truncation to t^n
    keeps each row's entries below t^n, since the images of generators
    generate the image.  A colon takes one Howell step at coordinate 0 on
    the rows that reach it; the other rows, the cancelled ones and the
    pivot's shadow generate the part that vanishes there, and they move
    down one coordinate.  One TModule.from_rows at t^{n_k} gives the
    canonical form, the same as canonicalising at every level."""
    n = ns[0]
    b = _key_width(n)
    mask = (1 << b) - 1
    one = 1 << b  # coordinate 1 at t^0
    # the Howell step reads valuations off the keys: no entry 0 mod p
    base = {k: c % p for k, c in _translated_power(h, v, n).items() if c % p}
    rows = _shifted_rows(n, ncoords, [(base, h)])
    for idx, n in enumerate(ns):
        if idx:  # the images of generators generate the image
            rows = [r for r in ({k: c for k, c in row.items() if k & mask < n}
                                for row in rows) if r]
        if idx < colons:
            # the part vanishing at coordinate 0, one coordinate down
            at0 = [r for r in rows if min(r) < one]
            rest = [r for r in rows if min(r) >= one]
            if at0:  # every coordinate's bucket is rest
                _howell_step(at0, 0, n, p, b, mask, [rest] * ncoords)
            rows = [{k - one: c for k, c in r.items()} for r in rest]
            ncoords -= 1
    return TModule.from_rows(p, ns[-1], ncoords, rows, b)


def restriction_chain(E: Staircase, v: int, ns, ctx=None) -> MonomialSpace:
    """J_{n_1:...:n_k}: alternating truncations and colons, ending on a
    truncation (k restrictions, k-1 colons); see residual_chain."""
    return _chain_columns(E, v, ns, ctx, final_colon=False)


def residual_chain(E: Staircase, v: int, ns, ctx=None) -> MonomialSpace:
    """J_{n_1:...:n_k:}: the span of J(E, v) at t^{n_1}, then truncation to
    t^{n_i} and the colon by x_1 at each level in turn, the last colon
    included.

    The result equals MonomialSpace.truncate and colon_x1 in turn, column
    for column, but each column is carried as generators and
    canonicalised once, at t^{n_k} (_chain_column).  ctx None builds
    chain_context(E, v, ns); the result's context is at t^{n_k} with the
    x-cap lowered by one per colon."""
    return _chain_columns(E, v, ns, ctx, final_colon=True)


def special_fiber(obj) -> MonomialSpace:
    """Set t = 0: truncate to t^1 (and span, for a FamilyIdeal)."""
    fiber = obj.truncate(1)
    return fiber.span() if isinstance(obj, FamilyIdeal) else fiber


# ---------------------------------------------------------------------------
# closed-form residual generators
# ---------------------------------------------------------------------------


def _closed_form_bases(E, v, ns, ctx):
    """(context at t^{n_k}, k, {w: rows}) of the closed form, one entry per
    column w of positive height h, in the context _chain_entry checked.
    Its rows are (f_w, h) and (t^alpha f_w / x_1^i, h - i) for i = 1..k,
    in that order, where f_w = (x_1 - t^v)^h and alpha = max(0, n_{k-i+1}
    - v*h); each is an {(x_1 exponent, t exponent): c} dict below t^{n_k},
    empty when alpha >= n_k.

    Division is witnessed: any low-order x_1 coefficient that fails to
    vanish raises DivisionWitnessFailure, which signals a level sequence
    that breaks the gap rule for this (E,v).  A context with less x-cap
    than the chain's headroom raises CapExceeded, as the chain does."""
    v, ns, ctx = _chain_entry(E, v, ns, ctx)
    k = len(ns)
    n_k = ns[-1] if ns else ctx.t_trunc
    if n_k is None:
        raise ValueError("closed form needs a finite t-truncation")
    bases = {}
    for w in sorted(E.heights):
        h = E.heights[w]
        rows = [(_translated_power(h, v, n_k), h)]
        for i in range(1, k + 1):
            alpha = max(0, ns[k - i] - v * h)
            num = _translated_power(h, v, n_k, alpha)
            bad = [l for (l, _te) in num if l < i]
            if bad:
                raise DivisionWitnessFailure(
                    f"x_1^{min(bad)} coefficient of t^{alpha} f_{w} survives "
                    f"in R_{n_k}; levels {ns} are invalid for v={v}, h={h}")
            rows.append(({(l - i, te): c for (l, te), c in num.items()}, h - i))
        bases[w] = rows
    return ctx.with_t(n_k), k, bases


def closed_form_residual(E: Staircase, v: int, ns, ctx=None) -> FamilyIdeal:
    """Generators f_m and t^{alpha_{k-i+1}} f_m / x_1^i of the residual
    chain, by exact division in R_{n_k} (see _closed_form_bases).  A
    generator truncated away entirely stays, as zero."""
    ectx, _k, bases = _closed_form_bases(E, v, ns, ctx)
    gens = tuple(Element(ectx, {((j,) + w, te): c for (j, te), c in row.items()})
                 for w, rows in bases.items() for row, _xdeg in rows)
    return FamilyIdeal(ectx, gens, "derived")


def closed_form_span(E: Staircase, v: int, ns, ctx=None) -> MonomialSpace:
    """Span of the closed form as an (x_1, t)-module, plus the untouched
    block of columns with height zero; directly comparable with
    residual_chain output."""
    ectx, k, bases = _closed_form_bases(E, v, ns, ctx)
    return _graded_space(
        ectx.with_cap(ectx.x_cap - k),
        lambda w: [(row, xdeg) for row, xdeg in bases[w] if row]
        if w in bases else None)


# ---------------------------------------------------------------------------
# flat limits
# ---------------------------------------------------------------------------


def flat_limit(family, ctx: RingContext) -> MonomialSpace:
    """lim_{t->0} of the span of a family over F_p[t] (exact coefficients).

    Gaussian elimination with t-adic valuation pivoting on TModule rows,
    one coordinate per monomial in _order_key order (largest first, so a
    pivot is the lowest coordinate at t^0): vectors are divided by their
    t-content, the t=0 layer is reduced, and cancellations are pushed to
    higher t-order until the t=0 parts are independent.  Every update is
    _add_mul by an F_p-scalar, so t-degrees never grow.  The output
    dimension equals the rank of the family over F_p(t).

    A vector dependent over F_p(t) need not ever vanish ((1-t)x after x
    does not), so two exact rules drop it instead:
    - once the basis has as many vectors as the family has distinct
      monomials, its t=0 parts span all of them;
    - once a vector was divided by t more often than the basis t-degrees
      plus its own entering t-degree sum to.  Each division divides every
      maximal minor of [basis; vector] by t, and for an independent vector
      some minor is a nonzero polynomial of at most that degree.
    A finite t-truncation cannot tell dependence from high valuation, so
    contexts with one are refused.
    """
    if ctx.t_trunc is not None:
        raise ValueError("flat_limit needs exact coefficients (t_trunc=None)")
    p = ctx.prime
    terms = [el.terms if isinstance(el, Element) else dict(el) for el in family]
    for key in {key for t in terms for key in t}:
        _monomial_key(key, ctx.dim)
    tes = [te for t in terms for (_a, te), c in t.items() if c % p]
    cols = sorted({(a, 0) for t in terms for (a, _te), c in t.items() if c % p},
                  key=_order_key, reverse=True)
    n = 1 + max(tes, default=0)
    b = _key_width(n)
    mask = (1 << b) - 1
    index = {a: j << b for j, (a, _z) in enumerate(cols)}
    vectors = [{index[a] | te: c % p for (a, te), c in t.items() if c % p}
               for t in terms]

    basis = []  # (pivot key at t^0, row with the entry 1 there)
    basis_tdeg = 0
    for vec in vectors:
        if len(basis) == len(cols):
            break
        room = basis_tdeg + max((k & mask for k in vec), default=0)
        while vec:
            val = min(k & mask for k in vec)
            room -= val
            if room < 0:
                break  # dependent over F_p(t)
            if val:
                vec = {k - val: c for k, c in vec.items()}
            for pivot, brow in basis:
                c = vec.get(pivot)
                if c:
                    _add_mul(vec, brow, {0: p - c}, n, p, mask)
            pivot = min((k for k in vec if not k & mask), default=None)
            if pivot is not None:
                vec = _add_mul({}, vec, {0: pow(vec[pivot], -1, p)}, n, p,
                               mask)
                basis.append((pivot, vec))
                basis_tdeg += max(k & mask for k in vec)
                break
            # t=0 layer cancelled; loop divides by t again

    limit_rows = [{cols[k >> b]: c for k, c in row.items() if not k & mask}
                  for _pivot, row in basis]
    return MonomialSpace(ctx.with_t(1), rows=_sparse_rref(limit_rows, p))
