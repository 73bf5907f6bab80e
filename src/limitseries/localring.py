"""Exact computation in truncated rings F_p[x_1..x_d] (x) F_p[t]/(t^n).

Everything is tracked up to a total x-degree cap.  Translated monomial
ideals, the alternating truncate / colon-by-x_1 chains, their closed-form
generators, special fibers at t=0 and t-adic flat limits all live here.

All ideals and modules in the chain are graded by the x_2..x_d exponent
(truncation and colon-by-x_1 both preserve that multidegree), so spans are
stored column by column: one canonical Howell-form module over F_p[t]/(t^n)
in the x_1 coordinates per x_2..x_d exponent.  Spaces that are not graded
(flat limits, spans of explicit elements) use a plain reduced echelon form
instead.  A plain space is read-only: dimension, membership, basis and
equality; truncation, colon and special fiber need the graded layout.
Howell modules and flat limits share one row format and update, _add_mul.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import product
from math import comb

from .errors import (BoundaryWarning, CapExceeded, CapExhausted,
                     DivisionWitnessFailure, InvalidSequence,
                     InvalidTruncation, PrimeTooSmall, ResourceLimit)
from .linalg import DEFAULT_PRIME, is_prime, rref_mod_p
from .staircase import Staircase

# ---------------------------------------------------------------------------
# contexts and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingContext:
    """Ambient data: dimension, prime, t-truncation and x-degree cap.

    ``t_trunc=None`` means untruncated working precision (exact polynomials
    in t).  The prime must exceed the x-cap so binomial coefficients of all
    tracked degrees stay invertible.
    """

    dim: int
    prime: int = DEFAULT_PRIME
    t_trunc: int | None = None
    x_cap: int = 12

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.x_cap < 0:
            raise ValueError("x_cap must be >= 0")
        if self.t_trunc is not None and self.t_trunc < 1:
            raise ValueError("t_trunc must be >= 1 or None")
        if not is_prime(self.prime):
            raise PrimeTooSmall(f"{self.prime} is not prime")
        if self.prime <= self.x_cap:
            raise PrimeTooSmall(
                f"prime {self.prime} must exceed the x-degree cap {self.x_cap}")

    def with_t(self, n):
        return replace(self, t_trunc=n)

    def with_cap(self, cap):
        return replace(self, x_cap=cap)

    def compatible(self, other: "RingContext") -> bool:
        return self.dim == other.dim and self.prime == other.prime


class Element:
    """A finite sum of monomials x^a t^b with F_p coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms: dict):
        p = ctx.prime
        clean = {}
        for (a, b), c in terms.items():
            a = tuple(int(x) for x in a)
            if len(a) != ctx.dim:
                raise ValueError(f"exponent {a} has wrong arity for dim {ctx.dim}")
            if ctx.t_trunc is not None and b >= ctx.t_trunc:
                continue
            c %= p
            if c:
                clean[(a, int(b))] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

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

    def subs_t0(self):
        return Element(self.ctx.with_t(1),
                       {k: c for k, c in self.terms.items() if k[1] == 0})

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
    out = {0: inv0}
    supp = sorted(e for e in u if e > 0)
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


def _add_mul(row, other, q, n, p):
    """row += q(t) * other in place, dropping t^n and beyond.

    Rows are {(coord, t_exp): coeff} and q is {t_exp: coeff}; every Howell
    step (normalisation, cancellation, shadow, back-reduction, membership,
    expansion to an F_p-basis) and every flat_limit step is this update."""
    for (j, te), c in other.items():
        for qe, qc in q.items():
            te2 = te + qe
            if te2 < n:
                k = (j, te2)
                v = (row.get(k, 0) + c * qc) % p
                if v:
                    row[k] = v
                elif k in row:
                    del row[k]
    return row


class TModule:
    """Canonical Howell-form module over F_p[t]/(t^n) in x_1 coordinates.

    Rows are flat dicts {(coord, t_exp): coeff}.  In canonical form every
    row's pivot (its lowest nonzero coordinate) carries the exact entry
    t^val, pivots are distinct and increasing, and entries of other rows at
    a pivot coordinate are reduced below that pivot's valuation.  The form
    is unique for a given module, so equality is row equality.  Every row
    operation is the shared update ``_add_mul`` (row += q(t) * other).
    """

    __slots__ = ("p", "n", "ncoords", "rows", "pivots", "vals")

    def __init__(self, p, n, ncoords, rows, pivots, vals):
        self.p = p
        self.n = n
        self.ncoords = ncoords
        self.rows = rows
        self.pivots = pivots
        self.vals = vals

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, p, n, ncoords, gen_rows):
        """Canonicalize arbitrary generating rows (Howell algorithm)."""
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
                row = _add_mul({}, row, _sp_inv(unit, n, p), n, p)
            if slots[j] is None or e < slots[j][1]:
                old = slots[j]
                slots[j] = (row, e)
                if e > 0:
                    # t^(n-e) * row, nonzero tail of the annihilator multiple
                    sh = _add_mul({}, row, {n - e: 1}, n, p)
                    if sh:
                        pending.append(sh)
                if old is None:
                    continue
                row, e = old
            # slot pivot val <= e: cancel coordinate j of row exactly
            srow, se = slots[j]
            _add_mul(row, srow, {e - se: p - 1}, n, p)
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
                    _add_mul(r, srow, q, n, p)
        return cls(p, n, ncoords, rows, pivots, vals)

    @classmethod
    def full(cls, p, n, ncoords):
        rows = [{(j, 0): 1} for j in range(ncoords)]
        return cls(p, n, ncoords, rows, list(range(ncoords)), [0] * ncoords)

    # -- queries ---------------------------------------------------------------

    @property
    def is_full(self):
        return len(self.rows) == self.ncoords and all(v == 0 for v in self.vals)

    def dim_fp(self):
        return sum(self.n - v for v in self.vals)

    def key(self):
        return (self.n, self.ncoords,
                tuple(tuple(sorted(r.items())) for r in self.rows))

    def __eq__(self, other):
        return isinstance(other, TModule) and self.p == other.p and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def contains_vector(self, vec: dict) -> bool:
        p, n = self.p, self.n
        v = {k: c % p for k, c in vec.items() if c % p and k[1] < n}
        by_pivot = dict(zip(self.pivots, zip(self.vals, self.rows)))
        for j in range(self.ncoords):
            entries = {te: c for (jj, te), c in v.items() if jj == j}
            if not entries:
                continue
            if j not in by_pivot:
                return False
            e, row = by_pivot[j]
            if min(entries) < e:
                return False
            _add_mul(v, row, {te - e: -c for te, c in entries.items()}, n, p)
        return not v

    # -- operations --------------------------------------------------------------

    def truncate(self, n_to):
        if n_to > self.n:
            raise InvalidTruncation(f"cannot truncate from t^{self.n} to t^{n_to}")
        if n_to == self.n:
            return self
        if self.is_full:
            return TModule.full(self.p, n_to, self.ncoords)
        return TModule.from_rows(self.p, n_to, self.ncoords, self.rows)

    def colon(self):
        """{g : x_1 * g in M}, one coordinate fewer."""
        if self.ncoords == 0:
            raise CapExhausted("no x-degree headroom left")
        if self.is_full:
            return TModule.full(self.p, self.n, self.ncoords - 1)
        rows = []
        for r, j in zip(self.rows, self.pivots):
            if j >= 1:
                rows.append({(jj - 1, te): c for (jj, te), c in r.items()})
        return TModule.from_rows(self.p, self.n, self.ncoords - 1, rows)

    def fiber_rows(self):
        """t=0 images of the canonical rows, as dense F_p vectors."""
        out = []
        for r in self.rows:
            vec = [0] * self.ncoords
            for (jj, te), c in r.items():
                if te == 0:
                    vec[jj] = c
            if any(vec):
                out.append(vec)
        return out

    def expand_rows(self):
        """An F_p-basis of the module: t^b * row for 0 <= b < n - val."""
        return [_add_mul({}, r, {b: 1}, self.n, self.p)
                for r, v in zip(self.rows, self.vals) for b in range(self.n - v)]


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
        rows = []
        for el in elements:
            if isinstance(el, Element):
                rows.append(el.terms)
            else:
                rows.append(el)
        return cls(ctx, rows=_sparse_rref(rows, ctx.prime))

    @classmethod
    def from_columns(cls, ctx, columns):
        return cls(ctx, columns=dict(columns))

    # -- basic queries ------------------------------------------------------------

    def dimension(self):
        if self.rows is not None:
            return len(self.rows)
        return sum(m.dim_fp() for m in self.columns.values())

    def contains(self, el) -> bool:
        terms = el.terms if isinstance(el, Element) else dict(el)
        p = self.ctx.prime
        if self.rows is not None:
            # in the span iff adding it leaves the number of rows unchanged
            grown = _sparse_rref([*self.rows.values(), terms], p)
            return len(grown) == len(self.rows)
        split: dict = {}
        for (a, te), c in terms.items():
            if c % p == 0:
                continue
            w = a[1:]
            split.setdefault(w, {})[(a[0], te)] = c
        for w, vec in split.items():
            mod = self.columns.get(w)
            if mod is None:
                raise CapExceeded(f"column {w} outside the tracked cap")
            if not mod.contains_vector(vec):
                return False
        return True

    def basis(self):
        """Basis as Elements (expands a graded layout)."""
        if self.rows is not None:
            return [Element(self.ctx, row) for row in self.rows.values()]
        out = []
        for w in sorted(self.columns):
            for row in self.columns[w].expand_rows():
                out.append(Element(
                    self.ctx, {((j,) + w, te): c for (j, te), c in row.items()}))
        return out

    def __eq__(self, other):
        if not isinstance(other, MonomialSpace):
            return NotImplemented
        if not self.ctx.compatible(other.ctx):
            return False
        if self.ctx.t_trunc != other.ctx.t_trunc:
            return False
        if self.columns is not None and other.columns is not None:
            keys = set(self.columns) | set(other.columns)
            for w in keys:
                a = self.columns.get(w)
                b = other.columns.get(w)
                if a is None or b is None:
                    if (a or b) and (a.rows if a else b.rows):
                        return False
                    continue
                if a != b:
                    return False
            return True
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
        columns = self._graded_columns("truncate")
        cur = self.ctx.t_trunc
        if cur is not None and n_to > cur:
            raise InvalidTruncation(f"cannot truncate from t^{cur} to t^{n_to}")
        return MonomialSpace.from_columns(
            self.ctx.with_t(n_to),
            {w: m.truncate(n_to) for w, m in columns.items()})

    def colon_x1(self):
        """{f : x_1 f in span}; the x-cap drops by one."""
        columns = self._graded_columns("colon_x1")
        if self.ctx.x_cap < 1:
            raise CapExhausted("x_cap already exhausted")
        return MonomialSpace.from_columns(
            self.ctx.with_cap(self.ctx.x_cap - 1),
            {w: m.colon() for w, m in columns.items() if m.ncoords > 1})

    def special_fiber(self):
        """Image at t=0, a space over F_p[x]."""
        columns = self._graded_columns("special_fiber")
        ctx = self.ctx.with_t(1)
        cols = {}
        for w, m in columns.items():
            rows = [{(j, 0): c for j, c in enumerate(vec) if c}
                    for vec in m.fiber_rows()]
            cols[w] = TModule.from_rows(ctx.prime, 1, m.ncoords, rows)
        return MonomialSpace.from_columns(ctx, cols)

    def __repr__(self):
        kind = "graded" if self.columns is not None else "plain"
        return (f"MonomialSpace(dim={self.dimension()}, {kind}, "
                f"t<{self.ctx.t_trunc}, cap={self.ctx.x_cap})")


# ---------------------------------------------------------------------------
# family ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyIdeal:
    """Generators of an ideal (or explicit module) in a ring context."""

    ctx: RingContext
    generators: tuple
    provenance: str = "derived"

    def truncate(self, n_to):
        return FamilyIdeal(self.ctx.with_t(n_to),
                           tuple(g.truncate_t(n_to) for g in self.generators),
                           self.provenance)

    def span(self, cap=None) -> MonomialSpace:
        """Span of the ideal up to the x-cap (x- and t-monomial multiples)."""
        ctx = self.ctx
        cap = ctx.x_cap if cap is None else cap
        n = ctx.t_trunc
        if n is None:
            raise ValueError("ideal spans need a finite t-truncation")
        homog = []
        for g in self.generators:
            if g.is_zero:
                continue
            wset = {a[1:] for (a, _te) in g.terms}
            degs = {a[0] for (a, _te) in g.terms}
            if len(wset) != 1:
                homog = None
                break
            homog.append((next(iter(wset)), max(degs), g))
        if homog is None:
            raise ResourceLimit("span of non-graded generators is not supported")
        columns = {}
        for w in _exponents_upto(ctx.dim - 1, cap):
            bases = []
            for wg, xdeg, g in homog:
                if len(wg) != len(w) or any(a > b for a, b in zip(wg, w)):
                    continue
                bases.append(({(a[0], te): c for (a, te), c in g.terms.items()
                               if te < n}, xdeg))
            columns[w] = _shifted_column(ctx.prime, n, cap - sum(w) + 1, bases)
        return MonomialSpace.from_columns(ctx, columns)


def _shifted_column(p, n, ncoords, bases):
    """Column module spanned by x_1^s * base for every (base, xdeg) and every
    shift s that keeps the x_1-degree xdeg + s below ncoords.  Bases are
    {(x_1 exponent, t exponent): coeff} dicts; rows keep the order given."""
    rows = []
    for base, xdeg in bases:
        for s in range(ncoords - xdeg):
            rows.append({(j + s, te): c for (j, te), c in base.items()})
    return TModule.from_rows(p, n, ncoords, rows)


def _exponents_upto(arity, total):
    if arity == 0:
        return [()]
    out = []
    for head in range(total + 1):
        for tail in _exponents_upto(arity - 1, total - head):
            out.append((head,) + tail)
    return sorted(out)


def translate_ideal(E: Staircase, v: int, ctx: RingContext) -> FamilyIdeal:
    """J(E, v): the ideal of the staircase translated by x_1 -> x_1 - t^v."""
    if v < 1:
        raise ValueError("speed v must be >= 1")
    if E.dim != ctx.dim:
        raise ValueError("staircase dimension does not match the context")
    gens = []
    for c in E.complement_generators():
        if sum(c) > ctx.x_cap:
            raise CapExceeded(
                f"generator x^{c} exceeds the x-degree cap {ctx.x_cap}")
        if ctx.t_trunc is not None and v * c[0] >= ctx.t_trunc and c[0] > 0:
            raise CapExceeded(
                f"generator x^{c} needs t-degree {v * c[0]} >= {ctx.t_trunc}")
        terms = {}
        c1 = c[0]
        for l in range(c1 + 1):
            coeff = comb(c1, l) * (-1) ** (c1 - l)
            terms[((l,) + tuple(c[1:]), v * (c1 - l))] = coeff
        gens.append(Element(ctx, terms))
    return FamilyIdeal(ctx, tuple(gens), "translated-staircase")


# ---------------------------------------------------------------------------
# residual chains
# ---------------------------------------------------------------------------


def _validate_levels(ns):
    ns = [int(n) for n in ns]
    if any(n < 1 for n in ns):
        raise InvalidSequence(f"levels must be >= 1, got {ns}")
    if any(a <= b for a, b in zip(ns, ns[1:])):
        raise InvalidSequence(f"levels must strictly decrease, got {ns}")
    return ns


def chain_context(E: Staircase, v: int, ns, prime=DEFAULT_PRIME) -> RingContext:
    """Smallest context with enough x- and t-headroom for the chain."""
    ns = _validate_levels(ns) if ns else []
    k = len(ns)
    gens = E.complement_generators()
    gen_deg = max((sum(c) for c in gens), default=0)
    fit = max((h + sum(w) for w, h in E.heights.items()), default=0)
    cap = max(1, k + max(gen_deg, fit))
    n1 = ns[0] if ns else v * E.max_height + 1
    return RingContext(dim=E.dim, prime=prime, t_trunc=n1, x_cap=cap)


def boundary_columns(E: Staircase, v: int, ns):
    """Columns whose height hits a level exactly: n_j == v * h(w)."""
    hits = []
    for w, h in sorted(E.heights.items()):
        for n in ns:
            if n == v * h:
                hits.append((w, h, n))
    return hits


def _chain_columns(E, v, ns, ctx, final_colon):
    ns = _validate_levels(ns)
    k = len(ns)
    p, cap = ctx.prime, ctx.x_cap
    if ctx.t_trunc is not None and ctx.t_trunc < ns[0]:
        raise InvalidTruncation(
            f"context t-truncation {ctx.t_trunc} below first level {ns[0]}")
    gens = E.complement_generators()
    need = k + max(max((sum(c) for c in gens), default=0),
                   max((h + sum(w) for w, h in E.heights.items()), default=0))
    if cap < need:
        raise CapExceeded(f"x_cap {cap} below needed headroom {need}")
    hits = boundary_columns(E, v, ns)
    if hits:
        warnings.warn(
            f"boundary levels {sorted({n for _w, _h, n in hits})} touch "
            f"v*h at columns {sorted({w for w, _h, _n in hits})}",
            BoundaryWarning, stacklevel=3)

    n1 = ns[0]
    columns = {}
    for w in _exponents_upto(E.dim - 1, cap):
        ncoords = cap - sum(w) + 1
        h = E.height(w)
        if h == 0:
            mod = TModule.full(p, n1, ncoords)
        else:
            base = {}
            for l in range(h + 1):
                te = v * (h - l)
                if te < n1:
                    base[(l, te)] = comb(h, l) * (-1) ** (h - l)
            mod = _shifted_column(p, n1, ncoords, [(base, h)])
        for idx, n in enumerate(ns):
            mod = mod.truncate(n)
            if idx < k - 1 or final_colon:
                if mod.ncoords == 0:
                    break  # column falls outside the final cap
                mod = mod.colon()
        columns[w] = mod
    colons = k if final_colon else k - 1
    ctx_out = ctx.with_t(ns[-1]).with_cap(cap - colons)
    columns = {w: m for w, m in columns.items() if m.ncoords > 0}
    return MonomialSpace.from_columns(ctx_out, columns)


def restriction_chain(E: Staircase, v: int, ns, ctx=None) -> MonomialSpace:
    """J_{n_1:...:n_k}: alternating truncations and colons, ending on a
    truncation (k restrictions, k-1 colons)."""
    if ctx is None:
        ctx = chain_context(E, v, ns)
    return _chain_columns(E, v, ns, ctx, final_colon=False)


def residual_chain(E: Staircase, v: int, ns, ctx=None) -> MonomialSpace:
    """J_{n_1:...:n_k:}: same chain with the final colon applied."""
    if ctx is None:
        ctx = chain_context(E, v, ns)
    return _chain_columns(E, v, ns, ctx, final_colon=True)


def truncate(obj, n_to):
    """psi_{n p}: drop all monomials with t-exponent >= n_to."""
    return obj.truncate(n_to)


def colon_x1(space: MonomialSpace) -> MonomialSpace:
    """(span : x_1), computed degreewise by exact linear algebra."""
    return space.colon_x1()


def special_fiber(obj) -> MonomialSpace:
    """Set t = 0."""
    if isinstance(obj, FamilyIdeal):
        fibers = [g.subs_t0() for g in obj.generators]
        fiber_ideal = FamilyIdeal(obj.ctx.with_t(1), tuple(fibers), obj.provenance)
        return fiber_ideal.span()
    return obj.special_fiber()


# ---------------------------------------------------------------------------
# closed-form residual generators
# ---------------------------------------------------------------------------


def closed_form_residual(E: Staircase, v: int, ns, ctx=None) -> FamilyIdeal:
    """Generators f_m and t^{alpha_{k-i+1}} f_m / x_1^i of the residual
    chain, by exact division in R_{n_k}.

    alpha_j = max(0, n_j - v*h(m)).  Division is witnessed: any low-order
    x_1 coefficient that fails to vanish raises DivisionWitnessFailure,
    which signals a level sequence that breaks the gap rule for this (E,v).
    """
    if ctx is None:
        ctx = chain_context(E, v, ns)
    ns = _validate_levels(ns) if ns else []
    k = len(ns)
    n_k = ns[-1] if ns else ctx.t_trunc
    if n_k is None:
        raise ValueError("closed form needs a finite t-truncation")
    ectx = ctx.with_t(n_k)
    p = ctx.prime
    gens = []
    for w in sorted(E.heights):
        h = E.heights[w]
        f_terms = {}
        for l in range(h + 1):
            te = v * (h - l)
            if te < n_k:
                f_terms[((l,) + w, te)] = comb(h, l) * (-1) ** (h - l)
        gens.append(Element(ectx, f_terms))
        for i in range(1, k + 1):
            alpha = max(0, ns[k - i] - v * h)
            num = {}
            for l in range(h + 1):
                te = alpha + v * (h - l)
                if te < n_k:
                    num[(l, te)] = comb(h, l) * (-1) ** (h - l) % p
            bad = [l for (l, _te) in num if l < i]
            if bad:
                raise DivisionWitnessFailure(
                    f"x_1^{min(bad)} coefficient of t^{alpha} f_{w} survives "
                    f"in R_{n_k}; levels {ns} are invalid for v={v}, h={h}")
            terms = {((l - i,) + w, te): c for (l, te), c in num.items()}
            gens.append(Element(ectx, terms))
    return FamilyIdeal(ectx, tuple(gens), "derived")


def closed_form_span(E: Staircase, v: int, ns, ctx=None) -> MonomialSpace:
    """Span of the closed form as an (x_1, t)-module, plus the untouched
    block of columns with height zero; directly comparable with
    residual_chain output."""
    if ctx is None:
        ctx = chain_context(E, v, ns)
    ideal = closed_form_residual(E, v, ns, ctx)
    ns = _validate_levels(ns) if ns else []
    k = len(ns)
    n_k = ns[-1] if ns else ctx.t_trunc
    p = ctx.prime
    cap = ctx.x_cap - k
    by_col: dict = {}
    for g in ideal.generators:
        wset = {a[1:] for (a, _te) in g.terms}
        if len(wset) != 1:
            continue  # zero generator fully truncated away
        w = next(iter(wset))
        by_col.setdefault(w, []).append(g)
    columns = {}
    for w in _exponents_upto(E.dim - 1, cap):
        ncoords = cap - sum(w) + 1
        if E.height(w) == 0:
            columns[w] = TModule.full(p, n_k, ncoords)
            continue
        bases = []
        for g in by_col.get(w, []):
            base = {(a[0], te): c for (a, te), c in g.terms.items()}
            bases.append((base, max((j for (j, _te) in base), default=0)))
        columns[w] = _shifted_column(p, n_k, ncoords, bases)
    out_ctx = ctx.with_t(n_k).with_cap(cap)
    return MonomialSpace.from_columns(out_ctx, columns)


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
    cols = sorted({(a, 0) for t in terms for (a, _te), c in t.items() if c % p},
                  key=_order_key, reverse=True)
    index = {a: j for j, (a, _z) in enumerate(cols)}
    vectors = [{(index[a], te): c % p for (a, te), c in t.items() if c % p}
               for t in terms]
    n = 1 + max((te for vec in vectors for _j, te in vec), default=0)

    basis = []  # (pivot coordinate, row with the entry 1 there at t^0)
    basis_tdeg = 0
    for vec in vectors:
        if len(basis) == len(cols):
            break
        room = basis_tdeg + max((te for _j, te in vec), default=0)
        while vec:
            val = min(te for _j, te in vec)
            room -= val
            if room < 0:
                break  # dependent over F_p(t)
            if val:
                vec = {(j, te - val): c for (j, te), c in vec.items()}
            for pivot, brow in basis:
                c = vec.get((pivot, 0))
                if c:
                    _add_mul(vec, brow, {0: p - c}, n, p)
            head = [j for j, te in vec if te == 0]
            if head:
                pivot = min(head)
                vec = _add_mul({}, vec, {0: pow(vec[(pivot, 0)], -1, p)}, n, p)
                basis.append((pivot, vec))
                basis_tdeg += max(te for _j, te in vec)
                break
            # t=0 layer cancelled; loop divides by t again

    limit_rows = [{cols[j]: c for (j, te), c in row.items() if te == 0}
                  for _pivot, row in basis]
    return MonomialSpace(ctx.with_t(1), rows=_sparse_rref(limit_rows, p))
