"""Randomized exact interpolation oracle over F_p.

Dimensions of plane-curve systems vanishing on unions of monomial schemes
at points are measured by the rank of a vanishing-conditions matrix: one
row per staircase cell, holding the Taylor coefficient functional of that
cell in the site's local frame.  Random positions with a large prime make
the maximal (generic) rank overwhelmingly likely, and the max over trials
is reported; special positions can only lower the rank (semicontinuity).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import comb
from operator import index

from .errors import OracleResourceLimit, PrimeTooSmall
from .hilbert import ambient_sections, fat_point_degree, virtual_hilbert
from .linalg import DEFAULT_PRIME, echelon_mod_p, require_prime
from .staircase import (Staircase, _integer, _integers, _Record, _Value,
                        regular)

# the one budget for conditions-matrix work, in matrix entries.  Cost
# follows the entry count.  limit_inclusion_check on Nagata plans (k, m, s),
# p = 1000003, three runs each on one 2-core shared VM: (5,3,1) 23,409
# entries 0.2-0.3 s, (6,3,2) 53,361 0.6-0.9 s, (7,3,2) 90,000 1.1-1.3 s,
# (6,4,1) 126,360 0.9-1.4 s, (7,4,2) 246,016 5.8-9.2 s; a one-cell plan at
# degree 24 (325 x 325) 0.15 s with no scene points, 0.6-0.8 s with 325
# simple ones.  The (6,3) oracle table, 70,200 entries admitted (a trial
# short of full rank eliminates them all), one packed elimination of its
# 216 x 231 degree-20 prefix per trial: 0.2 s a trial at p = 2^61 - 1,
# 0.05-0.09 s at p = 1000003 (0.3 s and 0.11-0.12 s for the whole 216 x
# 325 matrix).  The same VM has run these about twice as fast on other
# days, so compare only timings taken together.
DESK_MATRIX_BUDGET = 120_000


def require_desk_scale(nrows: int, ncols: int, force: bool = False) -> None:
    """Refuse an nrows x ncols conditions matrix beyond DESK_MATRIX_BUDGET
    entries, before it is built, unless force is set."""
    if nrows * ncols > DESK_MATRIX_BUDGET and not force:
        raise OracleResourceLimit(
            f"conditions matrix {nrows} x {ncols} = {nrows * ncols} entries "
            f"exceeds the desk-scale budget of {DESK_MATRIX_BUDGET}")


class Site(_Value):
    """A punctual scheme site: position, local frame, staircase shape.

    position None means "generic": drawn from the seeded RNG per trial.
    frame None means the identity for fat points and a random invertible
    frame per trial for any other shape (generic embedding); an explicit
    frame is a 2x2 invertible matrix sending local to global coordinates.
    """

    __slots__ = ("shape", "position", "frame")

    def __init__(self, shape: Staircase, position=None, frame=None):
        if shape.dim != 2:
            raise ValueError("interpolation sites are planar (d=2 shapes)")
        if position is not None:
            position = _integers(position, "site coordinate")
        if frame is not None:
            frame = tuple(_integers(row, "frame entry") for row in frame)
        super().__init__(shape, position, frame)

    def is_fat_point(self) -> bool:
        """Whether the shape is regular(m), m its largest height: heights
        m, m - 1, ..., 1 at y = 0, ..., m - 1 and none beyond."""
        heights = self.shape.heights
        m = self.shape.max_height
        return len(heights) == m and all(
            heights.get((y,)) == m - y for y in range(m))


def monomials_of_degree_at_most(d: int):
    """Column order for conditions matrices: (i, j) with i + j <= d."""
    return [(i, j) for s in range(d + 1) for i in range(s + 1)
            for j in (s - i,)]


def _frame_det(frame, p):
    (a, b), (c, d) = frame
    return (a * d - b * c) % p


def _require_prime_above(p: int, d: int) -> None:
    require_prime(p)
    if p <= d:
        raise PrimeTooSmall(f"prime {p} must exceed the degree {d}")


def conditions_matrix(sites, d: int, p: int = DEFAULT_PRIME, cols=None):
    """Vanishing conditions of the sites on degree-d curves.

    Rows: one per staircase cell over all sites (Taylor coefficient of the
    cell monomial in frame coordinates).  Columns: the (d+1)(d+2)/2 curve
    coefficients in monomials_of_degree_at_most order, or the monomials
    (i, j) with i + j <= d listed in cols, any other column refused with
    a ValueError that names it.  Entries are exact integers mod p; two
    sites whose positions agree mod p are refused.
    """
    _require_prime_above(p, d)
    if cols is None:
        cols = monomials_of_degree_at_most(d)
    else:
        for col in cols:
            try:
                i, j = col
                i, j = index(i), index(j)
            except (TypeError, ValueError):
                raise ValueError(
                    f"column {col!r} is not a pair of integers") from None
            if i < 0 or j < 0 or i + j > d:
                raise ValueError(
                    f"column ({i}, {j}) is not a monomial of degree <= {d}")
    rows = []
    seen = set()
    for site in sites:
        if site.position is None:
            raise ValueError("site position must be materialized first")
        position = tuple(c % p for c in site.position)
        if position in seen:
            raise ValueError(f"duplicate site position {site.position}")
        seen.add(position)
        rows.extend(_site_rows(site, position, d, p, cols))
    return rows


def _site_rows(site, position, d, p, cols):
    """Rows of the site's cells on the columns cols.

    Identity frame: the cell (a, b) is the coefficient of u1^a u2^b in
    f(px + u1, py + u2), on the column x^i y^j the x-factor C(i, a)
    px^(i-a) times the y-factor C(j, b) py^(j-b); the powers and each
    factor list are computed once per site.  A frame F is a linear
    change of jet, degree by degree: f(P + F u) = sum_beta taylor(beta)
    (F u)^beta, so the row of alpha is the sum over |beta| = |alpha| of
    [u^alpha] (F u)^beta times taylor(beta)."""
    px, py = position
    cells = site.shape.cells()
    if not cells:
        return []
    top = max(a + b for a, b in cells)

    def factors(c):
        # [C(i, e) c^(i-e) for i <= d], one list per e <= top
        pw = [1]
        for _ in range(d):
            pw.append(pw[-1] * c % p)
        return [[comb(i, e) * pw[i - e] % p if i >= e else 0
                 for i in range(d + 1)] for e in range(top + 1)]

    xfs, yfs = factors(px), factors(py)

    def taylor(a, b):
        xf, yf = xfs[a], yfs[b]
        return [xf[i] * yf[j] % p for i, j in cols]

    frame = site.frame
    if frame is None or frame == ((1, 0), (0, 1)):
        return [taylor(a, b) for a, b in cells]
    if _frame_det(frame, p) == 0:
        raise ValueError("site frame is not invertible")
    (f00, f01), (f10, f11) = frame
    jets = {n: [taylor(e, n - e) for e in range(n + 1)]
            for n in {a + b for a, b in cells}}
    rows = []
    for a, b in cells:
        acc = [0] * len(cols)
        for e1, row in enumerate(jets[a + b]):
            # [u1^a u2^b] (f00 u1 + f01 u2)^e1 (f10 u1 + f11 u2)^e2
            e2 = a + b - e1
            c = sum(comb(e1, k) * pow(f00, k, p) * pow(f01, e1 - k, p)
                    * comb(e2, a - k) * pow(f10, a - k, p)
                    * pow(f11, e2 - a + k, p)
                    for k in range(max(0, a - e2), min(e1, a) + 1)) % p
            if c:
                acc = [s + c * v for s, v in zip(acc, row)]
        rows.append([s % p for s in acc])
    return rows


def _materialize(sites, rng, p):
    """Fill in generic positions and frames for one trial.  Every site
    needs its own point of the plane mod p, so more sites than its p^2
    points are refused before any is drawn."""
    if len(sites) > p * p:
        raise PrimeTooSmall(f"prime {p} has {p * p} points in the plane, "
                            f"fewer than the {len(sites)} sites")
    require_prime(p)  # before any draw: mod 1 no frame is invertible
    taken = {tuple(c % p for c in s.position)
             for s in sites if s.position is not None}
    out = []
    for site in sites:
        pos = site.position
        if pos is None:
            while True:
                pos = (rng.randrange(p), rng.randrange(p))
                if pos not in taken:
                    break
            taken.add(pos)
        frame = site.frame
        if frame is None and not site.is_fat_point():
            while True:
                frame = ((rng.randrange(p), rng.randrange(p)),
                         (rng.randrange(p), rng.randrange(p)))
                if _frame_det(frame, p) != 0:
                    break
        out.append(Site(site.shape, pos, frame))
    return out


def _rank_profiles(sites, d: int, trials: int, seed: int, p: int):
    """Pivot columns of the degree-d conditions matrix, one list per trial.
    Columns run by total degree and a trial's positions do not depend on
    the degree, so the pivots below ambient_sections(e) are its rank in
    every degree e <= d.

    A trial first eliminates only the degree-e matrix, e the least degree
    <= d with at least as many columns as there are condition rows: it is
    a column prefix of the degree-d matrix.  Once the prefix has a pivot
    in every row, no later column can hold one, so its pivots are the
    degree-d pivots (for a zero-dimensional scheme, H reaching deg Z in
    degree e stays there).  Otherwise the same placed sites are eliminated
    in degree d."""
    nrows = sum(site.shape.degree for site in sites)
    e = next((e for e in range(d) if ambient_sections(e) >= nrows), d)
    rng = random.Random(seed)
    profiles = []
    for _ in range(trials):
        placed = _materialize(sites, rng, p)
        # the prefix degree e may lie below p while d does not
        _require_prime_above(p, d)
        pivots = echelon_mod_p(conditions_matrix(placed, e, p), p)[1]
        if e < d and len(pivots) < nrows:
            pivots = echelon_mod_p(conditions_matrix(placed, d, p), p)[1]
        profiles.append(pivots)
    return profiles


def hilbert_function_of(sites, d: int, trials: int = 3, seed: int = 0,
                        p: int = DEFAULT_PRIME) -> int:
    """Generic rank of the vanishing conditions in degree d (the Hilbert
    function of the generic union with these shapes, with failure
    probability <= degree-bound/p per trial).  A trial stops at the least
    degree whose conditions already have full rank: the rank cannot grow
    past the number of conditions, so it is then the degree-d rank."""
    d, trials = _integer(d, "d"), _integer(trials, "trials", 1)
    return max(len(pivots)
               for pivots in _rank_profiles(sites, d, trials, seed, p))


class NagataReport(_Record):
    """Oracle-vs-formula table for k^2 fat points of multiplicity m."""

    __slots__ = ("k", "m", "d_max", "trials", "seed", "prime", "prime2",
                 "rows", "passed", "cross_check_agrees")

    def __init__(self, k, m, d_max, trials, seed, prime, prime2, rows=None,
                 passed=False, cross_check_agrees=None):
        super().__init__(k, m, d_max, trials, seed, prime, prime2,
                         [] if rows is None else rows, passed,
                         cross_check_agrees)

    def to_json(self) -> dict:
        return {
            "header": {
                "k": self.k, "m": self.m, "d_max": self.d_max,
                "trials": self.trials, "seed": self.seed,
                "prime": self.prime, "prime2": self.prime2,
            },
            "rows": self.rows,
            "pass": self.passed,
            "cross_check_agrees": self.cross_check_agrees,
        }

    def to_csv(self) -> str:
        lines = [f"# seed={self.seed} prime={self.prime}"
                 + (f" prime2={self.prime2}" if self.prime2 else ""),
                 "d,oracle,virtual,match"]
        for row in self.rows:
            lines.append(f"{row['d']},{row['oracle']},{row['virtual']},"
                         f"{str(row['match']).lower()}")
        return "\n".join(lines) + "\n"


def verify_nagata_theorem(k: int, m: int, d_max: int | None = None,
                          trials: int = 3, seed: int = 0,
                          prime: int = DEFAULT_PRIME,
                          prime2: int | None = None,
                          force: bool = False) -> NagataReport:
    """Compare the oracle with min((d+1)(d+2)/2, k^2 m(m+1)/2) for d <= d_max.

    One elimination per trial and prime gives the whole table: H(d) is the
    number of pivot columns of the degree-d_max conditions matrix below
    ambient_sections(d), maxed over trials.  The elimination stops at the
    least degree e with ambient_sections(e) >= deg Z whenever H(e) = deg Z
    there: no later column can then hold a pivot, so H(d) = deg Z for every
    d >= e, and only a trial short of that eliminates degree d_max."""
    k, m = _integer(k, "k", 1), _integer(m, "m", 1)
    trials = _integer(trials, "trials", 1)
    d_max = k * m + k if d_max is None else _integer(d_max, "d_max", 0)
    primes = [require_prime(prime)]
    if prime2 is not None:
        if prime2 == prime:
            raise ValueError("prime2 must differ from prime")
        primes.append(require_prime(prime2))
    deg_z = k * k * fat_point_degree(m)
    require_desk_scale(deg_z, ambient_sections(d_max), force)
    report = NagataReport(k, m, d_max, trials, seed, prime, prime2)
    sites = [Site(regular(m))] * (k * k)
    tables = []
    for p in primes:
        profiles = _rank_profiles(sites, d_max, trials, seed, p)
        table = []
        for d in range(d_max + 1):
            oracle = max(bisect_left(pivots, ambient_sections(d))
                         for pivots in profiles)
            virtual = virtual_hilbert(deg_z, d)
            table.append({"d": d, "oracle": oracle, "virtual": virtual,
                          "match": oracle == virtual})
        tables.append(table)
    report.rows = tables[0]
    report.passed = all(row["match"] for row in tables[0])
    if prime2 is not None:
        report.cross_check_agrees = (
            [r["oracle"] for r in tables[0]] == [r["oracle"] for r in tables[1]])
        report.passed = report.passed and report.cross_check_agrees \
            and all(row["match"] for row in tables[1])
    return report
