"""Specialization plans and certificates for the divisor-collision method.

A plan moves a tuple of monomial schemes onto a divisor D (locally x_1 = 0)
at speeds t^{v_j} and restricts the family at levels n_1 > ... > n_r.  With
the gap condition n_i - n_{i+1} >= max(v_j) and the per-level transparency
hypothesis, the limit system is contained in the system cut out by r copies
of D plus the suppressed residual staircases.  This module builds the
arithmetic side (plans, degree tables, certificates) and, at desk scale,
verifies the limit inclusion directly: the fixed base conditions are
eliminated once over F_p, and only the sliding conditions, read modulo
them, go through the flat limit.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import mul

from .errors import (DomainError, HypothesisFailed, IdentityFailure,
                     LengthMismatch, OracleResourceLimit, PrimeTooSmall)
from .hilbert import (ambient_sections, bookkeeping_identity, critical_degree,
                      fat_point_degree)
from .interp import (Site, conditions_matrix, require_desk_scale,
                     verify_nagata_theorem)
from .linalg import (DEFAULT_PRIME, _pack, _slot_width, echelon_mod_p,
                     rank_mod_p, reduced_kernel, require_prime, rref_mod_p)
from .localring import RingContext, flat_limit
from .staircase import (Staircase, StaircaseTuple, _integer, _integers,
                        _Record, _Value, regular, suppress_tuple)

# ---------------------------------------------------------------------------
# plan and model types
# ---------------------------------------------------------------------------


class SpecializationPlan(_Value):
    """Shapes, speeds and restriction levels; derived data is recomputed."""

    __slots__ = ("shapes", "speeds", "levels")

    def __init__(self, shapes, speeds, levels):
        if not isinstance(shapes, StaircaseTuple):
            shapes = StaircaseTuple(shapes)
        speeds = _integers(speeds, "speed", 1)
        levels = _integers(levels, "level", 0)
        if len(speeds) != len(shapes):
            raise ValueError("one speed per shape required")
        super().__init__(shapes, speeds, levels)

    @property
    def r(self) -> int:
        return len(self.levels)

    def t_vector(self, i: int):
        """t_i = (floor(n_i / v_1), ..., floor(n_i / v_s)), i is 1-based."""
        i = _integer(i, "level index", 1)
        if i > self.r:
            raise DomainError(f"level index must be <= {self.r}, got {i}")
        n = self.levels[i - 1]
        return tuple(n // v for v in self.speeds)

    def slice_sizes(self, i: int):
        ts = self.t_vector(i)
        return tuple(E.slice_size(t) for E, t in zip(self.shapes, ts))

    def z_degree(self, i: int) -> int:
        return sum(self.slice_sizes(i))

    def residual_tuple(self) -> StaircaseTuple:
        """S(E, t_1, ..., t_r) by repeated slice suppression."""
        out = self.shapes
        for i in range(1, self.r + 1):
            out = suppress_tuple(out, self.t_vector(i))
        return out

    def algebraic_residual_tuple(self) -> StaircaseTuple:
        """Residual by the algebraic fiber rule h -> h - #{i : n_i <= v h}.

        Coincides with the combinatorial residual except at boundary
        columns (some n_i == v*h), where one more cell is suppressed.
        """
        out = []
        for E, v in zip(self.shapes, self.speeds):
            heights = {}
            for w, h in E.heights.items():
                heights[w] = h - sum(1 for n in self.levels if n <= v * h)
            out.append(Staircase(E.dim, heights))
        return StaircaseTuple(out)

    def to_json(self):
        return {
            "shapes": [E.to_json() for E in self.shapes],
            "speeds": list(self.speeds),
            "levels": list(self.levels),
            "divisor": "D",
        }


class LineSystemModel(_Value):
    """Degree of the ambient system and, per level, the degree of the
    conditions already sitting on the divisor."""

    __slots__ = ("degree", "line_base_degrees")

    def __init__(self, degree, line_base_degrees):
        super().__init__(_integer(degree, "degree", 0),
                         _integers(line_base_degrees, "base degree", 0))

    def to_json(self):
        return {"degree": self.degree,
                "line_base_degrees": list(self.line_base_degrees),
                "ambient": "P2"}


class OracleScene(_Value):
    """Concrete desk-scale geometry: the divisor is the line x = 0;
    multiplicities of fat-point base conditions on and off it.
    Multiplicities are integers >= 1, the prime a prime and the seed an
    integer."""

    __slots__ = ("divisor_base", "ambient_base", "prime", "seed")

    def __init__(self, divisor_base=(), ambient_base=(), prime=DEFAULT_PRIME,
                 seed=0):
        super().__init__(_integers(divisor_base, "multiplicity", 1),
                         _integers(ambient_base, "multiplicity", 1),
                         require_prime(prime), _integer(seed, "seed"))


class Finding(_Value):
    __slots__ = ("code", "severity", "message", "data")

    def __init__(self, code, severity, message, data=None):
        # severity: "error" | "warning" | "info"
        super().__init__(code, severity, message, {} if data is None else data)

    def to_json(self):
        return {"code": self.code, "severity": self.severity,
                "message": self.message, "data": self.data}


# ---------------------------------------------------------------------------
# plan validation and construction
# ---------------------------------------------------------------------------


def validate_plan(plan: SpecializationPlan):
    """Gap and boundary checks; returns findings (empty list = valid)."""
    findings = []
    ns = plan.levels
    if plan.r == 0:
        findings.append(Finding(
            "EmptyLevels", "info",
            "no levels: the inclusion is the trivial one (r = 0)"))
        return findings
    if any(n < 1 for n in ns):
        findings.append(Finding(
            "NonPositiveLevel", "error", f"levels must be >= 1, got {ns}"))
    if any(a <= b for a, b in zip(ns, ns[1:])):
        findings.append(Finding(
            "NonDecreasingLevels", "error",
            f"levels must strictly decrease, got {ns}"))
    vmax = max(plan.speeds)
    for a, b in zip(ns, ns[1:]):
        if a - b < vmax:
            findings.append(Finding(
                "GapViolation", "error",
                f"gap {a}-{b}={a - b} below max speed {vmax}",
                {"pair": [a, b], "max_speed": vmax}))
    for j, (E, v) in enumerate(zip(plan.shapes, plan.speeds)):
        for h in sorted(set(E.heights.values())):
            hits = [n for n in ns if n == v * h]
            if hits:
                findings.append(Finding(
                    "BoundaryWarning", "warning",
                    f"shape {j}: level {hits[0]} equals v*h = {v}*{h}",
                    {"shape": j, "height": h, "levels": hits}))
    return findings


def build_nagata_plan(k: int, m: int, s: int):
    """The specialization plan for k^2 fat points of multiplicity m at
    degree d = km+s: k-1 copies of the multiplicity-m staircase slide onto
    the divisor, k-s-2 slowly and s+1 fast, with m levels.

    N = m+1 is the smallest speed base making every floor exact
    (n_i/(N) and n_i/(N+1) land at m-i+1 and m-i for all levels).
    """
    k, m, s = _integer(k, "k", 4), _integer(m, "m", 1), _integer(s, "s")
    if not 0 <= s <= k - 2:
        raise DomainError(f"s must satisfy 0 <= s <= k-2, got {s}")
    N = m + 1
    speeds = (N,) * (k - s - 2) + (N + 1,) * (s + 1)
    levels = tuple((N + 1) * (m - i + 1) - 1 for i in range(1, m + 1))
    shapes = StaircaseTuple([regular(m)] * (k - 1))
    plan = SpecializationPlan(shapes, speeds, levels)
    model = LineSystemModel(
        degree=k * m + s,
        line_base_degrees=tuple(k * (m - i + 1) for i in range(1, m + 1)))
    return plan, model


def slice_degree_table(plan: SpecializationPlan, k: int, m: int, s: int):
    """Per-level slice degrees with the double identity
    sum_j d_j = s+1+(i-1)(k-1) = d-i+2-k(m-i+1), d = km+s."""
    d = k * m + s
    levels = []
    for i in range(1, plan.r + 1):
        degrees = plan.slice_sizes(i)
        total = sum(degrees)
        expected = s + 1 + (i - 1) * (k - 1)
        cross = d - i + 2 - k * (m - i + 1)
        if not (total == expected == cross):
            raise IdentityFailure(
                f"level {i}: slice degrees {degrees} sum to {total}, "
                f"expected {expected} = {cross} (k={k}, m={m}, s={s})")
        levels.append({"i": i, "n": plan.levels[i - 1],
                       "t": list(plan.t_vector(i)),
                       "degrees": list(degrees), "total": total,
                       "expected": expected})
    return {"k": k, "m": m, "s": s, "d": d, "levels": levels, "ok": True}


# ---------------------------------------------------------------------------
# scene materialization (shared by oracle mode and the limit check)
# ---------------------------------------------------------------------------


class _Placed(_Record):
    # divisor: (multiplicity, y) pairs; ambient: (multiplicity, (x, y)) pairs
    __slots__ = ("sliding_ys", "divisor", "ambient")

    def __init__(self, sliding_ys, divisor, ambient):
        super().__init__(sliding_ys, divisor, ambient)


def _require_desk_scale(plan, model, scene):
    """Refuse a plan and scene whose matrices can exceed the desk-scale
    budget.  Every conditions matrix built for them has at most the scene's
    fat-point cells plus the shapes' cells as rows and at most the sections
    of the model degree as columns.  The limit check eliminates the base
    rows once and flat-limits only the sliding rows, on the free columns
    of the base rows; ker B, the only kernel basis it builds, holds up to
    one vector per column, so rows count at least columns."""
    cells = sum(fat_point_degree(M)
                for M in scene.divisor_base + scene.ambient_base)
    ncols = ambient_sections(model.degree)
    require_desk_scale(max(cells + plan.shapes.degree, ncols), ncols)


def _placements(plan, scene, seed, purpose):
    """The endless stream of scene placements a check draws: one sliding y
    per shape, then one y per divisor point, then (x, y) per ambient point,
    all distinct nonzero coordinates mod scene.prime.  Each check seeds its
    own stream with random.Random(f"{seed}:{scene.seed}:{purpose}"), seed
    the check's and purpose one of "hypothesis", "dim-bound" and "limit",
    so that two checks of one scene draw independent placements."""
    p = scene.prime
    need = (len(plan.shapes) + len(scene.divisor_base)
            + 2 * len(scene.ambient_base))
    if need >= p:
        raise PrimeTooSmall(f"prime {p} has fewer than {need} distinct "
                            f"nonzero coordinates for the scene")
    rng = random.Random(f"{seed}:{scene.seed}:{purpose}")
    while True:
        # a dict keeps the first draw of each value, in draw order
        drawn = {}
        while len(drawn) < need:
            drawn.setdefault(rng.randrange(1, p))
        coords = iter(drawn)
        yield _Placed([next(coords) for _ in plan.shapes],
                      [(M, next(coords)) for M in scene.divisor_base],
                      [(M, (next(coords), next(coords)))
                       for M in scene.ambient_base])


def _base_sites(placed, r):
    """Fat-point base conditions after r copies of the divisor are split
    off: divisor points drop to multiplicity M - r, ambient ones stay.
    Sites of one multiplicity share one shape."""
    divisor = [(M - r, (0, w)) for M, w in placed.divisor if M - r > 0]
    points = divisor + placed.ambient
    shape = {M: regular(M) for M in {M for M, _ in points}}
    return [Site(shape[M], pt) for M, pt in points]


def _residual_sites(placed, residual):
    """The nonempty residual shapes at their sliding points on D."""
    return [Site(E, (0, y)) for E, y in zip(residual, placed.sliding_ys)
            if not E.is_empty]


def _residual_system_sites(placed, r, residual):
    """Sites cutting out L(-rD - residual) on the quotient by x^r."""
    return _base_sites(placed, r) + _residual_sites(placed, residual)


def _x_block_columns(d):
    """The degree-d monomials in x-exponent blocks, highest first: x^d,
    ..., x^0, y ascending inside a block.  Blocks x^i and up fill the first
    ambient_sections(d - i) places."""
    return [(a, b) for a in range(d, -1, -1) for b in range(d - a + 1)]


def _system_dim(d, sites, p):
    rows = conditions_matrix(sites, d, p)
    return ambient_sections(d) - rank_mod_p(rows, p)


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


def _level_dims(plan, placed, d, p):
    """(dim_with_z, dim_next) of every level, read off one elimination of
    the degree-d base conditions in x-block column order (the argument is
    in hypothesis_check)."""
    echelon, pivots = echelon_mod_p(
        conditions_matrix(_base_sites(placed, 0), d, p, _x_block_columns(d)),
        p)
    dims = []
    for i in range(1, plan.r + 1):
        e = d - i + 1
        # block x^(i-1) holds places lo..hi-1, blocks x^i and up those below
        lo, hi = ambient_sections(e - 1), ambient_sections(e)
        above, within = bisect_left(pivots, lo), bisect_left(pivots, hi)
        # Z_i is the line scheme (x, y^n) at (0, y), n the slice size
        z_sites = [Site(Staircase(2, {(b,): 1 for b in range(n)}), (0, y))
                   for n, y in zip(plan.slice_sizes(i), placed.sliding_ys)
                   if n]
        # Z_i's rows vanish off the x^0 columns, which x^(i-1) carries onto
        # block x^(i-1) in the same order
        z_rows = conditions_matrix(z_sites, e, p,
                                   [(0, j) for j in range(e + 1)])
        block = [row[lo:hi] for row in echelon[above:within]]
        dims.append((hi - above - rank_mod_p(block + z_rows, p), lo - above))
    return dims


def hypothesis_check(plan: SpecializationPlan, model: LineSystemModel,
                     mode: str = "degree-count", scene: OracleScene | None = None,
                     trials: int = 2, seed: int = 0):
    """Per-level transparency verdicts: vanishing on Z_i forces one more
    vanishing on D.

    degree-count mode is pure arithmetic: deg(Z_i on D) must reach the
    degree of the restricted system on D minus the base conditions already
    there, plus one.  oracle mode compares exactly at desk scale (needs a
    scene), at level i and e = d - i + 1, dim_with_z = dim L_e(base_(i-1)
    + Z_i) with dim_next = dim L_(e-1)(base_i), each the least over trials;
    base_r is the scene with r copies of D split off.

    trials bounds the number of trials drawn: they stop once every level
    reads (f_i, f_i), f_i = max(0, ambient_sections(d - i) - deg base_i),
    since no later trial can go lower.  For every placement dim_with_z >=
    dim_next, because multiplying by x embeds L_(e-1)(base_i) in
    L_e(base_(i-1) + Z_i) (below, their difference is e + 1 minus the rank
    of a matrix with e + 1 columns), and dim_next >= f_i, because base_i
    imposes at most deg base_i conditions.  So the least dimensions, and
    the verdicts, are those of all trials.

    One elimination per trial gives every level.  At a point of D,
    ord(x^i g) = i + ord(g), and x is a unit at the ambient points, so g
    lies in L_(d-i)(base_i) exactly when x^i g lies in L_d(base_0).  The
    degree-d conditions of base_0 are eliminated once with the columns in
    x-exponent blocks, highest first.  Blocks x^i and up are the multiples
    of x^i, the first ambient_sections(d - i) columns, and their pivots
    count the rank there (the column rank profile): dim_next is
    ambient_sections(d - i) minus them.  The slices Z_i sit at (0, y), so
    their rows live on the x^0 columns, which multiplying by x^(i-1)
    carries onto block x^(i-1).  On blocks x^(i-1) and up the echelon is
    block upper triangular, so dim_with_z is ambient_sections(e) minus the
    pivots in blocks x^i and up minus the rank of the echelon rows pivoted
    in block x^(i-1), cut to that block, stacked on the Z_i rows.
    """
    if mode not in ("degree-count", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    trials = _integer(trials, "trials", 1)
    verdicts = []
    if mode == "degree-count":
        if len(model.line_base_degrees) < plan.r:
            raise ValueError("model must carry one base degree per level")
        for i in range(1, plan.r + 1):
            z = plan.z_degree(i)
            restricted = model.degree - (i - 1)
            base = model.line_base_degrees[i - 1]
            need = restricted - base + 1
            verdicts.append({
                "level": i, "mode": mode, "ok": z >= need,
                "z_degree": z, "restricted_degree": restricted,
                "base_degree": base, "needed": need,
            })
        return verdicts
    if scene is None:
        raise ValueError("oracle mode needs a scene")
    _require_desk_scale(plan, model, scene)
    placements = _placements(plan, scene, seed, "hypothesis")
    floors = []
    for i in range(1, plan.r + 1):
        conditions = (sum(fat_point_degree(M - i)
                          for M in scene.divisor_base if M > i)
                      + sum(fat_point_degree(M) for M in scene.ambient_base))
        f = max(0, ambient_sections(model.degree - i) - conditions)
        floors.append((f, f))
    least = None
    for _ in range(trials):
        dims = _level_dims(plan, next(placements), model.degree, scene.prime)
        least = dims if least is None else [
            (min(a, a2), min(b, b2)) for (a, b), (a2, b2) in zip(least, dims)]
        if least == floors:
            break
    for i, (a, b) in enumerate(least, 1):
        verdicts.append({"level": i, "mode": mode, "ok": a == b,
                         "dim_with_z": a, "dim_next": b})
    return verdicts


# ---------------------------------------------------------------------------
# theorem application
# ---------------------------------------------------------------------------


class ResidualCertificate(_Record):
    __slots__ = ("plan", "model", "r", "residual", "residual_algebraic",
                 "verdicts", "findings", "bookkeeping", "dim_bound")

    def __init__(self, plan, model, r, residual, residual_algebraic, verdicts,
                 findings, bookkeeping, dim_bound):
        super().__init__(plan, model, r, residual, residual_algebraic,
                         verdicts, findings, bookkeeping, dim_bound)

    def to_json(self):
        return {
            "plan": self.plan.to_json(),
            "model": self.model.to_json(),
            "r": self.r,
            "residual": [E.to_json() for E in self.residual],
            "residual_algebraic": (
                None if self.residual_algebraic is None
                else [E.to_json() for E in self.residual_algebraic]),
            "verdicts": self.verdicts,
            "findings": [f.to_json() for f in self.findings],
            "bookkeeping": self.bookkeeping,
            "dim_bound": self.dim_bound,
        }


def apply_theorem(plan: SpecializationPlan, model: LineSystemModel,
                  mode: str = "degree-count", scene: OracleScene | None = None,
                  allow_boundary: bool = False, trials: int = 2,
                  seed: int = 0) -> ResidualCertificate:
    """Produce the residual certificate: all hypotheses must hold.

    The certificate stores every intermediate number (levels, slice degrees,
    verdicts, residuals, degree bookkeeping) so it can be replayed without
    the library.  Boundary plans are refused unless allow_boundary is set;
    in that case both the combinatorial and the algebraic residual are
    recorded.
    """
    if scene is not None:
        _require_desk_scale(plan, model, scene)
    findings = validate_plan(plan)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise HypothesisFailed("; ".join(f.message for f in errors))
    boundary = [f for f in findings if f.code == "BoundaryWarning"]
    if boundary and not allow_boundary:
        raise HypothesisFailed(
            "unresolved boundary levels (n = v*h); pass allow_boundary=True "
            "to record both residual readings")
    verdicts = hypothesis_check(plan, model, mode, scene, trials, seed)
    bad = [v for v in verdicts if not v["ok"]]
    if bad:
        raise HypothesisFailed(
            f"hypothesis fails at levels {[v['level'] for v in bad]}")
    r = plan.r
    residual = plan.residual_tuple()
    residual_alg = plan.algebraic_residual_tuple() if boundary else None
    deg_e = plan.shapes.degree
    z_total = sum(plan.z_degree(i) for i in range(1, r + 1))
    deg_res = residual.degree
    if deg_e != deg_res + z_total:
        raise IdentityFailure(
            f"degree bookkeeping broken: deg E = {deg_e}, residual {deg_res} "
            f"+ slices {z_total}")
    bookkeeping = {"deg_shapes": deg_e, "deg_residual": deg_res,
                   "z_degrees": [plan.z_degree(i) for i in range(1, r + 1)],
                   "conserved": True}
    dim_bound = {"degree": model.degree - r,
                 "ambient_sections": ambient_sections(model.degree - r),
                 "oracle": None}
    if scene is not None:
        placed = next(_placements(plan, scene, seed, "dim-bound"))
        dim_bound["oracle"] = _system_dim(
            model.degree - r, _residual_system_sites(placed, r, residual),
            scene.prime)
    return ResidualCertificate(plan, model, r, residual, residual_alg,
                               verdicts, findings, bookkeeping, dim_bound)


# ---------------------------------------------------------------------------
# direct limit verification at desk scale
# ---------------------------------------------------------------------------


def limit_inclusion_check(plan: SpecializationPlan, model: LineSystemModel,
                          scene: OracleScene, seed: int = 0,
                          residual_override: StaircaseTuple | None = None,
                          r_override: int | None = None):
    """Take the flat limit of the moving system ker A(t) and test
    containment in the span of L(-rD - residual).

    Flat limits commute with orthogonal complements, so lim ker A(t) is the
    annihilator of the limit of A(t)'s row space.  The rows of A(t) are the
    base rows B, fixed in t, and the sliding rows S(t): the Horace split of
    fixed and specialised conditions (Ciliberto and Miranda, "Degenerations
    of planar linear systems", J. reine angew. Math. 501, 1998).  B lies in
    every row space, so with pi the quotient by rowspace(B), lim A(t) =
    pi^-1(lim pi S(t)), and the limit system is the part of K = ker B =
    L(-base) that the limit of pi S(t) annihilates.

    One elimination of B over F_p, with the columns in x-exponent blocks,
    highest first, gives its free columns.  That order leaves the free
    columns in the low x-blocks, where the flat limit of the projected
    rows measured cheaper than with the total-degree order.  reduced_kernel
    reads off it a basis of K, one vector per free column and a unit there.
    As the rows of a matrix K, pi S(t) = S(t) K^T in free coordinates: the
    image of a column is that column of K.  The t^e layer of a sliding row
    is its x^i block, e = v(i - a), so one packed product per layer
    projects it.  Only these rows go through flat_limit; the limit system
    is the kernel of its limit rows L, in free coordinates.  The target
    x^r L_(d-r)(base_r + residual) is cut out of K by rows there, for any
    r and residual: at a divisor point ord(x^r h) = r + ord(h), and x is a
    unit at the ambient points, so the multiples of x^r in K are exactly
    x^r L_(d-r)(base_r).  In x-block order they fill the first n =
    ambient_sections(d - r) places, h's columns in order.  So the rows are
    K's columns past n, and the residual's conditions on h times K's first
    n columns.  Containment is rank(L + rows) = len(L), and the moving
    system has dimension len(free) minus the rank of pi S(t) over F_p(t).

    Returns (contained, details).  residual_override and r_override
    substitute a corrupted residual claim (negative controls: one extra
    suppression must come with one extra divisor copy, otherwise the
    corrupted target only grows).  A residual_override needs one shape
    per sliding shape of the plan, else LengthMismatch; an r_override must
    be an integer >= 0."""
    if scene is None:
        raise ValueError("the limit check needs a scene")
    if r_override is not None:
        r_override = _integer(r_override, "r_override", 0)
    if residual_override is not None and \
            len(residual_override) != len(plan.shapes):
        raise LengthMismatch(
            f"residual_override has {len(residual_override)} shapes, "
            f"the plan slides {len(plan.shapes)}")
    _require_desk_scale(plan, model, scene)
    d = model.degree
    p = scene.prime
    placed = next(_placements(plan, scene, seed, "limit"))
    cols = _x_block_columns(d)
    rref, pivots = rref_mod_p(
        conditions_matrix(_base_sites(placed, 0), d, p, cols), p)
    free = sorted(set(range(len(cols))) - set(pivots))
    free_mons = [cols[col] for col in free]
    # the image of each column mod rowspace(B), packed over the free slots;
    # a slot sums at most len(cols) products: one per column of a layer's
    # block, which holds places lo..hi-1, or of the target's first n places
    w = _slot_width(len(cols), p)
    mask = (1 << w) - 1
    kernel = reduced_kernel(rref, pivots, len(cols), p)
    columns = list(zip(*kernel))
    image = [_pack(column, w, p) for column in columns]

    # sliding rows of pi S(t) as {(free monomial, t-exponent): c}
    rows = []
    for E, v, y in zip(plan.shapes, plan.speeds, placed.sliding_ys):
        # the site sits at (t^v, y): its identity-frame rows at (1, y),
        # with the x-power t^(v(i-a)) put back as a shift in t
        site_rows = conditions_matrix([Site(E, (1, y))], d, p, cols)
        for (a, _b), row in zip(E.cells(), site_rows):
            vec = {}
            for i in range(a, d + 1):
                lo, hi = ambient_sections(d - i - 1), ambient_sections(d - i)
                x = sum(map(mul, row[lo:hi], image[lo:hi]))
                e = v * (i - a)
                for mon in free_mons:
                    if c := (x & mask) % p:
                        vec[(mon, e)] = c
                    x >>= w
            rows.append(vec)
    ctx = RingContext(dim=2, prime=p, x_cap=max(d, 1))
    row_limit = flat_limit(rows, ctx)
    limit = [[row.get((mon, 0), 0) for mon in free_mons]
             for row in row_limit.rows.values()]

    r = plan.r if r_override is None else r_override
    residual = residual_override if residual_override is not None \
        else plan.residual_tuple()
    # the target's rows: g vanishes past n, and g / x^r meets the residual
    n = ambient_sections(d - r)
    target = columns[n:]
    for row in conditions_matrix(_residual_sites(placed, residual), d - r,
                                 p, _x_block_columns(d - r)):
        x = sum(map(mul, row, image[:n]))
        target.append([(x >> s & mask) % p
                       for s in range(0, w * len(free), w)])

    contained = rank_mod_p(limit + target, p) == len(limit)
    details = {
        "dim_moving": len(free) - row_limit.dimension(),
        "dim_limit": len(free) - len(limit),
        "dim_target": len(free) - rank_mod_p(target, p),
        "r": r,
        "residual": [E.to_json() for E in residual],
        "contained": contained,
    }
    return contained, details


# ---------------------------------------------------------------------------
# the recursive certificate
# ---------------------------------------------------------------------------


def nagata_certificate(k: int, m: int, seed: int = 0,
                       prime: int = DEFAULT_PRIME) -> dict:
    """Replayable certificate chain k -> k-1 -> ... -> 3 for the statement
    that k^2 generic fat points of multiplicity m impose the virtually
    expected conditions.

    For each stage j >= 4 and each of the two critical degrees of the
    j-stage scheme, the certificate records the plan, the slice-degree
    identities, the hypothesis verdicts, the residual (both readings at
    boundary levels) and the codimension bookkeeping.  The base case
    (at most 9 equal fat points) is recorded as assumed-known, and is
    replayed by the interpolation oracle whenever its conditions matrix is
    within the desk-scale budget; a refusal is recorded with its reason.
    """
    k, m = _integer(k, "k", 2), _integer(m, "m", 1)
    require_prime(prime)
    plans = []
    identities = {"bookkeeping": True, "slice_degrees": True,
                  "line_absorption": True, "critical_bounds": True}
    top_deg = k * k * fat_point_degree(m)
    top_dc = critical_degree(top_deg)
    for j in range(k, 3, -1):
        deg_j = j * j * fat_point_degree(m)
        d_c = critical_degree(deg_j)
        if not (j * m + 1 <= d_c <= j * m + j - 2):
            identities["critical_bounds"] = False
        for d in (d_c - 1, d_c):
            s = d - j * m
            if not 0 <= s <= j - 2:
                raise IdentityFailure(
                    f"critical degree {d} leaves s={s} outside [0, {j - 2}] "
                    f"at stage k={j}")
            plan, model = build_nagata_plan(j, m, s)
            table = slice_degree_table(plan, j, m, s)
            cert = apply_theorem(plan, model, allow_boundary=True, seed=seed)
            cert_json = cert.to_json()
            bk = bookkeeping_identity(j, m, s)
            if not bk:
                identities["bookkeeping"] = False
            line_deg = (j - s - 2) * m
            absorb = line_deg <= critical_degree(
                (j - 1) * (j - 1) * fat_point_degree(m))
            if not absorb:
                identities["line_absorption"] = False
            plans.append({
                "k": j,
                "d": d,
                "s": s,
                "v": list(plan.speeds),
                "levels": list(plan.levels),
                "slice_degrees": table["levels"],
                "verdicts": cert_json["verdicts"],
                "residual": cert_json["residual"],
                "residual_algebraic": cert_json["residual_algebraic"],
                "boundary_levels": [f for f in cert_json["findings"]
                                    if f["code"] == "BoundaryWarning"],
                "bookkeeping": cert_json["bookkeeping"],
                "identities": {"slice_degrees": True, "bookkeeping": bk,
                               "line_absorption": absorb,
                               "line_degree": line_deg},
            })
    base = {"k": min(k, 3), "m": m, "status": "assumed-known",
            "note": ("unions of at most 9 equal fat points impose "
                     "independent conditions in every degree")}
    try:
        report = verify_nagata_theorem(min(k, 3), m, trials=2, seed=seed,
                                       prime=prime)
    except OracleResourceLimit as exc:
        base["oracle_replay"] = {"refused": str(exc)}
    else:
        base["oracle_replay"] = {"pass": report.passed,
                                 "d_max": report.d_max}
    return {
        "k": k,
        "m": m,
        "d": [top_dc - 1, top_dc],
        "plans": plans,
        "base_case": base,
        "identities": identities,
        "seed": seed,
        "prime": prime,
    }
