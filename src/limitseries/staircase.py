"""Staircases: finite order ideals of N^d described by height functions.

A staircase E in N^d is stored through its height function h on N^{d-1}:
the cell (a_1, ..., a_d) belongs to E exactly when a_1 < h(a_2, ..., a_d).
Heights must be non-increasing under coordinatewise increase of the base
exponent, and only finitely many may be positive.  All values are immutable
after construction.
"""

from __future__ import annotations

from itertools import product
from operator import index

from .errors import DomainError, LengthMismatch, MonotonicityViolation


def _integer(value, what, least=None):
    """value as an int through operator.index; a float or any other
    non-integral value raises ValueError naming what, and a value below
    least (when given) raises DomainError, itself a ValueError."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    return value


def _integers(values, what, least=None):
    """The tuple of _integer(v, what, least) over values."""
    return tuple(_integer(v, what, least) for v in values)


class _Value:
    """An immutable value whose __slots__ name the parameters of __init__,
    in order: equality, hash and a dataclass-style repr over them,
    assignment refused, and copy and pickle rebuilt through __init__."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self.__class__, self._values()


class _Record(_Value):
    """A _Value whose fields can be reassigned; unhashable."""

    __slots__ = ()
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def _json_int(value, what):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class Staircase(_Value):
    """A finite staircase of N^d, d >= 1."""

    __slots__ = ("dim", "heights")

    def __init__(self, dim: int, heights: dict):
        dim = _integer(dim, "dim", 1)
        clean = {}
        for key, h in heights.items():
            key = _integers(key, "height key")
            if len(key) != dim - 1:
                raise ValueError(f"height key {key} has wrong arity for dim {dim}")
            if any(k < 0 for k in key):
                raise ValueError(f"negative exponent in height key {key}")
            h = _integer(h, "height", 0)
            if h > 0:
                clean[key] = h
        _validate_monotone(clean)
        super().__init__(dim, clean)

    # -- basic queries ------------------------------------------------------

    def height(self, key) -> int:
        return self.heights.get(tuple(key), 0)

    @property
    def degree(self) -> int:
        return sum(self.heights.values())

    @property
    def is_empty(self) -> bool:
        return not self.heights

    @property
    def max_height(self) -> int:
        return max(self.heights.values(), default=0)

    def cells(self):
        """All cells of E as d-tuples, sorted."""
        out = []
        for key in sorted(self.heights):
            h = self.heights[key]
            out.extend((a,) + key for a in range(h))
        return sorted(out)

    def contains(self, cell) -> bool:
        cell = tuple(cell)
        if len(cell) != self.dim:
            raise ValueError("cell arity mismatch")
        return 0 <= cell[0] < self.height(cell[1:])

    def max_cell_degree(self) -> int:
        """Largest total degree of a cell; -1 for the empty staircase."""
        best = -1
        for key, h in self.heights.items():
            best = max(best, h - 1 + sum(key))
        return best

    # -- slice / suppression -------------------------------------------------

    def slice(self, k: int) -> "Staircase":
        """The k-th slice T(E, k) as a staircase of dimension d-1.

        Its cells are the base exponents a with h(a) > k; for d = 2 this is
        an initial segment of N reported as a length.
        """
        if self.dim < 2:
            raise ValueError("slice needs dim >= 2")
        k = _integer(k, "slice index", 0)
        new_heights: dict = {}
        for key, h in self.heights.items():
            if h > k:
                tail = key[1:]
                new_heights[tail] = max(new_heights.get(tail, 0), key[0] + 1)
        return Staircase(self.dim - 1, new_heights)

    def slice_size(self, k: int) -> int:
        """Number of cells of the k-th slice."""
        k = _integer(k, "slice index", 0)
        return sum(1 for h in self.heights.values() if h > k)

    def suppress(self, t: int) -> "Staircase":
        """S(E, t): decrement every height exceeding t."""
        t = _integer(t, "suppression index", 0)
        new_heights = {}
        for key, h in self.heights.items():
            new_heights[key] = h - 1 if t < h else h
        return Staircase(self.dim, new_heights)

    def row_lengths(self):
        """Cells per x_1-level: [#slice(E,0), #slice(E,1), ...] (d=2 view)."""
        out = []
        k = 0
        while True:
            n = self.slice_size(k)
            if n == 0:
                return out
            out.append(n)
            k += 1

    # -- ideal-side helpers ---------------------------------------------------

    def complement_generators(self):
        """Minimal exponents of the complement (minimal generators of I^E)."""
        d = self.dim
        extents = [0] * (d - 1)
        for key in self.heights:
            for i, k in enumerate(key):
                extents[i] = max(extents[i], k + 1)
        gens = []
        for rest in product(*(range(e + 1) for e in extents)):
            a1 = self.height(rest)
            ok = True
            for i in range(d - 1):
                if rest[i] > 0:
                    below = rest[:i] + (rest[i] - 1,) + rest[i + 1:]
                    if a1 >= self.height(below):
                        ok = False
                        break
            if ok:
                gens.append((a1,) + rest)
        return sorted(gens)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        if self.dim == 2:
            hs = [[key[0], h] for key, h in sorted(self.heights.items())]
        else:
            hs = [[list(key), h] for key, h in sorted(self.heights.items())]
        return {"dim": self.dim, "heights": hs}

    @classmethod
    def from_json(cls, data) -> "Staircase":
        """Read to_json's form.  A number with a zero fraction reads as an
        integer, as draft-07 counts it; a missing or malformed field and any
        other non-integral dim, key or height raise ValueError naming it.
        data is parsed JSON: a string is not an object."""
        if not isinstance(data, dict):
            raise ValueError(f"staircase must be an object, got {data!r}")
        for field in ("dim", "heights"):
            if field not in data:
                raise ValueError(f"staircase needs a {field!r} field")
        dim = _json_int(data["dim"], "dim")
        if not isinstance(data["heights"], (list, tuple)):
            raise ValueError("heights must be a list of [key, height] pairs, "
                             f"got {data['heights']!r}")
        heights = {}
        for pair in data["heights"]:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(
                    f"heights entry must be a [key, height] pair, got {pair!r}")
            key, h = pair
            if not isinstance(key, (list, tuple)):
                key = (key,)
            key = tuple(_json_int(k, "height key") for k in key)
            heights[key] = _json_int(h, "height")
        return cls(dim, heights)

    def to_text(self) -> str:
        """One line per base index, "index:height", sorted (d=2)."""
        if self.dim != 2:
            raise ValueError("text format is for d=2 staircases")
        return "\n".join(f"{key[0]}:{h}" for key, h in sorted(self.heights.items()))

    @classmethod
    def from_text(cls, text: str) -> "Staircase":
        """Read to_text's form; a malformed line or repeated index raises."""
        heights = {}
        for num, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                idx, h = (int(v) for v in line.split(":"))
            except ValueError:
                raise ValueError(f"line {num}: expected index:height, "
                                 f"got {line.strip()!r}") from None
            if (idx,) in heights:
                raise ValueError(f"line {num}: index {idx} repeated")
            heights[(idx,)] = h
        return cls(2, heights)

    def ascii_grid(self) -> str:
        """Cell picture for d=2: one row per x_2 value, top row largest."""
        if self.dim != 2:
            raise ValueError("ascii grid is for d=2 staircases")
        if not self.heights:
            return "(empty)"
        ymax = max(k[0] for k in self.heights)
        lines = []
        for y in range(ymax, -1, -1):
            lines.append("#" * self.height((y,)))
        return "\n".join(lines)

    # -- dunder ----------------------------------------------------------------

    def __hash__(self):  # heights is a dict
        return hash((self.dim, tuple(sorted(self.heights.items()))))

    def __repr__(self):
        if self.dim == 2:
            hs = ",".join(str(self.height((y,)))
                          for y in range(max((k[0] + 1 for k in self.heights), default=0)))
            return f"Staircase(d=2, heights=[{hs}])"
        return f"Staircase(d={self.dim}, heights={dict(sorted(self.heights.items()))})"


def _validate_monotone(heights: dict):
    """h(a+b) <= h(a) for all a, b; equivalently h non-increasing along
    each coordinate step, including steps leaving the support."""
    for key, h in heights.items():
        for i, k in enumerate(key):
            if k > 0:
                below = key[:i] + (k - 1,) + key[i + 1:]
                if heights.get(below, 0) < h:
                    raise MonotonicityViolation(
                        f"height {h} at {key} exceeds height "
                        f"{heights.get(below, 0)} at {below}")


def make_staircase(heights, dim: int | None = None) -> Staircase:
    """Build a staircase from flexible height data.

    Accepts an int (d=1 length), a sequence of heights indexed by the base
    exponent (d=2), or a map from base exponents (ints or tuples) to heights.
    """
    if isinstance(heights, Staircase):
        return heights
    if isinstance(heights, int):
        return Staircase(1, {(): heights} if heights else {})
    if isinstance(heights, dict):
        norm = {}
        key_dim = None
        for key, h in heights.items():
            if isinstance(key, int):
                key = (key,)
            key = tuple(key)
            if key_dim is None:
                key_dim = len(key)
            norm[key] = h
        if dim is None:
            dim = (key_dim if key_dim is not None else 1) + 1
        return Staircase(dim, norm)
    seq = list(heights)
    return Staircase(2, {(i,): h for i, h in enumerate(seq)})


def regular(m: int) -> Staircase:
    """R_m: the plane staircase of cells with x + y < m, degree m(m+1)/2."""
    m = _integer(m, "m", 0)
    return Staircase(2, {(y,): m - y for y in range(m)})


def f_staircase(m: int) -> Staircase:
    """The doubled staircase F_m with h(y) = h_{R_m}(floor(y/2))."""
    m = _integer(m, "m", 0)
    return Staircase(2, {(y,): m - y // 2 for y in range(2 * m) if m - y // 2 > 0})


def suppress_seq(E: Staircase, ts) -> Staircase:
    """Left fold of suppress over the list ts."""
    for t in ts:
        E = E.suppress(t)
    return E


class StaircaseTuple(_Value):
    """A nonempty ordered tuple of staircases of the same dimension."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("staircase tuple must be nonempty")
        dims = {E.dim for E in entries}
        if len(dims) != 1:
            raise ValueError("staircase tuple entries must share a dimension")
        super().__init__(entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def dim(self):
        return self.entries[0].dim

    @property
    def degree(self):
        return sum(E.degree for E in self.entries)

    def __repr__(self):
        return f"StaircaseTuple({list(self.entries)!r})"


def _check_lengths(Es, ts):
    if len(ts) != len(Es):
        raise LengthMismatch(
            f"{len(Es)} staircases but {len(ts)} indices")


def slice_tuple(Es: StaircaseTuple, ts) -> StaircaseTuple:
    """T(E, t) componentwise."""
    Es = StaircaseTuple(Es) if not isinstance(Es, StaircaseTuple) else Es
    _check_lengths(Es, ts)
    return StaircaseTuple(E.slice(t) for E, t in zip(Es, ts))


def suppress_tuple(Es: StaircaseTuple, ts) -> StaircaseTuple:
    """S(E, t) componentwise."""
    Es = StaircaseTuple(Es) if not isinstance(Es, StaircaseTuple) else Es
    _check_lengths(Es, ts)
    return StaircaseTuple(E.suppress(t) for E, t in zip(Es, ts))


def is_quasi_regular(E: Staircase):
    """Whether R_m <= E <= R_{m+1} for some m; returns (bool, smallest m).

    The chain R_m <= E gets harder as m grows and E <= R_{m+1} gets easier,
    so the valid m form an interval and the smallest witness is well defined.
    """
    if E.dim != 2:
        raise ValueError("quasi-regularity is a d=2 predicate")
    if E.is_empty:
        return True, 0
    m_low = E.max_cell_degree()  # E <= R_{m+1} iff m >= max cell degree
    m_high = 0
    while _regular_contained(E, m_high + 1):
        m_high += 1
    if m_low <= m_high:
        return True, m_low
    return False, None


def _regular_contained(E: Staircase, m: int) -> bool:
    """R_m <= E."""
    return all(E.height((y,)) >= m - y for y in range(m))


def is_right_specialized(E: Staircase) -> bool:
    """Whether every cell (x, y) with y > 0 has (x+1, y-1) in E.

    Equivalent to the positive heights being strictly decreasing.
    """
    if E.dim != 2:
        raise ValueError("right-specialization is a d=2 predicate")
    for (y,), h in E.heights.items():
        if y > 0 and E.height((y - 1,)) < h + 1:
            return False
    return True


def vertical_collision(E: Staircase, F: Staircase) -> Staircase:
    """Collision of two plane staircases translated along the x_2 axis.

    Row lengths add: the result G has #slice(G,a) = #slice(E,a) + #slice(F,a)
    for every x_1-level a.  Validated against the flat-limit oracle in tests.
    """
    if E.dim != 2 or F.dim != 2:
        raise ValueError("vertical collision is a d=2 operation")
    re = E.row_lengths()
    rf = F.row_lengths()
    n = max(len(re), len(rf))
    rows = [(re[a] if a < len(re) else 0) + (rf[a] if a < len(rf) else 0)
            for a in range(n)]
    heights = {}
    for y in range(rows[0] if rows else 0):
        heights[(y,)] = sum(1 for r in rows if r > y)
    return Staircase(2, heights)
