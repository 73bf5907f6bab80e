"""A third, fully independent route for tiny residual chains.

The production chain stores one canonical module per x_2..x_d exponent.
Here the whole span lives in a single dense F_p vector space over the flat
(x-monomial, t-exponent) coordinate basis, truncation drops coordinates,
and the colon is solved through kernels and double annihilators only.
Agreement on these instances rules out a blind spot shared by the graded
organization and the closed form.
"""

import warnings
from itertools import product
from math import comb

import pytest

from limitseries.errors import BoundaryWarning
from limitseries.linalg import kernel_mod_p, rank_mod_p, rref_mod_p
from limitseries.localring import chain_context, residual_chain
from limitseries.staircase import Staircase, make_staircase, regular

P = 10007


def _monomials(dim, cap):
    if dim == 1:
        return [(a,) for a in range(cap + 1)]
    out = []
    for head in range(cap + 1):
        for tail in _monomials(dim - 1, cap - head):
            out.append((head,) + tail)
    return sorted(out)


class DenseChain:
    def __init__(self, E, v, ns, cap, p):
        self.p = p
        self.cap = cap
        self.dim = E.dim
        self.n = ns[0]
        self.coords = self._coords()
        rows = []
        for c in E.complement_generators():
            gen = {}
            for l in range(c[0] + 1):
                te = v * (c[0] - l)
                if te < self.n:
                    key = ((l,) + tuple(c[1:]), te)
                    gen[key] = comb(c[0], l) * (-1) ** (c[0] - l) % p
            gdeg = sum(c)
            for mult in _monomials(self.dim, cap - gdeg):
                for b in range(self.n):
                    row = [0] * len(self.coords)
                    ok = False
                    for (a, te), cv in gen.items():
                        te2 = te + b
                        if te2 < self.n:
                            key = (tuple(x + y for x, y in zip(a, mult)), te2)
                            row[self.index[key]] = cv
                            ok = True
                    if ok and any(row):
                        rows.append(row)
        self.rows = rref_mod_p(rows, p)[0]
        for n in ns:
            self.truncate(n)
            self.colon()

    def _coords(self):
        coords = [(a, te) for a in _monomials(self.dim, self.cap)
                  for te in range(self.n)]
        self.index = {key: i for i, key in enumerate(coords)}
        return coords

    def truncate(self, n_to):
        keep = [i for i, (a, te) in enumerate(self.coords) if te < n_to]
        self.n = n_to
        old = self.coords
        self.coords = [old[i] for i in keep]
        self.index = {key: i for i, key in enumerate(self.coords)}
        self.rows = rref_mod_p([[row[i] for i in keep] for row in self.rows],
                               self.p)[0]
        self.rows = [r for r in self.rows if any(r)]

    def colon(self):
        # {f of degree <= cap-1 : x_1 f in span}: the span is the double
        # annihilator of its kernel, so the condition is linear in f
        p = self.p
        ncols = len(self.coords)
        perp = kernel_mod_p(self.rows, ncols, p) if self.rows else \
            [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
        self.cap -= 1
        small = [(a, te) for a in _monomials(self.dim, self.cap)
                 for te in range(self.n)]
        conditions = []
        for w in perp:
            row = []
            for (a, te) in small:
                shifted = ((a[0] + 1,) + a[1:], te)
                row.append(w[self.index[shifted]])
            conditions.append(row)
        basis = kernel_mod_p(conditions, len(small), p) if conditions else \
            [[1 if i == j else 0 for i in range(len(small))]
             for j in range(len(small))]
        self.coords = small
        self.index = {key: i for i, key in enumerate(small)}
        self.rows = rref_mod_p(basis, p)[0]
        self.rows = [r for r in self.rows if any(r)]

    def dimension(self):
        return len(self.rows)

    def contains(self, vec_terms):
        row = [0] * len(self.coords)
        for key, cv in vec_terms.items():
            if key not in self.index:
                return False
            row[self.index[key]] = cv % self.p
        return rank_mod_p(self.rows + [row], self.p) == len(self.rows)


INSTANCES = [
    (make_staircase(2), 1, [3]),          # d=1 pair of cells
    (make_staircase(3), 2, [4, 2]),       # d=1, two levels
    (make_staircase({0: 2}), 2, [3]),     # d=2 bar
    (regular(2), 1, [3]),                 # d=2 double point
    (regular(2), 2, [5, 3]),              # d=2, two levels
    (make_staircase([2, 1]), 3, [4]),
    (Staircase(3, {(0, 0): 2, (1, 0): 1, (0, 1): 1}), 1, [2]),  # d=3
    (regular(2), 1, [3, 2]),              # d=2 double point, two levels
]


@pytest.mark.parametrize("E,v,ns", INSTANCES)
def test_dense_route_agrees(E, v, ns):
    ctx = chain_context(E, v, ns, prime=P)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        space = residual_chain(E, v, ns, ctx)
    dense = DenseChain(E, v, ns, ctx.x_cap, P)
    assert dense.dimension() == space.dimension()
    for el in space.basis():
        assert dense.contains(el.terms)
