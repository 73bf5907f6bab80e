"""Span recorder that traces the library from outside.

While a Tracer is installed, every traced public function is replaced, in
every limitseries module that binds it, by a wrapper that records a span
(name, start, end, parent span, item id) and the function's work counts.
Nothing under src/ changes; uninstalling restores the original objects.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

import limitseries  # noqa: F401  (loads every module the tracer patches)

BOOKKEEPING = "trace.bookkeeping"


# work counters: (counts, metric prefix, bound arguments, return value)

def _count_conditions(counts, name, a, out):
    counts[name + ".entries"] += sum(len(row) for row in out)


def _count_rank(counts, name, a, out):
    rows, p = a["rows"], a["p"]
    counts[name + ".entries"] += sum(len(row) for row in rows)
    counts[name + ".rank"] += out
    counts[name + ".nonzero_rows"] += sum(1 for row in rows
                                          if any(v % p for v in row))


def _count_kernel_fpt(counts, name, a, out):
    counts[name + ".entries"] += len(a["rows"]) * a["ncols"]
    tdeg = max((len(poly) - 1 for vec in out for poly in vec), default=0)
    counts[name + ".max_tdeg_out"] = max(counts[name + ".max_tdeg_out"], tdeg)


def _count_from_rows(counts, name, a, out):
    counts[name + ".rows_in"] += len(a["gen_rows"])
    counts[name + ".rows_out"] += len(out.rows)


def _count_flat_limit(counts, name, a, out):
    counts[name + ".vectors_in"] += len(a["family"])
    counts[name + ".dim_out"] += out.dimension()


# metric prefix -> (module, attribute path, work counter or None)
TRACED = {
    "interp.conditions_matrix":
        ("limitseries.interp", "conditions_matrix", _count_conditions),
    "interp.hilbert_function_of":
        ("limitseries.interp", "hilbert_function_of", None),
    "interp.verify_nagata_theorem":
        ("limitseries.interp", "verify_nagata_theorem", None),
    "linalg.rank_mod_p": ("limitseries.linalg", "rank_mod_p", _count_rank),
    "linalg.kernel_mod_p": ("limitseries.linalg", "kernel_mod_p", None),
    "linalg.kernel_over_fpt":
        ("limitseries.linalg", "kernel_over_fpt", _count_kernel_fpt),
    "localring.TModule.from_rows":
        ("limitseries.localring", "TModule.from_rows", _count_from_rows),
    "localring.residual_chain":
        ("limitseries.localring", "residual_chain", None),
    "localring.closed_form_span":
        ("limitseries.localring", "closed_form_span", None),
    "localring.special_fiber":
        ("limitseries.localring", "special_fiber", None),
    "localring.FamilyIdeal.span":
        ("limitseries.localring", "FamilyIdeal.span", None),
    "localring.MonomialSpace.__eq__":
        ("limitseries.localring", "MonomialSpace.__eq__", None),
    "localring.MonomialSpace.from_elements":
        ("limitseries.localring", "MonomialSpace.from_elements", None),
    "localring.MonomialSpace.contains":
        ("limitseries.localring", "MonomialSpace.contains", None),
    "localring.flat_limit":
        ("limitseries.localring", "flat_limit", _count_flat_limit),
    "horace.limit_inclusion_check":
        ("limitseries.horace", "limit_inclusion_check", None),
    "horace.hypothesis_check":
        ("limitseries.horace", "hypothesis_check", None),
    "horace.apply_theorem": ("limitseries.horace", "apply_theorem", None),
}


class Tracer:
    """Records spans in memory while installed (use as a context manager).

    spans holds [name, start, end, parent index or -1, item id] lists.
    Work counting runs after a span closes and is recorded as its own
    bookkeeping span, so it never inflates a layer's self time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.item = None
        self.counts = Counter()
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "limitseries" or name.startswith("limitseries.")]
        for name, (modname, path, count) in TRACED.items():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                self._patch(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, new)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, self.clock
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                t = clock()
                bound = signature.bind(*args, **kwargs).arguments
                count(self.counts, name, bound, out)
                spans.append([BOOKKEEPING, t, clock(), parent, self.item])
            return out

        return traced

    # -- summaries --------------------------------------------------------

    def self_seconds(self):
        """Per name: span durations minus the time their children cover."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent, _item) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def covered_seconds(self):
        """Time inside top-level layer spans (bookkeeping excluded)."""
        return sum(end - start for name, start, end, parent, _item in self.spans
                   if parent < 0 and name != BOOKKEEPING)

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "item"],
                "spans": self.spans}
