"""The benchmark's tracer (bench/spans.py) wraps library functions by name
and reads their counted arguments by parameter name, so a refactor that
renames a traced function or one of those parameters fails here rather
than in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

from limitseries import interp, linalg, localring
from limitseries.interp import Site
from limitseries.localring import Element, RingContext
from limitseries.staircase import regular

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
P = 1000003


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if name == "limitseries" or name.startswith("limitseries.")
            for key, value in vars(mod).items() if callable(value)}


def test_tracer_resolves_every_traced_name_and_counted_parameter():
    spans = load_spans()
    before = library_bindings()
    ctx = RingContext(dim=1, prime=P, t_trunc=None, x_cap=2)
    with spans.Tracer() as tracer:
        # positional calls, as the library makes them: the work counters
        # bind them to the parameter names they read
        interp.conditions_matrix([Site(regular(1), (1, 2))], 1, P)
        linalg.rank_mod_p([[1, 2], [2, 4]], P)
        linalg.kernel_mod_p([[1, 2]], 2, P)
        linalg.kernel_over_fpt([[[1], [0, 1]]], 2, P)
        localring.TModule.from_rows(P, 2, 2,
                                    [localring._encode({(0, 0): 1}, 2)])
        localring.flat_limit([Element(ctx, {((1,), 1): 1})], ctx)
    counted = [name for name, (_mod, _path, count) in spans.TRACED.items()
               if count is not None]
    assert counted
    for name in counted:
        assert tracer.counts[name + ".calls"] == 1, name
    assert tracer.counts["linalg.rank_mod_p.rank"] == 1
    assert tracer.counts["linalg.rank_mod_p.nonzero_rows"] == 2
    assert library_bindings() == before
