"""Every invalid argument is a ValueError: the chain, length and
truncation errors derive from ValueError as well as from LimitSeriesError,
as DomainError, MonotonicityViolation and PrimeTooSmall do."""

import pytest

from limitseries.errors import (InvalidSequence, InvalidTruncation,
                                LengthMismatch, LimitSeriesError)
from limitseries.horace import (OracleScene, build_nagata_plan,
                                limit_inclusion_check)
from limitseries.localring import chain_context, residual_chain
from limitseries.staircase import StaircaseTuple, regular, suppress_tuple


def short_override():
    plan, model = build_nagata_plan(4, 1, 1)
    return limit_inclusion_check(
        plan, model, OracleScene(),
        residual_override=StaircaseTuple([regular(1)]))


@pytest.mark.parametrize("call,error", [
    (lambda: residual_chain(regular(2), 1, [1, 2]), InvalidSequence),
    (lambda: residual_chain(regular(2), 1, []), InvalidSequence),
    (lambda: suppress_tuple(StaircaseTuple([regular(1)]), (0, 0)),
     LengthMismatch),
    (short_override, LengthMismatch),
    (lambda: residual_chain(regular(2), 1, [3]).truncate(5),
     InvalidTruncation),
    (lambda: residual_chain(regular(2), 1, [3],
                            chain_context(regular(2), 1, [2])),
     InvalidTruncation),
], ids=["increasing levels", "no levels", "suppress_tuple",
        "residual_override", "truncate up", "context below n_1"])
def test_argument_errors_are_value_errors(call, error):
    with pytest.raises(ValueError) as raised:
        call()
    assert type(raised.value) is error
    assert isinstance(raised.value, LimitSeriesError)
