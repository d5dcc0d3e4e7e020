"""``sum_as_numpy`` is ``float(np.sum(xs))`` bit for bit.

The all-reduce adds each round's contributions with ``sum_as_numpy``
instead of NumPy, so every committed digest and pin depends on the two
agreeing exactly: same value, same sign of zero, same bits.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import sum_as_numpy

#: Finite doubles of every kind: signed zeros, subnormals, the extremes
#: and values of ordinary size, drawn together so one list mixes
#: magnitudes.
TERM = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(-1e3, 1e3),
    st.integers(-(2**53), 2**53).map(float),
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.lists(TERM, max_size=15))
@settings(max_examples=1000, deadline=None)
def test_sum_as_numpy_is_bit_identical(xs):
    with np.errstate(over="ignore", invalid="ignore"):
        ours = sum_as_numpy(xs)
        ref = float(np.sum(xs))
    # Overflowing pairwise blocks of eight or more terms can meet as
    # inf - inf; the bit comparison still covers that case.
    if not math.isnan(ref):
        assert ours == ref
        assert math.copysign(1.0, ours) == math.copysign(1.0, ref)
    assert _bits(ours) == _bits(ref)


def test_signed_zeros_and_the_empty_list():
    for xs in ([], [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0] * 7,
               [-0.0] * 9):
        assert _bits(sum_as_numpy(xs)) == _bits(float(np.sum(xs))), xs
