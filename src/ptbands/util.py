"""Small shared helpers."""

import math
import numbers
import sys


def is_int(x):
    """True for an integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x):
    """True for a real number, not a bool, that is finite as a float."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:           # an integer beyond the float range
        return False


def require_indexable(count, itemsize, what):
    """MemoryError, not numpy's ValueError or OverflowError, for count (maybe
    inf) entries of itemsize bytes past numpy's index range; what names them."""
    if not count * itemsize <= sys.maxsize:         # numpy's intp
        raise MemoryError(f"{what} would pass numpy's index range of {sys.maxsize} bytes")
