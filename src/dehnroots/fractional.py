"""Candidate data sets for roots of powers of a Dehn twist.

Replacing condition (III) by a + b = l*a*b (mod n) describes degree-n
roots of the l-th power of the twist.  Unlike the l = 1 case there is no
clean one-to-one correspondence with conjugacy classes here: when
gcd(l, n) > 1 a candidate may just be a power of a root of a smaller
twist power (``FractionalDataSet.power_shares_factor`` flags this), and
roots of powers can also exchange the two sides of the curve, which this
module does not model.  Treat the enumeration as a source of candidates,
not a classification, which is why it is capped at small degree and
genus.  They come from the ordinary search core: the blocks of the counted
cell of ``datasets`` with the power-l twist pairs (``_cell``), listed as they
come; ``validate`` checks them in the power-l form of (III).
"""

from .dataset import FractionalDataSet, RangeExceeded, _check_range
from .enumeration import _cell
from .numtheory import _show

__all__ = ["fractional_datasets"]

MAX_DEGREE = 30
MAX_GENUS = 12


def fractional_datasets(g, n, power, class_cap=None):
    """Canonical candidates of genus g and degree n for the power-l twist.

    Same search as the ordinary enumeration, with the power-l pairs and
    division-free doubled cone weights, so even degrees work.
    Each candidate appears once up to the usual syntactic equivalence
    (swap a and b, reduce residues, reorder cones); the output is sorted.
    Raises ClassCapExceeded, before any candidate is built, when the cell
    counts more than ``class_cap`` candidates (default 10**7).
    """
    if g < 1 or g > MAX_GENUS or n < 2 or n > MAX_DEGREE:
        raise RangeExceeded(
            "fractional enumeration is limited to 1 <= g <= %d, 2 <= n <= %d"
            % (MAX_GENUS, MAX_DEGREE)
        )
    if power < 1:
        raise RangeExceeded("power must be >= 1, got %s" % _show(power))
    _check_range("power", power, 1)  # the candidates' own bound, even where none is built
    return [FractionalDataSet(n, g0, a, b, cones, power)
            for n, g0, a, b, found in _cell(g, n, class_cap, power) for cones in found]
