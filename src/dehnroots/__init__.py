"""Roots of Dehn twists about nonseparating curves, computed exactly.

A degree-n root of the twist t about a nonseparating curve on the closed
orientable genus-(g+1) surface is a mapping class h with h^n = t.  Up to
conjugacy these roots are classified by integer "data sets"
(n, g0, (a,b); (c1,n1), ..., (cm,nm)); see ``dehnroots.dataset``.  This
package validates and canonicalizes data sets, enumerates all of them
for a given genus and degree, and computes the named families (maximal
Margalit-Schleimer roots, (d,e)-roots, primary roots, triangular sets).

Only odd degrees up to 2g+1 occur, and every root is conjugate to one of
the enumerated classes through orientation-preserving maps only, so the
listings are complete classifications.
"""

from . import dataset, enumeration, fractional, numtheory, special_roots
from .dataset import *
from .enumeration import *
from .fractional import *
from .numtheory import *
from .special_roots import *

__version__ = "0.1.0"

__all__ = [
    *dataset.__all__,
    *enumeration.__all__,
    *fractional.__all__,
    *numtheory.__all__,
    *special_roots.__all__,
]
