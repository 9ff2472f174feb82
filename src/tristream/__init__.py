"""tristream: triangle estimation from a single pass over an edge stream.

The package pairs two bounded-memory streaming estimators with an exact
oracle, analytic variance/RSE predictors, and a seeded experiment harness,
so every estimate can be checked against ground truth and theory.
"""

from . import analysis, edgelist, estimators, generators, harness, oracle, randomness
from .analysis import *
from .edgelist import *
from .estimators import *
from .generators import *
from .harness import *
from .oracle import *
from .randomness import *

__version__ = "0.1.0"

# Each module's __all__ lists the names it contributes; the root is their union.
__all__ = sorted(
    name for module in (analysis, edgelist, estimators, generators, harness, oracle, randomness)
    for name in module.__all__
)
