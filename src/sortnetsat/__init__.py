"""Search for sorting networks that are optimal in size and depth simultaneously.

The package has three levels:

* ``networks`` -- comparator networks as data, evaluation over 0/1 vectors,
  verification via the zero-one principle, reflection and channel permutation.
* ``words`` -- the symbolic canonical form of two-layer networks (words and
  sentences) and generation of complete, symmetry-reduced prefix sets.
* ``cardinality`` / ``encoding`` / ``solving`` / ``catalog`` / ``search`` --
  CNF construction for "a sorting network with at most s comparators in at
  most d layers exists", running a solver on it, the checked result catalog,
  and the optimization driver.
"""

from sortnetsat.networks import Network, apply_network, is_sorting_network
from sortnetsat.words import generate_prefixes, sentence_of, net_of

__all__ = [
    "Network",
    "apply_network",
    "is_sorting_network",
    "generate_prefixes",
    "sentence_of",
    "net_of",
]

__version__ = "0.1.0"
