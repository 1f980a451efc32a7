"""Affine subsystem maps from bipartite unitary dynamics.

Construct fixed-mean-value and fixed-correlation maps from a joint
unitary, examine their invertibility and complete positivity, invert them
exactly, decide compatibility domains, and reproduce the closed-form
two-qubit scenarios that anchor the numerics.

Each public name is declared once, in its module's ``__all__``; the
package exports the union of those lists.
"""

from . import analysis, basis, domain, mapgen, states, superop, twoqubit
from .analysis import *  # noqa: F403
from .basis import *  # noqa: F403
from .domain import *  # noqa: F403
from .mapgen import *  # noqa: F403
from .states import *  # noqa: F403
from .superop import *  # noqa: F403
from .twoqubit import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, basis, domain, mapgen, states, superop, twoqubit)
    for name in module.__all__
]
