"""Two-qubit X states under local Markovian noise.

Exact evolution of X-form density matrices under phase damping, amplitude
damping, and population-equalizing channels built from per-qubit Kraus
operators, Wootters concurrence, and root finders for the time where
entanglement dies and for the fidelity where sudden death first appears.

Each module's ``__all__`` is its public list; the package exports their
union.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import channels, entanglement, linalg, states, verify
from .channels import *  # noqa: F403
from .entanglement import *  # noqa: F403
from .linalg import *  # noqa: F403
from .states import *  # noqa: F403
from .verify import *  # noqa: F403

__all__ = [
    "__version__",
    *channels.__all__,
    *entanglement.__all__,
    *linalg.__all__,
    *states.__all__,
    *verify.__all__,
]
