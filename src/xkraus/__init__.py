"""Two-qubit X states under local Markovian noise.

Exact evolution of X-form density matrices under phase damping, amplitude
damping, and population-equalizing channels built from per-qubit Kraus
operators, Wootters concurrence, and root finders for the time where
entanglement dies and for the fidelity where sudden death first appears.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .channels import (
    CHANNEL_KINDS,
    ChannelSpec,
    DampingFactors,
    apply,
    check_cptp,
    damping,
    kraus_1q,
    kraus_set,
    propagate_x,
    x_form_residual,
)
from .entanglement import (
    ALIVE,
    DIES,
    SEPARABLE,
    EsdResult,
    concurrence_general,
    concurrence_x,
    critical_fidelity_amplitude,
    critical_fidelity_numeric,
    esd_time_amplitude_phi_werner,
    esd_time_numeric,
    esd_time_phase_werner,
)
from .linalg import NumericalFailureError, inf_norm_diff
from .states import (
    LocalUnitary,
    NotXStateError,
    XState,
    apply_local_unitary,
    flip_a_unitary,
    from_dense,
    random_local_unitary,
    random_x_state,
    to_dense,
    werner_phi,
    werner_psi,
)
from .verify import CheckResult, run_all

__all__ = [
    "__version__",
    "CHANNEL_KINDS",
    "ChannelSpec",
    "DampingFactors",
    "apply",
    "check_cptp",
    "damping",
    "kraus_1q",
    "kraus_set",
    "propagate_x",
    "x_form_residual",
    "ALIVE",
    "DIES",
    "SEPARABLE",
    "EsdResult",
    "concurrence_general",
    "concurrence_x",
    "critical_fidelity_amplitude",
    "critical_fidelity_numeric",
    "esd_time_amplitude_phi_werner",
    "esd_time_numeric",
    "esd_time_phase_werner",
    "NumericalFailureError",
    "inf_norm_diff",
    "LocalUnitary",
    "NotXStateError",
    "XState",
    "apply_local_unitary",
    "flip_a_unitary",
    "from_dense",
    "random_local_unitary",
    "random_x_state",
    "to_dense",
    "werner_phi",
    "werner_psi",
    "CheckResult",
    "run_all",
]
