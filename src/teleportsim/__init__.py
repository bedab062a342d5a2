"""Seedable state-vector simulation and certification of Bell-pair
teleportation protocols with conditional Pauli corrections.

The package exports what the command line's scripts, the acceptance
suite and the README use; everything else is imported from its module.
"""

from .qstate import SingleQubitGate, apply_gate, fidelity, make_state, random_state, reorder
from .bell import BellState, measure_bell_branches
from .pauli import PauliFactor
from .teleport import (
    certify_table,
    composed_table,
    derive_corrections,
    reference_table,
    teleport_branches,
)
from .harness import run_session
from .cli import CampaignConfig, run_campaign
from . import bell, harness, qstate, teleport

# Every memo cache. Gather forms live on the strings corrections_from_message holds.
PACKAGE_CACHES = (qstate._transpose, bell._bras, bell._pair_first, teleport.protocol_labels,
                  teleport.base_factor_map, teleport._joint, teleport._candidate_gathers,
                  harness.corrections_from_message)


def clear_caches() -> None:
    """Empty every package cache, so the next call recomputes from the code as it is."""
    for cached in PACKAGE_CACHES:
        cached.cache_clear()


__version__ = "0.1.0"

__all__ = [
    "SingleQubitGate",
    "apply_gate",
    "fidelity",
    "make_state",
    "random_state",
    "reorder",
    "BellState",
    "measure_bell_branches",
    "PauliFactor",
    "certify_table",
    "composed_table",
    "derive_corrections",
    "reference_table",
    "teleport_branches",
    "run_session",
    "CampaignConfig",
    "run_campaign",
    "clear_caches",
    "__version__",
]
