"""Tamper-evidence gateway for relational data.

SQL statements are intercepted, widened to expose full base tuples, and
every accessed or modified tuple is checked against (or recorded into) a
fingerprint ledger backed by a simulated permissioned blockchain. Any
out-of-band modification of stored data is detected the next time a
verified query touches it.
"""

__version__ = "0.1.0"

from .errors import (
    TamperDetected,
    UnsupportedFeature,
    VerityError,
)
from .fingerprint import fingerprint, row_id
from .ledger import SimulatedLedger, generate_peers
from .parser import parse
from .rewriter import change_projection, project_results
from .sqlast import QueryKind, classify, render
from .storage import Database
from .verifier import Verifier

__all__ = [
    "Database",
    "QueryKind",
    "SimulatedLedger",
    "TamperDetected",
    "UnsupportedFeature",
    "Verifier",
    "VerityError",
    "change_projection",
    "classify",
    "fingerprint",
    "generate_peers",
    "parse",
    "project_results",
    "render",
    "row_id",
]
