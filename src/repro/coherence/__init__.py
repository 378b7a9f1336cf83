"""Coherence-protocol substrate: transactions, MSHRs, protocol engine."""

from repro.coherence.mshr import MSHRFile
from repro.coherence.protocol import CoherenceEngine, ProtocolHost
from repro.coherence.transactions import (
    Transaction,
    TransactionKind,
)

__all__ = [
    "CoherenceEngine",
    "MSHRFile",
    "ProtocolHost",
    "Transaction",
    "TransactionKind",
]
