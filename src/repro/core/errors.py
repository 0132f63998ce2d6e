"""Exception hierarchy for the PAST storage layer."""

from __future__ import annotations


class PastError(Exception):
    """Base class for all PAST storage-layer errors."""


class InsertFailedError(PastError):
    """An insert could not place k replicas after all file-diversion retries.

    The application may retry with a smaller file (e.g. after fragmenting)
    or a smaller replication factor, as §3.4 suggests.
    """

    def __init__(self, name: str, attempts: int, last_file_id=None):
        super().__init__(
            f"insert of {name!r} failed after {attempts} attempt(s); "
            "the system could not locate sufficient storage"
        )
        self.name = name
        self.attempts = attempts
        self.last_file_id = last_file_id


class AdmissionError(PastError):
    """A node was refused admission to the PAST network (§3.2)."""


class CapacityError(PastError):
    """A local store operation would exceed the node's disk capacity."""
