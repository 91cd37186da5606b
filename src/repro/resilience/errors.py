"""Exception types for the resilience layer.

Persistence failures all derive from :class:`PersistenceError`, which is a
``ValueError`` so existing ``except ValueError`` call sites (and tests)
keep working — the subclasses exist so callers can *distinguish* a corrupt
file from a version skew from a wrong database, each of which needs a
different operator response (restore from backup / upgrade the reader /
point at the right dataset).
"""

from __future__ import annotations


class PersistenceError(ValueError):
    """Base class for index/database persistence failures."""


class CorruptIndexError(PersistenceError):
    """The on-disk bytes fail their integrity check (torn/truncated write,
    bit rot, or a file that was never ours)."""


class IndexFormatError(PersistenceError):
    """The file is intact but written by an unsupported format version."""


class DatabaseMismatchError(PersistenceError):
    """The index fingerprint does not match the database it is being
    attached to."""
