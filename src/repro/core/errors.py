"""Exception hierarchy for the iDM reproduction.

All exceptions raised by this library derive from :class:`IdmError`, so
callers may catch a single base class. Subsystems define narrower types
here rather than in their own modules so that the hierarchy stays visible
in one place.
"""

from __future__ import annotations


class IdmError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ComponentError(IdmError):
    """A resource-view component is malformed or used incorrectly."""


class SchemaError(ComponentError):
    """A tuple component's values do not conform to its schema."""


class InfiniteComponentError(ComponentError):
    """An operation requiring finiteness was applied to an infinite component."""


class ClassConformanceError(IdmError):
    """A resource view violates the restrictions of a resource view class."""


class UnknownClassError(IdmError):
    """A resource view class name is not present in the registry."""


class GraphError(IdmError):
    """A structural error in a resource view graph."""


class ParseError(IdmError):
    """Base class for parser failures (XML, LaTeX, iQL, feeds, messages)."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class XmlParseError(ParseError):
    """The XML parser rejected its input."""


class LatexParseError(ParseError):
    """The LaTeX structure parser rejected its input."""


class QueryError(IdmError):
    """Base class for iQL errors."""


class QuerySyntaxError(QueryError, ParseError):
    """The iQL parser rejected the query text."""


class QueryPlanError(QueryError):
    """A logical plan could not be converted into an executable plan."""


class QueryExecutionError(QueryError):
    """A runtime failure while executing a query plan."""


class StreamingUnsupportedError(QueryExecutionError):
    """The query has no streaming plan shape (currently: joins).

    Raised by ``execute_iter()``/``query_iter()`` so callers can fall
    back to the materialized path without swallowing real execution
    failures.
    """


class StaleDictionaryError(QueryExecutionError):
    """A URI-dictionary key could not be resolved consistently.

    Raised when an execution's dictionary view cannot place a
    late-arriving URI between its neighbours (the gap between two
    sort keys is exhausted) — the caller should retry on a fresh
    view, which the next execution gets automatically after the
    dictionary remaps.
    """


class StoreError(IdmError):
    """A saved RVM snapshot is missing, of another version, malformed, or
    would be loaded into an RVM that already holds state."""


class FullTextError(IdmError):
    """A failure inside the full-text engine."""


class DurabilityError(IdmError):
    """A failure in the durability layer (WAL, checkpoint, recovery).

    Torn WAL tails are *not* errors — they are truncated on open; this
    is raised for conditions that would silently lose acknowledged
    data, such as corruption in a non-final segment or an unreadable
    checkpoint.
    """


class DataSourceError(IdmError):
    """A data-source plugin failed to enumerate or fetch items."""


class ProviderFailed(ComponentError):
    """A lazy component's provider kept failing.

    Raised by :class:`~repro.core.lazy.LazyValue` once its bounded
    re-forcing budget is spent; chains the provider's last error.
    """


class VfsError(DataSourceError):
    """Virtual filesystem failure (missing path, duplicate entry, ...)."""


class ImapError(DataSourceError):
    """Simulated IMAP server failure."""


class FeedError(DataSourceError):
    """RSS/ATOM feed failure."""


class SyncError(IdmError):
    """The synchronization manager hit an unrecoverable inconsistency."""


class ServiceError(IdmError):
    """Base class for the concurrent query service (``repro.service``)."""


class Overloaded(ServiceError):
    """The service's admission controller rejected a request.

    Raised when the bounded request queue is full; carries the depth the
    controller saw so clients can report or back off.
    """

    def __init__(self, message: str, *, queued: int | None = None,
                 limit: int | None = None) -> None:
        super().__init__(message)
        self.queued = queued
        self.limit = limit


class DeadlineExceeded(ServiceError):
    """A query missed its deadline (in queue or mid-execution)."""


class QueryCancelled(ServiceError):
    """A query was cooperatively cancelled before it completed."""


class ServiceClosed(ServiceError):
    """The service is shut down (or draining) and accepts no new work."""


class ShardUnavailable(ServiceError):
    """A supervised shard cannot serve right now.

    Raised by ``repro.supervise`` while a shard worker is recovering
    from a crash, or fail-fast once its restart circuit breaker opened
    after repeated crash-looping. Carries the shard index and, when the
    breaker knows its cool-down, ``retry_after`` seconds.
    """

    def __init__(self, message: str, *, shard: int | None = None,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.shard = shard
        self.retry_after = retry_after


class WireError(ServiceError):
    """A malformed frame on the supervisor/worker control pipe.

    Oversized lengths, truncated payloads and undecodable JSON raise
    this on the *reading* side; the supervisor treats it as a worker
    failure (the stream is unrecoverable once framing is lost).
    """
