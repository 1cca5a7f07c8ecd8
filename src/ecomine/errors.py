"""Exception hierarchy shared across the package."""

from __future__ import annotations


class EcomineError(Exception):
    """Base class for all package errors."""


class CorpusError(EcomineError):
    """Corpus store failure (bad record, unwritable path, malformed file)."""


class PartialIngestError(CorpusError):
    """Harvest aborted mid-batch; counts so far are preserved.

    Attributes:
        summary: IngestSummary with the records persisted before the failure.
    """

    def __init__(self, message: str, summary) -> None:
        super().__init__(message)
        self.summary = summary


class PromptError(EcomineError):
    """Prompt construction or validation failure."""


class ReportError(EcomineError):
    """A report could not be written (bad format, unwritable path)."""


class TransportError(EcomineError):
    """Provider call failed and cannot be retried further."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class RetryableTransportError(TransportError):
    """Provider call failed with a transient condition (429, 5xx, network);
    retry_after is the seconds a 429 or 503 asked to wait (Retry-After), or None."""

    def __init__(self, message: str, status: int | None = None, *, retry_after: float | None = None) -> None:
        super().__init__(message, status)
        self.retry_after = retry_after


class SchemaParseError(EcomineError):
    """A schema or result document could not be parsed; a malformed JSON
    document's message names the character offset of the failure."""


class InvalidSchemaError(EcomineError):
    """A standardized schema is structurally unusable; the message lists
    its structural defects."""


class QuarantineError(EcomineError):
    """A provider response was neither a valid document nor an out-of-scope
    marker; the raw text is preserved for audit."""

    def __init__(self, message: str, doi: str, raw_text: str) -> None:
        super().__init__(message)
        self.doi = doi
        self.raw_text = raw_text


class StageFailure(EcomineError):
    """A pipeline stage could not produce a usable output.

    Attributes:
        raw_responses: raw provider texts preserved for audit, when relevant.
    """

    def __init__(self, message: str, raw_responses: list[str] | None = None) -> None:
        super().__init__(message)
        self.raw_responses = raw_responses or []


class CheckpointError(EcomineError):
    """Checkpoint is unusable (corrupt file or schema fingerprint mismatch)."""


class RangeError(ValueError):
    """A setting out of range: str() is "<name> <rule>" under the owner's
    parameter name, and the CLI prints the rule after its own key."""

    def __init__(self, name: str, rule: str) -> None:
        super().__init__(f"{name} {rule}")
        self.rule = rule
