"""Exception hierarchy.  The CLI maps these classes onto disjoint exit codes."""


class DjemError(Exception):
    """Base class for all tool errors."""


class ValidationError(DjemError):
    """Invalid argument or configuration; the message names the violated constraint."""


class ParityError(ValidationError):
    """An odd weight where an even one is required."""


class TruncationError(DjemError):
    """A truncation window too small for the requested construction."""


class CertificateError(TruncationError):
    """A truncated computation whose completeness cannot be certified."""


class UndecidableRelationError(DjemError):
    """A character relation that is neither declared nor refutable from z-values."""
