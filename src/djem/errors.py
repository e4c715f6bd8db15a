"""Exception hierarchy, each class carrying the exit code and stderr label
the CLI refuses with, and the integer and flag rules that every public entry
point checks its parameters by."""


class DjemError(Exception):
    """Base class for all tool errors: the CLI prints `label: message` to
    stderr and exits with exit_code."""
    exit_code = 2
    label = "error"


class ValidationError(DjemError):
    """Invalid argument or configuration; the message names the violated constraint."""
    label = "validation error"


class ParityError(ValidationError):
    """An odd weight where an even one is required."""


class TruncationError(DjemError):
    """A truncation window too small for the requested construction."""
    exit_code = 3
    label = "truncation/certificate failure"


class CertificateError(TruncationError):
    """A truncated computation whose completeness cannot be certified."""


class UndecidableRelationError(DjemError):
    """A character relation that is neither declared nor refutable from z-values."""
    exit_code = 4
    label = "undecidable relation"


class CorpusSetupError(DjemError):
    """A fixture directory or file that cannot be read or written."""
    exit_code = 6
    label = "corpus setup error"


def require_int(value, name, *, minimum=None, even=False) -> int:
    """value itself if it is an int, even when even is set and at least
    minimum when one is given; otherwise a ValidationError (a ParityError for
    an odd value) naming the parameter, the value and the rule.  Every
    integer parameter of the public API passes here, so a float, str, bool or
    Fraction is refused, never truncated."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if even and value % 2:
        raise ParityError(f"{name} must be even, got {value}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must satisfy {name} >= {minimum}, got {value}")
    return value


def require_type(value, name, kind):
    """value itself if its type is exactly kind (no subclass), else a ValidationError naming name."""
    if type(value) is not kind:
        raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def require_flag(value, name, *, optional=False):
    """value itself if it is True or False (or None, when optional), else a ValidationError."""
    if value is True or value is False or (optional and value is None):
        return value
    allowed = "True, False or None" if optional else "True or False"
    raise ValidationError(f"{name} must be {allowed}, got {value!r}")
