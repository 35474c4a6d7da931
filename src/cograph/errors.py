"""Exception types shared across the package, and the type checks that
raise them."""

import numbers


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or invariant."""


def require_int(name: str, value, minimum: int | None = None) -> None:
    """ValidationError naming the field unless value is an integer (not a
    bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")


def require_real(name: str, value) -> None:
    """ValidationError naming the field unless value is a real number (not
    a bool); range checks are the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def require_type(name: str, value, *types) -> None:
    """ValidationError naming the field unless value is an instance of one of types."""
    if not isinstance(value, types):
        raise ValidationError(f"{name} must be of type {' or '.join(t.__name__ for t in types)}, got {value!r}")


class GraphParseError(ValidationError):
    """Raised for malformed dataset files; carries file path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


class TrainingError(RuntimeError):
    """Raised when a training run diverges (NaN loss or similar pathology)."""


class EigenSolverError(RuntimeError):
    """Raised when an eigenpair fails its residual tolerance."""
