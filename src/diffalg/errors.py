"""Exception types shared across the package."""


class DiffAlgError(Exception):
    """Base class for all package errors."""


class NotExact(DiffAlgError):
    """The function is not a total derivative; carries the blocking residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotVariational(DiffAlgError):
    """The function is not a variational derivative (Frechet derivative not self-adjoint)."""


class VerificationFailed(DiffAlgError):
    """An internal re-check failed; indicates an implementation bug, never user error."""


class NotInImage(DiffAlgError):
    """Applying a non-local operator failed because q_i * f is not a total derivative."""

    def __init__(self, message, index=None, product=None):
        super().__init__(message)
        self.index = index
        self.product = product


class DepthOverflow(DiffAlgError):
    """A product would leave the depth-2 non-local algebra."""


class Unsupported(DiffAlgError):
    """The input is outside what the engine represents exactly (e.g. a Laurent residue)."""


class ParseError(DiffAlgError):
    """Syntax error in the expression grammar; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position
