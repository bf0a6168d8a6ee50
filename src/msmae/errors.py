"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError and ParseError are user
errors (exit 2), NumericError is a runtime numeric failure (exit 3).
InvariantError signals an internal bug and is never caught, nor is
WorkerError, a training worker process that died mid-run (exit 1).
"""


class MsmaeError(Exception):
    """Base class for all package errors."""


class ConfigError(MsmaeError):
    """Invalid configuration or argument values supplied by the caller."""


class ContractError(MsmaeError):
    """An operation was called outside its documented preconditions."""


class ShapeError(ContractError):
    """Operand shapes incompatible with the operation."""


class ParseError(MsmaeError):
    """Malformed input file; message carries a line number or byte offset."""


class NumericError(MsmaeError):
    """Non-finite value where a finite one is required (e.g. training loss)."""


class WorkerError(MsmaeError):
    """The gradient worker process ended mid-run (training.tape_worker)."""


class InvariantError(MsmaeError):
    """Internal invariant violated; indicates a bug, not a usage error."""
