"""Error hierarchy for the engine.

The hierarchy doubles as the PEP 249 exception ladder so that
:mod:`repro.engine.dbapi` can re-export these classes unchanged.
"""


class Warning(Exception):  # noqa: A001 - PEP 249 requires this name
    """Non-fatal warning raised by the driver."""


class Error(Exception):
    """Base class of all engine errors."""


class InterfaceError(Error):
    """Error related to the database interface rather than the engine."""


class DatabaseError(Error):
    """Base class of errors raised by the engine itself."""


class DataError(DatabaseError):
    """Problems with the processed data (bad value, overflow, ...)."""


class OperationalError(DatabaseError):
    """Errors related to the engine's operation (timeouts, aborted txns)."""


class IntegrityError(DatabaseError):
    """Constraint violations (primary key, temporal overlap, ...)."""


class InternalError(DatabaseError):
    """The engine reached an inconsistent internal state."""


class ProgrammingError(DatabaseError):
    """User errors: unknown table, SQL syntax error, wrong parameters."""


class NotSupportedError(DatabaseError):
    """A requested feature is not supported by this system archetype."""


class SqlSyntaxError(ProgrammingError):
    """Raised by the SQL lexer/parser with position information.

    When the token's line/column are known (the lexer records them on every
    token) the message reads ``(at line 2, column 7)``; a bare character
    offset remains the fallback for callers that only track offsets.
    """

    def __init__(self, message, position=None, fragment=None, line=None, column=None):
        detail = message
        if line is not None and column is not None:
            detail = f"{message} (at line {line}, column {column})"
        elif position is not None:
            detail = f"{message} (at offset {position})"
        if fragment:
            detail = f"{detail} near {fragment!r}"
        super().__init__(detail)
        self.position = position
        self.fragment = fragment
        self.line = line
        self.column = column


class CatalogError(ProgrammingError):
    """Unknown or duplicate catalog object."""


class PlanError(InternalError):
    """A logical plan could not be converted into a physical plan."""


class QueryTimeout(OperationalError):
    """A query exceeded the benchmark harness timeout."""
