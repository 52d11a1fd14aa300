"""Exception hierarchy shared by all gemkit modules (exit codes: ``cli``)."""


class GemkitError(Exception):
    """Base class for all gemkit errors."""


class GemFormatError(GemkitError):
    """Malformed input or undecodable canonical code, or a file that
    cannot be read or written."""


class StructuralError(GemkitError):
    """Input violates a structural precondition (wrong color count,
    disconnected graph where connectivity is required, invalid dipole,
    non-gem data)."""


class AnalysisRefused(GemkitError):
    """An operation refused to run because its mathematical hypotheses are
    not certified (e.g. simple-connectivity unknown or false)."""


class InternalConsistencyError(GemkitError):
    """Two independent computations of the same quantity disagree, or a
    structural identity that must hold on valid input failed.  Always a
    bug in gemkit or corrupted data."""
