"""cfgrank: control-flow-graph analysis and malware classification toolkit."""

import json

__version__ = "0.1.0"


class CfgrankError(ValueError):
    """An error in what cfgrank was given, never in cfgrank itself. The CLI
    prints it as one `cfgrank: KIND error: MESSAGE` line and exits with its
    exit_code; raise one of the three subclasses."""
    kind: str
    exit_code: int


class UsageError(CfgrankError):
    """Arguments that the command cannot run with."""
    kind, exit_code = "usage", 1


class InputError(CfgrankError):
    """An input that cannot be read, parsed or validated; an unwritable output."""
    kind, exit_code = "input", 2


class DataError(CfgrankError):
    """Valid input that the analysis or the learner cannot use."""
    kind, exit_code = "data", 3


def json_line(payload) -> bytes:
    """Compact JSON with sorted keys on one line, the form of every JSON
    file cfgrank writes; a NaN or an infinity, which JSON cannot hold, is a
    data error."""
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as e:
        raise DataError(str(e)) from None
    return (text + "\n").encode("utf-8")
