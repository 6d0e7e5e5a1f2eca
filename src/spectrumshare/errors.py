"""The package's two exceptions: `ConfigError` for refused input (exit 2)
and `ContractError` for a violated internal identity (exit 3)."""


class ConfigError(Exception):
    """A scenario or parameter is malformed or out of the supported range.
    A record that refuses one of its own fields names its path inside the
    record as `field` ("gains[0][1]"), apart from the `reason`."""

    def __init__(self, reason: str, field: str = ""):
        super().__init__(f"{field}: {reason}" if field else reason)
        self.field = field
        self.reason = reason


class ContractError(Exception):
    """An internal identity that must always hold was violated."""
