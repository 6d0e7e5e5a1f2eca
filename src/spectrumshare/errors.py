"""Exception hierarchy shared across the package."""


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


class PriceSystemError(ValueError):
    """The personalized prices are inconsistent (they must sum to zero)."""


class PriceScaleError(ValueError):
    """The seed price is too small to keep all solved prices non-negative."""

    def __init__(self, message: str, min_seed_price):
        super().__init__(message)
        self.min_seed_price = min_seed_price
