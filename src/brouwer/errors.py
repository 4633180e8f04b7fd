"""Shared exception types."""


class ResourceLimitError(Exception):
    """A requested computation exceeds the configured resource bound."""

    def __init__(self, message: str, requested=None, limit=None):
        self.requested = requested
        self.limit = limit
        super().__init__(message)


class SettingError(ValueError):
    """A setting from the environment is not a value the program accepts."""
