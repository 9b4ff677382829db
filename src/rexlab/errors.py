"""The root of the library's error hierarchy; it imports nothing from the package."""

__all__ = ["RexlabError"]


class RexlabError(Exception):
    """Base class for all library errors."""
