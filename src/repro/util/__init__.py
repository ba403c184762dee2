"""Small shared utilities with no dependencies on the rest of the stack."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".backoff": ("Backoff",),
})
