"""Package namespaces that import their public names on first use (PEP 562).

A package ``__init__`` declares which module provides each public name
and binds the returned ``__getattr__``, ``__dir__`` and ``__all__``::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".batched": ("simulate_batch",),
        "repro.error.batched": ("BatchedSimulator",),
    })

Importing the package then loads none of those modules. The first
``package.name`` (or ``from package import name``) imports the providing
module; any submodule of the package also resolves as an attribute, as
it did when the package imported it eagerly. Names are looked up on
every access, not copied into the package, so a name patched on its
providing module is seen through the package too.
"""

from __future__ import annotations

import sys
from importlib.util import find_spec, resolve_name
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module name (relative to ``package`` when it
    starts with a dot) to the public names it provides.
    """
    provider = {
        name: resolve_name(module, package)
        for module, names in exports.items()
        for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = provider.get(name)
        if module is not None:
            return getattr(_load(module), name)
        submodule = f"{package}.{name}"
        if (
            name.isidentifier()
            and not name.startswith("__")
            and find_spec(submodule) is not None
        ):
            return _load(submodule)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(provider))

    return __getattr__, __dir__, sorted(provider)


def _load(module: str) -> object:
    # The import statement's machinery, not importlib.import_module, so
    # that ``python -X importtime`` lists lazily loaded modules too.
    __import__(module)
    return sys.modules[module]
