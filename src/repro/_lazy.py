"""First-use resolution of a package's re-exported names (PEP 562).

A package ``__init__`` that re-exports names from its submodules
declares one ``{exported name: defining module}`` table and binds the
two module hooks built here::

    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

Importing the package then runs none of those submodules.  The first
lookup of a name imports its defining module and stores the object in
the package's globals, so every later lookup is a plain attribute hit.
"""

from importlib import import_module


def lazy_exports(namespace, exports):
    """``(__getattr__, __dir__)`` for the module whose globals are
    ``namespace``, resolving each key of ``exports`` from the module
    named by its value."""
    package = namespace["__name__"]

    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
