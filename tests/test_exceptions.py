"""Every exception class the package defines survives pickling, so an error
raised in a pool worker reaches the parent as the same type and message."""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil
import typing

import ringbench

_SAMPLE = {str: "bad input", int: 7}


def _package_exceptions() -> list[type]:
    found = {}
    for info in pkgutil.iter_modules(ringbench.__path__):
        module = importlib.import_module(f"ringbench.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found[cls.__qualname__] = cls
    return list(found.values())


def _instance(cls: type) -> BaseException:
    """cls built from its own constructor's required arguments, or from
    one message where it keeps the builtin constructor."""
    if not inspect.isfunction(cls.__init__):
        return cls("bad input")
    hints = typing.get_type_hints(cls.__init__)
    required = [p.name for p in inspect.signature(cls.__init__).parameters.values()
                if p.name != "self" and p.default is p.empty
                and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return cls(*(_SAMPLE[hints[name]] for name in required))


def test_every_package_exception_round_trips_through_pickle():
    classes = _package_exceptions()
    assert "ParseError" in {c.__name__ for c in classes}
    for cls in classes:
        exc = _instance(cls)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc), cls.__name__
