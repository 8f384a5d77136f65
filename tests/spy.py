"""The one way a test watches the program call itself.

``with spy(f, ...) as calls:`` wraps each given zappatic function or method
at every reference to it in the loaded zappatic modules and their classes,
as perfbench's ``Tracer.install`` does, so a call is seen wherever the
program makes it.  Each call is recorded, in the order the calls return, as
a ``Call``; arguments and result pass through unchanged, and every
reference is the original again when the block ends.  A reference held
elsewhere, in a dict or a test module's own import, is not wrapped.  It is
a context manager, not a fixture, so that it also runs in ``@given`` tests.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import wraps
from typing import NamedTuple


class Call(NamedTuple):
    name: str
    args: tuple
    kwargs: dict
    result: object


def owners():
    """The loaded zappatic modules and the classes each one defines."""
    for name, module in list(sys.modules.items()):
        if name == "zappatic" or name.startswith("zappatic."):
            yield module
            yield from (v for v in vars(module).values()
                        if isinstance(v, type) and v.__module__ == name)


def _recording(f, calls):
    @wraps(f)
    def wrapper(*args, **kwargs):
        result = f(*args, **kwargs)
        calls.append(Call(f.__name__, args, kwargs, result))
        return result

    return wrapper


@contextmanager
def spy(*functions):
    calls = []
    wrappers = {id(f): (f, _recording(f, calls)) for f in functions}
    patched = []  # (owner, attr, original)
    try:
        for owner in list(owners()):
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    patched.append((owner, attr, value))
        unseen = [f.__name__ for f in functions if all(f is not v for _, _, v in patched)]
        if unseen:
            raise LookupError(f"no zappatic module or class holds {unseen}")
        yield calls
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)
