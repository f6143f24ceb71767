"""The one reader of JSON payloads and of the library's arguments: each check
returns its value or raises ValueError.

Payload fields and public arguments (counts, indices, degrees, heights, caps,
budgets, generator symbols, element names) are read by the same checks, so
both give the same message, "<what> must be an integer >= 1, got 0.".  An
int is what is_int accepts: an int or int subclass, but not a bool; a float,
a string or a numpy integer is not one.  `what` names the value in the
message.  An array's `item` is called as item(entry, what) on each entry, so
checks nest.
"""

from __future__ import annotations


def fields(x: object, what: str, required=(), optional=()) -> dict:
    """x as a dict that has every required key and no key outside the two lists."""
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be an object, got {x!r}.")
    for key in required:
        if key not in x:
            raise ValueError(f'{what} is missing field "{key}".')
    for key in x:
        if key not in required and key not in optional:
            allowed = ", ".join(f'"{k}"' for k in (*required, *optional))
            raise ValueError(f'{what} has unknown field "{key}"; it takes {allowed}.')
    return x


def is_int(x: object) -> bool:
    """Whether x is an int: JSON and argparse give plain ints, and bools are not ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def integer(x: object, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """An int (see is_int) in [lo, hi]; None leaves that side open."""
    if is_int(x) and (lo is None or x >= lo) and (hi is None or x <= hi):
        return x
    if lo is not None and hi is not None:
        span = f" in [{lo},{hi}]"
    else:
        span = f" >= {lo}" if lo is not None else f" <= {hi}" if hi is not None else ""
    raise ValueError(f"{what} must be an integer{span}, got {x!r}.")


def array(x: object, what: str, item=None, length: int | None = None) -> list:
    """A JSON list, of the given length if any, with item applied to each entry."""
    if not isinstance(x, list) or (length is not None and len(x) != length):
        size = "" if length is None else f" of length {length}"
        raise ValueError(f"{what} must be a list{size}, got {x!r}.")
    if item is None:
        return x
    entry = f"{what} entry"
    return [item(v, entry) for v in x]


def string(x: object, what: str) -> str:
    if not isinstance(x, str):
        raise ValueError(f"{what} must be a string, got {x!r}.")
    return x


def boolean(x: object, what: str) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"{what} must be a boolean, got {x!r}.")
    return x
