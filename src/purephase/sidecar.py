"""Plain-text key=value sidecars of the binary artifacts (PPF1 frame stacks, .npy densities).

One ``key=value`` line per item, in the order given; values are written with
``str``, so floats that must read back exactly are passed as their ``repr``.
"""
from __future__ import annotations

__all__ = ["write_key_values", "read_key_values"]


def write_key_values(path, items) -> None:
    """Write ``items`` (an iterable of (key, value) pairs) as key=value lines."""
    with open(path, "w") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in items)


def read_key_values(path) -> dict[str, str]:
    """The key=value lines of ``path`` as a dict of strings.

    Lines without '=' are skipped; a repeated key keeps its last value.
    """
    items = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.strip().partition("=")
            if sep:
                items[key] = value
    return items
