"""Plain-text key=value sidecars of the binary artifacts (PPF1 frame stacks, .npy densities).

One ``key=value`` line per item, in the order given; values are written with
``str``, so floats that must read back exactly are passed as their ``repr``.
Every text file of the program, sidecar or not, is read through
``_read_lines`` and written through ``_write_lines``, as UTF-8.
"""
from __future__ import annotations

from .states import DomainError

__all__ = ["write_key_values", "read_key_values"]


def _read_lines(path) -> list[str]:
    """The lines of the text file ``path``, read as UTF-8; a file that is not UTF-8 is refused naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def _write_lines(path, lines) -> None:
    """Write the strings ``lines``, newlines included, to the text file ``path`` as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_key_values(path, items) -> None:
    """Write ``items`` (an iterable of (key, value) pairs) as key=value lines."""
    _write_lines(path, (f"{key}={value}\n" for key, value in items))


def read_key_values(path) -> dict[str, str]:
    """The key=value lines of ``path`` as a dict of strings.

    Lines without '=' are skipped; a repeated key keeps its last value.
    """
    items = {}
    for line in _read_lines(path):
        key, sep, value = line.strip().partition("=")
        if sep:
            items[key] = value
    return items
