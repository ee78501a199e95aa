"""Plain-text persistence for rectangle instances.

Format: a header line ``n <count>`` followed by one rectangle per line as
four floats ``xlo ylo xhi yhi``. Floats are written with ``repr`` so a
save/load round trip is exact. Blank lines and ``#`` comment lines are
ignored when reading.
"""

from __future__ import annotations

from pathlib import Path

from .geometry import UNIT_SQUARE, Instance, Point, Rectangle, Region

__all__ = ["InstanceFormatError", "save_instance", "load_instance", "dumps_instance", "loads_instance"]


class InstanceFormatError(ValueError):
    """Raised when an instance file does not match the expected format."""


def dumps_instance(instance: Instance) -> str:
    # reads the stored coordinates, so it builds no Rectangle
    rows = "".join(f"{lx!r} {ly!r} {hx!r} {hy!r}\n" for lx, ly, hx, hy in instance.coords.T.tolist())
    return f"n {instance.n}\n{rows}"


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def _parse_rect(line: str, lineno: int) -> Rectangle:
    parts = line.split()
    if len(parts) != 4:
        raise InstanceFormatError(
            f"line {lineno}: expected 4 coordinates, got {len(parts)}"
        )
    try:
        xlo, ylo, xhi, yhi = (float(p) for p in parts)
    except ValueError as exc:
        raise InstanceFormatError(f"line {lineno}: {exc}") from None
    try:
        return Rectangle(Point(xlo, ylo), Point(xhi, yhi))
    except ValueError as exc:
        raise InstanceFormatError(f"line {lineno}: {exc}") from None


def loads_instance(text: str) -> Instance:
    lines = text.splitlines()
    header: str | None = None
    header_line = 0
    rects: list[Rectangle] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
            header_line = lineno
            continue
        rects.append(_parse_rect(line, lineno))
    if header is None:
        raise InstanceFormatError("empty file: missing 'n <count>' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise InstanceFormatError(f"line {header_line}: malformed header {header!r}")
    try:
        count = int(parts[1])
    except ValueError:
        raise InstanceFormatError(
            f"line {header_line}: header count {parts[1]!r} is not an integer"
        ) from None
    if count != len(rects):
        raise InstanceFormatError(
            f"header declares {count} rectangles but file contains {len(rects)}"
        )
    if rects:
        try:
            region = Region(
                x_min=min(r.lo.x for r in rects),
                x_max=max(r.hi.x for r in rects),
                y_min=min(r.lo.y for r in rects),
                y_max=max(r.hi.y for r in rects),
            )
        except ValueError:
            raise InstanceFormatError("coordinates span more than the float range") from None
    else:
        region = UNIT_SQUARE
    return Instance(rects=tuple(rects), seed=None, region=region, n_requested=count)


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from None
    return loads_instance(text)
