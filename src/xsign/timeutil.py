"""UTC timestamp helpers. All instants in this package are timezone-aware
UTC datetimes at second precision."""

from __future__ import annotations

from datetime import datetime, timezone

# Sentinel for "unbounded future" in interval arithmetic.
DT_MAX = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)


def utc(year: int, month: int = 1, day: int = 1, hour: int = 0,
        minute: int = 0, second: int = 0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


def to_utc(dt: datetime) -> datetime:
    """Coerce to aware UTC and drop sub-second precision."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp ('2017-04-13T00:00:00Z' or with offset).

    A bare date ('2017-04-13') is accepted and means midnight UTC. Any
    other value, a non-string included, raises ValueError.
    """
    try:
        text = value.strip()  # AttributeError when not a string
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        return to_utc(datetime.fromisoformat(text))
    except (AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid RFC 3339 timestamp: {value!r}") from exc


def format_rfc3339(dt: datetime) -> str:
    # isoformat, unlike strftime's %Y, pads a year below 1000 to 4 digits.
    return to_utc(dt).isoformat()[:19] + "Z"
