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

    A bare date ('2017-04-13') is accepted and means midnight UTC.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"invalid RFC 3339 timestamp: {value!r}") from exc
    return to_utc(dt)


def format_rfc3339(dt: datetime) -> str:
    return to_utc(dt).strftime("%Y-%m-%dT%H:%M:%SZ")
