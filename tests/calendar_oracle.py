"""Oracle for the calendar arrays: the local time of one UTC hour index, in
`datetime` objects, from a `Calendar`'s base offset and DST transitions."""

import datetime as dt


def utc_start(calendar) -> dt.datetime:
    return dt.datetime(calendar.year, 1, 1, tzinfo=dt.timezone.utc)


def utc_time(calendar, hour_index: int) -> dt.datetime:
    return utc_start(calendar) + dt.timedelta(hours=int(hour_index))


def offset_hours_at(calendar, utc_instant: dt.datetime) -> float:
    """The UTC offset in force at the instant: the base offset, or that of the
    last transition at or before it, the transitions taken in order of instant."""
    offset = calendar.base_utc_offset_hours
    for instant, new_offset in sorted(calendar.transitions):
        if utc_instant >= instant:
            offset = new_offset
        else:
            break
    return offset


def local_time(calendar, hour_index: int) -> dt.datetime:
    """Naive local wall-clock time of the hour."""
    utc = utc_time(calendar, hour_index)
    return (utc + dt.timedelta(hours=offset_hours_at(calendar, utc))).replace(tzinfo=None)
