"""Exception types shared across the package."""


class BtAgentsError(Exception):
    """Base class for every error raised by this package."""


# --- data loading / validation ---

class MalformedRow(BtAgentsError):
    """A CSV row could not be parsed; carries the file and 1-based line number."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class InvariantViolation(BtAgentsError):
    """A domain value violates its declared invariant (e.g. high < low)."""


class DuplicateDate(BtAgentsError):
    """The same calendar date appears twice in one series."""


class GapError(BtAgentsError):
    """A required series is missing a date and the gap policy forbids filling it."""

    def __init__(self, series: str, date):
        super().__init__(f"series '{series}' has no value for {date}")
        self.series = series
        self.date = date


class DateNotFound(BtAgentsError):
    """Requested date is not present in the dataset."""


# --- windowed computations ---

class WindowTooShort(BtAgentsError):
    """Not enough observations for the requested window."""


class EmptyWindow(BtAgentsError):
    """An operation that needs at least one observation got none."""


class ZeroVolume(BtAgentsError):
    """Volume-weighted computation over a window with zero total volume."""


class DegenerateRange(BtAgentsError):
    """Directional-strength computation where every true range is zero."""


# --- metrics ---

class NonPositiveValue(BtAgentsError):
    """Return computation requires strictly positive portfolio values."""


class ZeroDispersion(BtAgentsError):
    """Sample dispersion is undefined for fewer than two returns."""


class LengthMismatch(BtAgentsError):
    """Two aligned series have different lengths."""


class CoverageError(BtAgentsError):
    """A segmentation does not cover the dates it is applied to."""


# --- network / LLM responses ---

class NetworkError(BtAgentsError):
    """Transport failure that survived all retry attempts."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(f"{message} (after {attempts} attempt(s))")
        self.attempts = attempts


class SchemaError(BtAgentsError):
    """A response parsed as JSON but is missing or mistyping required fields."""


class ParseError(BtAgentsError):
    """No JSON object could be extracted from a response."""


class RangeError(BtAgentsError):
    """A parsed field is outside its allowed range."""


# --- run bookkeeping ---

class MissingAgentRecord(BtAgentsError):
    """A day outcome is incomplete: an agent's record is absent."""


class IncompleteWeek(BtAgentsError):
    """Weekly feedback requires exactly seven completed days."""


class JournalCorrupt(BtAgentsError):
    """A journal record fails its digest check or cannot be recomputed."""


class ConfigError(BtAgentsError):
    """A run config has an unknown key, a missing key or a bad value."""
