"""Core data model: the time grid, appliances, and on/off schedules.

Slots are numbered 1..T in every user-facing structure (CSV files, on-slot
lists, reports).  Matrix columns are 0-based internally; helpers on
:class:`Schedule` translate between the two.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "TimeGrid",
    "ApplianceClass",
    "Appliance",
    "Schedule",
    "ValidationIssue",
    "effective_window",
    "validate_appliance_set",
    "aggregate_power",
    "schedule_from_on_slots",
    "finite_float",
    "whole_int",
    "require_finite",
    "parse_appliance_row",
    "read_csv",
    "write_csv",
    "load_appliances_csv",
    "load_schedule_csv",
    "write_schedule_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform scheduling horizon of `slot_count` slots of `slot_hours` each."""

    slot_count: int = 48
    slot_hours: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.slot_count, bool) or not isinstance(self.slot_count, (int, np.integer)):
            raise ValueError(f"slot_count must be a whole int, got {self.slot_count!r}")
        require_finite(self, "slot_hours")
        if self.slot_count < 1:
            raise ValueError(f"slot_count must be >= 1, got {self.slot_count}")
        if self.slot_count > 0xFFFF:
            # the optimizer's genotypes hold a slot number in two bytes at most
            raise ValueError(f"slot_count must be <= 65535, got {self.slot_count}")
        if self.slot_hours <= 0:
            raise ValueError(f"slot_hours must be > 0, got {self.slot_hours}")

    def slots(self) -> range:
        """All slot numbers, 1-based."""
        return range(1, self.slot_count + 1)


class ApplianceClass(Enum):
    BASELINE = "baseline"
    UNINTERRUPTIBLE = "uninterruptible"
    INTERRUPTIBLE = "interruptible"


@dataclass(frozen=True)
class Appliance:
    """One household appliance and its scheduling envelope.

    `window_start`/`window_end` bound the slots the appliance may run in,
    `duration` is the required number of on-slots, and `original_on_slots`
    is the household's unoptimized plan (ascending, 1-based).  Construction
    accepts inconsistent combinations; `validate_appliance_set` reports them.
    """

    id: int
    appliance_class: ApplianceClass
    window_start: int
    window_end: int
    duration: int
    rated_kw: float
    original_on_slots: tuple[int, ...]


def effective_window(appliance: Appliance) -> tuple[int, int]:
    """Scheduling window actually honored: the declared window widened, if
    needed, to cover the original on-slots.

    The original plan is the reference point for shift penalties and must
    itself be reachable, so a declared window that excludes part of it is
    treated as the hull of both.
    """
    lo, hi = appliance.window_start, appliance.window_end
    if appliance.original_on_slots:
        lo = min(lo, appliance.original_on_slots[0])
        hi = max(hi, appliance.original_on_slots[-1])
    return (lo, hi)


class Schedule:
    """Binary on/off matrix, one row per appliance, one column per slot."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray):
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise ValueError(f"schedule matrix must be 2-D, got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("schedule matrix entries must be 0 or 1")
        arr = arr.astype(np.int8, copy=True)
        arr.setflags(write=False)
        self._matrix = arr

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def appliance_count(self) -> int:
        return self._matrix.shape[0]

    @property
    def slot_count(self) -> int:
        return self._matrix.shape[1]

    def on_slots(self, row: int) -> tuple[int, ...]:
        """Ascending 1-based slot numbers where appliance `row` is on."""
        return tuple(int(c) + 1 for c in np.flatnonzero(self._matrix[row]))

    def to_on_slots(self) -> list[tuple[int, ...]]:
        return [self.on_slots(r) for r in range(self.appliance_count)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._matrix.shape == other._matrix.shape and bool(
            np.array_equal(self._matrix, other._matrix)
        )

    def __hash__(self) -> int:
        return hash((self._matrix.shape, self._matrix.tobytes()))

    def __repr__(self) -> str:
        return f"Schedule({self.appliance_count} appliances x {self.slot_count} slots)"


def schedule_from_on_slots(on_slots: Sequence[Sequence[int]], slot_count: int) -> Schedule:
    """Build a Schedule from per-appliance ascending 1-based on-slot lists."""
    matrix = np.zeros((len(on_slots), slot_count), dtype=np.int8)
    for row, slots in enumerate(on_slots):
        seen: set[int] = set()
        for s in slots:
            s = int(s)
            if not 1 <= s <= slot_count:
                raise ValueError(
                    f"appliance row {row}: slot {s} outside 1..{slot_count}"
                )
            if s in seen:
                raise ValueError(f"appliance row {row}: duplicate slot {s}")
            seen.add(s)
            matrix[row, s - 1] = 1
    return Schedule(matrix)


def aggregate_power(schedule: Schedule, appliances: Sequence[Appliance]) -> np.ndarray:
    """Gross household kW per slot, in the one order gross load is summed:
    the baseline rows' ratings, then the flexible rows', each added in
    appliance order from zero, and the two sums added.
    `SearchSpace.gross_rows` is its batched form."""
    if schedule.appliance_count != len(appliances):
        raise ValueError(
            f"schedule has {schedule.appliance_count} rows but "
            f"{len(appliances)} appliances were given"
        )
    count = schedule.slot_count
    rows, slots = np.nonzero(schedule.matrix)  # row by row
    rated = np.array([a.rated_kw for a in appliances])
    flexible = np.array([a.appliance_class is not ApplianceClass.BASELINE for a in appliances], bool)
    # bincount adds each cell's weights in the order given, from zero; the
    # float cast covers a schedule with nothing on, where it counts ints
    sums = np.bincount(slots + count * flexible[rows], rated[rows], 2 * count)
    base, flex = sums.reshape(2, -1).astype(float, copy=False)
    return base + flex


# validation ----------------------------------------------------------------

ISSUE_WINDOW_RANGE = "window_out_of_range"
ISSUE_DURATION = "duration_exceeds_window"
ISSUE_RATED = "nonpositive_rated_kw"
ISSUE_ORIGINAL_LENGTH = "original_length_mismatch"
ISSUE_ORIGINAL_ORDER = "original_not_ascending"
ISSUE_ORIGINAL_RANGE = "original_slot_out_of_range"
ISSUE_ORIGINAL_WINDOW = "original_outside_window"
ISSUE_BASELINE_FIXED = "baseline_not_always_on"
ISSUE_NOT_CONTIGUOUS = "original_not_contiguous"
ISSUE_DUPLICATE_ID = "duplicate_id"


@dataclass(frozen=True)
class ValidationIssue:
    appliance_id: int
    kind: str
    message: str


def validate_appliance_set(appliances: Sequence[Appliance], grid: TimeGrid) -> list[ValidationIssue]:
    """The issues of the appliance definitions on the grid; never raises."""
    issues: list[ValidationIssue] = []
    slot_count = grid.slot_count
    seen_ids: set[int] = set()

    def issue(a: Appliance, kind: str, message: str) -> None:
        issues.append(ValidationIssue(a.id, kind, message))

    for a in appliances:
        if a.id in seen_ids:
            issue(a, ISSUE_DUPLICATE_ID, f"appliance id {a.id} appears more than once")
        seen_ids.add(a.id)

        if not (1 <= a.window_start <= a.window_end <= slot_count):
            issue(
                a,
                ISSUE_WINDOW_RANGE,
                f"window {a.window_start}..{a.window_end} not within 1..{slot_count}",
            )
            continue  # remaining checks assume a sane window
        if not (1 <= a.duration <= a.window_end - a.window_start + 1):
            issue(
                a,
                ISSUE_DURATION,
                f"duration {a.duration} does not fit window "
                f"{a.window_start}..{a.window_end}",
            )
        if a.rated_kw <= 0:
            issue(a, ISSUE_RATED, f"rated_kw must be positive, got {a.rated_kw}")

        slots = a.original_on_slots
        if len(slots) != a.duration:
            issue(
                a,
                ISSUE_ORIGINAL_LENGTH,
                f"original plan has {len(slots)} slots, duration is {a.duration}",
            )
        if any(b <= a_ for a_, b in zip(slots, slots[1:])):
            issue(a, ISSUE_ORIGINAL_ORDER, "original on-slots must be strictly ascending")
            continue
        if slots and not (1 <= slots[0] and slots[-1] <= slot_count):
            issue(a, ISSUE_ORIGINAL_RANGE, f"original on-slots {slots} leave 1..{slot_count}")
            continue

        if a.appliance_class is ApplianceClass.BASELINE:
            always_on = (
                a.window_start == 1
                and a.window_end == slot_count
                and a.duration == slot_count
                and slots == tuple(range(1, slot_count + 1))
            )
            if not always_on:
                issue(a, ISSUE_BASELINE_FIXED, "baseline appliances must run in every slot")
            continue

        if a.appliance_class is ApplianceClass.UNINTERRUPTIBLE and slots:
            if slots[-1] - slots[0] + 1 != len(slots):
                issue(a, ISSUE_NOT_CONTIGUOUS, f"original run {slots} has gaps")

        if slots and (slots[0] < a.window_start or slots[-1] > a.window_end):
            lo, hi = effective_window(a)
            issue(
                a,
                ISSUE_ORIGINAL_WINDOW,
                f"original on-slots {slots} fall outside window "
                f"{a.window_start}..{a.window_end}; widened to {lo}..{hi}",
            )

    return issues


# file formats ---------------------------------------------------------------

_CLASS_BY_NAME = {c.value: c for c in ApplianceClass}


def finite_float(value) -> float:
    """`value` as a float; a ValueError for NaN, infinities and booleans,
    which float() would accept."""
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def require_finite(obj, *fields: str) -> None:
    """A ValueError naming the first of `obj`'s `fields` that holds NaN or
    an infinity, alone or in tuples: a range check lets NaN through."""
    for field in fields:
        values = np.asarray(getattr(obj, field), dtype=float)
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"{field} must be finite, got {bad[0]}")


def whole_int(value) -> int:
    """`value` as an int; a ValueError for booleans and for numbers with a
    fractional part, which int() would accept or truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


def _parse_on_slots(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(";"))


def parse_appliance_row(row) -> Appliance:
    """One appliance from an appliance-table row or an inline config object.

    `original_slots` is a `;`-separated string or a list of slot numbers.
    Any problem is a ValueError; the caller says which row it came from.
    """
    try:
        cls = _CLASS_BY_NAME.get(str(row["class"]).strip().lower())
        if cls is None:
            raise ValueError(f"unknown appliance class {row['class']!r}")
        slots = row.get("original_slots", "")
        return Appliance(
            id=whole_int(row["id"]),
            appliance_class=cls,
            window_start=whole_int(row["window_start"]),
            window_end=whole_int(row["window_end"]),
            duration=whole_int(row["duration"]),
            rated_kw=finite_float(row["rated_kw"]),
            original_on_slots=(
                _parse_on_slots(slots) if isinstance(slots, str)
                else tuple(whole_int(s) for s in slots)
            ),
        )
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except (AttributeError, TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from None


def read_csv(path: Path, what: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of the CSV file at `path` and its non-blank rows, each with
    its line number.

    The file is read as UTF-8, a leading byte-order mark (as spreadsheet
    tools write) dropped; a file that cannot be read, decoded or split
    into fields is an InputError naming `what` and the path.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            return header, [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write `header` and then `rows` to `path` as CSV with CRLF line ends."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_appliances_csv(path: str | Path) -> list[Appliance]:
    """Read an appliance table.

    Columns: id, class, window_start, window_end, duration, rated_kw,
    original_slots (semicolon-separated slot numbers).
    """
    path = Path(path)
    header, rows = read_csv(path, "appliance table")
    required = {
        "id", "class", "window_start", "window_end",
        "duration", "rated_kw", "original_slots",
    }
    missing = sorted(required - set(header))
    if missing:
        raise InputError(f"{path}: missing columns {missing}")
    appliances = []
    for lineno, row in rows:
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} columns")
        try:
            appliances.append(parse_appliance_row(dict(zip(header, row))))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    if not appliances:
        raise InputError(f"{path}: no appliance rows")
    return appliances


def load_schedule_csv(
    path: str | Path, appliances: Sequence[Appliance], grid: TimeGrid
) -> Schedule:
    """Read a schedule in on-slots form (columns: id, on_slots).

    Every appliance id must appear exactly once; row order in the file is
    irrelevant, the result follows `appliances` order.
    """
    path = Path(path)
    header, rows = read_csv(path, "schedule")
    if not {"id", "on_slots"}.issubset(header):
        raise InputError(f"{path}: expected columns id,on_slots")
    by_id: dict[int, tuple[int, ...]] = {}
    for lineno, row in rows:
        if len(row) > len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} columns")
        row = dict(zip_longest(header, row))
        if row["id"] is None or row["on_slots"] is None:
            raise InputError(f"{path}:{lineno}: too few fields, expected id,on_slots")
        try:
            aid = int(row["id"])
            slots = _parse_on_slots(row["on_slots"])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if aid in by_id:
            raise InputError(f"{path}:{lineno}: duplicate appliance id {aid}")
        by_id[aid] = slots

    missing = [a.id for a in appliances if a.id not in by_id]
    if missing:
        raise InputError(f"{path}: no rows for appliance ids {missing}")
    extra = sorted(set(by_id) - {a.id for a in appliances})
    if extra:
        raise InputError(f"{path}: unknown appliance ids {extra}")
    try:
        return schedule_from_on_slots([by_id[a.id] for a in appliances], grid.slot_count)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_schedule_csv(
    path: str | Path, schedule: Schedule, appliances: Sequence[Appliance]
) -> None:
    write_csv(path, ["id", "on_slots"], (
        [a.id, ";".join(map(str, slots))]
        for a, slots in zip(appliances, schedule.to_on_slots())
    ))
