import numpy as np
import pytest
from hypothesis import given, strategies as st

from dsmsched.domain import (
    Appliance,
    ApplianceClass,
    ISSUE_BASELINE_FIXED,
    ISSUE_DURATION,
    ISSUE_DUPLICATE_ID,
    ISSUE_NOT_CONTIGUOUS,
    ISSUE_ORIGINAL_LENGTH,
    ISSUE_ORIGINAL_ORDER,
    ISSUE_ORIGINAL_WINDOW,
    ISSUE_RATED,
    ISSUE_WINDOW_RANGE,
    Schedule,
    TimeGrid,
    aggregate_power,
    effective_window,
    load_appliances_csv,
    load_schedule_csv,
    schedule_from_on_slots,
    validate_appliance_set,
    write_schedule_csv,
)
from conftest import FIXTURES
from dsmsched.errors import InputError

BOM = b"\xef\xbb\xbf"


def make(aid=1, cls=ApplianceClass.INTERRUPTIBLE, window=(1, 12), duration=2,
         rated=1.0, original=(3, 4)):
    return Appliance(
        id=aid,
        appliance_class=cls,
        window_start=window[0],
        window_end=window[1],
        duration=duration,
        rated_kw=rated,
        original_on_slots=tuple(original),
    )


class TestTimeGrid:
    def test_defaults(self):
        grid = TimeGrid()
        assert grid.slot_count == 48
        assert grid.slot_hours == 0.5
        assert list(grid.slots())[0] == 1
        assert list(grid.slots())[-1] == 48

    @pytest.mark.parametrize("kwargs", [
        {"slot_count": 0},
        {"slot_count": -3},
        {"slot_count": 0x10000},  # a genotype holds a slot in two bytes at most
        {"slot_hours": 0.0},
        {"slot_hours": -0.5},
    ])
    def test_rejects_bad_dimensions(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)


def test_appliance_helpers():
    a = make(cls=ApplianceClass.UNINTERRUPTIBLE, window=(2, 9))
    assert (a.window_start, a.window_end) == (2, 9)


def test_effective_window_is_hull_of_window_and_original():
    inside = make(window=(1, 12), original=(3, 4))
    assert effective_window(inside) == (1, 12)
    # original run escapes the declared window on the right
    escaped = make(window=(2, 6), original=(9, 10))
    assert effective_window(escaped) == (2, 10)
    left = make(window=(5, 9), original=(1, 6))
    assert effective_window(left) == (1, 9)


class TestSchedule:
    def test_round_trip_on_slots(self):
        sched = schedule_from_on_slots([(1, 3), (2,), ()], slot_count=4)
        assert sched.appliance_count == 3
        assert sched.slot_count == 4
        assert sched.on_slots(0) == (1, 3)
        assert sched.on_slots(2) == ()
        assert sched.to_on_slots() == [(1, 3), (2,), ()]

    def test_matrix_is_read_only(self):
        sched = schedule_from_on_slots([(1,)], slot_count=2)
        with pytest.raises(ValueError):
            sched.matrix[0, 0] = 0

    def test_rejects_non_binary_and_wrong_dims(self):
        with pytest.raises(ValueError):
            Schedule(np.array([[0, 2]]))
        with pytest.raises(ValueError):
            Schedule(np.zeros(4))

    def test_slot_bounds_and_duplicates(self):
        with pytest.raises(ValueError, match="outside"):
            schedule_from_on_slots([(5,)], slot_count=4)
        with pytest.raises(ValueError, match="duplicate"):
            schedule_from_on_slots([(2, 2)], slot_count=4)

    def test_equality_and_hash(self):
        a = schedule_from_on_slots([(1, 2)], slot_count=3)
        b = schedule_from_on_slots([(1, 2)], slot_count=3)
        c = schedule_from_on_slots([(1, 3)], slot_count=3)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a schedule"


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=10), max_size=10, unique=True),
        min_size=1,
        max_size=5,
    )
)
def test_schedule_round_trip_property(rows):
    sched = schedule_from_on_slots(rows, slot_count=10)
    assert sched.to_on_slots() == [tuple(sorted(r)) for r in rows]


def test_aggregate_power():
    apps = [make(aid=1, rated=2.0), make(aid=2, rated=0.5)]
    sched = schedule_from_on_slots([(1, 2), (2, 3)], slot_count=3)
    assert aggregate_power(sched, apps).tolist() == [2.0, 2.5, 0.5]
    with pytest.raises(ValueError):
        aggregate_power(sched, apps[:1])


def kinds(issues):
    return {i.kind for i in issues}


class TestValidation:
    GRID = TimeGrid(slot_count=12, slot_hours=0.5)

    def check(self, *apps):
        return validate_appliance_set(list(apps), self.GRID)

    def test_clean_set(self):
        apps = (
            make(aid=1, cls=ApplianceClass.BASELINE, window=(1, 12), duration=12,
                 original=tuple(range(1, 13))),
            make(aid=2, cls=ApplianceClass.UNINTERRUPTIBLE, duration=3, original=(4, 5, 6)),
            make(aid=3, duration=2, original=(7, 9)),
        )
        assert not self.check(*apps)
        assert [effective_window(a) for a in apps] == [(a.window_start, a.window_end) for a in apps]

    def test_window_out_of_range(self):
        assert ISSUE_WINDOW_RANGE in kinds(self.check(make(window=(0, 12))))
        assert ISSUE_WINDOW_RANGE in kinds(self.check(make(window=(1, 13))))
        assert ISSUE_WINDOW_RANGE in kinds(self.check(make(window=(9, 3))))

    def test_duration_must_fit_window(self):
        assert ISSUE_DURATION in kinds(self.check(
            make(window=(4, 6), duration=4, original=(4, 5, 6, 7))
        ))
        assert ISSUE_DURATION in kinds(self.check(make(duration=0, original=())))

    def test_rated_power(self):
        assert ISSUE_RATED in kinds(self.check(make(rated=0.0)))
        assert ISSUE_RATED in kinds(self.check(make(rated=-1.2)))

    def test_original_plan_shape(self):
        assert ISSUE_ORIGINAL_LENGTH in kinds(self.check(
            make(duration=3, original=(4, 5))
        ))
        assert ISSUE_ORIGINAL_ORDER in kinds(self.check(make(original=(5, 4))))
        assert ISSUE_ORIGINAL_ORDER in kinds(self.check(make(original=(4, 4))))

    def test_baseline_must_run_every_slot(self):
        issues = self.check(
            make(aid=1, cls=ApplianceClass.BASELINE, window=(1, 12), duration=12,
                 original=tuple(range(1, 13))[:-1] + (12,)),
            make(aid=2, cls=ApplianceClass.BASELINE, window=(1, 12), duration=11,
                 original=tuple(range(1, 12))),
        )
        assert kinds(issues) == {ISSUE_BASELINE_FIXED}

    def test_uninterruptible_original_contiguous(self):
        issues = self.check(
            make(cls=ApplianceClass.UNINTERRUPTIBLE, duration=3, original=(4, 5, 7))
        )
        assert ISSUE_NOT_CONTIGUOUS in kinds(issues)

    def test_original_outside_window_records_widened_window(self):
        a = make(aid=9, window=(2, 6), duration=2, original=(9, 10))
        issues = self.check(a)
        assert kinds(issues) == {ISSUE_ORIGINAL_WINDOW}
        assert effective_window(a) == (2, 10)
        assert issues[0].message.endswith("widened to 2..10")

    def test_duplicate_ids(self):
        issues = self.check(make(aid=5), make(aid=5, original=(6, 7)))
        assert ISSUE_DUPLICATE_ID in kinds(issues)


def test_canonical_table_flags_only_widened_windows(canonical_appliances, grid48):
    # two evening appliances declare a daytime window but originally run at
    # night; everything else in the table is clean
    issues = validate_appliance_set(canonical_appliances, grid48)
    assert kinds(issues) == {ISSUE_ORIGINAL_WINDOW}
    assert sorted(i.appliance_id for i in issues) == [6, 7]
    widened = {a.id: effective_window(a) for a in canonical_appliances if a.id in (6, 7)}
    assert widened == {6: (12, 26), 7: (12, 28)}
    assert [i.message.rsplit("; ", 1)[1] for i in issues] == [
        "widened to 12..26", "widened to 12..28"]


def test_canonical_table_shape(canonical_appliances):
    assert len(canonical_appliances) == 31
    assert [a.id for a in canonical_appliances] == list(range(1, 32))
    by_class = {}
    for a in canonical_appliances:
        by_class.setdefault(a.appliance_class, []).append(a.id)
    assert len(by_class[ApplianceClass.BASELINE]) == 3
    assert len(by_class[ApplianceClass.UNINTERRUPTIBLE]) == 7
    assert len(by_class[ApplianceClass.INTERRUPTIBLE]) == 21
    for a in canonical_appliances:
        assert len(a.original_on_slots) == a.duration


class TestApplianceCsv:
    def test_loads_canonical_table(self, canonical_appliances):
        # loader is exercised by the fixture; spot check one row
        a = canonical_appliances[0]
        assert a.id == 1
        assert a.appliance_class is ApplianceClass.BASELINE

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,class\n1,baseline\n")
        with pytest.raises(InputError, match="missing columns"):
            load_appliances_csv(p)

    def test_unknown_class_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "id,class,window_start,window_end,duration,rated_kw,original_slots\n"
            "1,sometimes,1,4,2,1.0,1;2\n"
        )
        with pytest.raises(InputError, match=r"bad.csv:2"):
            load_appliances_csv(p)

    def test_bad_number_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "id,class,window_start,window_end,duration,rated_kw,original_slots\n"
            "1,interruptible,1,4,2,1.0,1;2\n"
            "2,interruptible,1,four,2,1.0,1;2\n"
        )
        with pytest.raises(InputError, match=r"bad.csv:3"):
            load_appliances_csv(p)

    def test_short_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "id,class,window_start,window_end,duration,rated_kw,original_slots\n"
            "1,interruptible,1,4\n"
        )
        with pytest.raises(InputError, match=r"bad.csv:2"):
            load_appliances_csv(p)

    @pytest.mark.parametrize("row", ["1,interruptible,1,4,2,1.0,1;2,junk", "1,interruptible,1,4"],
                             ids=["wide", "short"])
    def test_row_of_the_wrong_width_names_line_and_width(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(
            "id,class,window_start,window_end,duration,rated_kw,original_slots\n"
            "2,interruptible,1,4,2,1.0,1;2\n"
            f"{row}\n"
        )
        with pytest.raises(InputError, match=r"bad.csv:3: expected 7 columns"):
            load_appliances_csv(p)

    def test_empty_table(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("id,class,window_start,window_end,duration,rated_kw,original_slots\n")
        with pytest.raises(InputError, match="no appliance rows"):
            load_appliances_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_appliances_csv(tmp_path / "nope.csv")

    def test_byte_order_mark_is_dropped(self, tmp_path, canonical_appliances):
        # spreadsheet tools save "CSV UTF-8" with a leading BOM
        p = tmp_path / "bom.csv"
        p.write_bytes(BOM + (FIXTURES / "appliances_household.csv").read_bytes())
        assert tuple(load_appliances_csv(p)) == canonical_appliances


class TestScheduleCsv:
    GRID = TimeGrid(slot_count=6, slot_hours=0.5)
    APPS = [make(aid=3, window=(1, 6), original=(1, 2)),
            make(aid=7, window=(1, 6), original=(5, 6))]

    def test_round_trip_preserves_appliance_order(self, tmp_path):
        sched = schedule_from_on_slots([(2, 4), (1, 6)], slot_count=6)
        p = tmp_path / "sched.csv"
        write_schedule_csv(p, sched, self.APPS)
        again = load_schedule_csv(p, self.APPS, self.GRID)
        assert again == sched

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = b"id,on_slots\r\n7,1;6\r\n3,2;4\r\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        bom.write_bytes(BOM + text)
        sched = load_schedule_csv(bom, self.APPS, self.GRID)
        assert sched == load_schedule_csv(plain, self.APPS, self.GRID)
        assert sched.to_on_slots() == [(2, 4), (1, 6)]

    def test_file_order_irrelevant(self, tmp_path):
        p = tmp_path / "sched.csv"
        p.write_text("id,on_slots\n7,1;6\n3,2;4\n")
        sched = load_schedule_csv(p, self.APPS, self.GRID)
        assert sched.on_slots(0) == (2, 4)  # appliance 3 first
        assert sched.on_slots(1) == (1, 6)

    def test_missing_and_unknown_ids(self, tmp_path):
        p = tmp_path / "sched.csv"
        p.write_text("id,on_slots\n3,2;4\n")
        with pytest.raises(InputError, match=r"no rows for appliance ids \[7\]"):
            load_schedule_csv(p, self.APPS, self.GRID)
        p.write_text("id,on_slots\n3,2;4\n7,1;6\n8,1\n")
        with pytest.raises(InputError, match=r"unknown appliance ids \[8\]"):
            load_schedule_csv(p, self.APPS, self.GRID)

    def test_duplicate_row(self, tmp_path):
        p = tmp_path / "sched.csv"
        p.write_text("id,on_slots\n3,2;4\n3,1;2\n7,1;6\n")
        with pytest.raises(InputError, match="duplicate appliance id 3"):
            load_schedule_csv(p, self.APPS, self.GRID)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "sched.csv"
        p.write_text("appliance,slots\n3,2;4\n")
        with pytest.raises(InputError, match="expected columns"):
            load_schedule_csv(p, self.APPS, self.GRID)
