import importlib.util

import numpy as np
import pytest

from conftest import FIXTURES
from dsmsched.domain import TimeGrid
from dsmsched.errors import InputError
from dsmsched.profiles import (
    NeighborLoads,
    PriceSeries,
    PvSeries,
    canonical_neighbor_loads,
    canonical_price_profile,
    canonical_pv_profile,
    load_neighbor_loads,
    load_series,
    synth_pv_profile,
    write_neighbor_loads,
    write_series,
)

GRID6 = TimeGrid(slot_count=6, slot_hours=0.5)
BOM = b"\xef\xbb\xbf"


def _bom_copy(tmp_path, name):
    """A copy of fixture `name` with a leading UTF-8 byte-order mark."""
    p = tmp_path / name
    p.write_bytes(BOM + (FIXTURES / name).read_bytes())
    return p


def test_price_series_rejects_negative():
    with pytest.raises(ValueError):
        PriceSeries(values=(0.05, -0.01))
    arr = PriceSeries(values=(0.05, 0.08)).as_array()
    assert arr.dtype == float
    assert arr.tolist() == [0.05, 0.08]


def test_pv_series_bounds():
    PvSeries(values=(0.0, 2.0), capacity_kw=2.0)
    with pytest.raises(ValueError):
        PvSeries(values=(0.0, 2.2), capacity_kw=2.0)
    with pytest.raises(ValueError):
        PvSeries(values=(-0.1, 1.0), capacity_kw=2.0)
    with pytest.raises(ValueError):
        PvSeries(values=(0.0,), capacity_kw=0.0)


class TestNeighborLoads:
    def test_shape_accessors(self):
        loads = NeighborLoads(per_house=((1.0, 2.0), (0.5, 0.5)))
        assert loads.house_count == 2
        assert loads.slot_count == 2
        assert loads.as_array().shape == (2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborLoads(per_house=())
        with pytest.raises(ValueError):
            NeighborLoads(per_house=((1.0, 2.0), (0.5,)))
        with pytest.raises(ValueError):
            NeighborLoads(per_house=((1.0, -2.0),))


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        values = [0.1, 0.2, 0.333333, 0.0, 5.0, 1.5]
        write_series(p, values)
        assert load_series(p, GRID6) == pytest.approx(values, abs=5e-7)

    def test_slot_order_enforced(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("slot,value\n1,0.1\n3,0.2\n")
        with pytest.raises(InputError, match="out of order"):
            load_series(p, GRID6)

    def test_header_required(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value\n1,0.1\n")
        with pytest.raises(InputError, match="header"):
            load_series(p, GRID6)

    def test_length_must_match_grid(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series(p, [0.1] * 4)
        with pytest.raises(InputError, match="grid expects 6"):
            load_series(p, GRID6)

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("slot,value\n1,0.1\n2,abc\n")
        with pytest.raises(InputError, match=r"s.csv:3"):
            load_series(p, GRID6)

    @pytest.mark.parametrize("text, message", [
        ("slot,value,junk\n1,0.1,x\n", r"s.csv: expected header slot,value"),
        ("slot,value\n1,0.1\n2,0.2,9\n", r"s.csv:3: expected 2 columns"),
        ("slot,value\n1,0.1\n2\n", r"s.csv:3: expected 2 columns"),
    ], ids=["extra_header_column", "long_row", "short_row"])
    def test_exactly_two_columns(self, tmp_path, text, message):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(InputError, match=message):
            load_series(p, GRID6)

    def test_overlong_field_is_an_input_error(self, tmp_path):
        # csv's field size limit raises csv.Error, not an OSError
        p = tmp_path / "s.csv"
        p.write_text("slot,value\n1," + "9" * 200_000 + "\n")
        with pytest.raises(InputError, match=r"cannot read series .*s.csv: field larger"):
            load_series(p, GRID6)

    @pytest.mark.parametrize("name", ["price_day_ahead.csv", "pv_6kw.csv"])
    def test_byte_order_mark_is_dropped(self, tmp_path, grid48, name):
        bom = load_series(_bom_copy(tmp_path, name), grid48)
        assert bom == load_series(FIXTURES / name, grid48)


class TestNeighborCsv:
    def test_round_trip(self, tmp_path):
        loads = NeighborLoads(per_house=((1.0, 2.25, 0.0), (0.5, 0.5, 3.125)))
        p = tmp_path / "n.csv"
        write_neighbor_loads(p, loads)
        again = load_neighbor_loads(p, TimeGrid(slot_count=3, slot_hours=0.5))
        assert np.allclose(again.as_array(), loads.as_array(), atol=5e-7)

    def test_column_count_enforced(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("slot,h1,h2\n1,1.0\n")
        with pytest.raises(InputError, match="columns"):
            load_neighbor_loads(p, TimeGrid(slot_count=1, slot_hours=0.5))

    def test_byte_order_mark_is_dropped(self, tmp_path, grid48, canonical_neighbors):
        bom = load_neighbor_loads(_bom_copy(tmp_path, "neighbor_loads.csv"), grid48)
        assert bom == canonical_neighbors

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        p = tmp_path / "n.csv"
        p.write_text(f"slot,h1,h2\n1,1.0,0.5\n2,{value},0.5\n")
        with pytest.raises(InputError, match=r"n.csv:3: bad row"):
            load_neighbor_loads(p, TimeGrid(slot_count=2, slot_hours=0.5))


class TestSynthPv:
    def test_peak_equals_capacity(self):
        pv = synth_pv_profile(4.0, sunrise_slot=10, sunset_slot=40)
        values = pv.as_array()
        assert values.max() == pytest.approx(4.0)
        assert values[:9].sum() == 0.0
        assert values[39:].sum() == 0.0
        # symmetric bell
        day = values[9:39]
        assert day == pytest.approx(day[::-1])

    def test_cloud_dip_scales_one_slot(self):
        clear = synth_pv_profile(4.0, 10, 40)
        dipped = synth_pv_profile(4.0, 10, 40, cloud_dips=((25, 0.25),))
        assert dipped.values[24] == pytest.approx(clear.values[24] * 0.25)
        others = [t for t in range(48) if t != 24]
        assert [dipped.values[t] for t in others] == pytest.approx(
            [clear.values[t] for t in others]
        )

    @pytest.mark.parametrize("kwargs", [
        {"capacity_kw": 0.0, "sunrise_slot": 10, "sunset_slot": 40},
        {"capacity_kw": 4.0, "sunrise_slot": 40, "sunset_slot": 10},
        {"capacity_kw": 4.0, "sunrise_slot": 0, "sunset_slot": 10},
        {"capacity_kw": 4.0, "sunrise_slot": 10, "sunset_slot": 40,
         "cloud_dips": ((60, 0.5),)},
        {"capacity_kw": 4.0, "sunrise_slot": 10, "sunset_slot": 40,
         "cloud_dips": ((20, 1.5),)},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            synth_pv_profile(**kwargs)


def test_canonical_price_tiers():
    price = canonical_price_profile()
    assert len(price.values) == 48
    for t in range(1, 49):
        v = price.values[t - 1]
        if t <= 12 or t >= 45:
            assert v == 0.04
        elif 35 <= t <= 40:
            assert v == 0.13
        else:
            assert v == 0.08


def test_canonical_pv_shape():
    pv = canonical_pv_profile()
    assert pv.capacity_kw == 6.0
    values = pv.as_array()
    assert len(values) == 48
    assert values[:12].sum() == 0.0  # night
    assert values[36:].sum() == 0.0
    clear = synth_pv_profile(6.0, 13, 37)
    assert pv.values[26] == pytest.approx(clear.values[26] * 0.5)
    assert pv.values[27] == pytest.approx(clear.values[27] * 0.5)


def test_canonical_neighbors_double_hump():
    loads = canonical_neighbor_loads()
    assert loads.house_count == 12
    # all houses share the profile
    arr = loads.as_array()
    assert (arr == arr[0]).all()
    house = arr[0]
    assert house.min() >= 0.6 - 1e-9
    peak_slot = int(house.argmax()) + 1
    assert peak_slot == 36  # evening, 17:30-18:00
    assert 5.0 < house.max() < 6.0
    # morning bump exists but stays below the evening peak
    morning = house[12:24].max()
    assert 2.0 < morning < house.max()


@pytest.mark.parametrize("name,builder", [
    ("price_day_ahead.csv", lambda: canonical_price_profile().as_array()),
    ("pv_6kw.csv", lambda: canonical_pv_profile().as_array()),
])
def test_fixture_files_match_builders(name, builder, grid48):
    on_disk = np.array(load_series(FIXTURES / name, grid48))
    assert np.allclose(on_disk, builder(), atol=5e-7)


def test_neighbor_fixture_matches_builder(grid48):
    on_disk = load_neighbor_loads(FIXTURES / "neighbor_loads.csv", grid48)
    assert np.allclose(
        on_disk.as_array(), canonical_neighbor_loads().as_array(), atol=5e-7
    )


def test_fixture_writers_are_byte_exact(tmp_path, monkeypatch, capsys):
    # scripts/generate_fixtures.py, pointed at an empty directory, must
    # rewrite every file under fixtures/ byte for byte, CRLF line ends included
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", FIXTURES.parent / "scripts" / "generate_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    script.main()
    names = sorted(p.name for p in FIXTURES.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        data = (tmp_path / name).read_bytes()
        assert data == (FIXTURES / name).read_bytes(), name
        if name.endswith(".csv"):
            assert data.count(b"\r\n") == data.count(b"\n") > 0, name
