"""Unit tests for CSV ingestion, joining, feature encoding, scaling and
splits.

Loader failures must name the file, row and column; the join drops
incomplete buildings with reasons instead of failing; the scaler is
checked by hand and by roundtrip; the splits are checked as exact
partitions.
"""

import contextlib
import csv
import gc
import io
import json
import shutil
from unittest import mock

import numpy as np
import pytest

from epc_pinn import data
from epc_pinn.data import (
    AUDIT_BUILDINGS_SCHEMA,
    AUDIT_COMPONENTS_SCHEMA,
    CONSUMPTION_SCHEMA,
    CONSUMPTION_YEARS,
    FEATURE_NAMES,
    LAND_SCHEMA,
    MONTHLY_SCHEMA,
    SERIES,
    MinMaxScaler,
    aggregate_consumption,
    build_matrices,
    encode_features,
    join_on_cadastre,
    kfold_split,
    load_cohort,
    load_dataset,
    train_val_split,
)
from epc_pinn.config import from_json
from epc_pinn.errors import ConfigError, DataError, DomainError
from epc_pinn.physics import COMPONENTS, check_states, u_value

LAND_HEADER = (
    "cadastre_number,floors,latitude_centroid,longitude_centroid,useful_area,"
    "geometry,apartments,serie,total_area,address,perimeter,building_type"
)
AUDIT_HEADER = (
    "cadastre_number,floors,length,width,useful_area,Avg_indoor_height,"
    "apartments,serie,total_area,air_exchange_rate,specific_heat_gains,"
    "building_type"
)
COMPONENTS_HEADER = (
    "cadastre_number,enclosing_structure,material,energy_consumption,area,"
    "structure_heat_loss_coefficient"
)
CONSUMPTION_HEADER = (
    "cadastre_number,total_energy_consumption_2017,total_energy_consumption_2018,"
    "total_energy_consumption_2019,total_energy_consumption_2020"
)


def land_row(number="01000000001", floors="3", apartments="24"):
    return (
        f"{number},{floors},56.95,24.10,850.0,RECT 20x10,{apartments},serie_03,1000.0,"
        "Main St 1,60.0,heavy"
    )


def write(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")


# Rows as {CSV column: cell value}; table() writes them under their
# schema's header and loads them.


def make_land(number="01000000001", **overrides):
    fields = dict(
        cadastre_number=number,
        floors=3,
        useful_area=850.0,
        total_area=1000.0,
        apartments=24,
        serie="serie_03",
        building_type="heavy",
        latitude_centroid=56.95,
        longitude_centroid=24.10,
        geometry="RECT 20x10",
        address="Main St 1",
        perimeter=60.0,
    )
    fields.update(overrides)
    return fields


def make_audit(number="01000000001", **overrides):
    """The columns of audit_buildings.csv that are read."""
    fields = dict(cadastre_number=number, air_exchange_rate=0.8, specific_heat_gains=15.0)
    fields.update(overrides)
    return fields


def make_components(number="01000000001", area=200.0, coefficient=100.0):
    return [
        dict(
            cadastre_number=number,
            enclosing_structure=name,
            material="brick",
            area=area,
            structure_heat_loss_coefficient=coefficient,
            energy_consumption=0.0,
        )
        for name in COMPONENTS
    ]


def make_consumption(number="01000000001", totals=None):
    if totals is None:
        totals = {2017: 1000.0, 2018: 1100.0, 2019: 900.0, 2020: 1000.0}
    fields = {f"total_energy_consumption_{year}": "" for year in CONSUMPTION_YEARS}
    fields.update({f"total_energy_consumption_{year}": v for year, v in totals.items()})
    return dict(cadastre_number=number, **fields)


def table(path, schema, rows):
    """rows written as the schema's CSV file at path, then loaded."""
    names = [c.name for c in schema.columns]
    write(path, ",".join(names), [",".join(str(row[name]) for name in names) for row in rows])
    return load_dataset(path, schema)


def joined(tmp_path, land, audit, components, consumption):
    """join_on_cadastre over the four tables of these rows."""
    return join_on_cadastre(
        table(tmp_path / "land.csv", LAND_SCHEMA, land),
        table(tmp_path / "audit_buildings.csv", AUDIT_BUILDINGS_SCHEMA, audit),
        table(tmp_path / "audit_components.csv", AUDIT_COMPONENTS_SCHEMA, components),
        table(tmp_path / "consumption.csv", CONSUMPTION_SCHEMA, consumption),
    )


class TestLoadDataset:
    def test_parses_rows_into_records(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row("01000000001"), land_row("01000000002")])
        land = load_dataset(path, LAND_SCHEMA)
        assert len(land) == 2
        assert land["cadastre_number"][0] == "01000000001"
        assert land["floors"][0] == 3
        assert land["useful_area"][0] == 850.0
        assert land["building_type"][0] == "heavy"
        assert land.index == {"01000000001": 0, "01000000002": 1}

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "absent.csv", LAND_SCHEMA)

    def test_empty_file_is_data_error(self, tmp_path):
        path = tmp_path / "land.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            load_dataset(path, LAND_SCHEMA)

    def test_header_only_gives_no_records(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [])
        land = load_dataset(path, LAND_SCHEMA)
        assert len(land) == 0
        assert all(len(values) == 0 for values in land.columns.values())

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "land.csv"
        header = LAND_HEADER.replace(",total_area", "")
        row = land_row().split(",")
        del row[8]  # total_area
        write(path, header, [",".join(row)])
        with pytest.raises(DataError, match="total_area"):
            load_dataset(path, LAND_SCHEMA)

    def test_bad_cell_names_file_row_and_column(self, tmp_path):
        """The header is line 1, so the first data row reports as row 2."""
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row(floors="many")])
        with pytest.raises(DataError) as err:
            load_dataset(path, LAND_SCHEMA)
        message = str(err.value)
        assert "land.csv" in message
        assert "row 2" in message
        assert "floors" in message

    def test_bad_cell_in_second_row_reports_row_three(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row("01000000001"), land_row("01000000002", floors="x")])
        with pytest.raises(DataError, match="row 3"):
            load_dataset(path, LAND_SCHEMA)

    def test_invariant_violation_reports_row(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row(floors="0")])
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path, LAND_SCHEMA)

    def test_short_row_reports_missing_column(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, ["01000000001,3"])
        with pytest.raises(DataError, match="short row"):
            load_dataset(path, LAND_SCHEMA)

    def test_duplicate_key_names_both_rows(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row("01000000001"), land_row("01000000001")])
        with pytest.raises(DataError) as err:
            load_dataset(path, LAND_SCHEMA)
        assert "duplicate" in str(err.value)
        assert "row 3" in str(err.value)
        assert "row 2" in str(err.value)

    def test_duplicate_component_pair_is_data_error(self, tmp_path):
        path = tmp_path / "components.csv"
        row = "01000000001,Walls,brick,0.0,300.0,150.0"
        write(path, COMPONENTS_HEADER, [row, row])
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path, AUDIT_COMPONENTS_SCHEMA)

    def test_same_building_different_structures_is_fine(self, tmp_path):
        path = tmp_path / "components.csv"
        write(
            path,
            COMPONENTS_HEADER,
            [
                "01000000001,Walls,brick,0.0,300.0,150.0",
                "01000000001,Windows,glass,0.0,50.0,120.0",
            ],
        )
        components = load_dataset(path, AUDIT_COMPONENTS_SCHEMA)
        assert len(components) == 2

    def test_unknown_structure_is_data_error(self, tmp_path):
        path = tmp_path / "components.csv"
        write(path, COMPONENTS_HEADER, ["01000000001,Chimney,brick,0.0,10.0,5.0"])
        with pytest.raises(DataError, match="Chimney"):
            load_dataset(path, AUDIT_COMPONENTS_SCHEMA)

    def test_consumption_mean_over_present_years(self, tmp_path):
        """Annual totals 1000/1100/900/1000 average to 1000."""
        path = tmp_path / "consumption.csv"
        write(path, CONSUMPTION_HEADER, ["01000000001,1000.0,1100.0,900.0,1000.0"])
        consumption = load_dataset(path, CONSUMPTION_SCHEMA)
        assert consumption["mean_annual"][0] == pytest.approx(1000.0)

    def test_consumption_mean_is_bitwise_numpy_mean(self, tmp_path):
        """Over random totals of one to twelve years (monthly files, one
        month per year) and of random subsets of the four annual columns,
        including values whose sum depends on the summation order."""
        rng = np.random.default_rng(11)
        cases = [[1e16, 1.0, 1.0, 0.0], [0.0], [-0.0], [3, 1e-300, 7.5, 1e300]]
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            scale = 10.0 ** rng.integers(-300, 300, size=n)
            cases.append(list(rng.uniform(0, 1, size=n) * scale))
        rows = [f"{i:05d},{2000 + k},1,{float(v)!r}"
                for i, totals in enumerate(cases) for k, v in enumerate(totals)]
        write(tmp_path / "monthly.csv", "cadastre_number,year,month,energy_consumption", rows)
        monthly = aggregate_consumption(load_dataset(tmp_path / "monthly.csv", MONTHLY_SCHEMA))
        for totals, mean in zip(cases, monthly["mean_annual"]):
            assert float(mean).hex() == float(np.mean(totals)).hex()
        annual = rng.uniform(0, 1, size=(3000, 4)) * 10.0 ** rng.integers(-300, 300, (3000, 4))
        present = rng.random((3000, 4)) < 0.6
        present[~present.any(axis=1), 0] = True
        consumption = table(tmp_path / "consumption.csv", CONSUMPTION_SCHEMA, [
            make_consumption(f"{i:05d}", {
                year: float(v) for year, v, keep in zip(CONSUMPTION_YEARS, totals, mask) if keep
            })
            for i, (totals, mask) in enumerate(zip(annual, present))
        ])
        for totals, mask, mean in zip(annual, present, consumption["mean_annual"]):
            kept = [v for v, keep in zip(totals, mask) if keep]
            assert float(mean).hex() == float(np.mean(kept)).hex()

    def test_consumption_skips_empty_years(self, tmp_path):
        """Only 2018 and 2020 present: mean of 1200 and 800 is 1000."""
        path = tmp_path / "consumption.csv"
        write(path, CONSUMPTION_HEADER, ["01000000001,,1200.0,,800.0"])
        consumption = load_dataset(path, CONSUMPTION_SCHEMA)
        totals = {year: consumption[f"total_energy_consumption_{year}"][0]
                  for year in CONSUMPTION_YEARS}
        assert {year: v for year, v in totals.items() if not np.isnan(v)} == {
            2018: 1200.0, 2020: 800.0}
        assert consumption["mean_annual"][0] == pytest.approx(1000.0)

    @pytest.mark.parametrize("cell, problem", [("abc", "not a number"),
                                                ("nan", "not finite")])
    def test_consumption_bad_year_names_row_and_column(self, tmp_path, cell, problem):
        path = tmp_path / "consumption.csv"
        write(path, CONSUMPTION_HEADER, [f"01000000001,1000.0,,{cell},800.0"])
        with pytest.raises(DataError) as err:
            load_dataset(path, CONSUMPTION_SCHEMA)
        assert str(err.value) == (
            f"{path} row 2, column 'total_energy_consumption_2019': {problem}: {cell!r}"
        )

    def test_consumption_with_no_years_is_data_error(self, tmp_path):
        path = tmp_path / "consumption.csv"
        write(path, CONSUMPTION_HEADER, ["01000000001,,,,"])
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path, CONSUMPTION_SCHEMA)

    def test_monthly_rows_are_keyed_by_building_year_and_month(self, tmp_path):
        path = tmp_path / "monthly.csv"
        write(
            path,
            "cadastre_number,year,month,energy_consumption",
            ["01000000001,2018,1,100.0", "01000000001,2018,2,90.0"],
        )
        monthly = load_dataset(path, MONTHLY_SCHEMA)
        assert len(monthly) == 2
        assert monthly["month"][1] == 2
        assert monthly.index == {("01000000001", 2018, 1): 0, ("01000000001", 2018, 2): 1}

    def test_repeated_monthly_row_is_data_error(self, tmp_path):
        """A repeated month would be summed twice into its year's total."""
        path = tmp_path / "monthly.csv"
        write(path, "cadastre_number,year,month,energy_consumption",
              ["01,2018,1,100.0", "01,2018,1,100.0", "01,2018,2,50.0"])
        with pytest.raises(DataError) as err:
            load_dataset(path, MONTHLY_SCHEMA)
        assert str(err.value) == (
            f"{path} row 3: duplicate key ('01', 2018, 1) (first seen at row 2)")

    def test_monthly_month_out_of_range_is_data_error(self, tmp_path):
        path = tmp_path / "monthly.csv"
        write(
            path,
            "cadastre_number,year,month,energy_consumption",
            ["01000000001,2018,13,100.0"],
        )
        with pytest.raises(DataError, match="month"):
            load_dataset(path, MONTHLY_SCHEMA)


    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        """As with csv.DictReader: the bad row after two blank lines is
        still the second data row, row 3."""
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row("01000000001"), "", "",
                                  land_row("01000000002", floors="x")])
        with pytest.raises(DataError, match="row 3, column 'floors'"):
            load_dataset(path, LAND_SCHEMA)

    def test_repeated_header_name_reads_the_last_column(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER + ",floors", [land_row(floors="3") + ",7"])
        assert load_dataset(path, LAND_SCHEMA)["floors"][0] == 7

    def test_extra_and_reordered_columns_are_allowed(self, tmp_path):
        path = tmp_path / "components.csv"
        write(
            path,
            "note,area,structure_heat_loss_coefficient,energy_consumption,"
            "material,enclosing_structure,cadastre_number",
            ["x,300.0,150.0,0.0,brick,Walls,01000000001"],
        )
        components = load_dataset(path, AUDIT_COMPONENTS_SCHEMA)
        assert len(components) == 1
        assert (components["cadastre_number"][0], components["enclosing_structure"][0]) == (
            "01000000001", "Walls")
        assert (components["area"][0], components["structure_heat_loss_coefficient"][0]) == (
            300.0, 150.0)

    def test_short_row_names_the_first_missing_schema_column(self, tmp_path):
        """Schema order, not file order: the file puts area last, but the
        schema asks for area before structure_heat_loss_coefficient."""
        path = tmp_path / "components.csv"
        write(
            path,
            "cadastre_number,enclosing_structure,material,"
            "structure_heat_loss_coefficient,area",
            ["01000000001,Walls,brick"],
        )
        with pytest.raises(DataError) as err:
            load_dataset(path, AUDIT_COMPONENTS_SCHEMA)
        assert str(err.value) == (
            f"{path} row 2: short row, no value for column 'area'"
        )

    def test_undecodable_bytes_are_data_error_naming_the_file(self, tmp_path):
        """A Latin-1 address (0xe2 is not UTF-8 here)."""
        path = tmp_path / "land.csv"
        path.write_bytes(
            (LAND_HEADER + "\n" + land_row()).replace("Main", "M\u00e2in").encode("latin-1")
        )
        with pytest.raises(DataError, match="land.csv.*can't decode byte 0xe2"):
            load_dataset(path, LAND_SCHEMA)

    def test_directory_in_place_of_the_file_is_data_error(self, tmp_path):
        path = tmp_path / "consumption.csv"
        path.mkdir()
        with pytest.raises(DataError, match="consumption.csv"):
            load_dataset(path, CONSUMPTION_SCHEMA)

    def test_csv_parser_error_is_data_error(self, tmp_path):
        path = tmp_path / "land.csv"
        huge = "x" * (csv.field_size_limit() + 1)
        write(path, LAND_HEADER, [land_row().replace("Main St 1", huge)])
        with pytest.raises(DataError, match="land.csv.*field larger than field limit"):
            load_dataset(path, LAND_SCHEMA)


def monthly_table(path, rows):
    """(cadastre_number, year, month, energy_consumption) rows, loaded."""
    return table(path, MONTHLY_SCHEMA, [
        dict(zip(("cadastre_number", "year", "month", "energy_consumption"), row))
        for row in rows
    ])


class TestAggregateConsumption:
    def test_single_year_sums_months(self, tmp_path):
        """Twelve months of 100 in 2018 total 1200; the mean over the one
        year is also 1200."""
        rows = [("01000000001", 2018, month, 100.0) for month in range(1, 13)]
        consumption = aggregate_consumption(monthly_table(tmp_path / "m.csv", rows))
        assert len(consumption) == 1
        years = [name for name in consumption.columns if name.startswith("total_energy")]
        assert years == ["total_energy_consumption_2018"]
        assert consumption["total_energy_consumption_2018"][0] == pytest.approx(1200.0)
        assert consumption["mean_annual"][0] == pytest.approx(1200.0)

    def test_mean_across_years(self, tmp_path):
        """2017 totals 1000, 2018 totals 3000: mean 2000."""
        rows = [
            ("01000000001", 2017, 1, 400.0),
            ("01000000001", 2017, 2, 600.0),
            ("01000000001", 2018, 1, 3000.0),
        ]
        consumption = aggregate_consumption(monthly_table(tmp_path / "m.csv", rows))
        assert consumption["total_energy_consumption_2017"][0] == pytest.approx(1000.0)
        assert consumption["total_energy_consumption_2018"][0] == pytest.approx(3000.0)
        assert consumption["mean_annual"][0] == pytest.approx(2000.0)

    def test_years_average_in_their_order_of_appearance(self, tmp_path):
        """Each building's mean adds its year totals in the order the
        years first appear in the file, as np.mean of that list would."""
        totals = [1e16, 1.0, 1.0, 1.0]  # the mean depends on the order
        assert np.mean(totals) != np.mean(totals[::-1])
        rows = [("01", 2017 + k, 1, v) for k, v in enumerate(totals)]
        rows += [("02", 2020 - k, 1, v) for k, v in enumerate(totals)]
        consumption = aggregate_consumption(monthly_table(tmp_path / "m.csv", rows))
        assert consumption["mean_annual"].tolist() == [np.mean(totals)] * 2

    def test_output_sorted_by_cadastre(self, tmp_path):
        rows = [("01000000009", 2018, 1, 10.0), ("01000000001", 2018, 1, 20.0)]
        consumption = aggregate_consumption(monthly_table(tmp_path / "m.csv", rows))
        assert consumption["cadastre_number"] == ["01000000001", "01000000009"]
        assert consumption.index == {"01000000001": 0, "01000000009": 1}

    def test_empty_input_gives_empty_output(self, tmp_path):
        assert len(aggregate_consumption(monthly_table(tmp_path / "m.csv", []))) == 0


class TestEncodeFeatures:
    def test_layout(self):
        """One row per building: five scalars then the twelve-wide serie
        one-hot block."""
        features = encode_features(
            [850.0, 90.5], [1000.0, 120.0], [3, 1], [24, 2], ["heavy", "light"],
            ["serie_03", "serie_12"])
        assert features.shape == (2, len(FEATURE_NAMES))
        vec = features[0]
        assert vec[0] == 850.0
        assert vec[1] == 1000.0
        assert vec[2] == 3.0
        assert vec[3] == 24.0
        assert vec[4] == 1.0  # heavy encodes as 1
        one_hot = vec[5:]
        assert one_hot.sum() == 1.0
        assert one_hot[SERIES.index("serie_03")] == 1.0
        assert features[1].tolist() == [90.5, 120.0, 1.0, 2.0, 0.0] + [0.0] * 11 + [1.0]

    def test_light_encodes_as_zero(self):
        [vec] = encode_features([850.0], [1000.0], [3], [24], ["light"], ["serie_01"])
        assert vec[4] == 0.0
        assert vec[5] == 1.0

    def test_unknown_serie_is_config_error(self):
        with pytest.raises(ConfigError, match="serie_01"):
            encode_features([850.0], [1000.0], [3], [24], ["heavy"], ["serie_99"])

    def test_unknown_building_type_is_config_error(self):
        with pytest.raises(ConfigError, match="light"):
            encode_features([850.0], [1000.0], [3], [24], ["mixed"], ["serie_01"])

    def test_the_first_unencodable_building_is_named(self):
        with pytest.raises(ConfigError, match="'serie_98'"):
            encode_features([850.0] * 3, [1000.0] * 3, [3] * 3, [24] * 3,
                            ["heavy", "heavy", "mixed"], ["serie_01", "serie_98", "serie_99"])

    def test_outside_training_range_names_each_field(self):
        """A scaler fitted on two heavy buildings of serie_01 and serie_02:
        a larger useful area, a light building and serie_05 are each one
        line; the floors and apartments at the fitted bounds are none."""
        scaler = MinMaxScaler.fit(encode_features(
            [100.0, 200.0], [150.0, 250.0], [2, 5], [4, 10], ["heavy"] * 2,
            ["serie_01", "serie_02"]))
        fields = dict(useful_area=300.0, total_area=250.0, floors=2, apartments=10,
                      building_type="light", serie="serie_05")
        [features] = encode_features(**{name: [value] for name, value in fields.items()})
        assert data.outside_training_range(fields, features, scaler) == [
            "useful_area 300.0 is outside the training range [100.0, 200.0]",
            "building_type 'light' is outside the training range (heavy)",
            "serie 'serie_05' is outside the training range (serie_01, serie_02)",
        ]
        fields.update(useful_area=100.0, building_type="heavy", serie="serie_02")
        [features] = encode_features(**{name: [value] for name, value in fields.items()})
        assert data.outside_training_range(fields, features, scaler) == []


class TestJoinOnCadastre:
    def test_complete_building_joins(self, tmp_path):
        """U-values come out as coefficient / area = 100 / 200 = 0.5 and
        the measured energy is the mean annual total."""
        cohort, dropped = joined(
            tmp_path, [make_land()], [make_audit()], make_components(), [make_consumption()]
        )
        assert dropped == []
        assert len(cohort) == 1
        arrays = build_matrices(cohort)
        assert arrays.cadastre_numbers == ["01000000001"]
        state = arrays.targets[0]
        assert np.all(state[:5] == 200.0)
        assert np.all(state[5:10] == 0.5)
        assert state[10] == 0.8
        assert state[11] == 15.0
        assert arrays.measured_energy[0] == pytest.approx(1000.0)
        assert arrays.useful_area[0] == 850.0
        assert arrays.building_types == ["heavy"]
        assert arrays.features[0, 0] == 850.0

    def test_missing_component_drops_with_reason(self, tmp_path):
        components = make_components()[:-1]  # drop the Windows row
        cohort, dropped = joined(
            tmp_path, [make_land()], [make_audit()], components, [make_consumption()]
        )
        assert len(cohort) == 0
        assert dropped == [("01000000001", "missing component: Windows")]

    def test_zero_area_component_drops_with_reason(self, tmp_path):
        components = make_components()
        components[3] = dict(
            cadastre_number="01000000001",
            enclosing_structure="Doors",
            material="wood",
            area=0.0,
            structure_heat_loss_coefficient=0.0,
            energy_consumption=0.0,
        )
        cohort, dropped = joined(
            tmp_path, [make_land()], [make_audit()], components, [make_consumption()]
        )
        assert len(cohort) == 0
        number, reason = dropped[0]
        assert number == "01000000001"
        assert "Doors" in reason and "U-value" in reason

    def test_missing_land_record_drops(self, tmp_path):
        cohort, dropped = joined(
            tmp_path, [], [make_audit()], make_components(), [make_consumption()]
        )
        assert len(cohort) == 0
        assert dropped == [("01000000001", "no land record")]

    def test_missing_audit_record_drops(self, tmp_path):
        cohort, dropped = joined(
            tmp_path, [make_land()], [], make_components(), [make_consumption()]
        )
        assert dropped == [("01000000001", "no building audit record")]

    def test_missing_consumption_drops(self, tmp_path):
        cohort, dropped = joined(
            tmp_path, [make_land()], [make_audit()], make_components(), []
        )
        assert dropped == [("01000000001", "no consumption record")]

    def test_unencodable_serie_drops_with_reason(self, tmp_path):
        land = make_land(serie="serie_99")
        cohort, dropped = joined(
            tmp_path, [land], [make_audit()], make_components(), [make_consumption()]
        )
        assert len(cohort) == 0
        assert "serie_99" in dropped[0][1]

    def test_samples_sorted_by_cadastre(self, tmp_path):
        numbers = ["01000000003", "01000000001", "01000000002"]
        cohort, dropped = joined(
            tmp_path,
            [make_land(n) for n in numbers],
            [make_audit(n) for n in numbers],
            [c for n in numbers for c in make_components(n)],
            [make_consumption(n) for n in numbers],
        )
        assert dropped == []
        assert cohort.cadastre_numbers == sorted(numbers)
        assert build_matrices(cohort).cadastre_numbers == sorted(numbers)

    def test_partial_overlap_keeps_the_good_building(self, tmp_path):
        cohort, dropped = joined(
            tmp_path,
            [make_land("01000000001"), make_land("01000000002")],
            [make_audit("01000000001"), make_audit("01000000002")],
            make_components("01000000001") + make_components("01000000002")[:-1],
            [make_consumption("01000000001"), make_consumption("01000000002")],
        )
        assert cohort.cadastre_numbers == ["01000000001"]
        assert dropped == [("01000000002", "missing component: Windows")]

    def test_bad_targets_raise_for_the_first_building_in_sorted_order(self, tmp_path):
        """The one-pass check over all targets hands a failure to the
        per-building path, which raises for the first bad building by
        cadastre number, whatever the input order, and names it."""
        numbers = ["01000000003", "01000000002", "01000000001"]
        tables = [
            table(tmp_path / "land.csv", LAND_SCHEMA, [make_land(n) for n in numbers]),
            table(tmp_path / "audit.csv", AUDIT_BUILDINGS_SCHEMA,
                  [make_audit(n) for n in numbers]),
            table(tmp_path / "components.csv", AUDIT_COMPONENTS_SCHEMA,
                  [c for n in numbers for c in make_components(n)]),
            table(tmp_path / "consumption.csv", CONSUMPTION_SCHEMA,
                  [make_consumption(n) for n in numbers]),
        ]
        audits, components = tables[1], tables[2]
        # Set after loading, past the record check.
        audits["air_exchange_rate"][0] = -1.0  # 03: negative
        components["structure_heat_loss_coefficient"][5] = 1e308  # 02: U overflows
        components["area"][5] = 1e-10

        def build():
            return build_matrices(join_on_cadastre(*tables)[0])

        with pytest.raises(DomainError, match="^building 01000000002: .*non-finite"):
            build()
        components["area"][5] = 200.0
        with pytest.raises(DomainError,
                           match=r"^building 01000000003: .*entry 10 is negative \(-1.0\)"):
            build()
        audits["air_exchange_rate"][0] = 0.8
        components["structure_heat_loss_coefficient"][12] = -5e-324  # 01: U rounds to -0.0
        with pytest.raises(DomainError,
                           match="^building 01000000001: .*heat loss coefficient must be >= 0"):
            build()
        components["structure_heat_loss_coefficient"][12] = 100.0
        components["area"][13] = -200.0  # 01: negative area
        with pytest.raises(DomainError, match="^building 01000000001: area must be positive"):
            build()

    def test_targets_match_the_per_building_quotients(self, tmp_path):
        """Every U-value is bitwise the coefficient / area of its row."""
        rng = np.random.default_rng(5)
        numbers = [f"0100000000{i}" for i in range(6)]
        components = [c for n in numbers for c in make_components(n)]
        for comp in components:
            comp["area"] = float(rng.uniform(0.01, 5000.0))
            comp["structure_heat_loss_coefficient"] = float(rng.uniform(0.0, 3000.0))
        cohort, dropped = joined(
            tmp_path, [make_land(n) for n in numbers], [make_audit(n) for n in numbers],
            components, [make_consumption(n) for n in numbers],
        )
        assert dropped == []
        arrays = build_matrices(cohort)
        for i, targets in enumerate(arrays.targets):
            comps = components[5 * i:5 * i + 5]
            assert targets[:5].tolist() == [c["area"] for c in comps]
            assert targets[5:10].tolist() == [
                c["structure_heat_loss_coefficient"] / c["area"] for c in comps
            ]


class TestLoadCohort:
    def test_generated_cohort_loads_clean(self, clean_cohort_dir):
        cohort, dropped = load_cohort(clean_cohort_dir)
        assert dropped == []
        assert len(cohort) == 40
        check_states(build_matrices(cohort).targets)

    def test_monthly_fallback_matches_annual_totals(self, clean_cohort_dir, tmp_path):
        """With consumption.csv removed, the loader aggregates the monthly
        file; the generator makes December absorb the float residual, so
        the means agree exactly."""
        annual = build_matrices(load_cohort(clean_cohort_dir)[0])
        copy_dir = tmp_path / "no_annual"
        shutil.copytree(clean_cohort_dir, copy_dir)
        (copy_dir / "consumption.csv").unlink()
        cohort, dropped = load_cohort(copy_dir)
        assert dropped == []
        monthly = build_matrices(cohort)
        assert monthly.n == annual.n
        assert monthly.cadastre_numbers == annual.cadastre_numbers
        assert monthly.measured_energy == pytest.approx(annual.measured_energy, rel=1e-12)

    def test_byte_order_marks_load_the_same_samples(self, clean_cohort_dir, tmp_path):
        """Cohort files saved with a UTF-8 byte-order mark, as spreadsheet
        programs write them, load exactly as the plain files."""
        plain, plain_dropped = load_cohort(clean_cohort_dir)
        copy_dir = tmp_path / "bom"
        shutil.copytree(clean_cohort_dir, copy_dir)
        for path in copy_dir.glob("*.csv"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        cohort, dropped = load_cohort(copy_dir)
        assert dropped == plain_dropped
        assert cohort.cadastre_numbers == plain.cadastre_numbers
        assert np.array_equal(build_matrices(cohort).targets, build_matrices(plain).targets)
        assert np.array_equal(build_matrices(cohort).features, build_matrices(plain).features)
        assert np.array_equal(
            build_matrices(cohort).measured_energy, build_matrices(plain).measured_energy
        )

    def test_no_consumption_files_is_data_error(self, clean_cohort_dir, tmp_path):
        copy_dir = tmp_path / "no_consumption"
        shutil.copytree(clean_cohort_dir, copy_dir)
        (copy_dir / "consumption.csv").unlink()
        (copy_dir / "consumption_monthly.csv").unlink()
        with pytest.raises(DataError, match="consumption"):
            load_cohort(copy_dir)

    def test_build_matrices_shapes(self, clean_cohort_dir):
        cohort, _ = load_cohort(clean_cohort_dir)
        arrays = build_matrices(cohort)
        assert arrays.features.shape == (40, 17)
        assert arrays.targets.shape == (40, 12)
        assert arrays.measured_energy.shape == (40,)
        assert arrays.useful_area.shape == (40,)
        assert len(arrays.building_types) == 40
        assert arrays.n == 40

    def test_build_matrices_rejects_empty(self, tmp_path):
        cohort, _ = joined(tmp_path, [], [], [], [])
        with pytest.raises(DataError):
            build_matrices(cohort)


def _array_bytes(arrays):
    return (arrays.cadastre_numbers, arrays.features.tobytes(), arrays.targets.tobytes(),
            arrays.measured_energy.tobytes(), arrays.useful_area.tobytes(),
            arrays.building_types)


class TestRegistryInputs:
    """land.csv supplies every model input; audit_buildings.csv only the
    air exchange rate and the specific heat gains."""

    def test_audit_with_only_the_read_columns_gives_the_same_arrays(
        self, clean_cohort_dir, tmp_path
    ):
        slim = tmp_path / "slim"
        shutil.copytree(clean_cohort_dir, slim)
        with open(clean_cohort_dir / "audit_buildings.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        names = ["cadastre_number", "air_exchange_rate", "specific_heat_gains"]
        write(slim / "audit_buildings.csv", ",".join(names),
              [",".join(row[name] for name in names) for row in rows])
        cohort, dropped = load_cohort(slim)
        assert dropped == []
        full = build_matrices(load_cohort(clean_cohort_dir)[0])
        assert _array_bytes(build_matrices(cohort)) == _array_bytes(full)

    def test_audit_copies_of_registry_columns_are_ignored(self, tmp_path):
        """Audit registry columns that disagree with land.csv, or hold
        cells that do not parse, change nothing: the features, the useful
        area and the building type are land's."""
        land = [make_land("01"),
                make_land("02", floors=7, useful_area=420.5, total_area=500.0, apartments=9,
                          serie="serie_11", building_type="light")]
        table(tmp_path / "land.csv", LAND_SCHEMA, land)
        write(tmp_path / "audit_buildings.csv", AUDIT_HEADER, [
            "01,x,20.0,10.0,-1.0,2.7,many,serie_99,0.0,0.8,15.0,mixed",
            "02,0,,,abc,nan,,serie_03,-5,0.5,12.0,heavy",
        ])
        table(tmp_path / "audit_components.csv", AUDIT_COMPONENTS_SCHEMA,
              make_components("01") + make_components("02"))
        table(tmp_path / "consumption.csv", CONSUMPTION_SCHEMA,
              [make_consumption("01"), make_consumption("02")])
        cohort, dropped = load_cohort(tmp_path)
        assert dropped == []
        arrays = build_matrices(cohort)
        expected = encode_features(**{name: [row[name] for row in land]
                                      for name in data.FEATURE_FIELDS})
        assert arrays.features.tobytes() == expected.tobytes()
        assert arrays.features[1, :5].tolist() == [420.5, 500.0, 7.0, 9.0, 0.0]
        assert arrays.useful_area.tolist() == [850.0, 420.5]
        assert arrays.building_types == ["heavy", "light"]
        assert arrays.targets[:, 10:].tolist() == [[0.8, 15.0], [0.5, 12.0]]


class TestMinMaxScaler:
    def test_hand_scaling(self):
        """Fit on [0, 10]: 5 maps to 0.5 and the endpoints to 0 and 1."""
        scaler = MinMaxScaler.fit(np.array([0.0, 10.0]))
        assert scaler.transform(np.array([5.0]))[0] == pytest.approx(0.5)
        out = scaler.transform(np.array([0.0, 10.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_fit_data_maps_into_unit_interval(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(50, 4)) * 100.0
        scaled = MinMaxScaler.fit(x).transform(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_constant_column_transforms_to_zero(self):
        x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        scaler = MinMaxScaler.fit(x)
        scaled = scaler.transform(x)
        assert np.all(scaled[:, 0] == 0.0)
        back = scaler.inverse_transform(scaled)
        assert np.all(back[:, 0] == 7.0)

    def test_roundtrip_is_exact_to_float_noise(self):
        rng = np.random.default_rng(62)
        x = rng.uniform(-50.0, 150.0, size=(30, 3))
        scaler = MinMaxScaler.fit(x)
        back = scaler.inverse_transform(scaler.transform(x))
        assert back == pytest.approx(x, abs=1e-10)

    def test_one_dimensional_convenience(self):
        scaler = MinMaxScaler.fit(np.array([2.0, 6.0]))
        out = scaler.transform(np.array([4.0]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.5)

    def test_divisor_is_the_guarded_range(self):
        """Range 4 for a spread column, 1 for a constant one."""
        x = np.column_stack([np.array([2.0, 6.0]), np.array([3.0, 3.0])])
        scaler = MinMaxScaler.fit(x)
        assert scaler.divisor[0] == 4.0
        assert scaler.divisor[1] == 1.0

    def test_column_count_mismatch_is_config_error(self):
        scaler = MinMaxScaler.fit(np.zeros((3, 2)) + np.arange(2.0))
        with pytest.raises(ConfigError):
            scaler.transform(np.zeros((3, 5)))

    def test_non_finite_fit_is_config_error(self):
        with pytest.raises(ConfigError):
            MinMaxScaler.fit(np.array([1.0, np.nan]))

    def test_dict_roundtrip(self):
        rng = np.random.default_rng(63)
        x = rng.uniform(0.0, 10.0, size=(20, 3))
        scaler = MinMaxScaler.fit(x)
        restored = from_json(MinMaxScaler, scaler.to_dict())
        assert restored == scaler
        assert np.array_equal(restored.transform(x), scaler.transform(x))

    @pytest.mark.parametrize("payload, problem", [
        ({"data_min": [0.0]}, "missing key(s): s.data_max"),
        ({"data_min": [0.0], "data_max": ["1"]}, "s.data_max[0]: expected a finite number"),
        ({"data_min": [True], "data_max": [1.0]}, "s.data_min[0]: expected a finite number"),
        ({"data_min": 0.0, "data_max": [1.0]}, "s.data_min: expected a list"),
        ({"data_min": [0.0], "data_max": [1.0], "mean": [0.5]}, "unknown key(s): s.mean"),
    ])
    def test_malformed_payload_is_config_error_naming_the_key(self, payload, problem):
        with pytest.raises(ConfigError) as caught:
            from_json(MinMaxScaler, payload, "s")
        assert str(caught.value).startswith(problem)

    @pytest.mark.parametrize("data_min, data_max", [
        ([0.0, 1.0], [1.0, float("nan")]),
        ([0.0, float("-inf")], [1.0, 2.0]),
        ([0.0, 3.0], [1.0, 2.0]),  # data_min above data_max
        ([0.0, 1.0], [1.0]),
    ])
    def test_bad_bounds_are_config_error(self, data_min, data_max):
        with pytest.raises(ConfigError):
            from_json(MinMaxScaler, {"data_min": data_min, "data_max": data_max})
        with pytest.raises(ConfigError, match="data_min <= data_max"):
            MinMaxScaler(tuple(data_min), tuple(data_max))

    def test_a_fitted_value_is_frozen(self):
        scaler = MinMaxScaler.fit(np.array([0.0, 1.0]))
        with pytest.raises(AttributeError):
            scaler.data_max = (2.0,)

    def test_json_roundtrip_transforms_and_inverts_bitwise(self):
        """A scaler read back from its JSON transforms and inverts bit for
        bit like the fitted one, for constant columns, -0.0, subnormals,
        1-D input and drawn matrices alike."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        fixed = np.array([[-0.0, 7.0, tiny, -tiny, 1e-310],
                          [-0.0, 7.0, 3 * tiny, 0.0, 2e-310]])
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

        def same_bits(x):
            scaler = MinMaxScaler.fit(x)
            restored = from_json(MinMaxScaler, json.loads(json.dumps(scaler.to_dict())))
            for bounds in ("data_min", "data_max"):
                assert (np.array(getattr(restored, bounds)).tobytes()
                        == np.array(getattr(scaler, bounds)).tobytes())
            assert restored.divisor.tobytes() == scaler.divisor.tobytes()
            with np.errstate(all="ignore"):
                scaled = scaler.transform(x)
                assert restored.transform(x).tobytes() == scaled.tobytes()
                back = scaler.inverse_transform(scaled)
                assert restored.inverse_transform(scaled).tobytes() == back.tobytes()
            assert back.shape == x.shape

        same_bits(fixed)
        same_bits(fixed[:, 1])
        assert MinMaxScaler.fit(fixed).divisor[:2].tolist() == [1.0, 1.0]

        rows = st.integers(1, 4).flatmap(
            lambda k: st.lists(st.lists(finite, min_size=k, max_size=k), min_size=1, max_size=5))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(rows, st.booleans())
        def check(rows, one_dimensional):
            x = np.array(rows)
            same_bits(x[:, 0] if one_dimensional else x)

        check()


class TestKfoldSplit:
    def test_sizes_for_256_over_10(self):
        """256 = 6 * 26 + 4 * 25, largest folds first."""
        folds = kfold_split(256, 10, seed=0)
        assert [len(f) for f in folds] == [26] * 6 + [25] * 4

    def test_exact_partition(self):
        folds = kfold_split(103, 10, seed=5)
        joined = np.concatenate(folds)
        assert len(joined) == 103
        assert sorted(joined.tolist()) == list(range(103))

    def test_deterministic_by_seed(self):
        a = kfold_split(50, 5, seed=9)
        b = kfold_split(50, 5, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_seed_changes_the_partition(self):
        a = np.concatenate(kfold_split(50, 5, seed=1))
        b = np.concatenate(kfold_split(50, 5, seed=2))
        assert not np.array_equal(a, b)

    def test_shuffle_actually_happens(self):
        joined = np.concatenate(kfold_split(100, 10, seed=3))
        assert not np.array_equal(joined, np.arange(100))

    def test_n_equal_k_gives_singletons(self):
        folds = kfold_split(10, 10, seed=0)
        assert all(len(f) == 1 for f in folds)

    def test_too_few_folds_is_config_error(self):
        with pytest.raises(ConfigError):
            kfold_split(10, 1, seed=0)

    def test_fewer_samples_than_folds_is_config_error(self):
        with pytest.raises(ConfigError):
            kfold_split(5, 10, seed=0)


class TestTrainValSplit:
    def test_default_fraction_on_100(self):
        """15% of 100 indices: 15 validation, 85 training."""
        train, val = train_val_split(np.arange(100), 0.15, seed=0)
        assert len(val) == 15
        assert len(train) == 85

    def test_is_a_partition(self):
        indices = np.arange(40, 77)
        train, val = train_val_split(indices, 0.15, seed=4)
        combined = sorted(np.concatenate([train, val]).tolist())
        assert combined == indices.tolist()
        assert set(train.tolist()).isdisjoint(val.tolist())

    def test_two_indices_split_one_and_one(self):
        train, val = train_val_split(np.array([3, 9]), 0.15, seed=0)
        assert len(train) == 1 and len(val) == 1

    def test_validation_never_rounds_to_zero(self):
        """round(4 * 0.05) = 0 would leave no validation; it is floored
        at one index."""
        train, val = train_val_split(np.arange(4), 0.05, seed=0)
        assert len(val) == 1

    def test_validation_never_swallows_everything(self):
        train, val = train_val_split(np.arange(3), 0.99, seed=0)
        assert len(train) >= 1

    def test_deterministic_by_seed(self):
        a = train_val_split(np.arange(30), 0.15, seed=7)
        b = train_val_split(np.arange(30), 0.15, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_single_index_is_config_error(self):
        with pytest.raises(ConfigError):
            train_val_split(np.array([5]), 0.15, seed=0)

    def test_fraction_bounds_are_config_error(self):
        with pytest.raises(ConfigError):
            train_val_split(np.arange(10), 0.0, seed=0)
        with pytest.raises(ConfigError):
            train_val_split(np.arange(10), 1.0, seed=0)


# ---------------------------------------------------------------------------
# Property tests of the loader: generated tables with valid and malformed
# cells, short and long rows, blank lines, repeated keys and header names,
# and extra, missing or reordered columns, read in chunks of 1, 2, 3 or
# the default number of rows.


def _reference_problem(schema, v):
    """The record invariants of each file, checked row by row with their
    messages, written independently of the loader's vector rules."""
    if not v["cadastre_number"]:
        return "cadastre_number must be nonempty"
    if schema is LAND_SCHEMA:
        if v["floors"] < 1:
            return f"'floors' must be >= 1, got {v['floors']}"
        if v["apartments"] < 0:
            return f"'apartments' must be >= 0, got {v['apartments']}"
        for name in ("useful_area", "total_area"):
            if v[name] <= 0:
                return f"{name!r} must be positive, got {v[name]}"
    elif schema is AUDIT_BUILDINGS_SCHEMA:
        for name in ("air_exchange_rate", "specific_heat_gains"):
            if v[name] < 0:
                return f"{name} must be >= 0, got {v[name]}"
    elif schema is AUDIT_COMPONENTS_SCHEMA:
        if v["enclosing_structure"] not in COMPONENTS:
            return (f"unknown enclosing_structure {v['enclosing_structure']!r}; "
                    f"expected one of: {', '.join(COMPONENTS)}")
        for name in ("area", "structure_heat_loss_coefficient"):
            if v[name] < 0:
                return f"{name} must be >= 0, got {v[name]}"
    elif schema is CONSUMPTION_SCHEMA:
        totals = {y: v[f"total_energy_consumption_{y}"] for y in CONSUMPTION_YEARS
                  if v[f"total_energy_consumption_{y}"] is not None}
        if not totals:
            return f"building {v['cadastre_number']}: no annual consumption present"
        for year, total in totals.items():
            if total < 0:
                return f"building {v['cadastre_number']}: negative consumption {total} for {year}"
    elif schema is MONTHLY_SCHEMA:
        if not 1 <= v["month"] <= 12:
            return f"month must be in 1..12, got {v['month']}"
        if v["energy_consumption"] < 0:
            return f"energy_consumption must be >= 0, got {v['energy_consumption']}"
    return None


def _reference_str(raw):
    return raw.strip()


def _reference_int(raw):
    try:
        value = int(raw.strip())
        float(value)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None
    except OverflowError:
        raise ValueError(f"too large for a float: {raw!r}") from None
    return value


def _reference_float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
    return value


def _reference_optional_float(raw):
    return None if raw == "" else _reference_float(raw)


def _reference_rule(name):
    """The cell rule of a schema column, as a scalar function of one
    cell that raises ValueError("<problem>: '<cell>'")."""
    if name in ("cadastre_number", "serie", "building_type", "enclosing_structure"):
        return _reference_str
    if name in ("floors", "apartments", "year", "month"):
        return _reference_int
    if name in (f"total_energy_consumption_{year}" for year in CONSUMPTION_YEARS):
        return _reference_optional_float
    return _reference_float


def _reference_load(path, schema):
    """load_dataset as a csv.DictReader loop, record by record: the same
    checks in the same order, with the scalar cell rules above. Returns the
    columns (floats as hex, absent values as None) and the key index."""
    columns = {c.name: [] for c in schema.columns}
    index = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        missing = [c.name for c in schema.columns if c.name not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing column(s): {', '.join(missing)}")
        for row_num, row in enumerate(reader, start=2):
            values = {}
            for column in schema.columns:
                raw = row.get(column.name)
                if raw is None:
                    raise DataError(
                        f"{path} row {row_num}: short row, no value for "
                        f"column {column.name!r}"
                    )
                try:
                    values[column.name] = _reference_rule(column.name)(raw)
                except ValueError as exc:
                    raise DataError(
                        f"{path} row {row_num}, column {column.name!r}: {exc}"
                    ) from None
            problem = _reference_problem(schema, values)
            if problem is not None:
                raise DataError(f"{path} row {row_num}: {problem}")
            if schema.key:
                key = tuple(values[name] for name in schema.key)
                key = key[0] if len(key) == 1 else key
                if key in index:
                    raise DataError(
                        f"{path} row {row_num}: duplicate key {key!r} "
                        f"(first seen at row {index[key] + 2})"
                    )
                index[key] = row_num - 2
            for name, value in values.items():
                columns[name].append(value)
    if schema is CONSUMPTION_SCHEMA:
        years = zip(*(columns[f"total_energy_consumption_{year}"] for year in CONSUMPTION_YEARS))
        columns["mean_annual"] = [
            float(np.mean([t for t in totals if t is not None])) for totals in years
        ]
    return {name: _comparable(values) for name, values in columns.items()}, index


def _comparable(values):
    """A column as a list with floats in hex and absent values as None."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    return [
        None if value is None or (isinstance(value, float) and np.isnan(value))
        else value.hex() if isinstance(value, float) else value
        for value in values
    ]


def _outcome(path, schema, chunk_rows):
    try:
        with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
            loaded = load_dataset(path, schema)
    except DataError as exc:
        return "error", str(exc)
    assert all(len(values) == len(loaded) for values in loaded.columns.values())
    columns = {name: _comparable(values) for name, values in loaded.columns.items()}
    return "table", (columns, loaded.index)


def _reference_outcome(path, schema):
    try:
        return "table", _reference_load(path, schema)
    except DataError as exc:
        return "error", str(exc)
    except csv.Error as exc:
        return "error", f"{path}: cannot read {schema.name} file: {exc}"


def _tables(st):
    """Strategy for (schema, file text, rows per chunk, csv field size
    limit or None) tuples. Most files are quote-free, which load_dataset
    splits with str.split; the rest hold what only csv.reader parses:
    quoted cells (with a delimiter, a doubled quote, a line break or a NUL
    inside), CRLF or lone CR line endings, or a line longer than a field
    size limit lowered to the longest cell or below it, so that csv cannot
    read the line of that cell."""
    schemas = st.sampled_from([LAND_SCHEMA, AUDIT_BUILDINGS_SCHEMA,
                               AUDIT_COMPONENTS_SCHEMA, CONSUMPTION_SCHEMA, MONTHLY_SCHEMA])
    number = st.one_of(
        st.floats(-1e6, 1e6).map(repr),
        st.integers(-3, 40).map(str),
        st.sampled_from(["abc", "nan", "inf", "-inf", "1e400", "", " 2.5 ", "-0.0", "0"]),
    )
    text = st.text(alphabet="ab z_-.1", max_size=6)

    def cell(name):
        if name == "cadastre_number":
            return st.sampled_from(["01", "02", "03", " 01", ""])
        if name == "enclosing_structure":
            return st.sampled_from(COMPONENTS + ("Chimney",))
        if name in ("material", "geometry", "address", "serie", "building_type"):
            return text
        return number

    def quoted(value):
        return '"' + value.replace('"', '""') + '"'

    @st.composite
    def table(draw):
        schema = draw(schemas)
        names = [c.name for c in schema.columns]
        header = draw(st.permutations(names))
        if draw(st.booleans()):
            header = header[: draw(st.integers(0, len(header) - 1))] + header[
                draw(st.integers(0, len(header))):]
        for extra in draw(st.lists(st.sampled_from(["note", "id"] + names), max_size=2)):
            header.insert(draw(st.integers(0, len(header))), extra)
        lines = [] if draw(st.integers(0, 20)) == 0 else [",".join(header)]
        for _ in range(draw(st.integers(0, 10))):
            if draw(st.integers(0, 5)) == 0:
                lines.append("")
                continue
            row = [draw(cell(name)) for name in header]
            if row and draw(st.integers(0, 11)) == 0:  # a cell only csv.reader parses
                j = draw(st.integers(0, len(row) - 1))
                row[j] = draw(st.sampled_from(
                    [quoted(row[j] + c) for c in ("", ",", '"', "\n", "\r\n")] + [row[j] + "\0"]))
            cut = draw(st.integers(0, 8))
            if cut == 0:
                row = row[: draw(st.integers(0, len(row)))]
            elif cut == 1:
                row.append(draw(text))
            lines.append(",".join(row))
        lines = [""] * draw(st.sampled_from([0, 0, 0, 0, 1, 2])) + lines
        newline = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
        content = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
        limit = None
        if draw(st.integers(0, 4)) == 0:
            cells = csv.reader(io.StringIO(content, newline=""))
            longest = max([1] + [len(c) for row in cells for c in row])
            limit = max(1, longest - draw(st.integers(0, 2)))
        return schema, content, draw(st.sampled_from([1, 2, 3, data.CHUNK_ROWS])), limit

    return table()


@contextlib.contextmanager
def _field_size_limit(limit):
    """csv's field size limit set to limit (None: left as it is) for the block."""
    previous = csv.field_size_limit()
    csv.field_size_limit(limit or previous)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def test_generated_tables_load_or_raise_data_error(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path_factory.mktemp("property") / "table.csv"

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_tables(hypothesis.strategies))
    def check(case):
        schema, text, chunk_rows, limit = case
        path.write_bytes(text.encode("utf-8"))
        with _field_size_limit(limit):
            kind, _ = _outcome(path, schema, chunk_rows)
        assert kind in ("error", "table")

    check()


def test_loader_matches_a_dict_reader_reference(tmp_path_factory):
    """Equal columns (floats compared by hex) and key index, or equal
    DataError messages with the same row numbers, on every generated
    table, whatever the chunk size and whichever tokenizer it takes."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path_factory.mktemp("differential") / "table.csv"

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_tables(hypothesis.strategies))
    def check(case):
        schema, text, chunk_rows, limit = case
        path.write_bytes(text.encode("utf-8"))
        with _field_size_limit(limit):
            assert _outcome(path, schema, chunk_rows) == _reference_outcome(path, schema)

    check()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("floors", ["3", "x"])
def test_the_cyclic_gc_is_paused_while_a_file_parses(tmp_path, enabled, floors):
    """Off while the rows parse, and back as it was afterwards, also after
    the DataError of a bad cell."""
    path = tmp_path / "land.csv"
    write(path, LAND_HEADER, [land_row(floors=floors)])
    read_table = data._read_table

    def paused_read_table(*args):
        assert not gc.isenabled()
        return read_table(*args)

    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(data, "_read_table", paused_read_table):
            try:
                load_dataset(path, LAND_SCHEMA)
            except DataError:
                assert floors == "x"
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_quote_free_files_never_construct_a_csv_reader(clean_cohort_dir, tmp_path):
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        load_cohort(clean_cohort_dir)
        assert reader.call_count == 0
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row().replace("Main St 1", '"Main St, 1"')])
        assert load_dataset(path, LAND_SCHEMA)["cadastre_number"] == ["01000000001"]
        assert reader.call_count == 1


@pytest.mark.parametrize("rows, expected", [
    # a repeated key (row 4) before a bad cell (5) and a short row (6)
    ([land_row("01"), land_row("02"), land_row("01"), land_row("03", floors="x"), "04,3"],
     "row 4: duplicate key '01' (first seen at row 2)"),
    # a broken invariant (row 3) before a repeated key (4)
    ([land_row("01"), land_row("02", floors="0"), land_row("01")],
     "row 3: 'floors' must be >= 1, got 0"),
    # on one row, the bad cell comes before the invariant it also breaks
    ([land_row("01"), land_row("02", floors="0").replace("850.0", "north")],
     "row 3, column 'useful_area': not a number: 'north'"),
    # on one row, a bad cell in an earlier schema column comes before a short row
    ([land_row("01"), "02,many"], "row 3, column 'floors': not an integer: 'many'"),
    # blank lines are not counted
    ([land_row("01"), "", "", land_row("02"), "", "03,3"],
     "row 4: short row, no value for column 'useful_area'"),
    # a negative apartment count (row 3); on one row, floors before apartments
    ([land_row("01"), land_row("02", apartments="-5000000"),
      land_row("03", floors="0", apartments="-1")],
     "row 3: 'apartments' must be >= 0, got -5000000"),
    ([land_row("01"), land_row("02", floors="0", apartments="-1")],
     "row 3: 'floors' must be >= 1, got 0"),
    # a bad cell (row 3) before a line csv cannot read (4, a cell over the field size limit)
    ([land_row("01"), land_row("02", floors="x"), land_row("03") + "," + "a" * 200_000],
     "row 3, column 'floors': not an integer: 'x'"),
])
def test_first_problem_in_row_order_whatever_the_chunks(tmp_path, rows, expected):
    path = tmp_path / "land.csv"
    write(path, LAND_HEADER, rows)
    for chunk_rows in range(1, len(rows) + 2):
        with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
            with pytest.raises(DataError) as err:
                load_dataset(path, LAND_SCHEMA)
        assert str(err.value) == f"{path} {expected}"


def test_integer_cell_without_a_float_value_is_a_bad_cell(tmp_path):
    """A 401-digit floors passes int() but has no float value, which every
    feature needs: a bad cell, in the column map and on its own row."""
    path = tmp_path / "land.csv"
    write(path, LAND_HEADER, [land_row("01"), land_row("02", floors="9" * 401)])
    with pytest.raises(DataError) as err:
        load_dataset(path, LAND_SCHEMA)
    assert str(err.value).startswith(
        f"{path} row 3, column 'floors': too large for a float: '999"
    )


def test_a_column_rule_is_its_cell_rule_over_every_cell():
    """Each column rule accepts a column exactly when it accepts each of its
    cells alone, with equal values (floats by hex, an absent value as NaN).
    A rejected cell alone raises the rule's problem, which with the cell
    appended is the reference rule's message."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rules = (  # each column rule with the reference rule of one cell
        (data._strings, _reference_str),
        (data._integers, _reference_int),
        (data._floats, _reference_float),
        (lambda cells: data._floats(cells, optional=True), _reference_optional_float),
    )
    edge_cells = ["", " ", " 2.5 ", "-0", "2.0", " 7 ", "nan", "inf", "-inf", "1e400",
                  "9" * 401, "1_000", "0x10", "1,5", "x", "٣", "\xa04\xa0"]

    def cell_outcome(rule, reference, cell):
        try:
            expected = "value", _comparable([reference(cell)])[0]
        except ValueError as exc:
            expected = "error", str(exc)
        try:
            [value] = rule([cell])
        except ValueError as exc:
            assert ("error", f"{exc}: {cell!r}") == expected
        else:
            assert ("value", _comparable([value])[0]) == expected
        return expected

    cells = st.one_of(st.sampled_from(edge_cells), st.integers(-10**20, 10**20).map(str),
                      st.floats().map(repr), st.text(max_size=4))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(cells, max_size=6))
    @hypothesis.example(edge_cells)
    def check(column):
        for rule, reference in rules:
            outcomes = [cell_outcome(rule, reference, cell) for cell in column]
            try:
                values = rule(column)
            except ValueError:
                assert any(kind == "error" for kind, _ in outcomes)
            else:
                assert [("value", value) for value in _comparable(values)] == outcomes

    check()


def _building_cells(st):
    """Strategy for the six FEATURE_FIELDS of one building as cell strings.
    At most one numeric cell breaks its cell rule: the two entry paths check
    the cells in different orders, so with two bad cells each may name a
    different one."""
    ints = st.one_of(st.integers(-3, 40).map(str), st.integers(-10**20, 10**20).map(str),
                     st.sampled_from(["0", "-0", " 7 ", str(10**300)]))
    floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-5, 5).map(str), st.sampled_from(["0", "-0.0", " 2.5 ", "1e3"]))
    bad_ints = st.sampled_from([str(10**400), str(-10**400), "2.0", "1e3", "", "x", "nan"])
    bad_floats = st.sampled_from(["inf", "-inf", "nan", "1e400", "", "abc", "1,5"])
    good = {"useful_area": floats, "total_area": floats, "floors": ints, "apartments": ints}
    bad = {"useful_area": bad_floats, "total_area": bad_floats,
           "floors": bad_ints, "apartments": bad_ints}
    names = st.sampled_from(SERIES + ("light", "heavy", "serie_99", "", "a,b", 'say "hi"'))

    @st.composite
    def cells(draw):
        broken = draw(st.one_of(st.none(), st.sampled_from(list(good))))
        return {name: draw((bad if name == broken else good).get(name, names))
                for name in data.FEATURE_FIELDS}

    return cells()


def test_land_row_and_predict_building_share_the_rules(tmp_path_factory):
    """The same six cells, as a one-row land.csv and as a --building JSON:
    both load with equal values, or both fail with equal text after the
    location ("row 2, column" against "field")."""
    hypothesis = pytest.importorskip("hypothesis")
    directory = tmp_path_factory.mktemp("entry_paths")
    land, building = directory / "land.csv", directory / "building.json"

    def outcome(load, prefix):
        """("loaded", the fields with floats in hex) or ("error", the
        message after prefix, its cell location worded as a field)."""
        try:
            fields = load()
        except DataError as exc:
            text = str(exc)
            assert text.startswith(prefix)
            rest, cell = text[len(prefix):], ", column "
            return "error", ", field " + rest.removeprefix(cell) if rest.startswith(cell) else rest
        return "loaded", {name: _comparable([value])[0] for name, value in fields.items()}

    def land_fields():
        table = load_dataset(land, LAND_SCHEMA)
        return {name: table[name][0] for name in data.FEATURE_FIELDS}

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_building_cells(hypothesis.strategies))
    def check(cells):
        with open(land, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(
                [["cadastre_number", *cells], ["01", *cells.values()]])
        building.write_text(json.dumps(cells), encoding="utf-8")
        from_json = outcome(
            lambda: data.parse_building(json.loads(building.read_text()), building), str(building))
        assert outcome(land_fields, f"{land} row 2") == from_json

    check()


# ---------------------------------------------------------------------------
# load_cohort -> build_matrices against a record-wise reference join.


def _reference_arrays(directory):
    """The training arrays and drop list of a cohort directory, built
    record by record: csv.DictReader rows, a per-building join in sorted
    key order, encode_features of the land record and u_value per
    building, and np.mean of each building's annual totals in the order
    its years appear."""
    def rows(name):
        with open(directory / name, newline="", encoding="utf-8-sig") as handle:
            return list(csv.DictReader(handle))

    land = {r["cadastre_number"]: r for r in rows("land.csv")}
    audit = {r["cadastre_number"]: r for r in rows("audit_buildings.csv")}
    components = {}
    for r in rows("audit_components.csv"):
        components.setdefault(r["cadastre_number"], {})[r["enclosing_structure"]] = r
    annual = {}
    if (directory / "consumption.csv").exists():
        for r in rows("consumption.csv"):
            cells = [r[f"total_energy_consumption_{year}"] for year in CONSUMPTION_YEARS]
            annual[r["cadastre_number"]] = {i: float(c) for i, c in enumerate(cells) if c != ""}
    else:
        for r in rows("consumption_monthly.csv"):
            totals = annual.setdefault(r["cadastre_number"], {})
            year = int(r["year"])
            totals[year] = totals.get(year, 0.0) + float(r["energy_consumption"])
    samples, dropped = [], []
    for number in sorted(set(land) | set(audit) | set(components) | set(annual)):
        comps = components.get(number, {})
        missing = [name for name in COMPONENTS if name not in comps]
        zero = [name for name in COMPONENTS if not missing and float(comps[name]["area"]) == 0]
        if number not in land:
            dropped.append((number, "no land record"))
        elif number not in audit:
            dropped.append((number, "no building audit record"))
        elif missing:
            dropped.append((number, "missing component: " + ", ".join(missing)))
        elif zero:
            dropped.append((number, "zero area for component: " + ", ".join(zero)
                            + " (U-value division undefined)"))
        elif number not in annual:
            dropped.append((number, "no consumption record"))
        else:
            a, g = audit[number], land[number]
            try:
                [features] = encode_features(
                    [float(g["useful_area"])], [float(g["total_area"])], [int(g["floors"])],
                    [int(g["apartments"])], [g["building_type"]], [g["serie"]])
            except ConfigError as exc:
                dropped.append((number, str(exc)))
                continue
            areas = [float(comps[name]["area"]) for name in COMPONENTS]
            u_values = [
                u_value(float(comps[name]["structure_heat_loss_coefficient"]), area)
                for name, area in zip(COMPONENTS, areas)
            ]
            rates = [float(a["air_exchange_rate"]), float(a["specific_heat_gains"])]
            samples.append((number, features, areas + u_values + rates,
                            float(np.mean(list(annual[number].values()))),
                            float(g["useful_area"]), g["building_type"]))
    return samples, dropped


def _assert_cohort_matches_reference(directory):
    samples, expected_dropped = _reference_arrays(directory)
    cohort, dropped = load_cohort(directory)
    assert dropped == expected_dropped
    assert len(cohort) == len(samples)
    if not samples:
        with pytest.raises(DataError, match="no samples"):
            build_matrices(cohort)
        return
    arrays = build_matrices(cohort)
    numbers, features, targets, measured, useful_area, types = map(list, zip(*samples))
    assert arrays.cadastre_numbers == numbers
    assert arrays.features.tobytes() == np.array(features).tobytes()
    assert arrays.targets.tobytes() == np.array(targets).tobytes()
    assert [float(v).hex() for v in arrays.measured_energy] == [v.hex() for v in measured]
    assert arrays.useful_area.tobytes() == np.array(useful_area).tobytes()
    assert arrays.building_types == types


def _write_cohort(directory, land, audit, components, consumption, monthly=None):
    """The four cohort files; the monthly file in place of consumption.csv
    when monthly rows are given."""
    table(directory / "land.csv", LAND_SCHEMA, land)
    table(directory / "audit_buildings.csv", AUDIT_BUILDINGS_SCHEMA, audit)
    table(directory / "audit_components.csv", AUDIT_COMPONENTS_SCHEMA, components)
    (directory / "consumption.csv").unlink(missing_ok=True)
    (directory / "consumption_monthly.csv").unlink(missing_ok=True)
    if monthly is None:
        table(directory / "consumption.csv", CONSUMPTION_SCHEMA, consumption)
    else:
        monthly_table(directory / "consumption_monthly.csv", monthly)


def test_every_drop_reason_matches_the_reference_join(tmp_path):
    numbers = [f"0{i}" for i in range(1, 10)]
    land = [make_land(n, serie="serie_99" if n == "07" else "serie_03",
                      building_type="mixed" if n == "08" else "heavy")
            for n in numbers if n != "02"]
    audit = [make_audit(n) for n in numbers if n != "03"]
    components = [c for n in numbers for c in make_components(n)
                  if not (n == "04" and c["enclosing_structure"] == "Doors")]
    components[5 * 4 + 2]["area"] = -0.0  # 05 (04 lacks its Doors row): a zero area
    consumption = [make_consumption(n, {2018: 5.0, 2020: -0.0} if n == "09" else None)
                   for n in numbers + ["10"] if n != "06"]
    _write_cohort(tmp_path, land, audit, components, consumption)
    _assert_cohort_matches_reference(tmp_path)
    _, dropped = load_cohort(tmp_path)
    assert [number for number, _ in dropped] == ["02", "03", "04", "05", "06", "07", "08", "10"]


def test_cohorts_match_a_record_wise_reference_join(tmp_path_factory):
    """Generated cohorts with every drop reason, absent consumption years,
    signed zeros in the consumption and area cells, and the monthly
    fallback with years in any order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    directory = tmp_path_factory.mktemp("cohort")
    value = st.floats(0.5, 1e4)
    zero_or_value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e6))

    @st.composite
    def cohort(draw):
        land, audit, components, consumption, monthly = [], [], [], [], []
        for number in draw(st.lists(st.sampled_from([f"0{i}" for i in range(1, 10)]),
                                    unique=True, min_size=1, max_size=6)):
            if draw(st.integers(0, 7)):
                land.append(make_land(
                    number, floors=draw(st.integers(1, 20)),
                    apartments=draw(st.integers(0, 200)), useful_area=draw(value),
                    total_area=draw(value),
                    serie=draw(st.sampled_from(SERIES + ("serie_99",))),
                    building_type=draw(st.sampled_from(("light", "heavy", "mixed")))))
            if draw(st.integers(0, 7)):
                audit.append(make_audit(
                    number, air_exchange_rate=draw(zero_or_value),
                    specific_heat_gains=draw(zero_or_value)))
            for comp in make_components(number):
                if draw(st.integers(0, 15)):
                    comp["area"] = draw(st.one_of(st.sampled_from([0.0, -0.0]), value, value))
                    comp["structure_heat_loss_coefficient"] = draw(zero_or_value)
                    components.append(comp)
            if draw(st.integers(0, 7)):
                years = draw(st.lists(st.sampled_from(CONSUMPTION_YEARS), unique=True,
                                      min_size=1))
                totals = {year: draw(zero_or_value) for year in years}
                consumption.append(make_consumption(number, totals))
                for year in years:
                    for month in range(1, draw(st.integers(2, 3))):
                        monthly.append((number, year, month, draw(zero_or_value)))
        return land, audit, components, consumption, monthly if draw(st.booleans()) else None

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(cohort())
    def check(case):
        _write_cohort(directory, *case)
        _assert_cohort_matches_reference(directory)

    check()
