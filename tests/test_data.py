"""Unit tests for CSV ingestion, joining, feature encoding, scaling and
splits.

Loader failures must name the file, row and column; the join drops
incomplete buildings with reasons instead of failing; the scaler is
checked by hand and by roundtrip; the splits are checked as exact
partitions.
"""

import csv
import shutil

import numpy as np
import pytest

from epc_pinn.data import (
    AUDIT_BUILDINGS_SCHEMA,
    AUDIT_COMPONENTS_SCHEMA,
    CONSUMPTION_SCHEMA,
    FEATURE_NAMES,
    LAND_SCHEMA,
    MONTHLY_SCHEMA,
    SERIES,
    AuditBuildingRecord,
    AuditComponentRecord,
    ConsumptionRecord,
    LandRecord,
    MinMaxScaler,
    MonthlyConsumptionRow,
    aggregate_consumption,
    build_matrices,
    encode_features,
    join_on_cadastre,
    kfold_split,
    load_cohort,
    load_dataset,
    train_val_split,
)
from epc_pinn.errors import ConfigError, DataError, DomainError, UsageError
from epc_pinn.physics import COMPONENTS

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


def land_row(number="01000000001", floors="3"):
    return (
        f"{number},{floors},56.95,24.10,850.0,RECT 20x10,24,serie_03,1000.0,"
        "Main St 1,60.0,heavy"
    )


def write(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")


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
    return LandRecord(**fields)


def make_audit(number="01000000001", **overrides):
    fields = dict(
        cadastre_number=number,
        floors=3,
        useful_area=850.0,
        total_area=1000.0,
        apartments=24,
        serie="serie_03",
        building_type="heavy",
        length=20.0,
        width=10.0,
        avg_indoor_height=2.7,
        air_exchange_rate=0.8,
        specific_heat_gains=15.0,
    )
    fields.update(overrides)
    return AuditBuildingRecord(**fields)


def make_components(number="01000000001", area=200.0, coefficient=100.0):
    return [
        AuditComponentRecord(
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
    return ConsumptionRecord(cadastre_number=number, annual_totals=totals)


class TestLoadDataset:
    def test_parses_rows_into_records(self, tmp_path):
        path = tmp_path / "land.csv"
        write(path, LAND_HEADER, [land_row("01000000001"), land_row("01000000002")])
        records = load_dataset(path, LAND_SCHEMA)
        assert len(records) == 2
        assert records[0].cadastre_number == "01000000001"
        assert records[0].floors == 3
        assert records[0].useful_area == 850.0
        assert records[0].building_type == "heavy"

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
        assert load_dataset(path, LAND_SCHEMA) == []

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "land.csv"
        header = LAND_HEADER.replace(",perimeter", "")
        row = land_row().rsplit(",", 2)
        write(path, header, [row[0] + "," + row[2]])
        with pytest.raises(DataError, match="perimeter"):
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
        records = load_dataset(path, AUDIT_COMPONENTS_SCHEMA)
        assert len(records) == 2

    def test_unknown_structure_is_data_error(self, tmp_path):
        path = tmp_path / "components.csv"
        write(path, COMPONENTS_HEADER, ["01000000001,Chimney,brick,0.0,10.0,5.0"])
        with pytest.raises(DataError, match="Chimney"):
            load_dataset(path, AUDIT_COMPONENTS_SCHEMA)

    def test_consumption_mean_over_present_years(self, tmp_path):
        """Annual totals 1000/1100/900/1000 average to 1000."""
        path = tmp_path / "consumption.csv"
        write(path, CONSUMPTION_HEADER, ["01000000001,1000.0,1100.0,900.0,1000.0"])
        records = load_dataset(path, CONSUMPTION_SCHEMA)
        assert records[0].mean_annual == pytest.approx(1000.0)

    def test_consumption_mean_is_bitwise_numpy_mean(self):
        """Over random totals of one to twelve years, including values
        whose sum depends on the summation order."""
        rng = np.random.default_rng(11)
        cases = [[1e16, 1.0, 1.0, 0.0], [0.0], [-0.0], [3, 1e-300, 7.5, 1e300]]
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            scale = 10.0 ** rng.integers(-300, 300, size=n)
            cases.append(list(rng.uniform(0, 1, size=n) * scale))
        for totals in cases:
            record = make_consumption(totals=dict(enumerate(totals, start=2000)))
            expected = float(np.mean(totals))
            assert record.mean_annual.hex() == expected.hex()

    def test_consumption_skips_empty_years(self, tmp_path):
        """Only 2018 and 2020 present: mean of 1200 and 800 is 1000."""
        path = tmp_path / "consumption.csv"
        write(path, CONSUMPTION_HEADER, ["01000000001,,1200.0,,800.0"])
        records = load_dataset(path, CONSUMPTION_SCHEMA)
        assert records[0].annual_totals == {2018: 1200.0, 2020: 800.0}
        assert records[0].mean_annual == pytest.approx(1000.0)

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

    def test_monthly_rows_load_without_key_uniqueness(self, tmp_path):
        path = tmp_path / "monthly.csv"
        write(
            path,
            "cadastre_number,year,month,energy_consumption",
            ["01000000001,2018,1,100.0", "01000000001,2018,2,90.0"],
        )
        records = load_dataset(path, MONTHLY_SCHEMA)
        assert len(records) == 2
        assert records[1].month == 2

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
        assert load_dataset(path, LAND_SCHEMA)[0].floors == 7

    def test_extra_and_reordered_columns_are_allowed(self, tmp_path):
        path = tmp_path / "components.csv"
        write(
            path,
            "note,area,structure_heat_loss_coefficient,energy_consumption,"
            "material,enclosing_structure,cadastre_number",
            ["x,300.0,150.0,0.0,brick,Walls,01000000001"],
        )
        [record] = load_dataset(path, AUDIT_COMPONENTS_SCHEMA)
        assert (record.cadastre_number, record.enclosing_structure) == (
            "01000000001", "Walls")
        assert (record.area, record.structure_heat_loss_coefficient) == (300.0, 150.0)

    def test_short_row_names_the_first_missing_schema_column(self, tmp_path):
        """Schema order, not file order: the file puts area last, but the
        schema asks for energy_consumption before area."""
        path = tmp_path / "components.csv"
        write(
            path,
            "cadastre_number,enclosing_structure,material,"
            "structure_heat_loss_coefficient,energy_consumption,area",
            ["01000000001,Walls,brick,150.0"],
        )
        with pytest.raises(DataError) as err:
            load_dataset(path, AUDIT_COMPONENTS_SCHEMA)
        assert str(err.value) == (
            f"{path} row 2: short row, no value for column 'energy_consumption'"
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


class TestAggregateConsumption:
    def test_single_year_sums_months(self):
        """Twelve months of 100 in 2018 total 1200; the mean over the one
        year is also 1200."""
        rows = [
            MonthlyConsumptionRow("01000000001", 2018, month, 100.0)
            for month in range(1, 13)
        ]
        records = aggregate_consumption(rows)
        assert len(records) == 1
        assert records[0].annual_totals == {2018: pytest.approx(1200.0)}
        assert records[0].mean_annual == pytest.approx(1200.0)

    def test_mean_across_years(self):
        """2017 totals 1000, 2018 totals 3000: mean 2000."""
        rows = [
            MonthlyConsumptionRow("01000000001", 2017, 1, 400.0),
            MonthlyConsumptionRow("01000000001", 2017, 2, 600.0),
            MonthlyConsumptionRow("01000000001", 2018, 1, 3000.0),
        ]
        records = aggregate_consumption(rows)
        assert records[0].annual_totals[2017] == pytest.approx(1000.0)
        assert records[0].annual_totals[2018] == pytest.approx(3000.0)
        assert records[0].mean_annual == pytest.approx(2000.0)

    def test_output_sorted_by_cadastre(self):
        rows = [
            MonthlyConsumptionRow("01000000009", 2018, 1, 10.0),
            MonthlyConsumptionRow("01000000001", 2018, 1, 20.0),
        ]
        records = aggregate_consumption(rows)
        assert [r.cadastre_number for r in records] == ["01000000001", "01000000009"]

    def test_empty_input_gives_empty_output(self):
        assert aggregate_consumption([]) == []


class TestEncodeFeatures:
    def test_layout(self):
        """Five scalars then the twelve-wide serie one-hot block."""
        vec = encode_features(850.0, 1000.0, 3, 24, "heavy", "serie_03")
        assert vec.shape == (len(FEATURE_NAMES),)
        assert vec[0] == 850.0
        assert vec[1] == 1000.0
        assert vec[2] == 3.0
        assert vec[3] == 24.0
        assert vec[4] == 1.0  # heavy encodes as 1
        one_hot = vec[5:]
        assert one_hot.sum() == 1.0
        assert one_hot[SERIES.index("serie_03")] == 1.0

    def test_light_encodes_as_zero(self):
        vec = encode_features(850.0, 1000.0, 3, 24, "light", "serie_01")
        assert vec[4] == 0.0
        assert vec[5] == 1.0

    def test_unknown_serie_is_config_error(self):
        with pytest.raises(ConfigError, match="serie_01"):
            encode_features(850.0, 1000.0, 3, 24, "heavy", "serie_99")

    def test_unknown_building_type_is_config_error(self):
        with pytest.raises(ConfigError, match="light"):
            encode_features(850.0, 1000.0, 3, 24, "mixed", "serie_01")


class TestJoinOnCadastre:
    def test_complete_building_joins(self):
        """U-values come out as coefficient / area = 100 / 200 = 0.5 and
        the measured energy is the mean annual total."""
        samples, dropped = join_on_cadastre(
            [make_land()], [make_audit()], make_components(), [make_consumption()]
        )
        assert dropped == []
        assert len(samples) == 1
        sample = samples[0]
        assert sample.cadastre_number == "01000000001"
        assert np.all(sample.target_state.areas == 200.0)
        assert np.all(sample.target_state.u_values == 0.5)
        assert sample.target_state.air_exchange_rate == 0.8
        assert sample.target_state.specific_heat_gains == 15.0
        assert sample.measured_energy == pytest.approx(1000.0)
        assert sample.useful_area == 850.0
        assert sample.building_type == "heavy"
        assert sample.features[0] == 850.0

    def test_missing_component_drops_with_reason(self):
        components = make_components()[:-1]  # drop the Windows row
        samples, dropped = join_on_cadastre(
            [make_land()], [make_audit()], components, [make_consumption()]
        )
        assert samples == []
        assert dropped == [("01000000001", "missing component: Windows")]

    def test_zero_area_component_drops_with_reason(self):
        components = make_components()
        components[3] = AuditComponentRecord(
            cadastre_number="01000000001",
            enclosing_structure="Doors",
            material="wood",
            area=0.0,
            structure_heat_loss_coefficient=0.0,
            energy_consumption=0.0,
        )
        samples, dropped = join_on_cadastre(
            [make_land()], [make_audit()], components, [make_consumption()]
        )
        assert samples == []
        number, reason = dropped[0]
        assert number == "01000000001"
        assert "Doors" in reason and "U-value" in reason

    def test_missing_land_record_drops(self):
        samples, dropped = join_on_cadastre(
            [], [make_audit()], make_components(), [make_consumption()]
        )
        assert samples == []
        assert dropped == [("01000000001", "no land record")]

    def test_missing_audit_record_drops(self):
        samples, dropped = join_on_cadastre(
            [make_land()], [], make_components(), [make_consumption()]
        )
        assert dropped == [("01000000001", "no building audit record")]

    def test_missing_consumption_drops(self):
        samples, dropped = join_on_cadastre(
            [make_land()], [make_audit()], make_components(), []
        )
        assert dropped == [("01000000001", "no consumption record")]

    def test_unencodable_serie_drops_with_reason(self):
        audit = make_audit(serie="serie_99")
        samples, dropped = join_on_cadastre(
            [make_land()], [audit], make_components(), [make_consumption()]
        )
        assert samples == []
        assert "serie_99" in dropped[0][1]

    def test_samples_sorted_by_cadastre(self):
        numbers = ["01000000003", "01000000001", "01000000002"]
        samples, dropped = join_on_cadastre(
            [make_land(n) for n in numbers],
            [make_audit(n) for n in numbers],
            [c for n in numbers for c in make_components(n)],
            [make_consumption(n) for n in numbers],
        )
        assert dropped == []
        assert [s.cadastre_number for s in samples] == sorted(numbers)

    def test_partial_overlap_keeps_the_good_building(self):
        samples, dropped = join_on_cadastre(
            [make_land("01000000001"), make_land("01000000002")],
            [make_audit("01000000001"), make_audit("01000000002")],
            make_components("01000000001") + make_components("01000000002")[:-1],
            [make_consumption("01000000001"), make_consumption("01000000002")],
        )
        assert [s.cadastre_number for s in samples] == ["01000000001"]
        assert dropped == [("01000000002", "missing component: Windows")]


    def test_bad_targets_raise_for_the_first_building_in_sorted_order(self):
        """The one-pass check over all targets hands a failure to the
        per-building path, which raises for the first bad building by
        cadastre number, whatever the input order."""
        numbers = ["01000000003", "01000000002", "01000000001"]
        audits = [make_audit(n) for n in numbers]
        components = [c for n in numbers for c in make_components(n)]
        audits[0].air_exchange_rate = -1.0  # 03: negative, set after the record check
        components[5].structure_heat_loss_coefficient = 1e308  # 02: U overflows
        components[5].area = 1e-10
        args = ([make_land(n) for n in numbers], audits, components,
                [make_consumption(n) for n in numbers])
        with pytest.raises(DomainError, match="non-finite"):
            join_on_cadastre(*args)
        components[5].area = 200.0
        with pytest.raises(DomainError, match=r"entry 10 is negative \(-1.0\)"):
            join_on_cadastre(*args)
        audits[0].air_exchange_rate = 0.8
        components[12].structure_heat_loss_coefficient = -5e-324  # 01: U rounds to -0.0
        with pytest.raises(DomainError, match="heat loss coefficient must be >= 0"):
            join_on_cadastre(*args)
        components[12].structure_heat_loss_coefficient = 100.0
        components[13].area = -200.0  # 01: negative area
        with pytest.raises(DomainError, match="area must be positive"):
            join_on_cadastre(*args)

    def test_targets_match_the_per_building_quotients(self):
        """Every U-value is bitwise the coefficient / area of its row."""
        rng = np.random.default_rng(5)
        numbers = [f"0100000000{i}" for i in range(6)]
        components = [c for n in numbers for c in make_components(n)]
        for comp in components:
            comp.area = float(rng.uniform(0.01, 5000.0))
            comp.structure_heat_loss_coefficient = float(rng.uniform(0.0, 3000.0))
        samples, dropped = join_on_cadastre(
            [make_land(n) for n in numbers], [make_audit(n) for n in numbers],
            components, [make_consumption(n) for n in numbers],
        )
        assert dropped == []
        for i, sample in enumerate(samples):
            comps = components[5 * i:5 * i + 5]
            assert sample.target_state.areas.tolist() == [c.area for c in comps]
            assert sample.target_state.u_values.tolist() == [
                c.structure_heat_loss_coefficient / c.area for c in comps
            ]


class TestLoadCohort:
    def test_generated_cohort_loads_clean(self, clean_cohort_dir):
        samples, dropped = load_cohort(clean_cohort_dir)
        assert dropped == []
        assert len(samples) == 40
        for sample in samples:
            sample.target_state.validate()

    def test_monthly_fallback_matches_annual_totals(self, clean_cohort_dir, tmp_path):
        """With consumption.csv removed, the loader aggregates the monthly
        file; the generator makes December absorb the float residual, so
        the means agree exactly."""
        annual_samples, _ = load_cohort(clean_cohort_dir)
        copy_dir = tmp_path / "no_annual"
        shutil.copytree(clean_cohort_dir, copy_dir)
        (copy_dir / "consumption.csv").unlink()
        monthly_samples, dropped = load_cohort(copy_dir)
        assert dropped == []
        assert len(monthly_samples) == len(annual_samples)
        for a, m in zip(annual_samples, monthly_samples):
            assert m.cadastre_number == a.cadastre_number
            assert m.measured_energy == pytest.approx(a.measured_energy, rel=1e-12)

    def test_byte_order_marks_load_the_same_samples(self, clean_cohort_dir, tmp_path):
        """Cohort files saved with a UTF-8 byte-order mark, as spreadsheet
        programs write them, load exactly as the plain files."""
        plain, plain_dropped = load_cohort(clean_cohort_dir)
        copy_dir = tmp_path / "bom"
        shutil.copytree(clean_cohort_dir, copy_dir)
        for path in copy_dir.glob("*.csv"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        samples, dropped = load_cohort(copy_dir)
        assert dropped == plain_dropped
        assert [s.cadastre_number for s in samples] == [s.cadastre_number for s in plain]
        assert np.array_equal(build_matrices(samples).targets, build_matrices(plain).targets)
        assert np.array_equal(build_matrices(samples).features, build_matrices(plain).features)
        assert [s.measured_energy for s in samples] == [s.measured_energy for s in plain]

    def test_no_consumption_files_is_data_error(self, clean_cohort_dir, tmp_path):
        copy_dir = tmp_path / "no_consumption"
        shutil.copytree(clean_cohort_dir, copy_dir)
        (copy_dir / "consumption.csv").unlink()
        (copy_dir / "consumption_monthly.csv").unlink()
        with pytest.raises(DataError, match="consumption"):
            load_cohort(copy_dir)

    def test_build_matrices_shapes(self, clean_cohort_dir):
        samples, _ = load_cohort(clean_cohort_dir)
        arrays = build_matrices(samples)
        assert arrays.features.shape == (40, 17)
        assert arrays.targets.shape == (40, 12)
        assert arrays.measured_energy.shape == (40,)
        assert arrays.useful_area.shape == (40,)
        assert len(arrays.building_types) == 40
        assert arrays.n == 40

    def test_build_matrices_rejects_empty(self):
        with pytest.raises(DataError):
            build_matrices([])


class TestMinMaxScaler:
    def test_hand_scaling(self):
        """Fit on [0, 10]: 5 maps to 0.5 and the endpoints to 0 and 1."""
        scaler = MinMaxScaler().fit(np.array([0.0, 10.0]))
        assert scaler.transform(np.array([5.0]))[0] == pytest.approx(0.5)
        out = scaler.transform(np.array([0.0, 10.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_fit_data_maps_into_unit_interval(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(50, 4)) * 100.0
        scaled = MinMaxScaler().fit(x).transform(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_constant_column_transforms_to_zero(self):
        x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        scaler = MinMaxScaler().fit(x)
        scaled = scaler.transform(x)
        assert np.all(scaled[:, 0] == 0.0)
        back = scaler.inverse_transform(scaled)
        assert np.all(back[:, 0] == 7.0)

    def test_roundtrip_is_exact_to_float_noise(self):
        rng = np.random.default_rng(62)
        x = rng.uniform(-50.0, 150.0, size=(30, 3))
        scaler = MinMaxScaler().fit(x)
        back = scaler.inverse_transform(scaler.transform(x))
        assert back == pytest.approx(x, abs=1e-10)

    def test_one_dimensional_convenience(self):
        scaler = MinMaxScaler().fit(np.array([2.0, 6.0]))
        out = scaler.transform(np.array([4.0]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.5)

    def test_divisor_is_the_guarded_range(self):
        """Range 4 for a spread column, 1 for a constant one."""
        x = np.column_stack([np.array([2.0, 6.0]), np.array([3.0, 3.0])])
        scaler = MinMaxScaler().fit(x)
        assert scaler.divisor[0] == 4.0
        assert scaler.divisor[1] == 1.0

    def test_use_before_fit_is_usage_error(self):
        with pytest.raises(UsageError):
            MinMaxScaler().transform(np.array([1.0]))
        with pytest.raises(UsageError):
            MinMaxScaler().divisor

    def test_column_count_mismatch_is_config_error(self):
        scaler = MinMaxScaler().fit(np.zeros((3, 2)) + np.arange(2.0))
        with pytest.raises(ConfigError):
            scaler.transform(np.zeros((3, 5)))

    def test_non_finite_fit_is_config_error(self):
        with pytest.raises(ConfigError):
            MinMaxScaler().fit(np.array([1.0, np.nan]))

    def test_dict_roundtrip(self):
        rng = np.random.default_rng(63)
        x = rng.uniform(0.0, 10.0, size=(20, 3))
        scaler = MinMaxScaler().fit(x)
        restored = MinMaxScaler.from_dict(scaler.to_dict())
        assert np.array_equal(restored.transform(x), scaler.transform(x))

    def test_malformed_dict_is_data_error(self):
        with pytest.raises(DataError):
            MinMaxScaler.from_dict({"data_min": [0.0]})


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
            kfold_split(10, 1)

    def test_fewer_samples_than_folds_is_config_error(self):
        with pytest.raises(ConfigError):
            kfold_split(5, 10)


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
# and extra, missing or reordered columns.


def _reference_load(path, schema):
    """load_dataset as a csv.DictReader loop, written independently of the
    one-pass loader: same checks in the same order."""
    records, seen = [], {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        missing = [c.name for c in schema.columns if c.name not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing column(s): {', '.join(missing)}")
        for row_num, row in enumerate(reader, start=2):
            attrs = {}
            for column in schema.columns:
                raw = row.get(column.name)
                if raw is None:
                    raise DataError(
                        f"{path} row {row_num}: short row, no value for "
                        f"column {column.name!r}"
                    )
                try:
                    attrs[column.attr] = column.parse(raw)
                except ValueError as exc:
                    raise DataError(
                        f"{path} row {row_num}, column {column.name!r}: {exc}"
                    ) from None
            try:
                record = schema.build(attrs)
            except DataError as exc:
                raise DataError(f"{path} row {row_num}: {exc}") from None
            if schema.key is not None:
                key = schema.key(record)
                if key in seen:
                    raise DataError(
                        f"{path} row {row_num}: duplicate key {key!r} "
                        f"(first seen at row {seen[key]})"
                    )
                seen[key] = row_num
            records.append(record)
    return records


def _outcome(load, path, schema):
    try:
        return "records", load(path, schema)
    except DataError as exc:
        return "error", str(exc)


def _tables(st):
    """Strategy for (schema, file text) pairs."""
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
        for _ in range(draw(st.integers(0, 6))):
            if draw(st.integers(0, 5)) == 0:
                lines.append("")
                continue
            row = [draw(cell(name)) for name in header]
            cut = draw(st.integers(0, 8))
            if cut == 0:
                row = row[: draw(st.integers(0, len(row)))]
            elif cut == 1:
                row.append(draw(text))
            lines.append(",".join(row))
        return schema, "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")

    return table()


def test_generated_tables_load_or_raise_data_error(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path_factory.mktemp("property") / "table.csv"

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_tables(hypothesis.strategies))
    def check(case):
        schema, text = case
        path.write_text(text, encoding="utf-8")
        kind, value = _outcome(load_dataset, path, schema)
        assert kind == "error" or isinstance(value, list)

    check()


def test_loader_matches_a_dict_reader_reference(tmp_path_factory):
    """Equal records, or equal DataError messages with the same row
    numbers, on every generated table."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path_factory.mktemp("differential") / "table.csv"

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_tables(hypothesis.strategies))
    def check(case):
        schema, text = case
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_dataset, path, schema) == _outcome(_reference_load, path, schema)

    check()
