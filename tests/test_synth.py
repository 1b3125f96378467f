"""Unit tests for the synthetic cohort generator and the scalar oracle.

The generator must be byte-reproducible from its seed, close the loop
exactly at zero noise (measured consumption equals the model's output for
the audited envelope), and emit monthly files whose months sum exactly to
the annual totals. reference_energy, the plain scalar re-derivation of
the energy balance, is checked by hand and against the vectorized model.
"""

import csv
import json

import numpy as np
import pytest

from epc_pinn import synth
from epc_pinn.cli import main

from epc_pinn.config import from_json
from epc_pinn.data import (
    CONSUMPTION_SCHEMA,
    MONTHLY_SCHEMA,
    aggregate_consumption,
    build_matrices,
    load_cohort,
    load_dataset,
)
from epc_pinn.errors import ConfigError, DataError, DomainError
from epc_pinn.physics import (
    COMPONENTS,
    PhysicsConstants,
    energy_consumption,
    energy_consumption_batch,
)
from epc_pinn.synth import (
    DEFAULT_SERIES,
    MAX_FLOORS,
    MONTH_WEIGHTS,
    GeneratorConfig,
    SerieProfile,
    generate_cohort,
    reference_energy,
)

FILE_NAMES = (
    "land.csv",
    "audit_buildings.csv",
    "audit_components.csv",
    "consumption.csv",
    "consumption_monthly.csv",
)


def zero_noise_config(n=12, seed=7):
    return GeneratorConfig(n_buildings=n, seed=seed, consumption_noise=0.0, audit_noise=0.0)


class TestSerieProfiles:
    def test_twelve_default_series_in_order(self):
        assert len(DEFAULT_SERIES) == 12
        assert [p.name for p in DEFAULT_SERIES] == [
            f"serie_{i:02d}" for i in range(1, 13)
        ]

    def test_progression_from_leaky_to_tight(self):
        """The newest serie's wall U-value sits well below the oldest's,
        and the air exchange upper bounds decrease."""
        first, last = DEFAULT_SERIES[0], DEFAULT_SERIES[-1]
        assert last.u_means[2] < first.u_means[2] / 2.0
        assert last.air_exchange[1] < first.air_exchange[1]

    def test_dict_roundtrip(self):
        profile = DEFAULT_SERIES[4]
        restored = from_json(SerieProfile, profile.to_dict())
        assert restored == profile

    def test_bad_u_means_is_config_error(self):
        payload = DEFAULT_SERIES[0].to_dict()
        payload["u_means"] = [0.5, 0.5, 0.5]
        with pytest.raises(ConfigError):
            from_json(SerieProfile, payload)

    def test_unknown_building_type_is_config_error(self):
        payload = DEFAULT_SERIES[0].to_dict()
        payload["building_type"] = "straw"
        with pytest.raises(ConfigError):
            from_json(SerieProfile, payload)

    def test_floors_bound_must_leave_room_for_the_exclusive_draw_bound(self, tmp_path):
        """floors are drawn with rng.integers(low, high + 1), so high + 1 must
        be an int64; the largest allowed bound still generates, with
        apartments counted in Python ints."""
        payload = DEFAULT_SERIES[0].to_dict()
        for high in (MAX_FLOORS + 1, 2**63, 10**30):
            payload["floors"] = [1, high]
            with pytest.raises(ConfigError, match=rf"serie_01.floors: \(1, {high}\)"):
                from_json(SerieProfile, payload)
        payload["floors"] = [MAX_FLOORS, MAX_FLOORS]
        config = GeneratorConfig(n_buildings=2, seed=3, series=(from_json(SerieProfile, payload),))
        paths = generate_cohort(config, tmp_path)
        land = paths["land"].read_text().splitlines()[1].split(",")
        assert int(land[1]) == MAX_FLOORS
        assert int(land[6]) % MAX_FLOORS == 0 and int(land[6]) > np.iinfo(np.int64).max

    def test_windows_and_doors_must_leave_some_wall(self):
        payload = DEFAULT_SERIES[0].to_dict()
        payload["window_fraction"] = [0.5, 0.9]
        payload["door_fraction"] = [0.01, 0.1]
        with pytest.raises(ConfigError, match=r"window_fraction\[1\] \+ door_fraction\[1\]"):
            from_json(SerieProfile, payload)
        payload["door_fraction"] = [0.01, 0.09]
        from_json(SerieProfile, payload)


class TestGeneratorConfig:
    def test_defaults_are_valid(self):
        config = GeneratorConfig(n_buildings=5, seed=1)
        assert config.consumption_noise == 0.05
        assert config.audit_noise == 0.02

    def test_zero_buildings_is_config_error(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_buildings=0, seed=1)

    def test_negative_noise_is_config_error(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_buildings=5, seed=1, consumption_noise=-0.1)

    def test_serie_without_a_time_constant_is_config_error(self):
        """Caught when the config is built, before any draw or file."""
        constants = PhysicsConstants(time_constants={"heavy": 3.0})
        with pytest.raises(ConfigError) as info:
            GeneratorConfig(n_buildings=5, seed=1, constants=constants)
        assert str(info.value) == (
            "series[1].building_type: unknown building type 'light'; known types: heavy"
        )
        heavy_only = tuple(p for p in DEFAULT_SERIES if p.building_type == "heavy")
        GeneratorConfig(n_buildings=5, seed=1, constants=constants, series=heavy_only)

    def test_dict_roundtrip(self):
        config = GeneratorConfig(n_buildings=5, seed=3, audit_noise=0.01)
        restored = from_json(GeneratorConfig, config.to_dict())
        assert restored.to_dict() == config.to_dict()

    def test_month_weights_sum_to_one(self):
        assert sum(MONTH_WEIGHTS) == pytest.approx(1.0, abs=1e-12)
        assert len(MONTH_WEIGHTS) == 12


class TestGenerateCohort:
    def test_writes_the_five_files(self, tmp_path):
        paths = generate_cohort(zero_noise_config(), tmp_path)
        assert sorted(p.name for p in paths.values()) == sorted(FILE_NAMES)
        for path in paths.values():
            assert path.exists()

    def test_row_counts(self, clean_cohort_dir):
        """40 buildings: 40 land rows, 200 component rows (5 each), 40
        consumption rows, 40 * 4 years * 12 months monthly rows; every
        file also carries its header line."""
        def lines(name):
            return len((clean_cohort_dir / name).read_text().splitlines())

        assert lines("land.csv") == 41
        assert lines("audit_buildings.csv") == 41
        assert lines("audit_components.csv") == 201
        assert lines("consumption.csv") == 41
        assert lines("consumption_monthly.csv") == 40 * 4 * 12 + 1

    def test_byte_identical_regeneration(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        generate_cohort(zero_noise_config(seed=19), a_dir)
        generate_cohort(zero_noise_config(seed=19), b_dir)
        for name in FILE_NAMES:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    @pytest.mark.parametrize("old", ["cadastre_number\n0100\n", None], ids=["old", "none"])
    def test_an_interrupted_write_leaves_the_old_file_or_none(self, tmp_path, old):
        path = tmp_path / "land.csv"
        if old is not None:
            path.write_text(old, encoding="utf-8")

        def rows():
            yield "01000000000\n"
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            synth._write_csv(path, ["cadastre_number"], rows())
        if old is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_text(encoding="utf-8") == old

    def test_seed_changes_the_cohort(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        generate_cohort(zero_noise_config(seed=19), a_dir)
        generate_cohort(zero_noise_config(seed=20), b_dir)
        assert (a_dir / "land.csv").read_bytes() != (b_dir / "land.csv").read_bytes()

    def test_zero_noise_closure_is_exact(self, clean_cohort_dir):
        """At zero noise the audited envelope is the true envelope and the
        measured totals are the model's output; after the CSV roundtrip
        (floats written via repr) the reconstruction matches the measured
        mean with zero float error."""
        joined, dropped = load_cohort(clean_cohort_dir)
        assert dropped == []
        arrays = build_matrices(joined)
        for i, reconstructed in enumerate(batch_energy(arrays)):
            assert reconstructed == arrays.measured_energy[i]

    def test_noise_perturbs_measured_but_not_below_zero(self, tmp_path):
        config = GeneratorConfig(n_buildings=30, seed=23)
        generate_cohort(config, tmp_path)
        arrays = build_matrices(load_cohort(tmp_path)[0])
        diffs = []
        for i, reconstructed in enumerate(batch_energy(arrays)):
            diffs.append(abs(reconstructed - arrays.measured_energy[i]))
            assert arrays.measured_energy[i] >= 0.0
        assert max(diffs) > 0.0

    def test_monthly_files_sum_exactly_to_annual(self, clean_cohort_dir):
        """December absorbs the float residual, so each year's twelve
        months sum to the annual total with zero error."""
        annual = load_dataset(clean_cohort_dir / "consumption.csv", CONSUMPTION_SCHEMA)
        monthly = aggregate_consumption(
            load_dataset(clean_cohort_dir / "consumption_monthly.csv", MONTHLY_SCHEMA)
        )
        assert len(monthly) == len(annual)
        years = [name for name in monthly.columns if name.startswith("total_energy")]
        assert years
        for i, number in enumerate(monthly["cadastre_number"]):
            for year in years:
                total = monthly[year][i]
                if not np.isnan(total):
                    assert total == annual[year][annual.index[number]]

    def test_cohort_spans_energy_scales(self, clean_cohort_dir):
        """Different series and sizes must yield a genuine spread of
        annual consumption, not a near-constant column."""
        energies = build_matrices(load_cohort(clean_cohort_dir)[0]).measured_energy
        assert energies.std() > 0.2 * energies.mean() > 0.0

    @pytest.mark.parametrize("footprint, apartment_area, size", [
        (1e303, 1e-6, "apartments"),  # footprint / apartment_area overflows
        (1e308, 60.0, "total_area"),  # footprint * floors overflows, the envelope does not
    ])
    def test_sizes_beyond_the_float_range_are_exit_two_with_nothing_written(
        self, tmp_path, capsys, footprint, apartment_area, size
    ):
        serie = dict(DEFAULT_SERIES[0].to_dict(), floors=[2, 2], footprint=[footprint] * 2,
                     apartment_area=[apartment_area] * 2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generate": {"series": [serie], "roof_factor": [1.0, 1.0]}}))
        out = tmp_path / "out"
        argv = ["generate", "--config", str(config), "--seed", "1", "--n", "3", "--out", str(out)]
        assert main(argv) == 2
        assert f"building 01000000000: {size} overflows the float range" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning would fail main with 3
    @pytest.mark.parametrize("footprint, noise, quantity", [
        (1e307, 0.05, "energy consumption"),  # the envelope loss overflows, the areas do not
        (3e305, 5.0, "measured consumption"),  # the energy fits, a noisy reading does not
    ])
    def test_values_beyond_the_float_range_are_exit_two_with_nothing_written(
        self, tmp_path, capsys, footprint, noise, quantity
    ):
        serie = dict(DEFAULT_SERIES[0].to_dict(), floors=[1, 1], footprint=[footprint] * 2,
                     apartment_area=[1e300, 1e300])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generate": {
            "series": [serie], "roof_factor": [1.0, 1.0], "consumption_noise": noise}}))
        out = tmp_path / "out"
        argv = ["generate", "--config", str(config), "--seed", "1", "--n", "3", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"building 01000000000: {quantity} overflows the float range" in err
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("generate, message", [
        ({"aspect_ratio": [1.0, 1e308]},  # footprint * aspect overflows
         "envelope state contains non-finite values\n"),
        ({"series": [dict(DEFAULT_SERIES[0].to_dict(), footprint=[1.0, 1e4],
                          window_fraction=[0.9845757498341396] * 2,
                          door_fraction=[0.015424250165860296] * 2)]},  # walls round below 0
         "envelope state entry 2 is negative ("),
    ], ids=["non-finite", "negative"])
    def test_a_bad_envelope_is_exit_two_naming_the_building(
        self, tmp_path, capsys, generate, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generate": generate}))
        out = tmp_path / "out"
        argv = ["generate", "--config", str(config), "--seed", "1", "--n", "3", "--out", str(out)]
        assert main(argv) == 2
        assert f"error: building 01000000000: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_wall_area_follows_geometry(self, clean_cohort_dir):
        """Walls plus windows plus doors equals perimeter * floors * 2.7
        for every generated building (audit noise is zero here)."""
        arrays = build_matrices(load_cohort(clean_cohort_dir)[0])
        with open(clean_cohort_dir / "land.csv", newline="", encoding="utf-8") as handle:
            land = {row["cadastre_number"]: row for row in csv.DictReader(handle)}
        for number, targets in zip(arrays.cadastre_numbers, arrays.targets):
            gross = targets[2:5].sum()
            assert gross == pytest.approx(
                float(land[number]["perimeter"]) * int(land[number]["floors"]) * 2.7, rel=1e-9
            )


def batch_energy(arrays):
    """The batch kernel's consumption of every building's targets."""
    consts = PhysicsConstants()
    taus = [consts.time_constant_for(t) for t in arrays.building_types]
    return energy_consumption_batch(arrays.targets, arrays.useful_area, taus,
                                    consts).energy_consumption


def oracle_components(state):
    """(area, heat loss coefficient) pairs of a 12-vector, as an audit
    would list them."""
    return {
        name: (float(a), float(a * u))
        for name, a, u in zip(COMPONENTS, state[:5], state[5:10])
    }


class TestReferenceEnergy:
    def test_worked_example(self):
        """100 m2 of U 0.5 (coefficient 50 W/K), no ventilation, gains 20
        over 100 m2, tau 1: losses 4485.1968, gains 2000, consumption
        3101.9861 (see the physics worked example for the chain)."""
        components = {
            "Basement/Slab": (100.0, 50.0),
            "Roof/Attic": (0.0, 0.0),
            "Walls": (0.0, 0.0),
            "Doors": (0.0, 0.0),
            "Windows": (0.0, 0.0),
        }
        energy = reference_energy(
            components,
            air_exchange_rate=0.0,
            specific_heat_gains=20.0,
            useful_area=100.0,
            tau=1.0,
        )
        assert energy == pytest.approx(3101.9861008273856, abs=1e-3)

    def test_zero_building_gives_zero(self):
        components = {name: (0.0, 0.0) for name in COMPONENTS}
        assert reference_energy(components, 0.0, 0.0, 100.0, 1.0) == 0.0

    def test_gains_equal_losses_uses_the_limit(self):
        """With gains exactly equal to losses the factor is tau/(tau+1),
        leaving losses / (tau + 1)."""
        components = {name: (0.0, 0.0) for name in COMPONENTS}
        components["Walls"] = (100.0, 100.0)
        losses = 100.0 * 18.9 * 4.608 * 1.03
        energy = reference_energy(
            components,
            air_exchange_rate=0.0,
            specific_heat_gains=losses,
            useful_area=1.0,
            tau=3.0,
        )
        assert energy == pytest.approx(losses / 4.0, rel=1e-12)

    def test_surplus_gains_self_limit(self):
        """tau 1, r > 1: consumption reduces to L^2 / (L + G)."""
        components = {name: (0.0, 0.0) for name in COMPONENTS}
        components["Walls"] = (10.0, 5.0)
        losses = 5.0 * 18.9 * 4.608 * 1.03
        gains = 50.0 * 100.0
        energy = reference_energy(components, 0.0, 50.0, 100.0, 1.0)
        assert energy == pytest.approx(losses**2 / (losses + gains), rel=1e-9)

    def test_missing_component_is_data_error(self):
        components = {name: (0.0, 0.0) for name in COMPONENTS if name != "Roof/Attic"}
        with pytest.raises(DataError, match="Roof/Attic"):
            reference_energy(components, 0.0, 0.0, 100.0, 1.0)

    def test_negative_coefficient_is_domain_error(self):
        components = {name: (0.0, 0.0) for name in COMPONENTS}
        components["Doors"] = (5.0, -1.0)
        with pytest.raises(DomainError):
            reference_energy(components, 0.0, 0.0, 100.0, 1.0)

    def test_nonpositive_tau_is_domain_error(self):
        components = {name: (0.0, 0.0) for name in COMPONENTS}
        with pytest.raises(DomainError):
            reference_energy(components, 0.0, 0.0, 100.0, 0.0)

    def test_agrees_with_the_vectorized_model(self):
        """300 random buildings: the scalar re-derivation and the model
        disagree by at most 1e-9 relative."""
        rng = np.random.default_rng(71)
        consts = PhysicsConstants()
        for _ in range(300):
            state = np.concatenate([rng.uniform(10.0, 400.0, size=5),
                                    rng.uniform(0.1, 3.0, size=5),
                                    [rng.uniform(0.0, 2.0), rng.uniform(0.0, 40.0)]])
            useful_area = rng.uniform(50.0, 4000.0)
            btype = "heavy" if rng.uniform() < 0.5 else "light"
            model = energy_consumption(state[None], [useful_area], [btype],
                                       consts).energy_consumption[0]
            oracle = reference_energy(
                oracle_components(state),
                state[10],
                state[11],
                useful_area,
                consts.time_constant_for(btype),
            )
            assert abs(model - oracle) <= 1e-9 * max(1.0, abs(oracle))
