"""The generated cohort files, byte for byte.

generate_cohort draws each building from its own generator seeded with
[seed, index] and computes everything else over whole-cohort arrays. Two
checks hold it to the files of the earlier per-building generator: the
sha256 of every file for five fixed configs, and a differential property
test against that per-building generator, kept below as the reference.
"""

import csv
import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

try:
    import hypothesis
except ImportError:  # pragma: no cover - hypothesis is in the test extra
    hypothesis = None

from epc_pinn import synth
from epc_pinn.data import CONSUMPTION_YEARS
from epc_pinn.errors import DomainError
from epc_pinn.physics import COMPONENTS, EnvelopeState, PhysicsConstants, energy_consumption
from epc_pinn.synth import (
    DEFAULT_SERIES,
    MAX_FLOORS,
    MONTH_WEIGHTS,
    GeneratorConfig,
    SerieProfile,
    generate_cohort,
)

TABLES = ("land", "audit_buildings", "audit_components", "consumption", "consumption_monthly")


def quoted_serie_config():
    """One serie whose name needs csv quoting, taller storeys."""
    serie = SerieProfile(
        name='era "7", panel', building_type="light", floors=(1, 3),
        footprint=(120.0, 240.0), apartment_area=(45.0, 70.0),
        u_means=(0.6, 0.7, 0.8, 1.9, 2.1), u_spread=0.1,
        window_fraction=(0.1, 0.2), door_fraction=(0.01, 0.02),
        air_exchange=(0.4, 0.9), heat_gains=(12.0, 21.0),
    )
    return GeneratorConfig(n_buildings=17, seed=31, series=(serie,), storey_height=3.05)


# sha256 of each file, as the per-building generator wrote them.
PINNED = {
    "default-256": (
        GeneratorConfig(n_buildings=256, seed=2024),
        {
            "land": "69895ef77cbf5f6d61269f9f9e5e6cf9984c54b00bc2c6c137aa78994189f415",
            "audit_buildings": "97a8bebf0b68ce6ab87084aefb03878f8d80c9b28ea12b436df82d3be0ef81b3",
            "audit_components": "5fc4ab874251068ba0dacbcc8407717614ac775da98f41b8ee00a4d3494cc898",
            "consumption": "c47e27441f8cb8e930a3e9bb02716ac6416ad47c37704728502ce0fe44fa2390",
            "consumption_monthly":
                "c465c879e6318788244b13085ff96700ce6a6afc889510fc7e5877c8fe4287af",
        },
    ),
    "default-1000": (  # the criterion-07 cohort, generate --seed 2024 --n 1000
        GeneratorConfig(n_buildings=1000, seed=2024),
        {
            "land": "856699133a583b07fdd28604b0a2e2edfbf0ed2bbe47194b84e8d6808d12922f",
            "audit_buildings": "e83037f07659735159f945194658c6c4fbe32bcbea13c496ec2130567aca8755",
            "audit_components": "4dc507c84e8a9421844524650308e92e246ba125d693b79f62ad429a8aad4a8d",
            "consumption": "2c622efbfdabda8c14c94c4cedbcc98bf5e564ab08716e8df704566f2ddc9c3c",
            "consumption_monthly":
                "5ea5b685ab5520b2c2f7487c1d422ba4794e626ae46a993f0aa0e9af7f2db8d1",
        },
    ),
    "heldout-5000": (  # the benchmark's held-out cohort, generate --seed 2025 --n 5000
        GeneratorConfig(n_buildings=5000, seed=2025),
        {
            "land": "6c0300ea3c253a67fe0fdc53aba6300db03edf4e05dde8b571016d1a861cceff",
            "audit_buildings": "a3a9468385b5444af54cf9b1ec9a597f8e810dc7ae1f20a7060a0d08fa540833",
            "audit_components": "cf4f48e3696326f91ceef735c132907c7a1a59718385ab65da324fd5b02b8069",
            "consumption": "2508b1a56e0381a849f3bf1ad57fce6cd40e9ff3016763560c821e3ca7fbf8de",
            "consumption_monthly":
                "d3c73e5601dc4aebc96ae18ab57beb844db671931688492a248bcf6398677890",
        },
    ),
    "zero-noise-1": (
        GeneratorConfig(n_buildings=1, seed=2024, consumption_noise=0.0, audit_noise=0.0),
        {
            "land": "c3b00066ce96d9216ab83019ed531c4c6c23722247bf5cad0d8fb6a48b8aa36a",
            "audit_buildings": "c51123d00dec916ce2b3a6c43f9fe0f59c26601cbf64ff4a83bc00a0a6ed280f",
            "audit_components": "3eb4c67b2ce40a59a89a7109f5dfffd3030c77002e57dfe321f43f01932878a6",
            "consumption": "6666e1b51d63e899c2efac53b76e8a59ed024f414bc9f5eaecb95fbc2b9778f6",
            "consumption_monthly":
                "146e13b1f00f637ccd6a873f74f32cb0b1534140a92fdf24995e8963042c0f77",
        },
    ),
    "quoted-serie": (
        quoted_serie_config(),
        {
            "land": "71787797cfad0ad3906aebd329ff3f711d2efc863aca2b1fe30c78143e5896a3",
            "audit_buildings": "58169accfcfb61ab99e050f02d8d82ab1e0efdba07570c45aa5a73902ca1df01",
            "audit_components": "6c47514688a59cbe1d216f5bfb320be1011b00fe796df041c8fbd76aa96a3315",
            "consumption": "f08465cd1f0e154e977d7fe017cb353c9567d9787e81100da835489344640dc3",
            "consumption_monthly":
                "37e4423f86697abbb9068b4a4f66ee3ff8e7d78050cfe4f046d12596b2a325a9",
        },
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_files_match_their_pinned_digests(tmp_path, name):
    config, digests = PINNED[name]
    paths = generate_cohort(config, tmp_path)
    assert {table: hashlib.sha256(paths[table].read_bytes()).hexdigest()
            for table in TABLES} == digests


def test_the_quoted_serie_is_quoted(tmp_path):
    paths = generate_cohort(quoted_serie_config(), tmp_path)
    assert ',"era ""7"", panel",' in paths["land"].read_text()


# The strings whose quoting the csv module decides; on Python 3.11 a lone
# "\r" is left bare while "\n" is quoted.
QUOTING_CASES = ["", "a", "a,b", 'say "hi"', "two\nlines", "cr\r", "\r", "tab\there",
                 "\u0101rija", " lead", "trail ", " ", 'era "7", panel', "serie_03"]


@pytest.mark.parametrize("text", QUOTING_CASES)
def test_csv_field_is_the_csv_writer_field(text):
    for row, line in (([text, "x"], synth._csv_field(text) + ",x\n"),
                      (["x", text], "x," + synth._csv_field(text) + "\n")):
        handle = io.StringIO()
        csv.writer(handle, lineterminator="\n").writerow(row)
        assert handle.getvalue() == line


# ---------------------------------------------------------------------------
# The per-building generator, kept as the reference


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _in_float_range(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _reference_building(config, index):
    rng = np.random.default_rng([config.seed, index])
    profile = config.series[int(rng.integers(len(config.series)))]
    floors = int(rng.integers(profile.floors[0], profile.floors[1] + 1))
    footprint = rng.uniform(*profile.footprint)
    aspect = rng.uniform(*config.aspect_ratio)
    roof_factor = rng.uniform(*config.roof_factor)
    window_fraction = rng.uniform(*profile.window_fraction)
    door_fraction = rng.uniform(*profile.door_fraction)
    u_values = np.array(profile.u_means) * rng.uniform(
        1.0 - profile.u_spread, 1.0 + profile.u_spread, size=len(COMPONENTS)
    )
    air = rng.uniform(*profile.air_exchange)
    gains = rng.uniform(*profile.heat_gains)
    apartment_area = rng.uniform(*profile.apartment_area)
    latitude = rng.uniform(56.90, 57.05)
    longitude = rng.uniform(24.00, 24.30)
    consumption_eps = rng.normal(0.0, 1.0, size=len(CONSUMPTION_YEARS))
    audit_eps = rng.normal(0.0, 1.0, size=2 * len(COMPONENTS))

    length = np.sqrt(footprint * aspect)
    width = np.sqrt(footprint / aspect)
    perimeter = 2.0 * (length + width)
    walls_gross = perimeter * floors * config.storey_height
    windows = window_fraction * walls_gross
    doors = door_fraction * walls_gross
    walls = walls_gross - windows - doors
    areas = np.array([footprint, footprint * roof_factor, walls, doors, windows])
    total_area = footprint * floors
    useful_area = config.useful_fraction * total_area
    per_floor = footprint / apartment_area
    apartments = max(1, round(per_floor)) * floors if math.isfinite(per_floor) else math.inf
    state = EnvelopeState(areas=areas, u_values=u_values, air_exchange_rate=air,
                          specific_heat_gains=gains)
    state.validate()  # the envelope first, then the sizes
    for name, size in (("total_area", total_area), ("useful_area", useful_area),
                       ("apartments", apartments)):
        if not _in_float_range(size):
            raise DomainError(f"building 0100{index:07d}: {name} overflows the float range")
    true_energy = energy_consumption(
        state, useful_area, profile.building_type, config.constants
    ).energy_consumption
    measured = {
        year: max(0.0, true_energy * (1.0 + config.consumption_noise * eps))
        for year, eps in zip(CONSUMPTION_YEARS, consumption_eps)
    }
    audit_areas = np.maximum(
        areas * (1.0 + config.audit_noise * audit_eps[: len(COMPONENTS)]), 1e-6
    )
    audit_u = np.maximum(
        u_values * (1.0 + config.audit_noise * audit_eps[len(COMPONENTS):]), 1e-6
    )
    return dict(number=f"0100{index:07d}", profile=profile, floors=floors,
                apartments=apartments, length=length, width=width, perimeter=perimeter,
                useful_area=useful_area, total_area=total_area, latitude=latitude,
                longitude=longitude, air=air, gains=gains, audit_areas=audit_areas,
                audit_u=audit_u, true_energy=true_energy, measured=measured)


HEADERS = {
    "land": [
        "cadastre_number", "floors", "latitude_centroid", "longitude_centroid",
        "useful_area", "geometry", "apartments", "serie", "total_area",
        "address", "perimeter", "building_type",
    ],
    "audit_buildings": [
        "cadastre_number", "floors", "length", "width", "useful_area",
        "Avg_indoor_height", "apartments", "serie", "total_area",
        "air_exchange_rate", "specific_heat_gains", "building_type",
    ],
    "audit_components": [
        "cadastre_number", "enclosing_structure", "material", "energy_consumption",
        "area", "structure_heat_loss_coefficient", "type_of_heating",
        "total_structure_heat_loss_coefficient", "total_area",
        "total_energy_consumption",
    ],
    "consumption": ["cadastre_number"]
    + [f"total_energy_consumption_{y}" for y in CONSUMPTION_YEARS],
    "consumption_monthly": ["cadastre_number", "year", "month", "energy_consumption"],
}


def reference_tables(config):
    """The five files' bytes, as the per-building generator wrote them."""
    tables = {table: [] for table in TABLES}
    c_env = config.constants.delta_t * config.constants.degree_hour_factor
    for index in range(config.n_buildings):
        b = _reference_building(config, index)
        number, serie, btype = b["number"], b["profile"].name, b["profile"].building_type
        tables["land"].append([
            number, b["floors"], b["latitude"], b["longitude"], b["useful_area"],
            f"RECT {b['length']:.2f}x{b['width']:.2f}", b["apartments"], serie,
            b["total_area"], f"Tilta iela {int(number[4:]) + 1}", b["perimeter"], btype,
        ])
        tables["audit_buildings"].append([
            number, b["floors"], b["length"], b["width"], b["useful_area"],
            config.storey_height, b["apartments"], serie, b["total_area"],
            b["air"], b["gains"], btype,
        ])
        coefficients = b["audit_u"] * b["audit_areas"]
        for j, name in enumerate(COMPONENTS):
            tables["audit_components"].append([
                number, name, synth._MATERIALS[btype][name], coefficients[j] * c_env,
                b["audit_areas"][j], coefficients[j], "district",
                float(coefficients.sum()), b["total_area"], b["true_energy"],
            ])
        tables["consumption"].append([number] + [b["measured"][y] for y in CONSUMPTION_YEARS])
        for year in CONSUMPTION_YEARS:
            annual = b["measured"][year]
            first_eleven = [annual * w for w in MONTH_WEIGHTS[:-1]]
            months = first_eleven + [annual - sum(first_eleven)]
            for month, value in enumerate(months, start=1):
                tables["consumption_monthly"].append([number, year, month, value])
    texts = {}
    for table, rows in tables.items():
        handle = io.StringIO()
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HEADERS[table])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        texts[table] = handle.getvalue().encode("utf-8")
    return texts


def written(paths):
    return {table: paths[table].read_bytes() for table in TABLES}


def test_reference_matches_the_default_cohort(tmp_path):
    config = GeneratorConfig(n_buildings=40, seed=5)
    assert written(generate_cohort(config, tmp_path)) == reference_tables(config)


if hypothesis is not None:
    st = hypothesis.strategies

    def _range(low, high):
        return st.tuples(st.floats(low, high), st.floats(0.0, high - low)).map(
            lambda p: (p[0], min(p[0] + p[1], high))
        )

    @st.composite
    def _floors(draw):
        low = draw(st.one_of(st.integers(1, 12), st.integers(1, MAX_FLOORS)))
        high = draw(st.one_of(st.integers(low, low + 5), st.integers(low, MAX_FLOORS),
                              st.just(MAX_FLOORS)))
        return low, min(high, MAX_FLOORS)

    @st.composite
    def _serie(draw):
        return SerieProfile(
            name=draw(st.text(alphabet='ab ,"\n\r\t\u0101', max_size=6)),
            building_type=draw(st.sampled_from(["heavy", "light"])),
            floors=draw(_floors()),
            footprint=draw(_range(1e-6, 1e4)),
            apartment_area=draw(_range(1e-6, 200.0)),
            u_means=tuple(draw(st.lists(st.floats(1e-3, 5.0), min_size=5, max_size=5))),
            u_spread=draw(st.floats(0.0, 0.99)),
            window_fraction=draw(_range(0.0, 0.6)),
            door_fraction=draw(_range(0.0, 0.39)),
            air_exchange=draw(_range(0.0, 3.0)),
            heat_gains=draw(_range(0.0, 60.0)),
        )

    @st.composite
    def _config(draw):
        return GeneratorConfig(
            n_buildings=draw(st.integers(1, 20)),
            seed=draw(st.integers(0, 2**32)),
            consumption_noise=draw(st.sampled_from([0, 0.0, 0.05]) | st.floats(0.0, 2.0)),
            audit_noise=draw(st.sampled_from([0.0, 0.02]) | st.floats(0.0, 2.0)),
            series=draw(st.lists(_serie(), min_size=1, max_size=3).map(tuple)
                        | st.just(DEFAULT_SERIES)),
            constants=draw(st.sampled_from([PhysicsConstants(),
                                            PhysicsConstants(time_constants={"heavy": 2.5,
                                                                             "light": 0.5})])),
            # an int setting is kept as given, and written as an int
            storey_height=draw(st.floats(0.5, 5.0) | st.integers(1, 4)),
            useful_fraction=draw(st.floats(0.1, 1.0) | st.just(1)),
            aspect_ratio=draw(_range(1.0, 4.0)),
            roof_factor=draw(_range(1.0, 2.0)),
        )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_config())
    def test_same_bytes_as_the_per_building_generator(tmp_path_factory, config):
        try:
            expected = reference_tables(config)
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                generate_cohort(config, tmp_path_factory.mktemp("cohort"))
            assert str(raised.value) == str(exc)
            return
        assert written(generate_cohort(config, tmp_path_factory.mktemp("cohort"))) == expected


def _failing_config(seed):
    """Two series: one whose walls round below zero for some footprints
    (window and door fractions sum to just under 1), one whose roof area
    or total area overflows to inf."""
    base = DEFAULT_SERIES[0]
    thin_walls = dataclasses.replace(base, name="thin", footprint=(1.0, 1e4),
                                     window_fraction=(0.9845757498341396,) * 2,
                                     door_fraction=(0.015424250165860296,) * 2)
    huge = dataclasses.replace(base, name="huge", footprint=(1e308, 1.7e308))
    return GeneratorConfig(n_buildings=30, seed=seed, series=(thin_walls, huge))


def test_the_first_bad_building_raises_the_reference_error(tmp_path):
    messages = set()
    for seed in range(8):
        with pytest.raises(DomainError) as expected:
            reference_tables(_failing_config(seed))
        out = tmp_path / str(seed)
        with pytest.raises(DomainError) as raised:
            generate_cohort(_failing_config(seed), out)
        assert str(raised.value) == str(expected.value)
        assert list(out.iterdir()) == []
        messages.add(str(raised.value).split(" (")[0].split(": ")[-1])
    # every check was hit first on some seed: negative walls, envelope
    # overflow, size overflow
    assert messages == {"envelope state entry 2 is negative",
                        "envelope state contains non-finite values",
                        "total_area overflows the float range"}
