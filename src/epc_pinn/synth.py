"""Seeded generator of synthetic building cohorts.

Real audit data for Riga is private, so verification runs on cohorts
drawn here: twelve invented construction-era series spanning leaky
pre-war masonry to tight modern construction. Geometry drives the
envelope (walls from perimeter x floors x storey height, windows and
doors as wall fractions, roof and basement from the footprint), U-values
are drawn around per-serie means, and the measured consumption is the
physics model's output with multiplicative Gaussian noise. Audited areas
and U-values are perturbed separately after the energy is computed, so
audit noise creates genuine model mismatch.

Output is the exact CSV layout the ingestion side reads, plus a monthly
consumption file whose rows sum to the annual totals. Building i draws
from its own generator, seeded with [seed, i], in a fixed order and in
four calls (serie, floors, random(15), all normals); those draws are all
the randomness, so cohorts are reproducible byte for byte. Everything else
(the uniforms' scaling low + (high - low) * u, geometry, physics, noise,
monthly split) is computed once over whole-cohort arrays, and each file
is written atomically with one write per building: every row formatted
as one line, numbers through str, the same text csv.writer writes, and
each distinct string (header, serie name, building type, component,
material) quoted once by csv itself.

reference_energy is this module's second job: a deliberately plain,
scalar re-derivation of the annual energy balance sharing no code with
the vectorized model, used to cross-check it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import JsonConfig
from .data import CONSUMPTION_SCHEMA, CONSUMPTION_YEARS, MONTHLY_SCHEMA
from .errors import ConfigError, DataError, DomainError
from .nn import atomic_write
from .physics import (
    COMPONENTS,
    N_COMPONENTS,
    PhysicsConstants,
    check_states,
    energy_consumption,  # noqa: F401 - perfbench traces synth.energy_consumption by name
    energy_consumption_batch,
)

# Fraction of each year's total per month, heating-season shaped; sums to 1.
MONTH_WEIGHTS = (0.16, 0.14, 0.12, 0.08, 0.03, 0.0, 0.0, 0.0, 0.02, 0.08, 0.15, 0.22)

# floors are drawn with rng.integers(low, high + 1), whose bound is an int64.
MAX_FLOORS = np.iinfo(np.int64).max - 1

_MATERIALS = {
    "heavy": {
        "Basement/Slab": "reinforced concrete",
        "Roof/Attic": "concrete deck",
        "Walls": "precast panel",
        "Doors": "steel",
        "Windows": "double glazing",
    },
    "light": {
        "Basement/Slab": "concrete strip",
        "Roof/Attic": "timber truss",
        "Walls": "timber frame",
        "Doors": "wood",
        "Windows": "double glazing",
    },
}


def _check_range(name: str, rng: tuple, low_ok: float = 0.0, high_below: float = np.inf) -> None:
    lo, hi = rng
    if not low_ok <= lo <= hi < high_below:
        raise ConfigError(f"bad range for {name}: {rng}")


@dataclass(frozen=True)
class SerieProfile(JsonConfig):
    """Sampling ranges for one construction-era serie.

    u_means follows the envelope component order (basement/slab,
    roof/attic, walls, doors, windows); u_spread is the relative
    half-width of the uniform draw around each mean. window_fraction and
    door_fraction apportion the gross wall area.
    """

    name: str
    building_type: str
    floors: tuple[int, int]
    footprint: tuple[float, float]  # ground-floor area [m2]
    apartment_area: tuple[float, float]  # footprint share per apartment [m2]
    u_means: tuple[float, float, float, float, float]
    u_spread: float
    window_fraction: tuple[float, float]
    door_fraction: tuple[float, float]
    air_exchange: tuple[float, float]  # [1/h]
    heat_gains: tuple[float, float]  # [kWh/(m2*yr)]

    def __post_init__(self) -> None:
        if self.building_type not in _MATERIALS:
            raise ConfigError(
                f"serie {self.name}: unknown building_type {self.building_type!r}"
            )
        _check_range(f"{self.name}.floors", self.floors, low_ok=1, high_below=MAX_FLOORS + 1)
        _check_range(f"{self.name}.footprint", self.footprint, low_ok=1e-6)
        _check_range(f"{self.name}.apartment_area", self.apartment_area, low_ok=1e-6)
        if len(self.u_means) != len(COMPONENTS) or any(u <= 0 for u in self.u_means):
            raise ConfigError(f"serie {self.name}: bad u_means {self.u_means}")
        if not 0 <= self.u_spread < 1:
            raise ConfigError(f"serie {self.name}: u_spread must be in [0, 1)")
        _check_range(f"{self.name}.window_fraction", self.window_fraction)
        _check_range(f"{self.name}.door_fraction", self.door_fraction)
        _check_range(f"{self.name}.air_exchange", self.air_exchange)
        _check_range(f"{self.name}.heat_gains", self.heat_gains)
        if self.window_fraction[1] + self.door_fraction[1] >= 1:
            raise ConfigError(
                f"serie {self.name}: window_fraction[1] + door_fraction[1] must be < 1 "
                f"(walls keep the rest), got {self.window_fraction[1]} + {self.door_fraction[1]}"
            )


def _profile(name, btype, floors, footprint, u_means, wf, air, gains) -> SerieProfile:
    return SerieProfile(
        name=name,
        building_type=btype,
        floors=floors,
        footprint=footprint,
        apartment_area=(60.0, 90.0),
        u_means=u_means,
        u_spread=0.04,
        window_fraction=wf,
        door_fraction=(0.004, 0.008),
        air_exchange=air,
        heat_gains=gains,
    )


# Invented stand-ins for the twelve construction-era categories; the
# progression (older series leakier, newer series tighter) is what gives
# the serie feature its predictive power.
DEFAULT_SERIES: tuple[SerieProfile, ...] = (
    _profile("serie_01", "heavy", (2, 4), (200.0, 450.0),
             (0.90, 1.00, 1.25, 2.40, 2.70), (0.12, 0.15), (0.85, 0.95), (13.0, 15.0)),
    _profile("serie_02", "light", (1, 2), (90.0, 180.0),
             (1.00, 1.10, 0.90, 2.60, 2.80), (0.12, 0.15), (0.90, 1.00), (13.0, 15.0)),
    _profile("serie_03", "heavy", (2, 5), (250.0, 500.0),
             (0.85, 0.95, 1.10, 2.20, 2.60), (0.13, 0.16), (0.80, 0.90), (14.0, 16.0)),
    _profile("serie_04", "heavy", (4, 5), (300.0, 600.0),
             (0.80, 0.90, 1.05, 2.10, 2.55), (0.13, 0.16), (0.75, 0.85), (14.0, 16.0)),
    _profile("serie_05", "heavy", (5, 9), (350.0, 700.0),
             (0.75, 0.85, 1.00, 2.00, 2.50), (0.14, 0.17), (0.70, 0.80), (15.0, 17.0)),
    _profile("serie_06", "heavy", (5, 9), (300.0, 650.0),
             (0.70, 0.80, 0.95, 1.90, 2.40), (0.14, 0.17), (0.65, 0.78), (15.0, 17.0)),
    _profile("serie_07", "heavy", (5, 9), (350.0, 750.0),
             (0.60, 0.70, 0.85, 1.80, 2.20), (0.15, 0.18), (0.60, 0.72), (16.0, 18.0)),
    _profile("serie_08", "heavy", (3, 6), (280.0, 550.0),
             (0.55, 0.60, 0.70, 1.60, 2.00), (0.15, 0.18), (0.55, 0.68), (16.0, 18.0)),
    _profile("serie_09", "light", (2, 4), (150.0, 350.0),
             (0.50, 0.50, 0.55, 1.50, 1.80), (0.16, 0.19), (0.50, 0.62), (17.0, 19.0)),
    _profile("serie_10", "heavy", (3, 7), (300.0, 600.0),
             (0.40, 0.40, 0.45, 1.30, 1.60), (0.17, 0.20), (0.45, 0.55), (17.0, 19.0)),
    _profile("serie_11", "light", (2, 4), (150.0, 320.0),
             (0.30, 0.30, 0.35, 1.20, 1.40), (0.18, 0.22), (0.40, 0.50), (18.0, 20.0)),
    _profile("serie_12", "heavy", (4, 8), (350.0, 700.0),
             (0.25, 0.25, 0.30, 1.10, 1.30), (0.18, 0.22), (0.35, 0.45), (18.0, 20.0)),
)


@dataclass
class GeneratorConfig(JsonConfig):
    n_buildings: int
    seed: int
    consumption_noise: float = 0.05  # relative std on measured totals
    audit_noise: float = 0.02  # relative std on audited areas/U-values
    series: tuple[SerieProfile, ...] = DEFAULT_SERIES
    constants: PhysicsConstants = field(default_factory=PhysicsConstants)
    storey_height: float = 2.7  # m, fixed for wall-area derivation
    useful_fraction: float = 0.85  # useful over gross floor area
    aspect_ratio: tuple[float, float] = (1.2, 1.8)
    roof_factor: tuple[float, float] = (1.0, 1.15)  # roof over footprint

    def __post_init__(self) -> None:
        for name, low in (("n_buildings", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.consumption_noise < 0 or self.audit_noise < 0:
            raise ConfigError("noise levels must be >= 0")
        if not self.series:
            raise ConfigError("need at least one serie profile")
        for i, profile in enumerate(self.series):
            try:
                self.constants.time_constant_for(profile.building_type)
            except ConfigError as exc:
                raise ConfigError(f"series[{i}].building_type: {exc}") from None
        if self.storey_height <= 0 or not 0 < self.useful_fraction <= 1:
            raise ConfigError("bad storey_height or useful_fraction")
        _check_range("aspect_ratio", self.aspect_ratio, low_ok=1.0)
        _check_range("roof_factor", self.roof_factor, low_ok=1.0)


def _draw(config: GeneratorConfig) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Every random draw of the cohort: serie indices, floors, and one row
    of floats per building in the order drawn. Building i draws from its
    own generator seeded with [seed, i]; the draw order below is fixed, and
    changing it changes every cohort.

    A building makes four calls: the serie, the floors, random(15) for its
    fifteen uniforms, and all its normals in one call. The uniforms are
    scaled once over the whole cohort, as low + (high - low) * u with each
    building's serie bounds. numpy's uniform computes low + range * u in C,
    with range = high - low, so these are bitwise its draws on any build
    that does not fuse that line into one FMA. Here the scaling is two
    separately rounded ufuncs, so it does not depend on how numpy was
    compiled. A sized normal reads the same stream as one call per value."""
    # Per serie, the uniforms' (low, high) in draw order: footprint, aspect,
    # roof, window, door, five U factors, air, gains, apartment area,
    # latitude, longitude.
    bounds = np.array([[
        profile.footprint, config.aspect_ratio, config.roof_factor,
        profile.window_fraction, profile.door_fraction,
        *[(1.0 - profile.u_spread, 1.0 + profile.u_spread)] * N_COMPONENTS,
        profile.air_exchange, profile.heat_gains, profile.apartment_area,
        (56.90, 57.05), (24.00, 24.30),
    ] for profile in config.series], dtype=float)
    n_normal = len(CONSUMPTION_YEARS) + 2 * N_COMPONENTS  # consumption noise, then audit noise
    serie, floors, uniforms, normals = [], [], [], []
    for i in range(config.n_buildings):
        rng = np.random.default_rng([config.seed, i])
        serie.append(int(rng.integers(len(config.series))))
        profile = config.series[serie[-1]]
        floors.append(int(rng.integers(profile.floors[0], profile.floors[1] + 1)))
        uniforms.append(rng.random(bounds.shape[1]))
        normals.append(rng.normal(0.0, 1.0, size=n_normal))
    serie = np.array(serie)
    low, high = bounds[serie, :, 0], bounds[serie, :, 1]
    return serie, floors, np.hstack([low + (high - low) * np.array(uniforms), np.array(normals)])


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one field of a longer row: quoted
    only where csv's own rule says so, and the empty string left empty."""
    handle = io.StringIO()
    csv.writer(handle, lineterminator="\n").writerow([text, ""])
    return handle.getvalue()[:-2]


def _write_csv(path: Path, header: list[str], lines) -> None:
    """lines are the rows, formatted from plain Python values, one string
    per building; str(float) round-trips exactly, which both the
    oracle-closure check and byte-identical regeneration rely on. The file
    is written atomically: an error mid-file leaves path as it was."""
    with atomic_write(path) as handle:
        handle.write(",".join(map(_csv_field, header)) + "\n")
        handle.writelines(lines)


@np.errstate(over="ignore", invalid="ignore")  # every value written is checked
def generate_cohort(config: GeneratorConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write the synthetic cohort as the standard five CSV files.

    Returns a name -> path map. Same config and seed give byte-identical
    files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    serie, floors, draws = _draw(config)
    footprint, aspect, roof_factor, window_fraction, door_fraction = draws[:, :5].T
    u_values = np.array([p.u_means for p in config.series], dtype=float)[serie] * draws[:, 5:10]
    air, gains, apartment_area, latitude, longitude = draws[:, 10:15].T
    consumption_eps, audit_eps = draws[:, 15:-2 * N_COMPONENTS], draws[:, -2 * N_COMPONENTS:]

    floors_f = np.array(floors, dtype=float)
    length = np.sqrt(footprint * aspect)
    width = np.sqrt(footprint / aspect)
    perimeter = 2.0 * (length + width)
    walls_gross = perimeter * floors_f * config.storey_height
    windows = window_fraction * walls_gross
    doors = door_fraction * walls_gross
    walls = walls_gross - windows - doors
    # COMPONENTS order: basement/slab, roof/attic, walls, doors, windows.
    areas = np.column_stack([footprint, footprint * roof_factor, walls, doors, windows])
    total_area = footprint * floors_f
    useful_area = config.useful_fraction * total_area
    per_floor = footprint / apartment_area
    states = np.column_stack([areas, u_values, air, gains])

    taus = config.constants.time_constants_of([p.building_type for p in config.series])
    true_energy = energy_consumption_batch(
        states, useful_area, taus[serie], config.constants
    ).energy_consumption
    measured = true_energy[:, None] * (1.0 + config.consumption_noise * consumption_eps)
    measured = np.where(measured > 0.0, measured, 0.0)  # as max(0.0, x): NaN gives 0.0
    audit_factors = 1.0 + config.audit_noise * audit_eps
    audit_areas = np.maximum(areas * audit_factors[:, :N_COMPONENTS], 1e-6)
    audit_u = np.maximum(u_values * audit_factors[:, N_COMPONENTS:], 1e-6)
    coefficients = audit_u * audit_areas
    coefficient_totals = coefficients.sum(axis=1)
    c_env = config.constants.delta_t * config.constants.degree_hour_factor
    # each component row carries its annual loss, area and heat loss coefficient
    per_component = np.stack([coefficients * c_env, audit_areas, coefficients], axis=-1)
    # December takes the float residual, summed left to right, so the months
    # sum exactly to the annual total.
    months = measured[..., None] * np.array(MONTH_WEIGHTS[:-1])
    eleven = np.zeros_like(measured)
    for k in range(len(MONTH_WEIGHTS) - 1):
        eleven = eleven + months[..., k]
    months = np.concatenate([months, (measured - eleven)[..., None]], axis=-1)

    numbers = [f"0100{i:07d}" for i in range(config.n_buildings)]
    written = {  # in checking order; apartments as a float, as land.csv's integer rule wants
        "total_area": total_area, "useful_area": useful_area,
        "apartments": np.maximum(1.0, np.round(per_floor)) * floors_f,
        "energy consumption": true_energy, "component heat loss": per_component[..., 0],
        "audited area": audit_areas, "heat loss coefficient": coefficients,
        "total heat loss coefficient": coefficient_totals,
        "measured consumption": measured, "monthly consumption": months,
    }
    not_finite = {k: ~np.isfinite(v.reshape(len(v), -1)).all(axis=1) for k, v in written.items()}
    bad = np.logical_or.reduce([~(np.isfinite(states) & (states >= 0)).all(axis=1),
                                *not_finite.values()])
    if bad.any():  # the first bad building raises its DomainError
        j = int(np.argmax(bad))
        try:
            check_states(states[j:j + 1])
        except DomainError as exc:
            raise DomainError(f"building {numbers[j]}: {exc}") from None
        name = next(name for name, mask in not_finite.items() if mask[j])
        raise DomainError(f"building {numbers[j]}: {name} overflows the float range")
    # Python ints: the product can exceed int64.
    apartments = [max(1, round(ratio)) * f for ratio, f in zip(per_floor.tolist(), floors)]

    # Each row is one f-string: numbers and the literal strings never need
    # quoting, and csv quotes each serie name, building type, component and
    # material once. Each building's rows are joined into one string, so a
    # file takes one write per building.
    series = serie.tolist()
    quoted = [(_csv_field(p.name), _csv_field(p.building_type), [
        f"{_csv_field(name)},{_csv_field(_MATERIALS[p.building_type][name])}"
        for name in COMPONENTS
    ]) for p in config.series]
    names, btypes, components = zip(*(quoted[i] for i in series))
    useful, total = useful_area.tolist(), total_area.tolist()
    # Shared parts are formatted once: the totals that end each of a
    # building's component rows, and the year and month of the monthly rows.
    tails = (f",district,{c},{t},{e}\n" for c, t, e in zip(
        coefficient_totals.tolist(), total, true_energy.tolist()))
    heads = [f",{year},{month}," for year in CONSUMPTION_YEARS
             for month in range(1, len(MONTH_WEIGHTS) + 1)]
    lines = {
        "land": (
            f"{number},{f},{lat},{lon},{u},RECT {a:.2f}x{b:.2f},{apt},{name},{t},"
            f"Tilta iela {i},{p},{btype}\n"
            for i, (number, f, lat, lon, u, a, b, apt, name, t, p, btype) in enumerate(zip(
                numbers, floors, latitude.tolist(), longitude.tolist(), useful,
                length.tolist(), width.tolist(), apartments, names, total,
                perimeter.tolist(), btypes,
            ), start=1)
        ),
        "audit_buildings": (
            f"{number},{f},{a},{b},{u},{config.storey_height},{apt},{name},{t},{x},{g},"
            f"{btype}\n"
            for number, f, a, b, u, apt, name, t, x, g, btype in zip(
                numbers, floors, length.tolist(), width.tolist(), useful, apartments, names,
                total, air.tolist(), gains.tolist(), btypes,
            )
        ),
        "audit_components": (
            "".join([
                f"{number},{component},{loss},{area},{coefficient}{tail}"
                for component, (loss, area, coefficient) in zip(fields, block.tolist())
            ])
            for number, fields, block, tail in zip(numbers, components, per_component, tails)
        ),
        "consumption": (
            f"{number},{','.join(map(str, values.tolist()))}\n"
            for number, values in zip(numbers, measured)
        ),
        "consumption_monthly": (
            "".join([f"{number}{head}{value}\n" for head, value in zip(heads, values.tolist())])
            for number, values in zip(numbers, months.reshape(len(months), -1))
        ),
    }
    headers = {
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
        # the consumption files hold the loader's columns and no other
        **{schema.name: [column.name for column in schema.columns]
           for schema in (CONSUMPTION_SCHEMA, MONTHLY_SCHEMA)},
    }
    paths = {name: out_dir / f"{name}.csv" for name in headers}
    for name, path in paths.items():
        _write_csv(path, headers[name], lines[name])
    return paths


# ---------------------------------------------------------------------------
# Independent scalar oracle

_ORACLE_COMPONENTS = ("Basement/Slab", "Roof/Attic", "Walls", "Doors", "Windows")


def reference_energy(
    components: dict[str, tuple[float, float]],
    air_exchange_rate: float,
    specific_heat_gains: float,
    useful_area: float,
    tau: float,
    delta_t: float = 18.9,
    heating_days: float = 192.0,
    hours_per_day: float = 24.0,
    w_to_kw: float = 1000.0,
    bridge_fraction: float = 0.03,
    vent_coefficient: float = 0.34,
    near_one_epsilon: float = 1e-6,
) -> float:
    """Annual energy consumption [kWh/yr] from audit rows, recomputed the
    plain way.

    components maps each envelope component name to its
    (area, structure_heat_loss_coefficient) pair. This function is kept
    free of any shared code with the vectorized model on purpose: scalar
    Python arithmetic, the textbook formula on both sides of the
    gains/losses ratio, and the component loss taken directly from the
    heat loss coefficient (area times U-value) so a zero area needs no
    special casing.
    """
    missing = [name for name in _ORACLE_COMPONENTS if name not in components]
    if missing:
        raise DataError(f"incomplete audit, missing component(s): {', '.join(missing)}")
    if tau <= 0:
        raise DomainError(f"time constant must be positive, got {tau}")
    season = heating_days * hours_per_day / w_to_kw
    envelope = 0.0
    for name in _ORACLE_COMPONENTS:
        area, coefficient = components[name]
        if area < 0 or coefficient < 0:
            raise DomainError(
                f"component {name}: area and heat loss coefficient must be >= 0"
            )
        envelope += coefficient * delta_t * season
    bridges = bridge_fraction * envelope
    ventilation = useful_area * air_exchange_rate * vent_coefficient * delta_t * season
    losses = envelope + bridges + ventilation
    gains = specific_heat_gains * useful_area
    if losses <= 0.0:
        return 0.0
    ratio = gains / losses
    if abs(ratio - 1.0) <= near_one_epsilon:
        factor = tau / (tau + 1.0)
    else:
        factor = (1.0 - ratio**tau) / (1.0 - ratio ** (tau + 1.0))
    energy = losses - gains * factor
    return energy if energy > 0.0 else 0.0
