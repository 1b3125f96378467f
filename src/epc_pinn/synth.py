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
consumption file whose rows sum to the annual totals. Every value is
derived from a per-building generator seeded with [seed, building index],
so cohorts are reproducible byte for byte.

reference_energy is this module's second job: a deliberately plain,
scalar re-derivation of the annual energy balance sharing no code with
the vectorized model, used to cross-check it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import JsonConfig
from .errors import ConfigError, DataError, DomainError
from .physics import COMPONENTS, EnvelopeState, PhysicsConstants, energy_consumption

# Fraction of each year's total per month, heating-season shaped; sums to 1.
MONTH_WEIGHTS = (0.16, 0.14, 0.12, 0.08, 0.03, 0.0, 0.0, 0.0, 0.02, 0.08, 0.15, 0.22)

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


def _check_range(name: str, rng: tuple, low_ok: float = 0.0) -> None:
    lo, hi = rng
    if not low_ok <= lo <= hi < np.inf:
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
        _check_range(f"{self.name}.floors", self.floors, low_ok=1)
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
    years: tuple[int, ...] = (2017, 2018, 2019, 2020)

    def __post_init__(self) -> None:
        for name, low in (("n_buildings", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.consumption_noise < 0 or self.audit_noise < 0:
            raise ConfigError("noise levels must be >= 0")
        if not self.series:
            raise ConfigError("need at least one serie profile")
        if self.storey_height <= 0 or not 0 < self.useful_fraction <= 1:
            raise ConfigError("bad storey_height or useful_fraction")
        _check_range("aspect_ratio", self.aspect_ratio, low_ok=1.0)
        _check_range("roof_factor", self.roof_factor, low_ok=1.0)
        if not self.years:
            raise ConfigError("need at least one consumption year")


@dataclass(eq=False)
class _Building:
    """One generated building, before CSV serialization."""

    cadastre_number: str
    profile: SerieProfile
    floors: int
    apartments: int
    footprint: float
    length: float
    width: float
    perimeter: float
    useful_area: float
    total_area: float
    latitude: float
    longitude: float
    true_state: EnvelopeState
    audit_areas: np.ndarray
    audit_u: np.ndarray
    true_energy: float
    measured: dict[int, float]


def _generate_building(config: GeneratorConfig, index: int) -> _Building:
    # The draw order below is fixed; changing it changes every cohort.
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
    consumption_eps = rng.normal(0.0, 1.0, size=len(config.years))
    audit_eps = rng.normal(0.0, 1.0, size=2 * len(COMPONENTS))

    length = np.sqrt(footprint * aspect)
    width = np.sqrt(footprint / aspect)
    perimeter = 2.0 * (length + width)
    walls_gross = perimeter * floors * config.storey_height
    windows = window_fraction * walls_gross
    doors = door_fraction * walls_gross
    walls = walls_gross - windows - doors
    basement = footprint
    roof = footprint * roof_factor
    # COMPONENTS order: basement/slab, roof/attic, walls, doors, windows.
    areas = np.array([basement, roof, walls, doors, windows])
    total_area = footprint * floors
    useful_area = config.useful_fraction * total_area
    apartments = max(1, round(footprint / apartment_area)) * floors

    state = EnvelopeState(
        areas=areas,
        u_values=u_values,
        air_exchange_rate=air,
        specific_heat_gains=gains,
    )
    true_energy = energy_consumption(
        state, useful_area, profile.building_type, config.constants
    ).energy_consumption
    measured = {
        year: max(0.0, true_energy * (1.0 + config.consumption_noise * eps))
        for year, eps in zip(config.years, consumption_eps)
    }
    audit_areas = np.maximum(
        areas * (1.0 + config.audit_noise * audit_eps[: len(COMPONENTS)]), 1e-6
    )
    audit_u = np.maximum(
        u_values * (1.0 + config.audit_noise * audit_eps[len(COMPONENTS) :]), 1e-6
    )
    return _Building(
        cadastre_number=f"0100{index:07d}",
        profile=profile,
        floors=floors,
        apartments=apartments,
        footprint=footprint,
        length=length,
        width=width,
        perimeter=perimeter,
        useful_area=useful_area,
        total_area=total_area,
        latitude=latitude,
        longitude=longitude,
        true_state=state,
        audit_areas=audit_areas,
        audit_u=audit_u,
        true_energy=true_energy,
        measured=measured,
    )


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # repr round-trips floats exactly, which both the oracle-closure
    # check and byte-identical regeneration rely on.
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def generate_cohort(config: GeneratorConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write the synthetic cohort as the standard five CSV files.

    Returns a name -> path map. Same config and seed give byte-identical
    files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    buildings = [_generate_building(config, i) for i in range(config.n_buildings)]

    land_rows = []
    audit_rows = []
    component_rows = []
    consumption_rows = []
    monthly_rows = []
    c_env = config.constants.delta_t * config.constants.degree_hour_factor
    for b in buildings:
        serie = b.profile.name
        btype = b.profile.building_type
        land_rows.append([
            b.cadastre_number, b.floors, b.latitude, b.longitude, b.useful_area,
            f"RECT {b.length:.2f}x{b.width:.2f}", b.apartments, serie,
            b.total_area, f"Tilta iela {int(b.cadastre_number[4:]) + 1}",
            b.perimeter, btype,
        ])
        audit_rows.append([
            b.cadastre_number, b.floors, b.length, b.width, b.useful_area,
            config.storey_height, b.apartments, serie, b.total_area,
            b.true_state.air_exchange_rate, b.true_state.specific_heat_gains, btype,
        ])
        coefficients = b.audit_u * b.audit_areas
        for j, name in enumerate(COMPONENTS):
            component_rows.append([
                b.cadastre_number, name, _MATERIALS[btype][name],
                coefficients[j] * c_env,  # carried: this component's annual loss
                b.audit_areas[j], coefficients[j], "district",
                float(coefficients.sum()), b.total_area, b.true_energy,
            ])
        consumption_rows.append(
            [b.cadastre_number] + [b.measured[year] for year in config.years]
        )
        for year in config.years:
            annual = b.measured[year]
            first_eleven = [annual * w for w in MONTH_WEIGHTS[:-1]]
            # December takes the float residual so the months sum exactly.
            months = first_eleven + [annual - sum(first_eleven)]
            for month, value in enumerate(months, start=1):
                monthly_rows.append([b.cadastre_number, year, month, value])

    paths = {
        "land": out_dir / "land.csv",
        "audit_buildings": out_dir / "audit_buildings.csv",
        "audit_components": out_dir / "audit_components.csv",
        "consumption": out_dir / "consumption.csv",
        "consumption_monthly": out_dir / "consumption_monthly.csv",
    }
    _write_csv(paths["land"], [
        "cadastre_number", "floors", "latitude_centroid", "longitude_centroid",
        "useful_area", "geometry", "apartments", "serie", "total_area",
        "address", "perimeter", "building_type",
    ], land_rows)
    _write_csv(paths["audit_buildings"], [
        "cadastre_number", "floors", "length", "width", "useful_area",
        "Avg_indoor_height", "apartments", "serie", "total_area",
        "air_exchange_rate", "specific_heat_gains", "building_type",
    ], audit_rows)
    _write_csv(paths["audit_components"], [
        "cadastre_number", "enclosing_structure", "material", "energy_consumption",
        "area", "structure_heat_loss_coefficient", "type_of_heating",
        "total_structure_heat_loss_coefficient", "total_area",
        "total_energy_consumption",
    ], component_rows)
    _write_csv(paths["consumption"],
               ["cadastre_number"]
               + [f"total_energy_consumption_{y}" for y in config.years],
               consumption_rows)
    _write_csv(paths["consumption_monthly"],
               ["cadastre_number", "year", "month", "energy_consumption"],
               monthly_rows)
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
