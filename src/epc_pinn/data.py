"""CSV ingestion, joining, feature encoding, scaling and data splits.

Four comma-separated UTF-8 files with header rows feed the pipeline:

    land.csv               general building registry
    audit_buildings.csv    per-building audit quantities (air exchange, gains)
    audit_components.csv   one row per (building, envelope component)
    consumption.csv        measured annual totals per year 2017..2020

Each file is parsed in one pass: csv.reader yields the rows, the header
is mapped to column indices once, and each row's cells go straight
through their column parsers into a record. The files are UTF-8, with or
without a leading byte-order mark; a file that cannot be read or decoded
is a DataError naming it (exit 2 on the command line), like any other
input problem.

The cadastre number is the primary key throughout. Buildings surviving an
inner join with all five envelope components and a consumption record
become JoinedSamples: a 17-dimensional feature vector, the 12 target
quantities as an EnvelopeState (with U-values derived from heat loss
coefficient over area), and the measured mean annual consumption. The
targets of all joined buildings are checked for finite, non-negative
values in one pass.

Scaling is plain min-max per column with a guarded divisor for constant
columns; splitting covers shuffled k-fold partitions and the
train/validation split used for scheduling and early stopping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .physics import COMPONENTS, EnvelopeState, u_value

# The twelve construction-era categories. Synthetic cohorts use these
# names; real data must use them too for the one-hot encoding to apply.
SERIES: tuple[str, ...] = tuple(f"serie_{i:02d}" for i in range(1, 13))

BUILDING_TYPES: tuple[str, ...] = ("light", "heavy")
_BUILDING_TYPE_CODE = {"light": 0.0, "heavy": 1.0}

CONSUMPTION_YEARS: tuple[int, ...] = (2017, 2018, 2019, 2020)

# Feature vector layout: 5 scalars then the serie one-hot block.
FEATURE_NAMES: tuple[str, ...] = (
    "useful_area",
    "total_area",
    "floors",
    "apartments",
    "building_type",
) + tuple(f"serie={s}" for s in SERIES)
N_FEATURES = len(FEATURE_NAMES)

# Standard file names inside a data directory.
LAND_FILE = "land.csv"
AUDIT_BUILDINGS_FILE = "audit_buildings.csv"
AUDIT_COMPONENTS_FILE = "audit_components.csv"
CONSUMPTION_FILE = "consumption.csv"
MONTHLY_FILE = "consumption_monthly.csv"


# ---------------------------------------------------------------------------
# Records


@dataclass
class LandRecord:
    cadastre_number: str
    floors: int
    useful_area: float
    total_area: float
    apartments: int
    serie: str
    building_type: str
    # Carried through untouched; the model never reads these.
    latitude_centroid: float
    longitude_centroid: float
    geometry: str
    address: str
    perimeter: float

    def __post_init__(self) -> None:
        if not self.cadastre_number:
            raise DataError("cadastre_number must be nonempty")
        check_building_invariants(self.floors, self.useful_area, self.total_area)


def check_building_invariants(floors: int, useful_area: float, total_area: float) -> None:
    """The invariants a land.csv building meets; raises DataError naming
    the first field that breaks one."""
    if floors < 1:
        raise DataError(f"'floors' must be >= 1, got {floors}")
    for name, area in (("useful_area", useful_area), ("total_area", total_area)):
        if area <= 0:
            raise DataError(f"{name!r} must be positive, got {area}")


@dataclass
class AuditBuildingRecord:
    cadastre_number: str
    floors: int
    useful_area: float
    total_area: float
    apartments: int
    serie: str
    building_type: str
    length: float
    width: float
    avg_indoor_height: float
    air_exchange_rate: float
    specific_heat_gains: float

    def __post_init__(self) -> None:
        if not self.cadastre_number:
            raise DataError("cadastre_number must be nonempty")
        if self.air_exchange_rate < 0:
            raise DataError(
                f"air_exchange_rate must be >= 0, got {self.air_exchange_rate}"
            )
        if self.specific_heat_gains < 0:
            raise DataError(
                f"specific_heat_gains must be >= 0, got {self.specific_heat_gains}"
            )
        if self.useful_area <= 0 or self.total_area <= 0:
            raise DataError(
                f"areas must be positive, got useful_area={self.useful_area}, "
                f"total_area={self.total_area}"
            )


@dataclass
class AuditComponentRecord:
    cadastre_number: str
    enclosing_structure: str
    material: str
    area: float
    structure_heat_loss_coefficient: float
    energy_consumption: float

    def __post_init__(self) -> None:
        if not self.cadastre_number:
            raise DataError("cadastre_number must be nonempty")
        if self.enclosing_structure not in COMPONENTS:
            known = ", ".join(COMPONENTS)
            raise DataError(
                f"unknown enclosing_structure {self.enclosing_structure!r}; "
                f"expected one of: {known}"
            )
        # Zero area is tolerated here and handled at join time; negative is not.
        if self.area < 0:
            raise DataError(f"area must be >= 0, got {self.area}")
        if self.structure_heat_loss_coefficient < 0:
            raise DataError(
                "structure_heat_loss_coefficient must be >= 0, "
                f"got {self.structure_heat_loss_coefficient}"
            )


@dataclass
class ConsumptionRecord:
    cadastre_number: str
    annual_totals: dict[int, float]
    mean_annual: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.cadastre_number:
            raise DataError("cadastre_number must be nonempty")
        if not self.annual_totals:
            raise DataError(
                f"building {self.cadastre_number}: no annual consumption present"
            )
        for year, total in self.annual_totals.items():
            if total < 0:
                raise DataError(
                    f"building {self.cadastre_number}: negative consumption "
                    f"{total} for {year}"
                )
        # The reduction np.mean runs, without its per-call overhead, so the
        # value is bitwise np.mean's.
        totals = np.array(list(self.annual_totals.values()), dtype=float)
        self.mean_annual = float(np.add.reduce(totals)) / totals.size


@dataclass
class MonthlyConsumptionRow:
    cadastre_number: str
    year: int
    month: int
    energy_consumption: float

    def __post_init__(self) -> None:
        if not self.cadastre_number:
            raise DataError("cadastre_number must be nonempty")
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month}")
        if self.energy_consumption < 0:
            raise DataError(
                f"energy_consumption must be >= 0, got {self.energy_consumption}"
            )


@dataclass
class JoinedSample:
    """One training-ready building."""

    cadastre_number: str
    features: np.ndarray
    target_state: EnvelopeState
    measured_energy: float
    useful_area: float
    building_type: str


# ---------------------------------------------------------------------------
# Schema-driven loading


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


@dataclass(frozen=True)
class Column:
    name: str
    attr: str
    parse: Callable[[str], object]


@dataclass(frozen=True)
class TableSchema:
    """Maps CSV columns onto a record constructor plus a uniqueness key."""

    name: str
    columns: tuple[Column, ...]
    build: Callable[[dict], object]
    key: Callable[[object], object] | None = None


def _col(name: str, parse: Callable[[str], object], attr: str | None = None) -> Column:
    return Column(name=name, attr=attr if attr is not None else name, parse=parse)


LAND_SCHEMA = TableSchema(
    name="land",
    columns=(
        _col("cadastre_number", _parse_str),
        _col("floors", _parse_int),
        _col("latitude_centroid", _parse_float),
        _col("longitude_centroid", _parse_float),
        _col("useful_area", _parse_float),
        _col("geometry", _parse_str),
        _col("apartments", _parse_int),
        _col("serie", _parse_str),
        _col("total_area", _parse_float),
        _col("address", _parse_str),
        _col("perimeter", _parse_float),
        _col("building_type", _parse_str),
    ),
    build=lambda attrs: LandRecord(**attrs),
    key=lambda rec: rec.cadastre_number,
)

AUDIT_BUILDINGS_SCHEMA = TableSchema(
    name="audit_buildings",
    columns=(
        _col("cadastre_number", _parse_str),
        _col("floors", _parse_int),
        _col("length", _parse_float),
        _col("width", _parse_float),
        _col("useful_area", _parse_float),
        _col("Avg_indoor_height", _parse_float, attr="avg_indoor_height"),
        _col("apartments", _parse_int),
        _col("serie", _parse_str),
        _col("total_area", _parse_float),
        _col("air_exchange_rate", _parse_float),
        _col("specific_heat_gains", _parse_float),
        _col("building_type", _parse_str),
    ),
    build=lambda attrs: AuditBuildingRecord(**attrs),
    key=lambda rec: rec.cadastre_number,
)

AUDIT_COMPONENTS_SCHEMA = TableSchema(
    name="audit_components",
    columns=(
        _col("cadastre_number", _parse_str),
        _col("enclosing_structure", _parse_str),
        _col("material", _parse_str),
        _col("energy_consumption", _parse_float),
        _col("area", _parse_float),
        _col("structure_heat_loss_coefficient", _parse_float),
    ),
    build=lambda attrs: AuditComponentRecord(**attrs),
    key=lambda rec: (rec.cadastre_number, rec.enclosing_structure),
)


def _parse_optional_float(raw: str) -> float | None:
    """An empty cell is an absent value."""
    return None if raw == "" else _parse_float(raw)


def _build_consumption(attrs: dict) -> ConsumptionRecord:
    totals = {
        year: attrs[f"y{year}"]
        for year in CONSUMPTION_YEARS
        if attrs[f"y{year}"] is not None
    }
    return ConsumptionRecord(cadastre_number=attrs["cadastre_number"], annual_totals=totals)


CONSUMPTION_SCHEMA = TableSchema(
    name="consumption",
    columns=(_col("cadastre_number", _parse_str),)
    + tuple(
        # Empty cells mean the year is absent.
        _col(f"total_energy_consumption_{year}", _parse_optional_float, attr=f"y{year}")
        for year in CONSUMPTION_YEARS
    ),
    build=_build_consumption,
    key=lambda rec: rec.cadastre_number,
)

MONTHLY_SCHEMA = TableSchema(
    name="consumption_monthly",
    columns=(
        _col("cadastre_number", _parse_str),
        _col("year", _parse_int),
        _col("month", _parse_int),
        _col("energy_consumption", _parse_float),
    ),
    build=lambda attrs: MonthlyConsumptionRow(**attrs),
    key=None,  # several rows per building by design
)


def load_dataset(path: str | Path, schema: TableSchema) -> list:
    """Parse one CSV against a schema.

    Raises DataError naming the file, row and column for the first
    problem found: a missing column, an unparseable cell, a record
    invariant violation, or a duplicate key; and naming the file when it
    cannot be read or decoded at all.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{schema.name} file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            return _read_records(path, schema, csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read {schema.name} file: {exc}") from None


def _read_records(path: Path, schema: TableSchema, reader) -> list:
    """The row loop of load_dataset. Rows are read as csv.DictReader would
    present them: blank lines are skipped and not counted, a repeated
    header name refers to its last column, and extra columns are ignored."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    index = {name: i for i, name in enumerate(header)}
    missing = [c.name for c in schema.columns if c.name not in index]
    if missing:
        raise DataError(f"{path}: missing column(s): {', '.join(missing)}")
    plan = [(index[c.name], c.name, c.attr, c.parse) for c in schema.columns]
    build, key_of = schema.build, schema.key
    records = []
    seen: dict[object, int] = {}
    row_num = 1
    for row in reader:
        if not row:
            continue
        row_num += 1
        attrs = {}
        for i, name, attr, parse in plan:
            try:
                raw = row[i]
            except IndexError:
                raise DataError(
                    f"{path} row {row_num}: short row, no value for column {name!r}"
                ) from None
            try:
                attrs[attr] = parse(raw)
            except ValueError as exc:
                raise DataError(f"{path} row {row_num}, column {name!r}: {exc}") from None
        try:
            record = build(attrs)
        except DataError as exc:
            raise DataError(f"{path} row {row_num}: {exc}") from None
        if key_of is not None:
            key = key_of(record)
            if key in seen:
                raise DataError(
                    f"{path} row {row_num}: duplicate key {key!r} "
                    f"(first seen at row {seen[key]})"
                )
            seen[key] = row_num
        records.append(record)
    return records


def aggregate_consumption(rows: list[MonthlyConsumptionRow]) -> list[ConsumptionRecord]:
    """Collapse monthly rows into per-building annual totals and their mean.

    A year's total is the plain sum of whatever months are present.
    Buildings with no rows simply yield no record. Output is sorted by
    cadastre number.
    """
    per_building: dict[str, dict[int, float]] = {}
    for row in rows:
        totals = per_building.setdefault(row.cadastre_number, {})
        totals[row.year] = totals.get(row.year, 0.0) + row.energy_consumption
    return [
        ConsumptionRecord(cadastre_number=number, annual_totals=per_building[number])
        for number in sorted(per_building)
    ]


# ---------------------------------------------------------------------------
# Feature encoding and joining


def encode_features(
    useful_area: float,
    total_area: float,
    floors: int,
    apartments: int,
    building_type: str,
    serie: str,
) -> np.ndarray:
    """Fixed 17-dimensional input vector.

    Layout: [useful_area, total_area, floors, apartments, building_type]
    followed by the 12-wide serie one-hot block; building_type encodes
    light as 0 and heavy as 1.
    """
    if building_type not in _BUILDING_TYPE_CODE:
        raise ConfigError(
            f"unknown building_type {building_type!r}; "
            f"expected one of: {', '.join(BUILDING_TYPES)}"
        )
    if serie not in SERIES:
        raise ConfigError(
            f"unknown serie {serie!r}; expected one of: {', '.join(SERIES)}"
        )
    vec = np.zeros(N_FEATURES)
    vec[0] = useful_area
    vec[1] = total_area
    vec[2] = floors
    vec[3] = apartments
    vec[4] = _BUILDING_TYPE_CODE[building_type]
    vec[5 + SERIES.index(serie)] = 1.0
    return vec


def parse_building(payload: dict, source: str | Path) -> dict:
    """The encode_features arguments of one building given as a JSON
    object, each parsed with its land.csv cell rule and checked against
    the land.csv record invariants. Raises DataError naming a missing,
    non-numeric, non-finite or out-of-range field."""
    parsers = {column.name: column.parse for column in LAND_SCHEMA.columns}
    fields = {}
    for name in ("useful_area", "total_area", "floors", "apartments",
                 "building_type", "serie"):
        if name not in payload:
            raise DataError(f"{source}: missing field {name!r}")
        try:
            fields[name] = parsers[name](str(payload[name]))
        except ValueError as exc:
            raise DataError(f"{source}, field {name!r}: {exc}") from None
    try:
        check_building_invariants(
            fields["floors"], fields["useful_area"], fields["total_area"]
        )
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None
    return fields


def join_on_cadastre(
    land: list[LandRecord],
    audit_buildings: list[AuditBuildingRecord],
    audit_components: list[AuditComponentRecord],
    consumption: list[ConsumptionRecord],
) -> tuple[list[JoinedSample], list[tuple[str, str]]]:
    """Inner-join the four datasets into training-ready samples.

    Nothing here is fatal: buildings that cannot be assembled are dropped
    and the second return value lists (cadastre_number, reason) pairs.
    Samples come back sorted by cadastre number, so identical inputs give
    identical output order.
    """
    land_by_key = {rec.cadastre_number: rec for rec in land}
    audit_by_key = {rec.cadastre_number: rec for rec in audit_buildings}
    consumption_by_key = {rec.cadastre_number: rec for rec in consumption}
    components_by_key: dict[str, dict[str, AuditComponentRecord]] = {}
    for comp in audit_components:
        components_by_key.setdefault(comp.cadastre_number, {})[
            comp.enclosing_structure
        ] = comp

    all_keys = (
        set(land_by_key)
        | set(audit_by_key)
        | set(components_by_key)
        | set(consumption_by_key)
    )
    kept = []
    dropped: list[tuple[str, str]] = []
    for number in sorted(all_keys):
        if number not in land_by_key:
            dropped.append((number, "no land record"))
            continue
        if number not in audit_by_key:
            dropped.append((number, "no building audit record"))
            continue
        audit = audit_by_key[number]
        components = components_by_key.get(number, {})
        missing = [name for name in COMPONENTS if name not in components]
        if missing:
            dropped.append(
                (number, "missing component: " + ", ".join(missing))
            )
            continue
        zero_area = [name for name in COMPONENTS if components[name].area == 0]
        if zero_area:
            dropped.append(
                (
                    number,
                    "zero area for component: "
                    + ", ".join(zero_area)
                    + " (U-value division undefined)",
                )
            )
            continue
        if number not in consumption_by_key:
            dropped.append((number, "no consumption record"))
            continue
        try:
            features = encode_features(
                useful_area=audit.useful_area,
                total_area=audit.total_area,
                floors=audit.floors,
                apartments=audit.apartments,
                building_type=audit.building_type,
                serie=audit.serie,
            )
        except ConfigError as exc:
            dropped.append((number, str(exc)))
            continue
        kept.append((number, audit, [components[name] for name in COMPONENTS], features))
    if not kept:
        return [], dropped

    # The twelve targets of every kept building in one matrix, checked at
    # once (zero areas were dropped above); only a failing check takes the
    # per-building path, which raises the DomainError of the first bad
    # building in sorted order. A negative coefficient is checked on its
    # own because its quotient can round to -0.0.
    areas = np.array([[c.area for c in comps] for _, _, comps, _ in kept], dtype=float)
    coefficients = np.array(
        [[c.structure_heat_loss_coefficient for c in comps] for _, _, comps, _ in kept],
        dtype=float,
    )
    rates = np.array(
        [[a.air_exchange_rate, a.specific_heat_gains] for _, a, _, _ in kept], dtype=float
    )
    with np.errstate(all="ignore"):
        targets = np.hstack([areas, coefficients / areas, rates])
    if not (
        np.all(coefficients >= 0) and np.all(np.isfinite(targets)) and np.all(targets >= 0)
    ):
        for _, audit, comps, _ in kept:
            EnvelopeState(
                areas=np.array([c.area for c in comps]),
                u_values=np.array(
                    [u_value(c.structure_heat_loss_coefficient, c.area) for c in comps]
                ),
                air_exchange_rate=audit.air_exchange_rate,
                specific_heat_gains=audit.specific_heat_gains,
            ).validate()
    samples = [
        JoinedSample(
            cadastre_number=number,
            features=features,
            target_state=EnvelopeState.from_vector(row),
            measured_energy=consumption_by_key[number].mean_annual,
            useful_area=audit.useful_area,
            building_type=audit.building_type,
        )
        for (number, audit, _, features), row in zip(kept, targets)
    ]
    return samples, dropped


def load_cohort(data_dir: str | Path) -> tuple[list[JoinedSample], list[tuple[str, str]]]:
    """Load the standard file layout from a directory and join.

    Annual totals come from consumption.csv when present, otherwise they
    are aggregated from consumption_monthly.csv.
    """
    data_dir = Path(data_dir)
    land = load_dataset(data_dir / LAND_FILE, LAND_SCHEMA)
    audit_buildings = load_dataset(data_dir / AUDIT_BUILDINGS_FILE, AUDIT_BUILDINGS_SCHEMA)
    audit_components = load_dataset(data_dir / AUDIT_COMPONENTS_FILE, AUDIT_COMPONENTS_SCHEMA)
    annual_path = data_dir / CONSUMPTION_FILE
    monthly_path = data_dir / MONTHLY_FILE
    if annual_path.exists():
        consumption = load_dataset(annual_path, CONSUMPTION_SCHEMA)
    elif monthly_path.exists():
        consumption = aggregate_consumption(load_dataset(monthly_path, MONTHLY_SCHEMA))
    else:
        raise DataError(
            f"no consumption data: neither {annual_path} nor {monthly_path} exists"
        )
    return join_on_cadastre(land, audit_buildings, audit_components, consumption)


# ---------------------------------------------------------------------------
# Training matrices


@dataclass(eq=False)
class TrainingArrays:
    """Column-stacked views of a sample list, index-aligned with it."""

    cadastre_numbers: list[str]
    features: np.ndarray  # (n, 17)
    targets: np.ndarray  # (n, 12), flattened EnvelopeState order
    measured_energy: np.ndarray  # (n,)
    useful_area: np.ndarray  # (n,)
    building_types: list[str]

    @property
    def n(self) -> int:
        return len(self.cadastre_numbers)


def build_matrices(samples: list[JoinedSample]) -> TrainingArrays:
    if not samples:
        raise DataError("no samples to assemble")
    return TrainingArrays(
        cadastre_numbers=[s.cadastre_number for s in samples],
        features=np.stack([s.features for s in samples]),
        targets=np.stack([s.target_state.to_vector() for s in samples]),
        measured_energy=np.array([s.measured_energy for s in samples]),
        useful_area=np.array([s.useful_area for s in samples]),
        building_types=[s.building_type for s in samples],
    )


# ---------------------------------------------------------------------------
# Scaling


class MinMaxScaler:
    """Per-column affine map onto [0, 1] over the fit data.

    Columns that are constant in the fit data get a divisor of 1, so they
    transform to 0 and still invert exactly.
    """

    def __init__(self) -> None:
        self.data_min_: np.ndarray | None = None
        self.data_max_: np.ndarray | None = None
        self._divisor: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.data_min_ is not None

    @staticmethod
    def _as_columns(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x[:, None] if x.ndim == 1 else x

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        cols = self._as_columns(x)
        if cols.size == 0:
            raise ConfigError("cannot fit a scaler on an empty matrix")
        if not np.all(np.isfinite(cols)):
            raise ConfigError("cannot fit a scaler on non-finite values")
        self.data_min_ = cols.min(axis=0)
        self.data_max_ = cols.max(axis=0)
        span = self.data_max_ - self.data_min_
        self._divisor = np.where(span == 0, 1.0, span)
        return self

    def _check(self, x: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise UsageError("scaler used before fit")
        cols = self._as_columns(x)
        if cols.shape[1] != self.data_min_.shape[0]:
            raise ConfigError(
                f"scaler fitted on {self.data_min_.shape[0]} columns, "
                f"got {cols.shape[1]}"
            )
        return cols

    def transform(self, x: np.ndarray) -> np.ndarray:
        cols = self._check(x)
        out = (cols - self.data_min_) / self._divisor
        return out[:, 0] if np.asarray(x).ndim == 1 else out

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        cols = self._check(x)
        out = cols * self._divisor + self.data_min_
        return out[:, 0] if np.asarray(x).ndim == 1 else out

    @property
    def divisor(self) -> np.ndarray:
        """Per-column slope of inverse_transform (the guarded range)."""
        if not self.fitted:
            raise UsageError("scaler used before fit")
        return self._divisor

    def to_dict(self) -> dict:
        if not self.fitted:
            raise UsageError("scaler used before fit")
        return {
            "data_min": [float(v) for v in self.data_min_],
            "data_max": [float(v) for v in self.data_max_],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MinMaxScaler":
        try:
            lo = np.asarray(payload["data_min"], dtype=float)
            hi = np.asarray(payload["data_max"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise DataError(f"malformed scaler payload: {payload!r}") from None
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DataError(f"malformed scaler payload: {payload!r}")
        scaler = cls()
        scaler.data_min_ = lo
        scaler.data_max_ = hi
        span = hi - lo
        scaler._divisor = np.where(span == 0, 1.0, span)
        return scaler


# ---------------------------------------------------------------------------
# Splits


def kfold_split(n: int, k: int = 10, seed: int = 0) -> list[np.ndarray]:
    """Shuffled partition of range(n) into k folds with sizes within 1."""
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if n < k:
        raise ConfigError(f"cannot split {n} samples into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    return list(np.array_split(order, k))


def train_val_split(
    indices: np.ndarray, val_fraction: float = 0.15, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Hold out a validation share of the given indices (at least 1, at
    most all but 1); returns (train, validation)."""
    indices = np.asarray(indices)
    n = indices.shape[0]
    if n < 2:
        raise ConfigError(f"need at least 2 indices to split, got {n}")
    if not 0 < val_fraction < 1:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n_val = int(round(n * val_fraction))
    n_val = min(max(n_val, 1), n - 1)
    shuffled = indices[np.random.default_rng(seed).permutation(n)]
    return shuffled[n_val:], shuffled[:n_val]
