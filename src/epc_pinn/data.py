"""CSV ingestion, joining, feature encoding, scaling and data splits.

Four comma-separated UTF-8 files with header rows feed the pipeline. Each
needs the columns listed, in any order, and every other column is ignored:

    land.csv               the registry, every model input: cadastre_number,
                           floors, useful_area, apartments, serie,
                           total_area, building_type
    audit_buildings.csv    cadastre_number, air_exchange_rate,
                           specific_heat_gains
    audit_components.csv   one row per (building, envelope component):
                           cadastre_number, enclosing_structure, area,
                           structure_heat_loss_coefficient
    consumption.csv        cadastre_number, total_energy_consumption_2017
                           .. _2020; without it, consumption_monthly.csv:
                           cadastre_number, year, month, energy_consumption

A cohort directory holds each file as <schema.name>.csv, after its
TableSchema. A column is keyed by its CSV header wherever it is held, in
aggregate_consumption's total_energy_consumption_<year> output too.

Each file is read and decoded whole, then parsed column by column into a
Table. A file with no double quote, carriage return or NUL and no line
longer than csv.field_size_limit() holds nothing csv treats specially,
so its rows come from str.split on newlines and commas; any other file
goes through csv.reader, the one path that handles quoting. Either way
the rows are taken in chunks of CHUNK_ROWS. A cell rule maps a list of
cells to a column. The fast path parses a chunk all or nothing: one call
of its cell rule per column, the record invariants as vector predicates
over the columns, and keys new to the file. A chunk that fails anywhere
goes whole to the one row checker, _check_rows, which calls the same
rules on one cell at a time and raises the first problem in row order
(on that row: a short row or bad cell in schema order, then an
invariant, then a duplicate key), so chunk boundaries never show; a line
csv cannot read is reported only after the rows before it pass their
checks. A split file's lines are held until the parse ends (its text is
dropped once split), up to about three times the file's size in memory,
and the cyclic GC is paused meanwhile: the parse makes one list per row
and no reference cycles. Each file is read by nn.read_text, as every
input is: UTF-8, with or without a leading byte-order mark; a file that
is missing or cannot be read or decoded is a DataError naming it (exit 2
on the command line).

The cadastre number is the primary key throughout. join_on_cadastre keeps
the buildings with a land record, a building audit, all five envelope
components and a consumption record, sorted, as row indices into the
tables; build_matrices gathers their 17 features, 12 targets (U-value =
heat loss coefficient / area) and mean annual consumption, and checks all
targets for finite, non-negative values in one pass.

The registry is the one source of model inputs, as it is for a building
that has no audit: the features, the useful area of the heat balance and
the building type all come from land.csv, through encode_features, the
one encoder, which predict calls too; FEATURE_NAMES derives from the
FEATURE_FIELDS it takes. BUILDING_RULES is the one statement of what a
registry building meets; land.csv rows and predict's building both run
it after the land.csv cell rules, and audit's numbers meet the float
cell rule. The audits supply only targets, and where their copies
of registry columns disagree the registry wins.

Scaling is plain min-max per column with a guarded divisor for constant
columns. A MinMaxScaler only exists fitted: MinMaxScaler.fit makes one
from a matrix, and its two fields, the column bounds, are what a
checkpoint stores, written by to_dict and read by config.from_json like
every config. Splitting covers shuffled k-fold partitions and the
train/validation split used for scheduling and early stopping.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import JsonConfig
from .errors import ConfigError, DataError, DomainError
from .nn import read_text
from .physics import COMPONENTS, check_states, u_value

# The twelve construction-era categories. Synthetic cohorts use these
# names; real data must use them too for the one-hot encoding to apply.
SERIES: tuple[str, ...] = tuple(f"serie_{i:02d}" for i in range(1, 13))
_SERIE_INDEX = {serie: i for i, serie in enumerate(SERIES)}

BUILDING_TYPES: tuple[str, ...] = ("light", "heavy")
_BUILDING_TYPE_CODE = {"light": 0.0, "heavy": 1.0}

CONSUMPTION_YEARS: tuple[int, ...] = (2017, 2018, 2019, 2020)

# The land.csv columns that encode_features takes, in its argument order.
FEATURE_FIELDS: tuple[str, ...] = (
    "useful_area", "total_area", "floors", "apartments", "building_type", "serie")
# Feature vector layout: the 5 scalar fields then the serie one-hot block.
FEATURE_NAMES: tuple[str, ...] = FEATURE_FIELDS[:-1] + tuple(f"serie={s}" for s in SERIES)
N_FEATURES = len(FEATURE_NAMES)

# Rows that load_dataset parses per step; bounds the raw cells held at once.
CHUNK_ROWS = 4096


# ---------------------------------------------------------------------------
# Cell rules. Each maps a list of cells to a column, or raises ValueError
# with its problem; the fast path passes a whole column, the row checker,
# predict and audit one cell, whose text they add to the problem.


def _strings(cells: list[str]) -> list[str]:
    return list(map(str.strip, cells))


def _integers(cells: list[str]) -> list[int]:
    """Integers that also have a float value, as every feature needs."""
    try:
        values = list(map(int, map(str.strip, cells)))
    except ValueError:
        raise ValueError("not an integer") from None
    try:
        np.array(values, dtype=float)
    except OverflowError:
        raise ValueError("too large for a float") from None
    return values


def _floats(cells: list[str], optional: bool = False) -> np.ndarray:
    """A float64 array of finite values; where optional, an empty cell is
    an absent value, NaN (no cell parses to NaN)."""
    try:
        values = np.array(list(map(float, [c or "nan" for c in cells] if optional else cells)))
    except ValueError:
        raise ValueError("not a number") from None
    broken = ~np.isfinite(values)
    if optional and broken.any():
        broken &= ~_is_in(cells, {""})
    if broken.any():
        raise ValueError("not finite")
    return values


@dataclass(frozen=True)
class Column:
    name: str
    parse: Callable[[list[str]], list | np.ndarray]


# ---------------------------------------------------------------------------
# Record invariants. Each rule is a pair: the mask of the rows of parsed
# columns that break it, and the message for one such row's values.


def _is_in(strings: list[str], allowed) -> np.ndarray:
    return np.fromiter(map(allowed.__contains__, strings), dtype=bool, count=len(strings))


_KEY_RULE = (lambda c: _is_in(c["cadastre_number"], {""}),
             lambda v: "cadastre_number must be nonempty")


def _at_least(name: str, bound: int, label: str | None = None):
    return (lambda c: np.asarray(c[name]) < bound,
            lambda v: f"{label or name} must be >= {bound}, got {v[name]}")


def _positive(name: str):
    return (lambda c: np.asarray(c[name]) <= 0,
            lambda v: f"{name!r} must be positive, got {v[name]}")


# What every registry building meets, in the order it is checked: a land.csv
# row after its key, and the one building that predict parses.
BUILDING_RULES = (
    _at_least("floors", 1, "'floors'"),
    _at_least("apartments", 0, "'apartments'"),
    _positive("useful_area"),
    _positive("total_area"),
)


def _annual(year: int) -> str:
    """The consumption.csv column of a year's total."""
    return f"total_energy_consumption_{year}"


def _years(c: dict) -> np.ndarray:
    """The annual totals as an (n, years) matrix, NaN where absent."""
    return np.column_stack([c[_annual(year)] for year in CONSUMPTION_YEARS])


def _negative_consumption(v: dict) -> str:
    year = next(y for y in CONSUMPTION_YEARS if v[_annual(y)] < 0)
    return f"building {v['cadastre_number']}: negative consumption {v[_annual(year)]} for {year}"


def _row_means(totals: np.ndarray) -> np.ndarray:
    """Each row's mean over its present (non-NaN) values, bitwise np.mean of
    those values: an np.add.reduce per pattern of present columns."""
    present = ~np.isnan(totals)
    means = np.empty(totals.shape[0])
    todo = np.ones(totals.shape[0], dtype=bool)
    while todo.any():
        pattern = present[np.argmax(todo)]
        rows = todo & (present == pattern).all(axis=1)
        means[rows] = np.add.reduce(totals[np.ix_(rows, pattern)], axis=1) / pattern.sum()
        todo &= ~rows
    return means


# ---------------------------------------------------------------------------
# Schema-driven loading


@dataclass(frozen=True)
class TableSchema:
    """The columns of one CSV file, <name>.csv in a cohort directory, its
    record invariants in the order a row is checked, its key (the columns
    no two rows share) and what to derive from the parsed columns. The
    fast path checks a chunk's columns at once; the one row checker,
    _check_rows, words a failed chunk's first problem row by row. Both
    call each column's cell rule, on a column of the chunk or of one cell."""

    name: str
    columns: tuple[Column, ...]
    rules: tuple[tuple[Callable[[dict], np.ndarray], Callable[[dict], str]], ...]
    key: tuple[str, ...]
    derive: Callable[[dict], None] = lambda columns: None


@dataclass(eq=False)
class Table:
    """One parsed CSV file: each column's header (and each derived
    column's name) to its values in row order, float64 arrays for the
    float rules and lists otherwise, and each key to its 0-based row (file
    row number - 2, blank lines not counted)."""

    columns: dict[str, list | np.ndarray]
    index: dict[object, int]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, name: str):
        return self.columns[name]


LAND_SCHEMA = TableSchema(
    name="land",
    columns=(
        Column("cadastre_number", _strings),
        Column("floors", _integers),
        Column("useful_area", _floats),
        Column("apartments", _integers),
        Column("serie", _strings),
        Column("total_area", _floats),
        Column("building_type", _strings),
    ),
    rules=(_KEY_RULE, *BUILDING_RULES),
    key=("cadastre_number",),
)

AUDIT_BUILDINGS_SCHEMA = TableSchema(
    name="audit_buildings",
    columns=(
        Column("cadastre_number", _strings),
        Column("air_exchange_rate", _floats),
        Column("specific_heat_gains", _floats),
    ),
    rules=(
        _KEY_RULE,
        _at_least("air_exchange_rate", 0),
        _at_least("specific_heat_gains", 0),
    ),
    key=("cadastre_number",),
)

AUDIT_COMPONENTS_SCHEMA = TableSchema(
    name="audit_components",
    columns=(
        Column("cadastre_number", _strings),
        Column("enclosing_structure", _strings),
        Column("area", _floats),
        Column("structure_heat_loss_coefficient", _floats),
    ),
    rules=(
        _KEY_RULE,
        (lambda c: ~_is_in(c["enclosing_structure"], frozenset(COMPONENTS)),
         lambda v: f"unknown enclosing_structure {v['enclosing_structure']!r}; "
         f"expected one of: {', '.join(COMPONENTS)}"),
        # Zero area is tolerated here and handled at join time; negative is not.
        _at_least("area", 0),
        _at_least("structure_heat_loss_coefficient", 0),
    ),
    key=("cadastre_number", "enclosing_structure"),
)

CONSUMPTION_SCHEMA = TableSchema(
    name="consumption",
    columns=(Column("cadastre_number", _strings),)
    # Empty cells mean the year is absent.
    + tuple(Column(_annual(year), lambda cells: _floats(cells, optional=True))
            for year in CONSUMPTION_YEARS),
    rules=(
        _KEY_RULE,
        (lambda c: np.isnan(_years(c)).all(axis=1),
         lambda v: f"building {v['cadastre_number']}: no annual consumption present"),
        (lambda c: (_years(c) < 0).any(axis=1), _negative_consumption),
    ),
    key=("cadastre_number",),
    derive=lambda c: c.update(mean_annual=_row_means(_years(c))),
)

MONTHLY_SCHEMA = TableSchema(
    name="consumption_monthly",
    columns=(
        Column("cadastre_number", _strings),
        Column("year", _integers),
        Column("month", _integers),
        Column("energy_consumption", _floats),
    ),
    rules=(
        _KEY_RULE,
        (lambda c: (np.array(c["month"]) < 1) | (np.array(c["month"]) > 12),
         lambda v: f"month must be in 1..12, got {v['month']}"),
        _at_least("energy_consumption", 0),
    ),
    key=("cadastre_number", "year", "month"),
)


def load_dataset(path: str | Path, schema: TableSchema) -> Table:
    """Parse one CSV against a schema.

    Raises DataError naming the file, row and column for the first
    problem found: a missing column, an unparseable cell, a record
    invariant violation, or a duplicate key; and naming the file when it
    cannot be read or decoded at all.
    """
    path = Path(path)
    text = read_text(path, schema.name)
    reader = _csv_rows(text)
    del text
    # The parse makes one list per row and no reference cycles, so the
    # collections those lists would trigger only cost time.
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_table(path, schema, reader)
    except csv.Error as exc:
        raise DataError(f"{path}: cannot read {schema.name} file: {exc}") from None
    finally:
        if gc_enabled:
            gc.enable()


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The rows csv.reader gives for a file's text. A file without quotes,
    carriage returns, NULs (an error to csv before Python 3.11) or a line
    over csv.field_size_limit() has no cell that csv would treat
    specially, so str.split gives the same rows faster; a blank line is []
    either way, and the empty string after a final newline is no line.
    Any other file goes through csv.reader."""
    if '"' not in text and "\r" not in text and "\0" not in text:
        lines = text.split("\n")
        if max(map(len, lines)) <= csv.field_size_limit():
            if not lines[-1]:
                lines.pop()
            return (line.split(",") if line else [] for line in lines)
    return csv.reader(io.StringIO(text, newline=""))


def _read_table(path: Path, schema: TableSchema, reader) -> Table:
    """The chunk loop of load_dataset. Rows are read as csv.DictReader
    would present them: blank lines are skipped and not counted, a repeated
    header name refers to its last column, and extra columns are ignored.
    Each chunk takes the fast path, _parse_chunk; a line csv cannot read
    cuts its chunk short, and the csv.Error is raised once the rows before
    it pass the one row checker, _check_rows."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    position = {name: i for i, name in enumerate(header)}
    missing = [c.name for c in schema.columns if c.name not in position]
    if missing:
        raise DataError(f"{path}: missing column(s): {', '.join(missing)}")
    plan = [(position[c.name], c) for c in schema.columns]
    parts: list[dict] = []
    index: dict[object, int] = {}
    rows = filter(None, reader)
    while True:
        chunk: list = []
        try:
            # On CPython, extend keeps the rows read before a csv.Error.
            chunk.extend(itertools.islice(rows, CHUNK_ROWS))
        except csv.Error:
            _check_rows(path, schema, plan, chunk, index)
            raise
        if not chunk:
            break
        parts.append(_parse_chunk(path, schema, plan, chunk, index))
    columns = {}
    for c in schema.columns:
        values = [part[c.name] for part in parts] or [c.parse([])]
        is_array = isinstance(values[0], np.ndarray)
        columns[c.name] = np.concatenate(values) if is_array else [*itertools.chain(*values)]
    schema.derive(columns)
    return Table(columns, index)


def _parse_chunk(path: Path, schema: TableSchema, plan: list, chunk: list, index: dict) -> dict:
    """The parsed columns of the chunk that follows the rows keyed in
    index, its keys added to index. All or nothing: a short row, a bad
    cell, a broken invariant or a repeated key anywhere in the chunk hands
    it to _check_rows, which raises the DataError of its first problem."""
    try:
        columns = {c.name: c.parse(list(map(operator.itemgetter(i), chunk))) for i, c in plan}
    except (IndexError, ValueError):  # a short row, a bad cell
        pass
    else:
        broken = np.logical_or.reduce([rule(columns) for rule, _ in schema.rules])
        new = dict(zip(_keys(schema.key, columns), itertools.count(len(index))))
        if not broken.any() and len(new) == len(chunk) and index.keys().isdisjoint(new):
            index.update(new)
            return columns
    _check_rows(path, schema, plan, chunk, index)
    raise AssertionError(f"{path}: a chunk failed to parse, yet every row passes its checks")


def _keys(key: tuple[str, ...], columns: dict) -> list:
    if len(key) == 1:
        return columns[key[0]]
    return list(zip(*(columns[name] for name in key)))


def _check_rows(path: Path, schema: TableSchema, plan: list, rows: list, index: dict) -> None:
    """Raise the DataError of the first problem in rows, which follow the
    rows keyed in index, checked one by one as a row-wise loader would: a
    short row or bad cell in schema order, then the record invariants in
    order, then a key that index holds for an earlier row. Each cell is
    parsed once, as a column of one cell, which the invariants then check;
    a bad cell's message is its rule's problem and the cell. Each row's key
    is added to index. Every row-level DataError is worded here."""
    for row_num, row in enumerate(rows, start=len(index) + 2):
        where, one_row = f"{path} row {row_num}", {}
        for i, column in plan:
            if i >= len(row):
                raise DataError(f"{where}: short row, no value for column {column.name!r}")
            try:
                one_row[column.name] = column.parse([row[i]])
            except ValueError as exc:
                raise DataError(f"{where}, column {column.name!r}: {exc}: {row[i]!r}") from None
        for rule, message in schema.rules:
            if rule(one_row)[0]:
                values = {name: cells[0] for name, cells in one_row.items()}
                raise DataError(f"{where}: {message(values)}")
        [key] = _keys(schema.key, one_row)
        first = index.setdefault(key, row_num - 2)
        if first != row_num - 2:
            raise DataError(f"{where}: duplicate key {key!r} (first seen at row {first + 2})")


def aggregate_consumption(monthly: Table) -> Table:
    """Collapse monthly rows into a consumption table sorted by cadastre
    number: one total_energy_consumption_<year> column per year in the
    file, as consumption.csv names it, each the plain sum of
    that year's months in file order (NaN where a building has none), and
    mean_annual, the mean of a building's years in the order they first
    appear. Buildings with no rows simply yield no row."""
    per_building: dict[str, dict[int, float]] = {}
    energy = monthly["energy_consumption"].tolist()
    for number, year, value in zip(monthly["cadastre_number"], monthly["year"], energy):
        totals = per_building.setdefault(number, {})
        totals[year] = totals.get(year, 0.0) + value
    numbers = sorted(per_building)
    totals = [per_building[number] for number in numbers]
    columns = {"cadastre_number": numbers}
    for year in sorted(set().union(*totals)):
        columns[_annual(year)] = np.array([t.get(year, np.nan) for t in totals], dtype=float)
    in_order = np.full((len(numbers), len(columns) - 1), np.nan)
    for row, t in zip(in_order, totals):
        row[: len(t)] = list(t.values())
    columns["mean_annual"] = _row_means(in_order)
    return Table(columns, {number: i for i, number in enumerate(numbers)})


# ---------------------------------------------------------------------------
# Feature encoding and joining

def _encoding_problem(building_type: str, serie: str) -> str | None:
    """Why encode_features rejects these values, or None if it does not."""
    if building_type not in _BUILDING_TYPE_CODE:
        return (
            f"unknown building_type {building_type!r}; "
            f"expected one of: {', '.join(BUILDING_TYPES)}"
        )
    if serie not in _SERIE_INDEX:
        return f"unknown serie {serie!r}; expected one of: {', '.join(SERIES)}"
    return None


def encode_features(
    useful_area: Sequence[float],
    total_area: Sequence[float],
    floors: Sequence[int],
    apartments: Sequence[int],
    building_type: Sequence[str],
    serie: Sequence[str],
) -> np.ndarray:
    """The (n, 17) input matrix of n buildings given as registry columns.

    Row layout: [useful_area, total_area, floors, apartments,
    building_type] followed by the 12-wide serie one-hot block;
    building_type encodes light as 0 and heavy as 1. Raises ConfigError
    for the first building with an unknown building type or serie.
    """
    problem = next(filter(None, map(_encoding_problem, building_type, serie)), None)
    if problem is not None:
        raise ConfigError(problem)
    features = np.zeros((len(serie), N_FEATURES))
    features[:, 0] = useful_area
    features[:, 1] = total_area
    features[:, 2] = np.array(floors, dtype=float)
    features[:, 3] = np.array(apartments, dtype=float)
    features[:, 4] = [_BUILDING_TYPE_CODE[t] for t in building_type]
    features[np.arange(len(serie)), [5 + _SERIE_INDEX[s] for s in serie]] = 1.0
    return features


def outside_training_range(fields: dict, features: np.ndarray, scaler: MinMaxScaler) -> list[str]:
    """One line for each of a building's FEATURE_FIELDS whose encoded
    features (one row of encode_features) lie outside the input scaler's
    fitted [data_min, data_max]: a number outside the range the model was
    trained on, or a building type or serie no training building had."""
    lo, hi = np.array(scaler.data_min), np.array(scaler.data_max)
    outside = (features < lo) | (features > hi)
    # FEATURE_FIELDS follow the feature layout, serie as the one-hot block from column 5
    flagged = [*outside[:5], outside[5:].any()]
    seen = {
        "building_type": [t for t, code in _BUILDING_TYPE_CODE.items() if lo[4] <= code <= hi[4]],
        "serie": [s for s, i in _SERIE_INDEX.items() if hi[5 + i] == 1.0],
    }
    lines = []
    for i, name in enumerate(FEATURE_FIELDS):
        if not flagged[i]:
            continue
        if name in seen:
            lines.append(f"{name} {fields[name]!r} is outside the training range "
                         f"({', '.join(seen[name])})")
        else:
            lines.append(f"{name} {fields[name]} is outside the training range "
                         f"[{lo[i]}, {hi[i]}]")
    return lines


def parse_building(payload: dict, source: str | Path) -> dict:
    """The FEATURE_FIELDS of one building given as a JSON object, each
    parsed by its land.csv cell rule as a column of one cell, then checked
    against BUILDING_RULES. Raises DataError naming a missing,
    non-numeric, non-finite or out-of-range field."""
    parsers = {column.name: column.parse for column in LAND_SCHEMA.columns}
    one_row = {}
    for name in FEATURE_FIELDS:
        if name not in payload:
            raise DataError(f"{source}: missing field {name!r}")
        raw = str(payload[name])
        try:
            one_row[name] = parsers[name]([raw])
        except ValueError as exc:
            raise DataError(f"{source}, field {name!r}: {exc}: {raw!r}") from None
    fields = {name: cells[0] for name, cells in one_row.items()}
    for rule, message in BUILDING_RULES:
        if rule(one_row)[0]:
            raise DataError(f"{source}: {message(fields)}")
    return fields


def parse_json_float(value: object, where: str) -> float:
    """A JSON value through the float cell rule of the cohort files;
    raises DataError naming where."""
    raw = str(value)
    try:
        return _floats([raw])[0]
    except ValueError as exc:
        raise DataError(f"{where}: {exc}: {raw!r}") from None


@dataclass(eq=False)
class JoinedCohort:
    """The joined buildings, sorted by cadastre number, as rows of their
    tables; component_rows is (n, 5) in COMPONENTS order."""

    cadastre_numbers: list[str]
    land: Table
    land_rows: np.ndarray
    audit: Table
    audit_rows: np.ndarray
    components: Table
    component_rows: np.ndarray
    consumption: Table
    consumption_rows: np.ndarray

    def __len__(self) -> int:
        return len(self.cadastre_numbers)


def join_on_cadastre(
    land: Table,
    audit_buildings: Table,
    audit_components: Table,
    consumption: Table,
) -> tuple[JoinedCohort, list[tuple[str, str]]]:
    """Inner-join the four tables into training-ready buildings.

    Nothing here is fatal: buildings that cannot be assembled are dropped
    and the second return value lists (cadastre_number, reason) pairs.
    Buildings come back sorted by cadastre number, so identical inputs
    give identical output order.
    """
    numbers = sorted(set(land.index).union(
        audit_buildings.index, audit_components["cadastre_number"], consumption.index))

    def rows_of(table: Table, keys) -> np.ndarray:  # -1 for a key without a row
        return np.fromiter(map(table.index.get, keys, itertools.repeat(-1)), np.intp, len(numbers))

    land_rows, audit_rows = rows_of(land, numbers), rows_of(audit_buildings, numbers)
    consumption_rows = rows_of(consumption, numbers)
    component_rows = np.column_stack([
        rows_of(audit_components, zip(numbers, itertools.repeat(name))) for name in COMPONENTS])
    live = np.ones(len(numbers), dtype=bool)
    reasons: dict[int, str] = {}

    def drop(mask: np.ndarray, reason: Callable[[int], str]) -> None:
        """Drop the live buildings in mask, reason(j) wording building j's."""
        for j in np.flatnonzero(live & mask):
            reasons[j] = reason(j)
        live[mask] = False

    def named(mask_row: np.ndarray) -> str:
        return ", ".join(name for name, hit in zip(COMPONENTS, mask_row) if hit)

    drop(land_rows < 0, lambda j: "no land record")
    drop(audit_rows < 0, lambda j: "no building audit record")
    absent = component_rows < 0
    drop(absent.any(axis=1), lambda j: "missing component: " + named(absent[j]))
    zero_area = np.zeros_like(absent)
    zero_area[live] = audit_components["area"][component_rows[live]] == 0
    drop(zero_area.any(axis=1),
         lambda j: f"zero area for component: {named(zero_area[j])} (U-value division undefined)")
    drop(consumption_rows < 0, lambda j: "no consumption record")
    building_types, series = land["building_type"], land["serie"]
    problems = [_encoding_problem(building_types[i], series[i]) if i >= 0 else None
                for i in land_rows.tolist()]
    drop(np.array([p is not None for p in problems], dtype=bool), problems.__getitem__)

    kept = np.flatnonzero(live)
    joined = JoinedCohort([numbers[j] for j in kept], land, land_rows[kept], audit_buildings,
                          audit_rows[kept], audit_components, component_rows[kept],
                          consumption, consumption_rows[kept])
    return joined, [(numbers[j], reasons[j]) for j in sorted(reasons)]


COHORT_SCHEMAS = (LAND_SCHEMA, AUDIT_BUILDINGS_SCHEMA, AUDIT_COMPONENTS_SCHEMA,
                  CONSUMPTION_SCHEMA, MONTHLY_SCHEMA)


def cohort_paths(data_dir: str | Path) -> list[Path]:
    """The <schema.name>.csv file of each of COHORT_SCHEMAS in data_dir."""
    return [Path(data_dir) / f"{schema.name}.csv" for schema in COHORT_SCHEMAS]


def load_cohort(data_dir: str | Path) -> tuple[JoinedCohort, list[tuple[str, str]]]:
    """Load each schema's <schema.name>.csv from a directory and join.

    Annual totals come from consumption.csv when present, otherwise they
    are aggregated from consumption_monthly.csv.
    """
    paths = cohort_paths(data_dir)
    land, audit_buildings, audit_components = map(load_dataset, paths[:3], COHORT_SCHEMAS[:3])
    annual_path, monthly_path = paths[3:]
    if annual_path.exists():
        consumption = load_dataset(annual_path, CONSUMPTION_SCHEMA)
    elif monthly_path.exists():
        consumption = aggregate_consumption(load_dataset(monthly_path, MONTHLY_SCHEMA))
    else:
        raise DataError(f"no consumption data: neither {annual_path} nor {monthly_path} exists")
    return join_on_cadastre(land, audit_buildings, audit_components, consumption)


# ---------------------------------------------------------------------------
# Training matrices


@dataclass(eq=False)
class TrainingArrays:
    """Model inputs, targets and measurements of joined buildings, one row each."""

    cadastre_numbers: list[str]
    features: np.ndarray  # (n, 17)
    targets: np.ndarray  # (n, 12) envelope states
    measured_energy: np.ndarray  # (n,)
    useful_area: np.ndarray  # (n,)
    building_types: list[str]

    @property
    def n(self) -> int:
        return len(self.cadastre_numbers)


def build_matrices(joined: JoinedCohort) -> TrainingArrays:
    """Gather the joined buildings' columns: the inputs from the registry,
    the targets from the audits. The twelve targets of all buildings are
    checked at once (zero areas were dropped by the join); only a failing
    check takes the per-building path, which raises the DomainError of the
    first bad building in sorted order, prefixed "building <number>: "."""
    if len(joined) == 0:
        raise DataError("no samples to assemble")
    land_rows, picked = joined.land_rows, joined.land_rows.tolist()
    columns = {name: joined.land[name] for name in FEATURE_FIELDS}
    registry = {name: column[land_rows] if isinstance(column, np.ndarray)
                else [column[i] for i in picked] for name, column in columns.items()}
    audit, rows = joined.audit, joined.audit_rows

    areas = joined.components["area"][joined.component_rows]
    coefficients = joined.components["structure_heat_loss_coefficient"][joined.component_rows]
    rates = np.column_stack([audit["air_exchange_rate"][rows], audit["specific_heat_gains"][rows]])
    with np.errstate(all="ignore"):
        targets = np.hstack([areas, coefficients / areas, rates])
    # A negative coefficient is checked on its own: its quotient can round to -0.0.
    bad = ~(coefficients >= 0).all(axis=1) | ~(np.isfinite(targets) & (targets >= 0)).all(axis=1)
    if bad.any():  # the per-building path: u_value, then check_states
        j = int(np.argmax(bad))
        try:
            u_values = [u_value(c, a) for c, a in zip(coefficients[j].tolist(), areas[j].tolist())]
            check_states(np.concatenate([areas[j], u_values, rates[j]])[None])
        except DomainError as exc:
            raise DomainError(f"building {joined.cadastre_numbers[j]}: {exc}") from None
    return TrainingArrays(
        cadastre_numbers=joined.cadastre_numbers,
        features=encode_features(**registry),
        targets=targets,
        measured_energy=joined.consumption["mean_annual"][joined.consumption_rows],
        useful_area=registry["useful_area"],
        building_types=registry["building_type"],
    )


# ---------------------------------------------------------------------------
# Scaling


@dataclass(frozen=True)
class MinMaxScaler(JsonConfig):
    """A fitted per-column affine map onto [0, 1]: data_min and data_max
    are the fit data's column bounds, as a checkpoint stores them.

    Columns that are constant in the fit data get a divisor of 1, so they
    transform to 0 and still invert exactly. The arrays that transform,
    inverse_transform and divisor use are derived once, on construction.
    """

    data_min: tuple[float, ...]
    data_max: tuple[float, ...]

    def __post_init__(self) -> None:
        lo, hi = np.array(self.data_min, dtype=float), np.array(self.data_max, dtype=float)
        if lo.shape != hi.shape or not (np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)).all():
            raise ConfigError("expected finite data_min and data_max of equal length "
                              "with data_min <= data_max")
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "divisor", np.where(hi == lo, 1.0, hi - lo))

    @staticmethod
    def _as_columns(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x[:, None] if x.ndim == 1 else x

    @classmethod
    def fit(cls, x: np.ndarray) -> MinMaxScaler:
        cols = cls._as_columns(x)
        if cols.size == 0:
            raise ConfigError("cannot fit a scaler on an empty matrix")
        if not np.all(np.isfinite(cols)):
            raise ConfigError("cannot fit a scaler on non-finite values")
        return cls(tuple(cols.min(axis=0).tolist()), tuple(cols.max(axis=0).tolist()))

    def _check(self, x: np.ndarray) -> np.ndarray:
        cols, width = self._as_columns(x), self.divisor.shape[0]
        if cols.shape[1] != width:
            raise ConfigError(f"scaler fitted on {width} columns, got {cols.shape[1]}")
        return cols

    def transform(self, x: np.ndarray) -> np.ndarray:
        cols = self._check(x)
        out = (cols - self._lo) / self.divisor
        return out[:, 0] if np.asarray(x).ndim == 1 else out

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        """The inverse map; divisor is its per-column slope (the guarded range)."""
        cols = self._check(x)
        out = cols * self.divisor + self._lo
        return out[:, 0] if np.asarray(x).ndim == 1 else out


# ---------------------------------------------------------------------------
# Splits


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Shuffled partition of range(n) into k folds with sizes within 1."""
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if n < k:
        raise ConfigError(f"cannot split {n} samples into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    return list(np.array_split(order, k))


def train_val_split(
    indices: np.ndarray, val_fraction: float, seed: int
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
