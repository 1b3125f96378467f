"""Output checks against computations made apart from the program.

Every check raises CheckFailed naming the first value that disagrees.
The reference side never goes through epc-pinn's own parsing, scaling,
forward pass or physics: cohorts are read with the csv module,
checkpoints are decoded with json, base64 and numpy, and energies come
from synth.reference_energy, the package's scalar oracle that shares no
code with the vectorized physics.
"""

from __future__ import annotations

import base64
import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The checkpoint's 12-vector layout: five areas, five U-values (both in
# this component order), air exchange rate, specific heat gains.
COMPONENTS = ("Basement/Slab", "Roof/Attic", "Walls", "Doors", "Windows")
SERIES = tuple(f"serie_{i:02d}" for i in range(1, 13))
TYPE_CODE = {"light": 0.0, "heavy": 1.0}
YEARS = (2017, 2018, 2019, 2020)

REL = 1e-9  # relative agreement demanded of every recomputed value

# Criterion 07's accuracy bar on the noisy 1000-building cohort.
BAR_R2 = 0.85
BAR_NRMSE = 0.10


class CheckFailed(Exception):
    """An output of the program disagrees with its independent recomputation."""


LAND_FIELDS = ("useful_area", "total_area", "floors", "apartments", "building_type", "serie")


@dataclass
class Cohort:
    """One generated cohort as read back from its CSV files, rows sorted
    by cadastre number (the order epc-pinn's join produces). Only the
    columns the checks and the predict stream use are kept."""

    cadastre: list[str]
    features: np.ndarray  # (n, 17) registry features, one-hot serie last
    useful_area: np.ndarray
    building_type: list[str]
    measured: np.ndarray  # mean of the annual totals in consumption.csv
    land: dict[str, tuple[str, ...]]  # cadastre -> land.csv's LAND_FIELDS

    @property
    def n(self) -> int:
        return len(self.cadastre)

    def building(self, number: str) -> dict:
        """The building JSON a predict call sends: its land.csv row."""
        row = dict(zip(LAND_FIELDS, self.land[number]))
        return {"cadastre_number": number,
                "useful_area": float(row["useful_area"]),
                "total_area": float(row["total_area"]),
                "floors": int(row["floors"]),
                "apartments": int(row["apartments"]),
                "building_type": row["building_type"],
                "serie": row["serie"]}


def _columns(path: Path, names) -> dict[str, tuple[str, ...]]:
    """cadastre number -> the named columns of one CSV file, as strings."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        key = header.index("cadastre_number")
        index = [header.index(name) for name in names]
        return {row[key]: tuple(row[i] for i in index) for row in reader}


def read_cohort(data_dir: Path) -> Cohort:
    audit = _columns(data_dir / "audit_buildings.csv",
                     ("useful_area", "total_area", "floors", "apartments", "building_type",
                      "serie"))
    numbers = sorted(audit)
    features = np.zeros((len(numbers), 5 + len(SERIES)))
    types = []
    for i, number in enumerate(numbers):
        useful, total, floors, apartments, btype, serie = audit[number]
        features[i, :5] = (float(useful), float(total), float(floors), float(apartments),
                           TYPE_CODE[btype])
        features[i, 5 + SERIES.index(serie)] = 1.0
        types.append(btype)
    del audit
    consumption = _columns(data_dir / "consumption.csv",
                           tuple(f"total_energy_consumption_{y}" for y in YEARS))
    measured = np.array([sum(float(v) for v in consumption[number]) / len(YEARS)
                         for number in numbers])
    del consumption
    land = _columns(data_dir / "land.csv", LAND_FIELDS)
    return Cohort(numbers, features, features[:, 0].copy(), types, measured, land)


def _inverse_span(scaler: dict) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array(scaler["data_min"], dtype=float)
    span = np.array(scaler["data_max"], dtype=float) - lo
    return lo, np.where(span == 0, 1.0, span)


def checkpoint_states(path: Path, features: np.ndarray) -> tuple[np.ndarray, dict]:
    """Physical, zero-floored 12-vectors for feature rows, from a
    checkpoint file decoded by hand; also returns its extra payload."""
    payload = json.loads(Path(path).read_text())
    flat = np.frombuffer(base64.b64decode(payload["parameters_b64"]), dtype="<f8")
    dims = payload["layer_dims"]
    extra = payload["extra"]
    lo, span = _inverse_span(extra["input_scaler"])
    x = (features - lo) / span
    offset = 0
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = flat[offset : offset + fan_out]
        offset += fan_out
        x = x @ w + b
        if layer < len(dims) - 2:
            x = np.maximum(x, 0.0)
    lo, span = _inverse_span(extra["target_scaler"])
    return np.maximum(x * span + lo, 0.0), extra


def oracle_energy(states, useful_area, building_types, constants: dict) -> np.ndarray:
    """synth.reference_energy row by row on 12-vectors."""
    from epc_pinn.synth import reference_energy

    scalars = {k: constants[k] for k in (
        "delta_t", "heating_days", "hours_per_day", "w_to_kw",
        "bridge_fraction", "vent_coefficient", "near_one_epsilon")}
    out = []
    for row, area, btype in zip(np.asarray(states, dtype=float), useful_area, building_types):
        components = {name: (row[j], row[j] * row[5 + j]) for j, name in enumerate(COMPONENTS)}
        out.append(reference_energy(components, row[10], row[11], float(area),
                                    constants["time_constants"][btype], **scalars))
    return np.array(out)


def energy_scores(measured: np.ndarray, predicted: np.ndarray) -> tuple[float, float]:
    """Energy R^2 and range-normalized RMSE in plain numpy."""
    residual = measured - predicted
    r2 = 1.0 - np.sum(residual**2) / np.sum((measured - measured.mean()) ** 2)
    nrmse = np.sqrt(np.mean(residual**2)) / (measured.max() - measured.min())
    return float(r2), float(nrmse)


def agree(what: str, got, want, scale=0.0) -> None:
    """|got - want| <= REL * (|want| + scale) elementwise; NaN never agrees."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    ok = np.abs(got - want) <= REL * (np.abs(want) + scale)
    if not np.all(ok):
        i = tuple(int(k) for k in np.unravel_index(int(np.argmin(ok)), ok.shape))
        raise CheckFailed(f"{what}: entry {i} is {float(got[i])!r}, expected {float(want[i])!r}")


def state_vector(state: dict) -> np.ndarray:
    """A predict output's "state" mapping back to the 12-vector order."""
    return np.array([state["areas"][c] for c in COMPONENTS]
                    + [state["u_values"][c] for c in COMPONENTS]
                    + [state["air_exchange_rate"], state["specific_heat_gains"]])


# ---------------------------------------------------------------------------
# Checks on a `train` run


def check_fold_cover(results: dict, n: int) -> None:
    """The fold test sets cover every building exactly once."""
    seen = np.concatenate([np.array(f["test_indices"], dtype=int) for f in results["folds"]])
    counts = np.bincount(seen, minlength=n) if seen.size and seen.min() >= 0 else None
    if counts is None or counts.shape[0] != n or np.any(counts != 1):
        raise CheckFailed(f"fold test sets do not cover the {n} buildings exactly once")


def check_fold_predictions(cohort: Cohort, run_dir: Path, results: dict, folds) -> None:
    """For every fold: the written checkpoint reproduces the in-memory test
    predictions; the reconstructed energies equal the oracle on them; and
    energy R^2/NRMSE, per fold and averaged, match results.json."""
    scores = []
    for fold, record in zip(folds, results["folds"]):
        test = np.array(record["test_indices"], dtype=int)
        path = run_dir / f"fold_{record['fold']:02d}.json"
        mine, extra = checkpoint_states(path, cohort.features[test])
        _, span = _inverse_span(extra["target_scaler"])
        agree(f"fold {record['fold']} test predictions", fold.predictions_physical, mine, span)
        types = [cohort.building_type[i] for i in test]
        agree(f"fold {record['fold']} reconstructed energy", fold.reconstructed_energy,
              oracle_energy(fold.predictions_physical, cohort.useful_area[test], types,
                            extra["constants"]), 1.0)
        r2, nrmse = energy_scores(cohort.measured[test],
                                  oracle_energy(mine, cohort.useful_area[test], types,
                                                extra["constants"]))
        reported = record["metrics"]["energy_consumption"]
        agree(f"fold {record['fold']} energy R2", reported["r_squared"], r2)
        agree(f"fold {record['fold']} energy NRMSE", reported["nrmse"], nrmse)
        scores.append((r2, nrmse))
    aggregate = results["aggregate"]["variables"]["energy_consumption"]
    agree("aggregate energy R2", aggregate["r_squared"]["mean"], np.mean([s[0] for s in scores]))
    agree("aggregate energy NRMSE", aggregate["nrmse"]["mean"], np.mean([s[1] for s in scores]))


def check_epochs(results: dict, cap: int) -> None:
    """Every fold ran to the epoch cap, so every run does the same work."""
    stops = [f["history"]["stop_epoch"] for f in results["folds"]]
    if any(s != cap for s in stops):
        raise CheckFailed(f"folds stopped at epochs {stops}, expected the cap {cap} on all")


def check_bar(r2: float, nrmse: float) -> None:
    """Criterion 07: energy R^2 >= 0.85 and NRMSE <= 0.10."""
    if not (r2 >= BAR_R2 and nrmse <= BAR_NRMSE):
        raise CheckFailed(f"energy R2 {r2:.4f} / NRMSE {nrmse:.4f} miss the bar "
                          f"R2 >= {BAR_R2}, NRMSE <= {BAR_NRMSE}")


def check_repeatable(what: str, values: list) -> None:
    """Repeated identical commands produced identical output."""
    if any(v != values[0] for v in values[1:]):
        raise CheckFailed(f"{what} differs between identical calls")


# ---------------------------------------------------------------------------
# Checks on `evaluate` and `predict`


def check_evaluate(cohort: Cohort, checkpoint: Path, states, energy, report: dict) -> None:
    """evaluate's batch states match the hand-decoded checkpoint, its
    energies the oracle, and its reported energy R^2/NRMSE a numpy
    recomputation against consumption.csv."""
    mine, extra = checkpoint_states(checkpoint, cohort.features)
    _, span = _inverse_span(extra["target_scaler"])
    agree("evaluate states", states, mine, span)
    agree("evaluate energy", energy,
          oracle_energy(states, cohort.useful_area, cohort.building_type, extra["constants"]), 1.0)
    r2, nrmse = energy_scores(cohort.measured, oracle_energy(
        mine, cohort.useful_area, cohort.building_type, extra["constants"]))
    agree("evaluate energy R2", report["energy_consumption"]["r_squared"], r2)
    agree("evaluate energy NRMSE", report["energy_consumption"]["nrmse"], nrmse)


def check_predictions(cohort: Cohort, checkpoint: Path, states, energy, outputs: dict) -> None:
    """Each predict output equals the evaluate batch row of the same
    building, and its consumption equals the oracle on its own state."""
    _, extra = checkpoint_states(checkpoint, cohort.features[:1])
    _, span = _inverse_span(extra["target_scaler"])
    row_of = {number: i for i, number in enumerate(cohort.cadastre)}
    for number, output in outputs.items():
        i = row_of[number]
        state = state_vector(output["state"])
        consumption = output["breakdown"]["energy_consumption"]
        agree(f"predict {number} state", state, states[i], span)
        agree(f"predict {number} energy", consumption, energy[i], 1.0)
        agree(f"predict {number} energy vs oracle", consumption,
              oracle_energy([state], [cohort.useful_area[i]], [cohort.building_type[i]],
                            extra["constants"])[0], 1.0)
