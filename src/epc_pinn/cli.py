"""Command-line entry point.

Subcommands:

    generate   write a synthetic cohort as CSV files
    train      cross-validated training on a CSV cohort
    predict    virtual audit of one building from a trained checkpoint
    audit      energy decomposition of a fully specified envelope
    evaluate   score a checkpoint against a CSV cohort

The COMMANDS table is the one statement of each command's help and flags.
A call that names a command builds only that command's parser, which acts
as build_parser()'s full parser does; any other call builds the full one.

A JSON config file (--config) holds at most the objects "generate",
"train" and "physics"; config.from_json checks every value against its
setting's type and rejects unknown keys. The seed, the cohort size and
the directories are flags only, and the physics constants come from
"physics" only, so a top-level "seed" or a section naming "seed",
"constants" or "n_buildings" is an unknown key whichever command runs,
but only the section a command uses is built.
Every JSON input is read by nn.read_json. predict and evaluate read their
checkpoint with train.load_checkpoint, which checks it and returns the
network with the train.FoldCheckpoint whose scalers and constants they use.
Exit codes: 0 success; 1 usage or configuration, naming a bad config key
by its path, an --out directory that is or lies under a file, or an --out
file that is a directory, lies under a file or is one of the command's
input files, before any cohort or checkpoint is read; 2 data problems, a
cohort whose scored truth takes one value, checkpoint physics constants
and train ones that overflow the loss included; 3 runtime failures.
train loads the cohort, runs train.cross_validate and saves the outputs:
cross_validate itself checks the cohort and the constants before any
fold trains, so train runs no check of its own in between.
train runs min(k_folds, CPUs the process may use) folds at once, so
taskset limits it; results are identical for any count. While the folds
train, OpenBLAS runs single-threaded, and its previous thread count is
restored afterwards.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import data, synth
from .config import from_json
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    EpcPinnError,
    UndefinedMetricError,
)
from .metrics import check_scorable, fold_report, format_metrics_table, format_report_table
from .nn import atomic_write, read_json, write_json
from .physics import (
    AREA_SLICE,
    COMPONENTS,
    U_SLICE,
    PhysicsConstants,
    energy_consumption,
    state_dict,
)
from .train import (
    TrainConfig,
    cross_validate,
    load_checkpoint,
    predict_physical,
    reconstruct_energy,
    save_run_outputs,
)

PROG = "epc-pinn"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto this package's exit 1."""

    def error(self, message):
        raise ConfigError(message)


@dataclass
class ConfigFile:
    """The top level of a --config file; a command builds the section it uses."""

    generate: dict[str, Any] = field(default_factory=dict)
    train: dict[str, Any] = field(default_factory=dict)
    physics: PhysicsConstants = field(default_factory=PhysicsConstants)


# Each section's dataclass, and the settings merged into it from the flags
# and the physics section.
_SECTIONS = {"generate": (synth.GeneratorConfig, ("constants", "seed", "n_buildings")),
             "train": (TrainConfig, ("constants", "seed"))}


def _load_config(args) -> ConfigFile:
    payload = read_json(args.config, "config") if args.config else {}
    config = from_json(ConfigFile, payload)
    for name, (cls, merged) in _SECTIONS.items():
        settable = {f.name for f in dataclasses.fields(cls)} - set(merged)
        if unknown := sorted(getattr(config, name).keys() - settable):
            raise ConfigError(f"unknown key(s): {', '.join(f'{name}.{k}' for k in unknown)}")
    return config


def _section(name: str, config: ConfigFile, **settings):
    """The config's name section, built with the physics constants and the
    flag settings merged in."""
    cls, _ = _SECTIONS[name]
    return from_json(cls, {**getattr(config, name), "constants": config.physics, **settings}, name)


def _check_out(path: Path, kind: str, inputs=()) -> Path:
    """path, an output directory or file, which must not lie under a file;
    an output file must not be a directory, nor the same file as one of
    the command's inputs. A missing directory is left to the write."""
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if kind == "file" and existing == path:
        if path.is_dir():
            raise ConfigError(f"output file {path} is a directory")
        for source in inputs:
            with suppress(OSError):  # a missing input is its reader's error
                if os.path.samefile(path, source):
                    raise ConfigError(f"output file {path} is the input file {source}")
    elif not existing.is_dir():
        raise ConfigError(f"output {kind} {path}: {existing} is not a directory")
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    config = _load_config(args)
    generator_config = _section("generate", config, seed=args.seed, n_buildings=args.n)
    out_dir = _check_out(Path(args.out), "directory")
    paths = synth.generate_cohort(generator_config, out_dir)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _load_cohort(data_dir: str | Path) -> tuple[data.TrainingArrays, list[tuple[str, str]]]:
    """The usable buildings in data_dir as matrices, and the dropped ones."""
    joined, dropped = data.load_cohort(data_dir)
    if not joined:
        raise DataError(f"no usable samples in {data_dir}")
    return data.build_matrices(joined), dropped


def cmd_train(args) -> int:
    config = _load_config(args)
    train_config = _section("train", config, seed=args.seed)
    out_dir = _check_out(Path(args.out), "directory")

    arrays, dropped = _load_cohort(args.data)
    result = cross_validate(arrays, train_config)

    paths = save_run_outputs(result, train_config, out_dir)
    with atomic_write(out_dir / "drop_report.txt") as handle:
        handle.write("".join(f"{number}: {reason}\n" for number, reason in dropped))
    print(format_report_table(result.aggregate), end="")
    print(f"\nsamples: {arrays.n} (dropped: {len(dropped)})")
    print(f"results: {paths['results']}")
    print(f"report: {paths['report']}")
    return 0


def _predict_states(path, model, fold, features, names) -> np.ndarray:
    """predict_physical; a non-finite state is a DataError naming the first such building."""
    with np.errstate(all="ignore"):
        states = predict_physical(model, fold, features)
    broken = ~np.isfinite(states).all(axis=1)
    if broken.any():
        raise DataError(f"checkpoint {path} predicts a non-finite envelope state "
                        f"for building {names[int(np.argmax(broken))]}")
    return states


def _check_checkpoint_types(constants: PhysicsConstants, building_types, path) -> None:
    try:
        constants.time_constants_of(building_types)
    except ConfigError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from None


def _balance(path, state, useful_area, building_type, constants):
    """energy_consumption of one building, its DomainError naming the input file."""
    try:
        return energy_consumption(state[None], [useful_area], [building_type], constants)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_predict(args) -> int:
    if args.out:
        _check_out(Path(args.out), "file", (args.checkpoint, args.building))
    model, fold = load_checkpoint(args.checkpoint)
    building = read_json(args.building, "building")
    fields = data.parse_building(building, args.building)
    features = data.encode_features(**{name: [value] for name, value in fields.items()})
    _check_checkpoint_types(fold.constants, [fields["building_type"]], args.checkpoint)
    for line in data.outside_training_range(fields, features[0], fold.input_scaler):
        print(f"{PROG}: warning: {args.building}: {line}", file=sys.stderr)
    state = _predict_states(args.checkpoint, model, fold, features, [args.building])[0]
    breakdown = _balance(args.building, state, fields["useful_area"], fields["building_type"],
                         fold.constants)
    output = {
        "cadastre_number": building.get("cadastre_number"),
        "state": state_dict(state),
        "breakdown": breakdown.row_dict(0),
    }
    if args.out:
        write_json(args.out, output)
        print(f"prediction: {args.out}")
    else:
        print(json.dumps(output, indent=2, sort_keys=True))
    return 0


def _state_from_payload(payload: dict, path) -> tuple[np.ndarray, float, str]:
    for key in ("areas", "u_values", "air_exchange_rate", "specific_heat_gains",
                "useful_area", "building_type"):
        if key not in payload:
            raise DataError(f"{path}: missing field {key!r}")

    def number(field_name: str) -> float:
        return data.parse_json_float(payload[field_name], f"{path}, field {field_name!r}")

    def five(field_name: str) -> np.ndarray:
        value = payload[field_name]
        if isinstance(value, dict):
            missing = [name for name in COMPONENTS if name not in value]
            if missing:
                raise DataError(
                    f"{path}: {field_name} is missing component(s): {', '.join(missing)}"
                )
            value = [value[name] for name in COMPONENTS]
        elif not (isinstance(value, list) and len(value) == len(COMPONENTS)):
            raise DataError(
                f"{path}: {field_name} must be a 5-entry list in component order "
                "or a mapping with all five component names"
            )
        return np.array([
            data.parse_json_float(v, f"{path}, field {field_name!r}, component {name!r}")
            for name, v in zip(COMPONENTS, value)
        ])

    state = np.concatenate([five("areas"), five("u_values"),
                            [number("air_exchange_rate"), number("specific_heat_gains")]])
    building_type = data._strings([str(payload["building_type"])])[0]  # land.csv's rule
    return state, number("useful_area"), building_type


def cmd_audit(args) -> int:
    config = _load_config(args)
    payload = read_json(args.envelope, "envelope")
    state, useful_area, building_type = _state_from_payload(payload, args.envelope)
    breakdown = _balance(args.envelope, state, useful_area, building_type,
                         config.physics).row_dict(0)
    for name, area, u in zip(COMPONENTS, state[AREA_SLICE], state[U_SLICE]):
        print(
            f"{name:<16} area {area:10.2f} m2   U {u:6.3f} W/(m2K)   "
            f"loss {breakdown['envelope_by_component'][name]:12.2f} kWh/yr"
        )
    print(f"{'envelope total':<16} {breakdown['envelope_total']:12.2f} kWh/yr")
    print(f"{'thermal bridges':<16} {breakdown['thermal_bridges']:12.2f} kWh/yr")
    print(f"{'ventilation':<16} {breakdown['ventilation']:12.2f} kWh/yr")
    print(f"{'total heat loss':<16} {breakdown['heat_loss_total']:12.2f} kWh/yr")
    print(f"{'total heat gains':<16} {breakdown['heat_gains_total']:12.2f} kWh/yr")
    print(f"{'usage factor':<16} {breakdown['hguf']:12.4f}")
    print(f"{'consumption':<16} {breakdown['energy_consumption']:12.2f} kWh/yr")
    return 0


def cmd_evaluate(args) -> int:
    if args.out:
        _check_out(Path(args.out), "file", (args.checkpoint, *data.cohort_paths(args.data)))
    model, fold = load_checkpoint(args.checkpoint)
    arrays, dropped = _load_cohort(args.data)
    check_scorable(arrays.targets, arrays.measured_energy, args.data)
    _check_checkpoint_types(fold.constants, arrays.building_types, args.checkpoint)
    predictions = _predict_states(
        args.checkpoint, model, fold, arrays.features, arrays.cadastre_numbers)
    with np.errstate(all="ignore"):
        energy = reconstruct_energy(
            predictions, arrays.useful_area, arrays.building_types, fold.constants
        )
    broken = ~np.isfinite(energy)
    if broken.any():
        raise DataError(f"checkpoint {args.checkpoint}: the energy balance overflows the float "
                        f"range for building {arrays.cadastre_numbers[int(np.argmax(broken))]}")
    try:
        report = fold_report(arrays.targets, predictions, arrays.measured_energy, energy)
    except UndefinedMetricError as exc:
        raise UndefinedMetricError(f"checkpoint {args.checkpoint}: {exc}") from None
    print(format_metrics_table(report), end="")
    print(f"\nsamples: {arrays.n} (dropped: {len(dropped)})")
    if args.out:
        write_json(args.out, report)
        print(f"metrics: {Path(args.out)}")
    return 0


# ---------------------------------------------------------------------------
# Wiring


# Each command's help line and flags with their add_argument keywords. Its
# handler cmd_<name> is looked up at build time, so a wrapper set on it runs.
COMMANDS = {
    "generate": ("write a synthetic cohort as CSV files", (
        ("--config", {"help": "JSON config file"}),
        ("--seed", {"type": int, "required": True, "help": "generator seed"}),
        ("--n", {"type": int, "default": 256, "help": "number of buildings (default 256)"}),
        ("--out", {"default": ".", "help": "output directory (default .)"}),
    )),
    "train": ("cross-validated training on a CSV cohort", (
        ("--config", {"help": "JSON config file"}),
        ("--seed", {"type": int, "required": True, "help": "training seed"}),
        ("--data", {"required": True, "help": "directory with the cohort CSV files"}),
        ("--out", {"default": ".", "help": "output directory (default .)"}),
    )),
    "predict": ("virtual audit of one building", (
        ("--checkpoint", {"required": True, "help": "trained model checkpoint"}),
        ("--building", {"required": True, "help": "JSON file with the building's input features"}),
        ("--out", {"help": "write the prediction JSON here instead of stdout"}),
    )),
    "audit": ("energy decomposition of a full envelope", (
        ("--config", {"help": "JSON config file (physics overrides)"}),
        ("--envelope", {"required": True,
                        "help": "JSON file with areas, U-values, rates and building type"}),
    )),
    "evaluate": ("score a checkpoint against a cohort", (
        ("--checkpoint", {"required": True, "help": "trained model checkpoint"}),
        ("--data", {"required": True, "help": "directory with the cohort CSV files"}),
        ("--out", {"help": "write the metrics JSON here as well"}),
    )),
}


def _add_command(parser: _Parser, name: str) -> _Parser:
    for flag, keywords in COMMANDS[name][1]:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=globals()[f"cmd_{name}"], command=name)
    return parser


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as build_parser() would; a named command builds its parser alone."""
    if argv and argv[0] in COMMANDS:
        return _add_command(_Parser(prog=f"{PROG} {argv[0]}"), argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    # A report holds non-ASCII text (±); under a locale that cannot encode
    # it, print an escape rather than fail a finished run.
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except ConfigError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, DimensionError, UndefinedMetricError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except EpcPinnError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # last resort: keep the exit-code contract
        print(f"{PROG}: unexpected error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
