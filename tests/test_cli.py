"""End-to-end tests of the command-line interface.

Each test invokes main() with an argv list and asserts on the exit code,
the printed output and the files written. The exit-code contract is:
0 success, 1 usage or configuration, 2 data problems, 3 runtime failures.
"""

import base64
import csv
import json
import os
import shutil
import subprocess
import sys
import threading
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from epc_pinn import cli, data, nn, train
from epc_pinn.cli import PROG, main
from epc_pinn.data import BUILDING_TYPES, SERIES
from epc_pinn.errors import ConfigError
from epc_pinn.physics import COMPONENTS, PhysicsConstants
from epc_pinn.synth import GeneratorConfig, generate_cohort, reference_energy


@pytest.fixture(scope="module")
def trained_run(clean_cohort_dir, tmp_path_factory):
    """One small training run shared by the predict/evaluate tests."""
    out = tmp_path_factory.mktemp("trained_run")
    config_path = out / "config.json"
    config_path.write_text(
        json.dumps({"train": {"hidden_dims": [16, 16], "max_epochs": 4}})
    )
    code = main(
        [
            "train",
            "--config", str(config_path),
            "--seed", "3",
            "--data", str(clean_cohort_dir),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, set to 2 threads, wider
    than the fold threads' cap also on one-core machines; a getter of None
    where that thread control is not found."""
    api = train._openblas_thread_api()
    if api is None:
        yield lambda: None
        return
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.fixture
def failing_write(monkeypatch):
    """fail(name): writes to a file called name (through nn.atomic_write)
    stop with an OSError after half of the text, as on a full disk."""

    class HalfWriter:
        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    def fail(name):
        def fake_open(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            return HalfWriter(handle) if f".{name}." in str(path) else handle

        monkeypatch.setattr(nn, "open", fake_open, raising=False)

    return fail


def latin1_cohort(source, target):
    """A copy of a cohort whose first address holds a Latin-1 byte (0xe2)."""
    shutil.copytree(source, target)
    land = target / "land.csv"
    lines = land.read_text().splitlines()
    cells = lines[1].split(",")
    cells[9] = "M\u00e2in St 1"  # address
    lines[1] = ",".join(cells)
    land.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    return target


# The cohort columns that no model input or target uses.
UNREAD_COLUMNS = {
    "land.csv": ("latitude_centroid", "longitude_centroid", "geometry", "address", "perimeter"),
    "audit_components.csv": ("material", "energy_consumption"),
}


def unread_columns_cohort(source, target, junk):
    """A copy of a cohort without its unread columns (junk None), or with
    their cells filled with the junk values in turn."""
    shutil.copytree(source, target)
    for name, unread in UNREAD_COLUMNS.items():
        with open(target / name, newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        if junk is None:
            kept = [i for i, column in enumerate(header) if column not in unread]
            rows = [[row[i] for i in kept] for row in [header, *rows]]
        else:
            rows = [header] + [
                [junk[(r + i) % len(junk)] if header[i] in unread else cell
                 for i, cell in enumerate(row)]
                for r, row in enumerate(rows)
            ]
        with open(target / name, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    return target


def unscorable_cohort(source, target, one_building):
    """A copy of a cohort whose audits all give specific_heat_gains 15.0,
    or (one_building) whose land.csv keeps only its first building."""
    shutil.copytree(source, target)
    name = "land.csv" if one_building else "audit_buildings.csv"
    with open(target / name, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    if one_building:
        rows = rows[:1]
    else:
        column = header.index("specific_heat_gains")
        for row in rows:
            row[column] = "15.0"
    with open(target / name, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])
    return target


def building_payload(**overrides):
    payload = {
        "cadastre_number": "01000000123",
        "useful_area": 850.0,
        "total_area": 1000.0,
        "floors": 3,
        "apartments": 24,
        "building_type": "heavy",
        "serie": "serie_03",
    }
    payload.update(overrides)
    return payload


def checkpoint_call(command, checkpoint, cohort, tmp_path):
    """The predict or evaluate argv that reads checkpoint and writes its
    --out file, and that file's path."""
    out = tmp_path / f"{command}.json"
    if command == "evaluate":
        return ["evaluate", "--checkpoint", str(checkpoint), "--data", str(cohort),
                "--out", str(out)], out
    building = tmp_path / "building.json"
    building.write_text(json.dumps(building_payload()))
    return ["predict", "--checkpoint", str(checkpoint), "--building", str(building),
            "--out", str(out)], out


def read_checkpoint(path):
    """A checkpoint file's JSON, and its network, decoded by hand."""
    payload = json.loads(Path(path).read_text())
    vector = np.frombuffer(base64.b64decode(payload["parameters_b64"]), "<f8").copy()
    return payload, nn.MlpModel(tuple(payload["layer_dims"]), vector)


def write_checkpoint(path, payload, model):
    """Write a checkpoint's JSON payload with model's dims and parameters,
    whatever they hold."""
    encoded = base64.b64encode(model.vector.astype("<f8").tobytes()).decode("ascii")
    payload = {**payload, "layer_dims": list(model.layer_dims), "parameters_b64": encoded}
    Path(path).write_text(json.dumps(payload))


def envelope_payload(**overrides):
    """The physics worked example: one 100 m2 U 0.5 component, gains 20."""
    payload = {
        "areas": [100.0, 0.0, 0.0, 0.0, 0.0],
        "u_values": [0.5, 0.0, 0.0, 0.0, 0.0],
        "air_exchange_rate": 0.0,
        "specific_heat_gains": 20.0,
        "useful_area": 100.0,
        "building_type": "light",
    }
    payload.update(overrides)
    return payload


class TestGenerate:
    def test_writes_a_loadable_cohort(self, tmp_path, capsys):
        code = main(["generate", "--seed", "11", "--n", "8", "--out", str(tmp_path)])
        assert code == 0
        for name in (
            "land.csv",
            "audit_buildings.csv",
            "audit_components.csv",
            "consumption.csv",
            "consumption_monthly.csv",
        ):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "land" in out

    def test_same_seed_same_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        assert main(["generate", "--seed", "11", "--n", "8", "--out", str(a_dir)]) == 0
        assert main(["generate", "--seed", "11", "--n", "8", "--out", str(b_dir)]) == 0
        assert (a_dir / "land.csv").read_bytes() == (b_dir / "land.csv").read_bytes()
        assert (
            a_dir / "consumption.csv"
        ).read_bytes() == (b_dir / "consumption.csv").read_bytes()

    def test_missing_seed_is_exit_one(self, tmp_path, capsys):
        code = main(["generate", "--n", "4", "--out", str(tmp_path)])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_invalid_config_json_is_exit_two_with_location(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"generate": {},,}')
        code = main(["generate", "--seed", "5", "--config", str(config_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_unknown_generator_setting_is_exit_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"generate": {"towers": 3}}))
        assert main(["generate", "--seed", "5", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"{PROG}: error: unknown key(s): generate.towers\n"


class TestTrain:
    def test_writes_all_artifacts(self, trained_run):
        assert (trained_run / "results.json").exists()
        assert (trained_run / "report.txt").exists()
        assert (trained_run / "drop_report.txt").exists()
        for i in range(10):
            assert (trained_run / f"fold_{i:02d}.json").exists()
        payload = json.loads((trained_run / "results.json").read_text())
        assert payload["config"]["seed"] == 3
        assert len(payload["folds"]) == 10
        assert (trained_run / "drop_report.txt").read_text() == ""

    def test_prints_the_aggregate_table(self, clean_cohort_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"train": {"hidden_dims": [8, 8], "max_epochs": 2}})
        )
        code = main(
            [
                "train",
                "--config", str(config_path),
                "--seed", "1",
                "--data", str(clean_cohort_dir),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Variable" in out
        assert "energy_consumption" in out
        assert "samples: 40 (dropped: 0)" in out

    def test_non_finite_learning_rate_is_exit_one_before_training(
        self, clean_cohort_dir, tmp_path, capsys
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"train": {"learning_rate": float("nan")}}))
        out = tmp_path / "out"
        out.mkdir()
        code = main(
            ["train", "--config", str(config_path), "--seed", "1",
             "--data", str(clean_cohort_dir), "--out", str(out)]
        )
        assert code == 1
        assert "train.learning_rate: expected a finite number, got nan" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hours", [1e300, 1e306])
    def test_overflowing_physics_is_exit_two_before_any_fold_trains(
        self, clean_cohort_dir, tmp_path, monkeypatch, capsys, hours
    ):
        """At an hours_per_day of 1e300 the balance at the audit targets is
        finite but the square of the loss's scaled residual is not; at 1e306
        the balance itself overflows. Either way no fold trains, the first
        building is named, nothing is written and no numpy warning is raised."""
        runs = []
        monkeypatch.setattr(train, "train_fold", lambda *args, **kwargs: runs.append(args))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "physics": {"hours_per_day": hours},
            "train": {"k_folds": 2, "max_epochs": 3, "hidden_dims": [8]},
        }))
        out = tmp_path / "out"
        code = main(["train", "--config", str(config_path), "--seed", "0",
                     "--data", str(clean_cohort_dir), "--out", str(out)])
        assert code == 2
        with open(clean_cohort_dir / "land.csv", newline="") as handle:
            first = min(row["cadastre_number"] for row in csv.DictReader(handle))
        assert capsys.readouterr().err == (
            f"{PROG}: error: the training loss at the audit targets is not finite "
            f"for building {first}\n")
        assert runs == []
        assert not out.exists()

    def test_constant_truth_column_is_exit_two_before_any_fold_trains(
        self, clean_cohort_dir, tmp_path, monkeypatch, capsys
    ):
        """With every audited specific_heat_gains at 15.0 no fold's R^2 of
        that variable is defined: the first fold and the variable are named,
        no fold trains and nothing is written."""
        trained = []
        monkeypatch.setattr(train, "train_fold", lambda *args: trained.append(args))
        cohort = unscorable_cohort(clean_cohort_dir, tmp_path / "cohort", one_building=False)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"train": {"k_folds": 2, "hidden_dims": [8]}}))
        out = tmp_path / "out"
        code = main(["train", "--config", str(config_path), "--seed", "0",
                     "--data", str(cohort), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"{PROG}: error: fold 0: specific_heat_gains: r_squared is undefined "
            "for a constant truth vector\n")
        assert trained == []
        assert not out.exists()

    def test_identical_runs_write_identical_results(self, clean_cohort_dir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"train": {"hidden_dims": [8, 8], "max_epochs": 2}})
        )
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            code = main(
                [
                    "train",
                    "--config", str(config_path),
                    "--seed", "9",
                    "--data", str(clean_cohort_dir),
                    "--out", str(out_dir),
                ]
            )
            assert code == 0
        assert (
            dirs[0] / "results.json"
        ).read_bytes() == (dirs[1] / "results.json").read_bytes()

    def test_the_fold_pool_follows_the_usable_cpus(
        self, clean_cohort_dir, tmp_path, monkeypatch, blas_threads
    ):
        """On one CPU no thread starts; on three, two helper threads join
        the calling one. Either way every fold sees one OpenBLAS thread, the
        previous count comes back, and results.json is byte-identical."""
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"train": {"hidden_dims": [8, 8], "max_epochs": 2}})
        )
        started, seen = [], []
        start, fold = threading.Thread.start, train.train_fold

        def recording_start(thread):
            started.append(thread)
            start(thread)

        def recording_fold(*args):
            seen.append(blas_threads())
            return fold(*args)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(train, "train_fold", recording_fold)

        def train_on(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            started.clear()
            seen.clear()
            out = tmp_path / f"cpus{cpus}"
            assert main(["train", "--config", str(config_path), "--seed", "9",
                         "--data", str(clean_cohort_dir), "--out", str(out)]) == 0
            return len(started), list(seen), (out / "results.json").read_bytes()

        before = blas_threads()
        capped = [1 if before else None] * 10
        one = train_on(1)
        assert blas_threads() == before
        three = train_on(3)
        assert one[:2] == (0, capped)
        assert three[:2] == (2, capped)
        assert one[2] == three[2]
        assert blas_threads() == before

    @pytest.mark.filterwarnings("error")
    def test_a_huge_physics_weight_is_exit_three_naming_the_fold(self, tmp_path, capsys):
        """At physics_weight 1e200 the first gradients reach about 1e199,
        whose square overflows Adam's second moment: the step of that
        parameter would be 0 and the fold would train on frozen weights.
        The run exits 3 naming the fold, writes no results.json and raises
        no numpy warning."""
        generate_cohort(GeneratorConfig(n_buildings=256, seed=2024), tmp_path / "cohort")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"train": {"physics_weight": 1e200, "max_epochs": 2, "hidden_dims": [4]}}))
        code = main(["train", "--config", str(config_path), "--seed", "0",
                     "--data", str(tmp_path / "cohort"), "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{PROG}: error: fold 0: gradient entry ")
        assert err.endswith(" overflows Adam's second moment (epoch 0)\n")
        assert not (tmp_path / "run" / "results.json").exists()

    def test_missing_data_directory_is_exit_two(self, tmp_path, capsys):
        code = main(
            ["train", "--seed", "1", "--data", str(tmp_path / "nowhere"),
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "nowhere" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["--seed", "--data"])
    def test_missing_seed_or_data_is_exit_one_before_any_read(self, tmp_path, capsys, missing):
        """The flags are checked before the config, the cohort or --out is
        touched: reading the missing config file would be exit 2."""
        flags = {"--seed": "1", "--data": str(tmp_path / "nowhere"),
                 "--config": str(tmp_path / "missing.json"), "--out": str(tmp_path / "out")}
        del flags[missing]
        code = main(["train", *[word for flag in flags.items() for word in flag]])
        assert code == 1
        assert capsys.readouterr().err == (
            f"{PROG}: error: the following arguments are required: {missing}\n")
        assert not (tmp_path / "out").exists()

    def test_corrupt_csv_is_exit_two_naming_the_row(
        self, clean_cohort_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(clean_cohort_dir, broken)
        land = (broken / "land.csv").read_text().splitlines()
        cells = land[1].split(",")
        cells[1] = "several"  # floors
        land[1] = ",".join(cells)
        (broken / "land.csv").write_text("\n".join(land) + "\n")
        code = main(
            ["train", "--seed", "1", "--data", str(broken), "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "floors" in err


    def test_undecodable_csv_is_exit_two_naming_the_file(
        self, clean_cohort_dir, tmp_path, capsys
    ):
        cohort = latin1_cohort(clean_cohort_dir, tmp_path / "latin1")
        code = main(
            ["train", "--seed", "1", "--data", str(cohort), "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "land.csv" in err and "can't decode byte 0xe2" in err

    def test_non_numeric_consumption_is_exit_two(self, clean_cohort_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(clean_cohort_dir, broken)
        lines = (broken / "consumption.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = "n/a"
        lines[1] = ",".join(cells)
        (broken / "consumption.csv").write_text("\n".join(lines) + "\n")
        code = main(
            ["train", "--seed", "1", "--data", str(broken), "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2, column 'total_energy_consumption_2018': not a number" in err

    def test_failed_drop_report_write_keeps_the_old_file(
        self, clean_cohort_dir, tmp_path, failing_write
    ):
        out = tmp_path / "run"
        out.mkdir()
        (out / "drop_report.txt").write_text("earlier report\n")
        failing_write("drop_report.txt")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"train": {"hidden_dims": [4], "max_epochs": 1}}))
        code = main(
            ["train", "--config", str(config_path), "--seed", "1",
             "--data", str(clean_cohort_dir), "--out", str(out)]
        )
        assert code == 3
        assert (out / "drop_report.txt").read_text() == "earlier report\n"
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


class TestPredict:
    def test_prediction_is_internally_consistent(self, trained_run, tmp_path, capsys):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building)]
        )
        assert code == 0
        output = json.loads(capsys.readouterr().out)
        assert output["cadastre_number"] == "01000000123"
        state = output["state"]
        areas, u_values = state["areas"], state["u_values"]
        assert min(*areas.values(), *u_values.values(), state["air_exchange_rate"],
                   state["specific_heat_gains"]) >= 0.0
        recomputed = reference_energy(
            {name: (areas[name], areas[name] * u_values[name]) for name in COMPONENTS},
            state["air_exchange_rate"], state["specific_heat_gains"], 850.0,
            PhysicsConstants().time_constant_for("heavy"),
        )
        assert output["breakdown"]["energy_consumption"] == pytest.approx(recomputed, rel=1e-12)

    def test_building_outside_the_training_range_is_flagged(self, trained_run, tmp_path, capsys):
        """One stderr line per field outside the input scaler's fitted
        range, and the prediction printed and exit 0 as for any building;
        a building at the fitted bounds gets no line."""
        checkpoint = trained_run / "fold_00.json"
        bounds = json.loads(checkpoint.read_text())["extra"]["input_scaler"]
        lo, hi = bounds["data_min"], bounds["data_max"]
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload(
            useful_area=lo[0], total_area=hi[1], floors=int(lo[2]), apartments=int(hi[3]),
            building_type="heavy" if hi[4] == 1.0 else "light",
            serie=SERIES[hi[5:].index(1.0)])))
        argv = ["predict", "--checkpoint", str(checkpoint), "--building", str(building)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(building.read_text())
        payload["useful_area"] = 1e12
        building.write_text(json.dumps(payload))
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == (f"{PROG}: warning: {building}: useful_area 1000000000000.0 is outside "
                       f"the training range [{lo[0]!r}, {hi[0]!r}]\n")
        assert json.loads(out)["breakdown"]["energy_consumption"] > 0

    def test_out_flag_writes_the_file(self, trained_run, tmp_path):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        out_path = tmp_path / "prediction.json"
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building), "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert "state" in payload and "breakdown" in payload

    def test_repeat_predictions_are_identical(self, trained_run, tmp_path):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out_path in outs:
            main(
                ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
                 "--building", str(building), "--out", str(out_path)]
            )
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_building_field_is_exit_two(self, trained_run, tmp_path, capsys):
        building = tmp_path / "building.json"
        payload = building_payload()
        del payload["floors"]
        building.write_text(json.dumps(payload))
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building)]
        )
        assert code == 2
        assert "floors" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("useful_area", "abc", "not a number"),
            ("total_area", float("nan"), "not finite"),
            ("useful_area", float("inf"), "not finite"),
            ("floors", "two", "not an integer"),
            ("floors", 0, "must be >= 1"),
            ("useful_area", 0, "must be positive"),
            ("total_area", -5, "must be positive"),
            ("apartments", -5000000, "must be >= 0, got -5000000"),
        ],
    )
    def test_malformed_numeric_field_is_exit_two(
        self, trained_run, tmp_path, capsys, monkeypatch, field, value, problem
    ):
        """Rejected as data, naming the field, before the network runs."""
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload(**{field: value})))
        monkeypatch.setattr(cli, "predict_physical", None)
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert repr(field) in err and problem in err

    @pytest.mark.parametrize("field", ["floors", "apartments"])
    def test_integer_without_a_float_value_is_exit_two(
        self, trained_run, tmp_path, capsys, field
    ):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload(**{field: 10**400})))
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"field {field!r}: too large for a float" in err

    def test_unknown_serie_is_exit_one(self, trained_run, tmp_path):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload(serie="serie_99")))
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building)]
        )
        assert code == 1

    def test_unknown_building_type_is_exit_one_before_the_checkpoint_check(
        self, trained_run, tmp_path, capsys
    ):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload(building_type="medium")))
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"{PROG}: error: unknown building_type 'medium'; "
            f"expected one of: {', '.join(BUILDING_TYPES)}\n"
        )

    def test_missing_checkpoint_is_exit_two(self, tmp_path):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        code = main(
            ["predict", "--checkpoint", str(tmp_path / "absent.json"),
             "--building", str(building)]
        )
        assert code == 2


    def test_unreadable_building_file_is_exit_two(self, trained_run, tmp_path, capsys):
        undecodable = tmp_path / "building.json"
        undecodable.write_bytes(
            json.dumps(building_payload(cadastre_number="M\u00e2in"), ensure_ascii=False)
            .encode("latin-1")
        )
        directory = tmp_path / "building_dir"
        directory.mkdir()
        for building in (undecodable, directory):
            code = main(
                ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
                 "--building", str(building)]
            )
            assert code == 2
            assert str(building) in capsys.readouterr().err

    def test_crlf_checkpoint_predicts_the_same(self, trained_run, tmp_path, capsys):
        checkpoint = tmp_path / "fold_00.json"
        original = (trained_run / "fold_00.json").read_bytes()
        checkpoint.write_bytes(original.replace(b"\n", b"\r\n"))
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        outputs = []
        for path in (trained_run / "fold_00.json", checkpoint):
            assert main(["predict", "--checkpoint", str(path), "--building", str(building)]) == 0
            outputs.append(capsys.readouterr().out)
        assert b"\r\n" in checkpoint.read_bytes()
        assert outputs[0] == outputs[1]

    def test_undecodable_checkpoint_is_exit_two(self, trained_run, tmp_path, capsys):
        checkpoint = tmp_path / "fold_00.json"
        checkpoint.write_bytes(b"\xff" + (trained_run / "fold_00.json").read_bytes())
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        code = main(
            ["predict", "--checkpoint", str(checkpoint), "--building", str(building)]
        )
        assert code == 2
        assert str(checkpoint) in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "checkpoint file not found: {path}"),
        (b"\xff{}", "{path}: cannot read checkpoint file: 'utf-8' codec can't decode byte "
                    "0xff in position 0: invalid start byte"),
        (b'{"format_version":\n}', "{path}: invalid JSON at line 2 column 1: Expecting value"),
        (b"[1]", "{path}: expected a JSON object at the top level"),
    ], ids=["missing", "undecodable", "invalid", "not-an-object"])
    def test_checkpoint_read_errors_take_the_wording_of_every_input(
        self, tmp_path, capsys, content, message
    ):
        checkpoint = tmp_path / "fold_00.json"
        if content is not None:
            checkpoint.write_bytes(content)
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        code = main(["predict", "--checkpoint", str(checkpoint), "--building", str(building)])
        assert code == 2
        expected = message.format(path=checkpoint)
        assert capsys.readouterr().err == f"{PROG}: error: {expected}\n"

    @pytest.mark.parametrize("field", ["parameters_b64", "format_version"])
    def test_malformed_checkpoint_field_is_exit_two_naming_it(
        self, trained_run, tmp_path, capsys, field
    ):
        """A parameter encoding of a byte count that is no whole number of
        float64 values, and a format version of true (which == 1)."""
        payload = json.loads((trained_run / "fold_00.json").read_text())
        truncated = base64.b64encode(base64.b64decode(payload["parameters_b64"])[:-4])
        payload[field] = truncated.decode("ascii") if field == "parameters_b64" else True
        checkpoint = tmp_path / "fold_00.json"
        checkpoint.write_text(json.dumps(payload))
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        code = main(["predict", "--checkpoint", str(checkpoint), "--building", str(building)])
        assert code == 2
        problem = {"parameters_b64": " holds ", "format_version": ": format_version: "}[field]
        assert f"error: checkpoint {checkpoint}{problem}" in capsys.readouterr().err

    def test_overflowing_balance_is_exit_two_naming_the_building(
        self, trained_run, tmp_path, capsys
    ):
        """A finite useful area whose heat balance overflows the float
        range: no inf or NaN output and no floating-point warning."""
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload(useful_area=1e200)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["predict", "--checkpoint", str(trained_run / "fold_00.json"),
                         "--building", str(building)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"{PROG}: error: {building}: the energy balance overflows the float range\n")

    def test_failed_out_write_keeps_the_old_file(self, trained_run, tmp_path, failing_write):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        out_path = tmp_path / "prediction.json"
        out_path.write_text("earlier prediction\n")
        failing_write("prediction.json")
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building), "--out", str(out_path)]
        )
        assert code == 3
        assert out_path.read_text() == "earlier prediction\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["building.json", "prediction.json"]


    def test_missing_out_directory_names_the_target(
        self, trained_run, tmp_path, capsys, monkeypatch
    ):
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        monkeypatch.chdir(tmp_path)
        code = main(
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building), "--out", "nowhere/p.json"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "'nowhere/p.json'" in err and ".tmp" not in err


class TestAudit:
    def test_worked_example_breakdown(self, tmp_path, capsys):
        """The stdout table must show the hand-checked chain: envelope
        4354.56, bridges 130.64, losses 4485.20, consumption 3101.99."""
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps(envelope_payload()))
        code = main(["audit", "--envelope", str(envelope)])
        assert code == 0
        out = capsys.readouterr().out
        assert "4354.56" in out
        assert "130.64" in out
        assert "4485.20" in out
        assert "3101.99" in out

    def test_component_name_mapping_accepted(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        payload = envelope_payload(
            areas={name: 0.0 for name in COMPONENTS} | {"Basement/Slab": 100.0},
            u_values={name: 0.0 for name in COMPONENTS} | {"Basement/Slab": 0.5},
        )
        envelope.write_text(json.dumps(payload))
        assert main(["audit", "--envelope", str(envelope)]) == 0
        assert "3101.99" in capsys.readouterr().out

    @pytest.mark.parametrize("padded", [" light", "light\t", " light "])
    def test_building_type_follows_the_land_csv_string_rule(self, tmp_path, capsys, padded):
        """The building type is stripped as land.csv cells and predict's
        fields are: a padded type audits as the plain one."""
        outputs = []
        for building_type in ("light", padded):
            envelope = tmp_path / "envelope.json"
            envelope.write_text(json.dumps(envelope_payload(building_type=building_type)))
            assert main(["audit", "--envelope", str(envelope)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert "3101.99" in outputs[0].out

    def test_physics_override_through_config(self, tmp_path, capsys):
        """bridge_fraction 0 removes the 130.64 line from the balance."""
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps(envelope_payload()))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"physics": {"bridge_fraction": 0.0}}))
        code = main(
            ["audit", "--envelope", str(envelope), "--config", str(config)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4354.56" in out
        assert "130.64" not in out

    def test_unknown_physics_key_is_exit_one(self, tmp_path):
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps(envelope_payload()))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"physics": {"gravity": 9.81}}))
        assert main(
            ["audit", "--envelope", str(envelope), "--config", str(config)]
        ) == 1

    def test_overflowing_balance_is_exit_two_naming_the_envelope(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps(envelope_payload(areas=[1e308] * 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["audit", "--envelope", str(envelope)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"{PROG}: error: {envelope}: the energy balance overflows the float range\n")

    def test_negative_area_is_exit_two(self, tmp_path):
        envelope = tmp_path / "envelope.json"
        envelope.write_text(
            json.dumps(envelope_payload(areas=[-1.0, 0.0, 0.0, 0.0, 0.0]))
        )
        assert main(["audit", "--envelope", str(envelope)]) == 2

    def test_missing_field_is_exit_two(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        payload = envelope_payload()
        del payload["air_exchange_rate"]
        envelope.write_text(json.dumps(payload))
        assert main(["audit", "--envelope", str(envelope)]) == 2
        assert "air_exchange_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, problem", [
        ("abc", "not a number: 'abc'"),
        (float("nan"), "not finite: 'nan'"),
        (float("inf"), "not finite: 'inf'"),
        (True, "not a number: 'True'"),
        ([1.0], "not a number: '[1.0]'"),
    ])
    @pytest.mark.parametrize("field", [
        "air_exchange_rate", "specific_heat_gains", "useful_area", "areas", "areas mapping",
    ])
    def test_bad_number_is_exit_two_naming_the_field(self, tmp_path, capsys, field, bad, problem):
        """Numeric fields go through the cohort files' float cell rule:
        JSON NaN and Infinity, booleans, lists and non-numeric strings are
        data errors (exit 2) naming the field, and nothing is printed."""
        envelope = tmp_path / "envelope.json"
        if field == "areas":
            payload = envelope_payload(areas=[100.0, bad, 0.0, 0.0, 0.0])
            where = "field 'areas', component 'Roof/Attic'"
        elif field == "areas mapping":
            payload = envelope_payload(areas=dict(zip(COMPONENTS, [100.0, 0.0, 0.0, 0.0, bad])))
            where = "field 'areas', component 'Windows'"
        else:
            payload = envelope_payload(**{field: bad})
            where = f"field {field!r}"
        envelope.write_text(json.dumps(payload))
        assert main(["audit", "--envelope", str(envelope)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{PROG}: error: {envelope}, {where}: {problem}\n"

    def test_malformed_envelope_json_is_exit_two(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        envelope.write_text("{\n  broken\n}")
        assert main(["audit", "--envelope", str(envelope)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestEvaluate:
    def test_scores_a_checkpoint(self, trained_run, clean_cohort_dir, capsys):
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(clean_cohort_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Variable" in out
        assert "energy_consumption" in out
        assert "samples: 40" in out

    def test_out_flag_writes_metrics_json(self, trained_run, clean_cohort_dir, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(clean_cohort_dir), "--out", str(metrics_path)]
        )
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert "energy_consumption" in payload
        assert "r_squared" in payload["energy_consumption"]

    def test_reports_name_the_thirteen_variables_in_order(
        self, trained_run, clean_cohort_dir, tmp_path, capsys
    ):
        """results.json (the aggregate and every fold) and evaluate --out
        hold these thirteen names, as keys that every JSON output sorts,
        and report.txt and evaluate's table list them in this order,
        whatever the program derives them from."""
        names = [
            "area_basement_slab", "area_roof_attic", "area_walls", "area_doors", "area_windows",
            "u_basement_slab", "u_roof_attic", "u_walls", "u_doors", "u_windows",
            "air_exchange_rate", "specific_heat_gains", "energy_consumption",
        ]

        def rows(table: str) -> list[str]:
            lines = table.splitlines()
            return [line.split()[0] for line in lines[2:lines.index("")]]

        metrics_path = tmp_path / "metrics.json"
        code = main(["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
                     "--data", str(clean_cohort_dir), "--out", str(metrics_path)])
        assert code == 0
        assert rows(capsys.readouterr().out) == names
        assert list(json.loads(metrics_path.read_text())) == sorted(names)
        assert rows((trained_run / "report.txt").read_text(encoding="utf-8")) == names
        results = json.loads((trained_run / "results.json").read_text())
        assert list(results["aggregate"]["variables"]) == sorted(names)
        assert [list(fold["metrics"]) for fold in results["folds"]] == [sorted(names)] * 10

    def test_missing_checkpoint_is_exit_two(self, clean_cohort_dir, tmp_path):
        code = main(
            ["evaluate", "--checkpoint", str(tmp_path / "absent.json"),
             "--data", str(clean_cohort_dir)]
        )
        assert code == 2


    def test_negative_apartments_is_exit_two_naming_the_row(
        self, trained_run, clean_cohort_dir, tmp_path, capsys
    ):
        cohort = tmp_path / "negative"
        shutil.copytree(clean_cohort_dir, cohort)
        land = cohort / "land.csv"
        lines = land.read_text().splitlines()
        column = lines[0].split(",").index("apartments")
        cells = lines[1].split(",")
        cells[column] = "-5000000"
        lines[1] = ",".join(cells)
        land.write_text("\n".join(lines) + "\n")
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(cohort)]
        )
        assert code == 2
        assert "row 2: 'apartments' must be >= 0, got -5000000" in capsys.readouterr().err

    def test_integer_cell_without_a_float_value_is_exit_two(
        self, trained_run, clean_cohort_dir, tmp_path, capsys
    ):
        cohort = tmp_path / "huge"
        shutil.copytree(clean_cohort_dir, cohort)
        land = cohort / "land.csv"
        lines = land.read_text().splitlines()
        column = lines[0].split(",").index("apartments")
        cells = lines[1].split(",")
        cells[column] = "9" * 401
        lines[1] = ",".join(cells)
        land.write_text("\n".join(lines) + "\n")
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(cohort)]
        )
        assert code == 2
        assert "row 2, column 'apartments': too large for a float" in capsys.readouterr().err

    def test_undecodable_csv_is_exit_two_naming_the_file(
        self, trained_run, clean_cohort_dir, tmp_path, capsys
    ):
        cohort = latin1_cohort(clean_cohort_dir, tmp_path / "latin1")
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(cohort)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "land.csv" in err and "can't decode byte 0xe2" in err

    def test_directory_in_place_of_consumption_is_exit_two(
        self, trained_run, clean_cohort_dir, tmp_path, capsys
    ):
        cohort = tmp_path / "cohort"
        shutil.copytree(clean_cohort_dir, cohort)
        (cohort / "consumption.csv").unlink()
        (cohort / "consumption.csv").mkdir()
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(cohort)]
        )
        assert code == 2
        assert "consumption.csv" in capsys.readouterr().err

    def test_failed_out_write_keeps_the_old_file(
        self, trained_run, clean_cohort_dir, tmp_path, failing_write
    ):
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text("earlier metrics\n")
        failing_write("metrics.json")
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(clean_cohort_dir), "--out", str(metrics_path)]
        )
        assert code == 3
        assert metrics_path.read_text() == "earlier metrics\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


    def test_missing_out_directory_names_the_target(
        self, trained_run, clean_cohort_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
             "--data", str(clean_cohort_dir), "--out", "nowhere/metrics.json"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "'nowhere/metrics.json'" in err and ".tmp" not in err


    @pytest.mark.parametrize("one_building, problem", [
        (False, "specific_heat_gains: r_squared is undefined for a constant truth vector"),
        (True, "area_basement_slab: r_squared needs at least two values")],
        ids=["constant", "one-building"])
    def test_unscorable_cohort_is_exit_two_naming_the_data(
        self, trained_run, clean_cohort_dir, tmp_path, capsys, one_building, problem
    ):
        """A variable whose truth takes one value over the cohort has no
        R^2: the cohort, not the checkpoint, is named and nothing written."""
        cohort = unscorable_cohort(clean_cohort_dir, tmp_path / "cohort", one_building)
        argv, out = checkpoint_call("evaluate", trained_run / "fold_00.json", cohort, tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{PROG}: error: {cohort}: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("case", ["directory", "under-file", "checkpoint", "input"])
    def test_out_that_is_a_directory_or_under_a_file_is_exit_one_before_any_read(
        self, trained_run, clean_cohort_dir, tmp_path, monkeypatch, capsys, command, case
    ):
        """An --out that is a directory, lies under a file, or is one of the
        command's input files, named another way (the checkpoint, predict's
        building or evaluate's land.csv), is refused before any read and
        leaves that path as it was."""
        def no_read(*args):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "load_checkpoint", no_read)
        monkeypatch.setattr(data, "load_cohort", no_read)
        cohort = tmp_path / "cohort"
        shutil.copytree(clean_cohort_dir, cohort)
        checkpoint = tmp_path / "inputs" / "fold_00.json"
        checkpoint.parent.mkdir()
        shutil.copyfile(trained_run / "fold_00.json", checkpoint)
        argv, _ = checkpoint_call(command, checkpoint, cohort, tmp_path)
        existing = tmp_path / "existing"
        if case == "directory":
            existing.mkdir()
            out, problem = existing, " is a directory"
        elif case == "under-file":
            existing.write_text("keep")
            out, problem = existing / "x.json", f": {existing} is not a directory"
        else:
            inputs = {"predict": tmp_path / "building.json", "evaluate": cohort / "land.csv"}
            existing = checkpoint if case == "checkpoint" else inputs[command]
            out = existing.parent / ".." / existing.parent.name / existing.name
            problem = f" is the input file {existing}"
        before = None if existing.is_dir() else existing.read_bytes()
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"{PROG}: error: output file {out}{problem}\n"
        if before is None:
            assert list(existing.iterdir()) == []
        else:
            assert existing.read_bytes() == before

    @pytest.mark.parametrize("key, corrupt, problem", [
        ("input_scaler", lambda s: s["data_max"].__setitem__(0, float("nan")),
         "extra.input_scaler.data_max[0]: expected a finite number, got nan"),
        ("input_scaler", lambda s: s.update(data_min=s["data_max"], data_max=s["data_min"]),
         "extra.input_scaler: expected finite data_min and data_max of equal length with "
         "data_min <= data_max"),
        ("input_scaler", lambda s: s.update(data_min=s["data_min"][:-1],
                                            data_max=s["data_max"][:-1]),
         "input_scaler has 16 columns, the model 17"),
        ("target_scaler", lambda s: s.update(data_min=s["data_min"] + [0.0],
                                             data_max=s["data_max"] + [1.0]),
         "target_scaler has 13 columns, the model 12"),
        ("energy_scaler", lambda s: s.update(data_min=s["data_min"] + [0.0],
                                             data_max=s["data_max"] + [1.0]),
         "energy_scaler has 2 columns, expected 1"),
        ("input_scaler", lambda s: s["data_max"].__setitem__(0, "0"),
         "extra.input_scaler.data_max[0]: expected a finite number, got '0'"),
        ("target_scaler", lambda s: s["data_min"].__setitem__(3, True),
         "extra.target_scaler.data_min[3]: expected a finite number, got True"),
        (None, lambda e: e.update(fold=True), "extra.fold: expected an integer, got True"),
        (None, lambda e: e.pop("energy_scaler"), "missing key(s): extra.energy_scaler"),
        (None, lambda e: e.update(note="x"), "unknown key(s): extra.note"),
    ], ids=["nan", "swapped", "narrow", "wide", "wide-energy", "string", "true", "true-fold",
            "no-energy-scaler", "unknown-key"])
    def test_bad_checkpoint_scaler_is_exit_two_naming_the_checkpoint(
        self, trained_run, clean_cohort_dir, tmp_path, capsys, key, corrupt, problem
    ):
        """A non-finite, non-numeric or boolean bound, swapped bounds, a
        scaler narrower or wider than the model's layer sizes, an energy
        scaler of more than one column, or an extra payload of the wrong
        shape is a checkpoint problem."""
        payload = json.loads((trained_run / "fold_00.json").read_text())
        corrupt(payload["extra"][key] if key else payload["extra"])
        checkpoint = tmp_path / "fold_00.json"
        checkpoint.write_text(json.dumps(payload))
        code = main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(clean_cohort_dir)])
        assert code == 2
        assert capsys.readouterr().err == f"{PROG}: error: checkpoint {checkpoint}: {problem}\n"

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("dims, scaler, problem", [
        ((16, 16, 16, 12), "input_scaler", "16 inputs, expected 17"),
        ((17, 16, 16, 11), "target_scaler", "11 outputs, expected 12"),
    ])
    def test_checkpoint_network_of_the_wrong_width_is_exit_two_naming_it(
        self, trained_run, clean_cohort_dir, tmp_path, capsys, command, dims, scaler, problem
    ):
        """A network that agrees with its scalers but does not take the 17
        features or give the 12 envelope quantities."""
        payload = json.loads((trained_run / "fold_00.json").read_text())
        extra = payload["extra"]
        extra[scaler] = {bound: values[:-1] for bound, values in extra[scaler].items()}
        checkpoint = tmp_path / "narrow.json"
        write_checkpoint(checkpoint, payload, nn.init_model(dims, seed=0))
        argv, out = checkpoint_call(command, checkpoint, clean_cohort_dir, tmp_path)
        assert main(argv) == 2
        assert f"checkpoint {checkpoint}: the model has {problem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_checkpoint_parameter_is_exit_two(
        self, trained_run, clean_cohort_dir, tmp_path, capsys, command
    ):
        payload, model = read_checkpoint(trained_run / "fold_00.json")
        model.vector[5] = np.nan
        checkpoint = tmp_path / "nan.json"
        write_checkpoint(checkpoint, payload, model)
        argv, out = checkpoint_call(command, checkpoint, clean_cohort_dir, tmp_path)
        assert main(argv) == 2
        assert f"checkpoint {checkpoint} holds non-finite parameters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_predicted_state_is_exit_two_naming_the_building(
        self, trained_run, clean_cohort_dir, tmp_path, capsys, command
    ):
        """Parameters scaled by 1e200 are finite but overflow in the forward
        pass of every building; no numpy warning is raised on the way."""
        payload, model = read_checkpoint(trained_run / "fold_00.json")
        model.vector *= 1e200
        checkpoint = tmp_path / "huge.json"
        write_checkpoint(checkpoint, payload, model)
        argv, out = checkpoint_call(command, checkpoint, clean_cohort_dir, tmp_path)
        assert main(argv) == 2
        with open(clean_cohort_dir / "land.csv", newline="") as handle:
            numbers = [row["cadastre_number"] for row in csv.DictReader(handle)]
        first = argv[argv.index("--building") + 1] if command == "predict" else min(numbers)
        assert (f"checkpoint {checkpoint} predicts a non-finite envelope state "
                f"for building {first}\n") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, hours", [("evaluate", 1e300), ("evaluate", 1e306),
                                                ("predict", 1e306)])
    def test_overflowing_checkpoint_physics_is_exit_two(
        self, trained_run, clean_cohort_dir, tmp_path, capsys, command, hours
    ):
        """A checkpoint hours_per_day of 1e306 overflows every building's
        energy balance. At 1e300 the consumptions are finite (about 5e303)
        but their squared errors overflow the metrics. Either way the
        command names the checkpoint (predict: the building file), writes
        no --out and raises no numpy warning."""
        payload = json.loads((trained_run / "fold_00.json").read_text())
        payload["extra"]["constants"]["hours_per_day"] = hours
        checkpoint = tmp_path / "hours.json"
        checkpoint.write_text(json.dumps(payload))
        argv, out = checkpoint_call(command, checkpoint, clean_cohort_dir, tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        if command == "predict":
            building = argv[argv.index("--building") + 1]
            assert err == (f"{PROG}: error: {building}: "
                           "the energy balance overflows the float range\n")
        elif hours == 1e306:
            with open(clean_cohort_dir / "land.csv", newline="") as handle:
                first = min(row["cadastre_number"] for row in csv.DictReader(handle))
            assert err == (f"{PROG}: error: checkpoint {checkpoint}: the energy balance "
                           f"overflows the float range for building {first}\n")
        else:
            assert err.startswith(f"{PROG}: error: checkpoint {checkpoint}: "
                                  "energy_consumption: r_squared is not finite")
        assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_non_finite_audit_target_is_exit_two_naming_the_building(
    trained_run, clean_cohort_dir, tmp_path, capsys, command
):
    """A Walls row of area 1e-10 and coefficient 1e300 gives a U-value of
    infinity: train and evaluate name its building, and write nothing."""
    cohort = tmp_path / "cohort"
    shutil.copytree(clean_cohort_dir, cohort)
    with open(cohort / "audit_components.csv", newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    row = next(r for r in rows if r[header.index("enclosing_structure")] == "Walls")
    row[header.index("area")], row[header.index("structure_heat_loss_coefficient")] = \
        "1e-10", "1e300"
    with open(cohort / "audit_components.csv", "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])
    out = tmp_path / "out"
    argv = {"train": ["train", "--seed", "1", "--data", str(cohort), "--out", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
                         "--data", str(cohort), "--out", str(out)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"{PROG}: error: building {row[0]}: "
                                       "envelope state contains non-finite values\n")
    assert not out.exists()


@pytest.mark.parametrize("junk", [None, ("north", "", "1e400")], ids=["deleted", "junk"])
def test_unread_columns_change_no_output(trained_run, clean_cohort_dir, tmp_path, junk):
    """Deleting the unread columns, or filling them with cells no number
    rule accepts, leaves every train and evaluate output byte-identical."""
    cohort = unread_columns_cohort(clean_cohort_dir, tmp_path / "cohort", junk)
    out = tmp_path / "run"
    code = main(["train", "--config", str(trained_run / "config.json"), "--seed", "3",
                 "--data", str(cohort), "--out", str(out)])
    assert code == 0
    written = sorted(path.name for path in out.iterdir())
    assert {"results.json", "report.txt", "fold_00.json", "drop_report.txt"} <= set(written)
    for name in written:
        assert (out / name).read_bytes() == (trained_run / name).read_bytes(), name
    for data_dir, metrics in ((clean_cohort_dir, "untouched.json"), (cohort, "copy.json")):
        code = main(["evaluate", "--checkpoint", str(trained_run / "fold_00.json"),
                     "--data", str(data_dir), "--out", str(tmp_path / metrics)])
        assert code == 0
    assert (tmp_path / "copy.json").read_bytes() == (tmp_path / "untouched.json").read_bytes()


class TestJsonInputsWithByteOrderMark:
    """A JSON input saved with a UTF-8 byte order mark reads exactly like
    the same file without one."""

    @staticmethod
    def outputs(capsys, write, argv):
        results = []
        for bom in (False, True):
            write("utf-8-sig" if bom else "utf-8")
            results.append((main(argv), capsys.readouterr()))
        return results

    def test_building(self, trained_run, tmp_path, capsys):
        building = tmp_path / "building.json"
        plain, with_bom = self.outputs(
            capsys,
            lambda enc: building.write_text(json.dumps(building_payload()), encoding=enc),
            ["predict", "--checkpoint", str(trained_run / "fold_00.json"),
             "--building", str(building)],
        )
        assert with_bom == plain and plain[0] == 0

    def test_checkpoint(self, trained_run, tmp_path, capsys):
        checkpoint = tmp_path / "fold_00.json"
        original = (trained_run / "fold_00.json").read_bytes()
        building = tmp_path / "building.json"
        building.write_text(json.dumps(building_payload()))
        plain, with_bom = self.outputs(
            capsys,
            lambda enc: checkpoint.write_bytes(
                (b"\xef\xbb\xbf" if enc == "utf-8-sig" else b"") + original
            ),
            ["predict", "--checkpoint", str(checkpoint), "--building", str(building)],
        )
        assert with_bom == plain and plain[0] == 0

    def test_envelope(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        plain, with_bom = self.outputs(
            capsys,
            lambda enc: envelope.write_text(json.dumps(envelope_payload()), encoding=enc),
            ["audit", "--envelope", str(envelope)],
        )
        assert with_bom == plain and plain[0] == 0

    def test_config(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps(envelope_payload()))
        config = tmp_path / "config.json"
        plain, with_bom = self.outputs(
            capsys,
            lambda enc: config.write_text(
                json.dumps({"physics": {"bridge_fraction": 0.0}}), encoding=enc
            ),
            ["audit", "--envelope", str(envelope), "--config", str(config)],
        )
        assert with_bom == plain and plain[0] == 0
        assert "130.64" not in plain[1].out


class TestArgumentHandling:
    def test_no_arguments_is_exit_one(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_exit_one(self, capsys):
        assert main(["calibrate"]) == 1

    def test_unknown_flag_is_exit_one(self, capsys):
        assert main(["generate", "--seed", "1", "--explode"]) == 1


class TestOneCommandParser:
    """A call that names a command builds that command's parser alone; it
    parses, helps and fails exactly as the full parser of build_parser()."""

    COMMANDS = ["generate", "train", "predict", "audit", "evaluate"]
    FULL = {
        "generate": ["--config", "c.json", "--seed", "3", "--n", "10", "--out", "o"],
        "train": ["--config", "c.json", "--seed", "3", "--data", "d", "--out", "o"],
        "predict": ["--checkpoint", "f.json", "--building", "b.json", "--out", "p.json"],
        "audit": ["--config", "c.json", "--envelope", "e.json"],
        "evaluate": ["--checkpoint", "f.json", "--data", "d", "--out", "m.json"],
    }

    @staticmethod
    def full_parse(argv):
        return cli.build_parser().parse_args(argv)

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        return built

    def test_the_table_states_the_commands_in_order(self):
        assert list(cli.COMMANDS) == self.COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_full_argv_parses_to_the_same_namespace(self, command):
        argv = [command, *self.FULL[command]]
        expected = vars(self.full_parse(argv))
        assert vars(cli.parse_args(argv)) == expected
        assert expected["command"] == command
        assert expected["func"] is getattr(cli, f"cmd_{command}")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_is_the_full_parsers_and_exit_zero(self, command, capsys):
        with pytest.raises(SystemExit) as full:
            self.full_parse([command, "-h"])
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as one:
            main([command, "-h"])
        assert (one.value.code, full.value.code) == (0, 0)
        assert capsys.readouterr().out == expected
        assert expected.startswith(f"usage: {PROG} {command} [-h]")

    @pytest.mark.parametrize("case", ["missing", "unknown", "positional", "seed", "abbreviated"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_bad_argv_is_the_same_exit_one_message(self, command, case, capsys):
        full = self.FULL[command]
        argv = [command, *{"missing": [], "unknown": [*full, "--explode"],
                           "positional": [*full, "extra"], "seed": [*full, "--seed", "x"],
                           "abbreviated": ["--check", "g.json", *full[2:]]}[case]]
        try:
            self.full_parse(argv)
        except ConfigError as exc:
            expected = f"{PROG}: error: {exc}\n"
        else:  # predict and evaluate take --check for --checkpoint
            assert (command, case) in {("predict", "abbreviated"), ("evaluate", "abbreviated")}
            assert vars(cli.parse_args(argv)) == vars(self.full_parse(argv))
            assert cli.parse_args(argv).checkpoint == "g.json"
            return
        assert main(argv) == 1
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_named_command_builds_one_parser(self, command, parsers_built, capsys):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        assert parsers_built == [f"{PROG} {command}"]
        parsers_built.clear()
        assert main([command, *self.FULL[command][:2], "--explode"]) == 1
        assert parsers_built == [f"{PROG} {command}"]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["calibrate"]])
    def test_anything_else_builds_the_full_tree(self, argv, parsers_built, capsys):
        with suppress(SystemExit):
            main(argv)
        assert parsers_built == [PROG, *(f"{PROG} {command}" for command in self.COMMANDS)]

    def test_no_command_is_exit_one_naming_the_command_argument(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err == (
            f"{PROG}: error: the following arguments are required: command\n")

    def test_an_unknown_command_is_exit_one_naming_every_command_in_order(self, capsys):
        assert main(["calibrate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{PROG}: error: argument command: invalid choice: 'calibrate'")
        choices = err[err.index("(choose from"):]
        positions = [choices.find(name) for name in self.COMMANDS]
        assert -1 not in positions and positions == sorted(positions)


class TestLocale:
    """Every file the program writes is UTF-8, whatever the locale: a run
    under an ASCII locale writes the bytes of a run under a UTF-8 one."""

    LOCALES = {"ascii": {"PYTHONUTF8": "0", "LC_ALL": "C"},
               "utf8": {"PYTHONUTF8": "1", "LC_ALL": "C.UTF-8"}}

    @staticmethod
    def epc_pinn(locale, *argv):
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "LANG", "LC_CTYPE")}
        env.update(locale, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "epc_pinn.cli", *argv], env=env,
                              capture_output=True, timeout=300)

    def test_generate_and_train_write_the_same_bytes_under_an_ascii_locale(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"hidden_dims": [16, 16], "max_epochs": 2}}))
        trees = {}
        for name, locale in self.LOCALES.items():
            cohort, run = tmp_path / name / "cohort", tmp_path / name / "run"
            for argv in (["generate", "--seed", "5", "--n", "40", "--out", str(cohort)],
                         ["train", "--config", str(config), "--seed", "0", "--data", str(cohort),
                          "--out", str(run)]):
                done = self.epc_pinn(locale, *argv)
                assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
            trees[name] = {path.relative_to(tmp_path / name): path.read_bytes()
                           for path in sorted((tmp_path / name).rglob("*")) if path.is_file()}
        assert len(trees["ascii"]) == 5 + 13  # the cohort; results, report, drops, 10 folds
        assert trees["ascii"] == trees["utf8"]
        assert "±".encode("utf-8") in trees["ascii"][Path("run", "report.txt")]
