"""Tests of the one config constructor and of the CLI's config path.

config.from_json checks every value against its dataclass field type
before the dataclass's own range rules see it. On the command line every
bad config value is exit 1 naming its key path, before any fold trains or
any file is written; bad physics constants in a checkpoint are exit 2.
"""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest

from epc_pinn import cli, config, data, synth, train
from epc_pinn.cli import main
from epc_pinn.config import from_json
from epc_pinn.data import MinMaxScaler
from epc_pinn.errors import ConfigError
from epc_pinn.physics import PhysicsConstants
from epc_pinn.synth import DEFAULT_SERIES, GeneratorConfig, SerieProfile
from epc_pinn.train import TrainConfig, TrainHistory, cross_validate

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the test extra
    given = None

README = Path(__file__).resolve().parent.parent / "README.md"

ENVELOPE = {
    "areas": [100.0, 0.0, 0.0, 0.0, 0.0],
    "u_values": [0.5, 0.0, 0.0, 0.0, 0.0],
    "air_exchange_rate": 0.2,
    "specific_heat_gains": 20.0,
    "useful_area": 100.0,
    "building_type": "light",
}

BUILDING = {
    "cadastre_number": "01000000123",
    "useful_area": 850.0,
    "total_area": 1000.0,
    "floors": 3,
    "apartments": 24,
    "building_type": "heavy",
    "serie": "serie_03",
}


def rejects(cls, payload, message):
    with pytest.raises(ConfigError) as info:
        from_json(cls, payload, "x")
    assert str(info.value) == message


class TestTypeRules:
    @pytest.mark.parametrize("value", [True, 2.0, "3", None, [3]])
    def test_int_is_a_json_integer_only(self, value):
        rejects(TrainConfig, {"k_folds": value},
                f"x.k_folds: expected an integer, got {value!r}")

    def test_big_integers_are_integers(self):
        assert from_json(TrainConfig, {"max_epochs": 10**400}).max_epochs == 10**400

    @pytest.mark.parametrize(
        "value", [False, float("nan"), float("inf"), -float("inf"), 10**400, "0.1", None]
    )
    def test_float_is_a_finite_number(self, value):
        with pytest.raises(ConfigError, match=r"^x\.learning_rate: expected a finite number"):
            from_json(TrainConfig, {"learning_rate": value}, "x")

    def test_float_keeps_an_int_as_given(self):
        built = from_json(TrainConfig, {"learning_rate": 1, "physics_weight": 2})
        assert type(built.learning_rate) is int and built.learning_rate == 1
        assert type(built.physics_weight) is int

    def test_str(self):
        rejects(SerieProfile, {**DEFAULT_SERIES[0].to_dict(), "name": 5},
                "x.name: expected a string, got 5")

    def test_optional_is_null_or_the_type(self):
        rejects(TrainConfig, {"batch_size": None}, "x.batch_size: expected an integer, got None")

    def test_variable_tuple_checks_each_entry(self):
        assert from_json(TrainConfig, {"hidden_dims": [8, 4]}).hidden_dims == (8, 4)
        rejects(TrainConfig, {"hidden_dims": 5}, "x.hidden_dims: expected a list, got 5")
        rejects(TrainConfig, {"hidden_dims": [8, 8.5]},
                "x.hidden_dims[1]: expected an integer, got 8.5")

    def test_fixed_tuple_needs_its_length(self):
        payload = {**DEFAULT_SERIES[0].to_dict(), "floors": [1, 2, 3]}
        rejects(SerieProfile, payload, "x.floors: expected a list of 2 entries, got [1, 2, 3]")

    def test_dict_values_are_checked(self):
        rejects(PhysicsConstants, {"time_constants": {"heavy": "3"}},
                "x.time_constants.heavy: expected a finite number, got '3'")
        rejects(PhysicsConstants, {"time_constants": [3.0]},
                "x.time_constants: expected an object, got [3.0]")

    def test_nested_dataclass_object_or_instance(self):
        constants = PhysicsConstants(delta_t=20.0)
        assert from_json(TrainConfig, {"constants": constants}).constants is constants
        built = from_json(TrainConfig, {"constants": {"delta_t": 20}})
        assert built.constants == PhysicsConstants(delta_t=20)
        rejects(TrainConfig, {"constants": {"delta_t": True}},
                "x.constants.delta_t: expected a finite number, got True")

    def test_nested_list_of_dataclasses_names_the_entry(self):
        series = [DEFAULT_SERIES[0].to_dict(), {**DEFAULT_SERIES[1].to_dict(), "u_spread": "x"}]
        with pytest.raises(ConfigError, match=r"^generate\.series\[1\]\.u_spread: "):
            from_json(GeneratorConfig, {"n_buildings": 3, "seed": 1, "series": series},
                      "generate")

    def test_unknown_and_missing_keys(self):
        rejects(TrainConfig, {"momentum": 0.9, "k_folds": 3}, "unknown key(s): x.momentum")
        rejects(GeneratorConfig, {"seed": 1}, "missing key(s): x.n_buildings")

    def test_range_rules_name_the_section(self):
        rejects(PhysicsConstants, {"w_to_kw": 0}, "x: w_to_kw must be positive, got 0")

    def test_not_an_object(self):
        rejects(TrainConfig, "abc", "x: expected an object, got 'abc'")

    def test_type_hints_are_resolved_once_per_class(self):
        assert config._fields(PhysicsConstants) is config._fields(PhysicsConstants)


class TestNewRangeRules:
    @pytest.mark.parametrize("name", ["near_one_epsilon", "w_to_kw", "hours_per_day"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_physics_constant_must_be_positive(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be positive"):
            PhysicsConstants(**{name: value})

    def test_seeds_are_non_negative(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            GeneratorConfig(n_buildings=3, seed=-1)


class TestRoundTripKeepsTypes:
    """from_json(cls, c).to_dict() == c, with an int-valued float still an int,
    so a config's results.json serializes exactly as it was given."""

    @pytest.mark.parametrize("built", [
        TrainConfig(learning_rate=1, physics_weight=1, batch_size=32,
                    constants=PhysicsConstants(delta_t=20, time_constants={"heavy": 3})),
        PhysicsConstants(heating_days=200, bridge_fraction=0),
        GeneratorConfig(n_buildings=3, seed=1, consumption_noise=0, storey_height=3),
        dataclasses.replace(DEFAULT_SERIES[0], u_spread=0, footprint=(200, 450)),
        MinMaxScaler(data_min=(0, -1.5), data_max=(2, -1.5)),
        TrainHistory(train_loss=[0.5, 0.25], val_loss=[0.75, 1], learning_rate=[1e-3, 5e-4],
                     stop_epoch=2, best_val_loss=0.75, best_epoch=0),
    ], ids=["train", "physics", "generate", "serie", "scaler", "history"])
    def test_round_trip(self, built):
        payload = built.to_dict()
        restored = from_json(type(built), payload).to_dict()
        assert restored == payload
        assert json.dumps(restored, sort_keys=True) == json.dumps(payload, sort_keys=True)

    def test_trained_histories_round_trip(self, clean_cohort_dir):
        """Every fold's history, as train_fold built it (early stops and
        rate cuts included), reads back equal and serializes to the same
        JSON; a history is never built without all its fields."""
        with pytest.raises(TypeError):
            TrainHistory()
        arrays = data.build_matrices(data.load_cohort(clean_cohort_dir)[0])
        result = cross_validate(arrays, TrainConfig(
            k_folds=3, hidden_dims=(8,), max_epochs=30, learning_rate=0.05,
            scheduler_patience=1, early_stop_patience=3))
        for fold in result.folds:
            history = fold.history
            restored = from_json(TrainHistory, history.to_dict())
            assert restored == history
            assert (json.dumps(restored.to_dict(), sort_keys=True)
                    == json.dumps(history.to_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# The command line


@pytest.fixture(scope="module")
def canned_result(clean_cohort_dir):
    """A real two-fold result of a tiny network, returned by the patched
    cross_validate so that no config value trains."""
    arrays = data.build_matrices(data.load_cohort(clean_cohort_dir)[0])
    return cross_validate(arrays, TrainConfig(k_folds=2, hidden_dims=(4,), max_epochs=1))


@pytest.fixture(scope="module")
def checkpoint_payload(canned_result, tmp_path_factory):
    out = tmp_path_factory.mktemp("checkpoint")
    cli.save_run_outputs(canned_result, TrainConfig(k_folds=2, hidden_dims=(4,)), out)
    return json.loads((out / "fold_00.json").read_text())


class Stubs:
    """cli.cross_validate and synth.generate_cohort replaced: the configs
    they receive are recorded, and nothing trains or allocates. The
    cross_validate stub runs the real gate first, so a config that the gate
    rejects is never recorded."""

    def __init__(self, result):
        self.result = result
        self.configs = []

    def cross_validate(self, arrays, train_config):
        train._checked_folds(arrays, train_config)
        self.configs.append(train_config)
        return self.result

    def generate_cohort(self, generator_config, out_dir):
        self.configs.append(generator_config)
        return {}


@pytest.fixture(scope="module")
def stubs(canned_result):
    stubs = Stubs(canned_result)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "cross_validate", stubs.cross_validate)
        mp.setattr(synth, "generate_cohort", stubs.generate_cohort)
        yield stubs


def run(argv, config_payload, work: Path) -> int:
    """main(argv) with --config holding config_payload, written under work."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config_payload))
    return main([*argv, "--config", str(config_path)])


def argv_for(command, cohort, out):
    """The argv of a config-reading command, with the seed (and cohort size)
    it requires; audit's envelope goes beside out."""
    if command == "audit":
        envelope = out.parent / "envelope.json"
        envelope.write_text(json.dumps(ENVELOPE))
        return ["audit", "--envelope", str(envelope)]
    return {
        "generate": ["generate", "--seed", "1", "--n", "3", "--out", str(out)],
        "train": ["train", "--seed", "1", "--data", str(cohort), "--out", str(out)],
    }[command]


BASE = {"train": {"k_folds": 2}}
SERIE = json.loads(json.dumps(DEFAULT_SERIES[0].to_dict()))

# (test id, command, config override, the whole error message): each must be
# exit 1 naming its key, before any fold trains or any file is written. An id
# is written out, never derived from the row's place or message, so editing or
# deleting a row renames no other. A new row's id is its command and the
# override's dotted key paths, plus the value where two rows share both.
LEAKS = [
    ("train.hidden_dims-0",
     "train", {"train": {"hidden_dims": 5}}, "train.hidden_dims: expected a list, got 5"),
    ("train.batch_size-1",
     "train", {"train": {"batch_size": 1.5}}, "train.batch_size: expected an integer, got 1.5"),
    ("physics.delta_t-2",
     "train", {"physics": {"delta_t": "x"}}, "physics.delta_t: expected a finite number, got 'x'"),
    ("physics.time_constants-3",
     "train", {"physics": {"time_constants": "x"}},
     "physics.time_constants: expected an object, got 'x'"),
    ("physics-4",
     "train", {"physics": {"w_to_kw": 0}}, "physics: w_to_kw must be positive, got 0"),
    ("unknown key(s)-5",
     "generate", {"generate": {"years": 5}}, "unknown key(s): generate.years"),
    # the seed, the cohort size and the directories are flags only
    ("unknown key(s)-6",
     "train", {"seed": 1}, "unknown key(s): seed"),
    ("unknown key(s)-7",
     "generate", {"n": 3}, "unknown key(s): n"),
    ("unknown key(s)-8",
     "generate", {"out": "elsewhere"}, "unknown key(s): out"),
    ("unknown key(s)-9",
     "train", {"data": "elsewhere"}, "unknown key(s): data"),
    ("train.k_folds-10",
     "train", {"train": {"k_folds": 2.5}}, "train.k_folds: expected an integer, got 2.5"),
    ("train.max_epochs-11",
     "train", {"train": {"max_epochs": True}}, "train.max_epochs: expected an integer, got True"),
    ("train.hidden_dims[0]-12",
     "train", {"train": {"hidden_dims": [8.5]}},
     "train.hidden_dims[0]: expected an integer, got 8.5"),
    ("physics-13",
     "audit", {"physics": {"near_one_epsilon": -1}},
     "physics: near_one_epsilon must be positive, got -1"),
    ("unknown key(s)-14",
     "audit", {"seed": 1}, "unknown key(s): seed"),
    ("unknown key(s)-15",
     "audit", {"n": 3, "out": "elsewhere"}, "unknown key(s): n, out"),
    ("unknown key(s)-16",
     "generate", {"seed": 1, "n": 3, "data": "elsewhere", "out": "elsewhere"},
     "unknown key(s): data, n, out, seed"),
    ("unknown key(s)-17",
     "generate", {"generate": {"years": [2017.5]}}, "unknown key(s): generate.years"),
    ("unknown key(s)-18",
     "train", {"tarin": {"k_folds": 3}}, "unknown key(s): tarin"),
    ("generate.storey_height-19",
     "generate", {"generate": {"storey_height": float("nan")}},
     "generate.storey_height: expected a finite number, got nan"),
    ("physics-20",
     "audit", {"physics": {"vent_coefficient": -5}},
     "physics: vent_coefficient must be >= 0, got -5"),
    ("generate.series[0]-21",
     "generate", {"generate": {"series": [{**SERIE, "floors": [1, 2**63 - 1]}]}},
     "generate.series[0]: bad range for serie_01.floors: (1, 9223372036854775807)"),
    ("generate.series[0]-22",
     "generate", {"generate": {"series": [{**SERIE, "window_fraction": [0.1, 0.95],
                                           "door_fraction": [0.01, 0.05]}]}},
     "generate.series[0]: serie serie_01: window_fraction[1] + door_fraction[1] must be < 1 "
     "(walls keep the rest), got 0.95 + 0.05"),
    ("generate-23",
     "generate", {"physics": {"time_constants": {"heavy": 3.0}}},
     "generate: series[1].building_type: unknown building type 'light'; known types: heavy"),
    ("unknown building type 'light'; known types-24",
     "train", {"physics": {"time_constants": {"heavy": 3.0}}},
     "unknown building type 'light'; known types: heavy"),
    ("unknown key(s)-25",
     "generate", {"generate": {"years": [2017, 2018, 2017]}}, "unknown key(s): generate.years"),
    ("train-26",
     "train", {"train": {"min_lr": 0.5}},
     "train: min_lr must be in [0, learning_rate 0.001], got 0.5"),
    # the seed, the cohort size and the physics constants are set outside the sections
    ("unknown key(s)-27",
     "generate", {"generate": {"seed": 2}}, "unknown key(s): generate.seed"),
    ("unknown key(s)-28",
     "generate", {"generate": {"n_buildings": 5}}, "unknown key(s): generate.n_buildings"),
    ("unknown key(s)-29",
     "generate", {"generate": {"constants": {}}}, "unknown key(s): generate.constants"),
    ("unknown key(s)-30",
     "train", {"train": {"seed": 2}}, "unknown key(s): train.seed"),
    ("unknown key(s)-31",
     "train", {"train": {"constants": {"delta_t": 20}}}, "unknown key(s): train.constants"),
    ("train.batch_size-32",
     "train", {"train": {"batch_size": None}}, "train.batch_size: expected an integer, got None"),
    # every section's keys are checked, whichever section the command builds
    ("unknown key(s)-33",
     "train", {"generate": {"bogus": 1}}, "unknown key(s): generate.bogus"),
    ("unknown key(s)-34",
     "generate", {"train": {"bogus": 1}}, "unknown key(s): train.bogus"),
    ("unknown key(s)-35",
     "audit", {"train": {"bogus": 1}}, "unknown key(s): train.bogus"),
    ("unknown key(s)-36",
     "audit", {"generate": {"n_buildings": 5}}, "unknown key(s): generate.n_buildings"),
]


class TestConfigLeaks:
    @pytest.mark.parametrize("command, override, message", [row[1:] for row in LEAKS],
                             ids=[row[0] for row in LEAKS])
    def test_exit_one_naming_the_key(
        self, stubs, clean_cohort_dir, tmp_path, capsys, command, override, message
    ):
        out = tmp_path / "out"
        calls = len(stubs.configs)
        payload = {**BASE, **override}
        code = run(argv_for(command, clean_cohort_dir, out), payload, tmp_path)
        assert code == 1
        assert capsys.readouterr().err == f"epc-pinn: error: {message}\n"
        assert len(stubs.configs) == calls
        assert not out.exists()

    def test_leak_ids_are_unique(self):
        """pytest would suffix a repeated id, renaming the rows that share it."""
        assert len({row[0] for row in LEAKS}) == len(LEAKS)

    def test_an_unused_section_is_not_built(self, tmp_path, capsys):
        """Physics constants for heavy buildings only suit a heavy
        envelope; the default generator series, which hold light
        buildings too, are not built for audit."""
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps({**ENVELOPE, "building_type": "heavy"}))
        code = run(["audit", "--envelope", str(envelope)],
                   {"physics": {"time_constants": {"heavy": 3.0}}}, tmp_path)
        assert code == 0
        assert "consumption" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_under_a_file_is_exit_one_before_the_data_loads(
        self, stubs, clean_cohort_dir, tmp_path, capsys, monkeypatch, command, under
    ):
        def no_load(*args):
            raise AssertionError("the cohort was loaded")

        monkeypatch.setattr(data, "load_cohort", no_load)
        existing = tmp_path / "existing"
        existing.write_text("keep")
        out = existing / "run" if under else existing
        calls = len(stubs.configs)
        code = run(argv_for(command, clean_cohort_dir, out), BASE, tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            f"epc-pinn: error: output directory {out}: {existing} is not a directory\n")
        assert len(stubs.configs) == calls
        assert existing.read_text() == "keep"

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("constants, message", [
        ("abc", "extra.constants: expected an object, got 'abc'"),
        ({"gravity": 9.81}, "unknown key(s): extra.constants.gravity"),
        ({"delta_t": "x"}, "extra.constants.delta_t: expected a finite number, got 'x'"),
        ({"vent_coefficient": -5}, "extra.constants: vent_coefficient must be >= 0, got -5"),
        ({"time_constants": {"light": 1.0}}, "unknown building type 'heavy'; known types: light"),
    ])
    def test_bad_checkpoint_constants_are_exit_two(
        self, checkpoint_payload, clean_cohort_dir, tmp_path, capsys, command, constants, message
    ):
        checkpoint = tmp_path / "fold.json"
        bad = {**checkpoint_payload, "extra": {**checkpoint_payload["extra"], "constants": constants}}
        checkpoint.write_text(json.dumps(bad))
        building = tmp_path / "building.json"
        building.write_text(json.dumps(BUILDING))
        out = tmp_path / "out.json"
        argv = {"predict": ["--building", str(building)], "evaluate": ["--data", str(clean_cohort_dir)]}
        code = main([command, "--checkpoint", str(checkpoint), *argv[command], "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"epc-pinn: error: checkpoint {checkpoint}: {message}\n"
        assert not out.exists()


class TestReadmeConfig:
    def test_the_readme_example_builds_what_it_shows(self, stubs, clean_cohort_dir, tmp_path):
        text = README.read_text()
        section = text[text.index("\n## Config files"):]
        section = section[: section.index("\n## ", 1)]
        example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        command = re.search(r"^epc-pinn train (.*)$", section, re.M).group(1).split()
        seed = dict(zip(command[::2], command[1::2]))["--seed"]
        out = tmp_path / "out"
        code = run(["train", "--seed", seed, "--data", str(clean_cohort_dir), "--out", str(out)],
                   example, tmp_path)
        assert code == 0
        train = {k: tuple(v) if isinstance(v, list) else v for k, v in example["train"].items()}
        expected = TrainConfig(seed=int(seed), **train,
                               constants=PhysicsConstants(**example["physics"]))
        assert stubs.configs[-1] == expected
        assert (out / "results.json").exists()


# ---------------------------------------------------------------------------
# Any JSON value at any config key path


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


# The flags-only run settings stay paths: any value there is an unknown key.
CONFIG_PATHS = (
    [(name,) for name in ("seed", "n", "data", "out", *field_names(cli.ConfigFile))]
    + [("train", name) for name in field_names(TrainConfig)]
    + [("generate", name) for name in field_names(GeneratorConfig)]
    + [("generate", "series", 0, name) for name in field_names(SerieProfile)]
    + [("physics", name) for name in field_names(PhysicsConstants)]
)
CHECKPOINT_PATHS = [()] + [(name,) for name in field_names(PhysicsConstants)]

# Which subcommands read a config key path, by its first key.
READERS = {"generate": ("generate",), "train": ("train",)}
ALL_READERS = ("generate", "train", "audit")

BASE_CONFIG = {
    "generate": {"series": [DEFAULT_SERIES[0].to_dict()]},
    "train": {"k_folds": 2, "hidden_dims": [4]},
    "physics": {},
}


def with_value(payload, path, value):
    """A deep copy of payload with the entry at path set to value."""
    payload = json.loads(json.dumps(payload))
    if not path:
        return value
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def reject_constant(token):
    """json.loads's parse_constant hook: NaN and Infinity are not JSON."""
    raise ValueError(f"{token} in program output")


if given is not None:
    json_values = st.recursive(
        st.none() | st.booleans() | st.text(max_size=4)
        | st.integers(-3, 3) | st.floats(-2.0, 2.0)
        | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
                           10**400, -10**400, 2**63, -1, 0, 0.0, 1e-320]),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["", "heavy", "light", "x"]), inner, max_size=2),
        max_leaves=4,
    )

    @pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: ".".join(map(str, p)))
    @settings(max_examples=12)
    @given(value=json_values)
    def test_any_config_value_keeps_the_exit_contract(
        stubs, clean_cohort_dir, path, value
    ):
        for command in READERS.get(path[0], ALL_READERS):
            with tempfile.TemporaryDirectory() as work:
                out = Path(work) / "out"
                payload = with_value(BASE_CONFIG, path, value)
                code = run(argv_for(command, clean_cohort_dir, out), payload, Path(work))
                assert code in (0, 1, 2), (command, payload)
                if code == 1:
                    assert not out.exists()

    @pytest.mark.parametrize("path", CHECKPOINT_PATHS, ids=lambda p: ".".join(p) or "constants")
    @settings(max_examples=12)
    @given(value=json_values)
    def test_any_checkpoint_constant_keeps_the_exit_contract(
        checkpoint_payload, clean_cohort_dir, path, value
    ):
        extra = checkpoint_payload["extra"]
        constants = with_value(extra["constants"], path, value)
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            checkpoint = work / "fold.json"
            checkpoint.write_text(json.dumps({**checkpoint_payload,
                                              "extra": {**extra, "constants": constants}}))
            building = work / "building.json"
            building.write_text(json.dumps(BUILDING))
            for argv in (["predict", "--building", str(building)],
                         ["evaluate", "--data", str(clean_cohort_dir)]):
                out = work / "out.json"
                code = main([*argv, "--checkpoint", str(checkpoint), "--out", str(out)])
                assert code in (0, 1, 2), (argv[0], constants)
                if code:
                    assert not out.exists()
                else:  # strict JSON: no NaN or Infinity token
                    json.loads(out.read_text(), parse_constant=reject_constant)
                out.unlink(missing_ok=True)
