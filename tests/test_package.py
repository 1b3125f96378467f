"""The README's library example."""

import shutil
from pathlib import Path

from epc_pinn.train import TrainConfig, save_run_outputs


def test_readme_library_use_runs(clean_cohort_dir, tmp_path, monkeypatch, capsys):
    """The README's "Library use" blocks run as written against a
    generated cohort in data/demo: the first prints the energy R2 and
    NRMSE, the second scores the cohort with the run's fold_00.json."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    run_block, load_block = (part.split("```", 1)[0] for part in section.split("```python\n")[1:])
    shutil.copytree(clean_cohort_dir, tmp_path / "data" / "demo")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(run_block, "README.md", "exec"), names)
    r_squared, nrmse = (float(v) for v in capsys.readouterr().out.split())
    assert r_squared <= 1.0 and nrmse >= 0.0
    save_run_outputs(names["result"], TrainConfig(seed=7), "runs/demo")
    exec(compile(load_block, "README.md", "exec"), names)
    assert names["states"].shape == (names["arrays"].n, 12)
