"""The package's public names and the README's library example."""

import shutil
from pathlib import Path

import epc_pinn


def test_every_exported_name_resolves():
    """Each name in epc_pinn.__all__ is an attribute of the package, so a
    stale export fails here rather than at a star import."""
    missing = [name for name in epc_pinn.__all__ if not hasattr(epc_pinn, name)]
    assert missing == []
    assert len(set(epc_pinn.__all__)) == len(epc_pinn.__all__)


def test_readme_library_use_runs(clean_cohort_dir, tmp_path, monkeypatch, capsys):
    """The README's "Library use" block runs as written against a
    generated cohort in data/demo and prints the energy R2 and NRMSE."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copytree(clean_cohort_dir, tmp_path / "data" / "demo")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    r_squared, nrmse = (float(v) for v in capsys.readouterr().out.split())
    assert r_squared <= 1.0 and nrmse >= 0.0
