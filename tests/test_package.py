"""The README's library example."""

import shutil
from pathlib import Path


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
