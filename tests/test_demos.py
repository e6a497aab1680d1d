"""Every demo runs to completion against the package in this checkout, and
the README's library tour does what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(tour, ns)
    H, P, B = ns["H"], ns["P"], ns["B"]
    assert ns["is_inner_harmonic"](H)
    assert P.degree == 6
    assert ns["interpolates"](P, H) and ns["is_discrete_harmonic"](P)
    assert ns["interpolates"](B, H)
    assert not ns["is_discrete_harmonic"](B)
    assert ns["complete"](ns["extract_border"](H)) == H
    assert len(ns["generate_basis"](4)) == 9
