"""The demo scripts run to completion in a fresh interpreter."""

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_four_demos_found():
    assert [p.stem[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(fresh, script):
    code, out, err = fresh(str(script))
    assert code == 0, err
    assert out.strip()
    assert "Traceback" not in out + err
