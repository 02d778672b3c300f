"""Pins of tools/ladder.py: the coefficients of the interacting product
star_interacting(F, G) on two rungs of the ladder, by their sha256."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ladder  # noqa: E402


@pytest.mark.parametrize("rung, sha256", [
    ((2, 2, 8),
     "4b8a2ee20bf980c170d7d6d034a08c8135e02c50d922311d8672e6a5cabedb58"),
    ((3, 3, 4),
     "828daa694010ea03501617db75f05adafe5414450a7e5e83ffe8214c7f19b2ae"),
], ids=["2,2,8", "3,3,4"])
def test_ladder_rung_is_pinned(rung, sha256):
    *_, P = ladder.rung(*rung)
    assert ladder.coefficients_sha256(P) == sha256
