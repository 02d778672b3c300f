"""Pins of tools/timing.py's ladder case: the coefficients of the
interacting product in both argument orders on two rungs, by their sha256;
and the tool's entry point."""
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import timing  # noqa: E402
from paqft.quantization import BogoliubovMap  # noqa: E402


@pytest.mark.parametrize("rung, sha256", [
    ((2, 2, 8),
     "4b8a2ee20bf980c170d7d6d034a08c8135e02c50d922311d8672e6a5cabedb58"),
    ((3, 3, 4),
     "828daa694010ea03501617db75f05adafe5414450a7e5e83ffe8214c7f19b2ae"),
], ids=["2,2,8", "3,3,4"])
def test_ladder_rung_is_pinned(rung, sha256):
    xp, V, F, G = timing.rung(*rung)
    P = BogoliubovMap(xp, V).star_interacting(F, G)
    assert timing.coefficients_sha256(P) == sha256


@pytest.mark.parametrize("rung", [(2, 2, 8), (3, 3, 4)],
                         ids=["2,2,8", "3,3,4"])
def test_ladder_rung_is_pinned_with_g_first(rung):
    """star_interacting(G, F) uses no vertex site, as G is nowhere earlier
    than F, and is G *_H F: one digest at every rung, the one the product
    had when it was built from all the vertices in the past of F and G."""
    xp, V, F, G = timing.rung(*rung)
    P = BogoliubovMap(xp, V).star_interacting(G, F)
    assert timing.coefficients_sha256(P) == (
        "b463dcbb0cfed305a66e0c8c9c2891328ef5124cf3cf440cb7fe77a59ebaf398")


def test_timing_prints_one_digest_per_call(capsys):
    timing.main(["-n", "1", "pairing"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(list(timing.pairing()))
    assert all(re.match(r"pairing .* [0-9a-f]{64}  ", r) for r in rows)
    with pytest.raises(SystemExit) as exit_:
        timing.main(["no_such_case"])
    assert exit_.value.code != 0
    assert "ladder, flow, wf2d, pairing" in capsys.readouterr().err


def test_ladder_times_both_argument_orders(capsys):
    """A rung prints R G and the product in both argument orders, F before
    G and G before F, each with the vertex sites it used: both vertices lie
    in the past of G and between F and G, none between G and F."""
    timing.main(["-n", "1", "ladder", "1,1,2"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [re.match(r"ladder +(.*?) +1,1,2 ", r).group(1)
            for r in rows] == ["R G", "star F,G", "star G,F"]
    assert rows[0].endswith(", 2 vertex sites")
    assert rows[1].endswith(", 2 vertex sites")
    assert rows[2].endswith(", 0 vertex sites")
