"""Pins of tools/timing.py's ladder case: the coefficients of the
interacting product in both argument orders on two 8x4 rungs, by their
sha256, and of F,G on the two 16x8 depth rungs; and the tool's entry
point."""
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
    ((2, 2, 48, 16, 8, (2, 13)),
     "cd721f8a58c5d061bc4b5c91b832d4870b0453c8ff5d0486168b26c307e5ac35"),
    ((3, 3, 24, 16, 8, (2, 13)),
     "754864580313fcbcd25a7d9d30f013dc23ba72256f75e688f23c5fc2610f0231"),
], ids=["2,2,8", "3,3,4", "2,2,48@16x8/2-13", "3,3,24@16x8/2-13"])
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
    for bad in ("1,1,2@8x5", "1,1,2@8x", "1,1,25@8x4"):
        with pytest.raises(SystemExit):
            timing.main(["ladder", bad])


@pytest.mark.parametrize("rung, lattice", [("1,1,2", "8x4"),
                                           ("1,1,2@12x6", "12x6")])
def test_ladder_times_both_argument_orders(capsys, rung, lattice):
    """A rung prints R G and the product in both argument orders, F before
    G and G before F, each with the vertex sites it used: both vertices lie
    in the past of G and between F and G, none between G and F.  A rung
    runs on 8x4 unless it names its lattice."""
    timing.main(["-n", "1", "ladder", rung])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [re.match(r"ladder +(.*?) +1,1,2 %s " % lattice, r).group(1)
            for r in rows] == ["R G", "star F,G", "star G,F"]
    assert rows[0].endswith(", 2 vertex sites")
    assert rows[1].endswith(", 2 vertex sites")
    assert rows[2].endswith(", 0 vertex sites")


def test_spread_rung_places_its_vertices_over_its_rows(capsys):
    """A rung ending in /A-B puts k / (B - A + 1) vertices on each of the
    rows A to B at x = 1 + j NX / (that many); one that cannot spread k
    evenly over rows within 2 to NT - 1 exits.  A cheap one runs."""
    assert timing.parse_rung("3,3,24@16x8/2-13") == (3, 3, 24, 16, 8, (2, 13))
    assert timing.parse_rung("2,2,8") == (2, 2, 8, 8, 4, None)
    for rows, want in (((2, 5), [(2, 1), (3, 1), (4, 1), (5, 1)]),
                       ((2, 3), [(2, 1), (2, 3), (3, 1), (3, 3)])):
        xp, V, _, _ = timing.rung(1, 1, 4, 8, 4, rows)
        assert sorted(map(xp.lat.coords, V.support())) == want
    timing.main(["-n", "1", "ladder", "1,1,4@8x4/2-5"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [re.match(r"ladder +(.*?) +1,1,4 8x4/2-5 ", r).group(1)
            for r in rows] == ["R G", "star F,G", "star G,F"]
    assert rows[1].endswith(", 4 vertex sites")
    for bad in ("1,1,3@8x4/2-5", "1,1,4@8x4/1-4", "1,1,4@8x4/5-8",
                "1,1,10@8x4/2-3", "1,1,4@8x4/2", "1,1,4/2-5-6"):
        with pytest.raises(SystemExit):
            timing.main(["ladder", bad])
