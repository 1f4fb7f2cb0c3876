"""Smoke test of ``tools/rdk_heldout.py``, the held-out tally of criterion 6's
judgments, on one scene of each kind so that the tool keeps running; the
``heldout`` fixture (``conftest.py``) loads it."""


def test_wilson_interval(heldout):
    lo, hi = heldout.wilson_interval(51, 60)
    assert (round(lo, 3), round(hi, 3)) == (0.739, 0.919)


def test_tally_of_one_scene_of_each_kind(heldout):
    lines = heldout.tally((1000,), 1, 1)
    heads = [line.split()[0] for line in lines]
    assert heads[:4] == ["unambiguous", "ambiguous", "point", "invalid"]
    assert lines[0].startswith(("unambiguous  0/1 correct", "unambiguous  1/1 correct"))
    assert lines[1].startswith(("ambiguous    same 0/1", "ambiguous    same 1/1"))
    assert "Wilson 95%" in lines[1]
    assert set(heads[4:]) <= {"miss"} and len(heads) <= 5
