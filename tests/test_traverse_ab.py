import runpy
import sys

from conftest import repo_root


def run_against_itself(monkeypatch, capsys, rounds, passes=1):
    """The script's output lines for this checkout against itself on
    orbit-compare, whose passes have 2 frames each."""
    # both sides load this checkout's src/abincull under their own package
    # names; the script checks every traversal's stats and visible ids
    root = repo_root()
    monkeypatch.syspath_prepend(str(root))
    for name in list(sys.modules):
        if name.startswith(("abincull_parent", "abincull_change")):
            monkeypatch.delitem(sys.modules, name)
    script = runpy.run_path(str(root / "scripts" / "traverse_ab.py"))
    try:
        assert script["main"]([str(root), str(root), "--workload", "orbit-compare",
                               "--rounds", str(rounds), "--passes", str(passes)]) == 0
    finally:
        for name in list(sys.modules):
            if name.startswith(("abincull_parent", "abincull_change")):
                del sys.modules[name]
    return capsys.readouterr().out.splitlines()


def test_one_checkout_against_itself(monkeypatch, capsys):
    out = run_against_itself(monkeypatch, capsys, rounds=1)
    # orbit-compare is a compare workload, so both sides traverse with a
    # recording sink and their classification maps are compared too
    assert out[0] == ("orbit-compare seed 1: 2 frames x 1 rounds, stats, visible ids "
                      "and classification maps equal on every traversal")
    assert [line.split()[0] for line in out[2:4]] == ["ANALYTIC_BIN_EXACT", "AABB8"]
    assert all(line.endswith(" of 1") for line in out[2:4])
    # each side's first traversal per pyramid and method, lazy set-up included;
    # the workload's one pass builds one pyramid
    assert out[4] == "first traversal per pyramid, lazy set-up included (ms, median of 1):"
    assert [line.split()[0] for line in out[5:7]] == ["ANALYTIC_BIN_EXACT", "AABB8"]
    assert all(len(line.split()) == 4 for line in out[5:7])
    # one first traversal and 2 frames x 1 round are too few for a tail
    assert out[7:] == ["tail by perfbench's rule: needs 11 timed traversals per method, got 3"]


def test_tail_over_every_timed_traversal(monkeypatch, capsys):
    # 1 first traversal and 2 frames x 5 rounds: 11 samples, so the tail is
    # the smallest of them, at the 9.1th percentile
    out = run_against_itself(monkeypatch, capsys, rounds=5)
    assert out[7] == ("tail by perfbench's rule over all 11 timed traversals per method, "
                      "first ones included (ms, p9.1):")
    assert [line.split()[0] for line in out[8:]] == ["ANALYTIC_BIN_EXACT", "AABB8"]
    for line in out[8:]:
        parent, change, ratio = map(float, line.split()[1:])
        assert parent > 0 and change > 0
        assert ratio == float(f"{change / parent:.3f}")


def test_first_traversal_ratio_needs_five_pyramids(monkeypatch, capsys):
    # one pass gives one first traversal per side: no ratio; five give one
    out = run_against_itself(monkeypatch, capsys, rounds=1)
    assert [line.split()[3] for line in out[5:7]] == ["n/a", "n/a"]
    out = run_against_itself(monkeypatch, capsys, rounds=1, passes=5)
    assert out[4] == "first traversal per pyramid, lazy set-up included (ms, median of 5):"
    for line in out[5:7]:
        parent, change, ratio = map(float, line.split()[1:])
        assert ratio == float(f"{change / parent:.3f}")
