import runpy
import sys

from conftest import repo_root


def test_one_checkout_against_itself(monkeypatch, capsys):
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
                               "--rounds", "1"]) == 0
    finally:
        for name in list(sys.modules):
            if name.startswith(("abincull_parent", "abincull_change")):
                del sys.modules[name]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("orbit-compare seed 1: 2 frames x 1 rounds, stats and visible "
                      "ids equal on every traversal")
    assert [line.split()[0] for line in out[2:4]] == ["ANALYTIC_BIN_EXACT", "AABB8"]
    assert all(line.endswith(" of 1") for line in out[2:4])
    # each side's first traversal per pyramid and method, lazy set-up included;
    # the workload's one pass builds one pyramid
    assert out[4] == "first traversal per pyramid, lazy set-up included (ms, median of 1):"
    assert [line.split()[0] for line in out[5:]] == ["ANALYTIC_BIN_EXACT", "AABB8"]
    assert all(len(line.split()) == 4 for line in out[5:])
