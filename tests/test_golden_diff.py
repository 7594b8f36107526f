import json

from golden_diff import diff_leaves, main


def test_diff_leaves_lists_each_changed_leaf():
    old = {"a": 1, "b": {"c": [1.0, 2.0], "d": "x"}, "gone": True, "e": 1}
    new = {"a": 1, "b": {"c": [1.0, 2.5, 3.0], "d": "x"}, "added": None, "e": 1.0}
    assert list(diff_leaves(old, new)) == [
        ("added", "<absent>", None),
        ("b.c[1]", 2.0, 2.5),
        ("b.c[2]", "<absent>", 3.0),
        ("e", 1, 1.0),
        ("gone", True, "<absent>"),
    ]
    assert list(diff_leaves(old, old)) == []


def test_main_prints_path_old_new_and_sets_the_exit_code(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"tasks": [{"value": 1e-16}]}))
    new.write_text(json.dumps({"tasks": [{"value": 2e-16}]}))
    assert main([str(old), str(old)]) == 0
    assert main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == ["tasks[0].value: 1e-16 -> 2e-16"]
    assert main([str(old)]) == 2
