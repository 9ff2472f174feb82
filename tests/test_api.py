from __future__ import annotations

import re
from pathlib import Path

import tristream
from tristream import analysis, edgelist, estimators, generators, harness, oracle, randomness


def test_all_is_sorted_unique_and_resolves():
    names = tristream.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(tristream, name)]
    assert missing == []


def test_star_import():
    namespace: dict[str, object] = {}
    exec("from tristream import *", namespace)
    assert set(tristream.__all__) <= set(namespace)


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quickstart\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert block is not None, "README has no python block under '## Library quickstart'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert float(printed[1]) > 0


def test_every_module_lists_only_names_it_defines():
    # The Edge alias is tuple[NodeId, NodeId], whose __module__ reads "builtins".
    for module in (analysis, edgelist, estimators, generators, harness, oracle, randomness):
        strays = [
            name for name in module.__all__
            if name != "Edge" and getattr(module, name).__module__ != module.__name__
        ]
        assert strays == [], module.__name__
