"""Golden outputs: the exact stdout and ``--csv`` file of every subcommand.

Each case runs one subcommand on one graph under a fixed seed and compares
its stdout, and the CSV file it writes, byte for byte with the section of
``tests/golden/<graph>.txt`` named after the case.  Inputs are passed by
relative name from the working directory, because ``compare`` writes the
input name into its CSV.

After a deliberate change of output, rewrite the expected files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from tristream import barabasi_albert, erdos_renyi, serialize_edge_list
from tristream.cli import main

GOLDEN = Path(__file__).parent / "golden"
TOY_GRAPH = Path(__file__).parents[1] / "data" / "toy_graph.txt"

GRAPHS = {
    "toy": lambda: TOY_GRAPH.read_text(),
    "er": lambda: serialize_edge_list(erdos_renyi(40, 0.3, seed=7)),
    "ba": lambda: serialize_edge_list(barabasi_albert(300, 4, seed=7)),
}

# Case name -> argv after the subcommand's --input; "out.csv" marks a CSV file.
CASES = {
    "stats": ["stats"],
    "estimate-pes": ["estimate", "--method", "pes", "--p", "0.5", "--pool", "20",
                     "--seed", "11", "--csv", "out.csv"],
    "estimate-nes": ["estimate", "--method", "nes", "--p", "0.5", "--seed", "11",
                     "--csv", "out.csv"],
    "evaluate-pes": ["evaluate", "--method", "pes", "--p", "0.5", "--pool", "20",
                     "--runs", "20", "--seed", "5", "--csv", "out.csv"],
    "evaluate-nes-fixed": ["evaluate", "--method", "nes", "--p", "0.5", "--runs", "20",
                           "--seed", "5", "--shuffle", "fixed", "--csv", "out.csv"],
    "compare": ["compare", "--target-rse", "0.3", "--runs", "20", "--seed", "4",
                "--csv", "out.csv"],
    "sweep-pes": ["sweep", "--method", "pes", "--targets", "0.2,0.4", "--runs", "20",
                  "--seed", "2", "--csv", "out.csv"],
    "sweep-nes": ["sweep", "--method", "nes", "--targets", "0.3", "--runs", "20",
                  "--seed", "2", "--csv", "out.csv"],
    "calibrate": ["calibrate", "--target-rse", "0.2", "--csv", "out.csv"],
}


def render(graph: str, case: str) -> str:
    """Run one case in the current directory; return its golden section."""
    input_name = f"{graph}.txt"
    Path(input_name).write_text(GRAPHS[graph]())
    argv = CASES[case][:1] + ["--input", input_name] + CASES[case][1:]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    section = f"==> {case}: exit {code}\n{stdout.getvalue()}"
    if "out.csv" in argv:
        section += f"==> {case}: out.csv\n{Path('out.csv').read_text()}"
        os.remove("out.csv")
    return section


def expected_sections(graph: str) -> dict[str, str]:
    text = (GOLDEN / f"{graph}.txt").read_text()
    sections: dict[str, str] = {}
    for chunk in text.split("==> ")[1:]:
        case = chunk.split(":", 1)[0]
        sections[case] = sections.get(case, "") + "==> " + chunk
    return sections


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("graph", GRAPHS)
def test_golden_output(graph, case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert render(graph, case) == expected_sections(graph)[case]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name in GRAPHS:
            (GOLDEN / f"{name}.txt").write_text("".join(render(name, case) for case in CASES))
