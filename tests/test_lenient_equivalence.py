"""``amrforge delinearize --lenient`` pinned to a golden fixture.

``data/lenient_golden.json`` holds the command's PENMAN output for every
sequence of ``data/walker_golden.json`` that has a text form (all but the
empty one), and for 40 seeded ``corrupt_graph`` sequences of 20-150-node
``synth`` graphs, mutated as the walker fixture's are.  The results were
recorded with the earlier command, which ran ``delinearize(repair(...))``
and so walked each faulty line twice and re-linearized the salvaged
graph in between, so a command that walks each line once must reproduce
them exactly.  Regenerate the fixture only when a change of results is
intended:

    PYTHONPATH=src python tests/test_lenient_equivalence.py --write
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

from amrforge import synth
from amrforge import tokens as tk
from amrforge.cli import run
from amrforge.corrupt import CorruptionConfig, corrupt_graph, derive_rng

from test_walker_equivalence import FIXTURE as WALKER_FIXTURE, _mutate

FIXTURE = Path(__file__).parent / "data" / "lenient_golden.json"
FIXTURE_SEED = 4409
LARGE = 40


def _lines() -> list[str]:
    walker = json.loads(WALKER_FIXTURE.read_text(encoding="utf-8"))
    lines = [case["tokens"] for case in walker["sequences"] if case["tokens"]]
    rng = random.Random(FIXTURE_SEED)
    for index in range(LARGE):
        graph = synth.random_graph(
            rng, 20, 150, max_reentrancies=rng.randint(0, 8), attribute_prob=0.1,
        )
        rng_corrupt = derive_rng(FIXTURE_SEED, index)
        toks, _ = corrupt_graph(graph, CorruptionConfig(), rng_corrupt)
        lines.append(tk.to_text(_mutate(toks, rng, len(graph.nodes)) or toks))
    return lines


def _lenient_outputs(lines: list[str], tmp: Path) -> list[str]:
    source, target = tmp / "lines.txt", tmp / "out.amr"
    source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert run(["delinearize", "--lenient", str(source), "-o", str(target)]) == 0
    outputs = target.read_text(encoding="utf-8").split("\n\n")
    assert len(outputs) == len(lines)
    return outputs


@functools.cache
def _golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_lenient_delinearize_matches_golden_fixture(tmp_path):
    golden = _golden()
    assert _lines() == [line for line, _ in golden]
    outputs = _lenient_outputs(_lines(), tmp_path)
    mismatches = [
        (line, got, expected)
        for (line, expected), got in zip(golden, outputs)
        if got != expected
    ]
    assert not mismatches, mismatches[:3]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_lenient_equivalence.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = _lines()
        outputs = _lenient_outputs(lines, Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps([list(pair) for pair in zip(lines, outputs)], indent=0) + "\n",
        encoding="utf-8",
    )
