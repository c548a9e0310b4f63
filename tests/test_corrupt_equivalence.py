"""Graph corruption and task samples pinned to a golden fixture.

``data/corrupt_golden.json`` holds 300 seeded ``synth`` graphs of 1-40
nodes with up to 8 reentrancies and 20% attributes, each with its own
rates (sub-graph rate 0.35 or 1.0, random node and edge rates).  For each
graph it stores the corrupted tokens, and a digest of the ``edits``, of
``corrupt_graph``, ``mask_subgraph``, ``mask_nodes_edges`` and of
``compose`` in reverse order (node/edge masking, then sub-graph masking),
each run on its own seeded generator.  Four graphs of 300-800 nodes get
the same four corruptions, stored as one digest each.  The 300 graphs
also form a corpus with seeded sentences; it is built in six chunks of
50 pairs, each with its own rates and seed, for all eight task tags, and
the digest of every sample's ``sample_to_json`` line is stored.  Digests
(SHA-256, first 16 hex digits) keep the file under 1 MB.  The results
were recorded with the earlier code, which re-scanned the running token
sequence at every corruption step and linearized a pair once per task,
so layout-driven corruption must reproduce them exactly.  Regenerate the
fixture only when a change of results is intended:

    PYTHONPATH=src python tests/test_corrupt_equivalence.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from amrforge import synth
from amrforge import tokens as tk
from amrforge.corrupt import (
    CorruptionConfig,
    compose,
    corrupt_graph,
    derive_rng,
    mask_nodes_edges,
    mask_subgraph,
    node_edge_step,
    subgraph_step,
)
from amrforge.tasks import (
    ALL_TAGS, MaskSchedule, build_corpus, build_sample, sample_to_json,
)

FIXTURE = Path(__file__).parent / "data" / "corrupt_golden.json"
FIXTURE_SEED = 4409
GRAPHS = 300
LARGE_SIZES = (300, 480, 650, 800)
CHUNK = 50


def _cases():
    """(graph, config, sentence) for every small graph."""
    rng = random.Random(FIXTURE_SEED)
    for _ in range(GRAPHS):
        graph = synth.random_graph(
            rng, 1, 40, max_reentrancies=rng.randint(0, 8), attribute_prob=0.2,
        )
        config = CorruptionConfig(
            node_rate=rng.random(), edge_rate=rng.random(),
            subgraph_rate=rng.choice((0.35, 1.0)),
        )
        yield graph, config, synth.random_sentence(rng)


def _large_cases():
    rng = random.Random(FIXTURE_SEED + 1)
    for size in LARGE_SIZES:
        graph = synth.random_graph(
            rng, size, size, max_reentrancies=size // 10, attribute_prob=0.2,
        )
        yield graph, CorruptionConfig(subgraph_rate=1.0)


def _corruptions(graph, config: CorruptionConfig, index: int) -> dict:
    reverse = [
        node_edge_step(config.node_rate, config.edge_rate),
        subgraph_step(config.subgraph_rate),
    ]
    runs = {
        "corrupt_graph": corrupt_graph(graph, config, derive_rng(FIXTURE_SEED, index)),
        "mask_subgraph": mask_subgraph(
            graph, config, derive_rng(FIXTURE_SEED + 1, index)
        ),
        "mask_nodes_edges": mask_nodes_edges(
            graph, config, derive_rng(FIXTURE_SEED + 2, index)
        ),
        "compose_reverse": compose(
            graph, reverse, derive_rng(FIXTURE_SEED + 3, index)
        ),
    }
    return {
        name: {
            "tokens": tk.to_text(toks),
            "edits": _digest([[kind, pos, list(original)]
                              for kind, pos, original in edits]),
        }
        for name, (toks, edits) in runs.items()
    }


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _chunk_config(chunk: int) -> CorruptionConfig:
    rng = random.Random(FIXTURE_SEED * 10 + chunk)
    return CorruptionConfig(
        node_rate=rng.random(), edge_rate=rng.random(),
        subgraph_rate=rng.choice((0.35, 1.0)), text_rate=rng.random(),
        seed=rng.randrange(1 << 16),
    )


def _task_digests(pairs) -> list[dict[str, str]]:
    """Per pair, tag -> digest of its sample's JSON line."""
    out: list[dict[str, str]] = []
    for chunk in range(0, len(pairs), CHUNK):
        samples = build_corpus(
            pairs[chunk : chunk + CHUNK], MaskSchedule(total_steps=CHUNK),
            _chunk_config(chunk // CHUNK), ALL_TAGS,
        )
        for sample in samples:
            if sample.tag is ALL_TAGS[0]:
                out.append({})
            out[-1][sample.tag.value] = _digest(sample_to_json(sample))
    return out


def _record() -> dict:
    cases = list(_cases())
    small = [_corruptions(graph, config, index)
             for index, (graph, config, _) in enumerate(cases)]
    large = [_digest(_corruptions(graph, config, index))
             for index, (graph, config) in enumerate(_large_cases())]
    tasks = _task_digests([(sentence, graph) for graph, _, sentence in cases])
    return {"small": small, "large": large, "tasks": tasks}


def _write_fixture() -> None:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record(), indent=0) + "\n", encoding="utf-8")


@functools.cache
def _golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_corruptions_match_golden_fixture():
    mismatches = []
    for index, (graph, config, _) in enumerate(_cases()):
        got = _corruptions(graph, config, index)
        for name, expected in _golden()["small"][index].items():
            if got[name] != expected:
                mismatches.append((index, name, got[name]))
    assert not mismatches, mismatches[:3]


def test_large_graph_corruptions_match_golden_fixture():
    got = [_digest(_corruptions(graph, config, index))
           for index, (graph, config) in enumerate(_large_cases())]
    assert got == _golden()["large"]


def test_task_samples_match_golden_fixture():
    pairs = [(sentence, graph) for graph, _, sentence in _cases()]
    got = _task_digests(pairs)
    mismatches = [(index, tag)
                  for index, (row, expected) in enumerate(zip(got, _golden()["tasks"]))
                  for tag in expected if row.get(tag) != expected[tag]]
    assert len(got) == len(_golden()["tasks"])
    assert not mismatches, mismatches[:5]


def test_build_sample_matches_build_corpus():
    pairs = [(sentence, graph) for graph, _, sentence in _cases()][:CHUNK]
    config = _chunk_config(0)
    schedule = MaskSchedule(total_steps=CHUNK)
    corpus = [sample_to_json(sample)
              for sample in build_corpus(pairs, schedule, config, ALL_TAGS)]
    alone = []
    for index, (text, graph) in enumerate(pairs):
        rng = derive_rng(config.seed, index)
        for tag in ALL_TAGS:
            alone.append(sample_to_json(
                build_sample(tag, text, graph, index, schedule, config, rng)
            ))
    assert alone == corpus


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_corrupt_equivalence.py --write")
    _write_fixture()
