import json
import random

import pytest

from amrforge import (
    AmrGraph,
    CorruptionConfig,
    MaskSchedule,
    TaskError,
    TaskSample,
    TaskTag,
    build_corpus,
    build_sample,
    delinearize,
    is_isomorphic,
    linearize,
    sample_to_json,
    schedule_rate,
)
from amrforge.tasks import ALL_TAGS, DYNAMIC_TAGS, FINETUNING_TAGS, PRETRAINING_TAGS
from amrforge.tokens import MASK
from amrforge.synth import random_graph, random_sentence

from conftest import modal_graph

TEXT = ["the", "boy", "can", "not", "go", "there", "today", "."]


def _schedule(total=100000):
    return MaskSchedule(total_steps=total)


def _sample(tag, step=0, text=None, graph=None, config=None, seed=0):
    return build_sample(
        tag,
        TEXT if text is None else text,
        modal_graph() if graph is None else graph,
        step,
        _schedule(),
        config or CorruptionConfig(),
        random.Random(seed),
    )


def test_schedule_endpoints():
    schedule = _schedule()
    assert schedule_rate(0, schedule) == 0.1
    assert abs(schedule_rate(schedule.total_steps, schedule) - 0.85) < 1e-12
    assert abs(schedule_rate(40000, schedule) - 0.4) < 1e-12


def test_schedule_is_linear_and_monotone():
    schedule = _schedule()
    points = [schedule_rate(t, schedule) for t in range(0, 100001, 1000)]
    assert all(b >= a for a, b in zip(points, points[1:]))
    seconds = [points[i + 1] - 2 * points[i] + points[i - 1]
               for i in range(1, len(points) - 1)]
    assert max(abs(s) for s in seconds) < 1e-12


def test_schedule_range_errors():
    schedule = _schedule(10)
    with pytest.raises(ValueError):
        schedule_rate(-1, schedule)
    with pytest.raises(ValueError):
        schedule_rate(11, schedule)


def test_schedule_constants_are_pinned():
    # 0.1 + 0.75 * t/T is fixed: the schedule takes no rate or slope
    with pytest.raises(TypeError):
        MaskSchedule(total_steps=10, initial_rate=0.2)
    with pytest.raises(ValueError):
        MaskSchedule(total_steps=0)


def _segments(sample):
    toks = list(sample.input)
    assert toks[0] == "<s>" and toks[-1] == "</g>"
    split = toks.index("</s>")
    assert toks[split + 1] == "<g>"
    return toks[1:split], toks[split + 2 : -1]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_every_input_starts_with_text_and_ends_with_graph(tag):
    sample = _sample(tag)
    text_part, graph_part = _segments(sample)
    assert text_part and graph_part


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_targets_are_never_corrupted(tag):
    sample = _sample(tag)
    assert MASK not in sample.output


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_output_markers_match_target_side(tag):
    sample = _sample(tag)
    if tag in (TaskTag.MT_EG2T, TaskTag.MT_G2T, TaskTag.MT_MG2T, TaskTag.ET_G2T):
        assert sample.output == ("<s>", *TEXT, "</s>")
    else:
        assert sample.output[0] == "<g>" and sample.output[-1] == "</g>"
        rebuilt = delinearize(list(sample.output[1:-1]))
        assert is_isomorphic(rebuilt, modal_graph())


def test_generation_finetuning_layout():
    sample = _sample(TaskTag.ET_G2T)
    text_part, graph_part = _segments(sample)
    assert text_part == [MASK]
    assert graph_part == linearize(modal_graph())
    assert sample.output == ("<s>", *TEXT, "</s>")


def test_parsing_finetuning_layout():
    sample = _sample(TaskTag.T_EG2G)
    text_part, graph_part = _segments(sample)
    assert text_part == TEXT
    assert graph_part == [MASK]
    assert sample.output == ("<g>", *linearize(modal_graph()), "</g>")


def test_doubly_empty_rows_render_single_mask():
    sample = _sample(TaskTag.MT_EG2T)
    _, graph_part = _segments(sample)
    assert graph_part == [MASK]
    sample = _sample(TaskTag.ET_MG2G)
    text_part, _ = _segments(sample)
    assert text_part == [MASK]


def test_dynamic_text_rate_at_step_zero():
    text = [f"w{i}" for i in range(20)]
    sample = _sample(TaskTag.MT_G2T, step=0, text=text)
    text_part, graph_part = _segments(sample)
    assert text_part.count(MASK) == 2  # round(0.1 * 20)
    assert graph_part == linearize(modal_graph())  # graph side untouched


def test_dynamic_graph_rate_reaches_085():
    graph = random_graph(random.Random(4), 20, 20, max_reentrancies=0)
    config = CorruptionConfig(subgraph_rate=0.0)
    schedule = _schedule(10)
    sample = build_sample(
        TaskTag.T_MG2G, TEXT, graph, 10, schedule, config, random.Random(0)
    )
    _, graph_part = _segments(sample)
    n, e = len(graph.nodes), len(graph.edges)
    expected = int(0.85 * n + 0.5) + int(0.85 * e + 0.5)
    assert graph_part.count(MASK) == expected


def test_static_rates_for_doubly_masked_tasks():
    text = [f"w{i}" for i in range(20)]
    config = CorruptionConfig(subgraph_rate=0.0)
    sample = build_sample(
        TaskTag.MT_MG2T, text, modal_graph(), 90000, _schedule(), config,
        random.Random(0),
    )
    text_part, graph_part = _segments(sample)
    assert text_part.count(MASK) == 3  # static 0.15, not the dynamic rate
    assert graph_part.count(MASK) == int(0.15 * 4 + 0.5) + int(0.15 * 3 + 0.5)


def test_dynamic_tags_are_exactly_the_two_singly_masked_tasks():
    assert DYNAMIC_TAGS == {TaskTag.MT_G2T, TaskTag.T_MG2G}


def test_missing_text_or_graph_raise():
    with pytest.raises(TaskError):
        _sample(TaskTag.MT_G2T, text=[])
    with pytest.raises(TaskError, match="graph"):
        build_sample(
            TaskTag.T_EG2G, TEXT, None, 0, _schedule(), CorruptionConfig(),
            random.Random(0),
        )


def test_text_only_task_works_without_graph():
    sample = build_sample(
        TaskTag.MT_EG2T, TEXT, None, 0, _schedule(), CorruptionConfig(),
        random.Random(0),
    )
    assert sample.output == ("<s>", *TEXT, "</s>")


def test_build_corpus_cardinality():
    pairs = [(TEXT, modal_graph())]
    samples = list(
        build_corpus(pairs, _schedule(), CorruptionConfig(), PRETRAINING_TAGS)
    )
    assert len(samples) == 6
    assert sorted(s.tag.value for s in samples) == sorted(
        t.value for t in PRETRAINING_TAGS
    )
    assert list(build_corpus([], _schedule(), CorruptionConfig(), ALL_TAGS)) == []


def test_build_corpus_is_deterministic():
    rng = random.Random(8)
    pairs = [
        (random_sentence(rng), random_graph(rng, 2, 15, max_reentrancies=2))
        for _ in range(10)
    ]
    config = CorruptionConfig(seed=99)
    first = [
        sample_to_json(s)
        for s in build_corpus(pairs, _schedule(), config, ALL_TAGS)
    ]
    second = [
        sample_to_json(s)
        for s in build_corpus(pairs, _schedule(), config, ALL_TAGS)
    ]
    assert first == second
    other = [
        sample_to_json(s)
        for s in build_corpus(pairs, _schedule(), CorruptionConfig(seed=100), ALL_TAGS)
    ]
    assert first != other


def test_build_corpus_steps_advance_once_per_pair_and_saturate():
    pairs = [(TEXT, modal_graph()) for _ in range(4)]
    samples = list(
        build_corpus(pairs, _schedule(total=2), CorruptionConfig(),
                     (TaskTag.ET_G2T,))
    )
    assert [s.step for s in samples] == [0, 1, 2, 2]


def test_build_corpus_aborts_on_invalid_pair():
    bad = AmrGraph(nodes={"a": "x", "b": "y"}, root="a")
    pairs = [(TEXT, modal_graph()), (TEXT, bad)]
    with pytest.raises(ValueError, match="pair 1"):
        list(build_corpus(pairs, _schedule(), CorruptionConfig(), (TaskTag.ET_G2T,)))


def test_build_corpus_takes_a_missing_graph_for_text_tasks_only():
    pairs = [(TEXT, None)]
    samples = list(build_corpus(pairs, _schedule(), CorruptionConfig(), [TaskTag.MT_EG2T]))
    assert [s.output for s in samples] == [("<s>", *TEXT, "</s>")]
    with pytest.raises(ValueError, match="^pair 0: task et_g2t requires a graph$"):
        list(build_corpus(pairs, _schedule(), CorruptionConfig(), [TaskTag.ET_G2T]))


def test_build_corpus_requires_tasks():
    with pytest.raises(ValueError, match="no tasks"):
        list(build_corpus([], _schedule(), CorruptionConfig(), ()))


def test_sample_json_schema():
    sample = _sample(TaskTag.ET_G2T)
    row = json.loads(sample_to_json(sample))
    assert list(row) == ["task", "step", "input", "output"]
    assert row["task"] == "et_g2t"
    assert row["input"][0] == "<s>" and row["input"][-1] == "</g>"


# tokens that JSON escapes, or that ensure_ascii=False writes as UTF-8
AWKWARD_TOKENS = (
    ["caf\u00e9", "\u4e2d\u6587", "\U0001f600", '"a\\"b"', "back\\slash", "new\nline",
     "tab\tbed", "\u2028", "\u2029", "\x7f", "\ud800", '"New York"', "", " "]
    + [chr(code) for code in range(32)]
)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_sample_record_is_json_dumps_of_its_fields(tag):
    graph = AmrGraph(
        nodes={"c": "city", "n": "name"},
        edges=(("c", ":name", "n"),),
        attributes=(("n", ":op1", '"New York"'), ("n", ":op2", '"S\u00e3o \\ Paulo"')),
        root="c",
    )
    text = ["S\u00e3o", "Paulo", '"New York"', "\u2028"]
    samples = [_sample(tag, step=7, text=text, graph=graph),
               TaskSample(tag, tuple(AWKWARD_TOKENS), tuple(reversed(AWKWARD_TOKENS)), 3),
               TaskSample(tag, (), ("[mask]",), 0)]  # an empty and a one-token segment
    for sample in samples:
        fields = {"task": tag.value, "step": sample.step,
                  "input": list(sample.input), "output": list(sample.output)}
        assert sample_to_json(sample) == json.dumps(fields, ensure_ascii=False)


def test_tag_partitions():
    assert len(PRETRAINING_TAGS) == 6
    assert len(FINETUNING_TAGS) == 2
    assert set(ALL_TAGS) == set(TaskTag)


def test_sample_to_json_encodes_each_target_by_its_value():
    # three targets of one length, which a pair's alternating targets cycle
    # past the memo's two entries; each is built anew per sample, so a freed
    # tuple's address is soon another target's, and equal ones differ by id
    targets = [("<s>", "the", "boy", "</s>"),
               ("<s>", "the", "girl", "</s>"),
               ("<g>", "(", "<Z0>", "</g>")]
    rng = random.Random(0)
    order = [0, 1, 0, 1, 2, 0, 2, 1, 1, 0] + [rng.randrange(3) for _ in range(300)]
    for i, k in enumerate(order):
        tag = ALL_TAGS[i % len(ALL_TAGS)]
        expected = json.dumps({"task": tag.value, "step": i, "input": ["<s>", MASK],
                               "output": list(targets[k])}, ensure_ascii=False)
        # the sample and its output tuple are freed as soon as it is encoded
        assert sample_to_json(
            TaskSample(tag, ("<s>", MASK), tuple(list(targets[k])), i)) == expected
