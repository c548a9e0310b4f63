"""Training-sample construction for the unified text+graph format.

Every sample's input is a text segment followed by a graph segment
(``<s> ... </s> <g> ... </g>``); each segment is the original sequence, a
masked version of it, or the single ``[mask]`` placeholder for an absent
side.  The eight task layouts cover six pre-training tasks (denoising one
or both sides) and the two fine-tuning tasks (generation and parsing).

Two tasks, masked-text-with-full-graph and full-text-with-masked-graph,
use a masking rate that grows linearly over training so that late
pre-training approaches the fine-tuning format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from json.encoder import encode_basestring as _string
from typing import Iterable, Iterator

from . import tokens as tk
from .amr import AmrGraph, InvalidGraphError, require_valid
from .corrupt import (
    CorruptionConfig,
    corrupt_graph,
    derive_rng,
    mask_text,
)
from .linearize import linearize


class TaskTag(Enum):
    """The eight input/output layouts; m = masked, e = empty segment."""

    MT_EG2T = "mt_eg2t"  # masked text + empty graph -> text
    ET_MG2G = "et_mg2g"  # empty text + masked graph -> graph
    MT_G2T = "mt_g2t"  # masked text + full graph -> text (dynamic rate)
    T_MG2G = "t_mg2g"  # full text + masked graph -> graph (dynamic rate)
    MT_MG2T = "mt_mg2t"  # masked text + masked graph -> text
    MT_MG2G = "mt_mg2g"  # masked text + masked graph -> graph
    ET_G2T = "et_g2t"  # empty text + full graph -> text (fine-tuning)
    T_EG2G = "t_eg2g"  # full text + empty graph -> graph (fine-tuning)


# (text segment, graph segment, target side)
_LAYOUT: dict[TaskTag, tuple[str, str, str]] = {
    TaskTag.MT_EG2T: ("masked", "empty", "text"),
    TaskTag.ET_MG2G: ("empty", "masked", "graph"),
    TaskTag.MT_G2T: ("masked", "plain", "text"),
    TaskTag.T_MG2G: ("plain", "masked", "graph"),
    TaskTag.MT_MG2T: ("masked", "masked", "text"),
    TaskTag.MT_MG2G: ("masked", "masked", "graph"),
    TaskTag.ET_G2T: ("empty", "plain", "text"),
    TaskTag.T_EG2G: ("plain", "empty", "graph"),
}

# in declaration order: the six pre-training tasks, then the two fine-tuning ones
ALL_TAGS = tuple(TaskTag)
PRETRAINING_TAGS, FINETUNING_TAGS = ALL_TAGS[:6], ALL_TAGS[6:]

# Only these two tasks follow the dynamic schedule, on their one masked
# side; the doubly-masked tasks keep the static rates.
DYNAMIC_TAGS = frozenset((TaskTag.MT_G2T, TaskTag.T_MG2G))


class TaskError(ValueError):
    """A tag applied to inputs it cannot use."""


@dataclass(frozen=True)
class MaskSchedule:
    """Linearly growing masking rate: 0.1 + 0.75 * step / total_steps."""

    total_steps: int

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be at least 1")


def schedule_rate(step: int, schedule: MaskSchedule) -> float:
    if step < 0 or step > schedule.total_steps:
        raise ValueError(
            f"step {step} outside [0, {schedule.total_steps}]"
        )
    return 0.1 + 0.75 * step / schedule.total_steps


@dataclass(frozen=True)
class TaskSample:
    tag: TaskTag
    input: tuple[str, ...]
    output: tuple[str, ...]
    step: int


def build_sample(
    tag: TaskTag,
    text: list[str] | None,
    graph: AmrGraph | None,
    step: int,
    schedule: MaskSchedule,
    config: CorruptionConfig,
    rng: random.Random,
) -> TaskSample:
    """Construct one sample for ``tag``.

    The text segment is corrupted before the graph segment, so random
    draws are reproducible for a fixed generator.  Targets are never
    corrupted.  An empty segment is rendered as the single ``[mask]``
    token between its markers.
    """
    text_mode, graph_mode, target = _LAYOUT[tag]
    needs_text = text_mode != "empty" or target == "text"
    needs_graph = graph_mode != "empty" or target == "graph"
    if needs_text and not text:
        raise TaskError(f"task {tag.value} requires a non-empty text")
    if needs_graph and graph is None:
        raise TaskError(f"task {tag.value} requires a graph")

    dynamic_rate = schedule_rate(step, schedule) if tag in DYNAMIC_TAGS else None

    if text_mode == "plain":
        text_part = list(text)
    elif text_mode == "empty":
        text_part = [tk.MASK]
    else:
        rate = config.text_rate if dynamic_rate is None else dynamic_rate
        text_part, _ = mask_text(list(text), rate, rng)

    if graph_mode == "plain":
        graph_part = linearize(graph)
    elif graph_mode == "empty":
        graph_part = [tk.MASK]
    else:
        if dynamic_rate is not None:
            config = replace(config, node_rate=dynamic_rate, edge_rate=dynamic_rate)
        graph_part, _ = corrupt_graph(graph, config, rng)

    sample_input = (
        [tk.TEXT_START]
        + text_part
        + [tk.TEXT_END, tk.GRAPH_START]
        + graph_part
        + [tk.GRAPH_END]
    )
    if target == "text":
        sample_output = [tk.TEXT_START] + list(text) + [tk.TEXT_END]
    else:
        sample_output = [tk.GRAPH_START] + linearize(graph) + [tk.GRAPH_END]

    return TaskSample(
        tag=tag,
        input=tuple(sample_input),
        output=tuple(sample_output),
        step=step,
    )


def build_corpus(
    pairs: Iterable[tuple[list[str], AmrGraph]],
    schedule: MaskSchedule,
    config: CorruptionConfig,
    tasks: Iterable[TaskTag],
) -> Iterator[TaskSample]:
    """One sample per selected task per pair, deterministic under the seed.

    The step counter advances once per pair and saturates at the
    schedule's final step.  Each pair draws from its own generator
    (corpus seed XOR pair index), so distinct pairs could be built in
    parallel without changing the output.  Each graph is validated and
    walked once: it keeps its linearization for all of its samples.
    """
    selected = sorted(set(tasks), key=ALL_TAGS.index)
    if not selected:
        raise ValueError("no tasks selected")
    for index, (text, graph) in enumerate(pairs):
        rng = derive_rng(config.seed, index)
        step = min(index, schedule.total_steps)
        try:
            if graph is not None:
                require_valid(graph)
            for tag in selected:
                yield build_sample(tag, text, graph, step, schedule, config, rng)
        except (InvalidGraphError, TaskError) as error:
            raise ValueError(f"pair {index}: {error}") from None


def sample_to_json(sample: TaskSample) -> str:
    """One JSON Lines record: task, step, input and output token arrays.

    The record is ``json.dumps`` of those four fields with
    ``ensure_ascii=False``, joined from the string encoder that call uses.
    """
    return (f'{{"task": {_string(sample.tag.value)}, "step": {sample.step}, '
            f'"input": [{", ".join(map(_string, sample.input))}], '
            f'"output": [{", ".join(map(_string, sample.output))}]}}')


def parse_tag(name: str) -> TaskTag:
    try:
        return TaskTag(name)
    except ValueError:
        raise ValueError(
            f"unknown task {name!r}; expected one of "
            + ", ".join(t.value for t in ALL_TAGS)
        ) from None
