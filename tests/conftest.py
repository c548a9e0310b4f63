"""Shared graph fixtures used across the test modules."""

import pytest

from amrforge import AmrGraph, amr

GOLDEN_SEQUENCE = (
    "( <Z0> possible :domain ( <Z1> go :arg0 ( <Z2> boy ) ) "
    ":polarity ( <Z3> negative ) )"
)


def rename_nodes(graph: AmrGraph, mapping: dict[str, str]) -> AmrGraph:
    """Rebuild the graph with node ids renamed through ``mapping``."""
    missing = [n for n in graph.nodes if n not in mapping]
    if missing:
        raise ValueError(f"mapping does not cover nodes {missing}")
    if len(set(mapping[n] for n in graph.nodes)) != len(graph.nodes):
        raise ValueError("mapping is not injective")
    return AmrGraph(
        nodes={mapping[n]: c for n, c in graph.nodes.items()},
        edges=tuple((mapping[s], r, mapping[t]) for s, r, t in graph.edges),
        attributes=tuple((mapping[s], r, v) for s, r, v in graph.attributes),
        root=mapping[graph.root],
    )


def modal_graph() -> AmrGraph:
    """possible -> go -> boy, possible -> negative (a 4-node tree)."""
    return AmrGraph(
        nodes={"z0": "possible", "z1": "go", "z2": "boy", "z3": "negative"},
        edges=(
            ("z0", ":domain", "z1"),
            ("z0", ":polarity", "z3"),
            ("z1", ":arg0", "z2"),
        ),
        root="z0",
    )


CONTRAST_TEXT = """\
(c / contrast-01
    :ARG1 (a / addictive-02
        :ARG0 (h / harm-01
            :ARG1 (s / self)))
    :ARG2 (p / possible-01
        :ARG1 (o / overcome-01
            :ARG0 (y / you)
            :ARG1 h)))"""


def contrast_graph() -> AmrGraph:
    """An 8-node graph with one reentrancy: h has two parents."""
    return AmrGraph(
        nodes={
            "c": "contrast-01",
            "a": "addictive-02",
            "h": "harm-01",
            "s": "self",
            "p": "possible-01",
            "o": "overcome-01",
            "y": "you",
        },
        edges=(
            ("c", ":ARG1", "a"),
            ("c", ":ARG2", "p"),
            ("a", ":ARG0", "h"),
            ("h", ":ARG1", "s"),
            ("p", ":ARG1", "o"),
            ("o", ":ARG0", "y"),
            ("o", ":ARG1", "h"),
        ),
        root="c",
    )


@pytest.fixture
def golden():
    return modal_graph()


@pytest.fixture
def contrast():
    return contrast_graph()


@pytest.fixture
def diagnose_calls(monkeypatch):
    """The graphs whose invariants validate checks, one entry per check
    (a graph already marked valid is not checked again)."""
    calls = []
    check = amr._diagnose

    def counted(graph):
        calls.append(graph)
        return check(graph)

    monkeypatch.setattr(amr, "_diagnose", counted)
    return calls
