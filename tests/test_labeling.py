"""The ``Labeling`` contract, held to a dict-backed reference.

``_DictLabeling`` below is the original sparse store (three dicts keyed
by node, edge id and ``HalfEdge``), kept here as the oracle: the dense
slot store in :mod:`repro.lcl.assignment` must answer every read, raise
on every write, and list ``items()`` exactly as it does.
"""

from __future__ import annotations

import copy
import pickle
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import build_family, hard_instance, paper_f
from repro.core.hard_instances import _lifted_ids
from repro.core.padding import GADEDGE, PORTEDGE, PaddedInput, pad_graph
from repro.gadgets.build import build_gadget
from repro.generators import random_regular
from repro.generators.hard import cubic_instance, padded_hard_instance
from repro.lcl import Labeling
from repro.lcl.labels import BLANK, EMPTY
from repro.local import Instance, PortGraph
from repro.local.graphs import HalfEdge
from repro.runtime import registry
from repro.runtime.driver import dispatch_solver, verifier_for
from tests.conftest import multigraphs


class _DictLabeling:
    """The reference store: sparse dicts, ``EMPTY`` for every miss."""

    def __init__(self, graph: PortGraph):
        self.graph = graph
        self._node: dict = {}
        self._edge: dict = {}
        self._half: dict = {}

    def node(self, v):
        return self._node.get(v, EMPTY)

    def edge(self, eid):
        return self._edge.get(eid, EMPTY)

    def half(self, side):
        return self._half.get(side, EMPTY)

    def half_at(self, v, port):
        return self._half.get(HalfEdge(v, port), EMPTY)

    def set_node(self, v, label):
        if not 0 <= v < self.graph.num_nodes:
            raise KeyError(v)
        self._node[v] = label

    def set_edge(self, eid, label):
        if not 0 <= eid < self.graph.num_edges:
            raise KeyError(eid)
        self._edge[eid] = label

    def set_half(self, side, label):
        v, port = side
        if not 0 <= v < self.graph.num_nodes or not 0 <= port < self.graph.degree(v):
            raise KeyError(side)
        self._half[HalfEdge(v, port)] = label

    def items(self):
        for v, label in sorted(self._node.items()):
            yield ("node", v, label)
        for eid, label in sorted(self._edge.items()):
            yield ("edge", eid, label)
        for side, label in sorted(self._half.items()):
            yield ("half", side, label)


def _both(graph: PortGraph):
    return Labeling(graph), _DictLabeling(graph)


def _path3() -> PortGraph:
    return PortGraph.from_edge_list(3, [(0, 1), (1, 2)])  # degrees 1, 2, 1


def _star3() -> PortGraph:
    return PortGraph.from_edge_list(3, [(0, 1), (0, 2)])  # degrees 2, 1, 1


class TestReads:
    def test_unset_reads_are_empty(self):
        graph = _path3()
        labeling = Labeling(graph)
        assert [labeling.node(v) for v in graph.nodes()] == [EMPTY] * 3
        assert [labeling.edge(e) for e in range(2)] == [EMPTY] * 2
        assert [labeling.half(s) for s in graph.half_edges()] == [EMPTY] * 4

    def test_negative_keys_do_not_alias_the_last_element(self):
        graph = _path3()
        labeling = Labeling(graph)
        labeling.set_node(2, "last-node")
        labeling.set_edge(1, "last-edge")
        labeling.set_half(HalfEdge(2, 0), "last-half")
        labeling.set_half(HalfEdge(1, 1), "node1-port1")
        assert labeling.node(-1) is EMPTY
        assert labeling.edge(-1) is EMPTY
        assert labeling.half_at(-1, 0) is EMPTY
        assert labeling.half_at(1, -1) is EMPTY
        assert labeling.half(HalfEdge(2, -1)) is EMPTY

    def test_reads_past_the_end_are_empty(self):
        graph = _path3()
        labeling = Labeling(graph).fill_nodes("n").fill_edges("e").fill_halves("h")
        assert labeling.node(3) is EMPTY
        assert labeling.edge(2) is EMPTY
        assert labeling.half_at(3, 0) is EMPTY
        assert labeling.half(HalfEdge(99, 0)) is EMPTY

    def test_a_port_at_the_degree_does_not_read_the_next_node(self):
        graph = _path3()
        labeling = Labeling(graph)
        labeling.set_half(HalfEdge(1, 0), "node1-port0")
        labeling.set_half(HalfEdge(2, 0), "node2-port0")
        # port deg(v) of v would be node v+1's port 0 in a flat table
        assert labeling.half_at(0, 1) is EMPTY
        assert labeling.half_at(1, 2) is EMPTY
        assert labeling.half(HalfEdge(0, 1)) is EMPTY

    def test_isolated_nodes_have_no_ports(self):
        graph = PortGraph.from_edge_list(3, [(1, 2)])
        labeling = Labeling(graph).fill_halves("h")
        assert labeling.half_at(0, 0) is EMPTY
        assert labeling.half_at(1, 0) == "h"


class TestWrites:
    @pytest.mark.parametrize(
        "write",
        [
            lambda lab: lab.set_node(-1, "x"),
            lambda lab: lab.set_node(3, "x"),
            lambda lab: lab.set_edge(-1, "x"),
            lambda lab: lab.set_edge(2, "x"),
            lambda lab: lab.set_half(HalfEdge(-1, 0), "x"),
            lambda lab: lab.set_half(HalfEdge(3, 0), "x"),
            lambda lab: lab.set_half(HalfEdge(0, 1), "x"),
            lambda lab: lab.set_half(HalfEdge(1, -1), "x"),
            lambda lab: lab.set_half_at(1, 2, "x"),
        ],
    )
    def test_out_of_range_writes_raise_key_error(self, write):
        labeling = Labeling(_path3())
        with pytest.raises(KeyError):
            write(labeling)
        assert list(labeling.items()) == []

    def test_plain_tuples_address_half_edges(self):
        labeling = Labeling(_path3())
        labeling.set_half((1, 1), "t")
        assert labeling.half(HalfEdge(1, 1)) == "t"
        assert labeling.half((1, 1)) == "t"
        assert labeling.half_at(1, 1) == "t"


class TestItems:
    def test_order_is_nodes_edges_halves_each_ascending(self):
        graph = _path3()
        labeling = Labeling(graph)
        labeling.set_half(HalfEdge(2, 0), "h20")
        labeling.set_edge(1, "e1")
        labeling.set_node(2, "n2")
        labeling.set_half(HalfEdge(0, 0), "h00")
        labeling.set_node(0, EMPTY)  # explicitly set EMPTY is listed
        labeling.set_half(HalfEdge(1, 1), EMPTY)
        labeling.set_edge(0, "e0")
        labeling.set_half(HalfEdge(1, 0), "h10")
        assert list(labeling.items()) == [
            ("node", 0, EMPTY),
            ("node", 2, "n2"),
            ("edge", 0, "e0"),
            ("edge", 1, "e1"),
            ("half", HalfEdge(0, 0), "h00"),
            ("half", HalfEdge(1, 0), "h10"),
            ("half", HalfEdge(1, 1), EMPTY),
            ("half", HalfEdge(2, 0), "h20"),
        ]
        assert all(
            type(key) is HalfEdge for kind, key, _ in labeling.items() if kind == "half"
        )

    def test_overwrites_keep_one_entry(self):
        labeling = Labeling(_path3())
        labeling.set_node(1, "a")
        labeling.set_node(1, "b")
        assert list(labeling.items()) == [("node", 1, "b")]

    def test_fills_list_every_element(self):
        graph = _star3()
        labeling = Labeling(graph).fill_halves("h")
        assert [key for _, key, _ in labeling.items()] == [
            HalfEdge(0, 0),
            HalfEdge(0, 1),
            HalfEdge(1, 0),
            HalfEdge(2, 0),
        ]


class TestCopyAndEquality:
    def test_copy_is_independent(self):
        graph = _path3()
        original = Labeling(graph)
        original.set_node(0, "a")
        original.set_half(HalfEdge(1, 0), "h")
        clone = original.copy()
        assert clone == original and clone is not original
        clone.set_node(0, "b")
        clone.set_edge(1, "e")
        clone.set_half(HalfEdge(1, 0), "g")
        assert original.node(0) == "a"
        assert original.edge(1) is EMPTY
        assert original.half_at(1, 0) == "h"
        assert list(original.items()) == [
            ("node", 0, "a"),
            ("half", HalfEdge(1, 0), "h"),
        ]
        original.set_node(2, "late")
        assert clone.node(2) is EMPTY

    def test_pickle_and_deepcopy_round_trip(self):
        graph = _path3()
        labeling = Labeling(graph)
        labeling.set_node(1, "n")
        labeling.set_half(HalfEdge(1, 1), ("h", 1))
        for clone in (pickle.loads(pickle.dumps(labeling)), copy.deepcopy(labeling)):
            assert list(clone.items()) == list(labeling.items())
            assert clone.node(0) is EMPTY and clone.half_at(1, 0) is EMPTY
            clone.set_half(HalfEdge(2, 0), "late")
            assert clone.half_at(2, 0) == "late"
            assert labeling.half_at(2, 0) is EMPTY

    def test_padded_inputs_survive_pickle_and_deepcopy(self):
        # A padded instance's inputs hold PaddedInput labels on nodes,
        # edges and half-edges.
        instance = registry.family("padded-sinkless").builder(2, 0)
        labeling = instance.inputs
        assert isinstance(labeling.node(0), PaddedInput)
        for clone in (pickle.loads(pickle.dumps(labeling)), copy.deepcopy(labeling)):
            for table in ("_nodes", "_edges", "_slots"):
                assert getattr(clone, table) == getattr(labeling, table), table
            for flags in ("_node_set", "_edge_set", "_slot_set"):
                assert getattr(clone, flags) == getattr(labeling, flags), flags
            assert all(
                type(label) is type(original)
                for label, original in zip(clone._slots, labeling._slots)
            )
            assert list(clone.items()) == list(labeling.items())

    def test_sentinels_unpickle_as_themselves(self):
        assert pickle.loads(pickle.dumps(EMPTY)) is EMPTY
        assert pickle.loads(pickle.dumps(BLANK)) is BLANK

    def test_unset_equals_explicit_empty(self):
        graph = _path3()
        explicit = Labeling(graph).fill_nodes(EMPTY)
        assert explicit == Labeling(graph)

    def test_equality_is_structural(self):
        graph = _path3()
        a = Labeling(graph)
        b = Labeling(graph)
        a.set_half(HalfEdge(1, 1), "x")
        assert a != b
        b.set_half((1, 1), "x")
        assert a == b
        assert a != "not a labeling"

    def test_equality_across_graphs_compares_edge_major_halves(self):
        # Same node and edge counts, different degree sequences: the
        # half-edge labels are compared edge by edge, a side then b side.
        path, star = _path3(), _star3()
        on_path, on_star = Labeling(path), Labeling(star)
        for i, side in enumerate(path.half_edges()):
            on_path.set_half(side, i)
        for i, side in enumerate(star.half_edges()):
            on_star.set_half(side, i)
        assert on_path == on_star
        # the same labels in (node, port) order are *not* equal
        by_port = Labeling(star)
        for i, side in enumerate(sorted(star.half_edges())):
            by_port.set_half(side, i)
        assert on_path != by_port

    def test_equality_needs_equal_counts(self):
        small = PortGraph.from_edge_list(3, [(0, 1)])
        large = PortGraph.from_edge_list(4, [(0, 1)])
        assert Labeling(small) != Labeling(large)
        fewer = PortGraph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert Labeling(_path3()) != Labeling(fewer)


class TestSlotAccess:
    """The bulk and slot-indexed accessors the hot paths use."""

    def test_slot_lists_follow_the_csr_layout(self):
        graph = _star3()
        off = graph.csr()[0]
        labeling = Labeling(graph)
        labeling.set_half(HalfEdge(0, 1), "h01")
        labeling.set_slot(off[2], "h20")
        assert labeling.slot_labels() == [EMPTY, "h01", EMPTY, "h20"]
        assert labeling.half_at(2, 0) == "h20"
        assert [key for _, key, _ in labeling.items()] == [HalfEdge(0, 1), HalfEdge(2, 0)]
        for slot in (-1, 4):
            with pytest.raises(KeyError):
                labeling.set_slot(slot, "x")

    def test_whole_list_writes_set_every_element(self):
        graph = _path3()
        labeling = Labeling(graph)
        labels = ["a", "b", "c"]
        labeling.set_node_labels(labels).set_edge_labels([0, 1])
        labels[0] = "mutated"  # the labeling keeps its own copy
        assert labeling.node_labels() == ["a", "b", "c"]
        assert [kind for kind, _, _ in labeling.items()] == ["node"] * 3 + ["edge"] * 2
        with pytest.raises(ValueError):
            labeling.set_slot_labels(["too", "few"])

    def test_extension_by_isolated_nodes(self):
        graph = _path3()
        labeling = Labeling(graph).fill_halves("h")
        labeling.set_node(2, "n")
        wider = graph.with_isolated_nodes(2)
        extended = labeling.extended_to(wider)
        assert extended.graph is wider and wider.num_nodes == 5
        assert list(extended.items()) == list(labeling.items())
        assert extended.node(4) is EMPTY and extended.half_at(4, 0) is EMPTY
        extended.set_node(4, "filler")
        assert labeling.node(4) is EMPTY
        with pytest.raises(ValueError):
            extended.extended_to(graph)


# -- differential: random operation sequences against the dict oracle --------


def _random_key(rng: random.Random, graph: PortGraph, kind: str):
    """A key inside the graph most of the time, just outside it otherwise."""
    if kind == "node":
        return rng.randint(-2, graph.num_nodes + 1)
    if kind == "edge":
        return rng.randint(-2, graph.num_edges + 1)
    v = rng.randint(-1, graph.num_nodes)
    top = graph.degree(v) if 0 <= v < graph.num_nodes else 1
    return HalfEdge(v, rng.randint(-1, top + 1))


def _reads(labeling, graph: PortGraph) -> tuple:
    nodes = tuple(labeling.node(v) for v in range(-2, graph.num_nodes + 2))
    edges = tuple(labeling.edge(e) for e in range(-2, graph.num_edges + 2))
    halves = tuple(
        labeling.half_at(v, p)
        for v in range(-1, graph.num_nodes + 1)
        for p in range(-1, (graph.degree(v) if 0 <= v < graph.num_nodes else 0) + 2)
    )
    return nodes, edges, halves


@given(multigraphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_operations_match_the_dict_reference(graph: PortGraph, seed: int):
    rng = random.Random(seed)
    mine, ref = _both(graph)
    labels = [EMPTY, "a", "b", 0, 1, (0, 1), None]
    for _ in range(40):
        kind = rng.choice(("node", "edge", "half"))
        key = _random_key(rng, graph, kind)
        label = rng.choice(labels)
        outcomes = []
        for target in (mine, ref):
            setter = getattr(target, f"set_{kind}")
            try:
                setter(key, label)
                outcomes.append("ok")
            except KeyError:
                outcomes.append("KeyError")
        assert outcomes[0] == outcomes[1], (kind, key)
    assert _reads(mine, graph) == _reads(ref, graph)
    assert list(mine.items()) == list(ref.items())
    assert mine.copy() == mine


# -- differential: every padded family against an object-layer reference -----


def _reference_padded_inputs(base, gadgets, base_inputs, graph) -> _DictLabeling:
    """Definition 3's Pi' inputs on ``graph`` (``pad_graph``'s output
    graph, or that graph plus filler nodes), written through the object
    layer into the dict store."""
    ref = _DictLabeling(graph)
    source = base_inputs if base_inputs is not None else _DictLabeling(base)
    offsets = list(accumulate((gadget.num_nodes for gadget in gadgets), initial=0))
    for v, gadget in enumerate(gadgets):
        for w in gadget.graph.nodes():
            x = offsets[v] + w
            ref.set_node(x, PaddedInput(source.node(v), gadget.inputs.node(w)))
            for port in range(gadget.graph.degree(w)):
                label = PaddedInput(EMPTY, gadget.inputs.half_at(w, port))
                ref.set_half(HalfEdge(x, port), label)
    gadget_edges = sum(gadget.graph.num_edges for gadget in gadgets)
    for eid in range(gadget_edges):
        ref.set_edge(eid, PaddedInput(EMPTY, GADEDGE))
    for base_edge in base.edges():
        eid = gadget_edges + base_edge.eid
        ref.set_edge(eid, PaddedInput(source.edge(base_edge.eid), PORTEDGE))
        edge = graph.edge(eid)
        for v, port in (base_edge.a, base_edge.b):
            port_node = offsets[v] + gadgets[v].ports[port]
            side = edge.a if edge.a.node == port_node else edge.b
            ref.set_half(side, PaddedInput(source.half(HalfEdge(v, port)), EMPTY))
    return ref


def _assert_same_store(mine: Labeling, ref: _DictLabeling) -> None:
    graph = mine.graph
    assert list(mine.items()) == list(ref.items())
    assert _reads(mine, graph) == _reads(ref, graph)
    assert [mine.half(side) for side in graph.half_edges()] == [
        ref.half(side) for side in graph.half_edges()
    ]


def _padded_sinkless_parts(height: int, seed: int):
    """The registered ``padded-sinkless`` family's ingredients."""
    base = random_regular(16, 3, random.Random(2 + seed))
    return base, [build_gadget(3, height)] * base.num_nodes


@pytest.mark.parametrize("height, seed", [(2, 0), (3, 1)])
def test_padded_sinkless_family_matches_the_reference(height, seed):
    base, gadgets = _padded_sinkless_parts(height, seed)
    padded = pad_graph(base, gadgets)
    _assert_same_store(
        padded.inputs, _reference_padded_inputs(base, gadgets, None, padded.graph)
    )
    instance = registry.family("padded-sinkless").builder(height, seed)
    assert instance.inputs == padded.inputs


@pytest.mark.parametrize("level_index, n", [(2, 1024), (3, 16384)])
def test_lemma5_hard_instances_match_the_reference(level_index, n):
    chain = build_family(level_index)
    sizes = [n]
    for _ in range(level_index - 1):
        sizes.append(max(paper_f(sizes[-1]), 6))
    instance = cubic_instance(sizes[-1], 0)
    for depth, target in enumerate(reversed(sizes[:-1]), start=1):
        base, base_inputs = instance.graph, instance.inputs
        hard = hard_instance(base, chain[depth].family, target, base_inputs)
        gadgets = hard.padded.gadget_of
        _assert_same_store(
            hard.padded.inputs,
            _reference_padded_inputs(base, gadgets, base_inputs, hard.padded.graph),
        )
        # the filler nodes add no slots and no labels
        assert [t.tolist() for t in hard.graph.csr()][1:] == [
            t.tolist() for t in hard.padded.graph.csr()
        ][1:]
        _assert_same_store(
            hard.inputs,
            _reference_padded_inputs(base, gadgets, base_inputs, hard.graph),
        )
        ids = _lifted_ids(instance.ids, hard)
        instance = Instance(hard.graph, ids, hard.inputs, target)
    built = padded_hard_instance(chain[level_index - 1], n, 0)
    assert built.inputs == instance.inputs


@pytest.mark.parametrize("solver", ["padded-sinkless-det", "padded-sinkless-rand"])
def test_padded_solver_outputs_read_like_the_dict_store(solver):
    instance = registry.family("padded-sinkless").builder(2, 0)
    outputs = registry.solver(solver).factory().solve(instance).outputs
    ref = _DictLabeling(instance.graph)
    for kind, key, label in outputs.items():
        getattr(ref, f"set_{kind}")(key, label)
    _assert_same_store(outputs, ref)


# -- no ported trial builds the Edge/HalfEdge object layer --------------------


_TRIALS = [
    ("sinkless-orientation", "sinkless-det", "cubic", 64),
    ("sinkless-orientation", "sinkless-rand", "cubic", 64),
    ("mis", "mis-color-classes", "cubic", 64),
    ("mis", "mis-luby", "cubic", 64),
    ("maximal-matching", "matching-line-coloring", "cubic", 64),
    ("maximal-matching", "matching-luby", "cubic", 64),
    ("padded-sinkless", "padded-sinkless-det", "padded-sinkless", 2),
    ("padded-sinkless", "padded-sinkless-rand", "padded-sinkless", 2),
]


def _object_layer_unset(graph: PortGraph) -> bool:
    try:
        PortGraph.__dict__["_edges"].__get__(graph, PortGraph)
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize("backend", ["object", "vector"])
@pytest.mark.parametrize("problem, solver, family, n", _TRIALS)
def test_trials_never_build_the_object_layer(problem, solver, family, n, backend):
    if backend == "vector" and not kernels.HAVE_NUMPY:
        pytest.skip("numpy is not installed")
    info = registry.problems()[problem]
    instance = registry.family(family).builder(n, 0)
    with kernels.active(backend):
        result = dispatch_solver(registry.solver(solver).factory(), instance)
        verifier_for(info)(instance, result)
    assert _object_layer_unset(instance.graph)
