"""Differential test of the rs3 reader against its per-node oracles.

``extract_forest`` files every child under its parent once, and
``component_to_record`` tokenizes a whole component in one call.  Their
oracles in ``helpers`` classify every child again when its parent is built
and tokenize one EDU at a time.  Seeded node tables are built here
directly (not through the rs3 writer, which only writes canonical shapes):
multinuc cascades, satellites on both sides and stacked, several components
and group-only ones, relations with both an ``rst`` and a ``multinuc``
entry, and segment texts with Cyrillic words and irregular whitespace.
Malformed tables must raise the same exception with the same message from
both versions.
"""

import random
import re

import pytest

from rstkit.core import RstError
from rstkit.treebank import (
    Rs3Component,
    Rs3Document,
    Rs3Group,
    Rs3Relation,
    Rs3Segment,
    component_to_record,
    extract_forest,
)

from helpers import reference_component_to_record, reference_extract_forest

RELATIONS = (
    Rs3Relation("elaboration", "rst"),
    Rs3Relation("background", "rst"),
    Rs3Relation("причина", "rst"),
    Rs3Relation("list", "rst"),
    Rs3Relation("list", "multinuc"),
    Rs3Relation("joint", "multinuc"),
    Rs3Relation("sequence", "multinuc"),
)
# "joint" as a satellite and "list" either way exercise every attachment rule
RST = ("elaboration", "background", "причина", "list", "joint")
MULTINUC = ("joint", "sequence", "list")
SATELLITE = ("elaboration", "background", "причина")  # no multinuc entry
WORDS = ("the", "Привет", "мир", ",", "«связь»", "don't", "(", "e.g.", "—", "5%",
         "ёж.", "...")
SPACES = (" ", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2003", " \u3000 ")
SEEDS = range(150)


class _Table:
    """A mutable rs3 node table: ``nodes`` maps an id to ``[parent,
    relname, text]`` for a segment and ``[parent, relname, kind]`` for a
    group; segments are listed in text order, groups in any order."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nodes: dict[str, list] = {}
        self.segment_ids: list[str] = []
        self.group_ids: list[str] = []
        self._ids = iter(rng.sample(range(10_000), 5_000))

    def _new_id(self) -> str:
        return f"{self.rng.choice(('', 'n', 'узел'))}{next(self._ids)}"

    def segment(self) -> str:
        rng = self.rng
        text = "".join(
            rng.choice(WORDS) + rng.choice(SPACES) for _ in range(rng.randint(1, 5))
        )
        text = rng.choice(("", "", " ", "\t ")) + text.rstrip(" ") + rng.choice(("", " "))
        nid = self._new_id()
        self.nodes[nid] = [None, None, text]
        self.segment_ids.append(nid)
        return nid

    def group(self, kind: str) -> str:
        nid = self._new_id()
        self.nodes[nid] = [None, None, kind]
        self.group_ids.append(nid)
        return nid

    def attach(self, child: str, parent: str, relname: str | None) -> None:
        self.nodes[child][:2] = [parent, relname]

    def subtree(self, lo: int, hi: int) -> str:
        """The head node of a tree over segments ``lo..hi-1``."""
        rng = self.rng
        if hi - lo == 1:
            return self.segment_ids[lo]
        if rng.random() < 0.35:
            group = self.group("multinuc")
            relname = rng.choice(MULTINUC)
            for part in _partition(rng, lo, hi, least=2, most=4):
                mixed = rng.choice(MULTINUC)  # one group may mix its relations
                head = self.subtree(*part)
                self.attach(head, group, relname if rng.random() < 0.8 else mixed)
            return group
        while True:  # a nucleus range with at least one satellite beside it
            a = rng.randrange(lo, hi)
            b = rng.randint(a + 1, hi)
            if (a, b) != (lo, hi):
                break
        nucleus = self.subtree(a, b)
        # under a multinuc group, a relation with a multinuc entry is a nucleus
        relations = SATELLITE if self.is_group(nucleus, "multinuc") else RST
        for part in _partition(rng, lo, a) + _partition(rng, b, hi):
            self.attach(self.subtree(*part), nucleus, rng.choice(relations))
        if rng.random() < 0.5:
            return nucleus
        group = self.group("span")
        self.attach(nucleus, group, rng.choice(("span", None)))
        return group

    def document(self) -> Rs3Document:
        order = self.group_ids[:]
        self.rng.shuffle(order)
        segments = tuple(Rs3Segment(nid, *self.nodes[nid]) for nid in self.segment_ids)
        groups = tuple(
            Rs3Group(nid, self.nodes[nid][2], *self.nodes[nid][:2]) for nid in order
        )
        return Rs3Document(RELATIONS, segments, groups)

    def children(self, nid: str) -> list[str]:
        return [cid for cid, node in self.nodes.items() if node[0] == nid]

    def descendants(self, nid: str) -> set[str]:
        found, stack = {nid}, [nid]
        while stack:
            for cid in self.children(stack.pop()):
                found.add(cid)
                stack.append(cid)
        return found

    def unrelated(self, nid: str) -> list[str]:
        """The nodes that are neither below nor above ``nid``."""
        related = self.descendants(nid)
        while self.nodes[nid][0] is not None:
            nid = self.nodes[nid][0]
            related.add(nid)
        return [other for other in self.nodes if other not in related]

    def groups(self, kind: str) -> list[str]:
        """The groups of ``kind`` that have children."""
        return [g for g in self.group_ids if self.is_group(g, kind) and self.children(g)]

    def is_group(self, nid: str, kind: str) -> bool:
        return nid in self.group_ids and self.nodes[nid][2] == kind

    def nuclei(self, nid: str) -> list[str]:
        return [cid for cid in self.children(nid)
                if self.nodes[cid][1] in MULTINUC and self.is_group(nid, "multinuc")
                or self.nodes[cid][1] in ("span", None)]


def _partition(rng: random.Random, lo: int, hi: int, least: int = 1,
               most: int = 3) -> list[tuple[int, int]]:
    """``lo..hi`` cut into ``least`` to ``most`` ranges, none if it is empty."""
    if lo == hi:
        return []
    cuts = sorted(rng.sample(range(lo + 1, hi), rng.randint(least, min(most, hi - lo)) - 1))
    return list(zip([lo, *cuts], [*cuts, hi]))


def random_table(seed: int) -> _Table:
    rng = random.Random(seed)
    table = _Table(rng)
    sizes = [rng.randint(1, 12) for _ in range(rng.choice((1, 1, 2, 3, 4)))]
    for _ in range(sum(sizes)):
        table.segment()
    lo = 0
    for size in sizes:
        table.subtree(lo, lo + size)
        lo += size
    if rng.random() < 0.3:  # a component without segments, which is skipped
        empty = table.group("span")
        if rng.random() < 0.5:
            table.attach(table.group("multinuc"), empty, "span")
    return table


def _outcome(forest_fn, record_fn, doc: Rs3Document):
    """The components and records read from ``doc``, or the error raised."""
    try:
        forest = forest_fn(doc)
        records = [record_fn(c, f"doc_{i}", "news", "ru") for i, c in enumerate(forest)]
    except RstError as exc:
        return type(exc), str(exc)
    return forest, records


def assert_same_outcome(doc: Rs3Document):
    got = _outcome(extract_forest, component_to_record, doc)
    assert got == _outcome(reference_extract_forest, reference_component_to_record, doc)
    return got


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_tables_read_as_the_oracle_reads_them(seed):
    forest, records = assert_same_outcome(random_table(seed).document())
    assert len(forest) == len(records) >= 1


def test_generated_tables_cover_the_shapes_they_are_meant_to():
    multinuc = both_sides = stacked = several = 0
    for seed in SEEDS:
        forest = extract_forest(random_table(seed).document())
        several += len(forest) > 1
        for component in forest:
            for node in component.tree.internal_nodes():
                nuc = node.label.nuclearity.value
                if nuc == "NN":  # a cascade of three or more nuclei
                    multinuc += node.right.label == node.label
                    continue
                nucleus = node.left if nuc == "NS" else node.right
                if nucleus.label is not None:
                    inner = nucleus.label.nuclearity.value
                    stacked += inner == nuc
                    both_sides += inner != nuc and inner != "NN"
    assert min(multinuc, both_sides, stacked, several) >= 10, (
        multinuc, both_sides, stacked, several)


# Each mutation breaks a valid table in one way, or returns None when the
# table has no node it can break.


def _cycle(table: _Table, rng: random.Random):
    nid = rng.choice(sorted(table.nodes))
    table.nodes[nid][0] = rng.choice(sorted(table.descendants(nid)))
    return "parent cycle involving node"


def _span_group_children(table: _Table, rng: random.Random):
    groups = table.groups("span")
    if not groups:
        return None
    group = rng.choice(groups)
    (nucleus,) = table.nuclei(group)
    if rng.random() < 0.5:
        table.nodes[nucleus][1] = rng.choice(RST)  # no span child left
    else:  # a second span child, taken from outside the group
        outside = table.unrelated(group)
        if not outside:
            return None
        table.attach(rng.choice(outside), group, "span")
    return "span children"


def _lone_nucleus(table: _Table, rng: random.Random):
    groups = table.groups("multinuc")
    if not groups:
        return None
    group = rng.choice(groups)
    nuclei = table.nuclei(group)
    for cid in nuclei:
        if cid != nuclei[-1]:
            table.nodes[cid][1] = rng.choice(SATELLITE)
    return "nuclei"


def _far_satellite(table: _Table, rng: random.Random):
    segments = table.segment_ids
    if len(segments) < 3:
        return None
    i = rng.randrange(len(segments))
    far = [j for j in range(len(segments)) if abs(i - j) > 1
           and segments[i] not in table.descendants(segments[j])]
    if not far:
        return None
    table.attach(segments[rng.choice(far)], segments[i], rng.choice(RST))
    return "not adjacent"


def _segment_with_span_child(table: _Table, rng: random.Random):
    segment = rng.choice(table.segment_ids)
    outside = table.unrelated(segment)
    if not outside:
        return None
    table.attach(rng.choice(outside), segment, rng.choice(("span", None)))
    return "span/multinuc children"


def _span_child_of_multinuc(table: _Table, rng: random.Random):
    groups = table.groups("multinuc")
    if not groups:
        return None
    # the child is neither a nucleus nor a satellite
    nucleus = rng.choice(table.nuclei(rng.choice(groups)))
    table.nodes[nucleus][1] = rng.choice(("span", None))
    return f": child {nucleus} has "


MUTATIONS = (_cycle, _span_group_children, _lone_nucleus, _far_satellite,
             _segment_with_span_child, _span_child_of_multinuc)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__.strip("_"))
def test_malformed_tables_raise_as_the_oracle_raises(mutation):
    hits = 0
    for seed in SEEDS:
        table = random_table(seed)
        expected = mutation(table, random.Random(seed))
        if expected is None:
            continue
        got = assert_same_outcome(table.document())
        if isinstance(got[0], type) and expected in got[1]:
            hits += 1
    assert hits >= 20, hits


@pytest.mark.parametrize("text", ["", " ", "\t   \n"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_an_edu_of_whitespace_raises_as_the_oracle_raises(text, position):
    table = random_table(0)
    (component,) = extract_forest(table.document())
    texts = list(component.edu_texts)
    texts[min(position, len(texts) - 1)] = text
    broken = Rs3Component(component.tree, tuple(texts))
    with pytest.raises(RstError) as got:
        component_to_record(broken, "doc")
    with pytest.raises(RstError) as expected:
        reference_component_to_record(broken, "doc")
    assert str(got.value) == str(expected.value) == "doc: EDU with no tokens"


def test_record_offsets_follow_the_joined_text():
    # Irregular whitespace inside and around EDU texts moves the offsets,
    # never the cut between EDUs.
    for seed in range(20):
        table = random_table(seed)
        for component in extract_forest(table.document()):
            record = component_to_record(component, "doc")
            joined = " ".join(component.edu_texts)
            for text, start in zip(record.tokens, record.char_starts):
                assert joined[start:start + len(text)] == text
            for edu, edu_text in zip(record.edus, component.edu_texts):
                pieces = record.tokens[edu.first_token:edu.last_token + 1]
                assert "".join(pieces) == re.sub(r"\s", "", edu_text)
