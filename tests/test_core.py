import pickle
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstkit import core
from rstkit.core import (
    Constituent,
    Corpus,
    DocumentRecord,
    EduSpan,
    InputLines,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    SchemaViolation,
    enumerate_constituents,
)
from rstkit.treebank import tree_to_string

from helpers import (
    TEST_LABELS,
    DuplicateLeaf,
    build_tree,
    describe,
    leaves,
    make_document,
    random_edus,
    random_tree,
    unit_edus,
)


class TestRelationLabel:
    def test_case_folding_and_merge(self):
        label = RelationLabel("Elaboration", Nuclearity.NS)
        assert label.relation == "elaboration"
        assert label.merged == "elaboration_NS"

    @pytest.mark.parametrize("relation", ["#x", " #X", "#"])
    def test_relation_name_must_not_start_with_a_hash(self, relation):
        # '#' marks a leaf in tree strings; the check runs after strip and lowercase
        with pytest.raises(RstError, match="relation name '#x?' starts with '#'"):
            RelationLabel(relation, "NN")
        assert RelationLabel("x#", "NN").merged == "x#_NN"

    def test_merged_round_trip(self):
        assert RelationLabel.from_merged("joint_NN") == RelationLabel(
            "joint", Nuclearity.NN
        )

    MERGED_ERRORS = {
        "elaboration": "not a relation_NUC label (length 11): 'elaboration'",
        "x_NX": "not a relation_NUC label (length 4): 'x_NX'",
        "_NS": "relation name must be non-empty",
        "a b_NS": "relation name 'a b' contains a reserved character",
        "": "not a relation_NUC label (length 0): ''",
        "(x)_NS": "relation name '(x)' contains a reserved character",
        "#x_NN": "relation name '#x' starts with '#'",
    }

    @pytest.mark.parametrize("bad", ["elaboration", "x_NX", "_NS", "a b_NS", ""])
    def test_malformed_merged(self, bad):
        with pytest.raises(RstError, match=re.escape(self.MERGED_ERRORS[bad])):
            RelationLabel.from_merged(bad)

    @pytest.mark.parametrize("merged", ["joint_NN", "Elaboration_NS", "cause_SN"])
    def test_from_merged_shares_one_instance_per_string(self, merged):
        label = RelationLabel.from_merged(merged)
        assert RelationLabel.from_merged(merged) is label
        assert label == RelationLabel.from_merged(label.merged)

    @pytest.mark.parametrize("bad", ["elaboration", "x_NX", "a b_NS", "(x)_NS", "#x_NN"])
    def test_malformed_merged_raises_on_every_call(self, bad):
        for _ in range(3):
            with pytest.raises(RstError, match=re.escape(self.MERGED_ERRORS[bad])):
                RelationLabel.from_merged(bad)

    def test_interned_labels_are_bounded(self, monkeypatch):
        monkeypatch.setattr(core, "_INTERNED", {})
        monkeypatch.setattr(core, "_INTERN_LIMIT", 3)
        labels = [RelationLabel.from_merged(f"rel{i}_NS") for i in range(5)]
        assert len(core._INTERNED) == 3
        assert RelationLabel.from_merged("rel4_NS") == labels[4]


class TestBuildTree:
    def test_single_leaf_span_is_the_edu_span(self):
        tree = build_tree(0)
        edus = (EduSpan(0, 4),)
        assert tree.is_leaf and tree.n_leaves == 1
        assert tree.token_span(edus) == (0, 4)

    def test_two_leaves_forced_structure(self):
        tree = build_tree((0, 1, "elaboration_NS"))
        edus = (EduSpan(0, 2), EduSpan(3, 5))
        assert tree.n_leaves == 2
        assert tree.token_span(edus) == (0, 5)

    def test_three_leaf_left_heavy_span_union(self):
        tree = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        edus = random_edus(random.Random(3), 3)
        # Independent oracle: enumerate the token indices under each leaf
        # and compare their union with the cached root span.
        covered = sorted(
            t
            for leaf in leaves(tree)
            for t in range(
                edus[leaf.first_edu].first_token, edus[leaf.first_edu].last_token + 1
            )
        )
        assert covered == list(range(covered[0], covered[-1] + 1))
        assert tree.token_span(edus) == (covered[0], covered[-1])

    def test_non_binary_description(self):
        with pytest.raises(RstError, match=r"expected \(left, right, label\), got 2 items"):
            build_tree((0, 1))
        with pytest.raises(RstError, match=r"expected \(left, right, label\), got 4 items"):
            build_tree((0, 1, 2, "joint_NN"))
        with pytest.raises(RstError, match="not a constituent description: 'leaf'"):
            build_tree("leaf")

    def test_duplicate_leaf(self):
        with pytest.raises(DuplicateLeaf):
            build_tree((0, 0, "joint_NN"))

    def test_non_contiguous_children(self):
        with pytest.raises(
            RstError, match="left child ends at EDU 1, right child starts at EDU 0"
        ):
            build_tree((1, 0, "joint_NN"))
        with pytest.raises(
            RstError, match="left child ends at EDU 0, right child starts at EDU 2"
        ):
            build_tree((0, 2, "joint_NN"))


JOINT = RelationLabel("joint", Nuclearity.NN)
LEAF0, LEAF1, LEAF2 = RstTree.leaf(0), RstTree.leaf(1), RstTree.leaf(2)


class TestRstTreeContract:
    """``RstTree`` is a frozen value type whose every construction runs the
    node checks."""

    TREE = RstTree.internal(RstTree.internal(LEAF0, LEAF1, JOINT), LEAF2, "elaboration_NS")

    @pytest.mark.parametrize("name", ["first_edu", "last_edu", "label", "left", "right"])
    def test_assignment_and_deletion_raise(self, name):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(self.TREE, name, getattr(self.TREE, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(self.TREE, name)
        assert not hasattr(self.TREE, "__dict__")

    def test_fields_and_replace(self):
        assert RstTree._fields == ("first_edu", "last_edu", "label", "left", "right")
        relabeled = self.TREE.replace(label=JOINT)
        assert relabeled.label is JOINT
        assert relabeled.left is self.TREE.left and relabeled.right is self.TREE.right
        assert relabeled == build_tree(((0, 1, "joint_NN"), 2, "joint_NN"))
        with pytest.raises(RstError, match=re.escape("cached span != union of children")):
            self.TREE.replace(last_edu=3)

    def test_keyword_construction_equals_positional(self):
        node = RstTree(first_edu=0, last_edu=1, label=JOINT, left=LEAF0, right=LEAF1)
        assert node == RstTree(0, 1, JOINT, LEAF0, LEAF1)
        assert (node.first_edu, node.last_edu, node.label) == (0, 1, JOINT)
        assert RstTree(last_edu=2, first_edu=2) == LEAF2

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 1, JOINT, LEAF0, None), "exactly two children"),
            ((0, 1, JOINT, None, LEAF1), "exactly two children"),
            ((0, 0, JOINT), "leaves carry no relation label"),
            ((0, 1, None, LEAF0, LEAF1), "must carry a label"),
            ((0, 2, JOINT, LEAF0, LEAF2),
             "left child ends at EDU 0, right child starts at EDU 2"),
            ((0, 2, JOINT, LEAF0, LEAF1), "cached span != union of children"),
            ((0, 1), "leaf span must be a single EDU index"),
            ((-1, -1), "leaf span must be a single EDU index"),
        ],
        ids=["no-right", "no-left", "labeled-leaf", "unlabeled-internal", "gap",
             "bad-cached-span", "wide-leaf", "negative-leaf"],
    )
    def test_constructor_errors(self, args, message):
        with pytest.raises(RstError, match=re.escape(message)):
            RstTree(*args)


def rebuilt_by_constructor(tree: RstTree) -> RstTree:
    """A copy of ``tree`` whose internal nodes are built by ``RstTree(...)``."""
    built: list[RstTree] = []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # both subtrees are built
            right, left = built.pop(), built.pop()
            built.append(RstTree(left.first_edu, right.last_edu, node[0], left, right))
        elif node.is_leaf:
            built.append(RstTree(node.first_edu, node.last_edu))
        else:
            stack += ((node.label,), node.right, node.left)
    (copy,) = built
    return copy


class TestInternalBuilder:
    """``RstTree.internal`` is the one builder of internal nodes: it skips
    ``__init__`` but keeps its checks, and its nodes are ``__init__``'s."""

    def test_equals_constructor_built_trees(self):
        rng = random.Random(24)
        for _ in range(300):
            tree = random_tree(rng, rng.randint(1, 40), first=rng.randint(0, 5))
            assert rebuilt_by_constructor(tree) == tree  # no node is shared

    def test_its_nodes_are_frozen_and_replace_works(self):
        tree = random_tree(random.Random(5), 12)
        for node in tree.internal_nodes():
            for name in ("first_edu", "last_edu", "label", "left", "right"):
                with pytest.raises(AttributeError, match="cannot assign"):
                    setattr(node, name, getattr(node, name))
            relabeled = node.replace(label=JOINT)
            assert relabeled.label is JOINT and relabeled.left is node.left
            assert relabeled.right is node.right and relabeled.n_leaves == node.n_leaves
            with pytest.raises(RstError, match=re.escape("cached span != union")):
                node.replace(last_edu=node.last_edu + 1)

    def test_constructor_stores_a_parsed_string_label(self):
        node = RstTree(0, 1, "joint_NN", LEAF0, LEAF1)
        assert node.label is RelationLabel.from_merged("joint_NN")
        assert tree_to_string(node) == "(joint_NN #0 #1)"
        assert node == RstTree.internal(LEAF0, LEAF1, "joint_NN")

    def test_replace_stores_a_parsed_string_label(self):
        node = RstTree.internal(LEAF0, LEAF1, JOINT).replace(label="elaboration_NS")
        assert node.label is RelationLabel.from_merged("elaboration_NS")
        assert tree_to_string(node) == "(elaboration_NS #0 #1)"
        assert node == RstTree.internal(LEAF0, LEAF1, "elaboration_NS")

    @pytest.mark.parametrize(
        "args, message",
        [
            ((LEAF0, LEAF2, JOINT), "left child ends at EDU 0, right child starts at EDU 2"),
            ((LEAF1, LEAF0, JOINT), "left child ends at EDU 1, right child starts at EDU 0"),
            ((None, LEAF1, JOINT), "internal nodes need exactly two children"),
            ((LEAF0, None, JOINT), "internal nodes need exactly two children"),
            ((LEAF0, LEAF1, None), "internal nodes must carry a label"),
            ((LEAF0, LEAF1, "joint"), "not a relation_NUC label (length 5): 'joint'"),
        ],
        ids=["gap", "reversed", "no-left", "no-right", "no-label", "bad-label"],
    )
    def test_errors(self, args, message):
        with pytest.raises(RstError, match=f"^{re.escape(message)}$"):
            RstTree.internal(*args)


class TestSharedLeaves:
    """``RstTree.leaf`` shares one node per EDU index below the interning
    cap; beyond it, and for ``RstTree(i, i)``, every call builds a node."""

    def test_below_the_cap_one_node_per_index(self):
        for i in range(core._INTERN_LIMIT):
            leaf = RstTree.leaf(i)
            assert leaf is RstTree.leaf(i)
            assert (leaf.first_edu, leaf.last_edu, leaf.is_leaf) == (i, i, True)
        assert len(core._LEAVES) == core._INTERN_LIMIT

    def test_at_and_beyond_the_cap_each_call_builds_a_node(self):
        for i in (core._INTERN_LIMIT, core._INTERN_LIMIT + 1, 10**6):
            leaf = RstTree.leaf(i)
            assert leaf is not RstTree.leaf(i) and leaf == RstTree.leaf(i)
            assert leaf.first_edu == leaf.last_edu == i
        assert len(core._LEAVES) <= core._INTERN_LIMIT

    @pytest.mark.parametrize("index", [0, 3, core._INTERN_LIMIT - 1, core._INTERN_LIMIT])
    def test_constructor_builds_a_distinct_equal_node(self, index):
        node = RstTree(index, index)
        assert node is not RstTree.leaf(index) and node == RstTree.leaf(index)

    @pytest.mark.parametrize("index", [-1, -5])
    def test_negative_index_raises(self, index):
        with pytest.raises(RstError, match="leaf span must be a single EDU index"):
            RstTree.leaf(index)

    def test_a_bool_is_built_as_before(self):
        assert RstTree.leaf(True).first_edu is True  # RstTree(True, True), not leaf 1

    def test_concurrent_growth_never_publishes_a_wrong_leaf(self, monkeypatch):
        limit = core._INTERN_LIMIT
        indices = list(range(limit + 64))
        wrong: list[tuple[int, int]] = []

        def work(seed: int) -> None:
            order = indices[:]
            random.Random(seed).shuffle(order)
            for i in order:
                leaf = RstTree.leaf(i)
                if leaf.first_edu != i or leaf.last_edu != i or not leaf.is_leaf:
                    wrong.append((i, leaf.first_edu))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(4):
                monkeypatch.setattr(core, "_LEAVES", ())  # every round grows it anew
                threads = [threading.Thread(target=work, args=(8 * round_ + k,))
                           for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert len(core._LEAVES) <= limit
        assert all(leaf.first_edu == i for i, leaf in enumerate(core._LEAVES))


class TestEduSpanContract:
    """``EduSpan`` is a frozen value type: checks, fields, ``replace``,
    equality and hashing."""

    @pytest.mark.parametrize("first, last", [(-1, 0), (-1, -1), (3, 2), (5, 0)])
    def test_invalid_spans_raise(self, first, last):
        with pytest.raises(RstError, match=rf"^invalid EDU span \[{first}, {last}\]$"):
            EduSpan(first, last)
        with pytest.raises(RstError, match=r"invalid EDU span"):
            EduSpan(last_token=last, first_token=first)

    def test_fields_replace_and_keywords(self):
        span = EduSpan(2, 5)
        assert EduSpan._fields == ("first_token", "last_token")
        assert span.replace(last_token=9) == EduSpan(2, 9)
        assert EduSpan(last_token=5, first_token=2) == span
        assert (span.first_token, span.last_token, span.n_tokens) == (2, 5, 4)
        assert repr(span) == "EduSpan(first_token=2, last_token=5)"
        with pytest.raises(RstError, match=r"invalid EDU span \[6, 5\]"):
            span.replace(first_token=6)

    def test_equality_and_hash(self):
        assert EduSpan(0, 3) == EduSpan(0, 3) and EduSpan(0, 3) != EduSpan(0, 4)
        assert hash(EduSpan(0, 3)) == hash(EduSpan(0, 3))
        assert len({EduSpan(0, 3), EduSpan(0, 3), EduSpan(1, 3)}) == 2
        assert EduSpan(0, 3) != (0, 3)

    @pytest.mark.parametrize("name", ["first_token", "last_token"])
    def test_assignment_and_deletion_raise(self, name):
        span = EduSpan(1, 4)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(span, name, 2)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(span, name)
        assert not hasattr(span, "__dict__")
        assert (span.first_token, span.last_token) == (1, 4)


def _value_makers():
    """A maker of one instance of each hashable value type of the package."""
    from rstkit import crf, decoder, metrics, preprocess

    counts = metrics.MetricCounts(1, 2, 3)
    rule = preprocess.RemapRule("cause", Nuclearity.NS, "cause-effect", None)
    tree = build_tree((0, 1, "joint_NN"))
    return {
        "RelationLabel": lambda: RelationLabel("Joint", "NN"),
        "EduSpan": lambda: EduSpan(0, 3),
        "Constituent": lambda: Constituent(0, 2, "N", "span"),
        "DocumentRecord": lambda: make_document("d", tree, sents=[0]).replace(tree=None),
        "Corpus": lambda: Corpus([make_document("d", tree).replace(tree=None)]),
        "DecodeConfig": lambda: decoder.DecodeConfig(["joint_NN", "elaboration_NS"], "beam", 4),
        "MetricCounts": lambda: metrics.MetricCounts(1, 2, 3),
        "ParsevalScores": lambda: metrics.ParsevalScores(counts, counts, counts, counts),
        "CorpusStats": lambda: metrics.CorpusStats(1, 2, 3, 4, 9, 5.5, 6, 7.0, 8, 9, 10.0),
        "RemapRule": lambda: preprocess.RemapRule("cause", Nuclearity.NS, "cause-effect", None),
        "RemapTable": lambda: preprocess.RemapTable((rule,)),
        "PreprocessReport": lambda: preprocess.PreprocessReport(
            1, 2, 3, 1, (("a", 1),), (("b", 2),), ()),
        "TrainConfig": lambda: crf.TrainConfig(3, 0.1, 0.0, 5),
        "HashedWindowFeatures": lambda: crf.HashedWindowFeatures(16),
    }


class TestValueTypes:
    """The value types keep what they had as frozen dataclasses: equality
    and hash over their fields, the same repr, ``replace`` through
    ``__init__``, and fields that cannot be assigned or deleted."""

    @pytest.mark.parametrize("name", sorted(_value_makers()))
    def test_equality_hash_repr_replace_and_pickle(self, name):
        make = _value_makers()[name]
        value, twin = make(), make()
        names = type(value)._fields
        fields = tuple(getattr(value, field) for field in names)
        assert type(value).__name__ == name and value is not twin
        assert value == twin and not value != twin
        assert hash(value) == hash(twin) == hash(fields)
        assert value != fields and value.__eq__(fields) is NotImplemented
        shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in names)
        assert repr(value) == f"{name}({shown})"
        assert value.replace() == value and value.replace() is not value
        assert pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
            setattr(value, names[0], fields[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{names[-1]}'"):
            delattr(value, names[-1])
        with pytest.raises(AttributeError):
            value.extra = 1  # no __dict__
        with pytest.raises(TypeError):
            value.replace(no_such_field=1)

    def test_replace_runs_the_checks(self):
        from rstkit import decoder, metrics

        with pytest.raises(RstError, match="matched count exceeds"):
            metrics.MetricCounts(1, 2, 3).replace(gold=0)
        with pytest.raises(RstError, match="greedy decoding has beam width 1, got 4"):
            decoder.DecodeConfig(["joint_NN"], "beam", 4).replace(strategy="greedy")
        with pytest.raises(RstError, match="relation name must be non-empty"):
            RelationLabel("joint", "NN").replace(relation=" ")
        assert RelationLabel("joint", "NN").replace(nuclearity="NS").merged == "joint_NS"

    def test_model_and_features_keep_their_own_contracts(self):
        import numpy as np

        from rstkit import crf

        model = crf.CrfModel.create(3)
        model.start = np.ones(2)  # a single writer may mutate a model
        assert model.start.tolist() == [1.0, 1.0]
        with pytest.raises(TypeError, match="unhashable type: 'CrfModel'"):
            hash(model)
        # arrays have no single truth value, so a model compares by identity
        assert model == model and model != crf.CrfModel.create(3)
        assert model != model.clone() and not model == model.clone()
        with pytest.raises(TypeError, match="unhashable type: 'RstTree'"):
            hash(RstTree.leaf(0))
        rows = np.zeros((2, 1), dtype=np.int32), np.ones((2, 1))
        features = crf.SparseFeatures(*rows, 4)
        assert features == features and features != crf.SparseFeatures(*rows, 4)
        assert hash(features) == object.__hash__(features)


class TestEnumerateConstituents:
    def test_single_leaf_has_no_constituents(self):
        tree = build_tree(0)
        assert enumerate_constituents(tree, unit_edus(tree)) == []

    def test_two_leaf_mononuclear(self):
        tree = build_tree((0, 1, "elaboration_NS"))
        edus = (EduSpan(0, 2), EduSpan(3, 5))
        entries = enumerate_constituents(tree, edus)
        assert [(c.span, c.role, c.relation) for c in entries] == [
            ((0, 2), "N", "span"),
            ((3, 5), "S", "elaboration"),
        ]

    def test_three_leaf_count(self):
        tree = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        assert len(enumerate_constituents(tree, unit_edus(tree))) == 4  # 2n - 2 for n = 3

    def test_sn_roles(self):
        tree = build_tree((0, 1, "attribution_SN"))
        entries = enumerate_constituents(tree, unit_edus(tree))
        assert [(c.role, c.relation) for c in entries] == [
            ("S", "attribution"),
            ("N", "span"),
        ]


@st.composite
def tree_descriptions(draw, max_leaves: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_leaves))
    labels = st.sampled_from(TEST_LABELS)

    def split(start: int, end: int):
        if end - start == 1:
            return start
        point = draw(st.integers(min_value=start + 1, max_value=end - 1))
        return (split(start, point), split(point, end), draw(labels))

    return split(0, n)


class TestTreeProperties:
    @given(tree_descriptions())
    @settings(max_examples=150, deadline=None)
    def test_node_counts_and_round_trip(self, description):
        tree = build_tree(description)
        n = tree.n_leaves
        assert sum(1 for _ in tree.internal_nodes()) == n - 1
        assert len(enumerate_constituents(tree, unit_edus(tree))) == 2 * n - 2
        assert build_tree(describe(tree)) == tree

    @given(tree_descriptions(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_every_span_is_the_concatenation_of_its_leaf_edus(self, description, seed):
        tree = build_tree(description)
        edus = random_edus(random.Random(seed), tree.n_leaves)
        for node in tree.nodes():
            leaf_indices = [leaf.first_edu for leaf in leaves(node)]
            assert sorted(leaf_indices) == list(
                range(node.first_edu, node.last_edu + 1)
            )
            assert node.token_span(edus) == (
                edus[node.first_edu].first_token,
                edus[node.last_edu].last_token,
            )

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_internal_nodes_are_the_filtered_pre_order(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 60))
        expected = [node for node in tree.nodes() if not node.is_leaf]
        got = list(tree.internal_nodes())
        assert len(got) == len(expected) == tree.n_internal
        assert all(a is b for a, b in zip(got, expected))

    def test_deep_right_branching_tree_is_safe(self):
        # Deeper than the default interpreter recursion limit.
        n = 3000
        node = RstTree.leaf(n - 1)
        for i in range(n - 2, -1, -1):
            node = RstTree.internal(
                RstTree.leaf(i), node, RelationLabel("joint", Nuclearity.NN)
            )
        assert node.n_leaves == n
        assert sum(1 for _ in node.nodes()) == 2 * n - 1
        assert len(enumerate_constituents(node, unit_edus(node))) == 2 * n - 2
        assert build_tree(describe(node)) == node


class TestDocumentRecord:
    @pytest.mark.parametrize(
        "tokens, starts",
        [
            (("a", "b"), (0,)),  # columns differ in length
            (("a", ""), (0, 2)),  # empty text
            (("a", 7), (0, 2)),  # text is not a string
            (("a", "b"), (-1, 2)),  # negative offset
            (("a", "b", "c"), (0, 4, 4)),  # offsets do not increase
            (("a", "b"), (3, 1)),  # offsets decrease
            (("a", "b"), (0, "2")),  # offset is not an int
            (("a", "b"), (False, True)),  # offsets are bools
            ((), ()),  # no tokens
        ],
    )
    def test_token_columns_are_checked(self, tokens, starts):
        with pytest.raises(RstError):
            DocumentRecord(
                doc_id="d",
                genre="g",
                lang="en",
                tokens=tokens,
                char_starts=starts,
                edus=(EduSpan(0, max(len(tokens) - 1, 0)),),
            )

    def test_token_columns_become_tuples(self):
        doc = DocumentRecord(
            doc_id="d",
            genre="g",
            lang="en",
            tokens=["a", "b"],
            char_starts=[0, 2],
            edus=[EduSpan(0, 1)],
        )
        assert doc.tokens == ("a", "b") and doc.char_starts == (0, 2)

    def test_edu_gap_rejected(self):
        with pytest.raises(RstError):
            DocumentRecord(
                doc_id="d",
                genre="g",
                lang="en",
                tokens=tuple(f"w{i}" for i in range(4)),
                char_starts=tuple(2 * i for i in range(4)),
                edus=(EduSpan(0, 1), EduSpan(3, 3)),
            )

    def test_leaf_count_mismatch_rejected(self):
        with pytest.raises(RstError):
            DocumentRecord(
                doc_id="d",
                genre="g",
                lang="en",
                tokens=("w0", "w1"),
                char_starts=(0, 2),
                edus=(EduSpan(0, 0), EduSpan(1, 1)),
                tree=build_tree(0),
            )

    def test_with_tree_equals_replace_and_stays_frozen(self):
        rng = random.Random(3)
        for i in range(20):
            n = rng.randint(1, 12)
            doc = make_document(f"d{i}", random_tree(rng, n), random_edus(rng, n), sents=[0])
            if i % 2:
                doc = doc.replace(tree=None)
            old_tree, tree = doc.tree, random_tree(rng, n)
            swapped = doc.with_tree(tree)
            assert swapped == doc.replace(tree=tree)
            assert swapped.tree is tree and doc.tree is old_tree
            with pytest.raises(AttributeError, match="cannot assign to field 'tree'"):
                swapped.tree = old_tree  # type: ignore[misc]

    @pytest.mark.parametrize("n_leaves, first", [(2, 0), (4, 0), (3, 1)])
    def test_with_tree_checks_the_tree(self, n_leaves, first):
        doc = make_document("doc-7", build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS")))
        tree = random_tree(random.Random(0), n_leaves, first=first)
        with pytest.raises(RstError, match="doc-7"):
            doc.with_tree(tree)

    def test_sentence_boundaries_must_start_at_zero(self):
        with pytest.raises(RstError):
            DocumentRecord(
                doc_id="d",
                genre="g",
                lang="en",
                tokens=("w0", "w1", "w2"),
                char_starts=(0, 2, 4),
                edus=(EduSpan(0, 2),),
                sentence_boundaries=(1,),
            )

    def test_unknown_language_rejected(self):
        with pytest.raises(RstError):
            DocumentRecord(
                doc_id="d",
                genre="g",
                lang="de",
                tokens=("w",),
                char_starts=(0,),
                edus=(EduSpan(0, 0),),
            )


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        doc = make_document("same", build_tree(0))
        with pytest.raises(RstError, match=r"duplicate document ids: \['same'\]"):
            Corpus((doc, doc))

    def test_from_documents_builds_inventory(self):
        # A corpus is its documents, in order; labels are not registered.
        docs = [
            make_document("b", build_tree((0, 1, "elaboration_NS"))),
            make_document("a", build_tree((0, 1, "joint_NN"))),
        ]
        corpus = Corpus(docs)
        assert corpus._fields == ("documents",)
        assert corpus.documents == tuple(docs) and list(corpus) == docs
        assert len(corpus) == 2

    def test_random_trees_make_valid_corpora(self):
        rng = random.Random(11)
        docs = [
            make_document(f"d{i}", random_tree(rng, rng.randint(1, 9)))
            for i in range(20)
        ]
        corpus = Corpus(docs)
        assert len(corpus) == 20


class TestInputLines:
    def test_lines_are_numbered_stripped_and_blank_ones_skipped(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("  a b \n\n \t\nc\r\n\u00a0d\n", encoding="utf-8")
        seen = []
        with InputLines(path) as lines:
            for line in lines:
                seen.append((lines.line_number, line))
        assert seen == [(1, "a b"), (4, "c"), (5, "d")]

    def test_an_error_on_a_line_names_the_path_and_the_line(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("a\n\nb\nc\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as err:
            with InputLines(path) as lines:
                for line in lines:
                    if line == "b":
                        raise RstError("bad b")
        assert str(err.value) == f"{path}: line 3: bad b"
        assert (err.value.path, err.value.line_number) == (path, 3)

    def test_errors_before_the_first_line_and_after_the_last_pass(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("a\n", encoding="utf-8")
        for where in ("before", "after"):
            with pytest.raises(RstError) as err:
                with InputLines(path) as lines:
                    if where == "after":
                        list(lines)
                    raise RstError(where)
            assert type(err.value) is RstError and str(err.value) == where

    def test_other_exceptions_pass_unchanged(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("a\n", encoding="utf-8")
        with pytest.raises(KeyError):
            with InputLines(path) as lines:
                for line in lines:
                    raise KeyError(line)

    def test_a_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"ok\r\nfine\r\n\xd0\xbf\xd0\n")
        with pytest.raises(SchemaViolation) as err:
            with InputLines(path) as lines:
                list(lines)
        assert str(err.value) == f"{path}: line 3: not UTF-8"
        # the bad bytes are found on their line, not when read ahead
        with pytest.raises(SchemaViolation, match="line 2: bad"):
            with InputLines(path) as lines:
                for line in lines:
                    if line == "fine":
                        raise RstError("bad")
