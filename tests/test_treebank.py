import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstkit.core import (
    EduSpan,
    MissingTree,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    build_tree,
)
from rstkit.treebank import (
    DanglingParentId,
    EmptySegmentText,
    MalformedXml,
    NaryNode,
    SchemaViolation,
    UnaryChain,
    UnknownRelname,
    binarize,
    component_to_record,
    extract_forest,
    parse_rs3,
    read_canonical,
    serialize_rs3,
    serialize_rs3_forest,
    tokenize,
    tree_from_string,
    tree_to_string,
    unbinarize,
    write_canonical,
)
from rstkit.core import Corpus

from helpers import TEST_LABELS, make_document, random_edus, random_tree


def rs3(body: str, rels: str = "") -> bytes:
    default_rels = """
      <rel name="elaboration" type="rst"/>
      <rel name="attribution" type="rst"/>
      <rel name="background" type="rst"/>
      <rel name="joint" type="multinuc"/>
      <rel name="sequence" type="multinuc"/>
    """
    return (
        "<rst><header><relations>"
        + default_rels
        + rels
        + "</relations></header><body>"
        + body
        + "</body></rst>"
    ).encode("utf-8")


class TestTokenize:
    def test_punctuation_is_peeled(self):
        texts = [t.text for t in tokenize("Hello, world!")]
        assert texts == ["Hello", ",", "world", "!"]

    def test_char_offsets_point_into_the_text(self):
        text = 'He said, "go now."'
        for token in tokenize(text):
            assert text[token.char_start : token.char_start + len(token.text)] == (
                token.text
            )

    def test_internal_apostrophes_and_hyphens_survive(self):
        texts = [t.text for t in tokenize("don't re-use state-of-the-art")]
        assert texts == ["don't", "re-use", "state-of-the-art"]

    def test_pure_punctuation_chunk(self):
        assert [t.text for t in tokenize("... ?!")] == [".", ".", ".", "?", "!"]

    def test_unicode_russian(self):
        texts = [t.text for t in tokenize("«Привет», — сказал он.")]
        assert texts == ["«", "Привет", "»", ",", "—", "сказал", "он", "."]

    def test_deterministic(self):
        text = "A (quoted) example; twice."
        assert tokenize(text) == tokenize(text)


class TestParseRs3:
    def test_minimal_two_segment_file(self):
        data = rs3(
            """
            <segment id="1" parent="3" relname="span">First clause.</segment>
            <segment id="2" parent="1" relname="elaboration">Second clause.</segment>
            <group id="3" type="span"/>
            """
        )
        forest = extract_forest(parse_rs3(data))
        assert len(forest) == 1
        assert forest[0].edu_texts == ("First clause.", "Second clause.")
        tree = binarize(forest[0].tree)
        assert tree == build_tree((0, 1, "elaboration_NS"))

    def test_multinuc_group(self):
        data = rs3(
            """
            <segment id="1" parent="4" relname="joint">a.</segment>
            <segment id="2" parent="4" relname="joint">b.</segment>
            <segment id="3" parent="4" relname="joint">c.</segment>
            <group id="4" type="multinuc"/>
            """
        )
        (component,) = extract_forest(parse_rs3(data))
        assert len(component.tree.children) == 3
        assert binarize(component.tree) == build_tree(
            (0, (1, 2, "joint_NN"), "joint_NN")
        )

    def test_forest_components_ordered_by_text_position(self):
        data = rs3(
            """
            <segment id="1">lonely.</segment>
            <segment id="2" parent="4" relname="span">first of pair.</segment>
            <segment id="3" parent="2" relname="elaboration">second of pair.</segment>
            <group id="4" type="span"/>
            """
        )
        forest = extract_forest(parse_rs3(data))
        assert [c.edu_texts[0] for c in forest] == ["lonely.", "first of pair."]
        assert sum(len(c.edu_texts) for c in forest) == 3

    def test_satellite_of_multinuc_group(self):
        data = rs3(
            """
            <segment id="1" parent="4" relname="joint">a.</segment>
            <segment id="2" parent="4" relname="joint">b.</segment>
            <segment id="3" parent="4" relname="elaboration">elaborates both.</segment>
            <group id="4" type="multinuc" parent="5" relname="span"/>
            <group id="5" type="span"/>
            """
        )
        (component,) = extract_forest(parse_rs3(data))
        tree = binarize(component.tree)
        assert tree == build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))

    def test_two_satellites_right_folds_first(self):
        # Left and right satellites of the same nucleus: the right one is
        # the inner attachment by convention.
        data = rs3(
            """
            <segment id="1" parent="2" relname="background">left sat.</segment>
            <segment id="2" parent="4" relname="span">nucleus.</segment>
            <segment id="3" parent="2" relname="elaboration">right sat.</segment>
            <group id="4" type="span"/>
            """
        )
        (component,) = extract_forest(parse_rs3(data))
        tree = binarize(component.tree)
        assert tree == build_tree(
            (0, (1, 2, "elaboration_NS"), "background_SN")
        )

    def test_stacked_same_side_satellites_nest_nearest_first(self):
        data = rs3(
            """
            <segment id="1" parent="4" relname="span">nucleus.</segment>
            <segment id="2" parent="1" relname="elaboration">near sat.</segment>
            <segment id="3" parent="1" relname="background">far sat.</segment>
            <group id="4" type="span"/>
            """
        )
        (component,) = extract_forest(parse_rs3(data))
        tree = binarize(component.tree)
        assert tree == build_tree(
            ((0, 1, "elaboration_NS"), 2, "background_NS")
        )

    def test_dangling_parent(self):
        data = rs3('<segment id="1" parent="99" relname="elaboration">x</segment>')
        with pytest.raises(DanglingParentId):
            parse_rs3(data)

    def test_unknown_relname(self):
        data = rs3(
            """
            <segment id="1" parent="2" relname="mystery">x</segment>
            <segment id="2">y</segment>
            """
        )
        with pytest.raises(UnknownRelname):
            parse_rs3(data)

    def test_empty_segment_text(self):
        data = rs3('<segment id="1">   </segment>')
        with pytest.raises(EmptySegmentText):
            parse_rs3(data)

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_rs3(b"<rst><header>")

    def test_parent_cycle(self):
        data = rs3(
            """
            <segment id="1" parent="2" relname="elaboration">a</segment>
            <segment id="2" parent="1" relname="elaboration">b</segment>
            """
        )
        with pytest.raises(MalformedXml):
            extract_forest(parse_rs3(data))

    def test_bom_is_stripped(self):
        data = b"\xef\xbb\xbf" + rs3('<segment id="1">hi there.</segment>')
        (component,) = extract_forest(parse_rs3(data))
        assert component.edu_texts == ("hi there.",)


class TestBinarize:
    def test_binary_input_is_identity(self):
        label = RelationLabel("elaboration", Nuclearity.NS)
        nary = NaryNode.internal(label, (NaryNode.leaf(0), NaryNode.leaf(1)))
        assert binarize(nary) == build_tree((0, 1, "elaboration_NS"))

    def test_three_way_multinuclear_right_cascade(self):
        label = RelationLabel("joint", Nuclearity.NN)
        nary = NaryNode.internal(
            label, tuple(NaryNode.leaf(i) for i in range(3))
        )
        assert binarize(nary) == build_tree((0, (1, 2, "joint_NN"), "joint_NN"))

    def test_four_way_multinuclear_has_three_internal_nodes(self):
        label = RelationLabel("sequence", Nuclearity.NN)
        nary = NaryNode.internal(label, tuple(NaryNode.leaf(i) for i in range(4)))
        tree = binarize(nary)
        internals = list(tree.internal_nodes())
        assert len(internals) == 3
        assert all(node.label == label for node in internals)
        assert tree == build_tree((0, (1, (2, 3, "sequence_NN"), "sequence_NN"), "sequence_NN"))

    def test_unary_chain_rejected(self):
        label = RelationLabel("joint", Nuclearity.NN)
        nary = NaryNode(label, (NaryNode.leaf(0),), None, 0, 0)
        with pytest.raises(UnaryChain):
            binarize(nary)

    def test_idempotent_on_rst_trees(self):
        rng = random.Random(5)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 10))
            assert binarize(binarize(tree)) == binarize(tree)

    def test_mononuclear_nary_with_three_children_rejected(self):
        label = RelationLabel("elaboration", Nuclearity.NS)
        nary = NaryNode.internal(label, tuple(NaryNode.leaf(i) for i in range(3)))
        with pytest.raises(RstError):
            binarize(nary)


class TestSerializeRs3:
    def test_two_edu_doc_layout(self):
        doc = make_document("d", build_tree((0, 1, "elaboration_NS")))
        data = serialize_rs3(doc)
        text = data.decode("utf-8")
        assert text.count("<segment") == 2
        assert text.count("<group") == 1

    def test_record_without_tree_is_rejected(self):
        doc = replace(make_document("d", build_tree((0, 1, "joint_NN"))), tree=None)
        with pytest.raises(MissingTree):
            serialize_rs3(doc)

    def test_round_trip_on_random_documents(self):
        rng = random.Random(23)
        for i in range(40):
            n = rng.randint(1, 12)
            doc = make_document(f"d{i}", random_tree(rng, n), random_edus(rng, n))
            forest = extract_forest(parse_rs3(serialize_rs3(doc)))
            assert len(forest) == 1
            assert binarize(forest[0].tree) == doc.tree

    def test_debinarized_cascade_shares_one_multinuc_parent(self):
        tree = build_tree((0, (1, 2, "joint_NN"), "joint_NN"))
        doc = make_document("d", tree)
        text = serialize_rs3(doc).decode("utf-8")
        assert text.count("<group") == 1
        assert text.count("<segment") == 3
        # and the round trip re-binarizes to the same cascade
        (component,) = extract_forest(parse_rs3(serialize_rs3(doc)))
        assert len(component.tree.children) == 3
        assert binarize(component.tree) == tree

    def test_left_heavy_nn_structure_survives(self):
        tree = build_tree(((0, 1, "joint_NN"), 2, "joint_NN"))
        doc = make_document("d", tree)
        (component,) = extract_forest(parse_rs3(serialize_rs3(doc)))
        assert binarize(component.tree) == tree

    def test_forest_round_trip_preserves_component_order_and_edus(self):
        rng = random.Random(9)
        docs = [
            make_document(f"c{i}", random_tree(rng, rng.randint(1, 6)))
            for i in range(5)
        ]
        data = serialize_rs3_forest(docs)
        forest = extract_forest(parse_rs3(data))
        assert len(forest) == 5
        total_segments = data.decode("utf-8").count("<segment")
        assert sum(len(c.edu_texts) for c in forest) == total_segments
        for doc, component in zip(docs, forest):
            assert binarize(component.tree) == doc.tree

    def test_unbinarize_inverts_binarize(self):
        rng = random.Random(31)
        for _ in range(30):
            tree = random_tree(rng, rng.randint(2, 10), TEST_LABELS)
            assert binarize(unbinarize(tree)) == tree


class TestComponentToRecord:
    def test_tokens_and_edus(self):
        data = rs3(
            """
            <segment id="1" parent="3" relname="span">One two, three.</segment>
            <segment id="2" parent="1" relname="elaboration">Four!</segment>
            <group id="3" type="span"/>
            """
        )
        (component,) = extract_forest(parse_rs3(data))
        record = component_to_record(component, "doc", "news", "en")
        assert record.token_texts() == ["One", "two", ",", "three", ".", "Four", "!"]
        assert record.edus == (EduSpan(0, 4), EduSpan(5, 6))
        assert record.tree == build_tree((0, 1, "elaboration_NS"))


class TestTreeStrings:
    def test_known_rendering(self):
        tree = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        assert tree_to_string(tree) == "(elaboration_NS (joint_NN #0 #1) #2)"

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 12))
        assert tree_from_string(tree_to_string(tree)) == tree

    def test_deep_tree_round_trip(self):
        node = RstTree.leaf(1999)
        for i in range(1998, -1, -1):
            node = RstTree.internal(
                RstTree.leaf(i), node, RelationLabel("joint", Nuclearity.NN)
            )
        assert tree_from_string(tree_to_string(node)) == node

    @pytest.mark.parametrize(
        "bad",
        ["(elaboration_NS #0", "#0 #1", "(elaboration_NS #0 #1 #2)", "()", "(x #0 #1)"],
    )
    def test_malformed_strings(self, bad):
        with pytest.raises(RstError):
            tree_from_string(bad)


class TestCanonicalFormat:
    def make_corpus(self, seed=17, n_docs=3):
        rng = random.Random(seed)
        docs = []
        for i in range(n_docs):
            n = rng.randint(1, 8)
            docs.append(
                make_document(
                    f"doc{i}",
                    random_tree(rng, n),
                    random_edus(rng, n),
                    genre=rng.choice(["news", "blogs"]),
                    lang="ru",
                    split=rng.choice(["train", "dev", "test"]),
                    sents=[0],
                )
            )
        return Corpus.from_documents("fixture", docs)

    def test_empty_corpus_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_canonical(Corpus.from_documents("empty", []), path)
        assert path.read_text() == ""
        assert len(read_canonical(path)) == 0

    def test_one_line_per_document(self, tmp_path):
        corpus = self.make_corpus()
        path = tmp_path / "c.jsonl"
        write_canonical(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert list(json.loads(lines[0])) == [
            "id", "genre", "lang", "tokens", "edus", "tree", "sents", "split",
        ]

    def test_write_then_read_is_equal(self, tmp_path):
        corpus = self.make_corpus()
        path = tmp_path / "fixture.jsonl"
        write_canonical(corpus, path)
        assert read_canonical(path) == corpus

    def test_schema_violation_reports_line_number(self, tmp_path):
        corpus = self.make_corpus(n_docs=2)
        path = tmp_path / "c.jsonl"
        write_canonical(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as err:
            read_canonical(path)
        assert err.value.line_number == 2

    def test_missing_and_unknown_fields(self, tmp_path):
        corpus = self.make_corpus(n_docs=1)
        path = tmp_path / "c.jsonl"
        write_canonical(corpus, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        del obj["edus"]
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            read_canonical(path)
        obj2 = json.loads(write_and_reload(corpus, tmp_path))
        obj2["surprise"] = 1
        path.write_text(json.dumps(obj2) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            read_canonical(path)


def write_and_reload(corpus, tmp_path):
    path = tmp_path / "tmp.jsonl"
    write_canonical(corpus, path)
    return path.read_text(encoding="utf-8").splitlines()[0]
