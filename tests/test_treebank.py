import io
import json
import random
import re
import sys
import threading
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstkit import core, treebank
from rstkit.core import (
    DocumentRecord,
    EduSpan,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
)
from rstkit.treebank import (
    SchemaViolation,
    component_to_record,
    extract_forest,
    iter_canonical,
    parse_rs3,
    record_from_json,
    record_to_json,
    tokenize,
    tree_from_string,
    read_sentence_file,
    tree_to_string,
    write_record,
)

from helpers import (
    TEST_LABELS,
    build_tree,
    leaves,
    make_document,
    random_edus,
    random_tree,
    reference_read,
    reference_record_from_json,
    reference_tokenize,
    reference_tree_from_string,
    reference_tree_to_string,
    reference_write_record,
    serialize_rs3,
    serialize_rs3_forest,
    traced_peak,
    write_corpus,
)


def assert_shared_leaves(tree: RstTree) -> None:
    """Every leaf of ``tree`` below the interning cap is ``RstTree.leaf(i)``."""
    for leaf in leaves(tree):
        if leaf.first_edu < core._INTERN_LIMIT:
            assert leaf is RstTree.leaf(leaf.first_edu), leaf


# serialize_rs3_forest output (the fixture writer in helpers) for the two
# documents of TestSerializeRs3.test_forest_bytes_are_pinned.
FOREST_RS3 = """\
<?xml version='1.0' encoding='utf-8'?>
<rst>
  <header>
    <relations>
      <rel name="attribution" type="rst" />
      <rel name="background" type="rst" />
      <rel name="elaboration" type="rst" />
      <rel name="joint" type="multinuc" />
      <rel name="sequence" type="multinuc" />
    </relations>
  </header>
  <body>
    <segment id="1" parent="2" relname="attribution">w0</segment>
    <segment id="2" parent="15" relname="span">w1</segment>
    <segment id="3" parent="13" relname="joint">w2</segment>
    <segment id="4" parent="14" relname="sequence">w3</segment>
    <segment id="5" parent="14" relname="sequence">w4</segment>
    <segment id="6" parent="13" relname="elaboration">w5</segment>
    <segment id="7" parent="19" relname="joint">w0</segment>
    <segment id="8" parent="19" relname="joint">w1</segment>
    <segment id="9" parent="18" relname="joint">w2</segment>
    <segment id="10" parent="17" relname="span">w3</segment>
    <segment id="11" parent="10" relname="elaboration">w4</segment>
    <group id="12" type="span" />
    <group id="13" type="multinuc" parent="12" relname="span" />
    <group id="14" type="multinuc" parent="13" relname="joint" />
    <group id="15" type="span" parent="13" relname="joint" />
    <group id="16" type="span" />
    <group id="17" type="span" parent="16" relname="span" />
    <group id="18" type="multinuc" parent="17" relname="background" />
    <group id="19" type="multinuc" parent="18" relname="joint" />
  </body>
</rst>"""


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
        texts = [text for text, _ in tokenize("Hello, world!")]
        assert texts == ["Hello", ",", "world", "!"]

    def test_char_offsets_point_into_the_text(self):
        text = 'He said, "go now."'
        for token, start in tokenize(text):
            assert text[start : start + len(token)] == token

    def test_internal_apostrophes_and_hyphens_survive(self):
        texts = [text for text, _ in tokenize("don't re-use state-of-the-art")]
        assert texts == ["don't", "re-use", "state-of-the-art"]

    def test_pure_punctuation_chunk(self):
        assert [text for text, _ in tokenize("... ?!")] == [".", ".", ".", "?", "!"]

    def test_unicode_russian(self):
        texts = [text for text, _ in tokenize("«Привет», — сказал он.")]
        assert texts == ["«", "Привет", "»", ",", "—", "сказал", "он", "."]

    def test_deterministic(self):
        text = "A (quoted) example; twice."
        assert tokenize(text) == tokenize(text)

    def test_no_alphanumeric_character_is_punctuation_or_symbol(self):
        # tokenize keeps a chunk whole when both its ends are alphanumeric;
        # that is exact only while this holds for every code point.
        peelable = [
            hex(cp)
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp))[0] in "PS"
        ]
        assert peelable == []

    def test_str_whitespace_is_the_regex_whitespace(self):
        # tokenize splits with str.split() and the reference with \S+; the
        # two chunk a text alike only while this holds for every code point.
        space = re.compile(r"\s")
        differ = [
            hex(cp)
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isspace() != (space.fullmatch(chr(cp)) is not None)
        ]
        assert differ == []

    def test_equals_the_peeling_reference_on_random_strings(self):
        alphabet = (
            "aZqé"  # Latin
            "жЯё"  # Cyrillic
            "07_"
            "«»—'\"().,;"
            "$€₽"  # currency signs
            "\u0301\u0308"  # combining marks
            "½²"
            " \u00a0\u3000"  # space, no-break space, ideographic space
            "\t\n\x1c\x85\u2028"  # tab, newline, file separator, NEL, line separator
        )
        rng = random.Random(8)
        mismatches = []
        for _ in range(200_000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 9)))
            if tokenize(text) != reference_tokenize(text):
                mismatches.append(text)
        assert mismatches == []


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
        assert forest[0].tree == build_tree((0, 1, "elaboration_NS"))

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
        assert component.tree == build_tree((0, (1, 2, "joint_NN"), "joint_NN"))

    def test_four_nucleus_multinuc_is_a_right_cascade(self):
        data = rs3(
            """
            <segment id="1" parent="5" relname="sequence">a.</segment>
            <segment id="2" parent="5" relname="sequence">b.</segment>
            <segment id="3" parent="5" relname="sequence">c.</segment>
            <segment id="4" parent="5" relname="sequence">d.</segment>
            <group id="5" type="multinuc"/>
            """
        )
        (component,) = extract_forest(parse_rs3(data))
        assert component.tree == build_tree(
            (0, (1, (2, 3, "sequence_NN"), "sequence_NN"), "sequence_NN")
        )

    def test_multinuc_group_with_one_nucleus_rejected(self):
        data = rs3(
            """
            <segment id="1" parent="3" relname="joint">a.</segment>
            <segment id="2" parent="1" relname="elaboration">b.</segment>
            <group id="3" type="multinuc"/>
            """
        )
        with pytest.raises(RstError, match="multinuc group 3 has 1 nuclei"):
            extract_forest(parse_rs3(data))

    def test_span_group_with_two_span_children_rejected(self):
        data = rs3(
            """
            <segment id="1" parent="4" relname="span">a.</segment>
            <segment id="2" parent="4" relname="span">b.</segment>
            <segment id="3" parent="4" relname="span">c.</segment>
            <group id="4" type="span"/>
            """
        )
        with pytest.raises(RstError, match="span group 4 has 3 span children"):
            extract_forest(parse_rs3(data))

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
        assert component.tree == build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))

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
        assert component.tree == build_tree(
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
        assert component.tree == build_tree(
            ((0, 1, "elaboration_NS"), 2, "background_NS")
        )

    def test_labels_are_the_shared_instances(self):
        labels = [
            node.label
            for component in extract_forest(parse_rs3(FOREST_RS3.encode("utf-8")))
            for node in component.tree.internal_nodes()
        ]
        assert len(labels) == 9
        assert all(label is RelationLabel.from_merged(label.merged) for label in labels)

    @pytest.mark.parametrize("kind, nuclei", [("rst", 1), ("multinuc", 2)])
    def test_relname_with_a_reserved_character_is_rejected(self, kind, nuclei):
        body = "".join(
            f'<segment id="{i}" parent="9" relname="same_unit">x{i}</segment>'
            for i in range(1, nuclei + 1)
        )
        if kind == "rst":
            body += '<segment id="9">n</segment>'
        else:
            body += '<group id="9" type="multinuc"/>'
        data = rs3(body, f'<rel name="same_unit" type="{kind}"/>')
        with pytest.raises(RstError, match="reserved character"):
            extract_forest(parse_rs3(data))

    def test_dangling_parent(self):
        data = rs3('<segment id="1" parent="99" relname="elaboration">x</segment>')
        with pytest.raises(RstError, match="node 1 has missing parent 99"):
            parse_rs3(data)

    def test_unknown_relname(self):
        data = rs3(
            """
            <segment id="1" parent="2" relname="mystery">x</segment>
            <segment id="2">y</segment>
            """
        )
        with pytest.raises(RstError, match="node 1 uses unknown relation 'mystery'"):
            parse_rs3(data)

    def test_empty_segment_text(self):
        data = rs3('<segment id="1">   </segment>')
        with pytest.raises(RstError, match="segment 1 has no text"):
            parse_rs3(data)

    def test_malformed_xml(self):
        with pytest.raises(RstError, match="no element found"):
            parse_rs3(b"<rst><header>")

    def test_parent_cycle(self):
        data = rs3(
            """
            <segment id="1" parent="2" relname="elaboration">a</segment>
            <segment id="2" parent="1" relname="elaboration">b</segment>
            """
        )
        with pytest.raises(RstError, match="parent cycle involving node 1"):
            extract_forest(parse_rs3(data))

    def test_bom_is_stripped(self):
        data = b"\xef\xbb\xbf" + rs3('<segment id="1">hi there.</segment>')
        (component,) = extract_forest(parse_rs3(data))
        assert component.edu_texts == ("hi there.",)


class TestBinarize:
    """Reading rs3 binarizes: a k-nucleus multinuc group becomes a right
    cascade of k-1 nodes that all carry the group's NN label."""

    def test_three_way_multinuclear_right_cascade(self):
        # The middle nucleus is a span group with its own satellite, so the
        # cascade runs over three nuclei, not over the four EDUs.
        data = rs3(
            """
            <segment id="1" parent="5" relname="joint">a.</segment>
            <segment id="2" parent="6" relname="span">b.</segment>
            <segment id="3" parent="2" relname="elaboration">about b.</segment>
            <segment id="4" parent="5" relname="joint">c.</segment>
            <group id="5" type="multinuc"/>
            <group id="6" type="span" parent="5" relname="joint"/>
            """
        )
        (component,) = extract_forest(parse_rs3(data))
        assert component.tree == build_tree(
            (0, ((1, 2, "elaboration_NS"), 3, "joint_NN"), "joint_NN")
        )


class TestSerializeRs3:
    def test_two_edu_doc_layout(self):
        doc = make_document("d", build_tree((0, 1, "elaboration_NS")))
        data = serialize_rs3(doc)
        text = data.decode("utf-8")
        assert text.count("<segment") == 2
        assert text.count("<group") == 1

    def test_record_without_tree_is_rejected(self):
        doc = make_document("d", build_tree((0, 1, "joint_NN"))).replace(tree=None)
        with pytest.raises(RstError, match="d has no tree"):
            serialize_rs3(doc)

    def test_round_trip_on_random_documents(self):
        rng = random.Random(23)
        for i in range(40):
            n = rng.randint(1, 40)
            doc = make_document(f"d{i}", random_tree(rng, n), random_edus(rng, n))
            forest = extract_forest(parse_rs3(serialize_rs3(doc)))
            assert len(forest) == 1
            assert forest[0].tree == doc.tree
            assert_shared_leaves(forest[0].tree)

    def test_forest_of_trees_sharing_leaves_reads_back_equal(self):
        # The trees hold the same leaf objects, while rs3 ids are keyed on
        # id(node) within each tree.
        rng = random.Random(41)
        for i in range(30):
            docs = [make_document(f"d{i}_{k}", random_tree(rng, rng.randint(1, 30)))
                    for k in range(rng.randint(2, 3))]
            assert leaves(docs[0].tree)[0] is leaves(docs[1].tree)[0]
            forest = extract_forest(parse_rs3(serialize_rs3_forest(docs)))
            assert [component.tree for component in forest] == [doc.tree for doc in docs]
            for component in forest:
                assert_shared_leaves(component.tree)

    def test_debinarized_cascade_shares_one_multinuc_parent(self):
        tree = build_tree((0, (1, 2, "joint_NN"), "joint_NN"))
        doc = make_document("d", tree)
        text = serialize_rs3(doc).decode("utf-8")
        assert text.count("<group") == 1
        assert text.count("<segment") == 3
        # and the round trip reads back the same cascade
        (component,) = extract_forest(parse_rs3(serialize_rs3(doc)))
        assert component.tree == tree

    def test_same_label_nn_cascade_is_one_multinuc_group(self):
        tree = build_tree((0, (1, (2, 3, "joint_NN"), "joint_NN"), "joint_NN"))
        text = serialize_rs3(make_document("d", tree)).decode("utf-8")
        assert text.count("<segment") == 4
        assert text.count('<group id="5" type="multinuc" />') == 1
        assert text.count("<group") == 1
        assert text.count('parent="5" relname="joint"') == 4
        (component,) = extract_forest(parse_rs3(text.encode("utf-8")))
        assert component.tree == tree

    def test_different_label_nested_nn_nodes_stay_separate_groups(self):
        tree = build_tree((0, (1, 2, "sequence_NN"), "joint_NN"))
        text = serialize_rs3(make_document("d", tree)).decode("utf-8")
        assert text.count("<group") == 2
        (component,) = extract_forest(parse_rs3(text.encode("utf-8")))
        assert component.tree == tree

    def test_left_heavy_nn_structure_survives(self):
        tree = build_tree(((0, 1, "joint_NN"), 2, "joint_NN"))
        doc = make_document("d", tree)
        text = serialize_rs3(doc).decode("utf-8")
        assert text.count("<group") == 2
        (component,) = extract_forest(parse_rs3(serialize_rs3(doc)))
        assert component.tree == tree

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
            assert component.tree == doc.tree

    def test_forest_bytes_are_pinned(self):
        # Group ids follow a pre-order walk that visits the last child first.
        docs = [
            make_document("a", build_tree(
                (((0, 1, "attribution_SN"), (2, (3, 4, "sequence_NN"), "joint_NN"),
                  "joint_NN"), 5, "elaboration_NS"))),
            make_document("b", build_tree(
                (((0, 1, "joint_NN"), 2, "joint_NN"), (3, 4, "elaboration_NS"),
                 "background_SN"))),
        ]
        assert serialize_rs3_forest(docs).decode("utf-8") == FOREST_RS3

    def test_unbinarize_inverts_binarize(self):
        # Writing rs3 un-binarizes (each right cascade of one NN label is one
        # multinuc group) and reading binarizes again.
        rng = random.Random(31)
        for _ in range(30):
            tree = random_tree(rng, rng.randint(2, 10))
            cascade_heads = [
                node
                for node in tree.internal_nodes()
                if node.label.nuclearity is Nuclearity.NN
                and not any(
                    parent.right is node and parent.label == node.label
                    for parent in tree.internal_nodes()
                )
            ]
            text = serialize_rs3(make_document("d", tree)).decode("utf-8")
            multinuc_groups = [
                line for line in text.splitlines()
                if line.lstrip().startswith("<group") and 'type="multinuc"' in line
            ]
            assert len(multinuc_groups) == len(cascade_heads)
            (component,) = extract_forest(parse_rs3(text.encode("utf-8")))
            assert component.tree == tree


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
        assert record.tokens == ("One", "two", ",", "three", ".", "Four", "!")
        assert record.edus == (EduSpan(0, 4), EduSpan(5, 6))
        assert record.tree == build_tree((0, 1, "elaboration_NS"))


# Whitespace other than " " that str.split() and the regular expression \s
# both skip.
_ODD_SPACES = (
    "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2003", "\u2028", "\u3000",
)


def _respace(tree: str, rng: random.Random) -> str:
    """``tree`` with every space, and a gap after each "(" and before each
    ")", made a run of odd whitespace; the string still ends with ")"."""

    def gap(_match) -> str:
        return "".join(rng.choice(_ODD_SPACES) for _ in range(rng.randint(1, 3)))

    tree = re.sub(" ", gap, tree)
    tree = re.sub(r"\(", lambda m: "(" + gap(m), tree)
    return re.sub(r"\)", lambda m: gap(m) + ")", tree)


_SPACING_CASES = [
    "( joint_NN #0 #1 )",
    "(\tjoint_NN\n#0\u2003#1\x85)",
    "(joint_NN\x1c#0\x1d#1\x1e)\x1f",
    "\x85#0\u3000",
    "(elaboration_NS\t(joint_NN #0 #1)\n#2)",
    "(Joint_NN\r#0\x0b#1\x0c)",
    "(joint_NN)",  # a label closed at once
    "(joint_NN #0)",
    "( joint_NN #0 #1 ) )",
    "#0)",
    "(joint_NN #0#1)",  # leaves run together
    "(joint_NN\u200b#0 #1)",  # U+200B is no whitespace
    "(joi\u2003nt_NN #0 #1)",  # a label split in two
    "(joint_NN #0 #1)\x85(joint_NN #2 #3)",
    "(joint_NN (elaboration_NS #1 #2)\u3000#0)",
    "(joint\t#0 #1)",
    "( (joint_NN #0 #1)",
    "\u2003",
    "",
    # leaf spellings that tree_to_string never writes are bad leaf tokens,
    # even those int() reads
    "(joint_NN #6 #07)",
    "(joint_NN #0 #+1)",
    "(joint_NN #9 #1_0)",
    "(joint_NN #2 #\u0663)",  # an Arabic-Indic three
    "(joint_NN #4095 #4096)",  # past the cap: a leaf of its own
    "(joint_NN #0 #1) x",  # a label outside any bracket
    "x )",
    "#-1",
    "(joint_NN #0 #00)",
    "(joint_NN #-0 #1)",
    "(joint_NN # #1)",
    "(joint_NN #1e3 #0x1)",
    # more digits than int() reads by default
    pytest.param("(joint_NN #0 #" + "1" * 4301 + ")", id="4301-digit leaf"),
    pytest.param("(joint_NN #0 #" + "7" * 1998 + "x)", id="2000-character bad leaf"),
]


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

    def test_rendering_equals_the_piecewise_reference(self, forest_corpus):
        trees = [
            component.tree
            for path in sorted(forest_corpus.directory.glob("*.rs3"))
            for component in extract_forest(parse_rs3(path.read_bytes()))
        ]
        rng = random.Random(21)
        trees += [random_tree(rng, rng.randint(1, 60)) for _ in range(200)]
        for tree in trees:
            assert tree_to_string(tree) == reference_tree_to_string(tree)

    def test_deep_tree_round_trip(self):
        node = RstTree.leaf(1999)
        for i in range(1998, -1, -1):
            node = RstTree.internal(
                RstTree.leaf(i), node, RelationLabel("joint", Nuclearity.NN)
            )
        assert tree_from_string(tree_to_string(node)) == node

    @pytest.mark.parametrize(
        "bad",
        [
            "(elaboration_NS #0",
            "#0 #1",
            "(elaboration_NS #0 #1 #2)",
            "()",
            "(x #0 #1)",
            "(elaboration_NS joint_NN #1)",  # a label where a child belongs
            "(#0 elaboration_NS #1)",
            "(#0 #1 #2)",
            "elaboration_NS",
            "(elaboration_NS #0 ()",  # an empty frame where a child belongs
            "(elaboration_NS (joint_NN)",
        ],
    )
    def test_malformed_strings(self, bad):
        with pytest.raises(RstError):
            tree_from_string(bad)

    @pytest.mark.parametrize("text", _SPACING_CASES)
    def test_odd_spacing_agrees_with_the_reference(self, text):
        # the second parse takes its leaves from the table the first filled
        for _ in range(2):
            try:
                expected = reference_tree_from_string(text)
            except RstError as exc:
                with pytest.raises(RstError) as err:
                    tree_from_string(text)
                assert str(err.value) == str(exc)
                assert len(str(exc)) < 300
            else:
                tree = tree_from_string(text)
                assert tree == expected
                assert_shared_leaves(tree)

    @pytest.mark.parametrize("text, message", [
        ("(joint_NN #0 #01)", "bad leaf token (length 3): '#01' at character 14"),
        ("( joint_NN #0 #1 ) )", "unbalanced ')' in tree string at character 20"),
        ("#0 #1", "multiple root nodes in tree string at character 4"),
        ("(joi\u2003nt_NN #0 #1)", "tree string: expected (label left right) at character 6"),
        ("()", "tree string: expected (label left right) at character 2"),
        ("(joint #0 #1)", "not a relation_NUC label (length 5): 'joint' at character 13"),
        ("(joint_NN #0 (elaboration_NS #2 #3))",
         "left child ends at EDU 0, right child starts at EDU 2 at character 36"),
        ("elaboration_NS #0", "unbalanced tree string (length 17): 'elaboration_NS #0' "
                              "at character 1"),
        ("(elaboration_NS #0", "unbalanced tree string (length 18): '(elaboration_NS #0' "
                               "at character 19"),
        ("", "unbalanced tree string (length 0): '' at character 1"),
    ])
    def test_an_error_gives_the_offset_of_its_token(self, text, message):
        # the 1-based character where the token the error showed at starts,
        # or one past the end of a string that ends too soon
        for parse in (tree_from_string, reference_tree_from_string):
            with pytest.raises(RstError) as err:
                parse(text)
            assert str(err.value) == message

    def test_leaf_table_is_capped(self, monkeypatch):
        monkeypatch.setattr(treebank, "_LEAF_TOKENS", {})
        # a leaf past the cap is never stored: each parse builds a node
        assert tree_from_string("#4096") is not tree_from_string("#4096")
        assert treebank._LEAF_TOKENS == {}
        # another spelling of a leaf raises, and stores nothing
        for spelling in ("#00", "#+0", "#0_0", "#\u0660", "#01", "#+1"):
            with pytest.raises(RstError, match="bad leaf token"):
                tree_from_string(spelling)
        assert treebank._LEAF_TOKENS == {}
        limit = core._INTERN_LIMIT
        for _ in range(2):
            for k in range(limit + 50):
                assert tree_from_string(f"#{k}") == RstTree(k, k)
        # one key per shared leaf, the leaf's own spelling
        assert treebank._LEAF_TOKENS == {f"#{k}": RstTree.leaf(k) for k in range(limit)}
        assert all(leaf is RstTree.leaf(k) for k, leaf in
                   enumerate(treebank._LEAF_TOKENS.values()))

    def test_concurrent_parses_never_store_a_wrong_leaf(self, monkeypatch):
        # Threads race to fill the table; a lost update may cost sharing,
        # never a wrong leaf, and the table never outgrows the cap.
        monkeypatch.setattr(treebank, "_LEAF_TOKENS", {})
        limit = core._INTERN_LIMIT
        wrong: list[str] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(2000):
                i = rng.randrange(limit + 8)
                spelling = f"#{i}"
                leaf = tree_from_string(spelling)
                if leaf != RstTree(i, i):
                    wrong.append(spelling)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert len(treebank._LEAF_TOKENS) <= limit
        for spelling, leaf in treebank._LEAF_TOKENS.items():
            assert leaf is RstTree.leaf(int(spelling[1:]))
            assert spelling == f"#{leaf.first_edu}"

    def test_leaf_spellings_are_shared_and_capped(self, monkeypatch):
        # tree_to_string takes "#k" from a table shared by every call; past
        # the cap it spells the leaf anew, and the table never outgrows it
        monkeypatch.setattr(treebank, "_SPELLINGS", ())
        limit = core._INTERN_LIMIT
        rng = random.Random(9)
        for first in (0, 3, 40, limit - 5, limit - 1, limit, limit + 20, 10**6):
            tree = random_tree(rng, rng.randint(1, 12), first=first)
            assert tree_to_string(tree) == reference_tree_to_string(tree)
        assert treebank._SPELLINGS == tuple(f"#{k}" for k in range(limit))
        # a bool leaf is spelled as it always was, whatever the table holds
        assert tree_to_string(RstTree.leaf(True)) == "#True"

    def test_concurrent_renders_never_spell_a_wrong_leaf(self, monkeypatch):
        # Threads race to grow the table; a lost update costs a copy, never
        # a wrong spelling, and the table never outgrows the cap.
        limit = core._INTERN_LIMIT
        wrong: list[str] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(200):
                tree = random_tree(rng, rng.randint(1, 6), first=rng.randrange(limit + 8))
                if tree_to_string(tree) != reference_tree_to_string(tree):
                    wrong.append(reference_tree_to_string(tree))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(4):
                monkeypatch.setattr(treebank, "_SPELLINGS", ())  # grown anew each round
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
        assert len(treebank._SPELLINGS) <= limit
        assert all(spelling == f"#{k}" for k, spelling in enumerate(treebank._SPELLINGS))

    def test_split_whitespace_is_the_regex_whitespace(self):
        # tree_from_string splits with str.split(); the reference tokenizes
        # with the regular expression \s.  They must skip the same code points.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(every.split()) == re.sub(r"\s", "", every)
        tree = build_tree((0, 1, "joint_NN"))
        for space in re.findall(r"\s", every):
            assert tree_from_string(f"({space}joint_NN{space}#0{space}#1{space})") == tree


_TOKEN = "expected a [text, char_start] pair, got"
_TOKENS = "expected an array of [text, char_start] pairs, got"
_TREE = "expected a tree string or null, got"
_PAIR = "expected a [first, last] pair, got"
_PAIRS = "expected an array of [first, last] pairs, got"
_SENTS = "expected an array of integers or null, got"
_SPLIT = 'expected "train", "dev" or "test", got'


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
        return docs

    def test_empty_corpus_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_corpus([], path)
        assert path.read_text() == ""
        assert list(iter_canonical(path)) == []

    def test_one_line_per_document(self, tmp_path):
        corpus = self.make_corpus()
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert list(json.loads(lines[0])) == [
            "id", "genre", "lang", "tokens", "edus", "tree", "sents", "split",
        ]

    def test_write_then_read_is_equal(self, tmp_path):
        corpus = self.make_corpus()
        path = tmp_path / "fixture.jsonl"
        write_corpus(corpus, path)
        assert list(iter_canonical(path)) == corpus

    def test_schema_violation_reports_line_number(self, tmp_path):
        corpus = self.make_corpus(n_docs=2)
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as err:
            list(iter_canonical(path))
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # the fields other than tokens name the field and its JSON type
            pytest.param("tree", 5, f"tree: {_TREE} int", id="tree-int"),
            pytest.param("tree", True, f"tree: {_TREE} bool", id="tree-bool"),
            pytest.param("tree", ["#0"], f"tree: {_TREE} array of 1", id="tree-array"),
            pytest.param("tree", {"#0": 1}, f"tree: {_TREE} object", id="tree-object"),
            # tokens too, once the fast read of the pairs has failed; these
            # ids are the ones the rows had when they matched Python's text
            pytest.param("tokens", None, f"tokens: {_TOKENS} null",
                         id="tokens-None-not iterable"),
            pytest.param("tokens", 0, f"tokens: {_TOKENS} int", id="tokens-0-not iterable"),
            pytest.param("tokens", "", f"tokens: {_TOKENS} (length 0): ''",
                         id="tokens--no tokens"),
            pytest.param("tokens", [], "d: document has no tokens",
                         id="tokens-value7-no tokens"),
            # and a value the fast read takes apart, not a later check's text
            pytest.param("tokens", {"ab": 1}, f"tokens: {_TOKENS} object",
                         id="tokens-value8-char offsets"),
            pytest.param("tokens", [["w0", 0], "ab"], f"tokens[1]: {_TOKEN} (length 2): 'ab'",
                         id="tokens-string-pair"),
            pytest.param("tokens", [5], f"tokens[0]: {_TOKEN} int",
                         id="tokens-value9-has no len()"),
            pytest.param("tokens", [["w0", 0], None], f"tokens[1]: {_TOKEN} null",
                         id="tokens-value10-has no len()"),
            pytest.param("tokens", [["w0"]], f"tokens[0]: {_TOKEN} array of 1",
                         id="tokens-value11-every token must be a [text, char_start] pair"),
            pytest.param("tokens", [["w0", 0, 1]], f"tokens[0]: {_TOKEN} array of 3",
                         id="tokens-value12-every token must be a [text, char_start] pair"),
            pytest.param("tokens", [["w0", 0], ["w1", 3, 1]],
                         f"tokens[1]: {_TOKEN} array of 3",
                         id="tokens-value13-every token must be a [text, char_start] pair"),
            pytest.param("edus", [1, 2], f"edus[0]: {_PAIR} int", id="edus-int"),
            pytest.param("edus", [[0]], f"edus[0]: {_PAIR} array of 1", id="edus-short"),
            pytest.param("edus", [[0, 0], [1, 2, 3]], f"edus[1]: {_PAIR} array of 3",
                         id="edus-long"),
            pytest.param("edus", None, f"edus: {_PAIRS} null", id="edus-null"),
            pytest.param("edus", 0.5, f"edus: {_PAIRS} float", id="edus-float"),
            # a string or object is named, not read as its characters or keys
            pytest.param("edus", "ab", f"edus: {_PAIRS} (length 2): 'ab'", id="edus-string"),
            pytest.param("edus", {"a": 1}, f"edus: {_PAIRS} object", id="edus-object"),
            # an empty one too, not read as an empty array
            pytest.param("edus", "", f"edus: {_PAIRS} (length 0): ''", id="edus-empty-string"),
            pytest.param("edus", {}, f"edus: {_PAIRS} object", id="edus-empty-object"),
            pytest.param("edus", ["ab"], f"edus[0]: {_PAIR} (length 2): 'ab'",
                         id="edus-string-pair"),
            # a pair of the right shape with a wrong value names the value
            pytest.param("edus", [["a", "b"]], "EDU bounds must be integers, got 'a'",
                         id="edus-string-bounds"),
            pytest.param("sents", 5, f"sents: {_SENTS} int", id="sents-int"),
            pytest.param("sents", True, f"sents: {_SENTS} bool", id="sents-bool"),
            pytest.param("sents", "ab", f"sents: {_SENTS} (length 2): 'ab'", id="sents-string"),
            pytest.param("sents", {"a": 1}, f"sents: {_SENTS} object", id="sents-object"),
            pytest.param("sents", "", f"sents: {_SENTS} (length 0): ''",
                         id="sents-empty-string"),
            pytest.param("sents", {}, f"sents: {_SENTS} object", id="sents-empty-object"),
            pytest.param("split", 5, f"split: {_SPLIT} int", id="split-int"),
            pytest.param("split", None, f"split: {_SPLIT} null", id="split-null"),
            pytest.param("split", ["dev"], f"split: {_SPLIT} array of 1", id="split-array"),
            pytest.param("split", "final", f"split: {_SPLIT} (length 5): 'final'",
                         id="split-unknown"),
        ],
    )
    def test_wrong_json_types_name_the_line(self, field, value, message, tmp_path):
        obj = record_to_json(make_document("d", build_tree(0)))
        obj[field] = value
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation, match=re.escape(message)) as err:
            list(iter_canonical(path))
        assert err.value.line_number == 1
        assert str(err.value) == f"{path}: line 1: {message}"

    def test_missing_and_unknown_fields(self, tmp_path):
        corpus = self.make_corpus(n_docs=1)
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        del obj["edus"]
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            list(iter_canonical(path))
        obj2 = json.loads(write_and_reload(corpus, tmp_path))
        obj2["surprise"] = 1
        path.write_text(json.dumps(obj2) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            list(iter_canonical(path))


_WORDS = ("the", "cat", ",", "sat", ".", "«", "Привет", "»", "don't", "—", "a1", "?!")


def random_record_obj(rng: random.Random, doc_id: str, min_edus: int = 1) -> dict:
    """A canonical-format object built without the writer: 1-400 EDUs,
    words with punctuation and Cyrillic, offsets with gaps, and labels in
    mixed case."""
    n = rng.randint(min_edus, 400)
    edus, pos = [], 0
    for _ in range(n):
        size = rng.randint(1, 6)
        edus.append([pos, pos + size - 1])
        pos += size
    tokens, offset = [], rng.randint(0, 5)
    for _ in range(pos):
        text = rng.choice(_WORDS)
        tokens.append([text, offset])
        offset += len(text) + rng.randint(0, 2)
    labels = TEST_LABELS + ("Elaboration_NS", "JOINT_NN")

    def tree_text(start: int, end: int) -> str:
        if end - start == 1:
            return f"#{start}"
        split = rng.randint(start + 1, end - 1)
        left, right = tree_text(start, split), tree_text(split, end)
        return f"({rng.choice(labels)} {left} {right})"

    sents = sorted({0} | {rng.randrange(pos) for _ in range(rng.randint(0, 5))})
    return {
        "id": doc_id,
        "genre": rng.choice(["news", "blogs"]),
        "lang": rng.choice(["en", "ru", "other"]),
        "tokens": tokens,
        "edus": edus,
        "tree": tree_text(0, n) if min_edus > 1 or rng.random() < 0.9 else None,
        "sents": sents if rng.random() < 0.7 else None,
        "split": rng.choice(["train", "dev", "test"]),
    }


def _swap_first_leaves(tree: str) -> str:
    return re.sub(r"#[01]\b", lambda m: "#1" if m.group() == "#0" else "#0", tree)


def _set_token(index: int, value):
    def mutate(obj: dict) -> None:
        obj["tokens"][index] = value(obj["tokens"][index], obj["tokens"])
    return mutate


_MUTATIONS = {
    "dropped text": _set_token(-1, lambda tok, _: [tok[1]]),
    "empty text": _set_token(-1, lambda tok, _: ["", tok[1]]),
    "text not a string": _set_token(-1, lambda tok, _: [5, tok[1]]),
    "negative offset": _set_token(0, lambda tok, _: [tok[0], -1]),
    "repeated offset": _set_token(-1, lambda tok, toks: [tok[0], toks[-2][1]]),
    "decreasing offset": _set_token(-1, lambda tok, toks: [tok[0], toks[-2][1] - 1]),
    "offset as a string": _set_token(-1, lambda tok, _: [tok[0], str(tok[1])]),
    "triple entry": _set_token(-1, lambda tok, _: tok + [0]),
    "bare string entry": _set_token(-1, lambda tok, _: tok[0]),
    "label without nuclearity": lambda obj: obj.update(
        tree=re.sub(r"_(NN|NS|SN)\b", "", obj["tree"], count=1)
    ),
    "unknown nuclearity": lambda obj: obj.update(
        tree=re.sub(r"_(NN|NS|SN)\b", "_XY", obj["tree"], count=1)
    ),
    "label in child position": lambda obj: obj.update(
        tree=re.sub(r"#0\b", "joint_NN", obj["tree"], count=1)
    ),
    "unbalanced tree": lambda obj: obj.update(tree=obj["tree"][:-1]),
    "extra closing bracket": lambda obj: obj.update(tree=obj["tree"] + ")"),
    "non-adjacent children": lambda obj: obj.update(
        tree=_swap_first_leaves(obj["tree"])
    ),
    # int() would round these to a valid record
    "fractional EDU bound": lambda obj: obj["edus"][-1].__setitem__(
        1, obj["edus"][-1][1] + 0.5
    ),
    "boolean sentence index": lambda obj: obj.update(
        sents=[False] + (obj["sents"] or [0])[1:]
    ),
    "boolean offset": _set_token(0, lambda tok, _: [tok[0], False]),
    # odd whitespace between tokens, then a fault
    "odd spacing, unbalanced": lambda obj: obj.update(
        tree=_respace(obj["tree"], random.Random(1))[:-1]
    ),
    "odd spacing, label split": lambda obj: obj.update(
        tree=_respace(re.sub(r"_(NN|NS|SN)\b", "\u2003_\\1", obj["tree"], count=1),
                      random.Random(2))
    ),
    "odd spacing, label closed at once": lambda obj: obj.update(
        tree=_respace(re.sub(r"\(([^\s()]+)", "(\\1)", obj["tree"], count=1),
                      random.Random(3))
    ),
    "odd spacing, leaves run together": lambda obj: obj.update(
        tree=_respace(re.sub(r"#(\d+)", "#\\1#\\1", obj["tree"], count=1),
                      random.Random(4))
    ),
}


class TestReaderOracle:
    def test_fields_equal_the_per_token_reference(self):
        rng = random.Random(23)
        for i in range(40):
            obj = random_record_obj(rng, f"d{i}")
            fast = record_from_json(json.loads(json.dumps(obj)))
            slow = reference_record_from_json(json.loads(json.dumps(obj)))
            for name in DocumentRecord._fields:
                assert getattr(fast, name) == getattr(slow, name), name
            if fast.tree is not None:
                # one shared label instance per merged string in the input
                distinct = set(re.findall(r"\(([^\s()]+)", obj["tree"]))
                ids = {id(node.label) for node in fast.tree.internal_nodes()}
                assert len(ids) == len(distinct)

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_mutated_line_fails_on_the_same_line(self, mutation, tmp_path):
        rng = random.Random(mutation)
        objs = [random_record_obj(rng, f"d{i}", min_edus=2) for i in range(4)]
        bad = rng.randrange(len(objs))
        _MUTATIONS[mutation](objs[bad])
        lines = [json.dumps(obj, ensure_ascii=False) for obj in objs]
        lines.insert(1, "")  # blank lines are skipped but still counted
        path = tmp_path / "mutated.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = bad + 1 + (bad >= 1)
        with pytest.raises(SchemaViolation) as fast:
            list(iter_canonical(path))
        with pytest.raises(SchemaViolation) as slow:
            reference_read(path)
        assert fast.value.line_number == slow.value.line_number == expected

    def test_unmutated_file_reads_equal(self, tmp_path):
        rng = random.Random(5)
        for round_ in range(4):
            lines = [json.dumps(random_record_obj(rng, f"d{i}")) for i in range(5)]
            path = tmp_path / f"c{round_}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            docs = list(iter_canonical(path))
            assert docs == reference_read(path)
            for doc in docs:
                if doc.tree is not None:
                    assert_shared_leaves(doc.tree)

    def test_respaced_trees_read_equal(self, tmp_path):
        rng = random.Random(8)
        objs = [random_record_obj(rng, f"d{i}", min_edus=2) for i in range(5)]
        lines = [
            json.dumps(dict(obj, tree=_respace(obj["tree"], rng)), ensure_ascii=False)
            for obj in objs
        ]
        path = tmp_path / "respaced.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        docs = list(iter_canonical(path))
        assert docs == reference_read(path)
        assert [doc.tree for doc in docs] == [tree_from_string(o["tree"]) for o in objs]

    def test_tree_strings_parse_equal_to_the_reference(self):
        rng = random.Random(43)
        sizes = [rng.randint(1, 300) for _ in range(150)] + [core._INTERN_LIMIT + 40]
        for n in sizes:
            text = tree_to_string(random_tree(rng, n))
            tree = tree_from_string(text)
            assert tree == reference_tree_from_string(text)
            assert_shared_leaves(tree)


# Token, id and genre texts that the JSON encoder must escape (quotes,
# backslashes, control characters) or write as they are (non-ASCII).
_ODD_TEXTS = (
    "«", "Привет", "»", '"', "\\", 'a"b\\c', "\x00", "\x1f", "\x7f", "\x85",
    "\u2028", "\U0001f600", "tab\there", "\n", "e\u0301", "日本", "w",
)


def random_odd_record(rng: random.Random, doc_id: str) -> DocumentRecord:
    n = rng.randint(1, 30)
    edus = random_edus(rng, n)
    n_tokens = edus[-1].last_token + 1
    starts, offset = [], rng.randint(0, 3)
    for _ in range(n_tokens):
        starts.append(offset)
        offset += rng.randint(1, 4)
    return DocumentRecord(
        doc_id=doc_id + rng.choice(_ODD_TEXTS),
        genre=rng.choice(_ODD_TEXTS + ("",)),
        lang=rng.choice(["en", "ru", "other"]),
        tokens=tuple(rng.choice(_ODD_TEXTS) for _ in range(n_tokens)),
        char_starts=tuple(starts),
        edus=edus,
        tree=random_tree(rng, n) if rng.random() < 0.5 else None,
        sentence_boundaries=sorted({0, rng.randrange(n_tokens)})
        if rng.random() < 0.5
        else None,
        split=rng.choice(["train", "dev", "test"]),
    )


# The one line of golden_record.jsonl, built field by field.
GOLDEN_PATH = Path(__file__).with_name("golden_record.jsonl")
GOLDEN_RECORD = DocumentRecord(
    doc_id="GUM_news_golden",
    genre="news",
    lang="en",
    tokens=("Zo\u00eb", "said", '"', "hi", '"', "."),
    char_starts=(0, 4, 9, 10, 12, 13),
    edus=(EduSpan(0, 1), EduSpan(2, 5)),
    tree=build_tree((0, 1, "attribution_SN")),
    sentence_boundaries=(0,),
    split="dev",
)


class TestWriterOracle:
    def test_lines_equal_the_reference_byte_for_byte(self):
        rng = random.Random(31)
        kinds = set()
        for i in range(300):
            doc = random_odd_record(rng, f"d{i}")
            fast, slow = io.StringIO(), io.StringIO()
            write_record(fast, doc)
            reference_write_record(slow, doc)
            assert fast.getvalue().encode("utf-8") == slow.getvalue().encode("utf-8")
            kinds.add((doc.tree is None, doc.sentence_boundaries is None))
        assert len(kinds) == 4  # tree and sents each null and present

    def test_golden_line(self):
        # Pins the separators (", " and ": "), the field order and escaping.
        out = io.StringIO()
        write_record(out, GOLDEN_RECORD)
        assert out.getvalue().encode("utf-8") == GOLDEN_PATH.read_bytes()
        assert list(iter_canonical(GOLDEN_PATH)) == [GOLDEN_RECORD]


class TestReadMemory:
    # A Token object per token cost ~205 B per token here; the two token
    # columns cost ~124 B.
    MAX_BYTES_PER_TOKEN = 150

    def test_read_records_stay_under_the_bound(self, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "c.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(8):
                edus = random_edus(rng, 120, max_tokens=16)
                write_record(fh, make_document(f"d{i}", random_tree(rng, 120), edus))
        list(iter_canonical(path))  # labels and other caches filled first
        docs = []
        retained, _ = traced_peak(lambda: docs.extend(iter_canonical(path)))
        n_tokens = sum(doc.n_tokens for doc in docs)
        assert retained / n_tokens < self.MAX_BYTES_PER_TOKEN


def write_and_reload(corpus, tmp_path):
    path = tmp_path / "tmp.jsonl"
    write_corpus(corpus, path)
    return path.read_text(encoding="utf-8").splitlines()[0]


class TestSentenceFile:
    def test_reads_boundaries(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("# id\tstarts\nd1\t0 4 9\nd2\t0\n", encoding="utf-8")
        assert read_sentence_file(path) == {"d1": (0, 4, 9), "d2": (0,)}

    def test_repeated_document_id_is_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("d1\t0 4\nd2\t0\nd1\t0 2\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as err:
            read_sentence_file(path)
        assert err.value.line_number == 3
