import random
from collections import Counter

import pytest

from rstkit.core import (
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
)
from rstkit.preprocess import (
    PreprocessReport,
    RemapRule,
    default_rrt_remap_table,
    parse_remap_rules,
    remap_tree_counting,
    split_forest,
)
from rstkit.treebank import extract_forest, parse_rs3

from helpers import (
    build_tree,
    describe,
    dump_remap_table,
    label_histogram,
    make_document,
    preprocess_documents,
    random_tree,
    serialize_rs3_forest,
)

from conftest import RAW_LABEL_CYCLE, EXPECTED_REMAPPED_CLASSES, build_forest_corpus


TABLE = default_rrt_remap_table()


def remap_one(merged: str) -> str:
    label, _ = TABLE.apply(RelationLabel.from_merged(merged))
    return label.merged


class TestRemapTable:
    @pytest.mark.parametrize("nuc", ["NS", "SN", "NN"])
    def test_antithesis_becomes_attribution_any_nuclearity(self, nuc):
        assert remap_one(f"antithesis_{nuc}") == f"attribution_{nuc}"

    def test_restatement_sn_becomes_condition_sn(self):
        assert remap_one("restatement_SN") == "condition_SN"

    def test_restatement_ns_becomes_elaboration_ns(self):
        assert remap_one("restatement_NS") == "elaboration_NS"

    def test_unlisted_labels_are_identity(self):
        assert remap_one("elaboration_NS") == "elaboration_NS"
        assert remap_one("joint_NN") == "joint_NN"

    def test_nuclearity_flip_rules(self):
        assert remap_one("solutionhood_NS") == "solutionhood_SN"
        assert remap_one("background_NS") == "elaboration_SN"
        assert remap_one("preparation_NS") == "elaboration_NS"
        assert remap_one("elaboration_SN") == "preparation_SN"

    def test_single_pass_no_chaining(self):
        # background_NS maps to elaboration_SN and stays there even though
        # a separate rule rewrites original elaboration_SN labels.
        assert remap_one("background_NS") == "elaboration_SN"

    def test_name_merges_keep_nuclearity(self):
        assert remap_one("cause_NS") == "cause-effect_NS"
        assert remap_one("effect_SN") == "cause-effect_SN"
        assert remap_one("motivation_NS") == "condition_NS"
        assert remap_one("evaluation_SN") == "interpretation-evaluation_SN"

    def test_identity_rule_rejected(self):
        with pytest.raises(RstError):
            RemapRule("joint", None, "joint", None)

    def test_text_round_trip(self):
        text = TABLE.as_text()
        assert parse_remap_rules(text.splitlines()) == TABLE

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "rules.tsv"
        dump_remap_table(TABLE, path)
        from rstkit.preprocess import load_remap_table

        assert load_remap_table(path) == TABLE

    def test_bad_rule_line(self):
        with pytest.raises(RstError):
            parse_remap_rules(["one-column"])


class TestRemapTree:
    def test_structure_is_preserved(self):
        rng = random.Random(2)
        raw = list(RAW_LABEL_CYCLE)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(2, 10), raw)
            remapped = remap_tree_counting(tree, TABLE)[0]
            assert remapped.n_leaves == tree.n_leaves
            shape = lambda d: d if isinstance(d, int) else (shape(d[0]), shape(d[1]))
            assert shape(describe(remapped)) == shape(describe(tree))

    def test_child_order_is_preserved_on_nuclearity_flip(self):
        tree = build_tree((0, 1, "solutionhood_NS"))
        remapped = remap_tree_counting(tree, TABLE)[0]
        assert remapped.left.is_leaf and remapped.left.first_edu == 0
        assert remapped.label == RelationLabel("solutionhood", Nuclearity.SN)

    def test_histogram_mass_moves_along_rules(self):
        tree = build_tree(
            ((0, 1, "antithesis_NS"), (2, 3, "joint_NN"), "restatement_SN")
        )
        doc = make_document("d", tree)
        before = label_histogram([doc])
        remapped = remap_tree_counting(tree, TABLE)[0]
        after = label_histogram([make_document("d", remapped)])
        assert sum(before.values()) == sum(after.values()) == 3
        assert after == Counter(
            {"attribution_NS": 1, "joint_NN": 1, "condition_SN": 1}
        )

    def test_known_label_passes_inventory_check(self):
        # A label no rule matches is kept as it is; no inventory is consulted.
        for label in ("elaboration_NS", "mystery_NS"):
            tree = build_tree((0, 1, label))
            assert remap_tree_counting(tree, TABLE)[0] == tree

    def test_equals_a_recursive_relabel(self):
        def relabel(node, counts):
            # each label against the rules in order, by hand; the first match wins
            if node.left is None:
                return node
            relation, nuclearity = node.label.relation, node.label.nuclearity
            for i, rule in enumerate(TABLE.rules):
                if rule.match_relation == relation and rule.match_nuclearity in (
                    None, nuclearity
                ):
                    counts[i] += 1
                    relation = rule.replace_relation
                    nuclearity = rule.replace_nuclearity or nuclearity
                    break
            left, right = relabel(node.left, counts), relabel(node.right, counts)
            return RstTree.internal(left, right, RelationLabel(relation, nuclearity))

        rng = random.Random(27)
        labels = [*RAW_LABEL_CYCLE, "solutionhood_NS", "background_NS",
                  "elaboration_SN", "evaluation_SN", "interpretation_NN", "joint_NN"]
        trees = [random_tree(rng, rng.randint(1, 40), labels) for _ in range(60)]
        for tree in [RstTree.leaf(0), *trees]:
            expected_counts = Counter()
            expected = relabel(tree, expected_counts)
            remapped, counts = remap_tree_counting(tree, TABLE)
            assert remapped == expected
            assert counts == expected_counts
        assert remap_tree_counting(RstTree.leaf(0), TABLE)[0] is RstTree.leaf(0)

    def test_rewrite_counts(self):
        tree = build_tree(((0, 1, "antithesis_NS"), 2, "antithesis_SN"))
        _, counts = remap_tree_counting(tree, TABLE)
        assert sum(counts.values()) == 2
        (rule_index,) = counts
        assert TABLE.rules[rule_index].match_relation == "antithesis"


class TestSplitForest:
    def forest(self, sizes, seed=0):
        rng = random.Random(seed)
        docs = [
            make_document(f"c{i}", random_tree(rng, n), genre="news", lang="ru")
            for i, n in enumerate(sizes)
        ]
        return extract_forest(parse_rs3(serialize_rs3_forest(docs)))

    def test_single_component_keeps_id(self):
        records = split_forest("solo", self.forest([4]), "news", "ru", "train")
        assert [r.doc_id for r in records] == ["solo"]

    def test_three_components_inherit_split(self):
        records = split_forest("doc", self.forest([2, 3, 4]), "news", "ru", "train")
        assert [r.doc_id for r in records] == [
            "doc_part_1",
            "doc_part_2",
            "doc_part_3",
        ]
        assert all(r.split.value == "train" for r in records)

    def test_edu_order_reproduces_segment_order(self):
        forest = self.forest([2, 3], seed=4)
        records = split_forest("doc", forest, "news", "ru", "train")
        flat = [t for c in forest for t in c.edu_texts]
        rebuilt = []
        for record in records:
            for edu in record.edus:
                rebuilt.append(
                    " ".join(record.tokens[edu.first_token : edu.last_token + 1])
                )
        assert rebuilt == flat


class TestPreprocessCorpus:
    def test_pipeline_on_forest_fixture(self, tmp_path):
        fixture = build_forest_corpus(tmp_path / "rrt")
        records = []
        for path in sorted(fixture.directory.glob("*.rs3")):
            forest = extract_forest(parse_rs3(path.read_bytes()))
            records.extend(split_forest(path.stem, forest, lang="ru"))
        documents, report = preprocess_documents(records, fixture.n_files, table=TABLE)
        assert report.documents_in == fixture.n_files
        assert report.trees_extracted == fixture.n_trees
        assert report.single_edu_dropped == fixture.n_single_edu
        assert report.documents_out == fixture.n_kept
        assert report.classes_after == EXPECTED_REMAPPED_CLASSES
        small = sum(1 for d in documents if 2 <= len(d.edus) <= 4)
        assert small == fixture.n_small_trees
        assert report.render()

    @pytest.mark.parametrize("table", [None, TABLE], ids=["no-remap", "remap"])
    @pytest.mark.parametrize("drop", [False, True], ids=["keep", "drop"])
    def test_inventory_and_histograms_equal_a_fresh_walk(self, tmp_path, table, drop):
        fixture = build_forest_corpus(tmp_path / "rrt")
        records = []
        for path in sorted(fixture.directory.glob("*.rs3")):
            records.extend(split_forest(path.stem, extract_forest(parse_rs3(path.read_bytes()))))
        documents, report = preprocess_documents(records, fixture.n_files, table=table,
                                                 drop_single_edu=drop)
        assert report.histogram_before == tuple(sorted(label_histogram(records).items()))
        assert report.histogram_after == tuple(
            sorted(label_histogram(documents).items())
        )
        assert report.single_edu_dropped == (fixture.n_single_edu if drop else 0)
        if table is None:
            assert documents == [d for d in records if not (drop and len(d.edus) == 1)]

    def test_report_invariant_enforced(self):
        with pytest.raises(RstError):
            PreprocessReport(1, 2, 4, 1, (), (), ())
