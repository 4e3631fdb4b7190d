"""Corpus preprocessing: relation remapping, forest splitting, filtering.

The shipped remap table fixes the systematic mislabelings of the Russian
news+blogs treebank: name-level merges (cause/effect -> cause-effect etc.)
are listed before the nuclearity-specific rows, and a label is rewritten by
the first matching rule only (single pass, no transitive chaining).  Rules
that change the nuclearity suffix (e.g. solutionhood_NS -> solutionhood_SN)
relabel the node in place: children keep their text order, their roles swap.

All transforms are pure and per-document; mapping them over a corpus in
parallel is safe; :class:`Preprocessor` applies them and tallies counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .core import (
    DocumentRecord,
    InputLines,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    Split,
    _Value,
    excerpt,
)
from .treebank import Rs3Component, component_to_record

__all__ = [
    "RemapRule",
    "RemapTable",
    "PreprocessReport",
    "default_rrt_remap_table",
    "load_remap_table",
    "parse_remap_rules",
    "split_forest",
    "Preprocessor",
]


class RemapRule(_Value):
    """One rewrite: match a relation (optionally nuclearity-specific) and
    replace the name, optionally forcing a new nuclearity."""

    __slots__ = _fields = ("match_relation", "match_nuclearity", "replace_relation",
                           "replace_nuclearity")

    def __init__(self, match_relation: str, match_nuclearity: Nuclearity | None,
                 replace_relation: str, replace_nuclearity: Nuclearity | None) -> None:
        if match_relation == replace_relation and (
            replace_nuclearity is None or replace_nuclearity == match_nuclearity
        ):
            raise RstError(f"rule maps {match_relation!r} to itself")
        # a replacement no label can carry would fail when first applied
        RelationLabel(replace_relation, replace_nuclearity or Nuclearity.NN)
        self._fill(locals())

    def matches(self, label: RelationLabel) -> bool:
        return label.relation == self.match_relation and (
            self.match_nuclearity is None or label.nuclearity == self.match_nuclearity
        )

    def apply(self, label: RelationLabel) -> RelationLabel:
        return RelationLabel(
            self.replace_relation, self.replace_nuclearity or label.nuclearity
        )

    def as_text(self) -> str:
        left = self.match_relation
        if self.match_nuclearity is not None:
            left += f"_{self.match_nuclearity.value}"
        right = self.replace_relation
        if self.replace_nuclearity is not None:
            right += f"_{self.replace_nuclearity.value}"
        return f"{left}\t{right}"


class RemapTable(_Value):
    __slots__ = _fields = ("rules",)

    def __init__(self, rules: tuple[RemapRule, ...]) -> None:
        self._fill(locals())

    def apply(self, label: RelationLabel) -> tuple[RelationLabel, int | None]:
        """Rewrite a label by the first matching rule; single pass, no
        chaining.  Returns the (possibly unchanged) label and the matched
        rule index, or None when nothing matched."""
        for i, rule in enumerate(self.rules):
            if rule.matches(label):
                return rule.apply(label), i
        return label, None

    def as_text(self) -> str:
        return "\n".join(rule.as_text() for rule in self.rules) + "\n"


def _parse_side(text: str) -> tuple[str, Nuclearity | None]:
    relation, sep, suffix = text.rpartition("_")
    if sep and suffix in Nuclearity.__members__:
        return relation.lower(), Nuclearity[suffix]
    return text.lower(), None


def parse_remap_rules(lines: Iterable[str]) -> RemapTable:
    """Parse two-column rule lines; '#' starts a comment."""
    rules = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise RstError(f"remap rule needs two columns {excerpt(raw.rstrip())}")
        match_rel, match_nuc = _parse_side(parts[0])
        repl_rel, repl_nuc = _parse_side(parts[1])
        rules.append(RemapRule(match_rel, match_nuc, repl_rel, repl_nuc))
    return RemapTable(tuple(rules))


def load_remap_table(path) -> RemapTable:
    with InputLines(path) as lines:
        return parse_remap_rules(lines)


# Name-level merges first, then the nuclearity-specific renamings; rewrites
# are single-pass, so e.g. background_NS ends up as elaboration_SN even
# though a separate rule rewrites original elaboration_SN labels.
_DEFAULT_RRT_RULES = """
antithesis          attribution
cause               cause-effect
effect              cause-effect
motivation          condition
evaluation          interpretation-evaluation
interpretation      interpretation-evaluation
restatement_SN      condition_SN
restatement_NS      elaboration_NS
solutionhood_NS     solutionhood_SN
preparation_NS      elaboration_NS
elaboration_SN      preparation_SN
background_NS       elaboration_SN
"""


def default_rrt_remap_table() -> RemapTable:
    """The shipped rewrite table for RRT 2.1 news+blogs annotations."""
    return parse_remap_rules(_DEFAULT_RRT_RULES.splitlines())


def remap_tree_counting(tree: RstTree, table: RemapTable) -> tuple[RstTree, Counter]:
    """Rewrite all matched labels in a tree, keeping its structure; the
    counter holds the rewrites per rule index."""
    counts: Counter = Counter()
    built: list[RstTree] = []
    # In reverse pre-order a node comes after both its subtrees, and its
    # left subtree was finished last.
    for node in reversed(list(tree.internal_nodes())):
        left = node.left if node.left.is_leaf else built.pop()  # type: ignore
        right = node.right if node.right.is_leaf else built.pop()  # type: ignore
        label, rule_index = table.apply(node.label)  # type: ignore[arg-type]
        if rule_index is not None:
            counts[rule_index] += 1
        built.append(RstTree.internal(left, right, label))  # type: ignore[arg-type]
    return (built.pop() if built else tree), counts


def split_forest(
    file_id: str,
    components: Sequence[Rs3Component],
    genre: str = "unknown",
    lang: str = "en",
    split: Split | str = Split.TRAIN,
) -> list[DocumentRecord]:
    """Turn the components of one rs3 file into standalone documents.

    A single-component file keeps its id; a k-component file yields ids
    ``<file_id>_part_1 .. _part_k`` in text order, all inheriting the
    original split assignment.
    """
    if len(components) == 1:
        return [component_to_record(components[0], file_id, genre, lang, split)]
    return [
        component_to_record(comp, f"{file_id}_part_{i}", genre, lang, split)
        for i, comp in enumerate(components, start=1)
    ]


def _tally_labels(hist: Counter, tree: RstTree) -> None:
    hist.update(node.label.merged for node in tree.internal_nodes())  # type: ignore


class PreprocessReport(_Value):
    __slots__ = _fields = ("documents_in", "documents_out", "trees_extracted",
                           "single_edu_dropped", "rewrites", "histogram_before",
                           "histogram_after")

    def __init__(self, documents_in: int, documents_out: int, trees_extracted: int,
                 single_edu_dropped: int, rewrites: tuple[tuple[str, int], ...],
                 histogram_before: tuple[tuple[str, int], ...],
                 histogram_after: tuple[tuple[str, int], ...]) -> None:
        if trees_extracted != documents_out + single_edu_dropped:
            raise RstError(
                "inconsistent report: trees != documents out + dropped "
                f"({trees_extracted} != {documents_out} + {single_edu_dropped})"
            )
        self._fill(locals())

    @property
    def classes_after(self) -> int:
        return len(self.histogram_after)

    def render(self) -> str:
        lines = [
            f"input files:        {self.documents_in}",
            f"trees extracted:    {self.trees_extracted}",
            f"single-EDU dropped: {self.single_edu_dropped}",
            f"documents out:      {self.documents_out}",
            f"label classes:      {len(self.histogram_before)} -> "
            f"{self.classes_after}",
        ]
        if any(count for _, count in self.rewrites):
            lines.append("label rewrites:")
            for rule, count in self.rewrites:
                if count:
                    lines.append(f"  {rule}: {count}")
        return "\n".join(lines)


class Preprocessor:
    """The one step each document of ``convert`` and ``preprocess`` takes:
    called on a document, it rewrites its labels by ``table``, tallies its
    merged labels before and after, and returns it, or ``None`` when
    ``drop_single_edu`` drops it.  It keeps counts, never documents."""

    __slots__ = ("table", "drop_single_edu", "trees", "dropped", "rewrites",
                 "before", "after")

    def __init__(
        self, table: RemapTable | None = None, drop_single_edu: bool = True
    ) -> None:
        self.table = table
        self.drop_single_edu = drop_single_edu
        self.trees = self.dropped = 0
        self.rewrites: Counter = Counter()  # by rule index
        self.before: Counter = Counter()
        # without a table no label changes, so one histogram serves both
        self.after: Counter = self.before if table is None else Counter()

    def __call__(self, doc: DocumentRecord) -> DocumentRecord | None:
        self.trees += 1
        tree = doc.tree
        if tree is not None:
            _tally_labels(self.before, tree)
            if self.table is not None:
                tree, counts = remap_tree_counting(tree, self.table)
                self.rewrites.update(counts)
                _tally_labels(self.after, tree)
                doc = doc.with_tree(tree)
        # A single-EDU document has no internal node, so dropping it leaves
        # the histograms as they are.
        if self.drop_single_edu and len(doc.edus) == 1:
            self.dropped += 1
            return None
        return doc

    def report(self, documents_in: int) -> PreprocessReport:
        """The report of every document seen, from ``documents_in`` inputs."""
        rule_counts = tuple(
            (rule.as_text().replace("\t", " -> "), self.rewrites.get(i, 0))
            for i, rule in enumerate(self.table.rules)
        ) if self.table is not None else ()
        return PreprocessReport(
            documents_in=documents_in,
            documents_out=self.trees - self.dropped,
            trees_extracted=self.trees,
            single_edu_dropped=self.dropped,
            rewrites=rule_counts,
            histogram_before=tuple(sorted(self.before.items())),
            histogram_after=tuple(sorted(self.after.items())),
        )
