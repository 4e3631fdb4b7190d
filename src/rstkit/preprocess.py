"""Corpus preprocessing: relation remapping, forest splitting, filtering.

The shipped remap table fixes the systematic mislabelings of the Russian
news+blogs treebank: name-level merges (cause/effect -> cause-effect etc.)
are listed before the nuclearity-specific rows, and a label is rewritten by
the first matching rule only (single pass, no transitive chaining).  Rules
that change the nuclearity suffix (e.g. solutionhood_NS -> solutionhood_SN)
relabel the node in place: children keep their text order, their roles swap.

All transforms are pure and per-document; mapping them over a corpus in
parallel is safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .core import (
    Corpus,
    DocumentRecord,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    Split,
)
from .treebank import Rs3Component, component_to_record

__all__ = [
    "RemapRule",
    "RemapTable",
    "PreprocessReport",
    "UnknownLabel",
    "default_rrt_remap_table",
    "load_remap_table",
    "parse_remap_rules",
    "dump_remap_table",
    "remap_rrt_labels",
    "remap_document",
    "split_forest",
    "filter_single_edu",
    "preprocess_records",
    "preprocess_corpus",
    "label_histogram",
]


class UnknownLabel(RstError):
    """A label matched no remap rule and is not in the registered inventory."""


@dataclass(frozen=True, slots=True)
class RemapRule:
    """One rewrite: match a relation (optionally nuclearity-specific) and
    replace the name, optionally forcing a new nuclearity."""

    match_relation: str
    match_nuclearity: Nuclearity | None
    replace_relation: str
    replace_nuclearity: Nuclearity | None

    def __post_init__(self) -> None:
        if self.match_relation == self.replace_relation and (
            self.replace_nuclearity is None
            or self.replace_nuclearity == self.match_nuclearity
        ):
            raise RstError(f"rule maps {self.match_relation!r} to itself")

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


@dataclass(frozen=True, slots=True)
class RemapTable:
    rules: tuple[RemapRule, ...]

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
            raise RstError(f"remap rule needs two columns: {raw.rstrip()!r}")
        match_rel, match_nuc = _parse_side(parts[0])
        repl_rel, repl_nuc = _parse_side(parts[1])
        rules.append(RemapRule(match_rel, match_nuc, repl_rel, repl_nuc))
    return RemapTable(tuple(rules))


def load_remap_table(path) -> RemapTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_remap_rules(fh)


def dump_remap_table(table: RemapTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.as_text())


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


def remap_rrt_labels(
    tree: RstTree,
    table: RemapTable,
    inventory: set[str] | None = None,
) -> RstTree:
    """Rewrite all matched labels in a tree; structure is unchanged.

    When ``inventory`` (a set of merged labels) is given, a label that
    matches no rule and is not registered raises UnknownLabel.
    """
    remapped, _ = remap_tree_counting(tree, table, inventory)
    return remapped


def remap_tree_counting(
    tree: RstTree,
    table: RemapTable,
    inventory: set[str] | None = None,
) -> tuple[RstTree, Counter]:
    counts: Counter = Counter()
    results: list[RstTree] = []
    stack: list[tuple[str, RstTree]] = [("visit", tree)]
    while stack:
        op, node = stack.pop()
        if op == "visit":
            if node.is_leaf:
                results.append(node)
            else:
                stack.append(("combine", node))
                stack.append(("visit", node.right))  # type: ignore[arg-type]
                stack.append(("visit", node.left))  # type: ignore[arg-type]
        else:
            right = results.pop()
            left = results.pop()
            label = node.label
            assert label is not None
            new_label, rule_index = table.apply(label)
            if rule_index is None and inventory is not None:
                if label.merged not in inventory:
                    raise UnknownLabel(f"label {label.merged} is not in the inventory")
            if rule_index is not None:
                counts[rule_index] += 1
            results.append(RstTree.internal(left, right, new_label))
    (remapped,) = results
    return remapped, counts


def remap_document(
    doc: DocumentRecord,
    table: RemapTable,
    inventory: set[str] | None = None,
) -> tuple[DocumentRecord, Counter]:
    if doc.tree is None:
        return doc, Counter()
    tree, counts = remap_tree_counting(doc.tree, table, inventory)
    return replace(doc, tree=tree), counts


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
    if not components:
        return []
    if len(components) == 1:
        return [component_to_record(components[0], file_id, genre, lang, split)]
    return [
        component_to_record(comp, f"{file_id}_part_{i}", genre, lang, split)
        for i, comp in enumerate(components, start=1)
    ]


def filter_single_edu(corpus: Corpus) -> tuple[Corpus, int]:
    """Drop documents whose tree is a bare leaf (single-EDU documents)."""
    kept = [
        doc
        for doc in corpus.documents
        if not (len(doc.edus) == 1 and (doc.tree is None or doc.tree.is_leaf))
    ]
    dropped = len(corpus.documents) - len(kept)
    return Corpus.from_documents(corpus.name, kept), dropped


def label_histogram(documents: Iterable[DocumentRecord]) -> Counter:
    """Merged-label counts over all internal nodes."""
    hist: Counter = Counter()
    for doc in documents:
        if doc.tree is None:
            continue
        for node in doc.tree.internal_nodes():
            hist[node.label.merged] += 1  # type: ignore[union-attr]
    return hist


@dataclass(frozen=True, slots=True)
class PreprocessReport:
    documents_in: int
    documents_out: int
    trees_extracted: int
    single_edu_dropped: int
    rewrites: tuple[tuple[str, int], ...]
    histogram_before: tuple[tuple[str, int], ...]
    histogram_after: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.trees_extracted != self.documents_out + self.single_edu_dropped:
            raise RstError(
                "inconsistent report: trees != documents out + dropped "
                f"({self.trees_extracted} != {self.documents_out} + "
                f"{self.single_edu_dropped})"
            )

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


def preprocess_records(
    records: Sequence[DocumentRecord],
    documents_in: int,
    name: str = "corpus",
    table: RemapTable | None = None,
    inventory: set[str] | None = None,
    drop_single_edu: bool = True,
) -> tuple[Corpus, PreprocessReport]:
    """Remap labels, build the corpus and drop single-EDU documents.

    ``records`` holds one document per extracted tree, read from
    ``documents_in`` input files.
    """
    histogram_before = label_histogram(records)

    rewrites: Counter = Counter()
    if table is not None:
        remapped = []
        for doc in records:
            doc, counts = remap_document(doc, table, inventory)
            rewrites.update(counts)
            remapped.append(doc)
        records = remapped

    corpus = Corpus.from_documents(name, records)
    dropped = 0
    if drop_single_edu:
        corpus, dropped = filter_single_edu(corpus)

    rule_counts = tuple(
        (rule.as_text().replace("\t", " -> "), rewrites.get(i, 0))
        for i, rule in enumerate(table.rules)
    ) if table is not None else ()
    report = PreprocessReport(
        documents_in=documents_in,
        documents_out=len(corpus.documents),
        trees_extracted=len(records),
        single_edu_dropped=dropped,
        rewrites=rule_counts,
        histogram_before=tuple(sorted(histogram_before.items())),
        histogram_after=tuple(sorted(label_histogram(corpus.documents).items())),
    )
    return corpus, report


def preprocess_corpus(
    files: Sequence[tuple[str, Sequence[Rs3Component]]],
    name: str = "corpus",
    genre: str | Mapping[str, str] = "unknown",
    lang: str = "en",
    splits: Mapping[str, Split | str] | None = None,
    table: RemapTable | None = None,
    inventory: set[str] | None = None,
    drop_single_edu: bool = True,
    split_forests: bool = True,
) -> tuple[Corpus, PreprocessReport]:
    """Run the full preprocessing pipeline over parsed rs3 files.

    ``files`` pairs a file id with its extracted components.  ``genre`` is a
    constant or a per-file mapping; ``splits`` optionally assigns train/dev/
    test per file id (defaulting to train).  The records split out of the
    files go through :func:`preprocess_records`.
    """
    records: list[DocumentRecord] = []
    for file_id, components in files:
        file_genre = genre if isinstance(genre, str) else genre.get(file_id, "unknown")
        file_split = Split.TRAIN if splits is None else splits.get(file_id, Split.TRAIN)
        if not split_forests and len(components) > 1:
            raise RstError(
                f"{file_id} holds {len(components)} trees; "
                "enable forest splitting to process it"
            )
        records.extend(split_forest(file_id, components, file_genre, lang, file_split))
    return preprocess_records(
        records,
        len(files),
        name=name,
        table=table,
        inventory=inventory,
        drop_single_edu=drop_single_edu,
    )
