"""Command-line entry point: one subcommand per pipeline stage.

Every subcommand is deterministic for identical inputs and seeds.
``convert`` and ``preprocess`` write documents in sorted id order;
``segment`` and ``parse`` keep the input order.  ``stats`` (without
``--by-genre``), ``segment`` and ``parse`` stream documents one at a time,
so their memory stays bounded by the largest single document; ``eval``
holds the predictions, and ``train-segmenter`` and ``stats --by-genre``
hold the whole corpus.  A document id may occur only once per input file.
Exit codes: 0 success, 1 user error (bad flags, malformed input),
2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .core import Corpus, RstError, Split
from . import crf as crf_mod
from . import dwa as dwa_mod
from . import metrics as metrics_mod
from . import preprocess as prep_mod
from . import treebank as tb_mod
from .decoder import (
    DecodeConfig,
    OracleProvider,
    RightBranchingProvider,
    ScoreTable,
    decode,
)

DATA_DIR_ENV = "RSTKIT_DATA_DIR"
DEFAULT_SEED = 13


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2
    # for internal failures, so remap usage problems to exit code 1.
    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        under_base = Path(base) / path
        if under_base.exists():
            return under_base
    return candidate


def _input_path(path: str) -> Path:
    resolved = _resolve(path)
    if not resolved.exists():
        raise RstError(f"input path does not exist: {path}")
    return resolved


def _rs3_paths(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    files = sorted(path.glob("*.rs3"))
    if not files:
        raise RstError(f"no .rs3 files under {path}")
    return files


def _guess_genre(file_id: str, field: int) -> str:
    parts = file_id.split("_")
    return parts[field] if 0 <= field < len(parts) else "unknown"


def _read_split_map(path: str | None) -> dict[str, Split]:
    if path is None:
        return {}
    table = {}
    with open(_input_path(path), "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            doc_id, _, split = line.partition("\t")
            if not split:
                doc_id, _, split = line.partition(" ")
            try:
                table[doc_id.strip()] = Split(split.strip())
            except ValueError:
                raise RstError(
                    f"{path}: line {line_number}: split must be train, dev or "
                    f"test, got {split.strip()!r}"
                ) from None
    return table


def _load_rs3_corpus(args, drop_single_edu: bool, table, split_forests: bool = True):
    paths = _rs3_paths(_input_path(args.input))
    splits = _read_split_map(getattr(args, "split_map", None))
    files = []
    genres = {}
    for path in paths:
        file_id = path.stem
        files.append((file_id, tb_mod.read_rs3_file(path)))
        genres[file_id] = (
            args.genre
            if args.genre is not None
            else _guess_genre(file_id, args.genre_field)
        )
    default_split = Split(args.split)
    split_map = {fid: splits.get(fid, default_split) for fid, _ in files}
    return prep_mod.preprocess_corpus(
        files,
        name=Path(args.input).stem or "corpus",
        genre=genres,
        lang=args.lang,
        splits=split_map,
        table=table,
        drop_single_edu=drop_single_edu,
        split_forests=split_forests,
    )


def _write_sorted(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for doc in sorted(corpus.documents, key=lambda d: d.doc_id):
            tb_mod.write_record(out, doc)


def _unique_records(path: Path):
    """Stream a canonical file, rejecting a document id seen before."""
    seen: set[str] = set()
    for doc in tb_mod.iter_canonical(path):
        if doc.doc_id in seen:
            raise RstError(f"{path}: duplicate document id {doc.doc_id}")
        seen.add(doc.doc_id)
        yield doc


def _add_rs3_input_flags(parser) -> None:
    parser.add_argument("--genre", default=None, help="constant genre for all files")
    parser.add_argument(
        "--genre-field",
        type=int,
        default=1,
        help="underscore-separated filename field holding the genre (default 1)",
    )
    parser.add_argument("--lang", default="en", choices=("en", "ru", "other"))
    parser.add_argument("--split", default="train", choices=("train", "dev", "test"))
    parser.add_argument(
        "--split-map", default=None, help="two-column file assigning splits by file id"
    )


def cmd_convert(args) -> int:
    corpus, report = _load_rs3_corpus(args, drop_single_edu=False, table=None)
    _write_sorted(corpus, args.output)
    print(report.render())
    print(f"wrote {len(corpus.documents)} records to {args.output}")
    return 0


def _load_remap(value: str | None):
    if value is None or value == "none":
        return None
    if value == "default":
        return prep_mod.default_rrt_remap_table()
    return prep_mod.load_remap_table(_input_path(value))


def cmd_preprocess(args) -> int:
    table = _load_remap(args.remap)
    in_path = _input_path(args.input)
    if in_path.is_dir() or in_path.suffix == ".rs3":
        corpus, report = _load_rs3_corpus(
            args,
            drop_single_edu=args.drop_single_edu,
            table=table,
            split_forests=args.split_forests,
        )
    else:
        records = list(tb_mod.iter_canonical(in_path))
        corpus, report = prep_mod.preprocess_records(
            records,
            len(records),
            name=in_path.stem,
            table=table,
            drop_single_edu=args.drop_single_edu,
        )
    _write_sorted(corpus, args.output)
    print(report.render())
    print(f"wrote {len(corpus.documents)} records to {args.output}")
    return 0


def cmd_dump_remap_table(args) -> int:
    table = prep_mod.default_rrt_remap_table()
    if args.output:
        prep_mod.dump_remap_table(table, args.output)
    else:
        sys.stdout.write(table.as_text())
    return 0


def cmd_stats(args) -> int:
    in_path = _input_path(args.input)
    name = in_path.stem
    sentences = (
        tb_mod.read_sentence_file(_input_path(args.sents)) if args.sents else None
    )
    spanned = not args.no_spanned
    rows = {}
    if args.by_genre:
        corpus = tb_mod.read_canonical(in_path)
        rows[name] = metrics_mod.corpus_stats(corpus.documents, sentences, spanned)
        for genre, stats in metrics_mod.genre_breakdown(
            corpus, sentences, spanned
        ).items():
            rows[f"{name}/{genre}"] = stats
    else:
        # streaming pass; memory stays bounded by the largest document
        rows[name] = metrics_mod.corpus_stats(
            _unique_records(in_path), sentences, spanned
        )
    if args.csv:
        sys.stdout.write(metrics_mod.stats_csv(rows))
    else:
        print(metrics_mod.format_stats_table(rows))
    return 0


def cmd_train_segmenter(args) -> int:
    corpus = tb_mod.read_canonical(_input_path(args.input))
    docs = [d for d in corpus.documents if args.split in ("all", d.split.value)]
    if not docs:
        raise RstError(f"no documents in split {args.split!r}")
    extractor = crf_mod.HashedWindowFeatures(args.buckets)
    config = crf_mod.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        l2=args.l2,
        seed=args.seed,
    )
    dataset = crf_mod.dataset_from_corpus(docs, extractor)
    model = crf_mod.CrfModel.create(extractor.dim)
    model, curve = crf_mod.train(model, dataset, config)
    crf_mod.save_model(model, args.output, extractor)
    print(
        f"trained on {len(dataset)} documents for {args.epochs} epochs; "
        f"final mean NLL {curve[-1]:.4f}"
    )
    return 0


def cmd_segment(args) -> int:
    model, extractor = crf_mod.load_model(_input_path(args.model))
    if extractor is None:
        raise RstError("model file does not carry feature settings")
    count = 0
    with open(args.output, "w", encoding="utf-8") as out:
        for doc in _unique_records(_input_path(args.input)):
            labels = crf_mod.viterbi(model, extractor(doc.token_texts()))
            edus = crf_mod.labels_to_edus(labels)
            tb_mod.write_record(out, replace(doc, edus=edus, tree=None))
            count += 1
    print(f"segmented {count} documents -> {args.output}")
    return 0


def _read_inventory(args, in_path) -> tuple[str, ...]:
    if args.inventory:
        with open(_input_path(args.inventory), "r", encoding="utf-8") as fh:
            labels = tuple(line.strip() for line in fh if line.strip())
        if not labels:
            raise RstError("inventory file is empty")
        return labels
    observed: set[str] = set()
    for doc in tb_mod.iter_canonical(in_path):
        if doc.tree is not None:
            for node in doc.tree.internal_nodes():
                observed.add(node.label.merged)
    if args.baseline:
        observed.add(args.baseline)
    if not observed:
        raise RstError("no label inventory: pass --inventory")
    return tuple(sorted(observed))


def cmd_parse(args) -> int:
    modes = [bool(args.oracle), args.baseline is not None, args.scores is not None]
    if sum(modes) != 1:
        raise RstError("choose exactly one of --oracle, --baseline, --scores")
    in_path = _input_path(args.input)
    labels = _read_inventory(args, in_path)
    strategy = "beam" if args.beam > 1 else "greedy"
    config = DecodeConfig(labels=labels, strategy=strategy, beam_width=args.beam)
    score_table = ScoreTable.load(_input_path(args.scores)) if args.scores else None

    count = 0
    with open(args.output, "w", encoding="utf-8") as out:
        for doc in _unique_records(in_path):
            if args.oracle:
                if doc.tree is None:
                    raise RstError(f"{doc.doc_id}: oracle mode needs gold trees")
                provider = OracleProvider(doc.tree, labels)
            elif args.baseline is not None:
                provider = RightBranchingProvider(args.baseline, labels)
            else:
                provider = score_table.provider(doc.doc_id)  # type: ignore[union-attr]
            tree = decode(len(doc.edus), provider, config)
            tb_mod.write_record(out, replace(doc, tree=tree))
            count += 1
    print(f"parsed {count} documents -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    # predictions are indexed in memory; gold documents stream past them
    pred_by_id = {doc.doc_id: doc for doc in _unique_records(_input_path(args.pred))}

    def score_pair(gold_doc, pred_doc):
        if pred_doc.tree is None:
            raise RstError(f"{pred_doc.doc_id}: prediction has no tree")
        if gold_doc.tree is None:
            raise RstError(f"{gold_doc.doc_id}: gold has no tree")
        if args.end_to_end:
            return metrics_mod.end_to_end_eval(gold_doc, pred_doc.edus, pred_doc.tree)
        if gold_doc.edus != pred_doc.edus:
            raise RstError(
                f"{gold_doc.doc_id}: EDUs differ from gold; use --end-to-end"
            )
        seg = metrics_mod.segmentation_f1(
            gold_doc.edus, pred_doc.edus, len(gold_doc.tokens)
        )
        return seg, metrics_mod.parseval(
            gold_doc.tree, pred_doc.tree, gold_doc.edus, pred_doc.edus
        )

    total_seg = metrics_mod.MetricCounts()
    total = metrics_mod.ParsevalScores.zero()
    by_genre: dict[str, tuple] = {}
    scored = 0
    for gold_doc in _unique_records(_input_path(args.gold)):
        pred_doc = pred_by_id.pop(gold_doc.doc_id, None)
        if args.genre is not None and gold_doc.genre != args.genre:
            continue
        if pred_doc is None:
            raise RstError(f"prediction missing for document {gold_doc.doc_id}")
        seg, scores = score_pair(gold_doc, pred_doc)
        scored += 1
        total_seg += seg
        total += scores
        if args.by_genre:
            prev_seg, prev = by_genre.get(
                gold_doc.genre,
                (metrics_mod.MetricCounts(), metrics_mod.ParsevalScores.zero()),
            )
            by_genre[gold_doc.genre] = (prev_seg + seg, prev + scores)

    if pred_by_id:
        raise RstError(f"predictions without a gold document: {sorted(pred_by_id)}")
    if not scored:
        raise RstError("no documents matched the evaluation filter")
    rows = {"all": (total_seg if args.end_to_end else None, total)}
    for genre in sorted(by_genre):
        seg, scores = by_genre[genre]
        rows[genre] = (seg if args.end_to_end else None, scores)
    metrics = args.metrics.split(",") if args.metrics else None
    if args.csv:
        sys.stdout.write(metrics_mod.parseval_csv(rows, metrics))
    else:
        print(metrics_mod.format_parseval_table(rows, metrics))
    return 0


def cmd_dwa_sim(args) -> int:
    with open(_input_path(args.losses), "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = []
        first = True
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                if not first:  # a header is only allowed on the first line
                    raise RstError(f"non-numeric loss row: {row}") from None
            first = False
    if not rows:
        raise RstError(f"{args.losses}: no loss rows")
    trajectory = dwa_mod.simulate(rows, args.tasks, args.window, args.temp)
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow([f"lambda_{k + 1}" for k in range(args.tasks)])
        for weights in trajectory:
            writer.writerow([f"{w:.12g}" for w in weights])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rstkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rstkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="parse .rs3 files, binarize, write canonical")
    p.add_argument("input", help=".rs3 file or directory")
    p.add_argument("-o", "--output", required=True, help="canonical output file")
    _add_rs3_input_flags(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "preprocess", help="remap labels, split forests, drop single-EDU documents"
    )
    p.add_argument("input", help=".rs3 directory/file or canonical file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--remap",
        default=None,
        help="'default', 'none' or a two-column rule file (default: none)",
    )
    p.add_argument(
        "--split-forests",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="treat each connected tree as a separate document",
    )
    p.add_argument(
        "--drop-single-edu",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exclude documents containing only a single EDU",
    )
    _add_rs3_input_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("dump-remap-table", help="print the shipped RRT remap table")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dump_remap_table)

    p = sub.add_parser("stats", help="corpus statistics table")
    p.add_argument("input", help="canonical corpus file")
    p.add_argument("--sents", default=None, help="external sentence boundary file")
    p.add_argument("--by-genre", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument(
        "--no-spanned",
        action="store_true",
        help="skip spanned-sentence coverage (no boundaries needed)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-segmenter", help="train the CRF EDU segmenter")
    p.add_argument("input", help="canonical corpus file with gold EDUs")
    p.add_argument("-o", "--output", required=True, help="model file (.npz)")
    p.add_argument("--split", default="train", choices=("train", "dev", "test", "all"))
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.2)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--buckets", type=int, default=1024)
    p.set_defaults(func=cmd_train_segmenter)

    p = sub.add_parser("segment", help="predict EDU boundaries with a trained model")
    p.add_argument("model", help="model file from train-segmenter")
    p.add_argument("input", help="canonical corpus file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("parse", help="decode trees with a score provider")
    p.add_argument("input", help="canonical corpus file (EDUs required)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--oracle", action="store_true", help="replay gold trees")
    p.add_argument("--baseline", default=None, metavar="LABEL",
                   help="right-branching baseline with one majority label")
    p.add_argument("--scores", default=None, help="external score file (JSON lines)")
    p.add_argument("--beam", type=int, default=1, help="beam width (1 = greedy)")
    p.add_argument("--inventory", default=None,
                   help="label inventory file, one relation_NUC per line")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("gold", help="gold canonical file")
    p.add_argument("pred", help="prediction canonical file")
    p.add_argument("--end-to-end", action="store_true",
                   help="score over predicted segmentation")
    p.add_argument("--by-genre", action="store_true")
    p.add_argument("--genre", default=None, help="restrict scoring to one genre")
    p.add_argument("--metrics", default=None,
                   help="comma-separated subset of S,N,R,Full")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dwa-sim", help="replay a loss log through the DWA scheduler")
    p.add_argument("losses", help="CSV of per-step task losses")
    p.add_argument("--tasks", "-k", type=int, default=3)
    p.add_argument("--window", "-b", type=int, default=dwa_mod.DEFAULT_WINDOW)
    p.add_argument("--temp", type=float, default=dwa_mod.DEFAULT_TEMPERATURE)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dwa_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RstError, OSError) as exc:
        print(f"rstkit: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"rstkit: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
