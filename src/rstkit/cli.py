"""Command-line entry point: one subcommand per pipeline stage.

Every subcommand is deterministic for identical inputs and seeds.
``convert`` and ``preprocess`` write documents in sorted id order; they
hold one encoded line per document plus the trees of one ``.rs3`` file,
and read their input files in order, so a defect in an earlier file (a
forest under ``--no-split-forests``) is reported before an XML error in a
later one.  ``segment`` and ``parse`` keep the input order and read their
input once.
``stats`` (always), ``segment`` and ``parse`` stream documents one at a
time, so they hold the largest document plus each id read, which the
duplicate-id check keeps (``stats`` also keeps each token count);
``train-segmenter`` holds only the documents of its ``--split``.  ``eval``
walks its two files in step: it reads a gold document, then predictions up
to that document's, so it holds only the predictions that arrive ahead of
their gold document (none when both files are in one order, as ``convert``
and ``parse`` write them).
``parse --scores`` walks its corpus and score dump the same way and holds
one document's run of the dump; of two bad lines each reports the first
its walk meets.  Every input file read line by line goes through
``core.InputLines``, so an error about a line reads ``<path>: line N:
...``; an id may occur once per file.  An
output file given with ``-o`` appears only when its command succeeds: it
is written next to its path and moved there at the end, so a failed run
leaves no new or partial file and does not touch a file already at that
path.  ``train-segmenter`` adds ``.npz`` to a model name that lacks it.

Every command imports ``core`` and ``treebank``; each other module is
imported only by the commands that run it: numpy (with ``crf`` or
``dwa``) by ``train-segmenter``, ``segment`` and ``dwa-sim``, ``metrics``
by ``stats`` and ``eval``, ``preprocess`` by ``convert``, ``preprocess``
and ``dump-remap-table``, ``decoder`` by ``parse``, and ``xml.etree`` by
``convert`` and by ``preprocess`` of ``.rs3`` input.

A command runs with CPython's cyclic garbage collector paused, and
``main`` restores the collector's previous state when it returns.  Records,
trees, labels and decoder paths hold no reference cycles, so reference
counting frees them as soon as they are dropped, while the collector's
full passes would rescan every object a command holds, many times over.
The only cyclic garbage a command leaves is its argument parser, a fixed
amount whatever the input size, and the collector takes it once it runs
again.
Exit codes: 0 success, 1 user error (bad flags, malformed input),
2 internal error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import __version__
from .core import InputLines, RelationLabel, RstError, RstTree, Split, excerpt
from . import treebank as tb_mod

# Every other module is imported by the commands that use it (see the
# module docstring), so a command loads only what it runs.

DATA_DIR_ENV = "RSTKIT_DATA_DIR"
DEFAULT_SEED = 13


class _Parser(argparse.ArgumentParser):
    # A subcommand's parser gets its arguments from ``build`` when it is
    # first parsed, so a run builds only those of the command it runs.
    def __init__(self, *args, build=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._build = build

    def parse_known_args(self, args=None, namespace=None):  # noqa: D102
        build, self._build = self._build, None
        if build is not None:
            build(self)
        return super().parse_known_args(args, namespace)

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


def _read_split_map(path: str) -> dict[str, Split]:
    table = {}
    with InputLines(_input_path(path)) as lines:
        for line in lines:
            if line.startswith("#"):
                continue
            doc_id, _, split = line.partition("\t")
            if not split:
                doc_id, _, split = line.partition(" ")
            doc_id = doc_id.strip()
            if doc_id in table:
                raise RstError(f"repeated file id {doc_id!r}")
            try:
                table[doc_id] = Split(split.strip())
            except ValueError:
                raise RstError(
                    f"split must be train, dev or test, got {split.strip()!r}"
                ) from None
    return table


@contextmanager
def _output_file(path: str, mode: str = "w"):
    """Open a file that replaces ``path`` only if the block succeeds;
    ``mode`` is ``"w"`` for UTF-8 text or ``"wb"`` for bytes.

    Output goes to a temporary file in the target's directory, which
    ``os.replace`` moves onto the target at the end; on any failure the
    temporary file is removed and the target is left as it was.  A path
    that exists and is not a regular file (``/dev/stdout``, a pipe) is
    written directly; a symbolic link is kept and its target replaced.
    """
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as out:
            yield out
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
    except OSError as exc:  # name the path the user gave, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") would give
        with open(fd, mode, encoding=encoding) as out:
            yield out
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# Flags that only .rs3 input reads; each defaults to None, so that a command
# can tell whether it was given, and _rs3_documents fills in the defaults.
_RS3_INPUT_FLAGS = ("genre", "genre_field", "lang", "split", "split_map",
                    "split_forests")


def _add_rs3_input_flags(parser) -> None:
    parser.add_argument("--genre", help="constant genre for all files")
    parser.add_argument(
        "--genre-field",
        type=int,
        help="underscore-separated filename field holding the genre (default 1)",
    )
    parser.add_argument("--lang", choices=("en", "ru", "other"))
    parser.add_argument("--split", choices=("train", "dev", "test"))
    parser.add_argument("--split-map", help="two-column file assigning splits by file id")


def _load_remap(value: str | None):
    from . import preprocess as prep_mod

    if value is None or value == "none":
        return None
    if value == "default":
        return prep_mod.default_rrt_remap_table()
    return prep_mod.load_remap_table(_input_path(value))


def _rs3_documents(paths: list[Path], args):
    """Stream the documents of the ``.rs3`` files in ``paths``, holding one
    file's trees at a time; each file's genre and split are worked out as
    it is read, and an error in a file names it."""
    from . import preprocess as prep_mod

    splits = {} if args.split_map is None else _read_split_map(args.split_map)
    unknown = sorted(set(splits) - {path.stem for path in paths})
    if unknown:
        raise RstError(f"{args.split_map}: unknown file ids {unknown}")
    default_split = Split(args.split or "train")
    lang = args.lang or "en"
    genre_field = 1 if args.genre_field is None else args.genre_field
    for path in paths:
        file_id = path.stem
        genre = args.genre
        if genre is None:
            genre = _guess_genre(file_id, genre_field)
        split = splits.get(file_id, default_split)
        try:
            components = tb_mod.read_rs3_file(path)
            documents = prep_mod.split_forest(file_id, components, genre, lang, split)
        except RstError as exc:
            raise RstError(f"{path}: {exc}") from None
        if args.split_forests is False and len(documents) > 1:
            raise RstError(f"{path}: holds {len(documents)} trees; "
                           "enable forest splitting to process it")
        yield from documents


def cmd_preprocess(args) -> int:
    from . import preprocess as prep_mod

    step = prep_mod.Preprocessor(_load_remap(args.remap), args.drop_single_edu)
    in_path = _input_path(args.input)
    if args.command == "convert" or in_path.is_dir() or in_path.suffix == ".rs3":
        paths = _rs3_paths(in_path)
        files_in, documents = len(paths), _rs3_documents(paths, args)
    else:
        given = [f"--{name.replace('_', '-')}" for name in _RS3_INPUT_FLAGS
                 if getattr(args, name) is not None]
        if given:
            raise RstError(f"flags {', '.join(given)} apply only to .rs3 input")
        files_in, documents = 1, tb_mod.iter_canonical(in_path)
    # each kept document is held only as its id and canonical line
    lines = []
    for doc in documents:
        doc = step(doc)
        if doc is not None:
            lines.append((doc.doc_id, tb_mod.encode_record(doc)))
    lines.sort()
    repeated = sorted({a for (a, _), (b, _) in zip(lines, lines[1:]) if a == b})
    if repeated:
        raise RstError(f"duplicate document ids: {repeated}")
    with _output_file(args.output) as out:
        out.writelines(f"{line}\n" for _, line in lines)
    print(step.report(files_in).render())
    print(f"wrote {len(lines)} records to {args.output}")
    return 0


def cmd_dump_remap_table(args) -> int:
    from . import preprocess as prep_mod

    text = prep_mod.default_rrt_remap_table().as_text()
    if args.output:
        with _output_file(args.output) as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    from . import metrics as metrics_mod

    in_path = _input_path(args.input)
    sentences = tb_mod.read_sentence_file(_input_path(args.sents)) if args.sents else None
    doc_ids: set[str] = set()

    def documents():
        for doc in tb_mod.iter_canonical(in_path):
            doc_ids.add(doc.doc_id)
            yield doc

    # one streaming pass gives the whole-corpus row and every genre's row
    whole, per_genre = metrics_mod.genre_breakdown(
        documents(), sentences, not args.no_spanned
    )
    rows = {in_path.stem: whole}
    if args.by_genre:
        rows.update((f"{in_path.stem}/{genre}", row) for genre, row in per_genre.items())
    unknown = sorted(set(sentences or ()) - doc_ids)
    if unknown:
        raise RstError(f"{args.sents}: unknown document ids {unknown}")
    if args.csv:
        sys.stdout.write(metrics_mod.stats_csv(rows))
    else:
        print(metrics_mod.format_stats_table(rows))
    return 0


def cmd_train_segmenter(args) -> int:
    from . import crf as crf_mod

    in_path = _input_path(args.input)
    docs = [d for d in tb_mod.iter_canonical(in_path) if args.split in ("all", d.split.value)]
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
    # np.savez appends .npz to a file name that lacks it; keep that name
    path = args.output if args.output.endswith(".npz") else f"{args.output}.npz"
    with _output_file(path, "wb") as out:
        crf_mod.save_model(model, out, extractor)
    print(
        f"trained on {len(dataset)} documents for {args.epochs} epochs; "
        f"final mean NLL {curve[-1]:.4f}"
    )
    return 0


def cmd_segment(args) -> int:
    from . import crf as crf_mod

    model, extractor = crf_mod.load_model(_input_path(args.model))
    if extractor is None:
        raise RstError(f"{args.model}: model file does not carry feature settings")
    if model.labels != crf_mod.DEFAULT_LABELS:
        raise RstError(f"{args.model}: segmenter labels must be B, I; got {model.labels}")
    count = 0
    with _output_file(args.output) as out:
        for doc in tb_mod.iter_canonical(_input_path(args.input)):
            labels = crf_mod.viterbi(model, extractor(doc.tokens))
            edus = crf_mod.labels_to_edus(labels)
            tb_mod.write_record(out, doc.replace(edus=edus, tree=None))
            count += 1
    print(f"segmented {count} documents -> {args.output}")
    return 0


def _read_inventory(path: str) -> tuple[str, ...]:
    labels: dict[str, None] = {}  # in file order
    with InputLines(_input_path(path)) as lines:
        for line in lines:
            RelationLabel.from_merged(line)
            if line in labels:
                raise RstError(f"label inventory repeats {[line]}")
            labels[line] = None
    if not labels:
        raise RstError(f"{path}: inventory file is empty")
    return tuple(labels)


def cmd_parse(args) -> int:
    from .decoder import (
        DecodeConfig,
        OracleProvider,
        RightBranchingProvider,
        ScoreTable,
        decode,
    )

    if args.scores is not None and args.inventory is None:
        # Score vectors are indexed by the scorer's inventory, which the
        # input corpus cannot know.
        raise RstError("--scores needs --inventory, the scorer's label inventory")
    if args.beam < 1:
        raise RstError("beam width must be >= 1")
    in_path = _input_path(args.input)
    strategy = "beam" if args.beam > 1 else "greedy"
    configs: dict[tuple[str, ...], DecodeConfig] = {}

    def config_for(labels: tuple[str, ...]) -> DecodeConfig:
        if labels not in configs:
            configs[labels] = DecodeConfig(
                labels=labels, strategy=strategy, beam_width=args.beam
            )
        return configs[labels]

    # Without --inventory, --oracle decodes each document over its own gold
    # labels and --baseline over its one label: the provider's best path is
    # unique under any inventory holding those labels, so the trees are the
    # ones a corpus-wide inventory gives, without a pass to collect it.
    if args.inventory:
        fixed = _read_inventory(args.inventory)
    elif args.baseline is not None:
        fixed = (args.baseline,)
    else:
        fixed = None
    if fixed is not None:
        config_for(fixed)  # checks the labels before any output is opened
    score_table = ScoreTable.load(_input_path(args.scores)) if args.scores else None

    count = 0
    with _output_file(args.output) as out:
        for doc in tb_mod.iter_canonical(in_path):
            labels = fixed
            if args.oracle:
                if doc.tree is None:
                    raise RstError(f"{doc.doc_id}: oracle mode needs gold trees")
                if labels is None:
                    nodes = doc.tree.internal_nodes()
                    labels = tuple(sorted({node.label.merged for node in nodes}))
                provider = OracleProvider(doc.tree, labels)
            elif args.baseline is not None:
                provider = RightBranchingProvider(args.baseline, labels)
            elif len(doc.edus) > 1:  # decode asks a lone EDU nothing
                provider = score_table.provider(doc.doc_id)  # type: ignore[union-attr]
            if len(doc.edus) > 1:
                tree = decode(len(doc.edus), provider, config_for(labels))
                del provider  # so the next run is read without this one held
            else:  # a lone EDU: its tree is a leaf with no label
                tree = RstTree.leaf(0)
            tb_mod.write_record(out, doc.with_tree(tree))
            count += 1
        if score_table is not None:  # check the lines no document read
            score_table.finish()
    print(f"parsed {count} documents -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    from . import metrics as metrics_mod

    # The files stream in step (see the module docstring); `ahead` holds
    # the predictions read before their gold document.
    preds = tb_mod.iter_canonical(_input_path(args.pred))
    ahead: dict = {}

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
        # segmentation is only reported with --end-to-end
        return metrics_mod.MetricCounts(), metrics_mod.parseval(
            gold_doc.tree, pred_doc.tree, gold_doc.edus, pred_doc.edus
        )

    total_seg = metrics_mod.MetricCounts()
    total = metrics_mod.ParsevalScores.zero()
    by_genre: dict[str, tuple] = {}
    scored = 0
    for gold_doc in tb_mod.iter_canonical(_input_path(args.gold)):
        pred_doc = ahead.pop(gold_doc.doc_id, None)
        if pred_doc is None:
            for pred_doc in preds:
                if pred_doc.doc_id == gold_doc.doc_id:
                    break
                ahead[pred_doc.doc_id] = pred_doc
            else:
                pred_doc = None
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

    unmatched = sorted([*ahead, *(doc.doc_id for doc in preds)])
    if unmatched:
        raise RstError(f"predictions without a gold document: {unmatched}")
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
    import csv

    from . import dwa as dwa_mod

    def loss_rows(lines):
        first = True
        for line in lines:
            try:  # a quote does not run on to the next line
                row = next(csv.reader([line]))
            except csv.Error as exc:  # a field past csv's size limit
                raise RstError(f"bad CSV row: {exc}") from None
            if row[0].strip().startswith("#"):
                continue
            try:
                yield [float(x) for x in row]
            except ValueError:
                if not first:  # a header is only allowed on the first line
                    raise RstError(f"non-numeric loss row {excerpt(line)}") from None
            first = False

    # The rows are read as the scheduler takes them, so that an error in a
    # row, the scheduler's too, names its line.
    with InputLines(_input_path(args.losses)) as lines:
        trajectory = dwa_mod.simulate(
            loss_rows(lines),
            args.tasks,
            dwa_mod.DEFAULT_WINDOW if args.window is None else args.window,
            dwa_mod.DEFAULT_TEMPERATURE if args.temp is None else args.temp,
        )
    if not trajectory:
        raise RstError(f"{args.losses}: no loss rows")
    sink = nullcontext(sys.stdout) if args.output is None else _output_file(args.output)
    with sink as out:
        writer = csv.writer(out)
        writer.writerow([f"lambda_{k + 1}" for k in range(args.tasks)])
        for weights in trajectory:
            writer.writerow([f"{w:.12g}" for w in weights])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rstkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rstkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command's arguments are added by the function given as its
    # ``build``, which runs only if that command is parsed (see _Parser).
    def convert(p):
        p.add_argument("input", help=".rs3 file or directory")
        p.add_argument("-o", "--output", required=True, help="canonical output file")
        _add_rs3_input_flags(p)
        # convert is preprocess of .rs3 input that neither remaps nor drops
        p.set_defaults(
            func=cmd_preprocess, remap=None, drop_single_edu=False, split_forests=True
        )
    sub.add_parser("convert", help="parse .rs3 files, binarize, write canonical",
                   build=convert)

    def preprocess(p):
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
    sub.add_parser("preprocess", build=preprocess,
                   help="remap labels, split forests, drop single-EDU documents")

    def dump_remap_table(p):
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=cmd_dump_remap_table)
    sub.add_parser("dump-remap-table", help="print the shipped RRT remap table",
                   build=dump_remap_table)

    def stats(p):
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
    sub.add_parser("stats", help="corpus statistics table", build=stats)

    def train_segmenter(p):
        p.add_argument("input", help="canonical corpus file with gold EDUs")
        p.add_argument("-o", "--output", required=True, help="model file (.npz)")
        p.add_argument("--split", default="train", choices=("train", "dev", "test", "all"))
        p.add_argument("--epochs", type=int, default=30)
        p.add_argument("--lr", type=float, default=0.2)
        p.add_argument("--l2", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--buckets", type=int, default=1024)
        p.set_defaults(func=cmd_train_segmenter)
    sub.add_parser("train-segmenter", help="train the CRF EDU segmenter",
                   build=train_segmenter)

    def segment(p):
        p.add_argument("model", help="model file from train-segmenter")
        p.add_argument("input", help="canonical corpus file")
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=cmd_segment)
    sub.add_parser("segment", help="predict EDU boundaries with a trained model",
                   build=segment)

    def parse(p):
        p.add_argument("input", help="canonical corpus file (EDUs required)")
        p.add_argument("-o", "--output", required=True)
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--oracle", action="store_true", help="replay gold trees")
        mode.add_argument("--baseline", default=None, metavar="LABEL",
                          help="right-branching baseline with one majority label")
        mode.add_argument("--scores", default=None, help="external score file (JSON lines)")
        p.add_argument("--beam", type=int, default=1, help="beam width (1 = greedy)")
        p.add_argument("--inventory", default=None,
                       help="label inventory file, one relation_NUC per line")
        p.set_defaults(func=cmd_parse)
    sub.add_parser("parse", help="decode trees with a score provider", build=parse)

    def eval_(p):
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
    sub.add_parser("eval", help="score predictions against gold", build=eval_)

    def dwa_sim(p):
        p.add_argument("losses", help="CSV of per-step task losses")
        p.add_argument("--tasks", "-k", type=int, default=3)
        # None means dwa.DEFAULT_WINDOW and dwa.DEFAULT_TEMPERATURE
        p.add_argument("--window", "-b", type=int, default=None)
        p.add_argument("--temp", type=float, default=None)
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=cmd_dwa_sim)
    sub.add_parser("dwa-sim", help="replay a loss log through the DWA scheduler",
                   build=dwa_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return args.func(args)
    except (RstError, OSError) as exc:
        print(f"rstkit: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"rstkit: internal error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
