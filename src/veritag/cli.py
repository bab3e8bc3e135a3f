"""Command-line entry point.

Exit codes: 0 success, 1 usage/configuration error or an output that
cannot be written, 2 data error, 3 internal error. Human-readable logging
goes to stderr; artifacts and machine-readable output go to files or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import (
    CLI_CLASSIFIERS,
    GRANULARITIES,
    GROUPS,
    RunConfig,
    check_groups,
    classifier_settings,
    load_config,
    load_run_resources,
    merge_overrides,
    pipeline_spec,
    validate_paths,
)
from .corpus import CLASS_TO_LABEL, balanced_sample, load_manifest
from .errors import ConfigError, DataError, InvariantError, VeritagError, write_csv

# Only the modules every command needs load at start-up; each handler
# imports the topic filter, markup, featureset, selection, models and
# evaluation names it calls, so `--help`, `ingest`, `sample` and
# `filter-political` never load numpy.
if TYPE_CHECKING:
    import numpy as np

    from .featureset import FeatureSchema

log = logging.getLogger("veritag")

DEFAULT_GRID_GROUP_SETS = "N;L;R;W;N,L,R,W"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    if not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO)


def _split_groups(value: str) -> tuple[str, ...]:
    return tuple(g.strip() for g in value.split(",") if g.strip())


def _group_sets(value: str) -> list[tuple[str, ...]]:
    """--group-sets: ";"-separated sets, each held to the rule of --groups."""
    sets = [_split_groups(part) for part in value.split(";")]
    for groups in sets:
        check_groups(groups, f"--group-sets {value!r}: each set")
    return sets


def _refuse(args: argparse.Namespace, context: str, options: tuple[str, ...]) -> None:
    """ConfigError for the first of ``options`` given on the command line,
    which ``context`` (such as ``--schema``) makes the run ignore. Config file
    values are not refused: one file serves every subcommand."""
    for option in options:
        if getattr(args, option[2:].replace("-", "_")) is not None:
            raise ConfigError(f"{args.command} {context} ignores {option}")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if f.name != "groups" and hasattr(args, f.name)
    }
    if getattr(args, "groups", None) is not None:
        overrides["groups"] = _split_groups(args.groups)
    cfg = merge_overrides(cfg, **overrides)
    validate_paths(cfg)
    return cfg


def _load_docs(corpus: str, cfg: RunConfig):
    manifest = load_manifest(corpus, year_range=cfg.year_range)
    return manifest, list(manifest.iter_documents())


def _check_extractable(schema: FeatureSchema, dictionary, source: str) -> None:
    """DataError naming the first name of ``source``'s schema that
    extraction with ``dictionary`` does not make; checked once, before any
    page is parsed."""
    from .featureset import build_schema

    made = set(build_schema(schema.granularity, schema.groups, dictionary).names)
    missing = [name for name in schema.names if name not in made]
    if missing:
        raise DataError(
            f"{source}: schema name {missing[0]!r} is not made by extraction (the N, R "
            "and W names are fixed; the L names are the dictionary's categories)"
        )


def _read_features(
    args: argparse.Namespace, cfg: RunConfig, purpose: str
) -> tuple[np.ndarray, np.ndarray, FeatureSchema]:
    """Labeled matrix of --features and its schema. The header is held to
    the feature-name rule; a --schema may name a subset of its columns, and
    the matrix is projected to its order."""
    from .featureset import decode_schema, read_feature_csv, read_schema, vectors_to_matrix

    schema = None
    if args.schema:
        _refuse(args, "--schema", ("--granularity",))
        # read before the features, so a bad schema file is named first
        schema = read_schema(args.schema)
    vectors, names = read_feature_csv(args.features)
    X, y, _ = vectors_to_matrix(vectors)
    if y is None:
        raise DataError(f"{args.features}: {purpose} needs a label column")
    if not names:
        raise DataError(f"{args.features}: no feature columns")
    # the feature groups the columns name, in order of first use; a column
    # of any other group then fails the name rule, which names it
    groups = [g for g in dict.fromkeys(n.partition(".")[0] for n in names) if g in GROUPS]
    payload = {"names": names, "granularity": cfg.granularity, "groups": groups}
    header = decode_schema(payload, args.features)
    if schema is None:
        return X, y, header
    missing = sorted(set(schema.names) - set(names))
    if missing:
        raise DataError(
            f"{args.schema}: {len(missing)} schema names are not columns of "
            f"{args.features}, first {missing[0]!r}"
        )
    column = {name: i for i, name in enumerate(names)}
    return X.take([column[n] for n in schema.names], axis=1), y, schema


# every flag naming a file a subcommand writes, and the subcommands whose
# --out is stdout when it is "-"
_OUTPUT_FLAGS = ("out", "report", "schema_out", "save_model")
_STDOUT_COMMANDS = ("predict", "filter-political", "report-terms")


def _check_outputs(args: argparse.Namespace) -> None:
    """Before any input is read, raise a ConfigError for a "-" that is not
    a streaming --out or for two outputs naming one file, or the ``OSError``
    that opening an output would raise: each output's directory must exist
    and be writable, and an output that exists must be a writable file.
    Creates and truncates nothing."""
    seen: dict[str, str] = {}  # real path -> the first flag naming it
    for flag in _OUTPUT_FLAGS:
        path = getattr(args, flag, None)
        if path is None or (path == "-" and flag == "out" and args.command in _STDOUT_COMMANDS):
            continue
        option = "--" + flag.replace("_", "-")
        if path == "-":
            raise ConfigError(f"{args.command} {option} cannot be - (stdout); name a file")
        first = seen.setdefault(os.path.realpath(path), option)
        if first != option:
            raise ConfigError(f"{first} and {option} both name {path}")
        target = Path(path)
        if target.is_dir():
            code = errno.EISDIR
        elif not target.parent.exists():
            code = errno.ENOENT
        elif not target.parent.is_dir():
            code = errno.ENOTDIR
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


# --- subcommand handlers ---


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest = load_manifest(args.corpus, year_range=cfg.year_range)
    label_counts: dict[str, int] = {}
    years: set[int] = set()
    for entry in manifest.entries:
        label_counts[entry.label] = label_counts.get(entry.label, 0) + 1
        years.add(entry.year)
        if args.check:
            manifest.load_html(entry)
    summary = {
        "documents": len(manifest.entries),
        "sites": len(manifest.site_labels),
        "years": sorted(years),
        "label_counts": dict(sorted(label_counts.items())),
        "checked_html": bool(args.check),
    }
    print(json.dumps(summary, sort_keys=True))
    log.info("corpus %s: %d documents from %d sites", args.corpus,
             summary["documents"], summary["sites"])
    return 0


def cmd_filter_political(args: argparse.Namespace) -> int:
    from .markup import extract_article, granularity_text, parse_html
    from .political import (
        PoliticalFilterModel, apply_political_filter, load_topic_corpus, train_political_filter,
    )

    if args.topics and args.model:
        raise ConfigError("filter-political takes --model or --topics, not both")
    if not (args.topics or args.model):
        raise ConfigError("filter-political needs --model or --topics")
    if args.save_model and not args.topics:
        raise ConfigError("filter-political --save-model needs --topics to train a model")
    cfg = _resolve_config(args)
    if args.topics:
        pairs = load_topic_corpus(args.topics)
        try:
            model = train_political_filter(pairs)
        except DataError as exc:
            raise DataError(f"{args.topics}: {exc}") from exc
        if args.save_model:
            model.save(args.save_model)
            log.info("filter model written to %s", args.save_model)
    else:
        model = PoliticalFilterModel.load(args.model)
    _, docs = _load_docs(args.corpus, cfg)
    kept = 0

    def decisions():  # streamed: a page that fails leaves the rows before it
        nonlocal kept
        for doc in docs:
            article = extract_article(parse_html(doc.html))
            decision = apply_political_filter(
                model, granularity_text(article, "HC"), cfg.political_threshold
            )
            kept += int(decision.is_political)
            yield [doc.id, decision.score, int(decision.is_political)]

    write_csv(args.out, ["doc_id", "score", "is_political"], decisions())
    log.info("political filter kept %d of %d documents (threshold %.3g)",
             kept, len(docs), cfg.political_threshold)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest, docs = _load_docs(args.corpus, cfg)
    kept = balanced_sample(docs, args.cap, cfg.seed)
    paths = {entry.id: entry.html_path for entry in manifest.entries}
    with Path(args.out).open("w", encoding="utf-8") as fh:
        for doc in kept:
            record = {
                "id": doc.id,
                "url": doc.url,
                "site": doc.site,
                "label": doc.label,
                "year": doc.year,
                "html_path": paths[doc.id],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    log.info("sampled %d of %d documents (cap %d per site-year)",
             len(kept), len(docs), args.cap)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    from .featureset import (
        build_schema, extract_document, read_schema, write_feature_csv, write_schema,
    )
    from .workers import fork_map

    cfg = _resolve_config(args)
    if args.schema:
        _refuse(args, "--schema", ("--granularity", "--groups", "--pruning"))
    resources = load_run_resources(cfg)
    _, docs = _load_docs(args.corpus, cfg)
    if args.schema:
        schema = read_schema(args.schema)
        _check_extractable(schema, resources.dictionary, args.schema)
    else:
        schema = build_schema(cfg.granularity, cfg.groups, resources.dictionary, cfg.pruning)
    vectors = fork_map(
        lambda doc: extract_document(
            doc, schema, resources.dictionary, resources.tagger, resources.ad_domains
        ),
        docs,
        args.jobs,
    )
    write_feature_csv(args.out, schema, vectors)
    if args.schema_out:
        write_schema(args.schema_out, schema)
    log.info("extracted %d documents x %d features -> %s",
             len(vectors), len(schema.names), args.out)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    from .featureset import write_schema
    from .selection import select_features, write_importance_report

    cfg = _resolve_config(args)
    X, y, schema = _read_features(args, cfg, "selection")
    pruned, scores = select_features(
        X, y, schema,
        bins=cfg.bins, trees=cfg.selection_trees, lam=cfg.l1_lambda,
        seed=cfg.seed, jobs=args.jobs,
    )
    write_schema(args.out, pruned)
    if args.report:
        write_importance_report(args.report, scores)
    log.info("retained %d of %d features -> %s",
             len(pruned.names), len(schema.names), args.out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .featureset import document_labels
    from .models import save_pipeline, train_baseline_pipeline, train_tag_pipeline
    from .models.baseline import document_texts

    cfg = _resolve_config(args)
    settings = classifier_settings(cfg)
    if cfg.classifier == "baseline-svm":
        _refuse(args, "--classifier baseline-svm", ("--features", "--schema"))
        if not args.corpus:
            raise ConfigError("baseline-svm trains from pages: pass --corpus")
        resources = load_run_resources(cfg)
        _, docs = _load_docs(args.corpus, cfg)
        (texts,) = document_texts(
            docs, [cfg.granularity], resources.dictionary, jobs=args.jobs
        )
        pipeline = train_baseline_pipeline(
            texts, document_labels(docs), cfg.granularity, resources.dictionary, settings,
            min_df=cfg.min_df, jobs=args.jobs,
        )
    else:
        # only a forest's trees grow in workers
        ignored = ("--corpus", "--dictionary") + (() if cfg.classifier == "rf" else ("--jobs",))
        _refuse(args, f"--classifier {cfg.classifier}", ignored)
        if not args.features:
            raise ConfigError(f"{cfg.classifier} trains from features: pass --features")
        X, y, schema = _read_features(args, cfg, "training")
        pipeline = train_tag_pipeline(X, y, schema, settings, jobs=args.jobs)
    save_pipeline(pipeline, args.out)
    log.info("trained %s pipeline -> %s", cfg.classifier, args.out)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from .models import load_pipeline

    cfg = _resolve_config(args)
    pipeline = load_pipeline(args.model)
    resources = load_run_resources(cfg)
    _, docs = _load_docs(args.corpus, cfg)
    if pipeline.schema is not None:
        _check_extractable(pipeline.schema, resources.dictionary, args.model)
    classes, scores = pipeline.predict_documents(
        docs, resources.dictionary, resources.tagger, resources.ad_domains, jobs=args.jobs
    )
    rows = (
        [doc.id, CLASS_TO_LABEL[cls], score]
        for doc, cls, score in zip(docs, classes.tolist(), scores.tolist())
    )
    write_csv(args.out, ["doc_id", "predicted_label", "score"], rows)
    log.info("predicted %d documents with %s pipeline",
             len(docs), pipeline.classifier_name)
    return 0


# the evaluate flags each protocol never reads
_IGNORED_BY_PROTOCOL = {
    "cv": ("--test-corpus", "--group-sets"),
    "temporal": ("--folds", "--test-corpus", "--group-sets"),
    "cross-domain": ("--folds", "--group-sets"),
    "grid": ("--granularity", "--groups", "--test-corpus"),
}


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import (
        cross_domain_eval,
        feature_grid_eval,
        kfold_cv,
        temporal_eval,
        write_cross_domain_csv,
        write_cv_report_csv,
        write_grid_csv,
        write_temporal_report_csv,
    )

    cfg = _resolve_config(args)
    _refuse(args, f"--protocol {args.protocol}", _IGNORED_BY_PROTOCOL[args.protocol])
    if cfg.classifier == "baseline-svm":
        _refuse(args, "--classifier baseline-svm", ("--ad-domains",))
    if args.protocol == "cross-domain" and not args.test_corpus:
        raise ConfigError("cross-domain needs --test-corpus")
    if args.protocol == "grid":
        group_sets = _group_sets(
            DEFAULT_GRID_GROUP_SETS if args.group_sets is None else args.group_sets
        )
    spec = pipeline_spec(cfg)
    resources = load_run_resources(cfg)
    _, docs = _load_docs(args.corpus, cfg)
    if args.protocol == "cv":
        report = kfold_cv(docs, spec, resources, k=cfg.folds, seed=cfg.seed, jobs=args.jobs)
        write_cv_report_csv(args.out, report)
        log.info("cv mean accuracy %.4f over %d folds",
                 report.mean_accuracy, cfg.folds)
    elif args.protocol == "temporal":
        report = temporal_eval(docs, spec, resources, jobs=args.jobs)
        write_temporal_report_csv(args.out, report)
        log.info("temporal grid over years %s: %d cells",
                 list(report.years), len(report.cells))
    elif args.protocol == "cross-domain":
        _, test_docs = _load_docs(args.test_corpus, cfg)
        results = cross_domain_eval(docs, test_docs, spec, resources, jobs=args.jobs)
        write_cross_domain_csv(args.out, results, {**spec.echo(), "seed": cfg.seed})
        log.info("cross-domain accuracies: %s",
                 {k: round(v, 4) for k, v in results.items()})
    else:  # grid
        reports = feature_grid_eval(
            docs, spec, resources, group_sets, k=cfg.folds, seed=cfg.seed, jobs=args.jobs
        )
        write_grid_csv(args.out, reports)
        log.info("grid: %d cells -> %s", len(reports), args.out)
    return 0


def cmd_report_terms(args: argparse.Namespace) -> int:
    from .evaluation import term_frequency_report, write_term_report_csv

    if args.top < 1:
        raise ConfigError("top must be >= 1")
    cfg = _resolve_config(args)
    _, docs = _load_docs(args.corpus, cfg)
    report = term_frequency_report(docs, n_top=args.top)
    # the stdout form echoes no config
    config = None if args.out in (None, "-") else {"top": args.top}
    write_term_report_csv(args.out, report, config)
    log.info("term report over %d years", len(report.per_year))
    return 0


# --- parser wiring ---


# flags that mean the same in every subcommand that takes them
_SHARED_FLAGS: dict[str, dict] = {
    "--config": {"help": "JSON config file; flags override it"},
    "--seed": {"type": int},
    "--granularity": {"choices": GRANULARITIES},
    "--groups": {"help": "comma list from N,L,R,W"},
    "--pruning": {"choices": ("none", "paper")},
    "--dictionary": {"help": "category dictionary path"},
    "--ad-domains": {"help": "ad-domain list path"},
    "--classifier": {"choices": CLI_CLASSIFIERS},
    "--c": {"type": float, "help": "SVM cost"},
    "--k": {"type": int, "help": "KNN neighbor count"},
    "--min-df": {"type": int, "help": "baseline TF-IDF vocabulary floor"},
    "--jobs": {"type": int, "help": "processes to run in (default: the usable CPUs); "
                                    "outputs never depend on it; must be >= 1"},
}


def _add_flags(parser: argparse.ArgumentParser, *options: str) -> None:
    for option in options:
        parser.add_argument(option, **_SHARED_FLAGS[option])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="veritag",
                     description="Topic-agnostic reliability classification for news pages.")
    parser.add_argument("--version", action="version", version=f"veritag {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="validate a corpus directory")
    _add_flags(p, "--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--check", action="store_true", help="also read every HTML file")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("filter-political", help="score pages with the topic filter")
    _add_flags(p, "--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", help="trained filter model path (instead of --topics)")
    p.add_argument("--topics", help="topic-labeled JSONL to train the filter from")
    p.add_argument("--save-model", help="where to save the filter trained from --topics")
    p.add_argument("--threshold", dest="political_threshold", type=float)
    p.add_argument("--out", help="decision CSV (default stdout)")
    p.set_defaults(handler=cmd_filter_political)

    p = sub.add_parser("sample", help="balanced per-site-per-year sample")
    _add_flags(p, "--config", "--seed")
    p.add_argument("--corpus", required=True)
    p.add_argument("--cap", type=int, required=True, help="max pages per site-year")
    p.add_argument("--out", required=True, help="sampled manifest JSONL path")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("extract", help="extract feature vectors to CSV")
    _add_flags(p, "--config", "--granularity", "--groups", "--pruning", "--dictionary",
               "--ad-domains", "--jobs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", help="extract exactly this schema (instead of "
                                    "--granularity, --groups and --pruning)")
    p.add_argument("--out", required=True, help="feature CSV path")
    p.add_argument("--schema-out", help="also write the schema JSON")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("select", help="importance-based feature selection")
    _add_flags(p, "--config", "--seed", "--granularity", "--jobs")
    p.add_argument("--features", required=True, help="labeled feature CSV")
    p.add_argument("--schema", help="schema JSON naming some or all of the CSV's columns")
    p.add_argument("--bins", type=int)
    p.add_argument("--trees", dest="selection_trees", type=int)
    p.add_argument("--lambda", dest="l1_lambda", type=float)
    p.add_argument("--out", required=True, help="pruned schema JSON path")
    p.add_argument("--report", help="per-feature importance CSV")
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("train", help="train a classification pipeline")
    _add_flags(p, "--config", "--seed", "--granularity", "--dictionary", "--classifier",
               "--c", "--k", "--min-df", "--jobs")
    p.add_argument("--trees", type=int, help="forest size")
    p.add_argument("--features", help="labeled feature CSV (svm/knn/rf)")
    p.add_argument("--schema", help="schema JSON naming some or all of the CSV's columns")
    p.add_argument("--corpus", help="corpus directory (baseline-svm)")
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="classify a corpus with a trained model")
    _add_flags(p, "--config", "--dictionary", "--ad-domains", "--jobs")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="predictions CSV (default stdout)")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", help="run an evaluation protocol")
    _add_flags(p, "--config", "--seed", "--granularity", "--groups", "--pruning",
               "--dictionary", "--ad-domains", "--classifier", "--c", "--k", "--min-df",
               "--jobs")
    p.add_argument("--trees", type=int, help="forest size")
    p.add_argument("--protocol", required=True,
                   choices=("cv", "temporal", "cross-domain", "grid"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--test-corpus", help="test corpus of cross-domain")
    p.add_argument("--folds", type=int, help="folds of cv and grid")
    p.add_argument("--group-sets", help="semicolon-separated group combos for grid "
                                        f"(default {DEFAULT_GRID_GROUP_SETS})")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("report-terms", help="per-year top term frequencies")
    _add_flags(p, "--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--out", help="term CSV (default stdout)")
    p.set_defaults(handler=cmd_report_terms)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        log.error("--jobs must be >= 1")
        return 1
    try:
        _check_outputs(args)
        return args.handler(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    except DataError as exc:
        log.error("%s", exc)
        return 2
    except InvariantError as exc:
        log.error("invariant violation: %s", exc)
        return 3
    except VeritagError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:  # input readers raise DataError, so this is an output
        log.error("cannot write output: %s", exc)
        return 1
    except Exception as exc:  # last resort: one line, never a traceback
        log.error("internal error: %s: %s", type(exc).__name__, exc)
        log.debug("traceback of the internal error", exc_info=True)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
