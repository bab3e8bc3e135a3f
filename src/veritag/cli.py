"""Command-line entry point.

Exit codes: 0 success, 1 usage/configuration error or an output that
cannot be written, 2 data error, 3 internal error. Human-readable logging
goes to stderr; artifacts and machine-readable output go to files or stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    CLI_CLASSIFIERS,
    RunConfig,
    classifier_settings,
    load_config,
    load_run_resources,
    merge_overrides,
    pipeline_spec,
    validate_paths,
)
from .corpus import (
    CLASS_TO_LABEL,
    LABEL_TO_CLASS,
    PoliticalFilterModel,
    apply_political_filter,
    balanced_sample,
    load_manifest,
    load_topic_corpus,
    train_political_filter,
)
from .errors import ConfigError, DataError, InvariantError, VeritagError
from .evaluation import (
    cross_domain_eval,
    feature_grid_eval,
    kfold_cv,
    temporal_eval,
    term_frequency_report,
    write_cross_domain_csv,
    write_cv_report_csv,
    write_grid_csv,
    write_temporal_report_csv,
    write_term_report_csv,
)
from .featureset import (
    GROUPS,
    FeatureSchema,
    apply_paper_pruning,
    build_schema,
    extract_document,
    granularity_text,
    read_feature_csv,
    read_schema,
    vectors_to_matrix,
    write_feature_csv,
    write_schema,
)
from .markup import extract_article, parse_html
from .models import (
    load_pipeline,
    save_pipeline,
    train_baseline_pipeline,
    train_tag_pipeline,
)
from .selection import select_features, write_importance_report

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


def _schema_for(args: argparse.Namespace, cfg: RunConfig, resources) -> FeatureSchema:
    """Schema from --schema when given, else built from the config."""
    if args.schema:
        return read_schema(args.schema)
    schema = build_schema(cfg.granularity, cfg.groups, resources.dictionary)
    if cfg.pruning == "paper":
        schema = apply_paper_pruning(schema)
    return schema


def _read_features(
    args: argparse.Namespace, cfg: RunConfig, purpose: str
) -> tuple[np.ndarray, np.ndarray, FeatureSchema]:
    """Labeled matrix of --features and its schema. A --schema may name a
    subset of the feature columns; the matrix is projected to its order."""
    vectors, names = read_feature_csv(args.features)
    X, y, _ = vectors_to_matrix(vectors)
    if y is None:
        raise DataError(f"{args.features}: {purpose} needs a label column")
    if not args.schema:
        seen: set[str] = set()
        for name in names:
            group, _, base = name.partition(".")
            if group not in GROUPS or not base:
                raise DataError(
                    f"{args.features}: column {name!r} is not GROUP.NAME with GROUP "
                    f"one of {', '.join(GROUPS)}"
                )
            if name in seen:
                raise DataError(f"{args.features}: column {name!r} appears twice")
            seen.add(name)
        groups = tuple(dict.fromkeys(name.split(".", 1)[0] for name in names))
        schema = FeatureSchema(names=tuple(names), granularity=cfg.granularity, groups=groups)
        return X, y, schema
    schema = read_schema(args.schema)
    missing = sorted(set(schema.names) - set(names))
    if missing:
        raise DataError(
            f"{args.schema}: {len(missing)} schema names are not columns of "
            f"{args.features}, first {missing[0]!r}"
        )
    column = {name: i for i, name in enumerate(names)}
    return X.take([column[n] for n in schema.names], axis=1), y, schema


# every flag naming a file a subcommand writes
_OUTPUT_FLAGS = ("out", "report", "schema_out", "save_model")


def _check_outputs(args: argparse.Namespace) -> None:
    """Raise the ``OSError`` that opening an output would raise, before any
    input is read: each output's directory must exist and be writable, and
    an output that exists must be a writable file. Creates and truncates
    nothing."""
    for flag in _OUTPUT_FLAGS:
        path = getattr(args, flag, None)
        if path is None or path == "-":
            continue
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


def _out_handle(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return Path(path).open("w", encoding="utf-8", newline=""), True


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
    cfg = _resolve_config(args)
    if args.topics:
        model = train_political_filter(load_topic_corpus(args.topics))
        if args.save_model:
            model.save(args.save_model)
            log.info("filter model written to %s", args.save_model)
    elif args.model:
        model = PoliticalFilterModel.load(args.model)
    else:
        raise ConfigError("filter-political needs --model or --topics")
    _, docs = _load_docs(args.corpus, cfg)
    handle, close = _out_handle(args.out)
    kept = 0
    try:
        writer = csv.writer(handle)
        writer.writerow(["doc_id", "score", "is_political"])
        for doc in docs:
            article = extract_article(parse_html(doc.html))
            decision = apply_political_filter(
                model, granularity_text(article, "HC"), cfg.political_threshold
            )
            kept += int(decision.is_political)
            writer.writerow([doc.id, "%.9g" % decision.score, int(decision.is_political)])
    finally:
        if close:
            handle.close()
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
    cfg = _resolve_config(args)
    resources = load_run_resources(cfg)
    _, docs = _load_docs(args.corpus, cfg)
    schema = _schema_for(args, cfg, resources)
    vectors = [
        extract_document(doc, schema, resources.dictionary, resources.tagger, resources.ad_domains)
        for doc in docs
    ]
    write_feature_csv(args.out, schema, vectors)
    if args.schema_out:
        write_schema(args.schema_out, schema)
    log.info("extracted %d documents x %d features -> %s",
             len(vectors), len(schema.names), args.out)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    X, y, schema = _read_features(args, cfg, "selection")
    pruned, scores = select_features(
        X, y, schema,
        bins=cfg.bins, trees=cfg.selection_trees, lam=cfg.l1_lambda,
        seed=cfg.seed,
    )
    write_schema(args.out, pruned)
    if args.report:
        write_importance_report(args.report, scores)
    log.info("retained %d of %d features -> %s",
             len(pruned.names), len(schema.names), args.out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    settings = classifier_settings(cfg)
    if cfg.classifier == "baseline-svm":
        if not args.corpus:
            raise ConfigError("baseline-svm trains from pages: pass --corpus")
        resources = load_run_resources(cfg)
        _, docs = _load_docs(args.corpus, cfg)
        articles = [extract_article(parse_html(d.html)) for d in docs]
        y = np.array([LABEL_TO_CLASS[d.label] for d in docs], dtype=np.int64)
        pipeline = train_baseline_pipeline(
            articles, y, cfg.granularity, resources.dictionary, settings,
            min_df=cfg.min_df,
        )
    else:
        if not args.features:
            raise ConfigError(f"{cfg.classifier} trains from features: pass --features")
        X, y, schema = _read_features(args, cfg, "training")
        pipeline = train_tag_pipeline(X, y, schema, settings)
    save_pipeline(pipeline, args.out)
    log.info("trained %s pipeline -> %s", cfg.classifier, args.out)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    pipeline = load_pipeline(args.model)
    resources = load_run_resources(cfg)
    _, docs = _load_docs(args.corpus, cfg)
    classes, scores = pipeline.predict_documents(
        docs, resources.dictionary, resources.tagger, resources.ad_domains
    )
    handle, close = _out_handle(args.out)
    try:
        writer = csv.writer(handle)
        writer.writerow(["doc_id", "predicted_label", "score"])
        for doc, cls, score in zip(docs, classes, scores):
            writer.writerow([doc.id, CLASS_TO_LABEL[int(cls)], "%.9g" % score])
    finally:
        if close:
            handle.close()
    log.info("predicted %d documents with %s pipeline",
             len(docs), pipeline.classifier_name)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    spec = pipeline_spec(cfg)
    resources = load_run_resources(cfg)
    _, docs = _load_docs(args.corpus, cfg)
    if args.protocol == "cv":
        report = kfold_cv(docs, spec, resources, k=cfg.folds, seed=cfg.seed)
        write_cv_report_csv(args.out, report)
        log.info("cv mean accuracy %.4f over %d folds",
                 report.mean_accuracy, cfg.folds)
    elif args.protocol == "temporal":
        report = temporal_eval(docs, spec, resources)
        write_temporal_report_csv(args.out, report)
        log.info("temporal grid over years %s: %d cells",
                 list(report.years), len(report.cells))
    elif args.protocol == "cross-domain":
        if not args.test_corpus:
            raise ConfigError("cross-domain needs --test-corpus")
        _, test_docs = _load_docs(args.test_corpus, cfg)
        results = cross_domain_eval(docs, test_docs, spec, resources)
        write_cross_domain_csv(args.out, results, {**spec.echo(), "seed": cfg.seed})
        log.info("cross-domain accuracies: %s",
                 {k: round(v, 4) for k, v in results.items()})
    else:  # grid
        group_sets = [
            _split_groups(part)
            for part in args.group_sets.split(";")
            if part.strip()
        ]
        reports = feature_grid_eval(
            docs, spec, resources, group_sets, k=cfg.folds, seed=cfg.seed
        )
        write_grid_csv(args.out, reports)
        log.info("grid: %d cells -> %s", len(reports), args.out)
    return 0


def cmd_report_terms(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ConfigError("top must be >= 1")
    cfg = _resolve_config(args)
    _, docs = _load_docs(args.corpus, cfg)
    report = term_frequency_report(docs, n_top=args.top)
    if args.out is None or args.out == "-":
        rows = [
            [year, rank, term, count]
            for year in sorted(report.per_year)
            for rank, (term, count) in enumerate(report.per_year[year], start=1)
        ]
        writer = csv.writer(sys.stdout)
        writer.writerow(["year", "rank", "term", "count"])
        writer.writerows(rows)
    else:
        write_term_report_csv(args.out, report, {"top": args.top, "seed": cfg.seed})
    log.info("term report over %d years", len(report.per_year))
    return 0


# --- parser wiring ---


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and currently unused: every run uses one "
                             "process; must be >= 1")


def _add_feature_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--granularity", choices=("H", "C", "HC"), default=None)
    parser.add_argument("--groups", default=None, help="comma list from N,L,R,W")
    parser.add_argument("--pruning", choices=("none", "paper"), default=None)
    parser.add_argument("--dictionary", default=None, help="category dictionary path")
    parser.add_argument("--tagger", default=None, help="'rules' or 'perceptron:PATH'")
    parser.add_argument("--ad-domains", dest="ad_domains", default=None)


def _add_classifier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classifier", choices=CLI_CLASSIFIERS, default=None)
    parser.add_argument("--c", type=float, default=None, help="SVM cost")
    parser.add_argument("--k", type=int, default=None, help="KNN neighbor count")
    parser.add_argument("--trees", type=int, default=None, help="forest size")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="veritag",
                     description="Topic-agnostic reliability classification for news pages.")
    parser.add_argument("--version", action="version", version=f"veritag {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", parents=[], help="validate a corpus directory")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--check", action="store_true", help="also read every HTML file")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("filter-political", help="score pages with the topic filter")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", help="trained filter model path")
    p.add_argument("--topics", help="topic-labeled JSONL to train the filter from")
    p.add_argument("--save-model", dest="save_model", help="where to save a freshly trained filter")
    p.add_argument("--threshold", dest="political_threshold", type=float, default=None)
    p.add_argument("--out", default=None, help="decision CSV (default stdout)")
    p.set_defaults(handler=cmd_filter_political)

    p = sub.add_parser("sample", help="balanced per-site-per-year sample")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--cap", type=int, required=True, help="max pages per site-year")
    p.add_argument("--out", required=True, help="sampled manifest JSONL path")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("extract", help="extract feature vectors to CSV")
    _add_config_flags(p)
    _add_feature_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", help="extract exactly this schema (overrides flags)")
    p.add_argument("--out", required=True, help="feature CSV path")
    p.add_argument("--schema-out", dest="schema_out", help="also write the schema JSON")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("select", help="importance-based feature selection")
    _add_config_flags(p)
    _add_feature_flags(p)
    p.add_argument("--features", required=True, help="labeled feature CSV")
    p.add_argument("--schema", help="schema JSON naming some or all of the CSV's columns")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--trees", dest="selection_trees", type=int, default=None)
    p.add_argument("--lambda", dest="l1_lambda", type=float, default=None)
    p.add_argument("--out", required=True, help="pruned schema JSON path")
    p.add_argument("--report", help="per-feature importance CSV")
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("train", help="train a classification pipeline")
    _add_config_flags(p)
    _add_feature_flags(p)
    _add_classifier_flags(p)
    p.add_argument("--features", help="labeled feature CSV (svm/knn/rf)")
    p.add_argument("--schema", help="schema JSON naming some or all of the CSV's columns")
    p.add_argument("--corpus", help="corpus directory (baseline-svm)")
    p.add_argument("--min-df", dest="min_df", type=int, default=None)
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="classify a corpus with a trained model")
    _add_config_flags(p)
    _add_feature_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None, help="predictions CSV (default stdout)")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", help="run an evaluation protocol")
    _add_config_flags(p)
    _add_feature_flags(p)
    _add_classifier_flags(p)
    p.add_argument("--protocol", required=True,
                   choices=("cv", "temporal", "cross-domain", "grid"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--test-corpus", dest="test_corpus")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--min-df", dest="min_df", type=int, default=None)
    p.add_argument("--group-sets", dest="group_sets", default=DEFAULT_GRID_GROUP_SETS,
                   help="semicolon-separated group combos for --protocol grid")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("report-terms", help="per-year top term frequencies")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--out", default=None, help="term CSV (default stdout)")
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
    if getattr(args, "jobs", 1) is not None and getattr(args, "jobs", 1) < 1:
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
