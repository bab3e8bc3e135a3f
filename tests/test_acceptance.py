"""Release acceptance: nine go/no-go checks, one test per criterion.

Each test prints a single `criterion N: PASS|FAIL|SKIPPED` verdict (visible
with -s; the verbose per-test status line mirrors it) and enforces the
runtime budget where the contract sets one.

Criterion 8 checks accuracy bands on the public PoliticalNews / Celebrity /
US-Election2016 corpora and needs external data: point VERITAG_DATASET_DIR
at a directory holding `politicalnews/`, `celebrity/`, and `us-election2016/`
corpus directories (manifest.jsonl + site_labels.json + pages/) and
VERITAG_LIWC_DICTIONARY at a LIWC-format .dic file. Without both variables
the check is skipped, never failed.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from markup_fixtures import FIXTURES, GROUPS
from veritag import (
    ClassifierSettings,
    ExtractionResources,
    FeatureSchema,
    PipelineSpec,
    RawDocument,
    apply_paper_pruning,
    build_schema,
    combine_factors,
    cross_domain_eval,
    extract_document,
    kfold_cv,
    knn_predict,
    knn_train,
    load_dictionary,
    load_manifest,
    markup_features,
    parse_html,
    readability_features,
    rf_predict,
    rf_train,
    save_pipeline,
    select_features,
    svm_predict,
    svm_train,
    temporal_eval,
    tokenize,
    train_tag_pipeline,
)
from veritag.cli import main
from veritag.linguistics.tagger import RuleTagger
from veritag.resources import ad_domains, demo_dictionary_path, reference_text


@contextmanager
def _criterion(n: int, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except pytest.skip.Exception:
        print(f"criterion {n}: SKIPPED", flush=True)
        raise
    except BaseException:
        print(f"criterion {n}: FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None and not elapsed < budget_s:
        print(f"criterion {n}: FAIL", flush=True)
        raise AssertionError(
            f"criterion {n} finished correct but took {elapsed:.2f}s; "
            f"budget is {budget_s:g}s"
        )
    print(f"criterion {n}: PASS", flush=True)


def test_criterion_1_readability_oracle():
    """The five index values on the bundled ten-sentence reference text
    match hand computation from the module's own token/syllable counts."""
    with _criterion(1, budget_s=1.0):
        tokenized = tokenize(reference_text())
        scores = readability_features(tokenized)

        # the text is engineered so every intermediate is a round number
        assert scores["W"] == 120
        assert scores["STC"] == 10
        assert scores["SY"] == 212
        assert scores["CH"] == 636
        assert scores["CW.complex"] == 24

        # FRI = 206.835 - 1.015*12 - 84.6*(212/120)
        assert scores["FRI"] == pytest.approx(45.195, abs=1e-6)
        # FKI = 0.39*12 + 11.8*(212/120) - 15.59
        assert scores["FKI"] == pytest.approx(9.936666666666667, abs=1e-6)
        # CLI = 0.0588*(100*625/120) - 0.296*(100*10/120) - 15.8
        assert scores["CLI"] == pytest.approx(12.358333333333333, abs=1e-6)
        # ARI = 4.71*(636/120) + 0.5*12 - 21.43
        assert scores["ARI"] == pytest.approx(9.533, abs=1e-6)
        # GFI = 0.4*(12 + 100*24/120)
        assert scores["GFI"] == pytest.approx(12.8, abs=1e-6)


def test_criterion_2_importance_combination_rule():
    """Geometric-mean combination: annihilation, identity, exact fourth
    roots, per-factor monotonicity, and permutation equivariance."""
    with _criterion(2, budget_s=5.0):
        rng = np.random.default_rng(2)
        ones = np.ones(1)

        # identity: all-ones factors give r = 1 exactly
        seven = np.ones(7)
        assert np.array_equal(combine_factors(seven, seven, seven, seven), seven)

        # zero-annihilation: any zero factor forces r = 0 exactly
        for _ in range(50):
            f = [rng.uniform(0.0, 1.0, size=4) for _ in range(4)]
            f[rng.integers(0, 4)][rng.integers(0, 4)] = 0.0
            zeroed = np.flatnonzero(np.min(np.stack(f), axis=0) == 0.0)
            assert np.all(combine_factors(*f)[zeroed] == 0.0)

        # exact fourth root: (0.0625, 1, 1, 1) -> 0.5
        assert combine_factors(np.array([0.0625]), ones, ones, ones)[0] == 0.5

        # monotone in each factor over 1000 random tuples
        for _ in range(1000):
            f = rng.uniform(0.0, 1.0, size=4)
            j = int(rng.integers(0, 4))
            bumped = f.copy()
            bumped[j] = f[j] + (1.0 - f[j]) * rng.uniform(0.1, 1.0)
            r_before = combine_factors(*(np.array([v]) for v in f))[0]
            r_after = combine_factors(*(np.array([v]) for v in bumped))[0]
            assert r_after >= r_before
            others_positive = all(v > 0.0 for i, v in enumerate(f) if i != j)
            if others_positive and bumped[j] > f[j]:
                assert r_after > r_before

        # permutation equivariance across the feature axis
        factors = [rng.uniform(0.0, 1.0, size=9) for _ in range(4)]
        base = combine_factors(*factors)
        perm = rng.permutation(9)
        permuted = combine_factors(*(f[perm] for f in factors))
        assert np.array_equal(permuted, base[perm])


def test_criterion_3_selection_sanity():
    """On 500x20 with one label copy, one constant, 18 noise columns: the
    label copy is retained with the maximum r; the constant scores r = 0
    and is dropped."""
    with _criterion(3, budget_s=60.0):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, size=500)
        X = rng.normal(size=(500, 20))
        X[:, 0] = y.astype(float)
        X[:, 1] = 3.14
        names = tuple(f"R.f{j:02d}" for j in range(20))
        schema = FeatureSchema(names=names, granularity="HC", groups=("R",), pruning="none")

        pruned, scores = select_features(
            X, y, schema, bins=10, trees=250, lam=0.05, seed=0
        )
        assert scores.r[0] == max(scores.r)
        assert "R.f00" in pruned.names
        assert scores.r[1] == 0.0
        assert "R.f01" not in pruned.names


def test_criterion_4_classifier_suite(tmp_path):
    """SVM separates the wide-margin 200-point set perfectly; KNN k=1
    self-predicts 100%; RF clears 0.9 held-out on the seeded XOR fixture;
    all three are bit-reproducible under a fixed seed."""
    with _criterion(4, budget_s=120.0):
        # margin-separated 200-point set
        rng = np.random.default_rng(0)
        blob_a = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(100, 2))
        blob_b = rng.normal(loc=(+2.0, 0.0), scale=0.3, size=(100, 2))
        X = np.vstack([blob_a, blob_b])
        y = np.array([0] * 100 + [1] * 100)

        # the solver asserts its objective trajectory monotone on every
        # pass and raises InvariantError on violation, so a completed fit
        # certifies the nonincreasing-objective requirement
        svm = svm_train(X, y, C=0.1)
        svm_predictions = svm_predict(svm, X)[0].tolist()
        assert svm_predictions == y.tolist()

        knn = knn_train(X, y, k=1)
        assert knn_predict(knn, X)[0].tolist() == y.tolist()

        xor_rng = np.random.default_rng(42)
        X_xor = xor_rng.uniform(-1.0, 1.0, size=(400, 2))
        y_xor = ((X_xor[:, 0] > 0) ^ (X_xor[:, 1] > 0)).astype(int)
        forest = rf_train(X_xor[:300], y_xor[:300], n_trees=100, seed=0)
        held_out = rf_predict(forest, X_xor[300:])[0]
        assert np.mean(held_out == y_xor[300:]) > 0.9

        # bit-reproducibility: same data and seed, identical parameters,
        # identical predictions, identical serialized artifact
        svm_again = svm_train(X, y, C=0.1)
        assert np.array_equal(svm.weights, svm_again.weights)
        assert svm.bias == svm_again.bias

        knn_again = knn_train(X, y, k=1)
        for got, want in zip(knn_predict(knn_again, X), knn_predict(knn, X), strict=True):
            assert got.tobytes() == want.tobytes()

        forest_again = rf_train(X_xor[:300], y_xor[:300], n_trees=100, seed=0)
        for got, want in zip(
            rf_predict(forest_again, X_xor[300:]), rf_predict(forest, X_xor[300:]), strict=True
        ):
            assert got.tobytes() == want.tobytes()

        schema = FeatureSchema(
            names=("R.x1", "R.x2"), granularity="HC", groups=("R",), pruning="none"
        )
        settings = ClassifierSettings(name="svm", c=0.1)
        path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_pipeline(train_tag_pipeline(X, y, schema, settings), path_a)
        save_pipeline(train_tag_pipeline(X, y, schema, settings), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


def test_criterion_5_markup_fixtures():
    """Tag-group counts, ADS and AU equal the hand
    counts on all 12 fixtures; W features never depend on granularity."""
    with _criterion(5):
        assert len(FIXTURES) == 12
        for fixture in FIXTURES:
            w = markup_features(parse_html(fixture.html))
            assert {g: w[g] for g in GROUPS} == fixture.groups, fixture.name
            assert w["ADS"] == fixture.ads, fixture.name
            assert w["AU"] == fixture.author, fixture.name

            doc = RawDocument(
                id="fx", url="https://news.example/a", site="news.example",
                label="reliable", year=2016, html=fixture.html.encode(),
            )
            rows = {}
            for granularity in ("H", "C", "HC"):
                schema = build_schema(granularity, ("W",))
                vector = extract_document(doc, schema)
                rows[granularity] = dict(zip(schema.names, vector.values))
            assert rows["H"] == rows["C"] == rows["HC"], fixture.name


def test_criterion_6_end_to_end_cv(demo_corpus_dir, tmp_path):
    """`veritag evaluate` reaches >= 0.9 mean accuracy with 5-fold CV on
    the bundled 40-page two-style corpus."""
    with _criterion(6, budget_s=120.0):
        out = tmp_path / "cv.csv"
        rc = main([
            "evaluate", "--protocol", "cv",
            "--corpus", str(demo_corpus_dir), "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config: ")
        mean_row = lines[-1].split(",")
        assert mean_row[0] == "mean"
        assert float(mean_row[1]) >= 0.9


def test_criterion_7_temporal_drift(drift_docs, resources):
    """On the two-year vocabulary-swap fixture the content baseline loses
    at least 0.2 accuracy cross-year versus within-year, while the
    layout-and-style model stays within 0.05 of its within-year level."""
    with _criterion(7, budget_s=180.0):
        def within_year_cv(spec):
            accuracies = []
            for year in sorted({d.year for d in drift_docs}):
                year_docs = [d for d in drift_docs if d.year == year]
                report = kfold_cv(year_docs, spec, resources, k=5, seed=0)
                accuracies.append(report.mean_accuracy)
            return float(np.mean(accuracies))

        def cross_year(spec):
            report = temporal_eval(drift_docs, spec, resources)
            return float(np.mean(list(report.cells.values())))

        baseline = PipelineSpec(kind="baseline")
        baseline_within = within_year_cv(baseline)
        baseline_cross = cross_year(baseline)
        assert baseline_within - baseline_cross >= 0.2

        tag = PipelineSpec()
        tag_within = within_year_cv(tag)
        tag_cross = cross_year(tag)
        assert abs(tag_cross - tag_within) <= 0.05


def test_criterion_8_public_corpus_accuracy_bands():
    """Dataset-gated: with the three public corpora and a LIWC-format
    dictionary supplied via environment variables, best-configuration
    5-fold accuracies must land within +-0.07 of (0.83, 0.78, 0.86) for
    (politicalnews, celebrity, us-election2016), and cross-domain SVM
    accuracies within +-0.07 of 0.70 (celebrity -> us-election2016) and
    0.63 (us-election2016 -> celebrity). Best configuration means the
    highest-CV cell over granularity {H, C, HC} x pruning {none, paper}
    with the per-corpus feature groups fixed below."""
    dataset_dir = os.environ.get("VERITAG_DATASET_DIR")
    dictionary_path = os.environ.get("VERITAG_LIWC_DICTIONARY")
    with _criterion(8):
        if not dataset_dir or not dictionary_path:
            pytest.skip(
                "accuracy-band check needs VERITAG_DATASET_DIR and "
                "VERITAG_LIWC_DICTIONARY"
            )
        if not Path(dictionary_path).is_file():
            pytest.skip(f"dictionary not found: {dictionary_path}")
        corpora = ("politicalnews", "celebrity", "us-election2016")
        for name in corpora:
            if not (Path(dataset_dir) / name / "manifest.jsonl").is_file():
                pytest.skip(f"corpus {name!r} not found under {dataset_dir}")

        resources = ExtractionResources(
            dictionary=load_dictionary(dictionary_path),
            tagger=RuleTagger(),
            ad_domains=ad_domains(),
        )
        targets = {
            "politicalnews": 0.83, "celebrity": 0.78, "us-election2016": 0.86,
        }
        groups = {
            "politicalnews": ("N", "L", "R", "W"),
            "celebrity": ("L", "R", "W"),
            "us-election2016": ("N", "L", "R", "W"),
        }

        docs = {
            name: list(load_manifest(Path(dataset_dir) / name).iter_documents())
            for name in corpora
        }
        best_spec: dict[str, PipelineSpec] = {}
        for name in corpora:
            best_acc, best = -1.0, None
            for granularity in ("H", "C", "HC"):
                for pruning in ("none", "paper"):
                    spec = PipelineSpec(
                        granularity=granularity, groups=groups[name], pruning=pruning
                    )
                    acc = kfold_cv(docs[name], spec, resources, k=5, seed=0).mean_accuracy
                    if acc > best_acc:
                        best_acc, best = acc, spec
            assert abs(best_acc - targets[name]) <= 0.07, (
                f"{name}: best 5-fold accuracy {best_acc:.3f} is outside "
                f"{targets[name]} +- 0.07"
            )
            best_spec[name] = best

        c2e = cross_domain_eval(
            docs["celebrity"], docs["us-election2016"],
            best_spec["celebrity"], resources, classifiers=("svm",),
        )["svm"]
        e2c = cross_domain_eval(
            docs["us-election2016"], docs["celebrity"],
            best_spec["us-election2016"], resources, classifiers=("svm",),
        )["svm"]
        assert abs(c2e - 0.70) <= 0.07, f"celebrity->election SVM {c2e:.3f}"
        assert abs(e2c - 0.63) <= 0.07, f"election->celebrity SVM {e2c:.3f}"


def test_criterion_9_pruning_lists(demo_dictionary):
    """Paper-mode pruning removes exactly the listed names present in the
    full schema at each granularity, and the retained web-markup set is
    {IT, AVT, AU, LKT, ADS, ST, BT}."""
    with _criterion(9):
        # hand-expanded from the per-granularity lists over the bundled
        # dictionary's categories (FW.semicolon has no counterpart there,
        # so at H it is skipped with a warning rather than failing)
        expected_removed = {
            "H": {
                "N.FOW", "N.IN", "N.JJR", "N.PRP$", "N.TO", "N.VBD",
                "N.VBG", "N.VBZ", "N.WP$",
                "R.MSI", "R.CW.cap", "R.CW.complex",
                "L.BP.ingest", "L.RL.time", "L.PC.home",
                "W.FT", "W.FIT", "W.FRT", "W.LT", "W.TT", "W.MT", "W.PT",
            },
            "C": {
                "N.DT", "N.PDT", "N.RBR", "N.RP", "N.UH",
                "L.OG.interrog", "L.OG.quant",
                "W.FT", "W.FIT", "W.FRT", "W.LT", "W.TT", "W.MT", "W.PT",
            },
            "HC": {
                "N.DT", "N.JJS", "N.PDT", "N.POS", "N.RBR", "N.RBS",
                "N.UH", "N.WRB",
                "W.FT", "W.FIT", "W.FRT", "W.LT", "W.TT", "W.MT", "W.PT",
            },
        }
        for granularity, removed in expected_removed.items():
            schema = build_schema(
                granularity, ("N", "L", "R", "W"), demo_dictionary
            )
            pruned = apply_paper_pruning(schema)
            assert set(schema.names) - set(pruned.names) == removed, granularity
            markup_kept = {
                n.split(".", 1)[1] for n in pruned.names if n.startswith("W.")
            }
            assert markup_kept == {"IT", "AVT", "AU", "LKT", "ADS", "ST", "BT"}
