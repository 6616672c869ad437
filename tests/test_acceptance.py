"""Acceptance gate: one test per shipped guarantee.

Each test exercises a headline property end to end, asserts it at the
pinned tolerance, enforces its runtime budget, and prints a single
``[PASS] criterion N`` line (visible under ``pytest -s``). The final
criterion runs the real-data integration flow and is skipped unless the
``CHBMIT_DIR`` environment variable points at a local dataset copy.
"""

import json
import math
import os
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from seizurekit import (
    FeatureMatrix,
    Recording,
    SmoteConfig,
    fit_scaler,
    parse_edf,
    parse_seizure_summary,
    roc_auc,
    smote,
    write_edf,
)
from seizurekit.cli import main
from seizurekit.edf import ChannelMeta
from seizurekit.evaluation import kfold_patients, split_patients
from seizurekit.features import write_feature_csv
from seizurekit.models import (
    LogRegConfig,
    LstmParams,
    LstmTrainConfig,
    init_params,
    logreg_fit,
    lstm_grad,
    lstm_predict,
    lstm_train,
    svm_fit_smo,
)
from seizurekit.models.lstm import _FIELDS, _mean_loss
from seizurekit.pipeline import PipelineConfig, run_holdout
from seizurekit.synthetic import SynthConfig, generate_synthetic

from tests.test_lstm import flatten, unflatten
from tests.test_registry import classify


def _passed(num, label, t0, budget_s):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"[PASS] criterion {num}: {label} ({elapsed:.2f}s, budget {budget_s:.0f}s)")


@pytest.fixture(scope="module")
def default_data():
    return generate_synthetic(SynthConfig())


def test_criterion_01_majority_baseline(default_data):
    t0 = time.perf_counter()
    fm, labels = default_data
    result = run_holdout(fm, labels, PipelineConfig(model="constant", seed=0))
    acc = result.report["accuracy"]
    rec = result.report["recall"]
    assert abs(acc - 0.94) <= 0.005, acc
    assert rec == 0.0
    _passed(1, f"all-negative baseline accuracy {acc:.4f}, recall 0", t0, 5)


def test_criterion_02_balanced_detector_ordering(default_data):
    t0 = time.perf_counter()
    fm, labels = default_data

    lr = run_holdout(
        fm,
        labels,
        PipelineConfig(
            model="logreg",
            model_params={"learning_rate": 0.5, "max_iters": 300},
            use_smote=True,
            seed=0,
        ),
    ).report
    assert lr["recall"] >= 0.80, lr["recall"]
    assert lr["accuracy"] >= 0.85, lr["accuracy"]

    rf = run_holdout(
        fm,
        labels,
        PipelineConfig(
            model="rf",
            model_params={"n_trees": 20, "max_depth": 6},
            use_smote=False,
            max_train_rows=8000,
            seed=0,
        ),
    ).report
    assert rf["recall"] < 0.10, rf["recall"]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sv = run_holdout(
            fm,
            labels,
            PipelineConfig(
                model="svm",
                model_params={"C": 0.1, "max_passes": 30},
                use_smote=False,
                seed=0,
            ),
        ).report
    assert sv["recall"] < 0.10, sv["recall"]

    _passed(
        2,
        (
            f"logreg+smote recall {lr['recall']:.3f} acc {lr['accuracy']:.3f}; "
            f"rf/svm without smote recall {rf['recall']:.3f}/{sv['recall']:.3f}"
        ),
        t0,
        120,
    )


def _true_knn(minority, i, k):
    diff = minority - minority[i]
    d2 = (diff * diff).sum(axis=1)
    order = [j for j in np.argsort(d2, kind="stable") if j != i]
    return order[:k]


def test_criterion_03_smote_geometry():
    t0 = time.perf_counter()
    checked = 0
    case = 0
    while checked < 1000:
        case += 1
        rng = np.random.default_rng(case)
        n_min = int(rng.integers(3, 10))
        n_maj = n_min + int(rng.integers(2, 15))
        dims = int(rng.integers(2, 6))
        k = int(rng.integers(1, n_min))
        ratio = float(rng.uniform((n_min + 1) / n_maj, 1.0))

        X = rng.normal(size=(n_min + n_maj, dims)).round(3)
        y = np.array([1] * n_min + [0] * n_maj)
        perm = rng.permutation(len(y))
        X, y = X[perm], y[perm]

        X_out, y_out, is_synth = smote(
            X, y, SmoteConfig(k_neighbors=k, target_ratio=ratio, seed=case)
        )

        n_synth = math.floor(ratio * n_maj) - n_min
        assert int(is_synth.sum()) == n_synth
        assert int((y_out == 1).sum()) == n_min + n_synth
        assert int((y_out == 0).sum()) == n_maj
        assert np.array_equal(X_out[: len(y)], X) and np.array_equal(y_out[: len(y)], y)

        minority = X[y == 1]
        neighbors = {i: _true_knn(minority, i, k) for i in range(n_min)}
        for s in X_out[is_synth]:
            best = np.inf
            for i in range(n_min):
                a = minority[i]
                for j in neighbors[i]:
                    b = minority[j]
                    ab = b - a
                    denom = float(ab @ ab)
                    lam = 0.0 if denom == 0.0 else float(np.clip((s - a) @ ab / denom, 0.0, 1.0))
                    best = min(best, float(np.abs(a + lam * ab - s).max()))
            assert best < 1e-9, best
            checked += 1
    _passed(3, f"{checked} synthetic points on true-neighbor segments (tol 1e-9)", t0, 30)


def test_criterion_04_leakage_suite(tmp_path):
    t0 = time.perf_counter()
    patients = [f"P{i:02d}" for i in range(23)]

    for seed in range(500):
        plan = split_patients(patients, seed=seed)
        groups = [set(plan.train_patients), set(plan.val_patients), set(plan.test_patients)]
        assert not (groups[0] & groups[1]) and not (groups[0] & groups[2])
        assert not (groups[1] & groups[2])
        assert groups[0] | groups[1] | groups[2] == set(patients)

        folds = kfold_patients(patients, k=5, seed=seed)
        seen = []
        for train_p, test_p in folds:
            assert not (set(train_p) & set(test_p))
            assert set(train_p) | set(test_p) == set(patients)
            seen.extend(test_p)
        assert sorted(seen) == sorted(patients)

    rng = np.random.default_rng(0)
    values = rng.normal(size=(60, 5))
    fm = FeatureMatrix(
        values=values,
        patients=np.array([f"P{i % 6}" for i in range(60)]),
        files=np.array(["f.edf"] * 60),
        starts=np.arange(60, dtype=np.float64),
    )
    train_idx = np.arange(40)
    before = fit_scaler(fm.take(train_idx))
    tampered = FeatureMatrix(
        values=np.concatenate([values[:40], values[40:] * 1e6 + 123.0]),
        patients=fm.patients,
        files=fm.files,
        starts=fm.starts,
    )
    after = fit_scaler(tampered.take(train_idx))
    assert np.array_equal(before.mean, after.mean)
    assert np.array_equal(before.std, after.std)

    data_dir = tmp_path / "data"
    rc = main(
        [
            "synth",
            "--patients",
            "4",
            "--epochs-per-patient",
            "30",
            "--channels",
            "2",
            "--out",
            str(data_dir),
        ]
    )
    assert rc == 0
    cfg = tmp_path / "leaky.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "logreg",
                "train_patients": ["P01", "P02"],
                "test_patients": ["P02", "P03", "P04"],
            }
        ),
        encoding="utf-8",
    )
    rc = main(
        [
            "train",
            "--features",
            str(data_dir / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    _passed(
        4,
        "500-seed split/fold disjointness; scaler ignores test rows; exit 3 on contamination",
        t0,
        30,
    )


def test_criterion_05_lstm_gradient_check():
    t0 = time.perf_counter()
    d, h, T, N = 3, 4, 5, 3
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = init_params(d, hidden_dim=h, seed=seed)
        seqs = rng.normal(size=(N, T, d))
        labels = rng.integers(0, 2, size=N).astype(float)
        grads, _ = lstm_grad(p, seqs, labels, clip_norm=None)
        gvec = flatten(LstmParams(**{k: grads[k] for k in _FIELDS}))
        pvec = flatten(p)
        eps = 1e-5
        for j in range(len(pvec)):
            up, dn = pvec.copy(), pvec.copy()
            up[j] += eps
            dn[j] -= eps
            num = (
                _mean_loss(unflatten(p, up), seqs, labels)
                - _mean_loss(unflatten(p, dn), seqs, labels)
            ) / (2 * eps)
            rel = abs(num - gvec[j]) / max(1e-8, abs(num), abs(gvec[j]))
            worst = max(worst, rel)
    assert worst < 1e-4, worst
    _passed(5, f"BPTT vs central differences, 10 seeds, max rel err {worst:.2e}", t0, 60)


def test_criterion_06_lstm_memorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    n, T, d = 20, 6, 4
    labels = np.array([i % 2 for i in range(n)], dtype=float)
    seqs = rng.normal(size=(n, T, d)) + labels[:, None, None] * 1.5
    params, history = lstm_train(
        (seqs, labels),
        None,
        LstmTrainConfig(learning_rate=0.2, epochs=200, batch_size=4, seed=0),
    )
    assert len(history["train_loss"]) <= 200
    classes, _ = lstm_predict(params, seqs)
    acc = float((classes == labels).mean())
    assert acc >= 0.95, acc
    _passed(6, f"toy-set train accuracy {acc:.2%} within 200 epochs", t0, 60)


def test_criterion_07_auc_oracle_equivalence():
    t0 = time.perf_counter()

    _, auc_hand = roc_auc(
        np.array([1, 1, 0, 0]), np.array([0.9, 0.4, 0.5, 0.1])
    )
    assert auc_hand == 0.75

    for case in range(1000):
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.random(n)
        if case % 2:
            scores = scores.round(1)  # force ties
        _, auc = roc_auc(y, scores)
        pos, neg = scores[y == 1], scores[y == 0]
        wins = float((pos[:, None] > neg[None, :]).sum())
        ties = float((pos[:, None] == neg[None, :]).sum())
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auc == brute, (case, auc, brute)
    _passed(7, "sweep AUC equals pair statistic on 1000 instances (hand case 0.75)", t0, 10)


def test_criterion_08_edf_round_trip():
    t0 = time.perf_counter()
    import datetime

    for case in range(100):
        rng = np.random.default_rng(case)
        n_ch = int(rng.integers(1, 5))
        num_records = int(rng.integers(1, 6))
        channels = []
        signals = []
        for c in range(n_ch):
            spr = int(rng.integers(1, 13))
            pmax = float(rng.integers(50, 800))
            dmax = int(rng.integers(255, 32768))
            meta = ChannelMeta(
                label=f"EEG {c}",
                transducer="AgAgCl electrode",
                physical_dimension="uV",
                physical_min=-pmax,
                physical_max=pmax,
                digital_min=-dmax - 1,
                digital_max=dmax,
                prefiltering="",
                samples_per_record=spr,
            )
            channels.append(meta)
            signals.append(rng.uniform(-pmax, pmax, size=spr * num_records))
        rec = Recording(
            patient_id=f"case{case}",
            start_datetime=datetime.datetime(2002, 3, 4, 5, 6, 7),
            record_duration_s=1.0,
            num_records=num_records,
            channels=tuple(channels),
            signals=tuple(signals),
            recording_id="",
        )
        back = parse_edf(write_edf(rec))
        assert back.patient_id == rec.patient_id
        assert back.num_records == num_records
        for meta, orig, parsed in zip(channels, rec.signals, back.signals):
            assert back.channels[channels.index(meta)] == meta
            assert np.abs(parsed - orig).max() <= meta.gain / 2 + 1e-12
    _passed(8, "100 randomized recordings: exact headers, samples within one step", t0, 10)


def test_criterion_09_svm_kernel_necessity():
    t0 = time.perf_counter()
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])

    model = svm_fit_smo(X, y, C=10.0, gamma=2.0, seed=1)
    svm_acc = float((classify(model, X) == y).mean())
    assert svm_acc == 1.0

    lin = logreg_fit(X, y, LogRegConfig(learning_rate=0.5, max_iters=500))
    lin_acc = float((classify(lin, X) == y).mean())
    assert lin_acc <= 0.75, lin_acc

    assert np.all(model.alphas >= -1e-12) and np.all(model.alphas <= model.C + 1e-12)
    assert abs(float(model.alphas @ model.labels)) <= 1e-6
    _passed(
        9,
        f"RBF-SMO 100% on XOR vs linear {lin_acc:.0%}; alphas in [0,C], sum(a*y)~0",
        t0,
        10,
    )


def test_criterion_10_cv_reporting_shape(default_data, tmp_path):
    t0 = time.perf_counter()
    fm, labels = default_data
    features = tmp_path / "features.csv"
    write_feature_csv(fm, labels, features)
    cfg = tmp_path / "cv.json"
    cfg.write_text(
        json.dumps({"model": "logreg", "model_params": {"max_iters": 100}}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(
        [
            "cv",
            "--features",
            str(features),
            "--config",
            str(cfg),
            "--k",
            "5",
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    for i in range(5):
        doc = json.loads((out / f"fold_{i}.json").read_text(encoding="utf-8"))
        for key in ("accuracy", "precision", "recall", "f1", "auc"):
            assert key in doc, key
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["k"] == 5
    for name in ("accuracy", "precision", "recall", "f1"):
        assert {"mean", "std"} <= set(summary["metrics"][name])
        assert re.fullmatch(r"\d+\.\d{2}% \(±\d+\.\d{2}%\)", summary["formatted"][name])
    _passed(
        10,
        f"k=5 fold reports + summary, e.g. accuracy {summary['formatted']['accuracy']}",
        t0,
        180,
    )


@pytest.mark.skipif(
    not os.environ.get("CHBMIT_DIR"),
    reason="real-data integration needs CHBMIT_DIR pointing at a local dataset copy",
)
def test_criterion_11_real_data_integration(tmp_path):
    t0 = time.perf_counter()
    root = Path(os.environ["CHBMIT_DIR"])
    patient_dirs = sorted(
        d for d in root.iterdir() if d.is_dir() and any(d.glob("*.edf"))
    )[:4]
    if len(patient_dirs) < 3:
        pytest.skip("need at least 3 patient directories with EDF files")

    edf_dir = tmp_path / "edf"
    edf_dir.mkdir()
    summaries = []
    for d in patient_dirs:
        for f in sorted(d.glob("*.edf"))[:3]:
            os.symlink(f, edf_dir / f.name)
        summaries.extend(str(s) for s in sorted(d.glob("*summary*.txt")))
    assert summaries, "dataset directories carry no seizure summary files"

    for spath in summaries:
        text = Path(spath).read_text(encoding="utf-8")
        declared = sum(
            int(m) for m in re.findall(r"Number of Seizures in File:\s*(\d+)", text)
        )
        parsed = parse_seizure_summary(text)
        assert sum(len(v) for v in parsed.values()) == declared

    store = tmp_path / "store"
    argv = ["ingest", "--edf-dir", str(edf_dir), "--out", str(store)]
    for s in summaries:
        argv += ["--summary", s]
    assert main(argv) == 0

    feat = tmp_path / "feat"
    assert main(["featurize", "--store", str(store), "--out", str(feat)]) == 0

    cfg = tmp_path / "train.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "logreg",
                "model_params": {"learning_rate": 0.5, "max_iters": 300},
                "smote": True,
                "split_ratios": [0.5, 0.0, 0.5],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(
        [
            "train",
            "--features",
            str(feat / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["recall"] > 0.0, report["recall"]
    assert report["auc"] > 0.6, report["auc"]
    _passed(
        11,
        f"real-data ingest+train: recall {report['recall']:.3f}, auc {report['auc']:.3f}",
        t0,
        600,
    )
