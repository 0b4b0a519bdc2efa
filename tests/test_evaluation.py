import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.errors import (
    DegenerateClass,
    EmptyInput,
    EmptyMatrix,
    LengthMismatch,
    NonFiniteSamples,
    UnknownLabel,
)
from chatterdetect.signal_io import CLASS_ORDER, MachiningClass

# confusion matrix published for the unambiguous industrial test set:
# rows true (chatter, machining, rotation), columns predicted
PUBLISHED_CM = np.array([[1539, 5, 0], [0, 2759, 55], [0, 0, 733]])


def mann_whitney_auc(scores, positive):
    """Brute-force pair statistic: P(score_pos > score_neg), ties count 1/2."""
    pos = scores[positive]
    neg = scores[~positive]
    wins = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_confusion_all_correct():
    preds = [MachiningClass(c) for c in (0,) * 10 + (1,) * 10 + (2,) * 10]
    cm = cd.confusion(preds, preds)
    assert np.array_equal(cm.counts, np.diag([10, 10, 10]))
    assert cm.total == 30


def test_confusion_single_pair():
    cm = cd.confusion([MachiningClass.CHATTER], [MachiningClass.CHATTER])
    assert cm.counts[0, 0] == 1 and cm.total == 1


def test_confusion_errors():
    with pytest.raises(LengthMismatch):
        cd.confusion([MachiningClass.CHATTER], [])
    with pytest.raises(EmptyInput):
        cd.confusion([], [])


@pytest.mark.parametrize("code", [-1, 3, 1.5])
def test_confusion_rejects_unknown_class_codes(code):
    with pytest.raises(UnknownLabel):
        cd.confusion([0, 1], [code, 1])
    with pytest.raises(UnknownLabel):
        cd.confusion([0, code], [0, 1])


@pytest.mark.parametrize("code", [-1, 5, 1.5])
def test_roc_rejects_unknown_class_codes(code):
    with pytest.raises(UnknownLabel):
        cd.roc(np.full((3, 3), 1 / 3), [0, code, 1], MachiningClass.CHATTER)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 2])
def test_roc_refuses_non_finite_probabilities(bad, column):
    probs = np.array([[0.2, 0.3, 0.5], [0.4, 0.5, 0.1], [0.9, 0.05, 0.05]])
    probs[1, column] = bad
    with pytest.raises(NonFiniteSamples):
        cd.roc(probs, [0, 1, 2], MachiningClass.CHATTER)


def test_published_matrix_metrics():
    cm = cd.ConfusionMatrix(PUBLISHED_CM)
    metrics = cd.class_metrics(cm)
    assert metrics.accuracy == pytest.approx(5031 / 5091)
    assert metrics.accuracy * 100 == pytest.approx(98.82, abs=0.01)

    rotation = metrics.per_class[MachiningClass.ROTATION_NO_MACHINING]
    assert rotation.precision == pytest.approx(733 / 788)
    assert rotation.recall == 1.0
    assert rotation.f1 == pytest.approx(2 * (733 / 788) / (1 + 733 / 788))
    assert rotation.support == 733

    chatter = metrics.per_class[MachiningClass.CHATTER]
    assert chatter.precision == 1.0
    assert chatter.recall == pytest.approx(1539 / 1544)


def test_perfect_diagonal_metrics():
    metrics = cd.class_metrics(cd.ConfusionMatrix(np.diag([5, 6, 7])))
    assert metrics.accuracy == 1.0
    for m in metrics.per_class.values():
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrix):
        cd.class_metrics(cd.ConfusionMatrix(np.zeros((3, 3))))


def test_zero_denominator_flagged():
    counts = np.array([[5, 0, 0], [3, 0, 0], [0, 0, 0]])
    metrics = cd.class_metrics(cd.ConfusionMatrix(counts))
    rotation = metrics.per_class[MachiningClass.ROTATION_NO_MACHINING]
    assert rotation.precision == rotation.recall == rotation.f1 == 0.0


def test_accuracy_matches_direct_recount():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        preds = rng.integers(0, 3, n)
        labels = rng.integers(0, 3, n)
        metrics = cd.class_metrics(cd.confusion(preds.tolist(), labels.tolist()))
        assert metrics.accuracy == pytest.approx(float((preds == labels).mean()))


def test_per_class_recall_invariant_under_class_duplication():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, 60)
    preds = rng.integers(0, 3, 60)
    base = cd.class_metrics(cd.confusion(preds.tolist(), labels.tolist())).per_class
    for cls in range(3):
        mask = labels == cls
        dup_labels = np.concatenate([labels, labels[mask], labels[mask]])
        dup_preds = np.concatenate([preds, preds[mask], preds[mask]])
        dup = cd.class_metrics(cd.confusion(dup_preds.tolist(), dup_labels.tolist()))
        for c, m in base.items():
            assert dup.per_class[c].recall == pytest.approx(m.recall, abs=1e-12)


def probs_from_scores(scores, cls=0):
    probs = np.zeros((len(scores), 3))
    probs[:, cls] = scores
    remainder = (1.0 - probs[:, cls]) / 2.0
    probs[:, (cls + 1) % 3] = remainder
    probs[:, (cls + 2) % 3] = remainder
    return probs


def test_roc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
    labels = [0, 0, 0, 1, 1, 2]
    curve = cd.roc(probs_from_scores(scores), labels, MachiningClass.CHATTER)
    assert curve.auc == pytest.approx(1.0)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


def test_roc_constant_scores():
    scores = np.full(10, 0.5)
    labels = [0] * 4 + [1] * 6
    curve = cd.roc(probs_from_scores(scores), labels, MachiningClass.CHATTER)
    assert curve.auc == pytest.approx(0.5)
    # all samples move together: one step from (0,0) to (1,1)
    assert len(curve.fpr) == 2


def test_roc_hand_case_matches_pair_oracle():
    scores = np.array([0.9, 0.8, 0.4, 0.7, 0.3, 0.2])
    positive = np.array([True, True, True, False, False, False])
    labels = [0 if p else 1 for p in positive]
    curve = cd.roc(probs_from_scores(scores), labels, MachiningClass.CHATTER)
    oracle = mann_whitney_auc(scores, positive)
    assert oracle == pytest.approx(8.0 / 9.0)  # frozen from the pair enumeration
    assert curve.auc == pytest.approx(oracle, abs=1e-12)


def test_roc_matches_mann_whitney_with_ties():
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(4, 200))
        # quantized scores force plenty of ties
        scores = rng.integers(0, 8, n) / 8.0
        labels = rng.integers(0, 3, n)
        positive = labels == 0
        if positive.all() or not positive.any():
            continue
        curve = cd.roc(probs_from_scores(scores), labels.tolist(), MachiningClass.CHATTER)
        assert curve.auc == pytest.approx(mann_whitney_auc(scores, positive), abs=1e-9)


def test_roc_monotone():
    rng = np.random.default_rng(10)
    scores = rng.random(50)
    labels = rng.integers(0, 2, 50)
    curve = cd.roc(probs_from_scores(scores), labels.tolist(), MachiningClass.CHATTER)
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)


def test_roc_degenerate_class():
    scores = np.array([0.5, 0.6])
    with pytest.raises(DegenerateClass):
        cd.roc(probs_from_scores(scores), [0, 0], MachiningClass.CHATTER)


def test_emit_report_published_matrix(tmp_path):
    labels, preds = [], []
    for true_cls in range(3):
        for pred_cls in range(3):
            count = int(PUBLISHED_CM[true_cls, pred_cls])
            labels.extend([true_cls] * count)
            preds.extend([pred_cls] * count)
    rng = np.random.default_rng(0)
    probs = np.full((len(preds), 3), 0.1)
    probs[np.arange(len(preds)), preds] = 0.8
    report = cd.build_report(probs, labels, split_id="test", model_id="m")
    cd.emit_report(report, tmp_path)

    confusion_lines = (tmp_path / "confusion.csv").read_text().splitlines()
    assert confusion_lines[0] == ",chatter,machining,rotation"
    row_sums = [
        sum(int(v) for v in line.split(",")[1:]) for line in confusion_lines[1:]
    ]
    assert row_sums == [1544, 2814, 733]

    metrics_lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics_lines[0] == "class,precision,recall,f1,support"
    assert metrics_lines[-1].startswith("accuracy,")
    for cls in CLASS_ORDER:
        assert (tmp_path / f"roc_{cls.token}.csv").exists()
    auc_header = (tmp_path / "roc_chatter.csv").read_text().splitlines()[0]
    assert auc_header.startswith("# auc=")


def test_emit_report_is_deterministic(tmp_path):
    labels = [0, 1, 2, 0, 1, 2]
    probs = np.array(
        [
            [0.7, 0.2, 0.1],
            [0.1, 0.8, 0.1],
            [0.2, 0.2, 0.6],
            [0.5, 0.3, 0.2],
            [0.3, 0.4, 0.3],
            [0.1, 0.1, 0.8],
        ]
    )
    report_a = cd.build_report(probs, labels, split_id="test", model_id="m")
    report_b = cd.build_report(probs, labels, split_id="test", model_id="m")
    cd.emit_report(report_a, tmp_path / "a")
    cd.emit_report(report_b, tmp_path / "b")
    for name in ("confusion.csv", "metrics.csv", "roc_chatter.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_report_removes_stale_roc_files(tmp_path):
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
    cd.emit_report(cd.build_report(probs, [0, 1, 2]), tmp_path)
    assert len(list(tmp_path.glob("roc_*.csv"))) == 3
    # one class only: every class is one-sided, so no curve at all
    cd.emit_report(cd.build_report(probs, [0, 0, 0]), tmp_path)
    assert list(tmp_path.glob("roc_*.csv")) == []
    assert (tmp_path / "confusion.csv").read_text().splitlines()[1] == "chatter,1,1,1"


def test_report_skips_degenerate_roc():
    labels = [0, 0, 1]  # rotation absent
    probs = np.array([[0.8, 0.1, 0.1], [0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
    report = cd.build_report(probs, labels)
    assert report.roc_curves[MachiningClass.ROTATION_NO_MACHINING] is None
    assert report.roc_curves[MachiningClass.CHATTER] is not None


@pytest.mark.parametrize("shape", [(3,), (3, 2), (3, 4), (3, 3, 1)])
def test_report_refuses_probabilities_not_one_column_per_class(shape):
    with pytest.raises(LengthMismatch, match=r"must be \(n, 3\)"):
        cd.build_report(np.full(shape, 0.5), [0, 1, 2])


@pytest.mark.parametrize("labels", [[0, 1, 2], [0, 0, 0]])
def test_report_refuses_non_finite_probabilities(labels):
    # argmax would read the NaN row as chatter, and the ROC sweep would
    # sort it as a score; with one class only, no ROC is drawn at all
    probs = [[0.2, 0.3, 0.5], [np.nan, 0.5, 0.5], [0.9, 0.05, 0.05]]
    with pytest.raises(NonFiniteSamples):
        cd.build_report(probs, labels)
