"""Classifier evaluation: confusion matrix, per-class metrics, one-vs-rest ROC.

Everything is computed from scratch so the numbers are auditable against
hand counts; the report writer emits plain CSV with no volatile fields,
so re-emitting an identical report reproduces identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClass,
    EmptyInput,
    EmptyMatrix,
    LengthMismatch,
    UnknownLabel,
    make_dir,
    write_lines,
)
from .signal_io import CLASS_ORDER, MachiningClass


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    counts: np.ndarray  # (3, 3) int64; rows = true class, columns = predicted

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.counts.shape != (3, 3) or (self.counts < 0).any():
            raise ValueError("confusion matrix must be 3x3 with non-negative counts")

    def __eq__(self, other):
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class PerClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    zero_division: bool = False


@dataclass(frozen=True)
class ClassMetrics:
    per_class: dict[MachiningClass, PerClassMetrics]
    accuracy: float

    @property
    def macro_recall(self) -> float:
        return float(np.mean([m.recall for m in self.per_class.values()]))


@dataclass(frozen=True)
class RocCurve:
    positive_class: MachiningClass
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class EvaluationReport:
    confusion_matrix: ConfusionMatrix
    metrics: ClassMetrics
    roc_curves: dict[MachiningClass, RocCurve | None]
    split_id: str
    model_id: str


def _codes(values) -> np.ndarray:
    """`values` as int64 class codes; UnknownLabel unless each is one of 0..2
    (so 1.5 or NaN is rejected, not truncated)."""
    raw = np.asarray(values)
    n = len(CLASS_ORDER)
    if not np.isin(raw, np.arange(n)).all():
        raise UnknownLabel(f"class codes must lie in 0..{n - 1}")
    return raw.astype(np.int64)


def confusion(predictions, labels) -> ConfusionMatrix:
    """Counts of (true, predicted) class-code pairs; codes must lie in 0..2."""
    pred, true = _codes(predictions), _codes(labels)
    if pred.shape != true.shape:
        raise LengthMismatch(f"{pred.size} predictions vs {true.size} labels")
    if pred.size == 0:
        raise EmptyInput("no prediction/label pairs")
    n = len(CLASS_ORDER)
    return ConfusionMatrix(np.bincount(true * n + pred, minlength=n * n).reshape(n, n))


def class_metrics(cm: ConfusionMatrix) -> ClassMetrics:
    counts = cm.counts
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no counts")
    per_class = {}
    for cls in CLASS_ORDER:
        i = int(cls)
        col, row = int(counts[:, i].sum()), int(counts[i, :].sum())
        zero_division = col == 0 or row == 0
        precision = counts[i, i] / col if col else 0.0
        recall = counts[i, i] / row if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls] = PerClassMetrics(
            float(precision), float(recall), float(f1), row, zero_division
        )
    accuracy = float(np.trace(counts) / cm.total)
    return ClassMetrics(per_class, accuracy)


def roc(probabilities, labels, positive_class: MachiningClass) -> RocCurve:
    """One-vs-rest ROC over the class's predicted probability.

    Threshold sweep in descending score order; samples with equal scores
    move together, and the AUC is the trapezoidal area.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    y = _codes(labels)
    if probs.ndim != 2 or probs.shape[0] != y.size:
        raise LengthMismatch("probabilities and labels do not align")
    scores = probs[:, int(positive_class)]
    positive = y == int(positive_class)
    n_pos, n_neg = int(positive.sum()), int((~positive).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClass(
            f"class {positive_class.token} has no "
            f"{'positives' if n_pos == 0 else 'negatives'}"
        )

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp = np.cumsum(positive[order])
    fp = np.cumsum(~positive[order])
    # emit one point per distinct score (the last index of each tie group)
    last_of_group = np.r_[np.flatnonzero(np.diff(sorted_scores)), sorted_scores.size - 1]
    tpr = np.r_[0.0, tp[last_of_group] / n_pos]
    fpr = np.r_[0.0, fp[last_of_group] / n_neg]
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(positive_class, fpr, tpr, auc)


def build_report(
    probabilities, labels, split_id: str = "", model_id: str = ""
) -> EvaluationReport:
    """Assemble the full report; ROC is skipped (None) for one-sided classes."""
    probs = np.asarray(probabilities, dtype=np.float64)
    y = list(labels)
    cm = confusion(probs.argmax(axis=1), y)
    curves: dict[MachiningClass, RocCurve | None] = {}
    for cls in CLASS_ORDER:
        try:
            curves[cls] = roc(probs, y, cls)
        except DegenerateClass:
            curves[cls] = None
    return EvaluationReport(cm, class_metrics(cm), curves, split_id, model_id)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def emit_report(report: EvaluationReport, out_dir) -> None:
    """Write confusion.csv, metrics.csv and roc_<class>.csv into out_dir."""
    out = make_dir(out_dir)
    names = [cls.token for cls in CLASS_ORDER]
    lines = ["," + ",".join(names)]
    for cls in CLASS_ORDER:
        row = report.confusion_matrix.counts[int(cls)]
        lines.append(cls.token + "," + ",".join(str(int(v)) for v in row))
    write_lines(out / "confusion.csv", lines)

    lines = ["class,precision,recall,f1,support"]
    for cls in CLASS_ORDER:
        m = report.metrics.per_class[cls]
        lines.append(
            f"{cls.token},{_fmt(m.precision)},{_fmt(m.recall)},{_fmt(m.f1)},{m.support}"
        )
    lines.append(f"accuracy,{_fmt(report.metrics.accuracy)},,,")
    write_lines(out / "metrics.csv", lines)

    for cls, curve in report.roc_curves.items():
        if curve is None:
            continue
        lines = [f"# auc={_fmt(curve.auc)}", "fpr,tpr"]
        lines.extend(f"{_fmt(f)},{_fmt(t)}" for f, t in zip(curve.fpr, curve.tpr))
        write_lines(out / f"roc_{cls.token}.csv", lines)
