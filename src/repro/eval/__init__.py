"""Evaluation: ranking metrics, effectiveness harness and reports."""

from repro.eval.harness import EffectivenessHarness, EffectivenessResult
from repro.eval.metrics import (
    average_precision,
    f1_score,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.eval.report import ascii_table, format_number

__all__ = [
    "EffectivenessHarness",
    "EffectivenessResult",
    "ascii_table",
    "average_precision",
    "f1_score",
    "format_number",
    "ndcg_at_k",
    "precision_at_k",
    "recall_at_k",
]
