"""Corpus BLEU, the generation metric: clipped n-gram precisions up to
4-grams pooled over the corpus, and a brevity penalty on pooled lengths.
``metrics`` re-exports :class:`BleuResult` and :func:`corpus_bleu_details`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

_BLEU_ORDER = 4


@dataclass(frozen=True)
class BleuResult:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hypothesis_length: int
    reference_length: int


def corpus_bleu_details(
    hypotheses: list[list[str]], references: list[list[str]]
) -> BleuResult:
    """Corpus-level BLEU up to 4-grams with uniform weights and no smoothing.

    Tokens are compared as given; modified n-gram counts are clipped per
    pair and pooled over the corpus before the geometric mean, and the
    brevity penalty uses pooled lengths.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("at least one hypothesis/reference pair is required")

    numerators = [0] * _BLEU_ORDER
    denominators = [0] * _BLEU_ORDER
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_length += len(hyp)
        ref_length += len(ref)
        for order in range(1, _BLEU_ORDER + 1):
            hyp_ngrams = Counter(_ngrams(hyp, order))
            ref_ngrams = Counter(_ngrams(ref, order))
            clipped = sum(
                min(count, ref_ngrams.get(gram, 0))
                for gram, count in hyp_ngrams.items()
            )
            numerators[order - 1] += clipped
            denominators[order - 1] += max(len(hyp) - order + 1, 0)

    precisions = tuple(n / d if d else 0.0 for n, d in zip(numerators, denominators))
    if hyp_length == 0:
        brevity_penalty = 0.0
    elif hyp_length > ref_length:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - ref_length / hyp_length)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_mean = sum(math.log(p) for p in precisions) / _BLEU_ORDER
        score = brevity_penalty * math.exp(log_mean)
    return BleuResult(
        score=score,
        precisions=precisions,
        brevity_penalty=brevity_penalty,
        hypothesis_length=hyp_length,
        reference_length=ref_length,
    )


def _ngrams(toks: list[str], order: int):
    return (tuple(toks[i : i + order]) for i in range(len(toks) - order + 1))
