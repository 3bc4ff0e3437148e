"""LM-backed classifier: wraps any MistralTiny + tokenizer as a CreditModel.

Used both for ZiGong itself (fine-tuned model) and for un-tuned zero-shot
baselines (the Llama/Bloomz analogue in Table 2).  Predictions come from
free generation followed by answer parsing — this is what makes the Miss
metric meaningful — while the continuous score comes from the next-token
logits of the two answer words.

The generative read-out is the deployed hot path (Behavior Card, CALM
eval), so ``predict_many`` overrides the sequential default with one
batched decode (:func:`~repro.nn.generation.generate_batch`) plus one
padded scoring pass, and every classifier carries a
:class:`~repro.nn.cache.PrefixCache` so a prompt generated from before
skips prefill (only identical prompts hit: each ends in SEP).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.nn.cache import PrefixCache
from repro.nn.generation import GenerationConfig, generate, generate_batch
from repro.nn.quant import infer_logits_np
from repro.nn.transformer import MistralTiny
from repro.tokenizer.base import BaseTokenizer
from repro.eval.harness import CreditModel, EvalSample, Prediction
from repro.eval.parsing import parse_answer

# Byte bound on each classifier's prefix cache (its KV snapshots and logits).
PREFIX_CACHE_BYTES = 64 * 1024 * 1024
# Answer tokens generated per prompt; the prompt keeps the rest of the context.
MAX_NEW_TOKENS = 4


class LMClassifier(CreditModel):
    """Generate-and-parse classification with logit-based scoring."""

    def __init__(
        self,
        model: MistralTiny,
        tokenizer: BaseTokenizer,
        name: str = "lm",
        prefix_cache_size: int = 64,
        obs=None,
    ):
        self.model = model
        self.tokenizer = tokenizer
        self.name = name
        self.obs = obs
        # The prefix cache is weight-version-synced inside generate():
        # a finetune/LoRA-merge/checkpoint-load between calls flushes it,
        # so holding one classifier across training phases stays correct.
        self.prefix_cache = (
            PrefixCache(prefix_cache_size, max_bytes=PREFIX_CACHE_BYTES, obs=obs)
            if prefix_cache_size > 0
            else None
        )

    def _prompt_ids(self, prompt: str) -> np.ndarray:
        ids = [self.tokenizer.bos_id] + self.tokenizer.encode(prompt) + [self.tokenizer.sep_id]
        limit = self.model.config.max_seq_len - MAX_NEW_TOKENS
        return np.asarray(ids[-limit:], dtype=np.int64)

    def _answer_first_token(self, text: str) -> int:
        ids = self.tokenizer.encode(text)
        if not ids:
            raise EvaluationError(f"answer text {text!r} encodes to nothing")
        return ids[0]

    def _generation_config(self) -> GenerationConfig:
        return GenerationConfig(
            max_new_tokens=MAX_NEW_TOKENS,
            stop_tokens=(self.tokenizer.eos_id,),
        )

    def generate_answer(self, prompt: str) -> str:
        """Free-running generation for the prompt (decoded, special-free)."""
        new_ids = generate(
            self.model,
            self._prompt_ids(prompt),
            self._generation_config(),
            prefix_cache=self.prefix_cache,
        )
        return self.tokenizer.decode(new_ids)

    def generate_answer_batch(self, prompts: Sequence[str]) -> list[str]:
        """Batched :meth:`generate_answer`: one decode loop for all prompts.

        Produces exactly the same strings as calling :meth:`generate_answer`
        per prompt (greedy decoding is deterministic and the batched path
        is parity-tested), but amortizes every forward pass across rows.
        """
        if not prompts:
            return []
        rows = [self._prompt_ids(p) for p in prompts]
        outputs = generate_batch(
            self.model,
            rows,
            self._generation_config(),
            prefix_cache=self.prefix_cache,
            obs=self.obs,
        )
        return [self.tokenizer.decode(ids) for ids in outputs]

    def score(self, prompt: str, positive_text: str, negative_text: str) -> float:
        """P(positive) from the two answer-token logits (softmax over both).

        A one-row :meth:`score_batch`, so the two cannot diverge.
        """
        return float(self.score_batch([prompt], positive_text, negative_text)[0])

    def score_batch(
        self,
        prompts: list[str],
        positive_text: str,
        negative_text: str,
    ) -> np.ndarray:
        """P(positive) for many prompts in one padded forward pass.

        Right-padding plus reading out each row's last real position
        works because causal attention ignores everything to the right;
        the kernel's ``readout`` runs the last block's query, MLP and
        head on that position only.  Runs the fused kernel directly,
        the forward every no-grad call runs.
        """
        if not prompts:
            raise EvaluationError("score_batch() received no prompts")
        from repro.nn.classifier import pad_sequences

        rows = [self._prompt_ids(p) for p in prompts]
        lengths = np.array([len(r) for r in rows])
        batch = pad_sequences(rows, pad_id=self.tokenizer.pad_id)
        last = infer_logits_np(self.model, batch, readout=lengths - 1)[:, 0]  # (B, V)
        pos_id = self._answer_first_token(positive_text)
        neg_id = self._answer_first_token(negative_text)
        pair = np.stack([last[:, pos_id], last[:, neg_id]], axis=1).astype(np.float64)
        pair -= pair.max(axis=1, keepdims=True)
        exp = np.exp(pair)
        return exp[:, 0] / exp.sum(axis=1)

    def predict(self, sample: EvalSample) -> Prediction:
        text = self.generate_answer(sample.prompt)
        label = parse_answer(text, sample.positive_text, sample.negative_text)
        return Prediction(
            label=label,
            score=self.score(sample.prompt, sample.positive_text, sample.negative_text),
        )

    def predict_many(self, samples: Sequence[EvalSample]) -> list[Prediction]:
        """Batched prediction: one decode loop plus one scoring pass.

        Matches the sequential default (``[predict(s) for s in samples]``)
        label-for-label under greedy decoding; scoring batches are grouped
        by ``(positive_text, negative_text)`` so mixed-task sample lists
        still score correctly.
        """
        if not samples:
            return []
        texts = self.generate_answer_batch([s.prompt for s in samples])
        labels = [
            parse_answer(text, s.positive_text, s.negative_text)
            for text, s in zip(texts, samples)
        ]
        scores: list[float | None] = [None] * len(samples)
        groups: dict[tuple[str, str], list[int]] = {}
        for i, s in enumerate(samples):
            groups.setdefault((s.positive_text, s.negative_text), []).append(i)
        for (pos, neg), idx in groups.items():
            batch_scores = self.score_batch([samples[i].prompt for i in idx], pos, neg)
            for i, value in zip(idx, batch_scores):
                scores[i] = float(value)
        return [Prediction(label=l, score=s) for l, s in zip(labels, scores)]
