"""The ZiGong model: tokenizer + MistralTiny + LoRA fine-tuning.

Public entry point of the library.  Typical use::

    examples = build_classification_examples(make_german())
    zigong = ZiGong.from_examples(examples, config=test_config())
    zigong.finetune(examples, checkpoint_dir="ckpts")
    zigong.classifier().predict(sample)
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigError
from repro.config import ZiGongConfig, test_config
from repro.data.instruct import InstructExample, corpus_texts, tokenize_examples
from repro.baselines.lm import LMClassifier
from repro.lora.inject import apply_lora, iter_lora_modules
from repro.nn.transformer import MistralTiny
from repro.optim.adamw import AdamW
from repro.optim.schedule import CosineDecayLR
from repro.tokenizer.vocab import Vocab
from repro.tokenizer.whitespace import WordTokenizer
from repro.training.callbacks import History
from repro.training.checkpoint import CheckpointManager
from repro.training.trainer import Trainer


class ZiGong:
    """A financial-credit instruction-following model."""

    def __init__(self, config: ZiGongConfig, tokenizer: WordTokenizer):
        if config.model.vocab_size < tokenizer.vocab_size:
            raise ConfigError(
                f"model vocab {config.model.vocab_size} smaller than tokenizer "
                f"vocab {tokenizer.vocab_size}"
            )
        self.config = config
        self.tokenizer = tokenizer
        self.model = MistralTiny(config.model, rng=config.seed)
        self._lora_applied = False
        self._classifiers: dict[str, LMClassifier] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_examples(
        cls,
        examples: Sequence[InstructExample],
        config: ZiGongConfig | None = None,
        max_vocab: int | None = None,
    ) -> "ZiGong":
        """Train a word tokenizer on the example corpus and size the model to it."""
        if not examples:
            raise ConfigError("from_examples() needs at least one example")
        config = config or test_config()
        tokenizer = WordTokenizer.train(corpus_texts(examples), max_vocab=max_vocab)
        return cls(config.with_vocab(tokenizer.vocab_size), tokenizer)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def tokenize(self, examples: Sequence[InstructExample]) -> list[tuple[list[int], list[int]]]:
        """Encode instruction examples for this model's context length."""
        return tokenize_examples(examples, self.tokenizer, max_len=self.config.model.max_seq_len)

    def apply_lora(self) -> None:
        """Inject LoRA adapters (idempotent)."""
        if self._lora_applied:
            return
        apply_lora(self.model, self.config.lora, rng=self.config.seed)
        self._lora_applied = True

    def finetune(
        self,
        examples: Sequence[InstructExample],
        checkpoint_dir: str | Path | None = None,
        use_lora: bool = True,
        resume: bool = False,
    ) -> History:
        """Supervised fine-tuning with the configured Table-3 recipe.

        With ``checkpoint_dir`` set, checkpoints (and the learning rate in
        effect) are stored for later TracInCP / TracSeq replay.  With
        ``resume=True`` the latest checkpoint in ``checkpoint_dir`` is
        restored first — parameters, optimizer moments, schedule
        position and data order — so a crashed run continues
        bit-identically to an uninterrupted one (``docs/resilience.md``).
        """
        if use_lora:
            self.apply_lora()
        encoded = self.tokenize(examples)
        training = self.config.training
        steps_per_epoch = max(1, len(encoded) // training.batch_size)
        total_steps = max(training.epochs * steps_per_epoch, self.config.warmup_steps + 1)
        schedule = CosineDecayLR(
            self.config.base_lr,
            total_steps=total_steps,
            warmup_steps=min(self.config.warmup_steps, total_steps - 1),
            min_lr=self.config.min_lr,
        )
        manager = None
        if checkpoint_dir is not None:
            manager = CheckpointManager(checkpoint_dir)
            if training.checkpoint_every is None:
                training = replace(training, checkpoint_every=max(1, total_steps // 4))
        if resume and manager is None:
            raise ConfigError("finetune(resume=True) requires checkpoint_dir")
        optimizer = AdamW(self.model.parameters(), lr=self.config.base_lr)
        trainer = Trainer(
            self.model,
            optimizer,
            config=replace(training, pad_id=self.tokenizer.pad_id),
            schedule=schedule,
            checkpoint_manager=manager,
        )
        if resume:
            trainer.resume()
        return trainer.train(encoded)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def classifier(self, name: str = "ZiGong") -> LMClassifier:
        """A benchmark-harness view of this model.

        Memoized per name so the classifier's prompt
        :class:`~repro.nn.cache.PrefixCache` keeps accumulating across
        calls — repeat prompts skip prefill entirely.  Memoization is
        safe across weight changes: the cache is keyed to the model's
        ``weight_version``, so a :meth:`finetune`, :meth:`apply_lora`,
        adapter merge or checkpoint load in between flushes any
        stale KV/logit entries on the next generate call.
        """
        if name not in self._classifiers:
            self._classifiers[name] = LMClassifier(self.model, self.tokenizer, name=name)
        return self._classifiers[name]

    def generate_answer(self, prompt: str) -> str:
        """Generate an answer for a raw prompt string."""
        return self.classifier().generate_answer(prompt)

    def score_batch(
        self,
        prompts: Sequence[str],
        positive_text: str = "yes",
        negative_text: str = "no",
    ) -> np.ndarray:
        """P(positive) for many prompts in one padded, masked forward pass.

        The batched scoring path behind the serving engine's micro-batches:
        prompts of unequal length are right-padded together and each row's
        score reads from its own last real position, so results match
        per-prompt ``classifier().score`` calls.
        """
        return self.classifier().score_batch(list(prompts), positive_text, negative_text)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Persist weights, tokenizer vocabulary and config."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / "weights.npz", **self.model.state_dict())
        meta = {
            "model_config": self.config.model.to_dict(),
            "tokens": self.tokenizer.vocab.tokens(),
            "lora_applied": self._lora_applied,
            "lora": {
                "rank": self.config.lora.rank,
                "alpha": self.config.lora.alpha,
                "target_modules": list(self.config.lora.target_modules),
            },
        }
        (directory / "zigong.json").write_text(json.dumps(meta))

    @classmethod
    def load(cls, directory: str | Path, config: ZiGongConfig | None = None) -> "ZiGong":
        """Load a model saved by :meth:`save`."""
        from repro.nn.transformer import ModelConfig

        directory = Path(directory)
        meta_path = directory / "zigong.json"
        if not meta_path.exists():
            raise CheckpointError(f"no zigong.json in {directory}")
        meta = json.loads(meta_path.read_text())
        vocab = Vocab()
        for token in meta["tokens"]:
            vocab.add(token)
        tokenizer = WordTokenizer(vocab)
        base = config or test_config()
        base = replace(base, model=ModelConfig.from_dict(meta["model_config"]))
        zigong = cls(base, tokenizer)
        if meta.get("lora_applied"):
            zigong.apply_lora()
        with np.load(directory / "weights.npz") as data:
            zigong.model.load_state_dict({k: data[k] for k in data.files})
        return zigong

    @property
    def lora_modules(self):
        return iter_lora_modules(self.model)
