"""The ZiGong model: tokenizer + MistralTiny + LoRA fine-tuning.

Public entry point of the library.  Typical use::

    examples = build_classification_examples(make_german())
    zigong = ZiGong.from_examples(examples, config=test_config())
    zigong.finetune(examples, checkpoint_dir="ckpts")
    zigong.classifier().predict(sample)
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigError
from repro.config import ZiGongConfig, test_config
from repro.data.instruct import InstructExample, corpus_texts, tokenize_examples
from repro.baselines.lm import LMClassifier
from repro.lora.adapter import LoRAConfig
from repro.lora.inject import apply_lora, iter_lora_modules
from repro.nn.transformer import MistralTiny, ModelConfig
from repro.optim.adamw import AdamW
from repro.optim.schedule import CosineDecayLR
from repro.tokenizer.whitespace import WordTokenizer
from repro.training.callbacks import History
from repro.training.checkpoint import (
    CheckpointManager,
    load_artifact,
    read_legacy_weights,
    save_artifact,
)
from repro.training.trainer import Trainer

# Linear learning-rate warmup before the cosine decay, in optimizer steps.
WARMUP_STEPS = 5
# A saved model directory holds this one artifact.
ARTIFACT = "zigong.npz"
# The older layout: this JSON next to a bare ``weights.npz``.
LEGACY_META = "zigong.json"


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
        total_steps = max(training.epochs * steps_per_epoch, WARMUP_STEPS + 1)
        schedule = CosineDecayLR(
            self.config.base_lr,
            total_steps=total_steps,
            warmup_steps=min(WARMUP_STEPS, total_steps - 1),
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
        """Persist weights, config and vocabulary as one artifact in ``directory``.

        A model whose adapters were merged (:func:`~repro.lora.merge_lora`)
        is refused: its base weights already hold the low-rank deltas,
        which a load would apply a second time.
        """
        directory = Path(directory)
        merged = sum(adapter.merged for adapter in self.lora_modules)
        if merged:
            raise CheckpointError(
                f"cannot save {directory}: {merged} LoRA adapters are merged into their "
                "base weights, and loading would apply them twice; save before merging"
            )
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {"config": asdict(self.config), "tokens": self.tokenizer.vocab.tokens(),
                    "lora_applied": self._lora_applied}
        save_artifact(directory / ARTIFACT, self.model.state_dict(), manifest)

    @classmethod
    def load(cls, directory: str | Path) -> "ZiGong":
        """Load a model saved by :meth:`save`, rebuilt from its manifest alone.

        A directory in the older layout (``zigong.json`` plus
        ``weights.npz``) still loads; its config holds only the model
        and LoRA shapes, the rest comes from :func:`test_config`.
        """
        directory = Path(directory)
        if (directory / ARTIFACT).exists():
            state, manifest = load_artifact(directory / ARTIFACT)
            config = ZiGongConfig.from_dict(manifest["config"])
        elif (directory / LEGACY_META).exists():
            manifest = json.loads((directory / LEGACY_META).read_text())
            lora = manifest["lora"]
            config = replace(
                test_config(),
                model=ModelConfig.from_dict(manifest["model_config"]),
                lora=LoRAConfig(lora["rank"], lora["alpha"], tuple(lora["target_modules"])),
            )
            state = read_legacy_weights(directory / "weights.npz")
        else:
            raise CheckpointError(f"no {ARTIFACT} in {directory}")
        zigong = cls(config, WordTokenizer.from_tokens(manifest["tokens"]))
        if manifest["lora_applied"]:
            zigong.apply_lora()
        zigong.model.load_state_dict(state)
        return zigong

    @property
    def lora_modules(self):
        return iter_lora_modules(self.model)
