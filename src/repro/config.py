"""ZiGong configuration (the paper's Table 3), scaled to laptop size.

The paper fine-tunes Mistral 7B (hidden 4096, 32 heads, 32 layers,
context 4096) with LoRA rank 8 / alpha 16 on {query, key, value}, AdamW
(beta1=0.9, beta2=0.999), cosine-decay LR in [1e-5, 3e-5], batch 32 with
gradient accumulation 4.  :class:`ZiGongConfig` keeps every *structural*
choice (LoRA targets/rank/alpha, optimizer betas, schedule shape, batch
/ accumulation ratio) and scales the raw sizes down so the full pipeline
runs in seconds; ``table3_rows`` renders the side-by-side mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.lora.adapter import LoRAConfig
from repro.nn.transformer import ModelConfig
from repro.training.trainer import TrainingConfig

# The paper's Table 3 values (for reference / the config table).
PAPER_TABLE3 = {
    "base_model": "Mistral 7B",
    "fine_tuning": "LoRA",
    "context_length": 4096,
    "hidden_dimension": 4096,
    "attention_heads": 32,
    "layers": 32,
    "activation": "SiLU",
    "lr_range": (1e-5, 3e-5),
    "batch_size": 32,
    "grad_accumulation": 4,
    "optimizer_betas": (0.9, 0.999),
    "lr_schedule": "cosine decay",
    "lora_rank": 8,
    "lora_alpha": 16,
    "lora_targets": ("query", "key", "value"),
}


@dataclass(frozen=True)
class ZiGongConfig:
    """Bundled model / LoRA / training configuration."""

    model: ModelConfig = field(default_factory=ModelConfig)
    lora: LoRAConfig = field(default_factory=LoRAConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    base_lr: float = 3e-3
    min_lr: float = 3e-4
    seed: int = 0

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if not 0 <= self.min_lr <= self.base_lr:
            raise ConfigError("min_lr must be in [0, base_lr]")

    @classmethod
    def from_dict(cls, data: dict) -> "ZiGongConfig":
        """Inverse of ``dataclasses.asdict`` through JSON (which turns tuples into lists)."""
        lora = dict(data["lora"], target_modules=tuple(data["lora"]["target_modules"]))
        nested = dict(model=ModelConfig.from_dict(data["model"]), lora=LoRAConfig(**lora),
                      training=TrainingConfig(**data["training"]))
        return cls(**{**data, **nested})

    def with_vocab(self, vocab_size: int) -> "ZiGongConfig":
        """Return a copy whose model config has the given vocabulary size."""
        return replace(self, model=replace(self.model, vocab_size=vocab_size))


def test_config(seed: int = 0) -> ZiGongConfig:
    """Smallest config: unit-test scale (seconds per fine-tune)."""
    return ZiGongConfig(
        model=ModelConfig(
            vocab_size=256, d_model=32, n_layers=2, n_heads=4, n_kv_heads=2,
            d_ff=64, max_seq_len=64, sliding_window=32,
        ),
        lora=LoRAConfig(rank=4, alpha=8),
        training=TrainingConfig(epochs=4, batch_size=8, grad_accum_steps=2, seed=seed),
        seed=seed,
    )


def bench_config(seed: int = 0) -> ZiGongConfig:
    """Benchmark config: the paper's shape ratios at laptop scale.

    Keeps Table 3's structural choices exactly: LoRA r=8 / alpha=16 on
    q,k,v; AdamW betas (0.9, 0.999); cosine decay; batch 32 with
    gradient accumulation 4.
    """
    return ZiGongConfig(
        model=ModelConfig(
            vocab_size=512, d_model=64, n_layers=2, n_heads=4, n_kv_heads=2,
            d_ff=128, max_seq_len=96, sliding_window=64,
        ),
        lora=LoRAConfig(rank=8, alpha=16, target_modules=("wq", "wk", "wv")),
        training=TrainingConfig(epochs=8, batch_size=32, grad_accum_steps=4, seed=seed),
        seed=seed,
    )


def table3_rows(config: ZiGongConfig) -> list[tuple[str, str, str, str]]:
    """Rows of (category, parameter, paper value, this reproduction).

    Regenerates the content of the paper's Table 3 next to the scaled
    values actually used here.
    """
    model = config.model
    training = config.training
    lora = config.lora
    return [
        ("Base", "Model Name", "ZiGong", "ZiGong (repro)"),
        ("Base", "Base Model", PAPER_TABLE3["base_model"], "MistralTiny (same family)"),
        ("Base", "Fine-tuning Method", "LoRA", "LoRA"),
        ("Base", "Context Length", str(PAPER_TABLE3["context_length"]), str(model.max_seq_len)),
        ("Architecture", "Hidden Dimension", str(PAPER_TABLE3["hidden_dimension"]), str(model.d_model)),
        ("Architecture", "Attention Heads", str(PAPER_TABLE3["attention_heads"]), str(model.n_heads)),
        ("Architecture", "Layers", str(PAPER_TABLE3["layers"]), str(model.n_layers)),
        ("Architecture", "Activation Function", "SiLU", "SiLU"),
        ("Training", "Learning Rate", "1e-5 - 3e-5", f"{config.min_lr:g} - {config.base_lr:g}"),
        (
            "Training",
            "Batch Size",
            f"{PAPER_TABLE3['batch_size']} (grad accumulation: {PAPER_TABLE3['grad_accumulation']})",
            f"{training.batch_size} (grad accumulation: {training.grad_accum_steps})",
        ),
        ("Training", "Optimizer", "AdamW (b1=0.9, b2=0.999)", "AdamW (b1=0.9, b2=0.999)"),
        ("Training", "LR Schedule", "Cosine Decay", "Cosine Decay"),
        ("Training", "LoRA Rank", str(PAPER_TABLE3["lora_rank"]), str(lora.rank)),
        ("Training", "LoRA Alpha", str(PAPER_TABLE3["lora_alpha"]), str(int(lora.alpha))),
        ("Training", "Target Modules", "{query, key, value}", "{" + ", ".join(lora.target_modules) + "}"),
    ]
