"""LoRA fine-tuning: adapters, injection, merging."""

from repro.lora.adapter import LoRAConfig, LoRALinear
from repro.lora.inject import (
    apply_lora,
    iter_lora_modules,
    merge_lora,
    trainable_parameter_fraction,
)

__all__ = [
    "LoRAConfig",
    "LoRALinear",
    "apply_lora",
    "iter_lora_modules",
    "merge_lora",
    "trainable_parameter_fraction",
]
