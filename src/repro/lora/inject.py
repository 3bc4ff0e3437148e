"""Injecting LoRA adapters into a model and managing adapter state."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.tensor.random import default_rng
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.lora.adapter import LoRAConfig, LoRALinear


def apply_lora(model: Module, config: LoRAConfig, rng=None) -> list[LoRALinear]:
    """Replace target linear layers with LoRA-wrapped versions.

    Every parameter outside the adapters is frozen, matching the paper's
    parameter-efficient fine-tuning setup.  Returns the injected adapters.
    """
    rng = default_rng(rng)
    for param in model.parameters():
        param.requires_grad = False
    if config.train_embeddings:
        from repro.nn.layers import Embedding

        stack_e: list[Module] = [model]
        seen_e: set[int] = set()
        while stack_e:
            current = stack_e.pop()
            if id(current) in seen_e:
                continue
            seen_e.add(id(current))
            if isinstance(current, Embedding):
                current.weight.requires_grad = True
            for value in vars(current).values():
                if isinstance(value, Module):
                    stack_e.append(value)
                elif type(value).__name__ == "ModuleList":
                    stack_e.extend(list(value))

    adapters: list[LoRALinear] = []
    stack: list[Module] = [model]
    seen: set[int] = set()
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        for key, value in list(vars(current).items()):
            if isinstance(value, Linear) and key in config.target_modules:
                adapter = LoRALinear(value, config, rng=rng)
                setattr(current, key, adapter)
                adapters.append(adapter)
            elif isinstance(value, Module):
                stack.append(value)
            elif type(value).__name__ == "ModuleList":
                stack.extend(list(value))
    if not adapters:
        raise ConfigError(
            f"no modules matched LoRA targets {config.target_modules}; "
            "check the attribute names"
        )
    model.bump_weight_version()
    return adapters


def iter_lora_modules(model: Module) -> list[LoRALinear]:
    """All LoRA adapters currently present in ``model``."""
    found: list[LoRALinear] = []
    stack: list[Module] = [model]
    seen: set[int] = set()
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, LoRALinear):
            found.append(current)
        for value in vars(current).values():
            if isinstance(value, Module):
                stack.append(value)
            elif type(value).__name__ == "ModuleList":
                stack.extend(list(value))
    return found


def merge_lora(model: Module) -> int:
    """Merge every adapter into its base weight; returns the count."""
    adapters = iter_lora_modules(model)
    for adapter in adapters:
        adapter.merge()
    if adapters:
        model.bump_weight_version()
    return len(adapters)


def trainable_parameter_fraction(model: Module) -> float:
    """Share of parameters that are trainable — LoRA's headline saving."""
    total = sum(p.size for p in model.parameters())
    trainable = sum(p.size for p in model.parameters() if p.requires_grad)
    return trainable / total if total else 0.0
