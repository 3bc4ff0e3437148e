"""Module / Parameter system.

A :class:`Module` discovers its parameters and submodules by inspecting its
attributes, in the spirit of ``torch.nn.Module`` but without registration
magic: an attribute that *is* a :class:`Parameter`, a :class:`Module`, or a
:class:`ModuleList` participates; everything else is ignored.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import CheckpointError
from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by default)."""

    def __init__(self, data, requires_grad: bool = True, name: str | None = None):
        super().__init__(data, requires_grad=requires_grad, name=name)


class Buffer:
    """Non-trainable module state of any dtype.

    Unlike :class:`Parameter`, a buffer never participates in autograd
    and its dtype is preserved verbatim — this is what lets
    :class:`~repro.nn.quant.QuantizedLinear` keep ``int8`` weights in a
    ``state_dict`` round-trip, where parameters are always forced to
    ``float32``.  Buffers are discovered by attribute inspection exactly
    like parameters and travel through ``state_dict`` /
    ``load_state_dict`` under the same dotted-path naming.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data)


class Module:
    """Base class for neural network components.

    ``weight_version`` is a monotonic counter bumped whenever this
    module's parameters are mutated (optimizer steps, checkpoint loads,
    LoRA injection/merging).  Weight-dependent caches — most notably
    :class:`~repro.nn.cache.PrefixCache`, which stores KV snapshots and
    logits — compare it to detect stale entries.  Code that mutates
    ``Parameter.data`` directly must call :meth:`bump_weight_version`
    on the owning model.
    """

    def __init__(self):
        self.weight_version = 0

    def bump_weight_version(self) -> None:
        """Mark this module's weights as changed (invalidates KV caches)."""
        self.weight_version += 1

    # -- traversal -----------------------------------------------------

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        for key, value in vars(self).items():
            if isinstance(value, Module):
                yield key, value
            elif isinstance(value, ModuleList):
                for i, child in enumerate(value):
                    yield f"{key}.{i}", child

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}{key}", value)
        for name, child in self.named_children():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, Buffer]]:
        for key, value in vars(self).items():
            if isinstance(value, Buffer):
                yield (f"{prefix}{key}", value)
        for name, child in self.named_children():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total scalar parameter count."""
        return sum(
            p.size for p in self.parameters() if p.requires_grad or not trainable_only
        )

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- state dict ----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter's and buffer's data, keyed by dotted path.

        Parameters are float32 by construction; buffers keep their own
        dtype and memory layout (e.g. int8 quantized weights, stored in
        Fortran order), so a state dict loads back without a transpose.
        """
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.data.copy(order="K") for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter and buffer values in place.

        With ``strict=True`` (default) the key sets must match exactly and
        every shape must agree.  Parameter values are cast to float32;
        buffer values are cast to the buffer's existing dtype and copied
        into its existing memory layout (so int8 quantized weights stay
        int8, and in the Fortran order their matmul reads, through a
        round-trip).
        """
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        if strict:
            own_keys = set(own_params) | set(own_buffers)
            missing = sorted(own_keys - set(state))
            unexpected = sorted(set(state) - own_keys)
            if missing or unexpected:
                raise CheckpointError(
                    f"state dict mismatch: missing={missing}, unexpected={unexpected}"
                )
        for name, param in own_params.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {param.shape}"
                )
            param.data = value.copy()
        for name, buffer in own_buffers.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=buffer.data.dtype)
            if value.shape != buffer.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {buffer.data.shape}"
                )
            loaded = np.empty_like(buffer.data)  # keeps the buffer's layout
            loaded[...] = value
            buffer.data = loaded
        self.bump_weight_version()

    # -- call ----------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList:
    """An ordered container of modules that participates in traversal."""

    def __init__(self, modules=()):
        self._modules: list[Module] = list(modules)

    def append(self, module: Module) -> None:
        self._modules.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[index]
