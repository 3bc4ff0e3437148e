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

    def _walk(self, prefix: str, params: list, buffers: list) -> None:
        """Append this subtree's ``(path, Parameter)`` and ``(path, Buffer)`` pairs.

        One ``vars()`` pass per module, pre-order: a module's own
        parameters come before its children's, children in attribute
        order (a :class:`ModuleList`'s in index order).  That is the
        order of :meth:`named_parameters`, which optimizer moments,
        gradient clipping and gradient-row columns follow.
        """
        children = []
        for key, value in vars(self).items():
            if isinstance(value, Parameter):
                params.append((prefix + key, value))
            elif isinstance(value, Buffer):
                buffers.append((prefix + key, value))
            elif isinstance(value, Module):
                children.append((key, value))
            elif isinstance(value, ModuleList):
                children.extend((f"{key}.{i}", child) for i, child in enumerate(value))
        for name, child in children:
            child._walk(f"{prefix}{name}.", params, buffers)

    def _leaves(self) -> tuple[list[tuple[str, Parameter]], list[tuple[str, Buffer]]]:
        params: list[tuple[str, Parameter]] = []
        buffers: list[tuple[str, Buffer]] = []
        self._walk("", params, buffers)
        return params, buffers

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        for key, value in vars(self).items():
            if isinstance(value, Module):
                yield key, value
            elif isinstance(value, ModuleList):
                for i, child in enumerate(value):
                    yield f"{key}.{i}", child

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        params: list[tuple[str, Parameter]] = []
        self._walk(prefix, params, [])
        return iter(params)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, Buffer]]:
        buffers: list[tuple[str, Buffer]] = []
        self._walk(prefix, [], buffers)
        return iter(buffers)

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

        Parameters (in :meth:`named_parameters` order) come first, then
        buffers.  Parameters are float32 by construction; buffers keep
        their own dtype and memory layout (e.g. int8 quantized weights,
        stored in Fortran order), so a state dict loads back without a
        transpose.
        """
        params, buffers = self._leaves()
        state = {name: p.data.copy() for name, p in params}
        state.update((name, b.data.copy(order="K")) for name, b in buffers)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter and buffer values.

        With ``strict=True`` (default) the key sets must match exactly.
        Every loaded value must have its holder's shape and cast to its
        holder's dtype under numpy's ``same_kind`` rule (float64 into
        float32 loads; a float into an int8 buffer, or a complex into a
        float parameter, does not); otherwise :class:`CheckpointError`
        names the key and nothing is loaded.  Each value is copied into
        a fresh array of its holder's own dtype and memory layout, so
        parameters stay float32, int8 quantized weights stay int8 in
        the Fortran order their matmul reads, and the model shares no
        array with ``state``.
        """
        params, buffers = self._leaves()
        holders = dict(params)
        holders.update(buffers)
        if strict and holders.keys() != state.keys():
            missing = sorted(holders.keys() - state.keys())
            unexpected = sorted(state.keys() - holders.keys())
            raise CheckpointError(
                f"state dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        loads = []
        for name, holder in holders.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            own = holder.data
            if value.shape != own.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {own.shape}"
                )
            if value.dtype != own.dtype and not np.can_cast(value.dtype, own.dtype, "same_kind"):
                raise CheckpointError(
                    f"dtype mismatch for {name}: checkpoint {value.dtype} does not cast "
                    f"to model {own.dtype}"
                )
            loads.append((holder, value))
        # Every value checked: copy one at a time, so each old array can
        # be freed before the next copy is made.
        for holder, value in loads:
            loaded = np.empty_like(holder.data)  # the holder's dtype and layout
            loaded[...] = value
            holder.data = loaded
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
