"""Minimal module system: parameter registration, train/eval mode,
state-dict (de)serialisation.

Checkpoints are ``.npz`` archives of the state dict plus one JSON
metadata entry (:data:`CHECKPOINT_META_KEY`) describing how to rebuild
the model — its registry name, :class:`~repro.models.config.ModelConfig`
fields and the label-vocabulary hash — so
:func:`repro.models.factory.load_model` can reconstruct a model from the
checkpoint alone.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.durable import atomic_open

#: Reserved archive entry holding the JSON checkpoint metadata.
CHECKPOINT_META_KEY = "__checkpoint_meta__"

#: Schema tag written into every checkpoint's metadata.
CHECKPOINT_FORMAT = "repro.checkpoint/v1"


def checkpoint_path(path: str) -> str:
    """Normalise a checkpoint path to its on-disk ``.npz`` name.

    ``np.load`` takes the path verbatim, so without this a
    ``save("model")`` / ``load("model")`` round-trip fails — both sides
    must normalise identically.
    """
    path = str(path)
    return path if path.endswith(".npz") else path + ".npz"


def read_checkpoint_meta(path: str) -> Optional[Dict[str, object]]:
    """The metadata dict of a checkpoint, or ``None`` for a legacy
    weights-only archive."""
    with np.load(checkpoint_path(path)) as archive:
        if CHECKPOINT_META_KEY not in archive.files:
            return None
        return json.loads(str(archive[CHECKPOINT_META_KEY]))


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with recursive parameter discovery and mode switching.

    Subclasses assign :class:`Parameter` and sub-``Module`` instances as
    attributes; :meth:`parameters` and :meth:`state_dict` discover them by
    introspection (insertion order of ``__dict__`` is deterministic).
    """

    def __init__(self) -> None:
        self.training: bool = True

    # -- forward ------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- discovery ----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for this module tree."""
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module tree."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every sub-module (depth-first)."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # -- mode ---------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    # -- grads --------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- serialisation --------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters; strict about keys and shapes."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {p.data.shape}"
                )
            p.data[...] = value

    def checkpoint_meta(self) -> Dict[str, object]:
        """Self-description written alongside the weights by :meth:`save`.

        Discovers what it can by duck typing so the base class stays
        model-agnostic: a dataclass ``config`` attribute (the
        ``ModelConfig``), the ``registry_name`` stamped by the model
        factory, and the label vocabulary hash of ``head.codec``.
        """
        meta: Dict[str, object] = {
            "format": CHECKPOINT_FORMAT,
            "class": type(self).__name__,
        }
        config = getattr(self, "config", None)
        if dataclasses.is_dataclass(config):
            meta["config"] = dataclasses.asdict(config)
        registry_name = getattr(self, "registry_name", None)
        if registry_name:
            meta["model"] = registry_name
        codec = getattr(getattr(self, "head", None), "codec", None)
        vocab_hash = getattr(getattr(codec, "vocab", None),
                             "content_hash", None)
        if vocab_hash:
            meta["vocab_hash"] = vocab_hash
        return meta

    def save(self, path: str) -> None:
        """Save parameters (plus :meth:`checkpoint_meta`) to ``.npz``,
        atomically: a crash mid-save keeps the previous checkpoint."""
        arrays: Dict[str, np.ndarray] = dict(self.state_dict())
        if CHECKPOINT_META_KEY in arrays:
            raise ValueError(
                f"parameter name {CHECKPOINT_META_KEY!r} is reserved"
            )
        arrays[CHECKPOINT_META_KEY] = np.array(
            json.dumps(self.checkpoint_meta())
        )
        with atomic_open(checkpoint_path(path), "wb") as handle:
            np.savez(handle, **arrays)

    def load(self, path: str) -> None:
        """Load parameters from an ``.npz`` archive created by :meth:`save`."""
        with np.load(checkpoint_path(path)) as archive:
            self.load_state_dict({k: archive[k] for k in archive.files
                                  if k != CHECKPOINT_META_KEY})


class ModuleList(Module):
    """An indexable container of sub-modules."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self.items: List[Module] = list(modules)

    def append(self, module: Module) -> None:
        """Add a sub-module to the list."""
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container; call its items")


class Sequential(Module):
    """Applies modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.items = list(modules)

    def forward(self, x):
        for module in self.items:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]
