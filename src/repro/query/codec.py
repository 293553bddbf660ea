"""One JSON codec for the query language, its windows and its reports.

``to_dict`` writes a dataclass's ``kind`` tag (if any), then each field in
declaration order; ``from_dict`` rebuilds each field from its annotation
(a JSON int stays an int in a ``float`` field, so nothing re-hashes), and
dispatches ``Prop``/``TemporalExpr`` fields on the one ``kind`` registry.
Unknown keys are ignored, a missing field without a default raises
``KeyError``, and a value of the wrong JSON shape raises ``ValueError``
naming the field.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Dict, List, Tuple

_KINDS: Dict[str, type] = {}


def _register(kind: str):
    """Class decorator: tag a codec dataclass with ``kind`` and register it."""

    def wrap(cls):
        cls.kind = kind
        _KINDS[kind] = cls
        return cls

    return wrap


def known_kinds(base: type) -> List[str]:
    return sorted(kind for kind, cls in _KINDS.items() if issubclass(cls, base))


class Codec:
    """``to_dict``/``from_dict`` of a dataclass, driven by its annotations.
    On a kind-tagged base (a subclass that is no dataclass), ``from_dict``
    decodes the subclass ``kind`` names, or hands the dict to ``_unknown_kind``."""

    kind = None  # set by _register

    def to_dict(self) -> Dict[str, Any]:
        out = {} if self.kind is None else {"kind": self.kind}
        for name, _, _ in _schema(type(self)):
            out[name] = _encode(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        if not dataclasses.is_dataclass(cls):
            kind = data.get("kind")
            sub = _KINDS.get(kind) if isinstance(kind, str) else None
            if sub is None or not issubclass(sub, cls):
                return cls._unknown_kind(data)
            cls = sub
        kwargs = {}
        for name, annotation, required in _schema(cls):
            if name in data:
                kwargs[name] = _decode(annotation, data[name], f"{cls.__name__}.{name}")
            elif required:
                raise KeyError(name)
        return cls(**kwargs)


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    """``(name, annotation, required)`` per field; only plain defaults are optional."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


def _encode(value: Any) -> Any:
    if isinstance(value, Codec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _expect(value: Any, types, what: str, where: str) -> None:
    if not isinstance(value, types):
        raise ValueError(f"{where}: expected {what}, got {type(value).__name__}")


def _decode(annotation: Any, value: Any, where: str) -> Any:
    """``value`` (decoded JSON) rebuilt as ``annotation`` says."""
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _decode(inner, value, where)
    if origin in (tuple, list):
        _expect(value, (list, tuple), "a list", where)
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ValueError(f"{where}: expected {len(args)} items, got {len(value)}")
            return tuple(_decode(a, v, where) for a, v in zip(args, value))
        items = [_decode(args[0], v, where) for v in value]
        return tuple(items) if origin is tuple else items
    if origin is dict:
        _expect(value, dict, "an object", where)
        return {k: _decode(args[1], v, f"{where}[{k!r}]") for k, v in value.items()}
    if isinstance(annotation, type) and issubclass(annotation, Codec):
        _expect(value, dict, "an object", where)
        return annotation.from_dict(value)
    if annotation in (int, float):
        if annotation is float and type(value) is int:
            return value  # as written, so a spec re-hashes to its own fingerprint
        try:
            return annotation(value)
        except (TypeError, ValueError):
            raise ValueError(f"{where}: expected a number, got {type(value).__name__}") from None
    return value
