"""One annotated schema for every spec, section, query and report.

A schema class is a dataclass deriving from :class:`Schema`.  Its
annotations say how each field's JSON reads back; its field metadata
(:func:`field`) says how the field is written, bounded and set from the
command line.  Each class's plan is built once, on first use.

``to_dict`` writes the ``FORMAT`` tag (as ``"format"``) or the query
``kind`` tag, then one key per field in constructor order (keyword-only
fields last), or the class's ``KEYS`` in order: a listed name that is no
field is a derived entry (a property), written and never read back.

Strictness is the class attribute ``STRICT``, so a dict decodes by the
class it decodes as, never by its caller.  A strict class (a spec section,
the default) rejects unknown keys, ``"unknown <NAME> fields: [...]"``, and
leaves a missing field to its constructor.  A lenient class (a spec's top
level, the query language, a report) ignores unknown keys and raises
``KeyError(name)`` for a missing field that has no default or is
``required``; ``MISSING_MESSAGE`` replaces either with a ``ValueError``.
A foreign tag is ``"unsupported <NOUN> format ..."``; a missing one is
accepted unless ``FORMAT_REQUIRED``.

Values are checked, never converted, so a spec reloaded from its JSON
hashes to its own fingerprint: a JSON int stays an int in a ``float``
field (``Region(0, 0, 621, 375)`` keeps its ints, and hashes unlike
``Region(0.0, 0.0, 621.0, 375.0)``).  An ``int`` field takes integers
only, a ``float`` field integers and floats, neither a bool or a string;
likewise ``Optional`` numbers and tuples of numbers.  A section field
holds an instance of its class (``TypeError`` otherwise).  A tuple of
``choices`` and a ``must`` phrase bound a value: ``"be >= 1"``, ``"be
positive"``, ``"lie in [0, 1]"``, ``"be in (0, 1]"``, ``"be a non-empty
string"`` or ``"be a string path"``, failing with ``"<field> must
<phrase>, got <value>"``.  The checks run at construction, before the
class's own ``__post_init__``, so decoded values meet the same rules and
messages as values passed in code.

``field(default, "--flag", "help")`` names the command-line flag that sets
a field (no dashes: a positional).  :func:`flags` makes ``argparse``
options of them, sections included: the type comes from the annotation (a
tuple takes a comma-separated grid), the default from the field unless
``cli=`` gives the command line its own, and a flag on an ``Optional``
section is a switch enabling it.  :func:`from_flags` builds the spec back.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import numbers
import typing
from typing import Any, Callable, ClassVar, Dict, List, NamedTuple, Optional, Tuple

MISSING = dataclasses.MISSING


def content_digest(payload: Any) -> str:
    """sha256 of ``payload``'s canonical JSON (sorted keys, no spaces)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def field(default=MISSING, flag=None, help=None, *, default_factory=MISSING,
          kw_only=MISSING, **meta):
    """A dataclass field with schema metadata.

    ``flag``, ``help``, ``metavar`` and ``choices`` (a sequence, or a
    callable read when the parser is built) describe its option; ``cli``
    is the command line's value when not the default, ``reads`` the flags
    whose first set value it takes instead.  ``must`` bounds a number,
    ``omit_none`` drops the key while ``None`` and ``required`` makes a
    lenient decode demand the key despite a default.
    """
    return dataclasses.field(default=default, default_factory=default_factory,
                             kw_only=kw_only, metadata={"flag": flag, "help": help, **meta})


_KINDS: Dict[str, type] = {}


def register(kind: str):
    """Class decorator: tag a schema dataclass with ``kind`` and register it."""

    def wrap(cls):
        cls.kind = kind
        _KINDS[kind] = cls
        return cls

    return wrap


def known_kinds(base: type) -> List[str]:
    return sorted(kind for kind, cls in _KINDS.items() if issubclass(cls, base))


class Schema:
    """``to_dict``/``from_dict`` and field checks of a dataclass.  On a
    kind-tagged base (a subclass that is no dataclass), ``from_dict``
    decodes the subclass ``data["kind"]`` names, or hands the dict to
    ``_unknown_kind``."""

    STRICT: ClassVar[bool] = True
    NAME: ClassVar[Optional[str]] = None  # what unknown-key errors call the class
    FORMAT: ClassVar[Optional[str]] = None
    FORMAT_REQUIRED: ClassVar[bool] = False
    NOUN: ClassVar[str] = ""  # what messages call a document ("serve spec")
    MISSING_MESSAGE: ClassVar[Optional[str]] = None
    KEYS: ClassVar[Optional[Tuple[str, ...]]] = None
    #: Modules holding schema classes the annotations name that the
    #: class's own module cannot import (they import it).
    SCHEMA_IMPORTS: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__post_init__")
        if own is not None:

            @functools.wraps(own)
            def checked(self) -> None:
                if type(self).__post_init__ is checked:  # the outermost one checks
                    _check_fields(self)
                own(self)

            cls.__post_init__ = checked

    def __post_init__(self) -> None:
        _check_fields(self)

    def to_dict(self) -> Dict[str, Any]:
        plan = _plan(type(self))
        out = dict(plan.head)
        for key, encode, omit_none in plan.writers:
            value = getattr(self, key)
            if value is None:
                if omit_none:
                    continue
            elif encode:
                value = _encode(value)
            out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        if "__dataclass_fields__" not in cls.__dict__:  # a kind-tagged base
            kind = data.get("kind")
            sub = _KINDS.get(kind) if isinstance(kind, str) else None
            if sub is None or not issubclass(sub, cls):
                return cls._unknown_kind(data)
            cls = sub
        if not isinstance(data, dict):
            noun = cls.NOUN or cls.__name__
            raise ValueError(f"{noun} must be a JSON object, got {type(data).__name__}")
        if cls.FORMAT is not None:
            got = data.get("format", None if cls.FORMAT_REQUIRED else cls.FORMAT)
            if got != cls.FORMAT:
                noun = cls.NOUN.replace(" ", "-")
                raise ValueError(f"unsupported {noun} format {got!r}, expected {cls.FORMAT!r}")
        plan = _plan(cls)
        if cls.STRICT and data.keys() - plan.known:
            unknown = sorted(data.keys() - plan.known)
            raise ValueError(f"unknown {cls.NAME or cls.__name__} fields: {unknown}")
        kwargs = {}
        for name, hint, required, where in plan.readers:
            if name in data:
                kwargs[name] = data[name] if hint is None else _decode(hint, data[name], where)
            elif required and cls.MISSING_MESSAGE is not None:
                raise ValueError(cls.MISSING_MESSAGE)
            elif required and not cls.STRICT:
                raise KeyError(name)
        return cls(**kwargs)


class JsonRoundTrip(Schema):
    """``to_json``/``from_json``, and the content fingerprint that keys a
    spec's cached result."""

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    @property
    def fingerprint(self) -> str:
        """Stable content address: :func:`content_digest` of :meth:`to_dict`."""
        return content_digest(self.to_dict())


class _Field(NamedTuple):
    name: str
    hint: Any  # the resolved annotation
    meta: Any  # the schema metadata
    default: Any  # MISSING without a plain default


class _Plan(NamedTuple):
    fields: Tuple[_Field, ...]  # in constructor order
    head: Dict[str, str]  # the format or kind tag
    writers: Tuple[Tuple[str, bool, bool], ...]  # key, encode?, omit_none
    readers: Tuple[Tuple[str, Any, bool, str], ...]  # name, hint to decode by, required, where
    known: frozenset
    checks: Tuple[tuple, ...]  # see _check


_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is not None:
        return plan
    localns: Dict[str, Any] = {}
    for module in cls.SCHEMA_IMPORTS:
        localns.update(vars(importlib.import_module(module)))
    hints = typing.get_type_hints(cls, localns=localns)
    fields, readers, checks = {}, [], []
    for f in sorted(dataclasses.fields(cls), key=lambda f: bool(f.kw_only)):
        hint, meta = hints[f.name], f.metadata
        fields[f.name] = _Field(f.name, hint, meta, f.default)
        if cls.KEYS is None or f.name in cls.KEYS:
            no_default = f.default is MISSING and f.default_factory is MISSING
            decode = hint if _coded(hint) else None
            where = f"{cls.__name__}.{f.name}"
            readers.append((f.name, decode, bool(meta.get("required")) or no_default, where))
        check = _check(f.name, hint, meta)
        if check is not None:
            checks.append(check)
    kind = cls.__dict__.get("kind")
    head = {"format": cls.FORMAT} if cls.FORMAT is not None else {}
    if isinstance(kind, str) and _KINDS.get(kind) is cls:
        head = {"kind": kind}
    writers = tuple(
        (key, _coded(fields[key].hint), bool(fields[key].meta.get("omit_none")))
        if key in fields
        else (key, False, False)
        for key in (cls.KEYS or fields)
    )
    known = frozenset(name for name, *_ in readers) | {"format"}
    plan = _PLANS[cls] = _Plan(
        tuple(fields.values()), head, writers, tuple(readers), known, tuple(checks)
    )
    return plan


def _check(name: str, hint: Any, meta: Any) -> Optional[tuple]:
    """``(name, type, optional, sequence, test, must)`` of a field with a
    check: ``type`` is ``int``/``float`` (of the items, for a sequence), a
    section class, or ``None`` when only its ``must`` or ``choices`` bound
    applies."""
    base, optional = _optional(hint)
    sequence = typing.get_origin(base) in (tuple, list)
    if sequence and typing.get_args(base)[1:] in ((), (Ellipsis,)):
        base = typing.get_args(base)[0]
    must, test, choices = meta.get("must"), None, meta.get("choices")
    if must:
        test = _test(must)
    elif isinstance(choices, tuple):
        must, test = f"be one of {choices}", choices.__contains__
    if not (base in (int, float) or (_section(base) and not sequence)):
        base = None
    return (name, base, optional, sequence, test, must) if base or test else None


def _optional(hint: Any) -> Tuple[Any, bool]:
    """``(X, True)`` for ``Optional[X]``, else ``(hint, False)``."""
    if typing.get_origin(hint) is typing.Union:
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return inner, True
    return hint, False


def _is_schema(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Schema)


def _coded(hint: Any) -> bool:
    """Whether a ``hint`` value's JSON differs from it: it can hold a
    schema object or a tuple.  Other values are written and read as-is."""
    return (
        _is_schema(hint)
        or typing.get_origin(hint) is tuple
        or any(_coded(arg) for arg in typing.get_args(hint))
    )


def _encode(value: Any) -> Any:
    if isinstance(value, Schema):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _expect(value: Any, types, what: str, where: str) -> None:
    if not isinstance(value, types):
        raise ValueError(f"{where}: expected {what}, got {type(value).__name__}")


def _decode(hint: Any, value: Any, where: str) -> Any:
    """``value`` (decoded JSON) rebuilt as ``hint`` says."""
    if _is_schema(hint):
        _expect(value, dict, "an object", where)
        return hint.from_dict(value)
    hint, optional = _optional(hint)
    if value is None and optional:
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if _is_schema(hint):
        return _decode(hint, value, where)
    if origin in (tuple, list):
        _expect(value, (list, tuple), "a list", where)
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ValueError(f"{where}: expected {len(args)} items, got {len(value)}")
            return tuple(_decode(a, v, where) for a, v in zip(args, value))
        return origin(_decode(args[0], v, where) for v in value)
    if origin is dict:
        _expect(value, dict, "an object", where)
        return {k: _decode(args[1], v, f"{where}[{k!r}]") for k, v in value.items()}
    return value


def _test(must: str) -> Callable[[Any], bool]:
    """The predicate a ``must`` phrase names (see the module docstring)."""
    rule = must.split(" ", 1)[1]
    if rule == "positive":
        return lambda v: v > 0
    if rule.startswith(">= "):
        low = float(rule[3:])
        return lambda v: v >= low
    if rule == "a non-empty string":
        return lambda v: isinstance(v, str) and v != ""
    if rule == "a string path":
        return lambda v: isinstance(v, str)
    low, high = map(float, rule[4:-1].split(", "))
    above = (lambda v: low <= v) if rule[3] == "[" else (lambda v: low < v)
    below = (lambda v: v <= high) if rule[-1] == "]" else (lambda v: v < high)
    return lambda v: above(v) and below(v)


def _check_fields(obj: Any) -> None:
    cls = type(obj)
    for name, kind, optional, sequence, test, must in _plan(cls).checks:
        value = getattr(obj, name)
        if (value is None and optional) or (sequence and not isinstance(value, (list, tuple))):
            continue  # a non-sequence is left to the class's own shape check
        if kind is int or kind is float:
            for item in value if sequence else (value,):
                if type(item) is not int and (kind is int or type(item) is not float):
                    _check_number(cls, name, kind, item)
        elif kind is not None and not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOU" else "a"
            got = type(value).__name__
            raise TypeError(f"{name} must be {article} {kind.__name__}, got {got}")
        if test and not test(value):
            shown = value if kind is int or kind is float else repr(value)
            raise ValueError(f"{name} must {must}, got {shown}")


def _check_number(cls: type, name: str, kind: type, item: Any) -> None:
    if type(item) is bool or not isinstance(item, numbers.Real):
        raise ValueError(f"{cls.__name__}.{name}: expected a number, got {type(item).__name__}")
    if kind is int and not isinstance(item, numbers.Integral):
        raise ValueError(f"{cls.__name__}.{name}: expected an integer, got {item!r}")


# --------------------------------------------------------------------- #
# Command-line flags
# --------------------------------------------------------------------- #


def grid_type(convert: Callable[[str], Any]) -> Callable[[str], Tuple[Any, ...]]:
    """An argparse ``type=`` callback parsing \"1,2,4\"-style grids."""

    def parse(text: str):
        try:
            values = tuple(convert(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid grid {text!r} (expected comma-separated "
                f"{convert.__name__} values)"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty grid {text!r}")
        return values

    return parse


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _section(hint: Any) -> Optional[type]:
    """The schema dataclass a (possibly ``Optional``) field holds, if any."""
    hint = _optional(hint)[0]
    return hint if _is_schema(hint) and dataclasses.is_dataclass(hint) else None


def _flagged(cls: type):
    """``(field, section)`` of each flagged field of ``cls`` and its sections."""
    for f in _plan(cls).fields:
        section = _section(f.hint)
        if f.meta.get("flag"):
            yield f, section
        if section is not None:
            yield from _flagged(section)


def flags(*classes: type) -> Dict[str, Dict[str, Any]]:
    """Flag name → ``argparse`` ``add_argument`` keywords, for every flag
    the ``classes`` and their sections declare."""
    table = {}
    for f, section in (pair for cls in classes for pair in _flagged(cls)):
        meta, hint = f.meta, _optional(f.hint)[0]
        kwargs: Dict[str, Any] = {}
        default = meta.get("cli", f.default)
        if section is not None:
            kwargs["action"] = "store_true"
        elif typing.get_origin(hint) in (tuple, list):
            kwargs["type"] = grid_type(typing.get_args(hint)[0])
        elif hint in (int, float):
            kwargs["type"] = hint
        if section is None and default is not MISSING:
            if not meta["flag"].startswith("-"):
                kwargs["nargs"] = "?"
            kwargs["default"] = default
        choices = meta.get("choices")
        if choices is not None:
            kwargs["choices"] = choices() if callable(choices) else choices
        kwargs.update((k, meta[k]) for k in ("metavar", "help") if meta.get(k))
        table[meta["flag"]] = kwargs
    return table


def from_flags(cls: type, args: argparse.Namespace, **given: Any) -> Any:
    """``cls`` built from parsed ``args``: each field whose flag the parser
    has, each field's ``cli`` value or ``reads`` flags, and each section
    one of whose flags holds a value (an ``Optional`` section with a
    switch of its own when that is set); ``given`` fields as passed."""
    kwargs = dict(given)
    for f in _plan(cls).fields:
        flag, section = f.meta.get("flag"), _section(f.hint)
        if f.name in given:
            continue
        if flag and hasattr(args, _dest(flag)):
            value = getattr(args, _dest(flag))
            if section is not None:
                value = from_flags(section, args) if value else None
            kwargs[f.name] = value
        elif "reads" in f.meta:
            values = [getattr(args, _dest(name), None) for name in f.meta["reads"]]
            kwargs[f.name] = next(v for v in values + [f.default] if v is not None)
        elif "cli" in f.meta:
            kwargs[f.name] = f.meta["cli"]
        elif section is not None and not flag and any(
            getattr(args, _dest(g.meta["flag"]), None) is not None for g, _ in _flagged(section)
        ):
            kwargs[f.name] = from_flags(section, args)
    return cls(**kwargs)
