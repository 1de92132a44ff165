"""Config field domains (`setting`), the check that every config
dataclass runs at construction (`Checked`), and the one builder that
every JSON object goes through (`build`). config.py tells how they fit."""

from __future__ import annotations

import dataclasses
import math
import operator

# Caps on sizes, so that one training step with any one size at its cap
# fits in a few GB.
MAX_SIZE = 256      # extents, feature dims, category and query counts
MAX_LAYERS = 64
MAX_HIDDEN = 1024
# Seeds are one 32-bit word. A larger one widens a seed list past the 4 words
# that numpy pads it to, and a plain list can then give a keyed stream
# (masks.seeded_rng).
MAX_SEED = 2**32 - 1


class ConfigError(ValueError):
    pass


def _is_number(v) -> bool:
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        return False


# kind -> (test of one value, name of one, name of many)
_KINDS = {
    bool: (lambda v: isinstance(v, bool), "true or false", "booleans"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", "integers"),
    float: (_is_number, "a number", "numbers"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
}
_ORDERS = {"<=": (operator.le, "ascending"), "<": (operator.lt, "strictly increasing")}


def bounds(interval: str) -> tuple:
    """(low, high) of an interval written as "[4, 256]" or "(0, inf)"."""
    low, high = interval[1:-1].split(",")
    return float(low), float(high)


def _within(v, interval: str) -> bool:
    low, high = bounds(interval)
    return ((v > low if interval[0] == "(" else v >= low)
            and (v < high if interval[-1] == ")" else v <= high))


@dataclasses.dataclass(frozen=True)
class Domain:
    """The values a config field may hold."""
    kind: type              # bool, int, float or str (the keys of _KINDS), or a Checked dataclass
    within: object = None   # an interval such as "[0, 1)", or a tuple of choices
    many: bool = False      # a tuple (a JSON list) of values, each of kind and within
    length: str = None      # interval of the number of entries
    order: str = None       # "<=" or "<" between consecutive entries
    nullable: bool = False

    def _admits_one(self, v) -> bool:
        if not _KINDS.get(self.kind, (lambda v: isinstance(v, self.kind),))[0](v):
            return False
        if isinstance(self.within, tuple):
            return v in self.within
        return self.within is None or _within(v, self.within)

    def admits(self, v) -> bool:
        if v is None or not self.many:
            return self.nullable if v is None else self._admits_one(v)
        return (isinstance(v, (tuple, list)) and all(map(self._admits_one, v))
                and (self.length is None or _within(len(v), self.length))
                and (self.order is None or all(map(_ORDERS[self.order][0], v, v[1:]))))

    def describe(self) -> str:
        _test, one, many = _KINDS.get(self.kind, (None, f"a {self.kind.__name__}", None))
        within = list(self.within) if isinstance(self.within, tuple) else self.within
        clauses = [(f"a list of {many}" if self.many else one) + " or null" * self.nullable,
                   within and f"{'each ' * self.many}in {within}",
                   self.length and f"length in {self.length}",
                   self.order and _ORDERS[self.order][1]]
        return (", " if self.many else " ").join(filter(None, clauses))


def setting(default=dataclasses.MISSING, kind=None, within=None, *,
            factory=dataclasses.MISSING, **domain):
    """A dataclass field holding `default` (or factory()) whose values
    must lie in Domain(kind, within, **domain)."""
    return dataclasses.field(default=default, default_factory=factory,
                             metadata={"domain": Domain(kind, within, **domain)})


def _show(value) -> str:
    """A one-line repr, tuples shown as JSON lists."""
    return repr(list(value) if isinstance(value, tuple) else value)


class Checked:
    """Base of the config dataclasses: construction checks every field
    against its domain; a subclass's own __post_init__ calls this first."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            domain, value = f.metadata["domain"], getattr(self, f.name)
            if not domain.admits(value):
                raise ConfigError(f"{f.name} must be {domain.describe()}, got {_show(value)}")


def build(cls, obj, prefix: str = "", require_all: bool = False):
    """cls from the JSON object `obj`, nested sections built the same way
    and lists turned into tuples. An unknown key (with require_all, also a
    missing one) is an error. `prefix`, the section's path, starts any
    error message of cls that does not start with it already."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{prefix[:-1] or 'the config'} must be a JSON object")
    kinds = {f.name: f.metadata["domain"].kind for f in dataclasses.fields(cls)}
    wrong = sorted(set(obj) ^ set(kinds) if require_all else set(obj) - set(kinds))
    if wrong:
        raise ConfigError(f"{'unknown or missing' if require_all else 'unknown'} keys "
                          f"{[prefix + k for k in wrong]} (expected: {sorted(kinds)})")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
    for name, kind in kinds.items():
        if dataclasses.is_dataclass(kind):
            kwargs[name] = build(kind, obj.get(name, {}), f"{prefix}{name}.")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        raise ConfigError(message if message.startswith(prefix) else prefix + message) from exc
