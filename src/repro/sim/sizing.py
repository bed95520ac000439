"""Message size estimation for traffic accounting.

The paper's efficiency arguments are about *bytes on the wire* as much as
message counts: partial writes ship deltas, propagation ships log slices
instead of whole objects.  Since the simulator passes Python objects, we
estimate a wire size per payload with a simple recursive model (close
enough for relative comparisons, which is all the experiments need):

* fixed per-message envelope (headers, ids): 48 bytes;
* int/float/bool/None: 8 bytes;
* str/bytes: length (+2 framing);
* containers: 8 bytes plus the sum of their elements (dicts count keys
  and values);
* dataclasses: their field values.

Every message is sized, so the model is evaluated through a per-class
dispatch table: the rule a class falls under (and, for a dataclass, its
field names) is worked out the first time an instance is seen, and the
``str``/``int``/``float``/``None`` leaves that make up most of a payload
are sized in the loop that walks their container, without a call each.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any, Callable, Iterable

ENVELOPE_BYTES = 48

_WORD_TYPES = frozenset({int, float, bool, type(None)})

#: class -> the function sizing its instances (filled by :func:`_sizer_for`)
_SIZERS: dict[type, Callable[[Any], int]] = {}


def _sum_sizes(values: Iterable) -> int:
    total = 0
    for value in values:
        cls = type(value)
        if cls in _WORD_TYPES:
            total += 8
        elif cls is str:
            total += len(value) + 2
        else:
            total += (_SIZERS.get(cls) or _sizer_for(cls))(value)
    return total


def _word(payload: Any) -> int:
    return 8


def _framed(payload: Any) -> int:
    return len(payload) + 2


def _mapping(payload: dict) -> int:
    return 8 + _sum_sizes(payload) + _sum_sizes(payload.values())


def _sequence(payload: Iterable) -> int:
    return 8 + _sum_sizes(payload)


def _opaque(payload: Any) -> int:
    # opaque objects (rare in protocol payloads): flat charge
    return 32


def _dataclass_sizer(cls: type) -> Callable[[Any], int]:
    names = tuple(field.name for field in dataclasses.fields(cls))
    if len(names) < 2:      # attrgetter returns a bare value for one name
        return lambda payload: 8 + _sum_sizes(
            [getattr(payload, name) for name in names])
    values_of = attrgetter(*names)
    return lambda payload: 8 + _sum_sizes(values_of(payload))


def _sizer_for(cls: type) -> Callable[[Any], int]:
    """Resolve (and remember) the rule for *cls*; subclasses follow the
    first base rule that matches, in the order the model lists them."""
    if cls is type(None) or issubclass(cls, (bool, int, float)):
        sizer = _word
    elif issubclass(cls, (str, bytes)):
        sizer = _framed
    elif issubclass(cls, dict):
        sizer = _mapping
    elif issubclass(cls, (list, tuple, set, frozenset)):
        sizer = _sequence
    elif dataclasses.is_dataclass(cls):
        sizer = _dataclass_sizer(cls)
    else:
        sizer = _opaque
    _SIZERS[cls] = sizer
    return sizer


def estimate_size(payload: Any) -> int:
    """Estimated wire size of one payload, in bytes (without envelope)."""
    cls = type(payload)
    return (_SIZERS.get(cls) or _sizer_for(cls))(payload)


def message_size(payload: Any) -> int:
    """Envelope plus payload."""
    return ENVELOPE_BYTES + estimate_size(payload)
