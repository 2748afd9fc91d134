"""The text of ``json.dumps(obj, indent=2, sort_keys=True)``, streamed in chunks.

With an indent, ``json.dumps`` runs its pure-Python encoder, one call per
value: most of the time of ``solve`` and ``pricing`` at large k, and of a
long ``simulate`` trace. So ``layout`` has ``json.dumps`` write only the
templates: a document with ``SECTION`` where each large array goes, and
an array item with ``%s`` for each ``FIELD``. ``document`` writes the
template and streams every array through ``array_chunks``, CHUNK_UNITS
items at a time, each chunk filled by one ``%`` over the texts of its
fields. ``number_texts`` formats each distinct float of a whole document once;
a chunk finds the texts of its floats by a binary search on their bits.
"""

import json
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

# Items (units) per streamed chunk: bounds the text held at once.
CHUNK_UNITS = 4096
# Distinct floats number_texts formats at once: bounds the Python floats and
# the list of texts held beside the texts array.
FORMAT_SLICE = 1 << 16

# Marks the place of a streamed array in a document template.
SECTION = "\0"
# Marks a field of an item template, filled by array_chunks.
FIELD = "\1"


def layout(value, depth: int = 0) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` writes for
    ``value`` opened at depth ``depth``, with each FIELD string in it
    written ``%s`` and each SECTION string kept as it is."""
    text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    return text.replace(json.dumps(FIELD), "%s").replace(json.dumps(SECTION), SECTION)


def block(items: list[str], depth: int) -> str:
    """A non-empty array of rendered items opened at depth ``depth``, joined
    in O(len(items)) where ``layout`` would encode every item."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def float_texts(values: np.ndarray) -> list[str]:
    """The texts ``json.dumps`` writes for the float64 ``values``, in order."""
    texts = list(map(float.__repr__, values.tolist()))
    for j in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[j] = json.dumps(values[j].item())  # NaN, Infinity, -Infinity
    return texts


def number_texts(floats: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """A lookup ``text``: ``text(a, b)`` lists the texts ``json.dumps``
    writes for ``floats[a:b]``.

    ``floats`` is one float64 array holding every number of a document's
    streamed arrays, in the order they are written. The lookup holds it,
    the sorted int64 bits of its distinct floats and their texts, and
    nothing per number: ``text`` finds a window's bits by binary search.
    Floats are told apart by their bits: -0.0 and 0.0 compare and hash
    equal, so a dedupe by value would write one as the other, and NaN is
    unequal to itself (``np.unique`` on the bits ran 7-16 times slower than
    a sort). The distinct floats are formatted FORMAT_SLICE at a time, so
    their Python floats and texts are not all held at once beside the
    texts array.
    """
    bits = np.sort(floats.view(np.int64))
    new = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    keys = bits[new]
    del bits, new  # freed before the texts are made
    texts = np.empty(len(keys), dtype=object)
    for a in range(0, len(keys), FORMAT_SLICE):
        texts[a : a + FORMAT_SLICE] = float_texts(keys[a : a + FORMAT_SLICE].view(float))
    return lambda a, b: texts[np.searchsorted(keys, floats[a:b].view(np.int64))]


def array_chunks(
    templates: Sequence[str], depth: int, values: Callable[[int, int], Sequence]
) -> Iterator[str]:
    """A JSON array opened at depth ``depth``, CHUNK_UNITS items at a time:
    item i is ``templates[i]`` with its ``%s`` fields filled, and
    ``values(a, b)`` lists the fields of items a..b-1 in order."""
    n = len(templates)
    if not n:
        yield "[]"
        return
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    for a in range(0, n, CHUNK_UNITS):
        b = min(a + CHUNK_UNITS, n)
        lead = "[" + pad if a == 0 else sep
        yield lead + sep.join(templates[a:b]) % tuple(values(a, b))
    yield "\n" + "  " * depth + "]"


def document(template: str, sections: Iterable[Iterator[str]]) -> Iterator[str]:
    """``template`` with each SECTION replaced, in order, by the text of one
    of ``sections``."""
    head, *rest = template.split(SECTION)
    yield head
    for section, text in zip(sections, rest, strict=True):
        yield from section
        yield text
