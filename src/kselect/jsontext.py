"""The text of ``json.dumps(obj, indent=2, sort_keys=True)``, streamed in chunks.

With an indent, ``json.dumps`` runs its pure-Python encoder, one call per
value: most of the time of ``solve`` and ``pricing`` at large k, and of a
long ``simulate`` trace. So ``layout`` has ``json.dumps`` write only the
templates: a document with ``SECTION`` where each large array goes, and an
array item with ``FIELD`` where each of its values goes. ``document`` writes
the template and streams every array through ``array_chunks``, whose chunks
are each one ``"".join``. ``number_texts`` formats each distinct float of a
document's float columns once and looks up the texts of any float array by
a binary search on its bits, so a writer reads its columns where they are.
"""

import json
from collections.abc import Callable, Iterable, Iterator
from itertools import pairwise

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
    ``value`` opened at depth ``depth``, with each FIELD and SECTION string
    in it written as the bare mark."""
    text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    return text.replace(json.dumps(FIELD), FIELD).replace(json.dumps(SECTION), SECTION)


def float_texts(values: np.ndarray) -> list[str]:
    """The texts ``json.dumps`` writes for the float64 ``values``, in order."""
    texts = list(map(float.__repr__, values.tolist()))
    for j in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[j] = json.dumps(values[j].item())  # NaN, Infinity, -Infinity
    return texts


def number_texts(columns: Iterable[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """A lookup ``text``: ``text(x)`` is an object array of the texts
    ``json.dumps`` writes for the floats of ``x``, a float64 array of any
    shape or strides whose floats all occur in ``columns``, the float64
    arrays a document prints, read in place.

    One concatenated copy of the columns' int64 bits is sorted, and freed
    once the distinct bits and their texts are taken. Floats are told apart
    by their bits: -0.0 and 0.0 compare and hash equal, so a dedupe by
    value would write one as the other, and NaN is unequal to itself
    (``np.unique`` on the bits ran 7-16 times slower than a sort). The
    distinct floats are formatted FORMAT_SLICE at a time, so their Python
    floats and texts are not all held at once beside the texts array.
    """
    bits = np.concatenate([np.ravel(column) for column in columns]).view(np.int64)
    bits.sort()
    new = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    keys = bits[new]
    del bits, new  # freed before the texts are made
    texts = np.empty(len(keys), dtype=object)
    for a in range(0, len(keys), FORMAT_SLICE):
        texts[a : a + FORMAT_SLICE] = float_texts(keys[a : a + FORMAT_SLICE].view(float))
    return lambda x: texts[np.searchsorted(keys, x.view(np.int64))]


def array_chunks(item: str, depth: int, rows: int, fields: Callable, groups=None) -> Iterator[str]:
    """A JSON array opened at depth ``depth``, CHUNK_UNITS items at a time,
    then its close: its ``rows`` items are the template ``item`` with its
    FIELD marks (one or more) filled, and ``fields(a, b)`` gives one
    sequence of texts per field for items a..b-1. With ``groups``, offsets
    that rise strictly from 0 to ``rows``, it is an array of arrays, group
    j of items ``groups[j]`` up to ``groups[j + 1]`` laid out at depth
    ``depth + 2``, and a chunk holds CHUNK_UNITS groups.

    A chunk is one object array, a row per item: its even columns are the
    pieces of ``item`` between its FIELD marks and its odd columns the
    fields' texts. The first piece is led by the comma or bracket before
    the item, and the last closes the item's group where it ends one.
    """
    if not rows:
        yield "[]"
        return
    head, *middle, tail = item.split(FIELD)
    outer = "\n" + "  " * (depth + 1)
    start, end = "," + outer + head, tail  # the pieces around a group's first and last items
    lead, close = start, end  # and around the others
    if groups is not None:
        inner = "\n" + "  " * (depth + 2)
        start, end = "," + outer + "[" + inner + head, tail + outer + "]"
        lead = "," + inner + head
    units = rows if groups is None else len(groups) - 1
    cuts = [*range(0, units, CHUNK_UNITS), units]
    stops = cuts if groups is None else groups[cuts].tolist()
    buf = np.empty((max(b - a for a, b in pairwise(stops)), 2 * len(middle) + 3), dtype=object)
    buf[:, 2:-1:2] = middle
    for (u, v), (a, b) in zip(pairwise(cuts), pairwise(stops)):
        chunk = buf[: b - a]
        chunk[:, 0], chunk[:, -1] = lead, close
        if groups is not None:
            bounds = groups[u : v + 1] - a
            chunk[bounds[:-1], 0] = start
            chunk[bounds[1:] - 1, -1] = end
        if u == 0:
            chunk[0, 0] = "[" + start[1:]
        for f, texts in enumerate(fields(a, b)):
            chunk[:, 2 * f + 1] = texts
        yield "".join(chunk.ravel().tolist())
    yield "\n" + "  " * depth + "]"


def document(template: str, sections: Iterable[Iterator[str]]) -> Iterator[str]:
    """``template`` with each SECTION replaced, in order, by the text of one
    of ``sections``."""
    head, *rest = template.split(SECTION)
    yield head
    for section, text in zip(sections, rest, strict=True):
        yield from section
        yield text
