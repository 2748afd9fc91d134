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

Two writers give a float the text ``json.dumps`` gives it: ``float.__repr__``
and, in a document with at least ORJSON_MIN_FLOATS distinct floats,
``orjson``'s Ryu writer (Adams, PLDI 2018), which finds the same shortest
round-trip digits about 5 times faster. Its spelling is ``repr``'s where
``repr`` writes no exponent, for |x| in [1e-4, 1e16), and only there.
Outside that band ``repr`` writes ``1e-05`` and ``1e+16`` where ``orjson``
writes ``0.00001`` and ``1e16``, and ``orjson`` writes NaN and the infinities
as ``null``, so those floats keep ``repr``'s text on both paths.
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
# Distinct floats from which a document's floats are formatted by orjson, not
# float.__repr__. Importing orjson after kselect.cli takes 4-6 ms and 0.3 MB
# (it loads uuid and zoneinfo); it then formats a float in about 0.12 us
# against repr's 0.5-1.1 us. number_texts on n distinct floats in a new
# interpreter (2-core x86_64 VM, medians of 9) took 3.0 / 4.4 ms (repr /
# orjson) at n = 4000, 6.5 / 5.1 ms at 8000 and 9.1 / 7.1 ms at 12000. So
# price-general's pricing (1472 distinct floats) stays on repr, and
# price-highvalue's (37311) takes orjson.
ORJSON_MIN_FLOATS = 8000

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


def float_texts(values: np.ndarray, fast: bool = False) -> list[str]:
    """The texts ``json.dumps`` writes for the float64 ``values``, in order:
    ``float.__repr__``'s, NaN, Infinity and -Infinity. With ``fast``, the
    floats with |x| in the band [1e-4, 1e16) are formatted by one
    ``orjson.dumps`` call on the contiguous array ``values``, which gives
    them the same text, and the others by ``repr``."""
    if not fast:
        return _repr_texts(values)
    if not len(values):
        return []  # b"[]"[1:-1] would split to [""]
    import orjson

    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(values)
    rest = np.flatnonzero(~((size >= 1e-4) & (size < 1e16)))  # and NaN
    for j, text in zip(rest.tolist(), _repr_texts(values[rest])):
        texts[j] = text
    return texts


def _repr_texts(values: np.ndarray) -> list[str]:
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
    floats and texts are not all held at once beside the texts array, and
    by ``orjson`` where there are at least ORJSON_MIN_FLOATS of them (see
    ``float_texts``): below that, importing it costs more than it saves.
    """
    bits = np.concatenate([np.ravel(column) for column in columns]).view(np.int64)
    bits.sort()
    new = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    keys = bits[new]
    del bits, new  # freed before the texts are made
    fast = len(keys) >= ORJSON_MIN_FLOATS
    texts = np.empty(len(keys), dtype=object)
    for a in range(0, len(keys), FORMAT_SLICE):
        texts[a : a + FORMAT_SLICE] = float_texts(keys[a : a + FORMAT_SLICE].view(float), fast)
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
