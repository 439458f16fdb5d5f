"""Deterministic report serialization: a stable key-value tree plus CSV curves.

Reports serialize to JSON text with insertion-ordered keys, floats printed
with 17 significant digits (lossless for float64), and complex numbers as
{"re": ..., "im": ...} pairs.  Identical report objects serialize to
byte-identical text; round-tripping through json.loads is lossless up to the
complex/array conversions applied on assembly.  A float or complex array
(an rp-gram matrix, a spectrum) is written in one vectorized pass
(_array_text) to the same bytes as the element-by-element walk of its
tolist() once it holds ARRAY_PASS_FLOATS floats (the crossover measured at
that constant); every other value, and a smaller array, takes that walk.
Strings and keys follow one JSON string rule (_string): '"', backslash,
every character below U+0020 and every surrogate code point are escaped,
the surrogates as \\uXXXX, and every other character is written as itself,
so a report is valid JSON that encodes to UTF-8.

The head of a report, its "tool" and "conventions" entries (TOOL and
CONVENTIONS, constants never mutated), is the same text in every report: it
is serialized once per process, on first use, and reused whenever a report
starts with those two objects.

The array pass formats each distinct magnitude once and carries the sign in
the literal text before the value.  That is exact because both float formats
are odd: "%.17g" and "%.1f" print -x as "-" followed by the text of x for
every finite x, -0.0 included ("-0.0").  An rp-gram matrix is exactly
hermitian, (M + M^H)/2, so about half its floats repeat a magnitude, and
the 17-digit conversion dominates the cost of the text.
"""

from __future__ import annotations

import functools
import itertools
from json.encoder import encode_basestring

import numpy as np

from . import __version__

TOOL = {"name": "rpkit", "version": __version__}

CONVENTIONS = {
    "twist_phase": "A o B = exp(i*pi*(d-1)*a*b/d) * A*B on grades (a, b); equals zeta^(a*b), zeta = exp(i*pi/d), at d = 2",
    "reflection": "theta(c_j) = c_{m+1-j}, antilinear homomorphism; lattice reflection is mid-bond on the time axis",
    "stochastic_dynamics": "dphi = -A phi ds + sqrt(2) dW from phi(0) = 0, so C_t = A^{-1}(1 - exp(-2 t A))",
    "sft_index_order": "sft(T)[(a,c),(b,e)] = T[(c,e),(a,b)] on Box22 data T[(o1,o2),(i1,i2)]",
    "time_shift": "one step moves every plus-half generator index by +1 (away from the plane)",
}

WITNESS_CAP = 16


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return format(x, ".17g")


def _string(s: str) -> str:
    """s as a JSON string literal: json's escapes for '"', backslash and the
    characters below U+0020, then \\uXXXX for each surrogate code point (only
    a non-ASCII text can hold one), which UTF-8 cannot encode."""
    text = encode_basestring(s)
    return text if text.isascii() else "".join(
        f"\\u{ord(c):04x}" if "\ud800" <= c <= "\udfff" else c for c in text)


def _entries(items, out: list, sep: str):
    """The "key":value pairs of items, sep before the first, "," between."""
    for k, v in items:
        out.append(sep + _string(str(k)) + ":")
        _serialize(v, out)
        sep = ","


def _serialize(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        _entries(obj.items(), out, "")
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _serialize(v, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append('{"re":' + _fmt_float(float(obj.real))
                   + ',"im":' + _fmt_float(float(obj.imag)) + "}")
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        if _FLOATS_PER_ENTRY.get(obj.dtype, 0) * obj.size >= ARRAY_PASS_FLOATS:
            out.append(_array_text(obj))
        else:
            _serialize(obj.tolist(), out)
    elif isinstance(obj, str):
        out.append(_string(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# Floats from which an array takes the one-pass _array_text rather than the
# walk of its tolist().  The pass costs a fixed run of numpy calls and the
# walk a Python step per float, so the walk wins on small arrays.  Timed
# right after the benchmark's calibration load (which streams 8 MB through
# the caches, as before every check), the walk took 47 us at 4 floats where
# the pass took 230 us, and the pass overtook it between 128 and 256 floats
# (real 128 entries: walk 237 us, pass 295 us; 256: 445 and 346 us; complex
# 128 entries, 256 floats: 413 and 417 us).  With warm caches the pass wins
# from about 32 floats.  An empty array has no floats, so it takes the walk.
ARRAY_PASS_FLOATS = 128
# floats per entry of the arrays whose tolist() holds Python floats or
# complexes, each converted exactly
_FLOATS_PER_ENTRY = {np.dtype(np.float64): 1, np.dtype(np.float32): 1,
                     np.dtype(np.complex128): 2, np.dtype(np.complex64): 2}
# the format of a finite magnitude: [not integral or >= 1e15, integral below 1e15]
_FLOAT_FORMATS = np.array(["%.17g", "%.1f"], dtype=object)


def _array_text(arr: np.ndarray) -> str:
    """_serialize(arr.tolist()) of a float or complex array with at least one
    entry, formatting each distinct magnitude once.

    The floats are one vector (a complex array as re, im interleaved).  Each
    distinct finite magnitude gets the format _fmt_float would give it ("%.1f"
    when integral and below 1e15, otherwise "%.17g") and is formatted once, in
    one % pass over all of them; a negative value (signbit, so -0.0 too) puts
    "-" at the end of the literal text before it.  That is exact: for finite x
    both formats print -x as "-" followed by the text of x, and "%.1f" prints
    -0.0 as "-0.0".  Non-finite entries take _fmt_float's quoted text and no
    sign.  The literal text before a value (brackets, commas, '{"re":',
    ',"im":', "}") depends only on how many of its trailing indices are 0, so
    it comes from a small table.  The text is byte for byte that of the
    generic walk.
    """
    cplx = arr.dtype.kind == "c"
    x = arr.astype(np.complex128 if cplx else np.float64).ravel()
    if cplx:
        x = x.view(np.float64)     # re, im interleaved
    finite = np.isfinite(x)
    u, inv = np.unique(np.abs(x[finite]), return_inverse=True)
    fmts = _FLOAT_FORMATS[((u == np.trunc(u)) & (u < 1e15)).view(np.int8)]
    vals = np.empty(x.size, dtype=object)
    vals[finite] = np.array((",".join(fmts.tolist()) % tuple(u.tolist())).split(","),
                            dtype=object)[inv]
    vals[~finite] = [_fmt_float(v) for v in x[~finite].tolist()]
    # the literal text before a value, by slot: t < ndim trailing zero
    # indices after a comma, ndim at the first entry, ndim + 1 before an
    # imaginary part; a negative value takes the same text with "-" appended
    ndim = arr.ndim
    close, open_ = ("}", '{"re":') if cplx else ("", "")
    before = ([close + "]" * t + "," + "[" * t + open_ for t in range(ndim)]
              + ["[" * ndim + open_, ',"im":'])
    table = np.array([before, [b + "-" for b in before]], dtype=object)
    e = np.arange(arr.size)
    slot = np.zeros(arr.size, dtype=np.intp)
    for t in range(1, ndim):
        slot += e % int(np.prod(arr.shape[ndim - t:])) == 0
    slot[0] = ndim
    if cplx:
        slot = np.stack([slot, np.full_like(slot, ndim + 1)], axis=1).ravel()
    parts = np.empty(2 * x.size, dtype=object)
    parts[0::2] = table[(np.signbit(x) & finite).view(np.int8), slot]
    parts[1::2] = vals
    return "".join(parts.tolist()) + close + "]" * ndim


def to_text(report: dict) -> str:
    """The report as one line of JSON text, newline included.  A report whose
    first two entries are "tool": TOOL and "conventions": CONVENTIONS (the
    objects themselves) starts with their cached text."""
    if (type(report) is dict and report.get("tool") is TOOL
            and report.get("conventions") is CONVENTIONS
            and list(itertools.islice(report, 2)) == ["tool", "conventions"]):
        out = [_head()]
        _entries(itertools.islice(report.items(), 2, None), out, ",")
        out.append("}")
    else:
        out = []
        _serialize(report, out)
    return "".join(out) + "\n"


@functools.cache
def _head() -> str:
    """'{"tool":...,"conventions":...', built on first use: the text every
    report of this process starts with."""
    out = ["{"]
    _entries({"tool": TOOL, "conventions": CONVENTIONS}.items(), out, "")
    return "".join(out)


def truncate_witness(vec) -> list:
    """First 16 entries of a witness vector, as complex pairs."""
    if vec is None:
        return []
    arr = np.asarray(vec).ravel()[:WITNESS_CAP]
    return [complex(z) for z in arr]


def curve_csv(rows) -> str:
    """CSV for stochastic scans: t, min_eig, violated (0/1)."""
    lines = ["t,min_eig,violated"]
    for t, me, violated in rows:
        lines.append(f"{format(float(t), '.17g')},{format(float(me), '.17g')},{1 if violated else 0}")
    return "\n".join(lines) + "\n"
