"""Deterministic report serialization: a stable key-value tree plus CSV curves.

Reports serialize to JSON text with insertion-ordered keys, floats printed
with 17 significant digits (lossless for float64), and complex numbers as
{"re": ..., "im": ...} pairs.  Identical report objects serialize to
byte-identical text; round-tripping through json.loads is lossless up to the
complex/array conversions applied on assembly.  A float or complex array
(an rp-gram matrix, a spectrum) is written in one vectorized pass
(_array_text) to the same bytes as the element-by-element walk of its
tolist(); every other value takes that walk.
"""

from __future__ import annotations

import numpy as np

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


def _serialize(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(f'"{k}":')
            _serialize(v, out)
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
        if obj.dtype in _FAST_DTYPES:
            out.append(_array_text(obj))
        else:
            _serialize(obj.tolist(), out)
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        out.append(f'"{escaped}"')
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# arrays whose tolist() holds Python floats or complexes, each converted exactly
_FAST_DTYPES = (np.dtype(np.float64), np.dtype(np.float32),
                np.dtype(np.complex128), np.dtype(np.complex64))
# the format of one float by kind: 0 "%.17g", 1 integral below 1e15 "%.1f",
# 2 non-finite, whose text _fmt_float supplies
_FLOAT_FORMATS = np.array(["%.17g", "%.1f", "%s"], dtype=object)
_COMPLEX_FORMATS = np.array(['{"re":' + r + ',"im":' + i + "}"
                             for r in _FLOAT_FORMATS for i in _FLOAT_FORMATS], dtype=object)


def _array_text(arr: np.ndarray) -> str:
    """_serialize(arr.tolist()) of a float or complex array, in one pass.

    The format of each float is picked from masks taken in numpy (finite,
    integral and below 1e15 in modulus: "%.1f", otherwise "%.17g"); only the
    non-finite entries go through _fmt_float.  The formats of the entries,
    nested in brackets by the shape, make one format string that takes all
    the values at once.  The text is byte for byte that of the generic walk.
    """
    cplx = arr.dtype.kind == "c"
    x = arr.astype(np.complex128 if cplx else np.float64).ravel()
    if cplx:
        x = x.view(np.float64)     # re, im interleaved
    finite = np.isfinite(x)
    kind = np.where(finite, (x == np.trunc(x)) & (np.abs(x) < 1e15), 2)
    vals = x.tolist()
    for i in np.flatnonzero(~finite).tolist():
        vals[i] = _fmt_float(vals[i])
    fmts = (_COMPLEX_FORMATS[3 * kind[0::2] + kind[1::2]] if cplx
            else _FLOAT_FORMATS[kind]).tolist()
    for j in range(arr.ndim - 1, -1, -1):
        size = arr.shape[j]
        fmts = ["[" + ",".join(fmts[r * size:(r + 1) * size]) + "]"
                for r in range(int(np.prod(arr.shape[:j], dtype=np.int64)))]
    return fmts[0] % tuple(vals)


def to_text(report: dict) -> str:
    out: list[str] = []
    _serialize(report, out)
    return "".join(out) + "\n"


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
