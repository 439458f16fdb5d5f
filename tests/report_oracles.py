"""The element-by-element report walk that only the tests use.

serialize() is the report writer as it was before rpkit.report cached the
head of a report, sent small arrays through the walk and gave strings and
keys one JSON string rule: every array goes through its tolist(), a string
escapes only backslash, '"' and newline, and a key is written as it is.
Wherever it writes valid JSON that reads back as the tree it was given,
rpkit.report.to_text must write the same bytes.
"""

import numpy as np


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


def _walk(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(f'"{k}":')
            _walk(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _walk(v, out)
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
        _walk(obj.tolist(), out)
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        out.append(f'"{escaped}"')
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize(obj) -> str:
    """The report text of obj, newline included, by the element walk."""
    out: list[str] = []
    _walk(obj, out)
    return "".join(out) + "\n"


def _plain_float(x: float):
    return x if np.isfinite(x) else _fmt_float(x).strip('"')


def _plain_string(s: str) -> str:
    # json.loads joins an escaped high surrogate and an escaped low one that
    # follows it into one character; UTF-16 with surrogatepass does the same
    return s.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def plain(obj):
    """What json.loads must read back from the report text of obj: complex
    numbers as {"re", "im"} objects, non-finite floats as "nan", "inf" and
    "-inf", arrays and tuples as lists."""
    if isinstance(obj, dict):
        return {_plain_string(str(k)): plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _plain_float(float(obj.real)), "im": _plain_float(float(obj.imag))}
    if isinstance(obj, (float, np.floating)):
        return _plain_float(float(obj))
    return _plain_string(obj)
