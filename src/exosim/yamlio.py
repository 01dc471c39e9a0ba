"""exosim's YAML: the one dialect it writes (``dump_yaml``) and reads back
(``load_yaml``), in every config, sidecar and report, with no PyYAML.

So no command pays PyYAML's import (19-25 ms after numpy in ``-X importtime``
on a 2 vCPU Xeon).  The dialect is block mappings and lists as ``dump_yaml``
writes them, one-line flow lists and mappings of scalars, ``#`` comments, and
the scalars ``_scalar`` writes.  ``load_yaml`` types each scalar as PyYAML's
SafeLoader does under YAML 1.1, so ``1e308``, whose exponent has no sign, is a
string; anything else, and a mapping that repeats a key (where PyYAML lets the
last one win), is a ValueError naming its line and column.

The dialect is a module of its own, not part of ``config``: the compiler's
peak for one larger module raised analyze's peak RSS by about 0.35 MB.
"""

from __future__ import annotations

import math
import re
from typing import Any

# The strings written plain: words of these characters one space apart, each
# of which may end in a comma, or the empty string.
_WORDS = re.compile(r"(?:[A-Za-z0-9_.-]+,?(?: [A-Za-z0-9_.-]+,?)*)?")
# Those of them that PyYAML's implicit resolvers read as null, a bool, an int,
# a float or a date (its patterns, less the forms that need a character
# outside ``_WORDS``), and those that start with a block indicator.  Such a
# string is written single-quoted.
_TYPED = re.compile(
    r"""|null|Null|NULL
    |yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF
    |[-+]?(?:0b[0-1_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+)
    |[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
    |[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)
    |[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
    |-|-\ .*|---.*|\.\.\..*""",
    re.X,
)
# The characters a double-quoted string escapes: all but printable ASCII, and
# its '"' and backslash.
_ESCAPED = re.compile(r'[^ !#-\[\]-~]')

# What ``load_yaml`` reads.  A scalar of a block line and one of a flow
# collection, where a comma ends it: double-quoted, single-quoted, or plain
# (runs of characters that are no indicator, one space apart).
_SCALARS = [
    re.compile(r""""((?:[^"\\\x00-\x1f\x7f]|\\.)*)"|'((?:[^'\x00-\x1f\x7f]|'')*)'|(%s+(?: %s+)*)"""
               % (chars, chars))
    for chars in (r"""[^\s#:\[\]{}'"]""", r"""[^\s#:,\[\]{}'"]""")
]
_UNESCAPE = re.compile(r'\\(?:x([0-9A-Fa-f]{2})|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(["\\])|.)')
# The plain scalars read as other than strings: PyYAML's decimal ints and
# floats, without '_', and one spelling each of null and the bools.
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"""[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?
    |[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)""", re.X)
_NAMED = {"null": None, "true": True, "false": False}
_SPACES = re.compile(" *")
_REST = re.compile(r"(?: +(?:#.*)?)?")  # what may follow a value on its line
_BLOCK = object()  # the value of a ``key:`` line whose block follows it


def _escape(match: re.Match) -> str:
    code = ord(match.group())
    if code < 0x100:
        return f"\\x{code:02X}"
    return f"\\u{code:04X}" if code < 0x10000 else f"\\U{code:08X}"


def _scalar(value: Any, key: str) -> str:
    """``value`` as YAML if it is None, a bool, an int, a float or a string;
    ValueError naming its dotted ``key`` for anything else."""
    kind = type(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is float:
        if value != value:
            return ".nan"
        if math.isinf(value):
            return ".inf" if value > 0 else "-.inf"
        text = repr(value).lower()
        # A repr such as 1e+17 is not a YAML float without its ".0".
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    if kind is str:
        if _WORDS.fullmatch(value):
            return f"'{value}'" if _TYPED.fullmatch(value) else value
        return '"' + _ESCAPED.sub(_escape, value) + '"'
    raise ValueError(f"cannot write {key} as YAML: a {kind.__name__} value")


def dump_yaml(data: dict) -> str:
    """``data`` as block-style YAML with sorted keys: the form of every file
    exosim writes, and the bytes behind the config hash.  Each key is a word
    (``_WORDS``, not empty); each value is a dict of the same kind, a list of
    scalars or a scalar (``_scalar``).  ValueError naming the dotted key of
    anything else."""
    lines: list[str] = []

    def mapping(node: dict, indent: int, at: str) -> None:
        for key in node:
            if type(key) is not str or not key or not _WORDS.fullmatch(key):
                raise ValueError(f"cannot write key {at + str(key)!r} as YAML: not a word "
                                 "of letters, digits, '_', '.' or '-'")
        pad = " " * indent
        for key in sorted(node):
            head, value, path = f"{pad}{_scalar(key, at + key)}:", node[key], at + key
            if type(value) is dict and value:
                lines.append(head + "\n")
                mapping(value, indent + 2, path + ".")
            elif type(value) is list and value:  # a list's items go at its key's indent
                lines.append(head + "\n")
                lines.extend(f"{pad}- {_scalar(item, path)}\n" for item in value)
            else:
                empty = {dict: "{}", list: "[]"}.get(type(value))
                lines.append(f"{head} {empty or _scalar(value, path)}\n")

    mapping(data, 0, "")
    return "".join(lines) or "{}\n"


def _unexpected(line: str, pos: int) -> ValueError:
    found = repr(line[pos]) if pos < len(line) else "end of line"
    return ValueError(f"column {pos + 1}: unexpected {found}")


def _unescape(match: re.Match) -> str:
    code = match[1] or match[2] or match[3]
    if code:
        return chr(int(code, 16))
    if match[4]:
        return match[4]
    raise ValueError(f"unknown escape {match[0]!r}")


def _plain(text: str) -> Any:
    if text in _NAMED:
        return _NAMED[text]
    if _INT.fullmatch(text):
        return int(text)
    if _FLOAT.fullmatch(text):  # Python spells .inf and .nan without the dot
        return float(text.replace(".", "", 1) if text[-1] in "fFnN" else text)
    if _WORDS.fullmatch(text) and not _TYPED.fullmatch(text):
        return text
    raise ValueError(f"{text!r} is none of null, true, false, a number or a plain word")


def _scalar_at(line: str, pos: int, flow: bool) -> tuple[Any, int]:
    """The scalar at ``line[pos]`` and the index past it."""
    match = _SCALARS[flow].match(line, pos)
    if not match:
        raise _unexpected(line, pos)
    double, single, plain = match.groups()
    try:
        if plain is not None:
            return _plain(plain), match.end()
        if single is not None:
            return single.replace("''", "'"), match.end()
        return _UNESCAPE.sub(_unescape, double), match.end()
    except ValueError as err:  # an unknown escape, or an int past int()'s digit limit
        raise ValueError(f"column {pos + 1}: {err}") from None


def _value_at(line: str, pos: int) -> tuple[Any, int]:
    """The scalar, or one-line flow list or mapping of scalars, at ``line[pos]``
    and the index past it."""
    close = {"[": "]", "{": "}"}.get(line[pos : pos + 1])
    if not close:
        return _scalar_at(line, pos, False)
    node: Any = [] if close == "]" else {}
    pos = _SPACES.match(line, pos + 1).end()
    while not line.startswith(close, pos):
        start = pos
        item, pos = _scalar_at(line, pos, True)
        if close == "}":
            if not line.startswith(": ", pos):
                raise _unexpected(line, pos)
            if item in node:
                raise ValueError(f"column {start + 1}: duplicate key {item!r}")
            node[item], pos = _scalar_at(line, _SPACES.match(line, pos + 1).end(), True)
        else:
            node.append(item)
        pos = _SPACES.match(line, pos).end()
        if line.startswith(",", pos):
            pos = _SPACES.match(line, pos + 1).end()
        elif not line.startswith(close, pos):
            raise _unexpected(line, pos)
    return node, pos + 1


def _line_node(line: str, indent: int) -> tuple[str, Any, Any]:
    """``(kind, key, value)`` of a line that holds more than a comment: kind
    ``-`` for a list item, ``:`` for a mapping entry (its value ``_BLOCK``
    when a block follows) and ``""`` for a bare value."""
    kind, key, pos = "", None, indent
    if line.startswith("- ", indent) or line[indent:] == "-":
        kind, pos = "-", indent + 2
    elif line[indent] not in "[{":
        scalar, end = _scalar_at(line, indent, False)
        if line.startswith(":", end) and line[end + 1 : end + 2] in ("", " "):
            if _REST.fullmatch(line, end + 1):
                return ":", scalar, _BLOCK
            kind, key, pos = ":", scalar, _SPACES.match(line, end + 1).end()
    value, end = _value_at(line, pos)
    if not _REST.fullmatch(line, end):
        raise _unexpected(line, _SPACES.match(line, end).end())
    return kind, key, value


def load_yaml(text: str) -> Any:
    """The document ``text`` holds, as PyYAML's SafeLoader reads it, if it is
    in the dialect exosim writes and repeats no key of a mapping; ValueError
    naming the line and column of anything else.  A leading byte-order mark
    is skipped, and a document of no value (blank or comments only) is None."""
    doc: dict = {}  # the document, as the value of the key None
    stack = [(-1, doc)]  # (indent, node) of each open block, innermost last
    pending = (-1, doc, None, "")  # (indent, mapping, key, where) of a key whose block is next
    for number, line in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        indent = len(line) - len(line.lstrip(" "))
        if line[indent : indent + 1] in ("", "#"):
            continue
        where = f"line {number}, column {indent + 1}"
        try:
            kind, key, value = _line_node(line, indent)
        except ValueError as err:
            raise ValueError(f"line {number}, {err}") from None
        if pending:
            above, mapping, name, at = pending
            pending = None
            if kind == "" and mapping is doc:  # a document of one value
                doc[None] = value
                continue
            if not (indent > above or kind == "-" and indent == above):
                raise ValueError(f"{at}: expected a value for {name!r}")
            mapping[name] = [] if kind == "-" else {}  # a list may sit at its key's indent
            stack.append((indent, mapping[name]))
        while stack[-1][0] > indent or (stack[-1][0] == indent and kind != "-"
                                        and type(stack[-1][1]) is list):
            stack.pop()
        node = stack[-1][1]
        if stack[-1][0] != indent:
            raise ValueError(f"{where}: indentation matches no open block")
        if kind == "-" and type(node) is list:
            node.append(value)
        elif kind == ":" and type(node) is dict:
            if key in node:
                raise ValueError(f"{where}: duplicate key {key!r}")
            if value is _BLOCK:
                pending = (indent, node, key, where)
            else:
                node[key] = value
        else:
            raise ValueError(f"{where}: expected {'a list item' if type(node) is list else 'a key'}")
    if pending and pending[1] is not doc:
        raise ValueError(f"{pending[3]}: expected a value for {pending[2]!r}")
    return doc.get(None)
