"""Input and output helpers that the CLI's handler modules share.

Both cli and _cli_heavy import them from here, never one from the other:
under ``python -m resichain.cli`` the running module is ``__main__``, and
importing resichain.cli again would compile it a second time.
"""

from __future__ import annotations

import json
import sys

from .errors import MalformedInput


def _read_json(path):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise MalformedInput(f"not JSON: {exc}") from None
    except OSError as exc:
        _usage_error(str(exc))


def _decode(from_json, data):
    """Run a from_json reader; data it cannot read is a domain error."""
    try:
        return from_json(data)
    except KeyError as exc:
        raise MalformedInput(f"missing field {exc}") from None
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise MalformedInput(str(exc)) from None


def _parsed(parse, text: str):
    """Run a parser over argument text; text it rejects is a usage error."""
    try:
        return parse(text)
    except ValueError as exc:
        _usage_error(str(exc))


def _usage_error(msg: str):
    """Argument-level mistakes exit 2, like argparse does."""
    print(msg, file=sys.stderr)
    raise SystemExit(2)


def _emit(obj, args) -> None:
    if getattr(args, "format", "json") == "table":
        _emit_table(obj)
    else:
        print(json.dumps(obj))


def _emit_table(obj, indent: str = "") -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_table(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            _emit_table(v, indent)
    else:
        print(f"{indent}{obj}")


def _load_chain(path):
    from .chain import chain_from_json

    return _decode(chain_from_json, _read_json(path))


def _element(chain, name: str) -> int:
    try:
        return chain.index_of_label(name)
    except (KeyError, ValueError):
        pass
    try:
        idx = int(name)
    except ValueError:
        _usage_error(f"unknown element {name!r}")
    if not 0 <= idx < chain.size:
        _usage_error(f"element index {idx} out of range")
    return idx
