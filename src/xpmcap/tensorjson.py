"""The tensor document, as `coeffs` writes it and `sweep` and `simulate`
read it back: its own module (CoeffTensor delegates to it), so a tensor
sweep loads no numpy. A window of memory M is a flat list of its (2M+1)^3
complex entries c[l,m,p], row-major in (l, m, p)."""

import itertools
import json
import math
import sys

from .errors import ConfigError


class _OtherReceiver(ConfigError):
    """A tensor document tagged for another receiver; read_tensor names it."""


def tensor_document(memory: int, values, link: dict, user: str = "x") -> dict:
    """The document of the window values, tagged as receiver user's."""
    lags = itertools.product(range(-memory, memory + 1), repeat=3)
    entries = [{"l": l, "m": m, "p": p, "re": c.real, "im": c.imag}
               for (l, m, p), c in zip(lags, values)]
    return {"user": user, "memory": memory, "link": dict(link),
            "entries": entries}


def parse_tensor_document(doc: dict, user: str = "x"):
    """(memory, link, values) of a document tagged as receiver user's;
    ConfigError for a malformed document or another tag."""
    try:
        if (tag := doc["user"]) != user:
            raise _OtherReceiver(f"holds receiver {tag}'s tensor, "
                                 f"not receiver {user}'s")
        memory, link = doc["memory"], doc.get("link", {})
        if type(memory) is not int:  # not isinstance: refuses bool
            raise ConfigError(f"non-integer tensor memory {memory!r}")
        if not isinstance(link, dict):
            raise ConfigError(f"tensor link {link!r} is not a mapping")
        entries = doc["entries"]
        side = 2 * memory + 1
        # Checked before the window is allocated, so a large memory
        # with too few entries cannot size the allocation.
        if memory < 0 or len(entries) != side ** 3:
            raise ConfigError(
                f"tensor document does not fill the full window: "
                f"{len(entries)} entries for memory {memory}")
        values = [None] * side ** 3
        centre = len(values) // 2  # the index of c[0,0,0]
        for e in entries:
            l, m, p = lags = e["l"], e["m"], e["p"]
            if any(type(v) is not int or abs(v) > memory for v in lags):
                raise ConfigError(
                    f"entry lag {lags} is not an integer in the window")
            parts = e["re"], e["im"]
            if any(type(v) not in (int, float)  # bool is not a number
                   or not abs(v) <= sys.float_info.max for v in parts):
                raise ConfigError(
                    f"entry {lags}: re and im must be finite numbers")
            values[(l * side + m) * side + p + centre] = complex(*parts)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed tensor document: {exc}") from exc
    if None in values:
        raise ConfigError("tensor document does not fill the full window")
    return memory, link, values


def read_tensor(path: str, user: str = "x"):
    """parse_tensor_document of the file at path; its errors name path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_tensor_document(json.load(fh), user)
        except _OtherReceiver as exc:
            raise ConfigError(f"{path} {exc}") from exc
        except (ConfigError, ValueError, RecursionError) as exc:
            # ValueError: bad JSON or text; RecursionError: deep nesting
            raise ConfigError(f"{path}: {exc}") from exc


def sum_abs_sq(values) -> float:
    """kappa = sum |c|^2 (1/W^2), exactly rounded, so any order of the
    entries gives the same bits: receiver w's lag reversal too."""
    return math.fsum(abs(c) ** 2 for c in values)
