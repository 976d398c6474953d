"""Built-in operator corpus and loading helpers for the CLI.

Each entry is a classical recursion operator stored in the JSON operator
schema together with its expected verdicts, used as a regression suite.  The
files under corpus/ in the repository hold the bare schema for CLI use and
must round-trip against these definitions.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple, Optional, Tuple

from .nonlocal_ops import NonlocalOp
from .schema import Grading, document_from_json, local_from_json, operator_from_json


class CorpusEntry(NamedTuple):
    name: str
    operator_json: dict
    pair: Optional[Tuple[List, List]] = None  # (A coeffs, B coeffs) in schema form
    expect_hereditary: bool = True
    expect_integrable: bool = True
    recursion_true: Tuple[str, ...] = ()
    recursion_false: Tuple[str, ...] = ()
    note: str = ""

    def load(self) -> Tuple[NonlocalOp, Grading]:
        return operator_from_json(self.operator_json)

    def load_pair(self):
        if self.pair is None:
            return None
        return tuple(local_from_json(coeffs, f"pair[{i}]")
                     for i, coeffs in enumerate(self.pair))


ENTRIES: Dict[str, CorpusEntry] = {}


def _register(entry: CorpusEntry) -> None:
    ENTRIES[entry.name] = entry


_register(CorpusEntry(
    name="kdv",
    operator_json={
        "local": [["2*u", 0], ["1", 2]],
        "nonlocal": [["u'", "1"]],
        "grading": {"u": "even"},
    },
    recursion_true=("u'", "u''' + 3*u*u'"),
    note="Korteweg-de Vries recursion operator",
))

_register(CorpusEntry(
    name="mkdv",
    operator_json={
        "local": [["4*u^2", 0], ["1", 2]],
        "nonlocal": [["4*u'", "u"]],
        "grading": {"u": "even"},
    },
    recursion_true=("u'", "u''' + 6*u^2*u'"),
    note="modified Korteweg-de Vries recursion operator; its fraction "
         "B = u^-1 d has the Laurent denominator u",
))

_register(CorpusEntry(
    name="burgers",
    operator_json={
        "local": [["u", 0], ["1", 1]],
        "nonlocal": [["u'", "1"]],
        "grading": {"u": "even"},
    },
    pair=([["1", 2], ["u", 1], ["u'", 0]], [["1", 1]]),
    recursion_true=("u'",),
    note="Burgers recursion operator with its defining pair",
))

_register(CorpusEntry(
    name="potential-burgers",
    operator_json={
        "local": [["u'", 0], ["1", 1]],
        "nonlocal": [],
        "grading": {"u": "even"},
    },
    recursion_true=("u'",),
    note="potential Burgers recursion operator (purely local)",
))

_register(CorpusEntry(
    name="counterexample",
    operator_json={
        "local": [["u''", 0]],
        "nonlocal": [["-1", "u'''"]],
        "grading": {"u": "even"},
    },
    expect_hereditary=True,
    expect_integrable=False,
    recursion_true=("1", "u'"),
    recursion_false=("u''",),
    note="hereditary but not integrable; its tail slot is not a variational "
         "derivative",
))


def builtin_names() -> List[str]:
    return sorted(ENTRIES)


def load_operator(spec: str) -> Tuple[NonlocalOp, Grading]:
    """Resolve --op arguments: a JSON file path or a builtin corpus name.

    An existing path is always read as a file.  Only a bare builtin name (no
    directory part, no ``.json``) resolves to a builtin, so a mistyped path
    is an error, never a builtin's verdict.  A file may also hold what
    ``diffalg power`` prints (``schema.document_from_json``).
    """
    if os.path.exists(spec):
        with open(spec) as fh:
            return document_from_json(json.load(fh))
    if spec in ENTRIES:
        return ENTRIES[spec].load()
    raise FileNotFoundError(
        f"no such operator file or builtin: {spec!r}; builtins: "
        + ", ".join(builtin_names()))

