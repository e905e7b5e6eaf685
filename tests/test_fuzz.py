"""Seeded fuzz of the dataset reader: mutated lines of small JSONL files.

Each case mutates one line of a small scene file or document file: it drops
a key, gives a value another type, edits a base64 character or a shape,
truncates the line, or nests a value deeply. `read_jsonl` must then either
raise `ValidationError` naming the file and that line (`<path>:<line>: `),
or return one valid instance per line: every other line as in the clean
read, and the mutated line as the checked constructors accept it, and as
it reads alone. A mutation may leave a line valid but different (an edited
float, a dropped optional key). No other exception may escape.

The mutations come from seeded `random`, so every run checks the same cases.
"""

import json
import random

import numpy as np
import pytest

from fanet.attention import EntitySet
from fanet.matrices import ValidationError
from fanet.synthgen import (
    Instance,
    default_document_spec,
    default_world_spec,
    generate_dataset,
    load_spec,
    read_jsonl,
    write_jsonl,
)

CASES = 250  # per file; ~0.5 s each on a 2-core x86-64 VM
DEEP = "@@deep@@"  # a placeholder string that no line holds (not base64)
NESTINGS = [
    "[" * 40 + "]" * 40,
    "[" * 3000 + "]" * 3000,
    "[" * 100000,
    '{"a": ' * 2000 + "1" + "}" * 2000,
]
OTHER_TYPES = [None, True, False, 0, -1, 7, 2**70, 1.5, float("nan"), "x", "", [], [1, 2], {}, {"a": 1}]

FILES = {
    "scene": lambda: generate_dataset(default_world_spec(), 4, 1, seed=11)[0],
    "document": lambda: generate_dataset(
        load_spec({**default_document_spec().to_dict(), "tokens_min": 5, "tokens_max": 8}), 4, 1, seed=11
    )[0],
}


def _nodes(node, found=None):
    """Every (container, key) pair below `node`, depth first."""
    found = [] if found is None else found
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        found.append((node, key))
        _nodes(value, found)
    return found


def _arrays(node):
    """The encoded array objects below `node`."""
    return [c[k] for c, k in _nodes(node) if isinstance(c[k], dict) and {"shape", "data"} <= set(c[k])]


def _mutate(line: str, rng: random.Random) -> tuple:
    """(kind, mutated line) of one seeded mutation of a JSONL line."""
    d = json.loads(line)
    kind = rng.choice(["drop_key", "swap_type", "base64_char", "shape", "truncate", "nest"])
    if kind == "truncate":
        return kind, line[: rng.randrange(1, len(line))]
    if kind == "drop_key":
        container, key = rng.choice([(c, k) for c, k in _nodes(d) if isinstance(c, dict)])
        del container[key]
    elif kind == "swap_type":
        container, key = rng.choice(_nodes(d))
        container[key] = rng.choice([v for v in OTHER_TYPES if type(v) is not type(container[key])])
    elif kind == "base64_char":
        array = rng.choice(_arrays(d))
        data = array["data"]
        at = rng.randrange(len(data)) if data else 0
        char = rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=!-é ")
        array["data"] = data[:at] + char + data[at + 1:]
    elif kind == "shape":
        shape = rng.choice(_arrays(d))["shape"]
        edit = rng.choice(["plus", "minus", "zero", "negative", "huge", "append", "drop"])
        at = rng.randrange(len(shape))
        if edit == "append":
            shape.append(1)
        elif edit == "drop":
            del shape[at]
        else:
            shape[at] = {"plus": shape[at] + 1, "minus": shape[at] - 1, "zero": 0,
                         "negative": -1, "huge": 2**40}[edit]
    else:  # nest
        container, key = rng.choice(_nodes(d))
        container[key] = DEEP
        return kind, json.dumps(d).replace(json.dumps(DEEP), rng.choice(NESTINGS))
    return kind, json.dumps(d)


def _fields(inst):
    """An instance as comparable values: each array's dtype, shape and bytes."""
    def bits(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    e = inst.entities
    return (bits(e.features), bits(e.categories), bits(e.boxes), bits(inst.target),
            bits(np.asarray(inst.relations)), inst.label, inst.labeled, inst.tokens, inst.tags)


def _checked(inst):
    """`inst` rebuilt through the constructors' checks."""
    e = inst.entities
    return Instance(EntitySet(e.features, e.categories, e.boxes), inst.target, inst.label,
                    inst.relations, inst.tokens, inst.tags)


@pytest.mark.parametrize("name", sorted(FILES))
def test_mutated_line_reads_or_is_named(tmp_path, name):
    clean_path = tmp_path / "clean.jsonl"
    write_jsonl(clean_path, FILES[name]())
    lines = clean_path.read_text().splitlines()
    clean = [_fields(inst) for inst in read_jsonl(clean_path)]
    rng = random.Random(f"fuzz-{name}")
    path, alone = tmp_path / "mutated.jsonl", tmp_path / "alone.jsonl"
    faults = []
    for case in range(CASES):
        index = rng.randrange(len(lines))
        kind, mutated = _mutate(lines[index], rng)
        path.write_text("\n".join([*lines[:index], mutated, *lines[index + 1:]]) + "\n")
        where = f"case {case} ({kind}, line {index + 1}): {mutated[:120]}"
        try:
            got = read_jsonl(path)
        except ValidationError as exc:
            if not str(exc).startswith(f"{path}:{index + 1}: "):
                faults.append(f"{where}: names the wrong place: {exc}")
            continue
        except Exception as exc:  # the fault this test looks for
            faults.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        got_fields = [_fields(inst) for inst in got]
        if got_fields[:index] + got_fields[index + 1:] != clean[:index] + clean[index + 1:]:
            faults.append(f"{where}: an unmutated line reads differently")
            continue
        alone.write_text(mutated + "\n")
        try:
            ok = _fields(_checked(got[index])) == got_fields[index] == _fields(read_jsonl(alone)[0])
        except Exception as exc:
            faults.append(f"{where}: the read line is not valid alone: {type(exc).__name__}: {exc}")
            continue
        if not ok:
            faults.append(f"{where}: the line reads differently alone or rebuilt")
    assert not faults, "\n".join(faults[:10])
