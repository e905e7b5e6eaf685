"""The dataset cache: `write_jsonl` leaves `<path>.cache` beside each JSONL
file, and `read_jsonl` reads it in place of its first pass over the lines.

A read through the cache gives exactly what the JSONL file alone gives:
every array's dtype, shape, bytes and writeable flag, and every other field.
A cache that is missing, stale, damaged or fails a check is passed over, and
the read, or its error message, is the JSONL file's own.
"""

import json
import os
import shutil
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from fanet import synthgen
from fanet.attention import EntitySet
from fanet.cli import EXIT_OK, main
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
from fanet.synthgen import _cache_path, _unchecked


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes(), a.flags.writeable)


def fields(inst):
    """An instance as comparable values: each array's dtype, shape, bytes and
    writeable flag, and its other fields with their types."""
    e = inst.entities
    return (_bits(e.features), _bits(e.categories), _bits(e.boxes), _bits(inst.target),
            _bits(inst.relations), type(inst.label), inst.label, inst.labeled, inst.tokens, inst.tags)


def outcome(path):
    """What `read_jsonl` gives for path: each instance's fields, or the error message."""
    try:
        return [fields(inst) for inst in read_jsonl(path)]
    except ValidationError as exc:
        return str(exc)


def alone(path):
    """`outcome(path)` with the cache beside path moved away for the read."""
    cache = Path(_cache_path(path))
    hidden = cache.with_name(cache.name + ".hidden")
    cache.rename(hidden)
    try:
        return outcome(path)
    finally:
        hidden.rename(cache)


@pytest.fixture
def parsed_lines(monkeypatch):
    """A list that counts the reader's `_parse_line` calls: one per line its first pass reads."""
    calls = []
    parse = synthgen._parse_line

    def counting(d):
        calls.append(1)
        return parse(d)

    monkeypatch.setattr(synthgen, "_parse_line", counting)
    return calls


def _scenes(seed, n=12, **overrides):
    spec = {**default_world_spec().to_dict(), "entities_min": 3, "entities_max": 9, **overrides}
    return generate_dataset(load_spec(spec), n, 1, seed)[0]


def _documents(seed, n=12):
    spec = {**default_document_spec().to_dict(), "tokens_min": 2, "tokens_max": 12}
    return generate_dataset(load_spec(spec), n, 1, seed)[0]


def _hand_built():
    """Instances the generators do not make: listed relations that differ
    from the target, no boxes, no categories, tokens and tags on a scene,
    tokens without tags, one entity, and a target with no pair."""
    rng = np.random.default_rng(7)
    scenes = _scenes(5, 6)
    out = []
    for k, inst in enumerate(scenes):
        e = inst.entities
        out.append(Instance(e, inst.target, inst.label, ((0, inst.n - 1), (inst.n - 1, 1))))
        out.append(Instance(EntitySet(e.features, e.categories), inst.target, inst.label, inst.relations))
        out.append(Instance(EntitySet(e.features, None, e.boxes), inst.target, k))
        words = tuple(f"w{i}é" for i in range(inst.n))
        out.append(Instance(e, inst.target, inst.label, inst.relations, words, words[::-1]))
        out.append(Instance(EntitySet(e.features), inst.target, 0, (), words))
    out.append(Instance(EntitySet(rng.normal(size=(1, 3))), np.zeros((1, 1)), 2))
    out.append(Instance(EntitySet(rng.normal(size=(4, 2))), np.zeros((4, 4)), 0, ((1, 2),)))
    return out


DATASETS = {
    **{f"scenes-{seed}": (lambda seed=seed: _scenes(seed)) for seed in (0, 1, 2)},
    **{f"documents-{seed}": (lambda seed=seed: _documents(seed)) for seed in (0, 1, 2)},
    "scenes-300": lambda: _scenes(3, 3, entities_min=300, entities_max=300),
    "hand-built": _hand_built,
    "empty": lambda: [],
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_cached_read_equals_the_jsonl_read(tmp_path, parsed_lines, name):
    want = DATASETS[name]()
    p = tmp_path / "data.jsonl"
    write_jsonl(p, want)
    assert sorted(os.listdir(tmp_path)) == ["data.jsonl", "data.jsonl.cache"]
    cached = outcome(p)
    assert parsed_lines == []  # the cache stood in for the first pass
    assert cached == alone(p)
    assert len(parsed_lines) == len(want)
    assert cached == [fields(Instance(i.entities, i.target, i.label, i.relations, i.tokens, i.tags))
                      for i in read_jsonl(p)]  # each passes the constructors' checks


def test_edited_line_takes_the_first_pass(tmp_path, parsed_lines):
    p = tmp_path / "data.jsonl"
    write_jsonl(p, _scenes(0))
    lines = p.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace('"label": ', '"label": 1', 1)
    p.write_text("".join(lines))
    got = outcome(p)
    assert len(parsed_lines) == len(lines)
    assert got == alone(p) and got[3][6] > 9


def _edit_features(line: str) -> str:
    """The line with one base64 character of its features changed: same length."""
    at = line.index('"data": "') + len('"data": "') + 5
    return line[:at] + ("B" if line[at] != "B" else "C") + line[at + 1:]


JSONL_EDITS = {
    "same_length": lambda lines: lines.__setitem__(2, _edit_features(lines[2])),
    "longer_valid": lambda lines: lines.__setitem__(2, lines[2].replace('"label": ', '"label": 3', 1)),
    "longer_invalid": lambda lines: lines.__setitem__(4, lines[4].replace('"label": ', '"label": -1', 1)),
    "line_dropped": lambda lines: lines.pop(1),
    "line_added": lambda lines: lines.append(lines[0]),
}


@pytest.mark.parametrize("edit", sorted(JSONL_EDITS))
def test_edited_jsonl_reads_as_alone(tmp_path, edit):
    p = tmp_path / "data.jsonl"
    write_jsonl(p, _scenes(1))
    lines = p.read_text().splitlines(keepends=True)
    JSONL_EDITS[edit](lines)
    p.write_text("".join(lines))
    got = outcome(p)
    assert got == alone(p)
    if edit == "longer_invalid":
        assert got.startswith(f"{p}:5: label must be >= 0")


def _rebind(cache: Path, jsonl: Path) -> None:
    """Point the cache's first line at jsonl's bytes, keeping the rest."""
    prelude, rest = cache.read_bytes().split(b"\n", 1)
    d = json.loads(prelude)
    d["sha256"] = synthgen._sha256(jsonl)
    cache.write_bytes(json.dumps(d).encode() + b"\n" + rest)


def _other_file(tmp_path, instances):
    q = tmp_path / "other" / "data.jsonl"
    q.parent.mkdir()
    write_jsonl(q, instances)
    return Path(_cache_path(q))


def _nonfinite(inst):
    e = inst.entities
    features = e.features.copy()
    features[0, 0] = np.nan
    return _unchecked(Instance, **{**inst.__dict__, "entities": _unchecked(
        EntitySet, features=features, categories=e.categories, boxes=e.boxes)})


# each damages the cache of data.jsonl in tmp_path, written from _scenes(2)
CACHE_FAULTS = {
    "missing": lambda p, c, tmp: c.unlink(),
    "empty": lambda p, c, tmp: c.write_bytes(b""),
    "truncated_prelude": lambda p, c, tmp: c.write_bytes(c.read_bytes()[:40]),
    "truncated_header": lambda p, c, tmp: c.write_bytes(c.read_bytes()[:c.read_bytes().index(b"\n") + 30]),
    "truncated_blob": lambda p, c, tmp: c.write_bytes(c.read_bytes()[:-100]),
    "last_byte_cut": lambda p, c, tmp: c.write_bytes(c.read_bytes()[:-1]),
    "byte_appended": lambda p, c, tmp: c.write_bytes(c.read_bytes() + b"\0"),
    "bit_flipped_in_blob": lambda p, c, tmp: _flip(c, -200),
    "bit_flipped_in_header": lambda p, c, tmp: _flip(c, c.read_bytes().index(b"\n") + 20),
    "bit_flipped_in_sha256": lambda p, c, tmp: _flip(c, c.read_bytes().index(b'"sha256": "') + 14),
    "other_version": lambda p, c, tmp: c.write_bytes(c.read_bytes().replace(b'"version": 1', b'"version": 2', 1)),
    "copied_from_another_file": lambda p, c, tmp: shutil.copy(_other_file(tmp, _scenes(3)), c),
    "arrays_fail_check_group": lambda p, c, tmp: (
        shutil.copy(_other_file(tmp, [_nonfinite(i) for i in _scenes(2)]), c), _rebind(c, p)),
    "a_directory": lambda p, c, tmp: (c.unlink(), c.mkdir()),
    # sealed: the checksum is recomputed, so only the reader's checks find these
    "relation_pair_not_distinct": lambda p, c, tmp: _sealed_edit(
        c, lambda h: h["groups"][0]["relations"].__setitem__(0, [[1, 1]])),
    "label_not_an_int": lambda p, c, tmp: _sealed_edit(
        c, lambda h: h["groups"][0]["labels"].__setitem__(0, True)),
    "label_negative": lambda p, c, tmp: _sealed_edit(
        c, lambda h: h["groups"][0]["labels"].__setitem__(0, -1)),
    "group_count_off": lambda p, c, tmp: _sealed_edit(c, lambda h: h["order"].pop()),
    "group_out_of_range": lambda p, c, tmp: _sealed_edit(
        c, lambda h: h["order"].__setitem__(0, len(h["groups"]))),
    "entity_count_off": lambda p, c, tmp: _sealed_edit(
        c, lambda h: h["groups"][0].__setitem__("n", h["groups"][0]["n"] + 1)),
    "boxes_dropped": lambda p, c, tmp: _sealed_edit(
        c, lambda h: h["groups"][0].__setitem__("boxes", False)),
    "string_table_of_a_number": lambda p, c, tmp: _sealed_edit(c, lambda h: h.__setitem__("strings", [7])),
    "padding_bit_set": lambda p, c, tmp: _sealed_edit(c, blob=_set_padding_bit),
    "bytes_appended_sealed": lambda p, c, tmp: _sealed_edit(c, blob=lambda h, b: b.extend(bytes(8))),
}


def _sealed_edit(cache: Path, header=lambda h: None, blob=lambda h, b: None) -> None:
    """Edit the cache's header (a JSON object) and bytes in place, and seal it
    again: its checksum is recomputed, as if `write_jsonl` had written it."""
    prelude, head, rest = cache.read_bytes().split(b"\n", 2)
    h, b = json.loads(head), bytearray(rest)
    header(h)
    blob(h, b)
    rest = json.dumps(h).encode() + b"\n" + bytes(b)
    d = json.loads(prelude)
    d["crc32"] = zlib.crc32(rest)
    cache.write_bytes(json.dumps(d).encode() + b"\n" + rest)


def _set_padding_bit(h, b):
    """Set the lowest bit of the first line's last packed byte, a padding bit."""
    n = h["groups"][0]["n"]
    m = n * (n - 1) // 2
    assert m % 8
    b[(m + 7) // 8 - 1] |= 1


def _flip(path: Path, at: int) -> None:
    data = bytearray(path.read_bytes())
    data[at] ^= 0x10
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("fault", sorted(CACHE_FAULTS))
def test_damaged_cache_reads_as_the_jsonl_alone(tmp_path, parsed_lines, fault):
    p = tmp_path / "data.jsonl"
    want = _scenes(2)
    write_jsonl(p, want)
    plain = tmp_path / "plain.jsonl"
    shutil.copy(p, plain)  # no cache beside it
    cache = Path(_cache_path(p))
    CACHE_FAULTS[fault](p, cache, tmp_path)
    assert outcome(p) == outcome(plain)
    assert len(parsed_lines) == 2 * len(want)  # the damaged cache was passed over


@pytest.mark.parametrize("fault", ["stale", "arrays_fail_check_group", "bit_flipped_in_blob"])
def test_passed_over_cache_and_bad_line_name_the_line(tmp_path, fault):
    """The error is the JSONL file's own, naming its line, never the cache."""
    p = tmp_path / "data.jsonl"
    write_jsonl(p, _scenes(2))
    lines = p.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace('"label": ', '"label": -1', 1)
    p.write_text("".join(lines))
    cache = Path(_cache_path(p))
    if fault != "stale":
        CACHE_FAULTS[fault](p, cache, tmp_path)
        _rebind(cache, p)  # it claims the edited file: only its own fault gives it away
    with pytest.raises(ValidationError) as info:
        read_jsonl(p)
    assert str(info.value).startswith(f"{p}:6: label must be >= 0") and ".cache" not in str(info.value)


def test_string_index_past_the_table(tmp_path, parsed_lines):
    p = tmp_path / "data.jsonl"
    want = _documents(5)
    write_jsonl(p, want)
    _sealed_edit(Path(_cache_path(p)), lambda h: h["strings"].pop())
    assert outcome(p) == alone(p)
    assert len(parsed_lines) == 2 * len(want)


def test_a_missing_jsonl_file_is_named_even_with_a_cache(tmp_path):
    p = tmp_path / "data.jsonl"
    write_jsonl(p, _scenes(0))
    p.unlink()
    with pytest.raises(ValidationError, match=f"^{p}: file not found$"):
        read_jsonl(p)


def test_a_failed_write_keeps_the_old_pair(tmp_path):
    p = tmp_path / "data.jsonl"
    write_jsonl(p, _scenes(0))
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    with pytest.raises(AttributeError):
        write_jsonl(p, [*_scenes(1), object()])  # raises part-way, at its last line
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_a_failed_cache_write_leaves_a_stale_cache(tmp_path, monkeypatch):
    """The JSONL file is replaced first; when the cache write then fails, the
    old cache stays beside it and no longer matches, so the read is the new file's."""
    p = tmp_path / "data.jsonl"
    write_jsonl(p, _scenes(0))
    old_cache = Path(_cache_path(p)).read_bytes()

    def fail(self, fh, sha256):
        fh.write(b"partial")
        raise RuntimeError("disk full")

    monkeypatch.setattr(synthgen._Cache, "write", fail)
    new = _scenes(1)
    with pytest.raises(RuntimeError):
        write_jsonl(p, new)
    assert sorted(os.listdir(tmp_path)) == ["data.jsonl", "data.jsonl.cache"]
    assert Path(_cache_path(p)).read_bytes() == old_cache
    assert outcome(p) == alone(p) == [fields(i) for i in read_jsonl(p)]
    assert [fields(i)[6] for i in read_jsonl(p)] == [i.label for i in new]


def test_rewriting_the_same_instances_writes_the_same_bytes(tmp_path):
    instances = _hand_built() + _documents(4)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(a, instances)
    write_jsonl(b, read_jsonl(a))
    assert a.read_bytes() == b.read_bytes()
    assert Path(_cache_path(a)).read_bytes() == Path(_cache_path(b)).read_bytes()


def test_commands_read_past_a_damaged_cache_and_write_none(tmp_path, capsys):
    """`train` and `eval` read a cache but never write one: a damaged cache
    changes no output, and a split without a cache keeps none."""
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", "--out", str(data), "--n-train", "8", "--n-test", "4", "--seed", "0"]) == EXIT_OK
    (data / "train.jsonl.cache").unlink()
    assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "1", "--seed", "0"]) == EXIT_OK

    def evaluate(out):
        argv = ["eval", "--checkpoint", str(run / "checkpoint.json"), "--data", str(data / "test.jsonl"),
                "--out", str(tmp_path / out)]
        assert main(argv) == EXIT_OK
        return (tmp_path / out / "metrics.csv").read_bytes()

    want = evaluate("intact")
    cache = data / "test.jsonl.cache"
    cache.write_bytes(cache.read_bytes()[:-1])
    assert evaluate("damaged") == want
    assert sorted(os.listdir(data)) == ["manifest.json", "test.jsonl", "test.jsonl.cache", "train.jsonl"]
    assert "cache" not in capsys.readouterr().err


def test_cached_read_of_16_scenes_of_300_entities_fits_the_jsonl_bounds(tmp_path, parsed_lines):
    """tests/test_synthgen.py's TestMaskMemory bounds the first pass's read of
    these scenes (held <= 5 MB, peak <= 9 MB); the cached read fits them too."""
    spec = {**default_world_spec().to_dict(), "entities_min": 300, "entities_max": 300}
    p = tmp_path / "scenes.jsonl"
    write_jsonl(p, generate_dataset(load_spec(spec), 16, 1, seed=0)[0])
    tracemalloc.start()
    try:
        got = read_jsonl(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 5_000_000, held
    assert peak <= 9_000_000, peak
    assert len(got) == 16 and parsed_lines == []
