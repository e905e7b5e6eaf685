"""Synthetic benchmark worlds with known pairwise relations.

Both worlds have one shape: n items with a feature row each, and label pairs
of items. Label k + 1 goes to an instance that holds both items of pair k
(the lowest such pair wins, label 0 when none is complete); an item is in at
most one label pair and filler items are in none, so the label is a function
of the drawn items. An instance draws between a minimum and a maximum count
of items (at most MAX_ITEMS), and its features are the items' rows plus
Gaussian noise.

In a vision world (`WorldSpec`) the items are entity categories with
prototype rows and the label pairs are "signature" pairs. Boxes are disjoint
unit squares on a grid, so box matching during evaluation is exact (IoU is 1
against the entity's own ground-truth box and 0 otherwise), and the relation
target marks every entity pair whose categories are affine.

In a document world (`DocumentSpec`) the items are tokens with embedding
rows and the label pairs are "keyword" pairs; the relation target comes from
a lexical pair table over the tokens' tags.

Both specs read and write JSON through the field reader and writer in
`matrices`: a field without a default is required, and the only JSON key
that differs from its field is `pair_table`.

Draw order inside one instance is fixed (label, item fills, permutation,
feature noise) and all randomness is Philox-keyed, so a given (spec, seed)
pair always produces the identical instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .attention import EntitySet
from .losses import _check_target, validate_target
from .matrices import _NO_PAIRS, ValidationError, _check_boxes, _decode_payload, _encode_bytes
from .matrices import _from_json, _index_pairs, _json_dict, _upper_cells, _write_whole
from .matrices import as_matrix, check_finite
from .seeding import STREAM_INSTANCE, _rekeyed, instance_seed, stream_rng
from .supervision import LexicalPairTable, build_language_target

__all__ = [
    "WorldSpec",
    "DocumentSpec",
    "Instance",
    "generate_instance",
    "generate_document_instance",
    "generate_dataset",
    "label_distribution",
    "default_world_spec",
    "default_document_spec",
    "write_jsonl",
    "read_jsonl",
    "load_spec",
    "DATASET_FORMAT",
    "DATASET_VERSION",
    "MAX_ITEMS",
]


def _set_pairs(spec, field: str, n: int) -> None:
    """Check spec.<field> as index pairs below n; store it as a tuple of int tuples."""
    pairs = _index_pairs(getattr(spec, field), n, field)
    object.__setattr__(spec, field, tuple(map(tuple, pairs.tolist())))


def _spec_matrix(raw, field: str) -> np.ndarray:
    """A spec's prototypes or embeddings as float64.

    A JSON true or false is rejected on the list, because numpy reads true as
    1.0; the shape is left to the spec, so `[]` fails its matrix check.
    """
    try:
        m = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{field}: not a numeric matrix ({exc})") from exc
    if m.ndim == 2 and isinstance(raw, list):
        bad = next((x for row in raw for x in row if type(x) is bool), None)
        if bad is not None:
            raise ValidationError(f"{field}: expected a real number, got {bad!r}")
    return m


def _pair_table(raw, field: str) -> LexicalPairTable:
    """A document spec's pair table, from a list of two-string tag pairs."""
    if not isinstance(raw, list):
        raise ValidationError(f"{field}: expected a list of tag pairs, got {raw!r}")
    table = LexicalPairTable()
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2 and {*map(type, pair)} == {str}):
            raise ValidationError(f"{field}: expected tag pairs, got {pair!r}")
        table.add(*pair)
    return table


MAX_ITEMS = 4096  # items per instance; the n x n bool target then takes <= 16 MB


class _World:
    """What both spec kinds share; the module docstring states the rules.

    A subclass is a frozen dataclass with an `n_items` property and three
    class attributes: `kind`, its JSON tag; `_pairs`, the field of its label
    pairs; and `_count`, the prefix of its `_min`/`_max` item count fields.
    `json_keys` and `json_readers` tell `matrices._from_json` how to read one.
    """

    json_keys = {"table": "pair_table"}
    json_readers = {"np.ndarray": _spec_matrix, "LexicalPairTable": _pair_table}

    def _check_world(self, n: int) -> None:
        """The shared rules, for n items."""
        _set_pairs(self, self._pairs, n)
        used = [i for pair in self._label_pairs for i in pair]
        if len(set(used)) != len(used):
            raise ValidationError(f"{self._pairs}: an item may be in at most one pair")
        if not self.fillers:
            raise ValidationError(f"{self._pairs}: need at least one item outside all pairs")
        sigma = self.noise_sigma
        if not (math.isfinite(sigma) and sigma >= 0):  # NaN >= 0 is false too
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {sigma}")
        lo, hi = f"{self._count}_min", f"{self._count}_max"
        low, high = getattr(self, lo), getattr(self, hi)
        if not 2 <= low <= high:
            raise ValidationError(f"need 2 <= {lo} <= {hi}, got {low}..{high}")
        if high > MAX_ITEMS:
            raise ValidationError(f"{hi}: expected at most {MAX_ITEMS}, got {high}")

    @property
    def _label_pairs(self) -> tuple:
        return getattr(self, self._pairs)

    @property
    def n_labels(self) -> int:
        """Label alphabet size (label 0 plus one per label pair)."""
        return len(self._label_pairs) + 1

    @property
    def fillers(self) -> tuple:
        """The items in no label pair, in index order."""
        used = {i for pair in self._label_pairs for i in pair}
        return tuple(i for i in range(self.n_items) if i not in used)

    def label_of(self, items: Sequence[int]) -> int:
        """Label implied by a multiset of items (lowest complete pair wins)."""
        present = set(items)
        for k, (a, b) in enumerate(self._label_pairs):
            if a in present and b in present:
                return k + 1
        return 0

    def to_dict(self) -> dict:
        return {"kind": self.kind, **_json_dict(self)}

    @classmethod
    def from_dict(cls, d: dict):
        """The spec of a JSON dict; a missing "kind" reads as "vision"."""
        kind = d.get("kind", "vision")
        if kind != cls.kind:
            raise ValidationError(f"kind: expected {cls.kind!r}, got {kind!r}")
        return _from_json(cls, {k: v for k, v in d.items() if k != "kind"})


@dataclass(frozen=True)
class WorldSpec(_World):
    """Vision-style world: categories with prototypes, affinity, scene labels.

    `signature_pairs[k]` defines scene label k+1; label 0 means "no signature
    pair present". `affine_pairs` lists all related category pairs (targets and
    ground-truth relations are derived from it) and holds every signature.
    """

    kind = "vision"
    _pairs = "signature_pairs"
    _count = "entities"

    prototypes: np.ndarray                     # (n_categories, embed_dim)
    affine_pairs: tuple                        # ((a, b), ...) category pairs
    signature_pairs: tuple                     # ((a, b), ...), one per nonzero label
    noise_sigma: float = 0.25
    entities_min: int = 6
    entities_max: int = 8

    def __post_init__(self):
        proto = as_matrix(self.prototypes, name="prototypes")
        object.__setattr__(self, "prototypes", proto)
        _set_pairs(self, "affine_pairs", proto.shape[0])
        self._check_world(proto.shape[0])
        affine = {frozenset(p) for p in self.affine_pairs}
        missing = next((p for p in self.signature_pairs if frozenset(p) not in affine), None)
        if missing:
            raise ValidationError(f"signature_pairs: {missing!r} missing from affine_pairs")

    @property
    def n_categories(self) -> int:
        return self.prototypes.shape[0]

    n_items = n_categories

    @property
    def embed_dim(self) -> int:
        return self.prototypes.shape[1]


@dataclass(frozen=True)
class DocumentSpec(_World):
    """Language-style world: token lexicon with tags, embeddings, pair table.

    `keyword_pairs[k]` (token index pairs) defines label k+1 the same way
    signature pairs do for scenes. Relation targets come from `table` applied
    to the token tags, so they may also connect filler tokens.
    """

    kind = "document"
    _pairs = "keyword_pairs"
    _count = "tokens"

    tokens: tuple                              # token strings
    tags: tuple                                # one tag per token
    embeddings: np.ndarray                     # (n_tokens, embed_dim)
    table: LexicalPairTable
    keyword_pairs: tuple                       # ((i, j), ...) token index pairs
    noise_sigma: float = 0.1
    tokens_min: int = 6
    tokens_max: int = 9

    def __post_init__(self):
        emb = as_matrix(self.embeddings, name="embeddings")
        object.__setattr__(self, "embeddings", emb)
        for name in ("tokens", "tags"):
            raw = getattr(self, name)
            if isinstance(raw, (list, tuple)):
                bad = next((f"entry {t!r}" for t in raw if type(t) is not str), None)
            else:
                bad = repr(raw)
            if bad:
                raise ValidationError(f"{name}: expected a list of strings, got {bad}")
            object.__setattr__(self, name, tuple(raw))
        n = len(self.tokens)
        if len(set(self.tokens)) != n:
            raise ValidationError("tokens: duplicate token strings")
        if len(self.tags) != n:
            raise ValidationError(
                f"tags: expected {n} entries to match tokens, got {len(self.tags)}"
            )
        if emb.shape[0] != n:
            raise ValidationError(
                f"embeddings: expected {n} rows to match tokens, got {emb.shape[0]}"
            )
        unknown = sorted(set(self.tags) - self.table.categories)
        if unknown:
            raise ValidationError(f"tags: {unknown} not present in the pair table")
        self._check_world(n)

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    n_items = n_tokens

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class Instance:
    """One supervised example: entities, relation target, class label.

    Vision-style instances carry boxes and ground-truth `relations`, a
    read-only (m, 2) int64 array of entity-index pairs, each two distinct
    ints in [0, n) (`gt_relations` gives them as tuples); document instances
    carry tokens and tags instead, each None or n strings, kept as a tuple.
    `target` is the supervision matrix as a
    read-only bool (n, n) mask, checked here once with `validate_target`'s
    checks (square, zero diagonal, and a target of another dtype finite and
    exactly 0 or 1 before it becomes a mask); `labeled` records whether it
    labels any pair. The mask is the instance's own copy, as are its
    entities' arrays. Generated and read instances skip these checks and
    copies: they pass the checks by construction or once per group, and no
    caller holds their arrays.
    """

    entities: EntitySet
    target: np.ndarray
    label: int
    relations: np.ndarray = ()
    tokens: Optional[tuple] = None
    tags: Optional[tuple] = None
    labeled: bool = field(init=False)

    def __post_init__(self):
        t, nonzero = _check_target(self.target)
        t = t.copy()  # a bool mask is checked in place, as a view of the caller's array
        t.flags.writeable = False
        object.__setattr__(self, "target", t)
        if t.shape != (self.entities.n, self.entities.n):
            raise ValidationError(
                f"target: expected {(self.entities.n,) * 2}, got {t.shape}"
            )
        if self.label < 0:
            raise ValidationError(f"label must be >= 0, got {self.label}")
        object.__setattr__(self, "relations", _index_pairs(self.relations, self.n, "relations"))
        for name in ("tokens", "tags"):
            object.__setattr__(self, name, _strings(getattr(self, name), self.n, name))
        object.__setattr__(self, "labeled", bool(nonzero))

    @property
    def n(self) -> int:
        return self.entities.n

    @property
    def gt_relations(self) -> tuple:
        """`relations` as a tuple of (int, int) tuples, in order, built on each read."""
        return tuple(map(tuple, self.relations.tolist()))


def _grid_boxes(n: int) -> np.ndarray:
    """Disjoint unit squares laid out on a square-ish grid, (n, 4) C-contiguous."""
    cols = int(np.ceil(np.sqrt(n)))
    r, c = np.divmod(np.arange(n), cols)
    return np.ascontiguousarray(np.array((c, r, c + 1, r + 1), dtype=np.float64).T)


def _affinity_table(affine_pairs, n_categories: int) -> np.ndarray:
    """(n_categories, n_categories) bool: True where two categories are affine."""
    table = np.zeros((n_categories, n_categories), dtype=bool)
    for a, b in affine_pairs:
        table[a, b] = table[b, a] = True
    return table


def _affinity_target(categories: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The read-only bool mask of the entity pairs whose categories are
    affine in `_affinity_table`'s table."""
    t = table.take(categories, 0).take(categories, 1)  # two takes beat one 2-D gather
    t.flags.writeable = False
    return t


def _upper_pairs(t: np.ndarray) -> np.ndarray:
    """The True cells (i, j) of the bool mask t with i < j, in `_upper_cells`'
    row-major order, as a read-only (m, 2) int64 array: the form of
    Instance.relations."""
    upper, _ = _upper_cells(len(t))
    cells = upper[t.ravel()[upper]]
    pairs = np.array(divmod(cells, len(t))).T  # ~2x faster than np.stack at n <= 8
    pairs.flags.writeable = False
    return pairs


# Generated instances are built without the EntitySet and Instance checks.
# What they check cannot fail by construction: the targets are symmetric
# read-only bool masks with a zero diagonal (the affinity table has no self
# pair; document targets have their diagonal zeroed), the boxes are grid
# squares, the categories int64 and every array has n rows. Two checks stay, because
# generated values can fail them: features are finite (a huge noise_sigma or
# prototype overflows) and the drawn label is the one the spec's rule derives.


def _draw_entities(rng, spec, lo: int, hi: int, fillers: np.ndarray):
    """Label, then entity count, filler fills and permutation; returns (label,
    the entities' ids in order, the ids as a list). Draw order is part of the
    format. The label must be the one the spec's rule derives from the ids."""
    label = int(rng.integers(0, spec.n_labels))
    n = int(rng.integers(lo, hi + 1))
    ids = np.empty(n, dtype=np.int64)
    start = 0
    if label > 0:
        ids[:2] = spec._label_pairs[label - 1]
        start = 2
    ids[start:] = fillers[rng.integers(0, len(fillers), size=n - start)]
    ids = ids[rng.permutation(n)]
    drawn = ids.tolist()
    if spec.label_of(drawn) != label:  # guards the spec invariants, not user input
        raise ValidationError(f"{spec.kind} spec breaks the label rule: drew {label}")
    return label, ids, drawn


def _noisy_rows(rng, rows: np.ndarray, ids: np.ndarray, sigma: float) -> np.ndarray:
    """rows[ids] plus sigma times standard normal noise, checked finite."""
    features = rng.standard_normal((len(ids), rows.shape[1]))
    features *= sigma
    features += rows[ids]
    check_finite(features, "features")
    return features


def _scene_drawer(spec: WorldSpec):
    """draw(rng) -> one scene of spec. What every scene shares (the affinity
    table, the filler ids, the grid boxes of each n) is built once here;
    each scene gets its own copy of its boxes."""
    table = _affinity_table(spec.affine_pairs, spec.n_categories)
    fillers = np.asarray(spec.fillers, dtype=np.int64)
    grids: dict = {}

    def draw(rng) -> Instance:
        label, categories, _ = _draw_entities(
            rng, spec, spec.entities_min, spec.entities_max, fillers
        )
        features = _noisy_rows(rng, spec.prototypes, categories, spec.noise_sigma)
        n = len(categories)
        grid = grids.get(n)
        if grid is None:
            grid = grids[n] = _grid_boxes(n)
        target = _affinity_target(categories, table)
        relations = _upper_pairs(target)
        entities = _unchecked(EntitySet, features=features, categories=categories, boxes=grid.copy())
        return _unchecked(
            Instance, entities=entities, target=target, label=label, relations=relations,
            tokens=None, tags=None, labeled=bool(len(relations)),
        )

    return draw


def _document_drawer(spec: DocumentSpec):
    """draw(rng) -> one document of spec. Its filler ids and the pair table
    over its tokens are built once here."""
    fillers = np.asarray(spec.fillers, dtype=np.int64)
    # the rule for every two of the spec's tokens: the off-diagonal block of
    # the target of the tags written twice, so that it keeps its diagonal too
    # (a token drawn twice relates to itself through its tag)
    v = spec.n_tokens
    rule = build_language_target(spec.tags * 2, spec.table)[:v, v:]

    def draw(rng) -> Instance:
        label, token_ids, drawn = _draw_entities(
            rng, spec, spec.tokens_min, spec.tokens_max, fillers
        )
        features = _noisy_rows(rng, spec.embeddings, token_ids, spec.noise_sigma)
        pick = itemgetter(*drawn)  # n >= 2, so pick gives a tuple
        target = rule.take(token_ids, 0).take(token_ids, 1)
        np.fill_diagonal(target, False)
        target.flags.writeable = False
        return _unchecked(
            Instance, entities=_unchecked(EntitySet, features=features, categories=None, boxes=None),
            target=target, label=label, relations=_NO_PAIRS, tokens=pick(spec.tokens),
            tags=pick(spec.tags), labeled=bool(target.any()),
        )

    return draw


def _draw_all(draw, rngs) -> list:
    """draw(rng) for each Generator in rngs. Noise that overflows leaves
    non-finite features, which draw rejects, so numpy need not warn."""
    with np.errstate(over="ignore"):
        return [draw(rng) for rng in rngs]


def generate_instance(spec: WorldSpec, seed: int) -> Instance:
    """One scene drawn from the world; pure function of (spec, seed)."""
    return _draw_all(_scene_drawer(spec), [stream_rng(STREAM_INSTANCE, seed)])[0]


def generate_document_instance(spec: DocumentSpec, seed: int) -> Instance:
    """One tagged token sequence; target comes from the pair table over tags."""
    return _draw_all(_document_drawer(spec), [stream_rng(STREAM_INSTANCE, seed)])[0]


def generate_dataset(spec, n_train: int, n_test: int, seed: int):
    """Train/test splits on disjoint seed streams; returns (train, test).

    Instance i of split s is `generate_instance(spec, instance_seed(seed, s, i))`
    (or the document form), bit for bit. Every instance is drawn from one
    Generator that this call re-keys per instance seed.
    """
    if n_train < 1 or n_test < 1:
        raise ValidationError("n_train and n_test must be >= 1")
    if isinstance(spec, WorldSpec):
        draw = _scene_drawer(spec)
    elif isinstance(spec, DocumentSpec):
        draw = _document_drawer(spec)
    else:
        raise ValidationError(f"spec: expected WorldSpec or DocumentSpec, got {spec!r}")
    seeds = [
        instance_seed(seed, split, i)
        for split, size in ((0, n_train), (1, n_test)) for i in range(size)
    ]
    drawn = _draw_all(draw, _rekeyed(STREAM_INSTANCE, seeds))
    return drawn[:n_train], drawn[n_train:]


def label_distribution(instances) -> dict:
    counts: dict = {}
    for inst in instances:
        counts[inst.label] = counts.get(inst.label, 0) + 1
    return dict(sorted(counts.items()))


def default_world_spec() -> WorldSpec:
    """Bundled 8-category world used by the demos and the benchmark defaults.

    Orthogonal prototypes keep the scene labels linearly separable from mean
    features alone, so classification pressure does not force the attention
    weights anywhere in particular; the relation structure has to come from
    the supervision signal.

    Categories 4 and 5 get prototypes a third the length of the others.
    Relation gradients scale with the squared feature norm, so the (4, 5)
    pair learns an order of magnitude slower and stays hard long after the
    signature pairs have saturated.  That difficulty spread is what makes
    the focusing exponent earn its keep on this benchmark.
    """
    d = 8
    scales = np.full(d, 6.0)
    scales[4] = scales[5] = 2.0
    prototypes = np.diag(scales)
    return WorldSpec(
        prototypes=prototypes,
        # signatures (0,1) and (2,3) define labels 1 and 2; (4,5) is a filler
        # relation that shows up in scenes of every label
        affine_pairs=((0, 1), (2, 3), (4, 5)),
        signature_pairs=((0, 1), (2, 3)),
    )


def default_document_spec() -> DocumentSpec:
    table = LexicalPairTable.default()
    tokens = (
        "engine", "rattles", "loudly", "cold", "valve",
        "gasket", "hums", "warm", "quietly", "pump",
    )
    tags = (
        "noun", "verb", "adverb", "adjective", "noun",
        "noun", "verb", "adjective", "adverb", "noun",
    )
    rng = stream_rng(STREAM_INSTANCE, 0xD0C)
    emb = rng.uniform(-1.0, 1.0, size=(len(tokens), 8))
    return DocumentSpec(
        tokens=tokens,
        tags=tags,
        embeddings=emb,
        table=table,
        keyword_pairs=((0, 1), (5, 6)),  # engine+rattles, gasket+hums
    )


# --- JSONL dataset format ---------------------------------------------------
#
# One self-describing instance per line (version 2):
#   {"format": "fanet-instance", "version": 2,
#    "entities": {"features": <(n, d) "<f8" array>,
#                 "boxes": <(n, 4) "<f8" array> | null,
#                 "categories": [...] | null},
#    "target": <"u1" array>,   np.packbits(t[triu_indices(n, 1)] == 1): row-major
#                              pairs, first pair in the top bit, zero padding bits
#    "gt_relations": [[a, b], ...],   omitted when equal to the target's upper pairs
#    "label": int,
#    "tokens": [...], "tags": [...]}     document instances only
# Arrays use `matrices._encode_array`. A line without "format"/"version" is
# version 1, which is no longer read: the reader names its line and asks for
# the data to be regenerated with `fanet gen`.

DATASET_FORMAT = "fanet-instance"
DATASET_VERSION = 2


def _instance_line(inst: Instance) -> tuple:
    """(the JSON object of inst's line, the raw bytes of its packed target,
    features and boxes, b"" without boxes): the cache reuses the bytes."""
    ent, n, r = inst.entities, inst.n, inst.relations
    cells = _upper_cells(n)[0]
    upper = inst.target.ravel()[cells]
    raw = (
        np.packbits(upper).tobytes(),
        np.ascontiguousarray(ent.features, "<f8").tobytes(),
        b"" if ent.boxes is None else np.ascontiguousarray(ent.boxes, "<f8").tobytes(),
    )
    d = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "entities": {
            "features": _encode_bytes(raw[1], ent.features.shape),
            "boxes": None if ent.boxes is None else _encode_bytes(raw[2], ent.boxes.shape),
            "categories": ent.categories.tolist() if ent.categories is not None else None,
        },
        "target": _encode_bytes(raw[0], (len(raw[0]),), "u1"),
    }
    # omitted when the relations, each pair sorted, are the target's upper
    # pairs: their flat cells min*n + max, in order, are the target's. Both
    # are int64, so one bytes comparison decides, faster than array_equal
    if len(r) != np.count_nonzero(upper) or (
        np.minimum(r[:, 0], r[:, 1]) * n + np.maximum(r[:, 0], r[:, 1])
    ).tobytes() != cells[upper].tobytes():
        d["gt_relations"] = np.sort(r, 1).tolist()
    d["label"] = int(inst.label)
    if inst.tokens is not None:
        d["tokens"] = list(inst.tokens)
    if inst.tags is not None:
        d["tags"] = list(inst.tags)
    return d, raw


def _parse_line(d) -> tuple:
    """First step of a read: check one parsed line, decode its payloads to
    bytes, and make every check that reads no array value; those are left to
    the constructors.

    Returns ((n, feature dim, boxes' shape or None), the bytes of (the packed
    target, the features, the boxes or b""), gt_relations or None when
    omitted, (categories, label, tokens, tags)).
    """
    if not isinstance(d, dict):
        raise ValidationError(f"expected an object, got {type(d).__name__}")
    if "format" not in d and "version" not in d:
        raise ValidationError(
            "no format or version: version 1 lines are no longer read; "
            "regenerate the data with `fanet gen`"
        )
    if d.get("format") != DATASET_FORMAT or d.get("version") != DATASET_VERSION:
        raise ValidationError(
            f"format {d.get('format')!r} version {d.get('version')!r}, expected "
            f"{DATASET_FORMAT!r} version {DATASET_VERSION}"
        )
    ent = _required(d, "entities")
    if not isinstance(ent, dict):
        raise ValidationError(f"entities: expected an object, got {type(ent).__name__}")
    fshape, features = _decode_payload(_required(ent, "features"), "features")
    bshape, boxes = (None, b"") if ent.get("boxes") is None else _decode_payload(ent["boxes"], "boxes")
    categories = _categories(ent.get("categories"))
    if len(fshape) != 2 or 0 in fshape:  # not a matrix: as_matrix names the fault
        as_matrix(np.frombuffer(features).reshape(fshape), "features")
    n = fshape[0]
    if n > MAX_ITEMS:  # before the target, which unpacks to an n x n mask
        raise ValidationError(f"features: expected at most {MAX_ITEMS} entities, got {n}")
    m = n * (n - 1) // 2
    tshape, traw = _decode_payload(_required(d, "target"), "target", "u1")
    if tshape != ((m + 7) // 8,):
        raise ValidationError(
            f"target: packed payload has shape {tshape}, {n} entities need ({(m + 7) // 8},)"
        )
    if m % 8 and traw[-1] & (0xFF >> m % 8):  # the last byte's low bits are padding
        raise ValidationError("target: padding bits after the last pair must be zero")
    relations = None
    if "gt_relations" in d:
        relations = _index_pairs(d["gt_relations"], n, "gt_relations")
    label = _required(d, "label")
    if type(label) is not int:  # bool is an int subclass; Instance checks label >= 0
        raise ValidationError(f"label: expected an int >= 0, got {label!r}")
    tokens = tags = None
    if "tokens" in d or "tags" in d:  # document lines
        tokens, tags = _strings(d.get("tokens"), n, "tokens"), _strings(d.get("tags"), n, "tags")
    return (n, fshape[1], bshape), (traw, features, boxes), relations, (categories, label, tokens, tags)


def _required(d: dict, field: str):
    if field not in d:
        raise ValidationError(f"{field}: missing required field")
    return d[field]


def _unpack_group(key: tuple, given: list, buffers: tuple) -> tuple:
    """The arrays of one group of lines (`read_jsonl`), each made at once.

    `given` holds each line's relations array (None where omitted) and
    `buffers` their packed targets, features and boxes, each back to back.
    Returns the (B, n, n) targets as one read-only bool stack, each line's
    relations (its own, or a read-only view of the target's pairs, i < j,
    row-major, in one array per group), `labeled` (whether it packs any
    pair), and the float64 (B, n, d) features and (B, ...) boxes or None.
    """
    n, d, bshape = key
    size = len(given)
    packed, *payloads = buffers  # the float64 arrays read their buffers in place
    features, boxes = (np.frombuffer(b, "<f8").astype(np.float64, copy=False) for b in payloads)
    arrays = features.reshape(size, n, d), None if bshape is None else boxes.reshape(size, *bshape)
    m = n * (n - 1) // 2
    # one bit past the m cells, read on the diagonal: the padding bit
    # `_parse_line` checked is 0, or numpy pads it when m % 8 == 0. It is
    # zeroed anyway: numpy leaves it uninitialized when there are no bytes (n = 1)
    bits = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(size, (m + 7) // 8), axis=1, count=m + 1)
    bits[:, m] = 0
    labeled = bits.any(axis=1).tolist()
    upper, position = _upper_cells(n)
    # each cell i < j and its mirror, gathered from the bits in the order they
    # were packed and read in place as bool; the same order gives the lines
    # that omitted their pairs
    targets = bits.take(position, axis=1).view(bool)
    targets.flags.writeable = False
    relations = list(given)
    omitted = [k for k, r in enumerate(given) if r is None]
    if omitted:  # document groups seldom have any; the empty pass costs ~10 us
        lines = bits if len(omitted) == size else bits[omitted]
        # one flat pass over the lines read as bool: ~4x faster than a 2-D nonzero
        line, cell = np.divmod(np.flatnonzero(lines.view(bool)), m + 1)
        ends = np.cumsum(np.bincount(line, minlength=len(omitted))).tolist()
        pairs = np.empty((len(cell), 2), np.int64)  # filled in place: fewer temporaries than np.stack
        np.divmod(upper[cell], n, out=(pairs[:, 0], pairs[:, 1]))
        pairs.flags.writeable = False
        for k, start, end in zip(omitted, [0, *ends], ends):
            relations[k] = pairs[start:end]
    return targets, relations, labeled, *arrays


def _categories(raw) -> Optional[np.ndarray]:
    """entities.categories of a line: a list of ints, or null for none.

    Types are checked on the list itself, because numpy reads 1.7 and true as 1.
    """
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ValidationError(
            f"categories: expected a list of ints or null, got {type(raw).__name__}"
        )
    if set(map(type, raw)) <= {int}:
        try:
            return np.array(raw, dtype=np.int64)
        except OverflowError:  # an int beyond int64
            pass
    bad = next(c for c in raw if type(c) is not int or not -(2**63) <= c < 2**63)
    raise ValidationError(f"categories: expected a list of ints or null, got entry {bad!r}")


def _strings(raw, n: int, field: str) -> Optional[tuple]:
    """tokens or tags of a line or an `Instance`: a list or tuple of n strings,
    as a tuple, or None (null/absent) for none."""
    if raw is None:
        return None
    if type(raw) in (list, tuple) and len(raw) == n and set(map(type, raw)) == {str}:
        return tuple(raw)
    need = f"{field}: expected a list of {n} strings or null, got"
    if not isinstance(raw, (list, tuple)):
        raise ValidationError(f"{need} {type(raw).__name__}")
    bad = [x for x in raw if type(x) is not str]
    if bad:
        raise ValidationError(f"{need} entry {bad[0]!r}")
    raise ValidationError(f"{need} {len(raw)} entries")


def write_jsonl(path, instances) -> None:
    """Write the instances to the JSONL file at `path`, one line each, and
    then their cache beside it (`_cache_path`). Each file is written whole
    or not at all, the JSONL file first: a write that fails leaves the
    previous pair, or a new JSONL file whose old cache no longer matches it."""
    digest = hashlib.sha256()
    cache = _Cache()

    def write(fh):
        for inst in instances:
            d, raw = _instance_line(inst)
            line = (json.dumps(d) + "\n").encode("ascii")
            digest.update(line)
            fh.write(line)
            cache.add(inst, d, raw)

    _write_whole(path, write, mode="wb")
    _write_whole(_cache_path(path), lambda fh: cache.write(fh, digest.hexdigest()), mode="wb")


def read_jsonl(path) -> list:
    """Parse a dataset file; errors carry the 1-based line number.

    The first pass, in file order, makes every check that reads no array
    value: each line decodes its payloads to bytes and joins the group of its
    entity count, feature dim and boxes' shape. When the file's cache
    (`_read_cache`) is the one `write_jsonl` left beside these bytes and
    passes every check the first pass makes, it stands in for that pass.
    Each group's arrays are then made at once, and every check the
    constructors make runs once per group, on those stacked arrays. When
    every group passes, every Instance is built in file order, on views of
    them, without checking it again. Otherwise a cache is dropped for the
    first pass; and when that pass stopped at a bad line or a group failed,
    the lines it read are built through the checked constructors, so the
    first bad line in the file is the one named, with the constructors' own
    message. Every error comes from the first pass, never from a cache.
    """
    cached = _read_cache(path)
    if cached is not None:
        order, groups = cached
        unpacked, checked = _unpack_groups(groups)
        if checked:
            return _instances(order, groups, unpacked)
    linenos, order, groups, failure = _read_lines(path)
    unpacked, checked = _unpack_groups(groups)
    if failure is None and checked:
        return _instances(order, groups, unpacked)
    out = []
    for lineno, (g, i) in zip(linenos, order):
        categories, label, tokens, tags = groups[g][3][i]
        targets, relations, _, features, boxes = unpacked[g]
        try:
            entities = EntitySet(features[i], categories, None if boxes is None else boxes[i])
            out.append(Instance(entities, targets[i], label, relations[i], tokens, tags))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if failure is not None:
        lineno, exc = failure
        fault = "nested too deeply" if isinstance(exc, RecursionError) else exc
        raise ValidationError(f"{path}:{lineno}: {fault}") from exc
    return out


def _read_lines(path) -> tuple:
    """The first pass of `read_jsonl` over the JSONL file: (each line's
    number, its (group, index in the group) in file order, {group: (key,
    each line's relations, `_unpack_group`'s buffers, each line's fields)},
    and (line number, exception) of the line it stopped at, or None). Each
    group is named by its key, (n, feature dim, boxes' shape or None)."""
    linenos, order = [], []
    groups: dict = {}
    failure = None
    try:  # bytes that are not UTF-8 are read as escapes, for the check below to name their line
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError as exc:
        raise ValidationError(f"{path}: file not found") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():  # undoing the escapes raises at bytes that are not UTF-8
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                key, payloads, relations, fields = _parse_line(json.loads(line))
            # UnicodeDecodeError is a ValueError; deep nesting recurses too far,
            # in json.loads or in quoting a value in a message
            except (KeyError, TypeError, ValueError, RecursionError, ValidationError) as exc:
                failure = lineno, exc
                break
            _, given, buffers, lines = groups.setdefault(
                key, (key, [], (bytearray(), bytearray(), bytearray()), [])
            )
            linenos.append(lineno)
            order.append((key, len(given)))
            for buffer, raw in zip(buffers, payloads):
                buffer += raw
            given.append(relations)
            lines.append(fields)
    return linenos, order, groups, failure


def _unpack_groups(groups: dict) -> tuple:
    """({group: its `_unpack_group` arrays}, whether every group passes
    `_check_group`), for groups as `_read_lines` gives them."""
    unpacked = {g: _unpack_group(key, given, buffers) for g, (key, given, buffers, _) in groups.items()}
    try:
        for g, (targets, _, _, features, boxes) in unpacked.items():
            key, _, _, lines = groups[g]
            _check_group(key[0], lines, targets, features, boxes)
    except ValidationError:
        return unpacked, False
    return unpacked, True


def _instances(order: list, groups: dict, unpacked: dict) -> list:
    """Every line's Instance, in file order, built unchecked on views of its
    group's arrays, for groups that passed `_check_group`."""
    out = []
    for g, i in order:
        categories, label, tokens, tags = groups[g][3][i]
        targets, relations, labeled, features, boxes = unpacked[g]
        entities = _unchecked(EntitySet, features=features[i], categories=categories,
                              boxes=None if boxes is None else boxes[i])
        out.append(_unchecked(Instance, entities=entities, target=targets[i], label=label,
                              relations=relations[i], tokens=tokens, tags=tags, labeled=labeled[i]))
    return out


# --- the dataset cache ------------------------------------------------------
#
# Beside each JSONL file it writes, `write_jsonl` leaves a cache: what the
# reader's first pass makes of that file, so that a read of it skips the
# JSON and base64 decoding. It is derived data, always safe to delete; the
# JSONL file stays the file of record. Version 1, in three parts:
#   a JSON line {"format": "fanet-dataset-cache", "version": 1,
#                "sha256": <hex digest of the JSONL file's bytes>,
#                "crc32": <zlib.crc32 of the rest of the cache>};
#   a JSON line {"order": [each line's group, in file order],
#                "strings": [every token and tag string, once],
#                "groups": [{"n": int, "d": int, "boxes": bool,
#                            "categories": bool, "tokens": bool, "tags": bool,
#                            "labels": [int, ...],
#                            "relations": [gt_relations, or null where omitted]}]};
#   each group's bytes: its lines' packed targets ("u1", as in the JSONL),
#   features ("<f8") and, where the group's flags say so, boxes ("<f8"),
#   categories ("<i8") and the indices of the tokens and the tags in
#   "strings" ("<u4"), each of these back to back over the group's lines
#   and zero-padded to a multiple of 8 bytes, so that every array is aligned.
# The lines of a group share n, d and which of the four fields they hold.

_CACHE_FORMAT = "fanet-dataset-cache"
_CACHE_VERSION = 1
_CACHE_FIELDS = ("boxes", "categories", "tokens", "tags")


def _cache_path(path) -> str:
    return os.fspath(path) + ".cache"


def _pad(size: int) -> bytes:
    """The zero bytes that take `size` to a multiple of 8."""
    return bytes(-size % 8)


class _Cache:
    """The cache of a JSONL file, built line by line as `write_jsonl` writes it."""

    def __init__(self):
        self.order = []
        self.groups: dict = {}  # (n, d, each field present) -> (index, JSON object, segments)

    def add(self, inst: Instance, d: dict, raw: tuple) -> None:
        """One line: the instance, its JSON object and its raw bytes (`_instance_line`)."""
        ent = inst.entities
        present = tuple(x is not None for x in (ent.boxes, ent.categories, inst.tokens, inst.tags))
        key = (inst.n, ent.d, present)
        if key not in self.groups:
            header = {"n": inst.n, "d": ent.d, **dict(zip(_CACHE_FIELDS, present)),
                      "labels": [], "relations": []}
            self.groups[key] = len(self.groups), header, ([], [], [], [], [], [])
        index, header, (packed, features, boxes, categories, tokens, tags) = self.groups[key]
        self.order.append(index)
        header["labels"].append(d["label"])
        header["relations"].append(d.get("gt_relations"))
        packed.append(raw[0])
        features.append(raw[1])
        boxes.append(raw[2])
        if ent.categories is not None:
            categories += d["entities"]["categories"]
        if inst.tokens is not None:
            tokens += inst.tokens
        if inst.tags is not None:
            tags += inst.tags

    def write(self, fh, sha256: str) -> None:
        """The cache, into the binary file fh; sha256 is the JSONL file's digest."""
        segments = [group[2] for group in self.groups.values()]
        strings = dict.fromkeys(chain.from_iterable(x for group in segments for x in group[4:]))
        index = {x: i for i, x in enumerate(strings)}
        header = {"order": self.order, "strings": list(strings),
                  "groups": [spec for _, spec, _ in self.groups.values()]}
        parts = [(json.dumps(header) + "\n").encode("ascii")]
        for packed, features, boxes, categories, tokens, tags in segments:
            for chunks in (packed, features, boxes):
                parts += chunks
                parts.append(_pad(sum(map(len, chunks))))
            rows = categories, [*map(index.__getitem__, tokens)], [*map(index.__getitem__, tags)]
            for ints, dtype in zip(rows, ("<i8", "<u4", "<u4")):
                data = np.array(ints, dtype).tobytes()
                parts += (data, _pad(len(data)))
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        prelude = {"format": _CACHE_FORMAT, "version": _CACHE_VERSION, "sha256": sha256, "crc32": crc}
        fh.write((json.dumps(prelude) + "\n").encode("ascii"))
        fh.writelines(parts)


def _read_cache(path):
    """(order, groups) as `_read_lines` gives them for the JSONL file at
    `path`, from its cache; None when there is no cache, or it is not the
    one `write_jsonl` left beside these bytes, or any check that the first
    pass makes fails on it. Its groups are keyed by their index."""
    try:
        with open(_cache_path(path), "rb") as fh:
            prelude = json.loads(fh.readline(1024))
            if not isinstance(prelude, dict) or (prelude.get("format"), prelude.get("version")) != (
                _CACHE_FORMAT, _CACHE_VERSION
            ):
                return None
            if prelude.get("sha256") != _sha256(path):
                return None
            header = fh.readline()
            body = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
            if fh.readinto(body) != len(body):
                return None
            if zlib.crc32(body, zlib.crc32(header)) != prelude.get("crc32"):
                return None
        return _cache_groups(json.loads(header), memoryview(body))
    # ValidationError is a ValueError; a corrupt header may hold a wrong type
    # anywhere, or nest too deeply for json.loads
    except (OSError, ValueError, TypeError, KeyError, IndexError, RecursionError):
        return None


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):  # in chunks: no whole-file copy
            digest.update(chunk)
    return digest.hexdigest()


def _cache_groups(header: dict, body: memoryview) -> tuple:
    """A cache's (order, groups), from its header and the bytes after it.
    Makes every check the first pass makes on a line and raises ValueError
    (or a ValidationError) where one fails. The features, categories and
    boxes are views of `body`, which is writable, as the first pass's are."""
    order, strings, specs = header["order"], header["strings"], header["groups"]
    if not (isinstance(order, list) and isinstance(specs, list) and set(map(type, order)) <= {int}
            and isinstance(strings, list) and set(map(type, strings)) <= {str}):
        raise ValueError("cache: malformed header")
    if order and not 0 <= min(order) <= max(order) < len(specs):
        raise ValueError("cache: a line's group is out of range")
    sizes = [0] * len(specs)
    placed = []
    for g in order:
        placed.append((g, sizes[g]))
        sizes[g] += 1
    table = np.array(strings, dtype=object)
    groups = {}
    offset = 0
    for g, (spec, size) in enumerate(zip(specs, sizes)):
        n, d, labels, given = spec["n"], spec["d"], spec["labels"], spec["relations"]
        present = [spec[f] for f in _CACHE_FIELDS]
        if not (type(n) is type(d) is int and 1 <= n <= MAX_ITEMS and d >= 1 and size >= 1
                and {*map(type, present)} <= {bool} and isinstance(labels, list)
                and isinstance(given, list) and len(labels) == len(given) == size
                and {*map(type, labels)} == {int}):
            raise ValueError(f"cache: malformed group {g}")
        m = n * (n - 1) // 2
        row = (m + 7) // 8  # packed bytes per line; the low m % 8 bits of its last are padding
        held = (True, True, *present)
        widths = (row, n * d * 8, n * 32, n * 8, n * 4, n * 4)  # bytes per line of each array
        lengths = [size * w if h else 0 for w, h in zip(widths, held)]
        if offset + sum(x + -x % 8 for x in lengths) > len(body):
            raise ValueError("cache: truncated")
        segments = []
        for length in lengths:
            segments.append(body[offset:offset + length])
            offset += length + -length % 8
        packed, features, boxes, *fields = segments
        if m % 8 and any(b & (0xFF >> m % 8) for b in packed[row - 1::row]):
            raise ValueError("cache: target padding bits are set")
        categories, tokens, tags = (
            np.frombuffer(seg, dtype).reshape(size, n) if h else None
            for h, seg, dtype in zip(held[3:], fields, ("<i8", "<u4", "<u4"))
        )
        none = [None] * size
        categories = none if categories is None else list(categories.astype(np.int64, copy=False))
        # an index past the string table raises IndexError
        tokens, tags = (
            none if ids is None else list(map(tuple, table[ids].tolist())) for ids in (tokens, tags)
        )
        given = [None if r is None else _index_pairs(r, n, "gt_relations") for r in given]
        key = (n, d, (n, 4) if spec["boxes"] else None)
        groups[g] = key, given, (packed, features, boxes), list(zip(categories, labels, tokens, tags))
    if offset != len(body):
        raise ValueError("cache: trailing bytes")
    return placed, groups


def _check_group(n: int, lines: list, targets, features, boxes) -> None:
    """Every check EntitySet and Instance make, once over a group's lines (their
    fields as `_parse_line` returns them) and its arrays (`_unpack_group`).
    Raises ValidationError on a fault, not necessarily the first line's.

    `_parse_line` already checked the features' shape, and made the
    categories int64 arrays and the labels ints.
    """
    check_finite(features, "features")
    if any(c is not None and len(c) != n for c, *_ in lines):
        raise ValidationError(f"categories length does not match n={n}")
    if boxes is not None:
        if boxes.shape[1:] != (n, 4):
            raise ValidationError(f"boxes must be ({n}, 4)")
        _check_boxes(boxes)
    if min(label for _, label, *_ in lines) < 0:
        raise ValidationError("label must be >= 0")
    validate_target(targets)


def _unchecked(cls, **fields):
    """A frozen dataclass instance built without its `__post_init__` checks,
    for fields that already passed them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def load_spec(d: dict):
    """The spec of a JSON dict, by its `kind` field ("vision" when absent)."""
    kind = d.get("kind", "vision")
    for cls in (WorldSpec, DocumentSpec):
        if kind == cls.kind:
            return cls.from_dict(d)
    raise ValidationError(f"kind: expected 'vision' or 'document', got {kind!r}")
