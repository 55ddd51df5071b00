"""Independent reference model for the benchmark's correctness gate.

It rebuilds, from the generated CoNLL file alone and with no import of
the program under test, what the pipeline promises: the documented
reader rules, the dependency / window / VERB-link counts, positive
LMI weights, the collapsed ARG rankings, and prototype sums, left-fold
composition and cosine scores in the same floating-point order. The
benchmark compares the CLI's visible outputs (``fillers`` lines and
report item scores) with these values exactly, so the check holds for
any seed and does not depend on the archive format or report layout.

It implements the default settings the generated configs use (CoNLL-X
columns, ``N``/``V`` tag prefixes, window width 2, ``sbj``/``obj``
co-argument labels, collapsed ARG rankings, BOA vectors from the
dependency space, the default task slots). Tokens are plain
``lemma-pos`` strings here.
"""

from __future__ import annotations

import math
from collections import Counter

SUBJECTS = frozenset({"sbj"})
OBJECTS = frozenset({"obj"})
INV = "_inv"


class EmptyPrototype(Exception):
    pass


def _coarse(tag: str) -> str | None:
    tag = tag.upper()
    if tag.startswith("N"):
        return "n"
    if tag.startswith("V"):
        return "v"
    return None


def read_conll(path: str) -> list[tuple[list[str | None], list[tuple[int, str, int]]]]:
    """Sentences as (tokens, arcs); arcs are (head position, relation, dependent position)."""
    sentences = []
    rows: list[list[str]] = []

    def finish():
        tokens: list[str | None] = []
        links = []
        for fields in rows:
            pos = _coarse(fields[3])
            lemma = fields[2].lower()
            ok = pos is not None and lemma and not any(c.isspace() for c in lemma)
            tokens.append(f"{lemma}-{pos}" if ok else None)
            if len(fields) < 8:
                links.append(None)
                continue
            head, rel = fields[6].strip(), fields[7].strip()
            if head in ("", "_"):
                links.append(None)
                continue
            try:
                h = int(head)
            except ValueError:
                links.append(None)
                continue
            links.append((h, rel) if 0 <= h <= len(rows) and rel else None)
        arcs = []
        for d, link in enumerate(links):
            if link is None or link[0] == 0:
                continue
            h = link[0] - 1
            if tokens[h] is not None and tokens[d] is not None:
                arcs.append((h, link[1], d))
        sentences.append((tokens, arcs))

    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if not line.strip():
                if rows:
                    finish()
                rows = []
                continue
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) >= 4:
                rows.append(fields)
    if rows:
        finish()
    return sentences


def weigh(counts: Counter) -> dict[tuple[str, str, str], float]:
    n = sum(counts.values())
    tm, rm, fm = Counter(), Counter(), Counter()
    for (t, r, f), c in counts.items():
        tm[t] += c
        rm[r] += c
        fm[f] += c
    out = {}
    for (t, r, f), c in counts.items():
        expected = n * (tm[t] / n) * (rm[r] / n) * (fm[f] / n)
        value = math.log(c / expected) * c
        if value > 0.0:
            out[(t, r, f)] = value
    return out


class Vector:
    __slots__ = ("ids", "scores", "norm")

    def __init__(self, pairs):
        kept = sorted(p for p in pairs if p[1] > 0)
        self.ids = [d for d, _ in kept]
        self.scores = [s for _, s in kept]
        self.norm = math.sqrt(sum(s * s for s in self.scores))

    def dot(self, other: "Vector") -> float:
        b = dict(zip(other.ids, other.scores))
        acc = 0.0
        for d, s in zip(self.ids, self.scores):
            if d in b:
                acc += s * b[d]
        return acc


def vsum(vectors) -> Vector:
    acc: dict[int, float] = {}
    for v in vectors:
        for d, s in zip(v.ids, v.scores):
            acc[d] = acc.get(d, 0.0) + s
    return Vector(acc.items())


def vmul(a: Vector, b: Vector) -> Vector:
    other = dict(zip(b.ids, b.scores))
    return Vector((d, s * other[d]) for d, s in zip(a.ids, a.scores) if d in other)


class Space:
    def __init__(self, weighted: dict, vocab: frozenset[str], extra: dict | None = None):
        dims = sorted({(r, f) for (_, r, f) in weighted})
        dim_id = {pair: i for i, pair in enumerate(dims)}
        per_target: dict[str, list] = {}
        for (t, r, f), s in weighted.items():
            per_target.setdefault(t, []).append((dim_id[(r, f)], s))
        self.rows = {t: Vector(p) for t, p in per_target.items()}
        groups: dict[tuple[str, str], list] = {}
        for source in (weighted, extra or {}):
            for (t, r, f), s in source.items():
                groups.setdefault((t, r), []).append((f, s))
        self.index = {k: sorted(v, key=lambda p: (-p[1], p[0])) for k, v in groups.items()}
        self.vocab = vocab
        self.empty = Vector(())

    def row(self, token: str) -> Vector:
        return self.rows.get(token, self.empty)

    def ranking(self, target: str, slot: str) -> list:
        return self.index.get((target, slot), [])


class Model:
    """Reference counts, weights and spaces for one config's corpus."""

    def __init__(self, corpus_path: str, threshold: int, width: int = 2):
        sentences = read_conll(corpus_path)
        freq = Counter(t for tokens, _ in sentences for t in tokens if t is not None)
        vocab = frozenset(t for t, n in freq.items() if n >= threshold)
        dep: Counter = Counter()
        win: Counter = Counter()
        for tokens, arcs in sentences:
            co_args: dict[int, tuple[set, set]] = {}
            for h, r, d in arcs:
                head, dependent = tokens[h], tokens[d]
                if head in vocab and dependent in vocab:
                    dep[(head, r, dependent)] += 1
                    dep[(dependent, r + INV, head)] += 1
                if head.endswith("-v") and dependent in vocab:
                    slots = co_args.setdefault(h, (set(), set()))
                    if r in SUBJECTS:
                        slots[0].add(dependent)
                    elif r in OBJECTS:
                        slots[1].add(dependent)
            for subjects, objects in co_args.values():
                for s in subjects:
                    for o in objects:
                        dep[(s, "VERB", o)] += 1
                        dep[(o, "VERB" + INV, s)] += 1
            kept = [t if t in vocab else None for t in tokens]
            for i, target in enumerate(kept):
                if target is None:
                    continue
                for j in range(max(0, i - width), min(len(kept), i + width + 1)):
                    if j != i and kept[j] is not None:
                        win[(target, "WINDOW", kept[j])] += 1
        direct = {r for (_, r, _) in dep if not r.endswith(INV) and r != "VERB"}
        arg: Counter = Counter()
        for (t, r, f), c in dep.items():
            if r in direct:
                arg[(t, "ARG", f)] += c
        self.vocab = vocab
        self.deps = Space(weigh(dep), vocab, weigh(arg) if arg else {})
        self.window = Space(weigh(win), vocab)

    # -- queries -------------------------------------------------------

    def fillers_line(self, target: str, slot: str, k: int) -> str:
        """The exact stdout line of ``argex fillers`` for an in-vocabulary target."""
        space = self.window if slot == "WINDOW" else self.deps
        ranked = space.ranking(target, slot)[:k]
        if not ranked:
            return f"{target}/{slot}: (no fillers)"
        return f"{target}/{slot}: " + ", ".join(f for f, _ in ranked)

    def _space(self, kind: str) -> Space:
        return self.window if kind == "bow" else self.deps

    def _prototype(self, kind: str, token: str, slot: str, k: int) -> Vector:
        slot = {"boa": "ARG", "bow": "WINDOW"}.get(kind, slot)
        space = self._space(kind)
        ranked = space.ranking(token, slot)[:k]
        if not ranked:
            raise EmptyPrototype(f"{token}/{slot}")
        return vsum(space.row(f) for f, _ in ranked)

    def _expectation(self, kind, comp, k, inputs, candidate) -> float:
        protos = [self._prototype(kind, tok, slot, k) for tok, slot in inputs]
        combined = protos[0]
        for nxt in protos[1:]:
            combined = vsum([combined, nxt]) if comp == "sum" else vmul(combined, nxt)
        cand = self._space(kind).row(candidate)
        if cand.norm == 0.0 or combined.norm == 0.0:
            return 0.0
        return min(1.0, max(0.0, cand.dot(combined) / (cand.norm * combined.norm)))

    def score_item(self, task: str, kind: str, comp: str, k: int, row: list[str]):
        """Expected (score_a, score_b, outcome), or 'oov' / 'failed' for skipped items."""
        if task == "chow":
            _, verb, n1, n2 = row
            required = (verb, n1, n2)
            cond_a = ([(n1, "sbj_inv"), (n2, "obj_inv")], verb)
            cond_b = ([(n1, "obj_inv"), (n2, "sbj_inv")], verb)
        else:
            if task == "bicknell-acc1":
                _, agent, verb, pc, pi = row
                ac = ai = agent
            else:
                _, ac, ai, verb, pc = row
                pi = pc
            required = (ac, ai, verb, pc, pi)
            cond_a = ([(ac, "VERB"), (verb, "obj")], pc)
            cond_b = ([(ai, "VERB"), (verb, "obj")], pi)
        if any(t not in self.vocab for t in required):
            return "oov"
        try:
            a = self._expectation(kind, comp, k, *cond_a)
            b = self._expectation(kind, comp, k, *cond_b)
        except EmptyPrototype:
            return "failed"
        return (a, b, "win" if a > b else "tie" if a == b else "loss")
