"""Seeded generator for benchmark corpora, item lists and configs.

Everything is drawn from ``random.Random(seed)``: the same seed and
size give the same files byte for byte. Nothing is downloaded.

The corpus mimics a parsed newswire sample with a Zipf vocabulary and
topical selectional preferences. Each verb belongs to a topic; each
topic owns a pool of typical agents and a pool of typical patients, so
the structured model has something to find. Besides transitive clauses
the generator emits intransitives, ``noun of noun`` phrases (nouns get
direct ``nmod`` dependents, so the collapsed ``ARG`` slot of a noun is
not empty), coordinated verbs (two verb instances in one sentence),
function words outside the noun/verb universe, unattached rows and a
small share of malformed rows, so every skip path of the CoNLL reader
runs.

Item lists reuse verbs and agents with a Zipf skew, as real item lists
do, so the same slot query recurs across items.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Size:
    """Shape of one generated workload."""

    sentences: int
    verbs: int
    topics: int
    pool: int  # typical agents (and, separately, patients) per topic
    items: int  # per task
    tasks: tuple[str, ...]
    kinds: tuple[str, ...]
    compositions: tuple[str, ...]
    k_values: tuple[int, ...]
    vocab_threshold: int = 5


ADVERBS = ("today", "again", "quickly", "often", "later", "there")
DETERMINERS = ("the", "a", "this")


def _zipf_cum(n: int, exponent: float = 1.05) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(n)))


class _Zipf:
    def __init__(self, rng: random.Random, population: list[str], exponent: float = 1.05):
        self._rng = rng
        self._pop = population
        self._cum = _zipf_cum(len(population), exponent)

    def draw(self) -> str:
        x = self._rng.random() * self._cum[-1]
        return self._pop[bisect.bisect_right(self._cum, x)]


class _Sentence:
    """Rows of (lemma, fine tag, head, relation); head 0 is root, None unattached."""

    def __init__(self):
        self.rows: list[list] = []

    def add(self, lemma: str, tag: str, head=0, rel: str = "root") -> int:
        self.rows.append([lemma, tag, head, rel])
        return len(self.rows)

    def noun_phrase(self, noun: str, det: str, head, rel: str, nmod: str | None = None) -> int:
        d = self.add(det, "DT")
        n = self.add(noun, "NN", head, rel)
        self.rows[d - 1][2:] = [n, "det"]
        if nmod is not None:
            self.add("of", "IN", n, "prep")
            self.add(nmod, "NN", n, "nmod")
        return n


class Generator:
    def __init__(self, seed: int, size: Size):
        self.rng = random.Random(seed)
        self.size = size
        rng = self.rng
        self.verbs = [f"verb{i}" for i in range(size.verbs)]
        # Topics get equal numbers of verbs; only which verbs (hence their
        # Zipf ranks) is drawn, so input sizes vary little between seeds.
        shuffled = rng.sample(self.verbs, len(self.verbs))
        self.topic_of = {v: i % size.topics for i, v in enumerate(shuffled)}
        nouns = [f"noun{i}" for i in range(size.topics * size.pool * 2)]
        rng.shuffle(nouns)
        self.agents = [nouns[t * 2 * size.pool:(t * 2 + 1) * size.pool] for t in range(size.topics)]
        self.patients = [nouns[(t * 2 + 1) * size.pool:(t * 2 + 2) * size.pool] for t in range(size.topics)]
        self.verb_draw = _Zipf(rng, self.verbs)
        self.noun_draw = _Zipf(rng, nouns, 1.0)
        self.agent_draw = [_Zipf(rng, pool) for pool in self.agents]
        self.patient_draw = [_Zipf(rng, pool) for pool in self.patients]
        self.freq: dict[str, int] = {}
        # (lemma, "sbj"/"obj"): times it fills that slot; (lemma, "nmod"): nmod dependents it heads
        self.roles: dict[tuple[str, str], int] = {}

    # -- corpus --------------------------------------------------------

    def _draw(self, typical: list[_Zipf], other: list[_Zipf], topic: int) -> str:
        roll = self.rng.random()
        if roll < 0.45:
            return typical[topic].draw()
        if roll < 0.65:
            return other[topic].draw()
        return self.noun_draw.draw()

    def _agent(self, topic: int) -> str:
        return self._draw(self.agent_draw, self.patient_draw, topic)

    def _patient(self, topic: int) -> str:
        return self._draw(self.patient_draw, self.agent_draw, topic)

    def _maybe_nmod(self, topic: int) -> str | None:
        return self._patient(topic) if self.rng.random() < 0.3 else None

    def sentence(self) -> _Sentence:
        rng = self.rng
        s = _Sentence()
        roll = rng.random()
        verb = self.verb_draw.draw()
        topic = self.topic_of[verb]
        det = rng.choice(DETERMINERS)
        if roll < 0.08:  # bare "noun of noun" fragment
            head = self._agent(topic)
            s.noun_phrase(head, det, 0, "root", self._patient(topic))
            return s
        subj = s.noun_phrase(self._agent(topic), det, None, "sbj", self._maybe_nmod(topic))
        v = s.add(verb, rng.choice(("VB", "VBD", "VBZ")))
        s.rows[subj - 1][2] = v
        if roll >= 0.22:  # transitive
            s.noun_phrase(self._patient(topic), rng.choice(DETERMINERS), v, "obj", self._maybe_nmod(topic))
        if roll >= 0.92:  # coordinated second verb: a second verb instance with its own object
            s.add("and", "CC", v, "cc")
            verb2 = self.verb_draw.draw()
            v2 = s.add(verb2, "VBD", v, "conj")
            s.noun_phrase(self._patient(self.topic_of[verb2]), "the", v2, "obj")
        if rng.random() < 0.5:
            s.add(rng.choice(ADVERBS), "RB", v, "tmod")
        s.add(".", ".", v, "punct")
        return s

    def corpus_text(self) -> str:
        rng = self.rng
        out = ["# generated benchmark corpus\n"]
        for _ in range(self.size.sentences):
            s = self.sentence()
            if rng.random() < 0.04:  # unattached row: a token with no head
                s.add(self.noun_draw.draw(), "NN", None, "_")
            lines = []
            malformed_head = rng.randrange(len(s.rows)) if rng.random() < 0.01 else -1
            for i, (lemma, tag, head, rel) in enumerate(s.rows):
                if tag.startswith(("N", "V")):
                    key = f"{lemma}-{'n' if tag[0] == 'N' else 'v'}"
                    self.freq[key] = self.freq.get(key, 0) + 1
                    if head and rel in ("sbj", "obj"):
                        self.roles[lemma, rel] = self.roles.get((lemma, rel), 0) + 1
                    if rel == "nmod" and head:
                        head_lemma = s.rows[head - 1][0]
                        self.roles[head_lemma, "nmod"] = self.roles.get((head_lemma, "nmod"), 0) + 1
                head_field = "_" if head is None else ("x" if i == malformed_head else str(head))
                lines.append(f"{i + 1}\t{lemma}\t{lemma}\t{tag}\t{tag}\t_\t{head_field}\t{rel}\t_\t_\n")
            if rng.random() < 0.005:  # truncated row, dropped by the reader
                lines.append(f"{len(s.rows) + 1}\tstray\n")
            out.append("".join(lines) + "\n")
        return "".join(out)

    # -- items ---------------------------------------------------------

    def _frequent(self, tokens: list[str], pos: str, roles: tuple[str, ...] = ()) -> list[str]:
        """Tokens well above the vocabulary threshold, seen often enough in each role."""
        floor = 8 * self.size.vocab_threshold
        return [t for t in tokens if self.freq.get(f"{t}-{pos}", 0) >= floor
                and all(self.roles.get((t, r), 0) >= 3 for r in roles)]

    def items(self, task: str) -> str:
        """Item list for one task; call after corpus_text()."""
        rng = self.rng
        # Agents need a VERB slot and (for the ARG slot) nmod dependents; in
        # role reversal both nouns are queried as subject and as object.
        agent_roles = ("sbj", "nmod", "obj") if task == "chow" else ("sbj", "nmod")
        patient_roles = ("sbj", "nmod", "obj") if task == "chow" else ()
        agents = [self._frequent(pool, "n", agent_roles)[:8] for pool in self.agents]
        patients = [self._frequent(pool, "n", patient_roles)[:8] for pool in self.patients]
        topics = [t for t in range(self.size.topics) if agents[t] and patients[t]]
        verbs = [v for v in self._frequent(self.verbs, "v") if self.topic_of[v] in topics]
        if len(topics) < 2 or not verbs:
            raise ValueError(f"corpus too small to draw {task} items")
        verb_draw = _Zipf(rng, verbs, 0.9)
        if task == "bicknell-acc1":
            rows = ["item_id\tagent\tverb\tpatient_congruent\tpatient_incongruent"]
        elif task == "bicknell-acc2":
            rows = ["item_id\tagent_congruent\tagent_incongruent\tverb\tpatient"]
        else:
            rows = ["item_id\tverb\tnoun1\tnoun2"]
        for n in range(self.size.items):
            verb = verb_draw.draw()
            topic = self.topic_of[verb]
            other = rng.choice([t for t in topics if t != topic])
            agent = _Zipf(rng, agents[topic], 1.2).draw()
            patient = _Zipf(rng, patients[topic], 1.2).draw()
            item_id = f"{task[0]}{n:04d}"
            if task == "bicknell-acc1":
                wrong = rng.choice(patients[other])
                rows.append(f"{item_id}\t{agent}-n\t{verb}-v\t{patient}-n\t{wrong}-n")
            elif task == "bicknell-acc2":
                wrong = rng.choice(agents[other])
                rows.append(f"{item_id}\t{agent}-n\t{wrong}-n\t{verb}-v\t{patient}-n")
            else:
                rows.append(f"{item_id}\t{verb}-v\t{agent}-n\t{patient}-n")
        return "\n".join(rows) + "\n"

    def probes(self, n: int) -> list[tuple[str, str, int]]:
        """(target, slot, k) fillers probes over in-vocabulary tokens.

        Slots and k follow a fixed cycle, so every seed reads the same mix
        of archives; only the targets are drawn.
        """
        verbs = self._frequent(self.verbs, "v")
        nouns = self._frequent([n for pool in self.agents + self.patients for n in pool], "n")
        verb_slots = ("obj", "sbj", "ARG", "WINDOW")
        noun_slots = ("sbj_inv", "obj_inv", "VERB", "ARG", "nmod", "WINDOW")
        out = []
        for i in range(n):
            if i % 3 == 0:
                target, slot = self.rng.choice(verbs) + "-v", verb_slots[i // 3 % len(verb_slots)]
            else:
                target, slot = self.rng.choice(nouns) + "-n", noun_slots[i % len(noun_slots)]
            out.append((target, slot, (5, 10, 20)[i % 3]))
        return out


DATASET_KEYS = {
    "bicknell-acc1": "bicknell_acc1_path",
    "bicknell-acc2": "bicknell_acc2_path",
    "chow": "chow_path",
}


def write_workload(directory: str, seed: int, size: Size, n_probes: int) -> dict:
    """Write corpus, item lists and config under ``directory``.

    Returns a description: paths, probes, and the input's shape.
    """
    os.makedirs(directory, exist_ok=True)
    gen = Generator(seed, size)
    corpus = gen.corpus_text()
    corpus_path = os.path.join(directory, "corpus.conll")
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(corpus)
    config = [
        f"corpus_paths={corpus_path}",
        f"vocab_threshold={size.vocab_threshold}",
        f"variant_kinds={','.join(size.kinds)}",
        f"compositions={','.join(size.compositions)}",
        f"k_values={','.join(str(k) for k in size.k_values)}",
        f"out_dir={os.path.join(directory, 'out')}",
    ]
    for task in size.tasks:
        path = os.path.join(directory, f"{task}.tsv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(gen.items(task))
        config.append(f"{DATASET_KEYS[task]}={path}")
    config_path = os.path.join(directory, "bench.conf")
    with open(config_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(config) + "\n")
    return {
        "config": config_path,
        "corpus": corpus_path,
        "probes": gen.probes(n_probes),
        "sentences": size.sentences,
        "rows": sum(1 for line in corpus.splitlines() if line and not line.startswith("#")),
        "vocabulary": sum(1 for n in gen.freq.values() if n >= size.vocab_threshold),
        "items": size.items,
    }
