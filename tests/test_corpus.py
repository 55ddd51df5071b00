"""Counting semantics against naive quadratic recounts.

The oracles below restate the counting contracts with the dumbest code
possible (scan every pair, no incremental bookkeeping) so that any
disagreement points at the fast implementation.
"""

from collections import Counter

import pytest

from argex.corpus import (
    Vocabulary,
    extract_window_counts,
    load_vocabulary,
    save_vocabulary,
)
from argex.errors import ConsistencyError, CorpusError
from argex.tensor import write_artifact
from argex.tokens import VERB_LINK, inverse

from conftest import (
    DEFAULTS,
    OBJECTS,
    SUBJECTS,
    conll_text,
    dependency_counts,
    parse_text,
    random_corpus_text,
    vocabulary,
    window_counts,
)


def naive_vocabulary(corpus, threshold, inclusive=True):
    freq = Counter()
    for sentence in corpus:
        for token in sentence.tokens:
            if token is not None:
                freq[token] += 1
    if inclusive:
        return {t for t, n in freq.items() if n >= threshold}
    return {t for t, n in freq.items() if n > threshold}


def naive_dependency(corpus, vocab_set, subject_labels=SUBJECTS,
                     object_labels=OBJECTS, allowlist=None,
                     denylist=frozenset()):
    counts = Counter()
    for sentence in corpus:
        arcs = [
            a
            for a in sentence.arcs
            if (allowlist is None or a.relation in allowlist) and a.relation not in denylist
        ]
        for arc in arcs:
            if arc.head in vocab_set and arc.dependent in vocab_set:
                counts[(arc.head, arc.relation, arc.dependent)] += 1
                counts[(arc.dependent, inverse(arc.relation), arc.head)] += 1
        verb_positions = {a.head_pos for a in arcs if a.head.rpartition("-")[2] == "v"}
        for pos in verb_positions:
            subjects = {
                a.dependent
                for a in arcs
                if a.head_pos == pos and a.relation in subject_labels and a.dependent in vocab_set
            }
            objects = {
                a.dependent
                for a in arcs
                if a.head_pos == pos and a.relation in object_labels and a.dependent in vocab_set
            }
            for subj in subjects:
                for obj in objects:
                    counts[(subj, VERB_LINK, obj)] += 1
                    counts[(obj, inverse(VERB_LINK), subj)] += 1
    return counts


def naive_window(corpus, vocab_set, width=DEFAULTS.window_width,
                 filtered_positions=DEFAULTS.window_filtered_positions):
    counts = Counter()
    for sentence in corpus:
        if filtered_positions:
            positions = [t for t in sentence.tokens if t is not None and t in vocab_set]
        else:
            positions = list(sentence.tokens)
        n = len(positions)
        for i in range(n):
            for j in range(n):
                if i == j or abs(i - j) > width:
                    continue
                target, context = positions[i], positions[j]
                if target is None or context is None:
                    continue
                if target in vocab_set and context in vocab_set:
                    counts[(target, "WINDOW", context)] += 1
    return counts


def tensor_counts(tensor):
    return Counter({(t, r, f): c for (t, r, f), c in tensor.counts.items()})


def relations(tensor):
    return sorted({r for (_, r, _) in tensor.counts})


ORACLE_CORPORA = [(11, 60, 1), (22, 200, 2), (33, 500, 3)]


class TestCountingOracle:
    @pytest.mark.parametrize("seed,n_sentences,threshold", ORACLE_CORPORA)
    def test_dependency_matches_naive_recount(self, seed, n_sentences, threshold):
        corpus = parse_text(random_corpus_text(seed, n_sentences))
        vocab = vocabulary(corpus, threshold)
        tensor = dependency_counts(corpus, vocab)
        assert tensor_counts(tensor) == naive_dependency(corpus, vocab.entries)

    @pytest.mark.parametrize("seed,n_sentences,threshold", ORACLE_CORPORA)
    @pytest.mark.parametrize("width,filtered", [(1, False), (2, False), (2, True), (3, False)])
    def test_window_matches_naive_recount(self, seed, n_sentences, threshold, width, filtered):
        corpus = parse_text(random_corpus_text(seed, n_sentences))
        vocab = vocabulary(corpus, threshold)
        tensor = window_counts(corpus, vocab, width=width, filtered_positions=filtered)
        assert tensor_counts(tensor) == naive_window(
            corpus, vocab.entries, width=width, filtered_positions=filtered
        )

    @pytest.mark.parametrize("seed,n_sentences,threshold", ORACLE_CORPORA)
    def test_vocabulary_matches_naive_count(self, seed, n_sentences, threshold):
        corpus = parse_text(random_corpus_text(seed, n_sentences))
        vocab = vocabulary(corpus, threshold)
        assert vocab.entries == naive_vocabulary(corpus, threshold)

    def test_checked_in_corpora_match_oracle(self, fixture_paths):
        for key in ("bicknell_corpus", "chow_corpus"):
            corpus = parse_text(open(fixture_paths[key], encoding="utf-8").read())
            vocab = vocabulary(corpus, 3)
            deps = dependency_counts(corpus, vocab)
            assert tensor_counts(deps) == naive_dependency(corpus, vocab.entries)
            window = window_counts(corpus, vocab)
            assert tensor_counts(window) == naive_window(corpus, vocab.entries)


class TestVerbLink:
    def build(self, sentences, threshold=1, **kwargs):
        corpus = parse_text(conll_text(sentences))
        vocab = vocabulary(corpus, threshold)
        return dependency_counts(corpus, vocab, **kwargs), vocab

    def test_two_subjects_two_objects_link_all_pairs_once(self):
        tensor, _ = self.build(
            [
                [
                    ("dog", "NN", 3, "sbj"),
                    ("cat", "NN", 3, "sbj"),
                    ("see", "VB", 0, "root"),
                    ("bird", "NN", 3, "obj"),
                    ("fish", "NN", 3, "obj"),
                ]
            ]
        )
        for subj in ("dog", "cat"):
            for obj in ("bird", "fish"):
                assert tensor.counts.get((f"{subj}-n", VERB_LINK, f"{obj}-n"), 0) == 1
                assert tensor.counts.get((f"{obj}-n", inverse(VERB_LINK), f"{subj}-n"), 0) == 1

    def test_duplicate_arc_counts_twice_but_links_once(self):
        tensor, _ = self.build(
            [
                [
                    ("dog", "NN", 3, "sbj"),
                    ("dog", "NN", 3, "sbj"),
                    ("see", "VB", 0, "root"),
                    ("cat", "NN", 3, "obj"),
                ]
            ]
        )
        assert tensor.counts.get(("see-v", "sbj", "dog-n"), 0) == 2
        assert tensor.counts.get(("dog-n", VERB_LINK, "cat-n"), 0) == 1

    def test_two_verb_instances_link_independently(self):
        sentence = [
            ("dog", "NN", 2, "sbj"),
            ("see", "VB", 0, "root"),
            ("cat", "NN", 2, "obj"),
            ("dog", "NN", 5, "sbj"),
            ("see", "VB", 0, "root"),
            ("cat", "NN", 5, "obj"),
        ]
        tensor, _ = self.build([sentence])
        assert tensor.counts.get(("dog-n", VERB_LINK, "cat-n"), 0) == 2

    def test_out_of_vocab_verb_still_links_arguments(self):
        # dog/cat appear twice, see only once: with threshold 2 the verb is
        # below threshold, its arcs are dropped, but the co-argument link
        # remains because only the arguments must be in vocabulary.
        sentences = [
            [
                ("dog", "NN", 2, "sbj"),
                ("see", "VB", 0, "root"),
                ("cat", "NN", 2, "obj"),
            ],
            [("dog", "NN", 0, "root"), ("cat", "NN", 0, "root")],
        ]
        tensor, vocab = self.build(sentences, threshold=2)
        assert "see-v" not in vocab
        assert tensor.counts.get(("see-v", "sbj", "dog-n"), 0) == 0
        assert tensor.counts.get(("dog-n", VERB_LINK, "cat-n"), 0) == 1

    def test_out_of_vocab_argument_blocks_link(self):
        sentences = [
            [
                ("dog", "NN", 2, "sbj"),
                ("see", "VB", 0, "root"),
                ("cat", "NN", 2, "obj"),
            ],
            [("dog", "NN", 0, "root"), ("see", "VB", 0, "root")],
        ]
        tensor, vocab = self.build(sentences, threshold=2)
        assert "cat-n" not in vocab
        assert tensor.counts.get(("dog-n", VERB_LINK, "cat-n"), 0) == 0

    def test_noun_head_never_links(self):
        tensor, _ = self.build(
            [
                [
                    ("dog", "NN", 2, "sbj"),
                    ("cat", "NN", 0, "root"),
                    ("bird", "NN", 2, "obj"),
                ]
            ]
        )
        assert all(r != VERB_LINK for r in relations(tensor))

    def test_denylist_removes_arcs_and_links(self):
        sentence = [
            ("dog", "NN", 2, "sbj"),
            ("see", "VB", 0, "root"),
            ("cat", "NN", 2, "obj"),
        ]
        tensor, _ = self.build([sentence], denylist=frozenset({"sbj"}))
        assert tensor.counts.get(("see-v", "sbj", "dog-n"), 0) == 0
        assert tensor.counts.get(("see-v", "obj", "cat-n"), 0) == 1
        assert all(r != VERB_LINK for r in relations(tensor))

    def test_allowlist_keeps_only_named_relations(self):
        sentence = [
            ("dog", "NN", 2, "sbj"),
            ("see", "VB", 0, "root"),
            ("cat", "NN", 2, "obj"),
        ]
        tensor, _ = self.build([sentence], allowlist=frozenset({"obj"}))
        assert relations(tensor) == ["obj", "obj_inv"]

    def test_custom_argument_labels(self):
        sentence = [
            ("dog", "NN", 2, "nsubj"),
            ("see", "VB", 0, "root"),
            ("cat", "NN", 2, "dobj"),
        ]
        tensor, _ = self.build(
            [sentence],
            subject_labels=frozenset({"nsubj"}),
            object_labels=frozenset({"dobj"}),
        )
        assert tensor.counts.get(("dog-n", VERB_LINK, "cat-n"), 0) == 1


class TestWindow:
    def test_gap_widens_raw_distance(self):
        # dog [unmapped] cat: raw distance 2, filtered distance 1
        sentence = [("dog", "NN", 0, "root"), ("the", "DT", 0, "root"), ("cat", "NN", 0, "root")]
        corpus = parse_text(conll_text([sentence]))
        vocab = vocabulary(corpus, 1)
        raw1 = window_counts(corpus, vocab, width=1)
        assert raw1.total == 0
        raw2 = window_counts(corpus, vocab, width=2)
        assert raw2.counts.get(("dog-n", "WINDOW", "cat-n"), 0) == 1
        filtered1 = window_counts(corpus, vocab, width=1, filtered_positions=True)
        assert filtered1.counts.get(("dog-n", "WINDOW", "cat-n"), 0) == 1

    def test_counts_are_symmetric(self):
        corpus = parse_text(random_corpus_text(7, 80))
        vocab = vocabulary(corpus, 1)
        tensor = window_counts(corpus, vocab, width=2)
        for (t, r, f), c in tensor.counts.items():
            assert tensor.counts[(f, r, t)] == c

    def test_width_validation(self):
        with pytest.raises(ValueError):
            extract_window_counts([], Vocabulary({}, 1, True), 0, False)


class TestVocabulary:
    def test_threshold_boundary_inclusive_vs_exclusive(self):
        freq = {"dog-n": 3, "cat-n": 2}
        assert "dog-n" in Vocabulary(freq, 3, True)
        assert "cat-n" not in Vocabulary(freq, 3, True)
        assert "dog-n" not in Vocabulary(freq, 3, inclusive=False)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Vocabulary({}, 0, True)

    def test_save_load_round_trip(self, tmp_path):
        freq = {"dog-n": 5, "cat-n": 1}
        vocab = Vocabulary(freq, 2, True)
        path = str(tmp_path / "vocab.tsv")
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path, 2, True)
        assert loaded.frequency == freq
        assert loaded.entries == vocab.entries
        # the full table is stored, so a different threshold can be reapplied
        assert "cat-n" in load_vocabulary(path, 1, True)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("cat-n\t1\ndog-n\t0\n", "count 0 of dog-n is below 1"),
            ("cat-n\t1\ndog-n\t-2\n", "count -2 of dog-n is below 1"),
            ("dog-n\t5\ndog-n\t7\n", "repeated token dog-n"),
        ],
    )
    def test_bad_count_or_repeated_token_names_its_line(self, tmp_path, body, message):
        path = str(tmp_path / "vocab.tsv")
        write_artifact(path, body, {})
        with pytest.raises(CorpusError, match=f"vocab.tsv:2: {message}"):
            load_vocabulary(path, 1, True)

    def test_tamper_detection(self, tmp_path):
        vocab = Vocabulary({"dog-n": 5}, 1, True)
        path = str(tmp_path / "vocab.tsv")
        save_vocabulary(vocab, path)
        open(path, "a").write("zebra-n\t9\n")
        with pytest.raises(ConsistencyError):
            load_vocabulary(path, 1, True)

