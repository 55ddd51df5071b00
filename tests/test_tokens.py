import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argex.errors import ConfigError
from argex.tokens import (
    TOKEN,
    Token,
    canonical_checker,
    coarse_pos,
    compile_pos_map,
    inverse,
    is_inverse,
    normalize,
    parse_canonical,
)

from conftest import POS_MAP


class TestToken:
    def test_canonical_round_trip(self):
        token = Token("waitress", "n")
        assert token.canonical == "waitress-n"
        assert parse_canonical("waitress-n") == token

    def test_hyphenated_lemma_round_trips(self):
        token = Token("mother-in-law", "n")
        assert parse_canonical(token.canonical) == token

    def test_ordering_follows_canonical(self):
        tokens = [Token("b", "v"), Token("a", "n"), Token("a", "v")]
        assert sorted(t.canonical for t in tokens) == ["a-n", "a-v", "b-v"]

    @pytest.mark.parametrize("lemma", ["", " ", "two words", "tab\there"])
    def test_rejects_bad_lemma(self, lemma):
        with pytest.raises(ValueError):
            Token(lemma, "n")

    def test_rejects_unknown_pos(self):
        with pytest.raises(ValueError):
            Token("cat", "x")

    def test_equal_hashed_and_ordered_as_the_lemma_pos_pair(self):
        a, b = Token("cat", "n"), Token("cat", "n")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert Token("cat", "n") != Token("cat", "v")
        assert Token("a", "v") < Token("b", "n") and Token("a", "n") < Token("a", "v")
        ordered = [Token("a", "n"), Token("a", "v"), Token("b", "n")]
        assert sorted(reversed(ordered)) == ordered
        assert str(a) == "cat-n"

    def test_immutable(self):
        token = Token("cat", "n")
        with pytest.raises(AttributeError):
            token.lemma = "dog"
        with pytest.raises(AttributeError):
            token.extra = 1
        assert token == Token("cat", "n")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Token(lemma="two words", pos="n"),
            lambda: Token("cat", "n")._replace(lemma=""),
            lambda: Token("cat", "n")._replace(pos="j"),
            lambda: Token._make(("cat", "x")),
        ],
        ids=["keywords", "replace-lemma", "replace-tag", "make"],
    )
    def test_every_construction_is_checked(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("text", ["plain", "-n", "cat-j"])
    def test_parse_canonical_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_canonical(text)
        with pytest.raises(ValueError):
            canonical_checker()(text)

    def test_checker_returns_one_copy_per_string(self):
        check = canonical_checker()
        first = "".join(["mother-in-law", "-n"])
        assert check(first) is first
        again = "".join(["mother-in-law", "-n"])
        assert again is not first and check(again) is first
        assert parse_canonical(first).canonical == first

    def test_a_checker_within_a_vocabulary_refuses_every_other_token(self):
        check = canonical_checker(frozenset({"dog-n", "see-v"}))
        assert check("dog-n") == "dog-n"
        with pytest.raises(ValueError, match="^cat-n is not a token of the vocabulary$"):
            check("cat-n")
        with pytest.raises(ValueError, match="not a lemma-pos rendering"):  # the lemma-pos rule comes first
            check("dog")
        assert canonical_checker()("cat-n") == "cat-n"

    # strings near the boundary of the rule: hyphens, tags, other letters and whitespace of each kind
    NEAR_TOKENS = st.text(st.sampled_from("-----nnnvvvxa \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=8)

    @settings(max_examples=500, deadline=None)
    @given(text=st.text() | NEAR_TOKENS)
    def test_the_token_pattern_is_the_checkers_rule(self, text):
        # blocks.tsv's line pattern checks the vocabulary with TOKEN, the tensor and vocabulary loaders with
        # canonical_checker: the two accept the same strings, which parse_canonical parses
        def accepts(check) -> bool:
            try:
                check(text)
            except ValueError:
                return False
            return True

        fits = re.fullmatch(TOKEN, text) is not None
        assert fits == accepts(canonical_checker()) == accepts(parse_canonical)


class TestInverse:
    def test_inverse_appends_suffix(self):
        assert inverse("sbj") == "sbj_inv"
        assert is_inverse("sbj_inv")
        assert not is_inverse("sbj")


class TestPosMap:
    def test_default_prefixes(self):
        assert coarse_pos("NN", POS_MAP) == "n"
        assert coarse_pos("NNS", POS_MAP) == "n"
        assert coarse_pos("VBZ", POS_MAP) == "v"
        assert coarse_pos("JJ", POS_MAP) is None
        assert coarse_pos("", POS_MAP) is None

    def test_longest_prefix_wins(self):
        rules = compile_pos_map("N:n,NP:v")
        assert coarse_pos("NP", rules) == "v"
        assert coarse_pos("NN", rules) == "n"

    @pytest.mark.parametrize("text", ["N", ":n", "N:", "N:x", "N:n:v"])
    def test_rejects_malformed_entries(self, text):
        with pytest.raises(ConfigError):
            compile_pos_map(text)


class TestNormalize:
    def test_lowercases_lemma(self):
        assert normalize("Waitress", "NN", POS_MAP) == "waitress-n"

    def test_unmapped_pos_is_none(self):
        assert normalize("the", "DT", POS_MAP) is None

    def test_empty_lemma_is_none(self):
        assert normalize("", "NN", POS_MAP) is None
        assert normalize("two words", "NN", POS_MAP) is None

    def test_custom_map(self):
        rules = compile_pos_map("NOUN:n,VERB:v")
        assert normalize("Dog", "NOUN", rules) == "dog-n"
        assert normalize("dog", "NN", rules) is None
