"""Prototype building, composition folding, and slot-mapping laws."""

import pytest

from argex.errors import (
    ConfigError,
    EmptyPrototypeError,
    OutOfVocabularyError,
    SpaceMismatchError,
)
from argex.expectation import (
    Composition,
    ModelVariant,
    SlotQuery,
    VariantKind,
    build_prototype,
    compose,
    expectation_update,
    map_slot,
    score_filler,
)
from argex.space import cosine, multiply_vectors, sum_vectors, vector_of
from argex.tokens import ARG, Token, WINDOW, inverse

from conftest import conll_text, spaces_from_text


def mini_corpus_text() -> str:
    """Two chow-style families plus an of-phrase so ARG rankings exist."""
    sentences = []
    for w, x, y, u in [("serve", "waitress", "customer", "pay"), ("chase", "dog", "cat", "bite")]:
        for _ in range(2):
            sentences.append(
                [
                    ("the", "DT", 2, "det"),
                    (x, "NN", 3, "sbj"),
                    (w, "VB", 0, "root"),
                    ("the", "DT", 5, "det"),
                    (y, "NN", 3, "obj"),
                ]
            )
            sentences.append(
                [
                    ("the", "DT", 2, "det"),
                    (y, "NN", 3, "sbj"),
                    (u, "VB", 0, "root"),
                    ("the", "DT", 5, "det"),
                    (x, "NN", 3, "obj"),
                ]
            )
        sentences.append([(x, "NN", 0, "root"), ("of", "IN", 1, "prep"), (y, "NN", 1, "nmod")])
        sentences.append([(y, "NN", 0, "root"), ("of", "IN", 1, "prep"), (x, "NN", 1, "nmod")])
    return conll_text(sentences)


@pytest.fixture(scope="module")
def mini_spaces():
    return spaces_from_text(mini_corpus_text(), threshold=1)


DEPS = ModelVariant(VariantKind.DEPS, 10, Composition.SUM)
BOA = ModelVariant(VariantKind.BOA, 10, Composition.SUM)
BOW = ModelVariant(VariantKind.BOW, 10, Composition.SUM)


class TestVariantBasics:
    def test_labels(self):
        assert DEPS.label == "deps-sum-k10"
        assert ModelVariant(VariantKind.BOW, 20, Composition.MULT).label == "bow-mult-k20"

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            ModelVariant(VariantKind.DEPS, 0, Composition.SUM)

    def test_kind_parsing(self):
        assert VariantKind.from_string("deps") is VariantKind.DEPS
        assert Composition.from_string("mult") is Composition.MULT
        with pytest.raises(ConfigError):
            VariantKind.from_string("bag")
        with pytest.raises(ConfigError):
            Composition.from_string("avg")

    def test_map_slot(self):
        assert map_slot(VariantKind.DEPS, "sbj_inv") == "sbj_inv"
        assert map_slot(VariantKind.BOA, "sbj_inv") == ARG
        assert map_slot(VariantKind.BOW, "obj_inv") == WINDOW


class TestBuildPrototype:
    def test_prototype_is_sum_of_topk_vectors(self, mini_spaces):
        deps_space, _ = mini_spaces
        query = SlotQuery(Token("serve", "v"), "obj")
        proto = build_prototype(deps_space, DEPS, query)
        ranked = deps_space.index.ranking(query.input.canonical, "obj")[:DEPS.k]
        manual = sum_vectors([vector_of(deps_space, tok) for tok, _ in ranked])
        assert proto.vector == manual
        assert proto.space_id == deps_space.space_id
        assert proto.fillers == ranked

    def test_k1_prototype_is_single_filler_vector(self, mini_spaces):
        deps_space, _ = mini_spaces
        variant = ModelVariant(VariantKind.DEPS, 1, Composition.SUM)
        query = SlotQuery(Token("waitress", "n"), "sbj_inv")
        proto = build_prototype(deps_space, variant, query)
        top = deps_space.index.ranking(query.input.canonical, "sbj_inv")[0][0]
        assert proto.vector == vector_of(deps_space, top)

    def test_oov_input_raises(self, mini_spaces):
        deps_space, _ = mini_spaces
        with pytest.raises(OutOfVocabularyError):
            build_prototype(deps_space, DEPS, SlotQuery(Token("zebra", "n"), "sbj_inv"))

    def test_empty_ranking_raises_with_query_text(self, mini_spaces):
        deps_space, _ = mini_spaces
        query = SlotQuery(Token("serve", "v"), "nmod")  # verbs head no nmod arcs here
        with pytest.raises(EmptyPrototypeError) as exc:
            build_prototype(deps_space, DEPS, query)
        assert "serve-v" in str(exc.value)
        assert "nmod" in str(exc.value)

    def test_boa_requires_arg_slot(self, mini_spaces):
        deps_space, _ = mini_spaces
        with pytest.raises(ConfigError):
            build_prototype(deps_space, BOA, SlotQuery(Token("waitress", "n"), "sbj_inv"))

    def test_deps_rejects_pseudo_slots(self, mini_spaces):
        deps_space, _ = mini_spaces
        with pytest.raises(ConfigError):
            build_prototype(deps_space, DEPS, SlotQuery(Token("waitress", "n"), ARG))

    def test_bow_requires_window_slot(self, mini_spaces):
        _, window_space = mini_spaces
        with pytest.raises(ConfigError):
            build_prototype(window_space, BOW, SlotQuery(Token("waitress", "n"), ARG))

    def test_boa_uses_arg_rankings_over_deps_vectors(self, mini_spaces):
        deps_space, _ = mini_spaces
        proto = build_prototype(deps_space, BOA, SlotQuery(Token("waitress", "n"), ARG))
        ranked = deps_space.index.ranking("waitress-n", ARG)[:BOA.k]
        assert ranked
        manual = sum_vectors([vector_of(deps_space, tok) for tok, _ in ranked])
        assert proto.vector == manual


class TestCompose:
    def test_sum_and_mult(self, mini_spaces):
        deps_space, _ = mini_spaces
        p1 = build_prototype(deps_space, DEPS, SlotQuery(Token("waitress", "n"), "sbj_inv"))
        p2 = build_prototype(deps_space, DEPS, SlotQuery(Token("customer", "n"), "obj_inv"))
        summed = compose(p1, p2, Composition.SUM)
        assert summed.vector == sum_vectors([p1.vector, p2.vector])
        multiplied = compose(p1, p2, Composition.MULT)
        assert multiplied.vector == multiply_vectors(p1.vector, p2.vector)

    def test_cross_space_compose_rejected(self, mini_spaces):
        deps_space, window_space = mini_spaces
        p1 = build_prototype(deps_space, DEPS, SlotQuery(Token("waitress", "n"), "sbj_inv"))
        p2 = build_prototype(window_space, BOW, SlotQuery(Token("customer", "n"), WINDOW))
        with pytest.raises(SpaceMismatchError):
            compose(p1, p2, Composition.SUM)

    def test_cross_space_scoring_rejected(self, mini_spaces):
        deps_space, window_space = mini_spaces
        p1 = build_prototype(deps_space, DEPS, SlotQuery(Token("waitress", "n"), "sbj_inv"))
        with pytest.raises(SpaceMismatchError):
            score_filler(window_space, p1, Token("serve", "v"))


class TestExpectationUpdate:
    def test_single_input_equals_direct_cosine(self, mini_spaces):
        deps_space, _ = mini_spaces
        inputs = [SlotQuery(Token("waitress", "n"), "sbj_inv")]
        result = expectation_update(deps_space, DEPS, inputs, Token("serve", "v"))
        proto = build_prototype(deps_space, DEPS, inputs[0])
        assert result == cosine(vector_of(deps_space, "serve-v"), proto.vector)

    def test_two_inputs_fold_left(self, mini_spaces):
        deps_space, _ = mini_spaces
        inputs = [
            SlotQuery(Token("waitress", "n"), "sbj_inv"),
            SlotQuery(Token("customer", "n"), "obj_inv"),
        ]
        result = expectation_update(deps_space, DEPS, inputs, Token("serve", "v"))
        p1 = build_prototype(deps_space, DEPS, inputs[0])
        p2 = build_prototype(deps_space, DEPS, inputs[1])
        manual = compose(p1, p2, Composition.SUM)
        assert result == cosine(vector_of(deps_space, "serve-v"), manual.vector)

    def test_empty_inputs_rejected(self, mini_spaces):
        deps_space, _ = mini_spaces
        with pytest.raises(ConfigError):
            expectation_update(deps_space, DEPS, [], Token("serve", "v"))

    def test_mult_with_disjoint_prototypes_is_degenerate(self, mini_spaces):
        deps_space, _ = mini_spaces
        variant = ModelVariant(VariantKind.DEPS, 10, Composition.MULT)
        # serve's subject prototype (waitress row) and chase's subject
        # prototype (dog row) share no dimensions
        inputs = [
            SlotQuery(Token("serve", "v"), "sbj"),
            SlotQuery(Token("chase", "v"), "sbj"),
        ]
        result = expectation_update(deps_space, variant, inputs, Token("serve", "v"))
        assert result.value == 0.0
        assert result.degenerate

    def test_oov_candidate_raises(self, mini_spaces):
        deps_space, _ = mini_spaces
        inputs = [SlotQuery(Token("waitress", "n"), "sbj_inv")]
        with pytest.raises(OutOfVocabularyError):
            expectation_update(deps_space, DEPS, inputs, Token("zebra", "n"))


class TestSlotCollapseSymmetry:
    """Collapsed-slot variants cannot tell agent from patient.

    After slot mapping both inputs land on the same slot, so swapping the
    role assignment only permutes the input list; SUM and MULT are
    coordinate-wise commutative, so the scores agree bit for bit.
    """

    @pytest.mark.parametrize("comp", [Composition.SUM, Composition.MULT])
    @pytest.mark.parametrize("kind", [VariantKind.BOA, VariantKind.BOW])
    def test_swapped_inputs_score_identically(self, mini_spaces, kind, comp):
        deps_space, window_space = mini_spaces
        space = window_space if kind is VariantKind.BOW else deps_space
        index = deps_space.index if kind is VariantKind.BOA else None
        variant = ModelVariant(kind, 10, comp)
        slot = map_slot(kind, inverse("sbj"))
        for x, y, w in [
            ("waitress", "customer", "serve"),
            ("dog", "cat", "chase"),
            ("customer", "waitress", "pay"),
        ]:
            normal = [SlotQuery(Token(x, "n"), slot), SlotQuery(Token(y, "n"), slot)]
            swapped = [SlotQuery(Token(y, "n"), slot), SlotQuery(Token(x, "n"), slot)]
            a = expectation_update(space, variant, normal, Token(w, "v"), index=index)
            b = expectation_update(space, variant, swapped, Token(w, "v"), index=index)
            assert a.value == b.value  # bit-exact, not approximate

    @pytest.mark.parametrize("comp", [Composition.SUM, Composition.MULT])
    def test_deps_distinguishes_role_assignment(self, mini_spaces, comp):
        deps_space, _ = mini_spaces
        variant = ModelVariant(VariantKind.DEPS, 10, comp)
        x, y, w = "waitress", "customer", "serve"
        normal = [
            SlotQuery(Token(x, "n"), inverse("sbj")),
            SlotQuery(Token(y, "n"), inverse("obj")),
        ]
        reversed_ = [
            SlotQuery(Token(x, "n"), inverse("obj")),
            SlotQuery(Token(y, "n"), inverse("sbj")),
        ]
        a = expectation_update(deps_space, variant, normal, Token(w, "v"))
        b = expectation_update(deps_space, variant, reversed_, Token(w, "v"))
        assert a.value > b.value
