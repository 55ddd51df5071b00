import pytest

from argex.conll import ColumnConfig, DependencyArc, ParseStats, parse_conll_file, parse_conll_stream
from argex.errors import CorpusError

from conftest import COLUMNS, POS_MAP, conll_text, parse_text


def parse(text: str, stats: ParseStats | None = None):
    return parse_text(text, stats)


class TestBasicParsing:
    def test_two_sentences(self):
        text = conll_text(
            [
                [("dog", "NN", 2, "sbj"), ("run", "VB", 0, "root")],
                [("cat", "NN", 0, "root")],
            ]
        )
        stats = ParseStats()
        records = parse(text, stats)
        assert [r.sentence_id for r in records] == [0, 1]
        assert records[0].tokens == ["dog-n", "run-v"]
        arc = records[0].arcs[0]
        assert (arc.head, arc.relation, arc.dependent) == ("run-v", "sbj", "dog-n")
        assert arc.head_pos == 1
        assert stats.sentences == 2
        assert stats.rows == 3
        assert stats.arcs == 1
        assert stats.malformed_rows == 0

    def test_missing_trailing_blank_line(self):
        text = conll_text([[("cat", "NN", 0, "root")]]).rstrip("\n")
        records = parse(text)
        assert len(records) == 1

    def test_comments_and_crlf(self):
        text = "# sent_id = 1\r\n1\tcat\tcat\tNN\tNN\t_\t0\troot\t_\t_\r\n\r\n"
        stats = ParseStats()
        records = parse(text, stats)
        assert records[0].tokens == ["cat-n"]
        assert stats.rows == 1  # the comment line is not a row

    def test_unmapped_pos_keeps_position(self):
        text = conll_text([[("the", "DT", 2, "det"), ("dog", "NN", 0, "root")]])
        records = parse(text)
        assert records[0].tokens == [None, "dog-n"]

    def test_first_sentence_id_offset(self):
        text = conll_text([[("cat", "NN", 0, "root")]])
        records = list(
            parse_conll_stream(text.splitlines(), COLUMNS, POS_MAP, first_sentence_id=7)
        )
        assert records[0].sentence_id == 7


class TestMalformedRows:
    def test_short_row_dropped_and_indices_reresolve(self):
        # Row 2 has too few fields to be a token; row 3's head still names row 1.
        lines = [
            "1\tdog\tdog\tNN\tNN\t_\t0\troot\t_\t_",
            "2\tbroken",
            "3\tsee\tsee\tVB\tVB\t_\t1\tnmod\t_\t_",
            "",
        ]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert stats.malformed_rows == 1
        assert records[0].tokens == ["dog-n", "see-v"]
        arc = records[0].arcs[0]
        assert arc.head == "dog-n"
        assert arc.dependent == "see-v"

    def test_heads_after_a_short_row_name_file_rows(self):
        # Row 2 is too short to be a token. Heads still count it: cat's head 3
        # is see, and dog's head 3 is see too.
        lines = [
            "1\tdog\tdog\tNN\tNN\t_\t3\tsbj\t_\t_",
            "2\tbroken",
            "3\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "4\tcat\tcat\tNN\tNN\t_\t3\tobj\t_\t_",
            "",
        ]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert records[0].tokens == ["dog-n", "see-v", "cat-n"]
        arcs = [(arc.head, arc.relation, arc.dependent, arc.head_pos) for arc in records[0].arcs]
        assert arcs == [("see-v", "sbj", "dog-n", 1), ("see-v", "obj", "cat-n", 1)]
        assert (stats.malformed_rows, stats.dropped_arcs) == (1, 0)

    def test_arc_headed_at_a_short_row_is_dropped(self):
        lines = [
            "1\tdog\tdog\tNN\tNN\t_\t3\tsbj\t_\t_",
            "2\tbroken",
            "3\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "4\tcat\tcat\tNN\tNN\t_\t2\tobj\t_\t_",
            "",
            "1\tbroken",
            "",
            "1\tcat\tcat\tNN\tNN\t_\t2\tobj\t_\t_",
            "2\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "3\tbird\tbird\tNN\tNN\t_\t4\tnmod\t_\t_",
            "",
        ]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert [(arc.head, arc.relation, arc.dependent) for arc in records[0].arcs] == [("see-v", "sbj", "dog-n")]
        # a sentence of short rows yields nothing, and the next one counts its rows afresh;
        # bird's head 4 is past the last row
        assert len(records) == 2
        assert [(arc.head, arc.relation, arc.dependent) for arc in records[1].arcs] == [("see-v", "obj", "cat-n")]
        assert (stats.malformed_rows, stats.dropped_arcs) == (3, 1)

    def test_self_headed_row_is_malformed_and_gives_no_arc(self):
        lines = [
            "1\tdog\tdog\tNN\tNN\t_\t1\tsbj\t_\t_",
            "2\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "",
            # after a short row, dog is file row 2 and headed at itself; cat's head 3 is see
            "1\tbroken",
            "2\tdog\tdog\tNN\tNN\t_\t2\tsbj\t_\t_",
            "3\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "4\tcat\tcat\tNN\tNN\t_\t3\tobj\t_\t_",
            "",
        ]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert records[0].tokens == ["dog-n", "see-v"]
        assert records[0].arcs == []
        assert [(arc.head, arc.relation, arc.dependent) for arc in records[1].arcs] == [("see-v", "obj", "cat-n")]
        assert (stats.malformed_rows, stats.dropped_arcs, stats.arcs) == (3, 0, 1)

    def test_token_kept_when_arc_fields_missing(self):
        lines = ["1\tdog\tdog\tNN\tNN\t_", ""]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert records[0].tokens == ["dog-n"]
        assert records[0].arcs == []
        assert stats.malformed_rows == 1

    @pytest.mark.parametrize("head", ["x", "9", "-1"])
    def test_bad_head_drops_arc_keeps_token(self, head):
        lines = [f"1\tdog\tdog\tNN\tNN\t_\t{head}\tsbj\t_\t_", ""]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert records[0].tokens == ["dog-n"]
        assert records[0].arcs == []
        assert stats.malformed_rows == 1

    @pytest.mark.parametrize("head", ["_", "", " _ ", "_ ", "  "])
    def test_unattached_head_is_not_malformed(self, head):
        lines = [f"1\tdog\tdog\tNN\tNN\t_\t{head}\tsbj\t_\t_", ""]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert records[0].arcs == []
        assert stats.malformed_rows == 0

    def test_empty_relation_is_malformed(self):
        lines = [
            "1\tdog\tdog\tNN\tNN\t_\t2\t\t_\t_",
            "2\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "",
        ]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert records[0].arcs == []
        assert stats.malformed_rows == 1

    def test_arc_to_unmapped_token_is_dropped(self):
        text = conll_text([[("the", "DT", 2, "det"), ("dog", "NN", 0, "root")]])
        stats = ParseStats()
        records = parse(text, stats)
        assert records[0].arcs == []
        assert stats.dropped_arcs == 1


class TestPaddedFields:
    # int() and str.strip() read a padded head or relation field as its trimmed value

    def test_padded_head_and_relation_make_the_same_arc(self):
        lines = [
            "1\tdog\tdog\tNN\tNN\t_\t 2 \t obj \t_\t_",
            "2\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "",
        ]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        arc = records[0].arcs[0]
        assert (arc.head, arc.relation, arc.dependent) == ("see-v", "obj", "dog-n")
        assert arc.head_pos == 1
        assert stats.malformed_rows == 0

    def test_signed_head_is_a_row_index(self):
        lines = [
            "1\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "2\tdog\tdog\tNN\tNN\t_\t+1\tobj\t_\t_",
            "",
        ]
        arc = list(parse_conll_stream(lines, COLUMNS, POS_MAP))[0].arcs[0]
        assert (arc.head, arc.relation, arc.dependent, arc.head_pos) == ("see-v", "obj", "dog-n", 0)

    def test_padded_relation_of_only_spaces_is_malformed(self):
        lines = [
            "1\tdog\tdog\tNN\tNN\t_\t2\t  \t_\t_",
            "2\tsee\tsee\tVB\tVB\t_\t0\troot\t_\t_",
            "",
        ]
        stats = ParseStats()
        records = list(parse_conll_stream(lines, COLUMNS, POS_MAP, stats=stats))
        assert records[0].arcs == []
        assert stats.malformed_rows == 1

    def test_arcs_share_one_string_per_relation_label(self):
        rows = [("dog", "NN", 2, "obj"), ("see", "VB", 0, "root"), ("cat", "NN", 2, "obj")]
        text = conll_text([rows])
        first, second = parse(text)[0].arcs
        assert first.relation == second.relation == "obj"
        assert first.relation is second.relation


class TestArcRecord:
    def test_field_names(self):
        fields = ("head", "relation", "dependent", "head_pos")
        assert DependencyArc._fields == fields

    def test_arcs_cannot_be_assigned_to(self):
        arc = parse(conll_text([[("dog", "NN", 2, "sbj"), ("run", "VB", 0, "root")]]))[0].arcs[0]
        for name in DependencyArc._fields:
            with pytest.raises(AttributeError):
                setattr(arc, name, None)


class TestCustomColumns:
    def test_remapped_columns(self):
        columns = ColumnConfig(form=0, lemma=1, pos=2, head=3, relation=4)
        lines = ["dogs\tdog\tNN\t2\tsbj", "saw\tsee\tVB\t0\troot", ""]
        records = list(parse_conll_stream(lines, columns, POS_MAP))
        arc = records[0].arcs[0]
        assert arc.head == "see-v"
        assert arc.dependent == "dog-n"


class TestFileParsing:
    def test_reads_file_and_tracks_stats(self, tmp_path):
        path = tmp_path / "corpus.conll"
        path.write_text(conll_text([[("cat", "NN", 0, "root")]]), encoding="utf-8")
        stats = ParseStats()
        records = list(parse_conll_file(str(path), COLUMNS, POS_MAP, stats=stats))
        assert len(records) == 1
        assert (stats.sentences, stats.rows) == (1, 1)

    def test_missing_file_raises(self):
        with pytest.raises(CorpusError):
            list(parse_conll_file("/nonexistent/corpus.conll", COLUMNS, POS_MAP))

    def test_invalid_utf8_raises(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_bytes(b"1\tdog\tdog\tNN\tNN\t_\t0\troot\t_\t_\xff\xfe\n")
        with pytest.raises(CorpusError):
            list(parse_conll_file(str(path), COLUMNS, POS_MAP))
