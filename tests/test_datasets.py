import pytest

from argex.datasets import (
    BicknellMode,
    bicknell_mode_of_header,
    load_bicknell,
    load_chow,
)
from argex.errors import DatasetError
from argex.tokens import Token

ACC1_HEADER = "item_id\tagent\tverb\tpatient_congruent\tpatient_incongruent"
ACC2_HEADER = "item_id\tagent_congruent\tagent_incongruent\tverb\tpatient"
CHOW_HEADER = "item_id\tverb\tnoun1\tnoun2"


def write(tmp_path, text):
    path = tmp_path / "data.tsv"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestBicknellAcc1:
    def test_loads_and_duplicates_shared_agent(self, tmp_path):
        path = write(
            tmp_path,
            f"{ACC1_HEADER}\nb1\tpoliceman-n\tarrest-v\tburglar-n\tsinger-n\n",
        )
        items = load_bicknell(path)
        assert len(items) == 1
        item = items[0]
        assert item.item_id == "b1"
        assert item.agent_congruent == item.agent_incongruent == Token("policeman", "n")
        assert item.verb == Token("arrest", "v")
        assert item.patient_congruent == Token("burglar", "n")
        assert item.patient_incongruent == Token("singer", "n")

    def test_mode_is_inferred(self, tmp_path):
        path = write(tmp_path, f"{ACC1_HEADER}\nb1\ta-n\tv-v\tx-n\ty-n\n")
        assert load_bicknell(path, mode=BicknellMode.ACC1)
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path, mode=BicknellMode.ACC2)
        assert "acc1" in str(exc.value)

    def test_identical_patients_rejected(self, tmp_path):
        path = write(tmp_path, f"{ACC1_HEADER}\nb1\ta-n\tv-v\tx-n\tx-n\n")
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path)
        assert "line 2" in str(exc.value)


class TestBicknellAcc2:
    def test_loads_and_duplicates_shared_patient(self, tmp_path):
        path = write(
            tmp_path,
            f"{ACC2_HEADER}\nb1\tjournalist-n\tmechanic-n\tcheck-v\tspelling-n\n",
        )
        item = load_bicknell(path)[0]
        assert item.agent_congruent == Token("journalist", "n")
        assert item.agent_incongruent == Token("mechanic", "n")
        assert item.patient_congruent == item.patient_incongruent == Token("spelling", "n")

    def test_identical_agents_rejected(self, tmp_path):
        path = write(tmp_path, f"{ACC2_HEADER}\nb1\ta-n\ta-n\tv-v\tx-n\n")
        with pytest.raises(DatasetError):
            load_bicknell(path)


class TestBicknellCommon:
    def test_empty_file_is_empty_dataset(self, tmp_path):
        assert load_bicknell(write(tmp_path, "")) == []

    def test_unknown_header_rejected(self, tmp_path):
        path = write(tmp_path, "id\tx\ty\tz\tw\nb1\ta-n\tv-v\tx-n\ty-n\n")
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path)
        assert "header" in str(exc.value)

    def test_mode_of_header(self):
        assert bicknell_mode_of_header(ACC1_HEADER.split("\t")) is BicknellMode.ACC1
        assert bicknell_mode_of_header(ACC2_HEADER.split("\t")) is BicknellMode.ACC2

    def test_wrong_column_count_names_line(self, tmp_path):
        path = write(tmp_path, f"{ACC1_HEADER}\nb1\ta-n\tv-v\tx-n\n")
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path)
        assert "line 2" in str(exc.value)

    def test_duplicate_item_id_rejected(self, tmp_path):
        rows = "b1\ta-n\tv-v\tx-n\ty-n"
        path = write(tmp_path, f"{ACC1_HEADER}\n{rows}\n{rows}\n")
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path)
        assert "duplicate" in str(exc.value)
        assert "line 3" in str(exc.value)

    def test_empty_item_id_rejected(self, tmp_path):
        path = write(tmp_path, f"{ACC1_HEADER}\n\ta-n\tv-v\tx-n\ty-n\n")
        with pytest.raises(DatasetError):
            load_bicknell(path)

    def test_pos_enforced_per_column(self, tmp_path):
        path = write(tmp_path, f"{ACC1_HEADER}\nb1\ta-n\tv-n\tx-n\ty-n\n")
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path)
        assert "verb" in str(exc.value)
        path = write(tmp_path, f"{ACC1_HEADER}\nb1\ta-v\tv-v\tx-n\ty-n\n")
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path)
        assert "noun" in str(exc.value)

    def test_malformed_token_names_line(self, tmp_path):
        path = write(tmp_path, f"{ACC1_HEADER}\nb1\tagent\tv-v\tx-n\ty-n\n")
        with pytest.raises(DatasetError) as exc:
            load_bicknell(path)
        assert "line 2" in str(exc.value)

    def test_blank_lines_and_crlf_tolerated(self, tmp_path):
        text = f"{ACC1_HEADER}\r\n\r\nb1\ta-n\tv-v\tx-n\ty-n\r\n\n"
        items = load_bicknell(write(tmp_path, text))
        assert len(items) == 1

    def test_missing_file(self):
        with pytest.raises(DatasetError):
            load_bicknell("/nonexistent/data.tsv")


class TestChow:
    def test_loads_items(self, tmp_path):
        path = write(tmp_path, f"{CHOW_HEADER}\nc1\tserve-v\tcustomer-n\twaitress-n\n")
        item = load_chow(path)[0]
        assert item.item_id == "c1"
        assert item.verb == Token("serve", "v")
        assert item.noun1 == Token("customer", "n")
        assert item.noun2 == Token("waitress", "n")

    def test_empty_file(self, tmp_path):
        assert load_chow(write(tmp_path, "")) == []

    def test_unknown_header(self, tmp_path):
        path = write(tmp_path, "verb\tnoun1\tnoun2\nserve-v\ta-n\tb-n\n")
        with pytest.raises(DatasetError):
            load_chow(path)

    def test_pos_enforced(self, tmp_path):
        path = write(tmp_path, f"{CHOW_HEADER}\nc1\tserve-n\ta-n\tb-n\n")
        with pytest.raises(DatasetError):
            load_chow(path)

    def test_duplicate_ids(self, tmp_path):
        row = "c1\tserve-v\ta-n\tb-n"
        path = write(tmp_path, f"{CHOW_HEADER}\n{row}\n{row}\n")
        with pytest.raises(DatasetError):
            load_chow(path)

    def test_same_noun_twice_is_allowed(self, tmp_path):
        # both role assignments are then genuinely symmetric; loading is not
        # the place to forbid it
        path = write(tmp_path, f"{CHOW_HEADER}\nc1\tserve-v\ta-n\ta-n\n")
        assert len(load_chow(path)) == 1

    def test_checked_in_fixtures_load(self, fixture_paths):
        acc1 = load_bicknell(fixture_paths["bicknell_acc1"], mode=BicknellMode.ACC1)
        acc2 = load_bicknell(fixture_paths["bicknell_acc2"], mode=BicknellMode.ACC2)
        chow = load_chow(fixture_paths["chow50"])
        assert len(acc1) == 10
        assert len(acc2) == 10
        assert len(chow) == 50
        assert {i.item_id for i in acc1} == {i.item_id for i in acc2}
