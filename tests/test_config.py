"""Config parsing, validation, and stage-scoped hashing."""

import pytest

from argex.cli import main
from argex.config import (
    INGEST_FIELDS,
    SPACE_FIELDS,
    PipelineConfig,
    config_from_items,
    _FIELD_PARSERS,
    _render_value,
    config_hash,
    ingest_hash,
    load_config,
    space_hash,
)
from argex.errors import ConfigError


class TestValidation:
    def test_defaults_construct(self):
        config = PipelineConfig()
        assert config.vocab_threshold == 1000
        assert config.k_values == (10, 20, 30, 40, 50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vocab_threshold": 0},
            {"window_width": 0},
            {"col_relation": -1},
            {"col_form": -1},
            {"boa_rank_mode": ""},
            {"k_values": (-10,)},
            {"boa_rank_mode": "median"},
            {"boa_space": "arg"},
            {"variant_kinds": ("deps", "bag")},
            {"compositions": ("sum", "avg")},
            {"variant_kinds": ()},
            {"compositions": ()},
            {"k_values": ()},
            {"k_values": (10, 0)},
            {"pos_map": "N:n,V"},
            {"out_dir": ""},
            {"out_dir": " \t"},
            {"bicknell_agent_slot": ""},
            {"bicknell_verb_slot": ""},
            {"chow_agent_slot": ""},
            {"chow_patient_slot": ""},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "items, named",
        [
            ({"k_values": "10,20,10"}, "k_values repeats 10"),
            ({"variant_kinds": "deps,boa,DEPS"}, "variant_kinds repeats 'deps'"),
            ({"compositions": "sum, Sum"}, "compositions repeats 'sum'"),
        ],
        ids=["k", "kind-after-lower-casing", "composition-after-lower-casing"],
    )
    def test_repeated_grid_entry_rejected_naming_it(self, items, named):
        # a repeat would run and write the same grid cell twice
        with pytest.raises(ConfigError) as caught:
            config_from_items(items)
        assert str(caught.value) == named

    def test_distinct_grid_entries_are_kept_as_written(self):
        config = config_from_items({"k_values": "30,10", "variant_kinds": "BOA,deps", "compositions": "mult,sum"})
        assert (config.k_values, config.variant_kinds, config.compositions) == (
            (30, 10), ("BOA", "deps"), ("mult", "sum"))

    def test_duplicate_column_indices_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            PipelineConfig(col_form=2, col_lemma=2)

    def test_log_base_is_an_unknown_config_key(self, tmp_path, capsys):
        # the log is natural; another base would rescale scores, never rankings
        conf = tmp_path / "argex.conf"
        conf.write_text("log_base=10\n", encoding="utf-8")
        code = main(["ingest", "-c", str(conf), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "unknown config key 'log_base'" in capsys.readouterr().err


class TestRecord:
    def test_immutable(self):
        config = PipelineConfig()
        with pytest.raises(AttributeError):
            config.vocab_threshold = 1
        with pytest.raises(AttributeError):
            config.extra = 1
        assert config.vocab_threshold == 1000

    def test_equal_and_hashed_by_value(self):
        a, b = PipelineConfig(vocab_threshold=5), config_from_items({"vocab_threshold": "5"})
        assert a == b and hash(a) == hash(b)
        assert a != PipelineConfig()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PipelineConfig(window_width=0),
            lambda: PipelineConfig(*(0 if name == "window_width" else value
                                     for name, value in PipelineConfig()._asdict().items())),
            lambda: PipelineConfig()._replace(window_width=0),
            lambda: PipelineConfig._make(0 if name == "window_width" else value
                                         for name, value in PipelineConfig()._asdict().items()),
            lambda: config_from_items({"window_width": "0"}),
        ],
        ids=["keywords", "positional", "replace", "make", "items"],
    )
    def test_every_construction_path_is_checked(self, make):
        with pytest.raises(ConfigError, match="window_width must be >= 1"):
            make()

    def test_the_keys_are_the_fields_in_order(self):
        assert tuple(_FIELD_PARSERS) == PipelineConfig._fields
        assert config_from_items({}) == PipelineConfig()


class TestCoercion:
    def test_int_and_bool_and_lists(self):
        config = config_from_items(
            {
                "vocab_threshold": " 17 ",
                "vocab_threshold_inclusive": "No",
                "window_filtered_positions": "TRUE",
                "corpus_paths": "a.conll, b.conll ,",
                "k_values": "5, 10",
                "subject_labels": "nsubj",
            }
        )
        assert config.vocab_threshold == 17
        assert config.vocab_threshold_inclusive is False
        assert config.window_filtered_positions is True
        assert config.corpus_paths == ("a.conll", "b.conll")
        assert config.k_values == (5, 10)
        assert config.subject_labels == ("nsubj",)

    @pytest.mark.parametrize(
        "items",
        [
            {"vocab_threshold": "many"},
            {"window_filtered_positions": "maybe"},
            {"k_values": "10,twenty"},
            {"no_such_key": "1"},
        ],
    )
    def test_bad_items_rejected(self, items):
        with pytest.raises(ConfigError):
            config_from_items(items)


class TestLoadConfig:
    def test_comments_blanks_and_overrides(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# pipeline settings\n"
            "\n"
            "vocab_threshold = 5   # inclusive\n"
            "corpus_paths = x.conll\n",
            encoding="utf-8",
        )
        config = load_config(str(path))
        assert config.vocab_threshold == 5
        assert config.corpus_paths == ("x.conll",)
        overridden = load_config(str(path), overrides={"vocab_threshold": "9"})
        assert overridden.vocab_threshold == 9

    def test_missing_equals_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("vocab_threshold 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.conf"))

    def test_checked_in_configs_load(self, fixture_paths):
        bicknell = load_config(str(fixture_paths["bicknell_config"]))
        assert bicknell.vocab_threshold == 3
        chow = load_config(str(fixture_paths["chow_config"]))
        assert chow.chow_path.endswith("chow50.tsv")


class TestCanonicalText:
    def test_hashed_renderings_round_trip_through_the_parser(self):
        config = PipelineConfig(
            corpus_paths=("a.conll", "b.conll"),
            vocab_threshold=7,
            vocab_threshold_inclusive=False,
            k_values=(5, 15),
            relation_denylist=("punct",),
        )
        # the hashes read each field as _render_value renders it
        items = {name: _render_value(value) for name, value in config._asdict().items()}
        assert config_from_items(items) == config


class TestHashing:
    def test_field_projections_nest(self):
        assert set(INGEST_FIELDS) < set(SPACE_FIELDS)
        assert "out_dir" not in SPACE_FIELDS

    def test_ingest_fields_change_every_hash(self):
        base = PipelineConfig()
        changed = base._replace(vocab_threshold=7)
        assert ingest_hash(changed) != ingest_hash(base)
        assert space_hash(changed) != space_hash(base)
        assert config_hash(changed) != config_hash(base)

    def test_weighting_fields_spare_the_ingest_hash(self):
        base = PipelineConfig()
        changed = base._replace(boa_rank_mode="max")
        assert ingest_hash(changed) == ingest_hash(base)
        assert space_hash(changed) != space_hash(base)
        assert config_hash(changed) != config_hash(base)

    def test_eval_fields_spare_ingest_and_space_hashes(self):
        base = PipelineConfig()
        changed = base._replace(k_values=(10,), chow_path="x.tsv")
        assert ingest_hash(changed) == ingest_hash(base)
        assert space_hash(changed) == space_hash(base)
        assert config_hash(changed) != config_hash(base)

    def test_out_dir_changes_no_hash(self):
        base = PipelineConfig()
        changed = base._replace(out_dir="elsewhere")
        assert ingest_hash(changed) == ingest_hash(base)
        assert space_hash(changed) == space_hash(base)
        assert config_hash(changed) == config_hash(base)

    def test_hashes_are_hex_sha256(self):
        digest = config_hash(PipelineConfig())
        assert len(digest) == 64
        int(digest, 16)
