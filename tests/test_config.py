"""The knob registry's contract: env-string parsing round-trips for
every declared knob, bad values raise the typed :class:`ConfigError`,
and — the bit-identity half — every default matches what the old
scattered ``os.environ`` readers computed before PR 10 centralized
them."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import config
from repro.config import KNOBS, RETIRED, ConfigError
from repro.errors import ReproError

KNOB_NAMES = sorted(KNOBS)
INT_KNOBS = [n for n in KNOB_NAMES if KNOBS[n].kind == "int"]
FLAG_KNOBS = [n for n in KNOB_NAMES if KNOBS[n].kind == "flag"]
CHOICE_KNOBS = [n for n in KNOB_NAMES if KNOBS[n].kind == "choice"]
STR_KNOBS = [n for n in KNOB_NAMES if KNOBS[n].kind == "str"]


def test_every_knob_is_one_of_the_four_kinds():
    assert set(INT_KNOBS) | set(FLAG_KNOBS) | set(CHOICE_KNOBS) | set(
        STR_KNOBS
    ) == set(KNOB_NAMES)


# ---------------------------------------------------------------------------
# Round-trips: a value drawn from the knob's domain survives env encoding
# ---------------------------------------------------------------------------


#: Whitespace the old readers stripped; parsing must keep stripping it.
pad = st.text(alphabet=" \t", max_size=2)


@given(value=st.integers(-(10**9), 10**9), left=pad, right=pad)
@pytest.mark.parametrize("name", INT_KNOBS)
def test_int_knobs_round_trip(name, value, left, right):
    raw = f"{left}{value}{right}"
    minimum = KNOBS[name].minimum
    if minimum is not None and value < minimum:
        with pytest.raises(ConfigError, match=name):
            config.get(name, {name: raw})
    else:
        assert config.get(name, {name: raw}) == value


@given(
    token=st.sampled_from(sorted(config.ON_VALUES | config.OFF_VALUES)),
    casing=st.sampled_from([str.lower, str.upper, str.title]),
)
@pytest.mark.parametrize("name", FLAG_KNOBS)
def test_flag_knobs_round_trip_the_synonym_sets(name, token, casing):
    expected = token in config.ON_VALUES
    assert config.get(name, {name: casing(token)}) is expected


@pytest.mark.parametrize("name", CHOICE_KNOBS)
def test_choice_knobs_accept_exactly_their_choices(name):
    for choice in KNOBS[name].choices:
        assert config.get(name, {name: choice}) == choice
        assert config.get(name, {name: choice.upper()}) == choice


@given(value=st.text(min_size=1, max_size=30).filter(lambda s: s.strip()))
@pytest.mark.parametrize("name", STR_KNOBS)
def test_str_knobs_return_the_stripped_raw_string(name, value):
    assert config.get(name, {name: value}) == value.strip()


@pytest.mark.parametrize("name", KNOB_NAMES)
def test_empty_and_whitespace_mean_unset(name):
    default = KNOBS[name].default
    assert config.get(name, {}) == default
    assert config.get(name, {name: ""}) == default
    assert config.get(name, {name: "   "}) == default
    assert not config.is_set(name, {})
    assert not config.is_set(name, {name: "  "})
    assert config.is_set(name, {name: "x"})


# ---------------------------------------------------------------------------
# Bad values raise the typed error (which is also a ValueError, so the
# pre-registry except clauses keep working)
# ---------------------------------------------------------------------------


@given(garbage=st.text(min_size=1, max_size=20))
@pytest.mark.parametrize(
    "name", INT_KNOBS + FLAG_KNOBS + CHOICE_KNOBS
)
def test_out_of_domain_values_raise_config_error(name, garbage):
    knob = KNOBS[name]
    token = garbage.strip().lower()
    if not token:
        return  # whitespace means unset, covered above
    if knob.kind == "int":
        try:
            value = int(token)
        except ValueError:
            pass
        else:
            if knob.minimum is None or value >= knob.minimum:
                return  # in-domain draw; nothing to reject
    elif knob.kind == "flag":
        if token in config.ON_VALUES | config.OFF_VALUES:
            return
    elif token in knob.choices:
        return
    with pytest.raises(ConfigError) as err:
        config.get(name, {name: garbage})
    assert name in str(err.value)


def test_config_error_is_both_repro_error_and_value_error():
    assert issubclass(ConfigError, ReproError)
    assert issubclass(ConfigError, ValueError)


def test_unknown_and_retired_knobs_raise():
    # The undeclared name is the point of the test, hence the pragma.
    with pytest.raises(ConfigError, match="REPRO_NOT_A_KNOB"):  # repro-lint: disable=knob-discipline
        config.get("REPRO_NOT_A_KNOB", {})  # repro-lint: disable=knob-discipline
    for name in RETIRED:
        with pytest.raises(ConfigError, match="retired"):
            config.knob(name)


def test_retired_knob_set_in_the_environment_raises():
    # A stale setting of a retired knob must not silently run whatever
    # path survived it: every read fails, naming the stale knob.
    for name in RETIRED:
        with pytest.raises(ConfigError, match=name):
            config.get("REPRO_LP_BACKEND", {name: "off"})
        # Empty still means unset, as for live knobs.
        assert config.get("REPRO_LP_BACKEND", {name: "  "}) == "auto"


# ---------------------------------------------------------------------------
# Defaults are bit-identical to the pre-registry scattered readers
# ---------------------------------------------------------------------------

#: What each module computed before PR 10, copied from the old readers.
EXPECTED_DEFAULTS = {
    "REPRO_PLAN_CACHE_MAX": 512,
    "REPRO_CHECK_DISTINCT": False,
    "REPRO_LP_BACKEND": "auto",
    "REPRO_FAULTS": "",
    "REPRO_FAULTS_SEED": 0,
}


def test_defaults_match_the_old_scattered_readers():
    for name, expected in EXPECTED_DEFAULTS.items():
        assert config.get(name, {}) == expected, name
    # And the registry declares nothing beyond these.
    assert set(EXPECTED_DEFAULTS) == set(KNOB_NAMES)


def test_plan_cache_max_rejects_negative_caps(monkeypatch):
    # A negative cap would make the LRU eviction loop pop an empty cache
    # (a bare KeyError on the first plan compile), so it fails when read.
    name = "REPRO_PLAN_CACHE_MAX"
    for raw in ("-1", " -512 "):
        with pytest.raises(ConfigError, match=name):
            config.get(name, {name: raw})
    # 0 is legal and disables the plan caches.
    assert config.get(name, {name: "0"}) == 0
    from repro.datagen.large import large_fdchain_workload
    from repro.engine import database
    from repro.engine.binary_join import binary_join_plan

    monkeypatch.setattr(database, "PLAN_CACHE_MAX", 0)
    query, db = large_fdchain_workload(200)
    relation, _ = binary_join_plan(query, db)
    assert len(relation) > 0
    assert not db._tuple_plans


def test_get_default_override_distinguishes_set_from_unset():
    name = "REPRO_PLAN_CACHE_MAX"
    assert config.get(name, {}, default=0) == 0
    assert config.get(name, {name: "3"}, default=0) == 3
