import json

import pytest

from dialogrl.domain import (
    DEFAULT_GOAL_COUNTS,
    DialogAct,
    INFORMABLE_SLOTS,
    Intent,
    Slot,
    UserGoal,
    default_roster,
    generate_goal_set,
    generate_kb,
    kb_query,
    load_goals,
    load_kb,
    normalize_value,
    save_goals,
    save_kb,
)
from dialogrl.errors import GenerationError, ParseError


def brute_force_query(kb, constraints):
    # Independent of the indexed implementation: plain linear scan.
    out = []
    for rec in kb.records:
        ok = True
        for slot, want in constraints.items():
            have = rec.values.get(slot)
            if have is None or normalize_value(have) != normalize_value(want):
                ok = False
                break
        if ok:
            out.append(rec)
    return out


def test_slot_and_intent_indices_are_bijections():
    assert len(Slot) == 16
    assert sorted(int(s) for s in Slot) == list(range(16))
    assert len(Intent) == 11
    assert sorted(int(i) for i in Intent) == list(range(11))
    assert len({s.label for s in Slot}) == 16


def test_default_roster_cardinalities():
    roster = default_roster()
    assert roster.n_agent_actions == 29
    assert roster.n_user_actions == 35
    # index lookup round-trips through realized acts
    for i, act in enumerate(roster.user_actions):
        assert roster.user_index(act) == i


def test_roster_index_ignores_attached_informs():
    roster = default_roster()
    bare = DialogAct(Intent.REQUEST, request_slots=(Slot.STARTTIME,))
    carrying = DialogAct(
        Intent.REQUEST, {Slot.MOVIENAME: "midnight empire"}, (Slot.STARTTIME,)
    )
    assert roster.user_index(bare) == roster.user_index(carrying)


def test_generate_kb_paper_size():
    kb = generate_kb(seed=7, n_movies=991)
    assert len(kb) == 991
    for rec in kb.records:
        assert Slot.MOVIENAME in rec.values
        assert all(v for v in rec.values.values())
        assert set(rec.values) == set(INFORMABLE_SLOTS)


def test_generate_kb_boundary_and_errors():
    assert len(generate_kb(seed=7, n_movies=1)) == 1
    with pytest.raises(GenerationError):
        generate_kb(seed=7, n_movies=0)


def test_generate_kb_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_kb(generate_kb(seed=7, n_movies=50), a)
    save_kb(generate_kb(seed=7, n_movies=50), b)
    assert a.read_bytes() == b.read_bytes()


def test_kb_query_trivial_cases():
    kb = generate_kb(seed=3, n_movies=40)
    assert kb_query(kb, {}) == kb.records
    assert kb_query(kb, {Slot.MOVIENAME: "no-such-film"}) == []


def test_kb_query_matches_brute_force_oracle():
    kb = generate_kb(seed=11, n_movies=200)
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(50):
        rec = kb.records[int(rng.integers(len(kb)))]
        slots = [INFORMABLE_SLOTS[i] for i in rng.permutation(len(INFORMABLE_SLOTS))[: int(rng.integers(1, 4))]]
        constraints = {s: rec.values[s] for s in slots}
        got = kb_query(kb, constraints)
        want = brute_force_query(kb, constraints)
        assert got == want
        assert rec in got


def test_hits_matches_record_scan_on_messy_values():
    # Spellings of one value that differ in case and surrounding whitespace
    # each hit what a scan with MovieRecord.matches finds, on first and on
    # repeated queries.
    import numpy as np

    kb = generate_kb(seed=11, n_movies=200)
    rng = np.random.default_rng(1)
    messy = [str.upper, str.title, lambda v: f"  {v}\t", lambda v: f" {v.upper()} ", str]
    for _ in range(60):
        rec = kb.records[int(rng.integers(len(kb)))]
        slots = [INFORMABLE_SLOTS[i] for i in rng.permutation(len(INFORMABLE_SLOTS))[: int(rng.integers(1, 4))]]
        constraints = {s: messy[int(rng.integers(len(messy)))](rec.values[s]) for s in slots}
        if rng.random() < 0.2:
            constraints[slots[0]] = " No Such Value "
        for _ in range(2):
            want = {i for i, r in enumerate(kb.records) if r.matches(constraints)}
            assert set(kb.hits(constraints)) == want
            assert kb.match_count(constraints) == len(want)
    assert set(kb.hits({})) == set(range(len(kb)))


def test_kb_query_record_containing_pair():
    kb = generate_kb(seed=5, n_movies=60)
    rec = kb.records[17]
    hits = kb_query(kb, {Slot.MOVIENAME: rec.values[Slot.MOVIENAME], Slot.CITY: rec.values[Slot.CITY]})
    assert rec in hits


def test_goal_set_default_counts():
    kb = generate_kb(seed=7, n_movies=200)
    goals = generate_goal_set(kb, DEFAULT_GOAL_COUNTS, seed=7)
    assert len(goals) == 137
    by_k = {}
    for g in goals:
        by_k[len(g.request_slots)] = by_k.get(len(g.request_slots), 0) + 1
    assert by_k == DEFAULT_GOAL_COUNTS
    for g in goals:
        assert Slot.TICKET in g.request_slots
        assert not set(g.request_slots) & set(g.inform_slots)
        # satisfiable against the KB oracle
        assert brute_force_query(kb, g.inform_slots)


def test_goal_set_minimal():
    kb = generate_kb(seed=7, n_movies=30)
    goals = generate_goal_set(kb, {1: 1}, seed=0)
    assert len(goals) == 1
    assert goals[0].request_slots == (Slot.TICKET,)


def test_goal_set_deterministic():
    kb = generate_kb(seed=7, n_movies=100)
    a = generate_goal_set(kb, {1: 5, 3: 4}, seed=21)
    b = generate_goal_set(kb, {1: 5, 3: 4}, seed=21)
    assert [g.to_json() for g in a] == [g.to_json() for g in b]


def test_goal_set_counts_must_not_be_negative():
    kb = generate_kb(seed=7, n_movies=30)
    with pytest.raises(GenerationError, match="must be >= 0, got -5"):
        generate_goal_set(kb, {1: 2, 2: -5}, seed=0)
    assert len(generate_goal_set(kb, {1: 2, 2: 0}, seed=0)) == 2


def test_goal_set_exhaustion_fails():
    kb = generate_kb(seed=7, n_movies=1)
    with pytest.raises(GenerationError):
        generate_goal_set(kb, {1: 5000}, seed=0)


def test_goal_roundtrip(tmp_path):
    kb = generate_kb(seed=7, n_movies=150)
    goals = generate_goal_set(kb, DEFAULT_GOAL_COUNTS, seed=7)
    path = tmp_path / "goals.json"
    save_goals(goals, path)
    loaded = load_goals(path)
    assert [g.to_json() for g in loaded] == [g.to_json() for g in goals]


def test_kb_roundtrip(tmp_path):
    kb = generate_kb(seed=9, n_movies=25)
    path = tmp_path / "kb.json"
    save_kb(kb, path)
    loaded = load_kb(path)
    assert loaded.to_json() == kb.to_json()


@pytest.mark.parametrize("slot", INFORMABLE_SLOTS, ids=lambda s: s.label)
def test_load_kb_rejects_record_missing_a_slot(tmp_path, slot):
    # an agent inform of a slot reads it from any matching record
    records = generate_kb(seed=9, n_movies=3).to_json()
    del records[1][slot.label]
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(records))
    with pytest.raises(ParseError, match=f"KB record missing {slot.label}$"):
        load_kb(path)


def test_load_truncated_file(tmp_path):
    path = tmp_path / "goals.json"
    path.write_text('[{"request_slots": ["ticket"], "inform_')
    with pytest.raises(ParseError):
        load_goals(path)


def test_load_unknown_slot_names_offender(tmp_path):
    path = tmp_path / "goals.json"
    path.write_text(json.dumps([{"request_slots": ["ticket", "wormhole"], "inform_slots": {}}]))
    with pytest.raises(ParseError, match="wormhole"):
        load_goals(path)


def test_goal_validation_rules():
    with pytest.raises(ParseError):
        UserGoal((Slot.THEATER,), {}).validate()  # no ticket
    with pytest.raises(ParseError):
        UserGoal(
            (Slot.TICKET, Slot.DATE),
            {Slot.DATE: "today"},
        ).validate()
