from corpus import EditSession, farm_corpus, near_miss
from oracle import judge


def texts(items):
    return [(item.name, item.text) for item in items]


def test_one_seed_gives_one_corpus_and_two_seeds_differ():
    assert texts(farm_corpus(7)) == texts(farm_corpus(7))
    assert texts(farm_corpus(7)) != texts(farm_corpus(8))
    assert sorted(item.name for item in farm_corpus(7)) == sorted(
        item.name for item in farm_corpus(8)
    )


def test_edit_sessions_repeat_per_seed():
    def play(seed):
        session = EditSession(seed, impls=10, fields=3)
        seen = [session.text()]
        for _ in range(4):
            for action, impl in session.round_edits():
                getattr(session, action)(impl)
                seen.append(session.text())
        return seen

    assert play(3) == play(3)
    assert play(3) != play(4)


def test_farm_make_up():
    items = farm_corpus(1)
    misses = [item for item in items if item.name.endswith("near-miss")]
    # at least 100 files, a third of them near-misses (see README)
    assert (len(items), len(misses)) == (101, 34)
    for item in misses:
        blames = [b for b in item.expected.values() if b is not None]
        assert len(blames) == 1
        line = item.text.splitlines()[blames[0].line - 1]
        assert f"t.{blames[0].attr} := " in line


def test_by_construction_answers_hold_on_small_files():
    import random

    from repro.api import check_program
    from repro.corpus.generators import generate_call_chain, generate_impl_farm

    small = sorted(farm_corpus(2), key=lambda item: len(item.text))[:12]
    for item in small:
        assert judge(check_program(item.text), item.expected) == [], item.name
    rng = random.Random(0)
    for text in (generate_call_chain(3), generate_impl_farm(3, 2)):
        item = near_miss("miss", text, rng)
        assert judge(check_program(item.text), item.expected) == []


def test_edits_keep_lines_in_place_and_answers_hold():
    from repro.api import check_program

    session = EditSession(5, impls=6, fields=2)
    lines = len(session.lines)
    for action, impl in session.round_edits() + session.round_edits():
        getattr(session, action)(impl)
        assert len(session.lines) == lines
        assert judge(check_program(session.text()), session.expected()) == []


def test_every_round_ends_on_the_text_it_started_from():
    session = EditSession(6, impls=8, fields=2)
    start = session.text()
    for _ in range(5):
        strays = []
        for action, impl in session.round_edits():
            getattr(session, action)(impl)
            strays.append(len(session.strays))
        assert strays == [1, 2, 1, 0]
        assert session.text() == start
