import pytest

from layers import LayerTracer, SpanRecorder


def test_self_time_subtracts_children():
    recorder = SpanRecorder()
    root = recorder.open("check")
    child = recorder.open("parse")
    grandchild = recorder.open("lex")
    recorder.close(grandchild)
    recorder.close(child)
    recorder.close(root)
    root.start, root.end = 0.0, 10.0
    child.start, child.end = 1.0, 5.0
    grandchild.start, grandchild.end = 2.0, 3.0
    own = recorder.self_times()
    assert own == {root.ident: 6.0, child.ident: 3.0, grandchild.ident: 1.0}
    assert (child.parent, grandchild.parent) == (root.ident, child.ident)


def test_spans_must_close_in_order():
    recorder = SpanRecorder()
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_tracer_records_layers_and_restores_them():
    import repro.oolong.parser as parser
    import repro.vcgen.checker as checker
    from repro.api import check_program
    from repro.obs import validate_chrome_trace
    from repro.vcgen.vc import VCBundle

    originals = (parser.tokenize, checker.vc_for_impl, VCBundle.__dict__["prove"])
    recorder = SpanRecorder()
    text = "group g\nfield a in g\nproc p(t) modifies t.g\nimpl p(t) { assume t != null ; t.a := 1 }"
    with LayerTracer(recorder):
        recorder.call("check", check_program, text)
    assert (parser.tokenize, checker.vc_for_impl, VCBundle.__dict__["prove"]) == originals

    totals = recorder.totals()
    # parse_program, check_scope and lint_scope each check well-formedness.
    assert totals["wellformed"]["count"] == 3
    assert totals["lex"]["tokens"] > 0 and totals["parse"]["decls"] == 4
    assert totals["prove"]["instantiations"] >= 1
    assert totals["vcgen"]["goal_nodes"] > 0
    root = recorder.spans[0]
    covered = sum(entry["self"] for entry in totals.values())
    assert covered == pytest.approx(root.end - root.start)
    assert validate_chrome_trace(recorder.chrome_trace()) is None


def test_paused_recorder_records_nothing():
    from repro.api import check_program

    recorder = SpanRecorder()
    with LayerTracer(recorder):
        recorder.paused = True
        check_program("group g\nproc p(t) modifies t.g\nimpl p(t) { skip }")
    assert recorder.spans == []
