from spans import Recorder, Span, layer_of, self_times


def test_self_time_nested():
    # root 0..10 holds a 2..8 which holds b 3..5: each level keeps what its
    # children do not cover.
    spans = [
        Span(1, 0, 0, "x.root", 0.0, 10.0),
        Span(2, 1, 0, "x.a", 2.0, 8.0),
        Span(3, 2, 0, "x.b", 3.0, 5.0),
    ]
    assert self_times(spans) == {1: 4.0, 2: 4.0, 3: 2.0}


def test_self_time_siblings():
    spans = [
        Span(1, 0, 0, "x.root", 0.0, 10.0),
        Span(2, 1, 0, "x.a", 1.0, 3.0),
        Span(3, 1, 0, "x.b", 6.0, 9.0),
    ]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0}


def test_self_time_overlapping_children_count_once_and_are_clipped():
    # A child from another thread starts before the parent and overlaps its
    # sibling: the parent is covered by the union 0..7 of 0..10.
    spans = [
        Span(1, 0, 0, "x.wait", 0.0, 10.0),
        Span(2, 1, 0, "x.other_thread", -1.0, 5.0),
        Span(3, 1, 0, "x.sibling", 4.0, 7.0),
    ]
    assert self_times(spans)[1] == 3.0


def test_wrapper_records_parent_request_id_and_count():
    class Layer:
        def outer(self, items):
            return [self.inner(i) for i in items]

        def inner(self, item):
            return item * 2

    rec = Recorder()
    rec.wrap(Layer, "outer", "pkg.layer.outer", count=lambda args, result: len(result))
    rec.wrap(Layer, "inner", "pkg.layer.inner")
    token = rec.open("loadgen.op", rid=7)
    assert Layer().outer([1, 2, 3]) == [2, 4, 6]
    rec.close(token)
    rec.uninstall()
    assert Layer().outer([1]) == [2] and len(rec.spans) == 5

    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["loadgen.op"]
    (outer,) = by_name["pkg.layer.outer"]
    assert outer.parent == root.id and outer.n == 3
    assert all(s.parent == outer.id for s in by_name["pkg.layer.inner"])
    assert {s.rid for s in rec.spans} == {7}
    assert layer_of(outer.name) == "pkg.layer"
    selfs = self_times(rec.spans)
    assert abs(sum(selfs.values()) - (root.end - root.start)) < 1e-9
