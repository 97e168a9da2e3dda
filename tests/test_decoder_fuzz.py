"""Fuzz the four JSON decoders through `hpsig check`: a document with one key
deleted or its value replaced by a small JSON value exits 0, 1 or 2, and no
exception escapes the command line."""

import contextlib
import io
import json

import pytest

from hpsig import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# one of each decoder: complex, triangulation, homotopy equivalence, fibered
FIXTURES = ("sphere_model", "circle3", "he_identity_sphere_model", "fc_sphere_x_cp2")
DELETE = object()

# small values only, so that no mutation can ask for a large allocation
_scalars = st.one_of(st.integers(-2, 4), st.text(max_size=3), st.none(), st.just({}))
VALUES = st.one_of(_scalars, st.lists(_scalars, max_size=3), st.just(DELETE))


def _key_paths(doc, prefix=()):
    """The path to every key of every object in doc, outermost first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def documents(fixture_dir):
    return {name: json.loads((fixture_dir / f"{name}.json").read_text())
            for name in FIXTURES}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@hypothesis.settings(derandomize=True, deadline=None, max_examples=400)
@hypothesis.given(data=st.data())
def test_check_on_a_mutated_document_exits_cleanly(documents, scratch, data):
    name = data.draw(st.sampled_from(FIXTURES), label="fixture")
    doc = documents[name]
    path = data.draw(st.sampled_from(sorted(_key_paths(doc))), label="key")
    scratch.write_text(json.dumps(_mutated(doc, path, data.draw(VALUES, label="value"))))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", str(scratch)])
    assert code in (0, 1, 2)
